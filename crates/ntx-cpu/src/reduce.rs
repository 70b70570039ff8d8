//! Reduction primitives for the native backend.
//!
//! The fast path follows the shape of a software Kulisch substitute on
//! commodity hardware (SNIPPETS snippets 1–3): a floating-point add has
//! a 3–5 cycle latency, so a single running sum serializes the whole
//! reduction on that latency chain. Splitting the stream over
//! [`LANES`] independent partial sums lets the core retire one FMA per
//! issue slot (and lets the autovectorizer map the lane array onto a
//! SIMD register), then a log-depth tree combines the lanes at the
//! end. The result is *not* bit-identical to a sequential sum.
//!
//! The exact path computes the one correctly rounded value of the
//! whole sum, the same bits [`ntx_fpu::WideAccumulator`] stores. It
//! follows the NTX datapath's idea of a fixed-point window only as
//! wide as the operands need (§II-C) and the shared-exponent integer
//! reduction of microscaling datapaths (Cuyckens et al., 2025): each
//! operand vector is scaled once onto an integer grid anchored at its
//! smallest exponent, a dot product of two such vectors is an `i128`
//! integer sum, and that sum is rounded once. Vectors whose grid does
//! not fit (infinities, NaNs, exponent spreads beyond 39 bits, or sums
//! that could overflow `i128`) take the per-product Kulisch loop
//! instead, output by output.

use ntx_fpu::{compose, WideAccumulator};

/// Number of independent partial-sum accumulators in the fast path.
///
/// Eight `f32` lanes fill one 256-bit vector register and comfortably
/// cover the FP-add latency×throughput product of current cores.
pub const LANES: usize = 8;

/// Combines the partial-sum lanes with a balanced binary tree
/// (pairwise adds, log₂ depth) instead of a left fold.
#[inline]
#[must_use]
pub fn tree_combine(lanes: [f32; LANES]) -> f32 {
    let a = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let b = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    a + b
}

/// Fast dot product: [`LANES`] round-robin partial sums over the
/// element stream, tree-combined at the end.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[must_use]
pub fn dot_fast(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot operands must have equal lengths");
    let mut acc = [0.0f32; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (cx, cy) in xc.by_ref().zip(yc.by_ref()) {
        for i in 0..LANES {
            acc[i] += cx[i] * cy[i];
        }
    }
    for (i, (&a, &b)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        acc[i] += a * b;
    }
    tree_combine(acc)
}

/// Exact dot product: the exact sum of all products, rounded to `f32`
/// once (round-to-nearest-even), independent of accumulation order.
/// Bit-identical to accumulating every product in a
/// [`WideAccumulator`] and rounding it.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[must_use]
pub fn dot_exact(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot operands must have equal lengths");
    // A 1×k by k×1 GEMM.
    let mut out = [0.0f32];
    gemm_exact_rows(x, y, x.len(), 1, 0, &mut out);
    out[0]
}

/// Largest exponent spread, in bits, of a vector [`scale`] accepts: a
/// 24-bit significand shifted up by at most 39 bits still fits `i64`.
const MAX_SPREAD: u32 = 39;

/// Scaled B elements one exact-GEMM panel holds (256 KiB of `i64`):
/// as many whole columns as fit, at least one.
const PANEL_ELEMS: usize = 1 << 15;

/// The integer grid of one scaled vector: element `i` equals
/// `scaled[i] · 2^lsb_exp` exactly.
#[derive(Debug, Clone, Copy)]
struct Grid {
    /// Weight of the grid's unit: the smallest exponent (LSB weight of
    /// the significand) among the vector's nonzero elements, or 0 if
    /// it has none.
    lsb_exp: i32,
    /// Bit length of the largest scaled magnitude.
    bits: u32,
}

/// Scales `xs` onto its own integer grid, writing `±m·2^(e−e_min)`
/// for each element into `out` (zeros, either sign, become 0).
///
/// Returns `None`, leaving `out` unspecified, when `xs` holds an
/// infinity or NaN or its nonzero exponents spread over more than
/// [`MAX_SPREAD`] bits.
fn scale(xs: &[f32], out: &mut [i64]) -> Option<Grid> {
    // Both passes are branch-free over the raw bits. A subnormal's
    // significand LSB weighs 2^-149, as does a biased exponent of 1;
    // infinities and NaNs carry biased exponent 255.
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    for &x in xs {
        let bits = x.to_bits();
        let e = ((bits >> 23) & 0xff).max(1);
        let nonzero = bits << 1 != 0;
        lo = lo.min(if nonzero { e } else { u32::MAX });
        hi = hi.max(if nonzero { e } else { 0 });
    }
    if hi == 0xff || hi.saturating_sub(lo) > MAX_SPREAD {
        return None;
    }
    let mut ored = 0u64;
    for (o, &x) in out.iter_mut().zip(xs) {
        let bits = x.to_bits();
        let biased = (bits >> 23) & 0xff;
        let mantissa = (bits & 0x7f_ffff) | u32::from(biased != 0) << 23;
        // Zeros clamp their shift to 0 (their mantissa is 0 anyway).
        let mag = u64::from(mantissa) << (biased.max(1).max(lo) - lo);
        ored |= mag;
        let neg = -i64::from(bits >> 31);
        *o = (mag as i64 ^ neg) - neg;
    }
    Some(Grid {
        lsb_exp: if hi == 0 { 0 } else { lo as i32 - 150 },
        bits: u64::BITS - ored.leading_zeros(),
    })
}

/// Exact dot product of two equally long scaled vectors, rounded once
/// to `f32`, or `None` if the sum could overflow `i128` (when
/// `bits_x + bits_y + ⌈log2 len⌉ + 1 > 127`). An exact zero sum gives
/// `+0.0`, as the Kulisch accumulator does.
fn grid_dot(x: &[i64], gx: Grid, y: &[i64], gy: Grid) -> Option<f32> {
    debug_assert_eq!(x.len(), y.len());
    let log_len = usize::BITS - x.len().saturating_sub(1).leading_zeros();
    if gx.bits + gy.bits + log_len + 1 > 127 {
        return None;
    }
    let acc: i128 = x
        .iter()
        .zip(y)
        .map(|(&a, &b)| i128::from(a) * i128::from(b))
        .sum();
    Some(compose(
        acc < 0,
        acc.unsigned_abs(),
        gx.lsb_exp + gy.lsb_exp,
        false,
    ))
}

/// Exact row-major GEMM over whole output rows: fills `out` (rows
/// `row0..row0 + out.len() / n` of `C = A·B`, where A has `k` columns
/// and B is `k × n`) with one correctly rounded dot product per
/// element.
///
/// B is scaled in panels of whole columns of at most [`PANEL_ELEMS`]
/// elements (or one column), and each A row once per panel into one
/// reusable buffer, so scratch memory does not grow with the number of
/// rows. An output whose row or column has no [`Grid`], or whose sum
/// could overflow `i128`, runs the per-product Kulisch loop instead.
///
/// # Panics
/// Panics if `a`, `b` or `out` are too short for the shape.
pub(crate) fn gemm_exact_rows(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out: &mut [f32],
) {
    if out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    let panel_cols = (PANEL_ELEMS / k.max(1)).clamp(1, n);
    let mut panel = vec![0i64; panel_cols * k];
    let mut grids = vec![None; panel_cols];
    let mut col = vec![0f32; k];
    let mut arow = vec![0i64; k];
    let mut acc = WideAccumulator::new();
    for c0 in (0..n).step_by(panel_cols) {
        let cols = panel_cols.min(n - c0);
        let slots = grids.iter_mut().zip(panel.chunks_mut(k.max(1)));
        for (j, (grid, scaled)) in slots.take(cols).enumerate() {
            for (l, slot) in col.iter_mut().enumerate() {
                *slot = b[l * n + c0 + j];
            }
            *grid = scale(&col, scaled);
        }
        for r in 0..rows {
            let ar = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let ga = scale(ar, &mut arow);
            let out_row = &mut out[r * n + c0..r * n + c0 + cols];
            for (j, o) in out_row.iter_mut().enumerate() {
                let fast = match (ga, grids[j]) {
                    (Some(ga), Some(gb)) => grid_dot(&arow, ga, &panel[j * k..(j + 1) * k], gb),
                    _ => None,
                };
                *o = fast.unwrap_or_else(|| {
                    acc.clear();
                    for (l, &al) in ar.iter().enumerate() {
                        acc.add_product(al, b[l * n + c0 + j]);
                    }
                    acc.round()
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, mut seed: u32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 17;
                seed ^= seed << 5;
                ((seed % 257) as f32 - 128.0) / 7.0
            })
            .collect()
    }

    #[test]
    fn fast_dot_tracks_f64_reference() {
        for n in [0, 1, 7, 8, 9, 63, 4096] {
            let x = data(n, 0x11);
            let y = data(n, 0x22);
            let reference: f64 = x
                .iter()
                .zip(&y)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            let got = f64::from(dot_fast(&x, &y));
            let scale: f64 = x.iter().map(|&a| f64::from(a).abs()).sum::<f64>() + 1.0;
            assert!(
                (got - reference).abs() <= 1e-3 * scale,
                "n={n}: fast dot {got} strayed from reference {reference}"
            );
        }
    }

    #[test]
    fn exact_dot_matches_order_permutation() {
        let x = data(129, 0x33);
        let y = data(129, 0x44);
        let forward = dot_exact(&x, &y);
        let rx: Vec<f32> = x.iter().rev().copied().collect();
        let ry: Vec<f32> = y.iter().rev().copied().collect();
        assert_eq!(
            forward.to_bits(),
            dot_exact(&rx, &ry).to_bits(),
            "Kulisch reduction must be order-independent"
        );
    }

    #[test]
    fn exact_dot_matches_wide_accumulator() {
        let kulisch = |x: &[f32], y: &[f32]| {
            let mut acc = WideAccumulator::new();
            for (&a, &b) in x.iter().zip(y) {
                acc.add_product(a, b);
            }
            acc.round()
        };
        let tiny = f32::from_bits(1);
        let cases: [(&[f32], &[f32]); 7] = [
            (&[], &[]),
            (&[-0.0, 0.0], &[1.0, -1.0]),
            (&[1.0, -1.0, 3.0e-7], &[0.1, 0.1, 0.1]),
            (&[tiny, -tiny, tiny], &[0.75, 0.25, 0.5]),
            // 2^40 apart: no shared grid, the Kulisch loop answers.
            (&[1.0, 9.094_947e-13], &[1.0, 1.0]),
            (&[f32::MAX, f32::MAX], &[2.0, -1.0]),
            (&[f32::INFINITY, 1.0], &[0.0, 1.0]),
        ];
        for (x, y) in cases {
            assert_eq!(
                dot_exact(x, y).to_bits(),
                kulisch(x, y).to_bits(),
                "{x:?} . {y:?}"
            );
        }
        let (x, y) = (data(4096, 0x55), data(4096, 0x66));
        assert_eq!(dot_exact(&x, &y).to_bits(), kulisch(&x, &y).to_bits());
    }

    #[test]
    fn tree_combine_sums_all_lanes() {
        let lanes = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert_eq!(tree_combine(lanes), 255.0);
    }
}
