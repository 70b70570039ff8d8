//! Exact-mode GEMM against an independent oracle.
//!
//! `NativeBackend::gemm` in exact mode sums row/column pairs that fit a
//! shared-exponent integer window as `i128` integers and rounds once;
//! everything else goes product by product through the Kulisch
//! accumulator. The oracle here is neither: a test-local loop that adds
//! every product of every output into a fresh `WideAccumulator` and
//! rounds it. The two must agree on every bit, NaN pattern included.
//!
//! Each row of A and each column of B is drawn from its own profile — a
//! base exponent, an exponent spread (39 fits the integer window, 40
//! does not) and a mix of zeros, subnormals, `f32::MAX`, infinities and
//! NaNs — so one GEMM mixes outputs on both paths. Full 24-bit
//! mantissas, reduction lengths from 1 to 4096, several B column panels
//! and 1–4 threads are covered; cancelling cases negate the second half
//! of every A row against a copy of the first half of every B column.

use ntx_cpu::NativeBackend;
use ntx_fpu::WideAccumulator;
use ntx_kernels::blas::GemmKernel;
use proptest::prelude::*;

/// How one row of A or one column of B is drawn.
#[derive(Debug, Clone, Copy)]
struct Profile {
    /// Smallest biased exponent of the normal elements.
    base: u32,
    /// Exponent spread: the first element sits at `base`, the last at
    /// `base + spread` (clamped to the normal range).
    spread: u32,
    /// 0: normals only; 1: plus zeros and subnormals; 2: plus about
    /// one of `±MAX`, `±inf` or NaN per vector.
    mix: u64,
}

fn profile() -> impl Strategy<Value = Profile> {
    (
        prop_oneof![Just(1u32), 1u32..30, 1u32..255, 110u32..140, Just(200u32)],
        prop_oneof![0u32..=41, 0u32..=16, Just(39u32), Just(40u32)],
        prop_oneof![Just(0u64), Just(0u64), Just(1u64), Just(2u64)],
    )
        .prop_map(|(base, spread, mix)| Profile { base, spread, mix })
}

/// Element `idx` of a `len`-long vector drawn from `p` with random word
/// `w`.
fn element(p: Profile, idx: usize, len: usize, w: u64) -> f32 {
    let sign = ((w >> 63) as u32) << 31;
    let pick = w % 16;
    let edge = idx == 0 || idx + 1 == len;
    if p.mix >= 1 && !edge && pick == 0 {
        return f32::from_bits(sign);
    }
    if p.mix >= 1 && !edge && pick == 1 {
        return f32::from_bits(sign | ((w >> 8) as u32 & 0x7f_ffff).max(1));
    }
    if p.mix >= 2 && !edge && (w >> 16).is_multiple_of(len as u64) {
        let specials = [
            f32::MAX,
            -f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        return specials[(w >> 8) as usize % specials.len()];
    }
    let off = if idx == 0 {
        0
    } else if idx + 1 == len {
        p.spread
    } else {
        (w >> 8) as u32 % (p.spread + 1)
    };
    let biased = (p.base + off).min(254);
    f32::from_bits(sign | biased << 23 | (w >> 32) as u32 & 0x7f_ffff)
}

/// A GEMM problem: dims, row-major A and B, thread count.
#[derive(Debug, Clone)]
struct Case {
    dims: GemmKernel,
    a: Vec<f32>,
    b: Vec<f32>,
    threads: usize,
}

fn build(
    (m, k, n): (usize, usize, usize),
    threads: usize,
    cancel: bool,
    rows: &[Profile],
    cols: &[Profile],
    mut seed: u64,
) -> Case {
    // splitmix64: one fresh word per element.
    let mut word = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut a = vec![0f32; m * k];
    let mut b = vec![0f32; k * n];
    for (i, &p) in rows.iter().enumerate() {
        for l in 0..k {
            a[i * k + l] = element(p, l, k, word());
        }
    }
    for (j, &p) in cols.iter().enumerate() {
        for l in 0..k {
            b[l * n + j] = element(p, l, k, word());
        }
    }
    if cancel {
        // a[h + l] = -a[l] and b[h + l] = b[l]: the two halves of every
        // dot product cancel exactly, leaving at most the last product.
        let h = k / 2;
        for i in 0..m {
            for l in 0..h {
                a[i * k + h + l] = -a[i * k + l];
            }
        }
        for j in 0..n {
            for l in 0..h {
                b[(h + l) * n + j] = b[l * n + j];
            }
        }
    }
    let dims = GemmKernel {
        m: m as u32,
        k: k as u32,
        n: n as u32,
    };
    Case {
        dims,
        a,
        b,
        threads,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    let k = prop_oneof![1usize..=64, 65usize..=4096, Just(4096usize)];
    (1usize..=8, k, 1usize..=20, 1usize..=4, any::<bool>())
        .prop_flat_map(|(m, k, n, threads, cancel)| {
            (
                Just((m, k, n)),
                Just(threads),
                Just(cancel),
                prop::collection::vec(profile(), m),
                prop::collection::vec(profile(), n),
                any::<u64>(),
            )
        })
        .prop_map(|(shape, threads, cancel, rows, cols, seed)| {
            build(shape, threads, cancel, &rows, &cols, seed)
        })
}

/// Every output through its own `WideAccumulator`, one product at a
/// time, rounded once.
fn kulisch_gemm(dims: &GemmKernel, a: &[f32], b: &[f32]) -> Vec<f32> {
    let (m, k, n) = (dims.m as usize, dims.k as usize, dims.n as usize);
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = WideAccumulator::new();
            for l in 0..k {
                acc.add_product(a[i * k + l], b[l * n + j]);
            }
            out.push(acc.round());
        }
    }
    out
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: output {i} differs ({g:e} vs {w:e})"
        );
        if w.is_nan() {
            assert_eq!(g.to_bits(), f32::NAN.to_bits(), "{what}: NaN pattern");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exact_gemm_bit_identical_to_per_product_kulisch(case in arb_case()) {
        let got = NativeBackend::exact()
            .with_threads(case.threads)
            .gemm(&case.dims, &case.a, &case.b);
        let want = kulisch_gemm(&case.dims, &case.a, &case.b);
        assert_bits_eq(&got, &want, &format!("{:?} x{}", case.dims, case.threads));
    }
}

#[test]
fn spread_edge_rows_and_columns() {
    // Rows and columns at exactly 39 and 40 bits of exponent spread,
    // full mantissas, every pairing; k long enough that two 39-bit
    // operands overflow the i128 bound and fall back as well.
    for k in [2usize, 3, 64, 4096] {
        for (sa, sb) in [(39, 39), (39, 40), (40, 39), (40, 40), (0, 39), (20, 20)] {
            let rows = [Profile {
                base: 100,
                spread: sa,
                mix: 0,
            }; 3];
            let cols = [Profile {
                base: 90,
                spread: sb,
                mix: 0,
            }; 2];
            let case = build((3, k, 2), 1, false, &rows, &cols, k as u64);
            let got = NativeBackend::exact().gemm(&case.dims, &case.a, &case.b);
            let want = kulisch_gemm(&case.dims, &case.a, &case.b);
            assert_bits_eq(&got, &want, &format!("k={k} spreads {sa}/{sb}"));
        }
    }
}

#[test]
fn largest_sums_at_the_i128_bound() {
    // Same-sign, all-ones mantissas at the top of a `spread`-bit window
    // (one element pins the bottom): scaled magnitudes just under
    // 2^(24 + spread), so k = 4096 products sum to just under
    // 2^(48 + sa + sb + 12). 39/27 is the widest pair the i128 path
    // accepts; from 39/29 on the sum would overflow i128.
    let vector = |base: u32, spread: u32, k: usize| -> Vec<f32> {
        (0..k)
            .map(|l| {
                let biased = if l == 0 { base } else { base + spread };
                f32::from_bits(biased << 23 | 0x7f_ffff)
            })
            .collect()
    };
    let k = 4096;
    for (sa, sb) in [(39, 26), (39, 27), (39, 28), (39, 29), (39, 39), (33, 33)] {
        for sign in [1.0f32, -1.0] {
            let a: Vec<f32> = vector(60, sa, k).iter().map(|x| sign * x).collect();
            let col = vector(70, sb, k);
            // Two columns: the window one and its negation.
            let b: Vec<f32> = col.iter().flat_map(|&x| [x, -x]).collect();
            let dims = GemmKernel {
                m: 1,
                k: k as u32,
                n: 2,
            };
            let got = NativeBackend::exact().gemm(&dims, &a, &b);
            assert_bits_eq(&got, &kulisch_gemm(&dims, &a, &b), &format!("{sa}/{sb}"));
        }
    }
}

#[test]
fn signed_zero_overflow_and_empty_reductions() {
    let be = NativeBackend::exact();
    let dims = |m, k, n| GemmKernel { m, k, n };
    let check = |d: GemmKernel, a: &[f32], b: &[f32]| {
        assert_bits_eq(&be.gemm(&d, a, b), &kulisch_gemm(&d, a, b), "edge");
    };
    // -0 * x and exact cancellation both store +0.
    check(dims(1, 2, 1), &[-0.0, 3.0], &[5.0, 0.0]);
    check(dims(1, 2, 1), &[1.5, -1.5], &[2.0, 2.0]);
    // Overflow past f32::MAX to ±inf, and a sum that comes back.
    check(dims(1, 2, 1), &[f32::MAX, f32::MAX], &[1.0, 1.0]);
    check(dims(1, 2, 1), &[-f32::MAX, -f32::MAX], &[1.0, 1.0]);
    check(
        dims(1, 3, 1),
        &[f32::MAX, f32::MAX, -f32::MAX],
        &[1.0, 1.0, 1.0],
    );
    // Products below the smallest subnormal: rounding to ±0 or to it.
    let tiny = f32::from_bits(1);
    check(dims(1, 1, 1), &[tiny], &[0.5]);
    check(dims(1, 1, 1), &[-tiny], &[0.75]);
    check(dims(1, 2, 1), &[tiny, tiny], &[0.5, 0.25]);
    // Inf * 0 is NaN; opposite infinities are NaN.
    check(dims(1, 2, 1), &[f32::INFINITY, 1.0], &[0.0, 1.0]);
    check(
        dims(1, 2, 1),
        &[f32::INFINITY, f32::NEG_INFINITY],
        &[1.0, 1.0],
    );
    // k = 0 stores +0 everywhere.
    check(dims(2, 0, 3), &[], &[]);
}
