//! Reference outputs, computed before anything is timed: the native
//! backend in bit-exact Kulisch mode for every kernel job, a
//! one-rounding wide-accumulator dot for raw dot jobs.

use ntx::cpu::NativeBackend;
use ntx::fpu::WideAccumulator;
use ntx::sched::JobKind;

use crate::gen::Item;

/// One kernel job on the native backend `engine`; raw command streams
/// have no native lowering and yield nothing.
pub fn native_run(engine: &NativeBackend, kind: &JobKind) -> Vec<f32> {
    match kind {
        JobKind::Gemm { dims, a, b } => engine.gemm(dims, a, b),
        JobKind::Conv2d {
            kernel,
            image,
            weights,
        } => engine.conv2d(kernel, image, weights),
        JobKind::Axpy { a, x, y } => engine.axpy(*a, x, y),
        JobKind::Stencil2d {
            height,
            width,
            grid,
        } => engine.stencil2d(*height as usize, *width as usize, grid),
        JobKind::Raw(_) => Vec::new(),
    }
}

/// The bit-exact reference output of one job.
pub fn reference(kind: &JobKind) -> Vec<f32> {
    match raw_dot_operands(kind) {
        Some((x, y)) => vec![kulisch_dot(x, y)],
        None => native_run(&NativeBackend::exact(), kind),
    }
}

pub fn references(items: &[Item]) -> Vec<Vec<f32>> {
    items.iter().map(|it| reference(&it.kind)).collect()
}

/// The two operand vectors of a generated raw dot job.
pub fn raw_dot_operands(kind: &JobKind) -> Option<(&[f32], &[f32])> {
    match kind {
        JobKind::Raw(raw) if raw.tcdm.len() == 2 => Some((&raw.tcdm[0].1, &raw.tcdm[1].1)),
        _ => None,
    }
}

/// `sum(x[i] * y[i])` accumulated exactly and rounded once.
pub fn kulisch_dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = WideAccumulator::new();
    for (&p, &q) in x.iter().zip(y) {
        acc.add_product(p, q);
    }
    acc.round()
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
