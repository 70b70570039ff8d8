//! The GEMM shapes of the scaled AlexNet training step on the native
//! exact backend and on the cycle-accurate simulator, bit for bit.
//!
//! The step is `ntx_dnn::compile::training_step(alexnet, 64)` with every
//! dim divided by 16 and rounded up: 23 ops from skinny `k = 4` weight
//! gradients with 147k outputs to `k = 576` products with four. The
//! simulator reduces each dot product in its Kulisch datapath (split-K
//! through the spilled accumulator where an op overflows the TCDM); the
//! native backend sums integer-window dot products in `i128`. Operands
//! carry full 24-bit mantissas so every output genuinely rounds.

use ntx::cpu::NativeBackend;
use ntx::dnn::compile::training_step;
use ntx::dnn::networks::alexnet;
use ntx::kernels::blas::GemmKernel;
use ntx::sched::{run_sharded, Job, JobKind};

/// `n` values in `[-1, 1)` with full mantissas, from an xorshift seed.
fn data(n: usize, mut seed: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

#[test]
fn training_step_shapes_native_exact_matches_simulator() {
    let step = training_step(&alexnet(), 64);
    assert_eq!(step.ops.len(), 23);
    let native = NativeBackend::exact().with_threads(2);
    for (i, op) in step.ops.iter().enumerate() {
        let dims = GemmKernel {
            m: op.dims.m.div_ceil(16),
            k: op.dims.k.div_ceil(16),
            n: op.dims.n.div_ceil(16),
        };
        let seed = 0x5eed_0000 + 2 * i as u32;
        let a = data((dims.m * dims.k) as usize, seed);
        let b = data((dims.k * dims.n) as usize, seed + 1);
        let got = native.gemm(&dims, &a, &b);
        let job = Job::new(i as u64, &op.name, JobKind::Gemm { dims, a, b });
        let want = run_sharded(&job, 4).expect("simulator runs the op").output;
        assert_eq!(got.len(), want.len(), "{}: output length", op.name);
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} {dims:?}: output {j} differs ({g:e} vs {w:e})",
                op.name
            );
        }
    }
}
