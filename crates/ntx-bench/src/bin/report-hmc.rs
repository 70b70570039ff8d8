//! Sweeps 1..64 clusters of streaming conv/GEMM against the shared
//! HMC bandwidth model, records the saturation trajectory as
//! `BENCH_hmc.json`, and gates CI on the sanity invariants: contention
//! may only stretch timing (never touch data), the ≤ 8-cluster regime
//! must stay near the PR 1 scaling numbers, and 64 clusters must be
//! clearly memory-bound saturated.

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::hmc_report();
    print!("{}", ntx_bench::format::hmc(&r));
    gate::conclude("BENCH_hmc.json", &r, &gate::hmc_gates(&r));
}
