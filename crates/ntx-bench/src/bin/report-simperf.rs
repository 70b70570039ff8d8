//! Measures the simulator's burst fast path against the pure per-cycle
//! reference path on the Table I conv3x3 kernel — both the 8-NTX
//! streaming configuration (bank-contended steady state) and the
//! single-NTX sole-master regime — verifies the simulated outcomes are
//! bit-identical, and records the perf trajectory as `BENCH_sim.json`.

use ntx_bench::gate;

/// Timed repetitions per mode; the fastest run counts.
const REPS: u32 = 3;

fn main() {
    let r = ntx_bench::simperf_report(REPS);
    print!("{}", ntx_bench::format::simperf(&r));
    gate::conclude("BENCH_sim.json", &r, &gate::simperf_gates(&r));
}
