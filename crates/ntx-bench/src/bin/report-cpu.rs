//! Benchmarks the native host-CPU backend against the cycle-accurate
//! simulator on the serving workload mix — fast-mode throughput,
//! exact-mode bit-identity, fast-mode RMSE against an `f64` reference —
//! and records the measurement as `BENCH_cpu.json`.

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::cpu_report();
    print!("{}", ntx_bench::format::cpu(&r));
    gate::conclude("BENCH_cpu.json", &r, &gate::cpu_gates(&r));
}
