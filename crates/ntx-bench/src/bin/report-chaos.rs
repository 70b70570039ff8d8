//! Exercises the serving stack's robustness layer — a seeded chaos
//! schedule (cluster kill mid-run, transient stalls, serial-link
//! degradation) against the open-loop load generator — and records the
//! measurement as `BENCH_chaos.json`, gated on zero lost jobs,
//! bit-identical recovery, proportional makespan degradation, explicit
//! shedding under 2x saturation and explicit async outcomes
//! (`ntx_bench::gate::chaos_gates`).

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::chaos_report();
    print!("{}", ntx_bench::format::chaos(&r));
    gate::conclude("BENCH_chaos.json", &r, &gate::chaos_gates(&r));
}
