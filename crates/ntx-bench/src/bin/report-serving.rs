//! Exercises the layered `ntx-sched` serving stack end to end — the
//! pipelined cluster farm against the barriered reference executor
//! (bit-identical per job, faster in total), continuous admission
//! against its barriered same-placement oracle (bit-identical, mean
//! job finish ahead of the batch makespan), the async server under
//! multi-client load, the analytical estimate backend (zero simulator
//! cycles),
//! and the worker-pool core-scaling sweep (1/2/4 pool threads,
//! bit-identical to serial, ≥ 1.7x jobs/s at 4 threads on a ≥ 4-core
//! host) — and records the measurement as `BENCH_serving.json`.

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::serving_report();
    print!("{}", ntx_bench::format::serving(&r));
    gate::conclude("BENCH_serving.json", &r, &gate::serving_gates(&r));
}
