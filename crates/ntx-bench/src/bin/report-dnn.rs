//! Serves one whole-network training step (AlexNet forward+backward,
//! compiled to a GEMM job DAG by `ntx_dnn::compile`) through the
//! continuous server on the cycle-accurate simulator and the bit-exact
//! native backend, cross-checks every op's output bitwise, gates the
//! split-K streaming schedule against its resident oracle, and records
//! the measurement as `BENCH_dnn.json`.

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::dnn_report();
    print!("{}", ntx_bench::format::dnn(&r));
    gate::conclude("BENCH_dnn.json", &r, &gate::dnn_gates(&r));
}
