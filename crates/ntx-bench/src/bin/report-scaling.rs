//! Prints the multi-cluster strong-scaling experiment: the Table I
//! conv3x3 workload sharded across 1..8 clusters by `ntx-sched`, with
//! bitwise output verification and the modelled power roll-up.

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::scaling_report();
    print!("{}", ntx_bench::format::scaling(&r));
    if !gate::check(&gate::scaling_gates(&r), None) {
        std::process::exit(1);
    }
}
