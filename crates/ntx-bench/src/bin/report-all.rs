//! Prints every reproduced table and figure in paper order, checks the
//! gates of the gated reports among them, and exits 1 if one failed.
//! It writes no `BENCH_*.json` artifacts; the per-report binaries do.

use ntx_bench::gate;

fn main() {
    let t1 = ntx_bench::table1_report();
    println!("{}", ntx_bench::format::table1(&t1));
    let rows = ntx_model::table2::this_work_rows(&ntx_dnn::TrainingModel::default());
    let paper = [22.5, 29.3, 36.7, 35.9, 47.5, 60.4, 70.6, 76.0, 78.7];
    println!(
        "{}",
        ntx_bench::format::table2(
            &rows,
            &ntx_model::compare::accelerators(),
            &ntx_model::compare::gpus(),
            &paper
        )
    );
    let points = ntx_bench::fig5_points();
    println!(
        "{}",
        ntx_bench::format::fig5(&points, &ntx_model::roofline::Roofline::default())
    );
    println!(
        "{}",
        ntx_bench::format::fig6(&ntx_model::compare::figure6(
            &ntx_dnn::TrainingModel::default()
        ))
    );
    println!(
        "{}",
        ntx_bench::format::fig7(&ntx_model::compare::figure7())
    );
    println!(
        "{}",
        ntx_bench::format::precision(&ntx_bench::precision_experiment())
    );
    println!(
        "{}",
        ntx_bench::format::greenwave(&ntx_bench::greenwave_rows())
    );
    let scaling = ntx_bench::scaling_report();
    print!("{}", ntx_bench::format::scaling(&scaling));
    let mut passed = gate::check(&gate::scaling_gates(&scaling), None);
    println!();
    let hmc = ntx_bench::hmc_report();
    print!("{}", ntx_bench::format::hmc(&hmc));
    passed &= gate::check(&gate::hmc_gates(&hmc), None);
    let mesh = ntx_bench::mesh_report();
    print!("{}", ntx_bench::format::mesh(&mesh));
    passed &= gate::check(&gate::mesh_gates(&mesh), None);
    let chaos = ntx_bench::chaos_report();
    print!("{}", ntx_bench::format::chaos(&chaos));
    passed &= gate::check(&gate::chaos_gates(&chaos), None);
    if !passed {
        std::process::exit(1);
    }
}
