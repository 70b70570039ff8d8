//! Sweeps streaming conv/GEMM farms from 1 cluster on 1 cube to 64
//! clusters on 8 cubes of the HMC mesh, records the weak-scaling
//! trajectory as `BENCH_mesh.json`, and gates CI on the mesh
//! invariants: data-affine placement keeps 64 clusters near-linear,
//! placement-blind scheduling measurably loses to it, outputs never
//! depend on topology or placement, and a cube's lone port gets the
//! whole pipe (the work-conserving schedule).

use ntx_bench::gate;

fn main() {
    let r = ntx_bench::mesh_report();
    print!("{}", ntx_bench::format::mesh(&r));
    gate::conclude("BENCH_mesh.json", &r, &gate::mesh_gates(&r));
}
