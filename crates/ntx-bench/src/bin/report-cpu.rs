//! Benchmarks the native host-CPU backend against the cycle-accurate
//! simulator on the serving workload mix — fast-mode throughput,
//! exact-mode bit-identity, fast-mode RMSE against an `f64` reference —
//! and records the measurement as `BENCH_cpu.json`.

/// Largest exact/fast wall-time ratio `report-cpu` accepts on the
/// gated GEMM workload.
const MAX_GEMM_EXACT_OVER_FAST: f64 = 20.0;

fn main() {
    let r = ntx_bench::cpu_report();
    print!("{}", ntx_bench::format::cpu(&r));
    let json = ntx_bench::format::cpu_json(&r);
    let path = "BENCH_cpu.json";
    std::fs::write(path, &json).expect("write BENCH_cpu.json");
    println!("  wrote {path}");
    // Exact mode is the whole point of the Kulisch path: its outputs
    // must match the simulator bit for bit on every workload,
    // unconditionally — no core-count carve-out, no tolerance.
    if !r.exact_bit_identical {
        eprintln!("ERROR: native exact mode diverged from the simulator bitwise");
        std::process::exit(1);
    }
    // Exact GEMM sums integer-window dot products in i128 and rounds
    // once per output; a per-product Kulisch loop ran 48x32x24 about
    // 80x slower than fast mode. Both sides of the ratio are timed by
    // this report on this host, so the bound holds on any core count.
    if r.gated_gemm_exact_over_fast > MAX_GEMM_EXACT_OVER_FAST {
        eprintln!(
            "ERROR: exact GEMM ({}) measured {:.1}x the fast-mode time (need <= {:.0}x)",
            ntx_bench::experiments::CPU_GATED_GEMM,
            r.gated_gemm_exact_over_fast,
            MAX_GEMM_EXACT_OVER_FAST
        );
        std::process::exit(1);
    }
    // Fast-mode throughput gate over the two issue workloads (conv3x3
    // and dot-4096). The simulator models every TCDM bank conflict and
    // controller handshake, so native execution clears 20x even on one
    // core; the CI floor is a conservative 5x and only enforced where
    // the runner has real cores to spend. Narrower hosts still print
    // the measurement.
    if r.host_cores >= 4 {
        if r.gated_fast_speedup < 5.0 {
            eprintln!(
                "ERROR: fast mode measured {:.1}x over the simulator on a {}-core \
                 host (need >= 5x on conv3x3 and dot-4096)",
                r.gated_fast_speedup, r.host_cores
            );
            std::process::exit(1);
        }
    } else {
        println!(
            "  note: {}-core host; gated fast speedup {:.1}x is informational \
             (gate needs >= 4 cores)",
            r.host_cores, r.gated_fast_speedup
        );
    }
}
