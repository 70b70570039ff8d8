//! Bench-trajectory comparison: fresh `BENCH_*.json` vs committed
//! baselines.
//!
//! The report binaries emit their measurements as JSON with a stable
//! schema; `bench/baseline/` holds committed copies from a known-good
//! run. [`compare`] flattens both documents to `path -> value` pairs
//! and gates the **cycle-domain** metrics — numeric keys containing
//! `cycles` (deterministic simulator outputs, machine-independent) and
//! booleans the baseline holds `true` (bit-identity, DAG-order and
//! determinism flags). A gated number may grow at most
//! [`TOLERANCE`] (15 %) over its baseline; a gated boolean may never
//! flip to `false`. Everything wall-clock — `*_wall_s`, `*_speedup`,
//! latency seconds — varies with the host and stays informational.
//!
//! Both documents go through [`crate::json::parse`], the reader for
//! what [`crate::json::write`] prints.

use crate::json::{flatten, parse, Json};

/// Fractional growth a gated cycle-domain metric may show over its
/// baseline before `bench-diff` fails (0.15 = +15 %).
pub const TOLERANCE: f64 = 0.15;

/// Whether a flattened path is a gated cycle-domain number.
fn is_cycle_metric(path: &str) -> bool {
    path.rsplit('.')
        .next()
        .is_some_and(|k| k.contains("cycles"))
}

/// One comparison failure.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Flattened metric path.
    pub path: String,
    /// What went wrong, with both values.
    pub detail: String,
}

/// Outcome of comparing one fresh report against its baseline.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Cycle-domain numbers checked.
    pub gated_numbers: usize,
    /// Baseline-true booleans checked.
    pub gated_bools: usize,
    /// Metrics that regressed past tolerance (fail CI).
    pub regressions: Vec<Regression>,
    /// Largest fractional growth seen over a gated nonzero baseline
    /// number (may be negative: an improvement).
    pub worst_growth: f64,
}

/// Compares a fresh report against its committed baseline.
///
/// Gated: numeric keys containing `cycles` may grow at most
/// [`TOLERANCE`] over the baseline; booleans the baseline holds `true`
/// must stay `true`; a gated baseline metric missing from the fresh
/// report is a failure (schema changes require a baseline refresh).
/// Everything else — wall-clock seconds, speedups, counts — is
/// informational. Keys only the fresh report has are ignored.
///
/// # Errors
///
/// The baseline or fresh document fails to parse.
pub fn compare(baseline: &str, fresh: &str) -> Result<DiffOutcome, String> {
    let base = flatten(&parse(baseline).map_err(|e| format!("baseline: {e}"))?);
    let fresh: std::collections::HashMap<String, Json> =
        flatten(&parse(fresh).map_err(|e| format!("fresh: {e}"))?)
            .into_iter()
            .collect();
    let mut out = DiffOutcome {
        worst_growth: f64::NEG_INFINITY,
        ..DiffOutcome::default()
    };
    for (path, bv) in base {
        match bv {
            Json::Num(b) if is_cycle_metric(&path) => {
                out.gated_numbers += 1;
                match fresh.get(&path) {
                    Some(Json::Num(f)) => {
                        if b > 0.0 {
                            out.worst_growth = out.worst_growth.max((f - b) / b);
                        }
                        if *f > b * (1.0 + TOLERANCE) {
                            out.regressions.push(Regression {
                                path,
                                detail: format!(
                                    "{f:.0} cycles vs baseline {b:.0} (+{:.1}%, limit +{:.0}%)",
                                    (f - b) / b * 100.0,
                                    TOLERANCE * 100.0
                                ),
                            });
                        }
                    }
                    other => out.regressions.push(Regression {
                        path,
                        detail: format!("baseline has {b:.0} cycles, fresh has {other:?}"),
                    }),
                }
            }
            Json::Bool(true) => {
                out.gated_bools += 1;
                if fresh.get(&path) != Some(&Json::Bool(true)) {
                    out.regressions.push(Regression {
                        detail: format!("baseline true, fresh {:?}", fresh.get(&path)),
                        path,
                    });
                }
            }
            _ => {}
        }
    }
    if out.worst_growth == f64::NEG_INFINITY {
        out.worst_growth = 0.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_shaped_json() {
        let doc = r#"{
  "network": "AlexNet",
  "runs": [ { "jobs": 23, "wall_s": 0.5, "ok": true }, { "jobs": 23 } ],
  "err": 3.9e-5,
  "neg": -1,
  "nothing": null
}"#;
        let v = parse(doc).expect("parses");
        let flat = flatten(&v);
        assert!(flat.contains(&("network".into(), Json::Str("AlexNet".into()))));
        assert!(flat.contains(&("runs[0].jobs".into(), Json::Num(23.0))));
        assert!(flat.contains(&("runs[1].jobs".into(), Json::Num(23.0))));
        assert!(flat.contains(&("err".into(), Json::Num(3.9e-5))));
        assert!(flat.contains(&("nothing".into(), Json::Null)));
        assert!(parse("{ \"a\": 1 } x").is_err());
        assert!(parse("{ \"a\": }").is_err());
    }

    #[test]
    fn gates_cycles_growth_and_boolean_flips() {
        let base = r#"{ "makespan_cycles": 1000, "wall_s": 1.0, "bit_identical": true }"#;
        let same = r#"{ "makespan_cycles": 1100, "wall_s": 9.0, "bit_identical": true }"#;
        let out = compare(base, same).expect("compares");
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.gated_numbers, 1);
        assert_eq!(out.gated_bools, 1);
        assert!((out.worst_growth - 0.1).abs() < 1e-9);

        let slow = r#"{ "makespan_cycles": 1200, "wall_s": 0.1, "bit_identical": true }"#;
        let out = compare(base, slow).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "makespan_cycles");

        let broken = r#"{ "makespan_cycles": 900, "wall_s": 0.1, "bit_identical": false }"#;
        let out = compare(base, broken).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "bit_identical");
    }

    #[test]
    fn missing_gated_metric_fails_but_new_keys_pass() {
        let base = r#"{ "runs": [ { "makespan_cycles": 10 } ] }"#;
        let fresh = r#"{ "runs": [ { "other": 1 } ], "extra": true }"#;
        let out = compare(base, fresh).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "runs[0].makespan_cycles");
        // Baseline-false booleans and wall-clock values are never gated.
        let base = r#"{ "flag": false, "wall_s": 1.0 }"#;
        let fresh = r#"{ "flag": true, "wall_s": 100.0 }"#;
        assert!(compare(base, fresh)
            .expect("compares")
            .regressions
            .is_empty());
    }
}
