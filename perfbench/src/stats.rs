//! Percentiles, the result line and the process's peak memory.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Writes a result file; a failure is reported, not fatal.
pub fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Percentiles the tail is reported at, highest first. The ladder stops
/// at p99: p99.9 of the sub-millisecond `serve_mix` latencies moved by
/// up to a quarter between runs on a two-core host, with OS scheduling
/// hiccups rather than the program setting it.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest ladder percentile with at least ten samples beyond it:
/// `(percentile, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    let q = TAIL_LADDER
        .into_iter()
        .find(|&q| n - ((q * n as f64).ceil() as usize).min(n) >= 10)
        .unwrap_or(0.5);
    (q, quantile(v, q))
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
    }

    /// The metrics as a JSON object body.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

/// The result line: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics.json()
    )
}
