//! `compare <a> <b>`: two result files (one line per invocation, as
//! `--out` appends them) side by side, with a verdict per workload and
//! end-to-end metric by the bounds this benchmark fixed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::run::{median, END_TO_END};
use crate::workloads::Workload;

/// The untraced runs of one workload in one result file.
#[derive(Debug, Default)]
struct Runs {
    /// Metric name → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them.
fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single run.
pub fn spread(xs: &[f64]) -> f64 {
    quartiles(xs).map_or(0.0, |[q1, _, q3]| (q3 - q1) / median(xs))
}

fn load(path: &str) -> Result<BTreeMap<String, Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let run = Json::parse(line).map_err(|e| bad(&e))?;
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or(bad("no `workload`"))?;
        let runs = by_workload.entry(workload.to_owned()).or_default();
        runs.attempted +=
            run.get("attempted").and_then(Json::as_f64).ok_or(bad("no `attempted`"))?;
        runs.failed += run.get("failed").and_then(Json::as_f64).ok_or(bad("no `failed`"))?;
        let metrics = run.get("metrics").and_then(Json::as_obj).ok_or(bad("no `metrics`"))?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or(bad("metric without value"))?;
            runs.values.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(by_workload)
}

/// Judges `b` against the base `a` for one metric.
fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let range = |xs: &[f64]| {
        (xs.iter().copied().fold(f64::INFINITY, f64::min), xs.iter().copied().fold(0.0, f64::max))
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread(a).max(spread(b)) > bound && overlap {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if worse_by < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Compares two result files; returns the report and whether anything
/// regressed.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(out, "base a = {path_a}\n     b = {path_b}");
    let _ = writeln!(
        out,
        "{:<15} {:<12} {:>14} {:>4} {:>7}  {:>14} {:>4} {:>7}  {:>8}  verdict",
        "workload", "metric", "median a", "n", "iqr a", "median b", "n", "iqr b", "b/a"
    );
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (a.get(w.name()), b.get(w.name())) else { continue };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ra.values.get(m.name), rb.values.get(m.name)) else {
                continue;
            };
            let v = verdict(va, vb, m.higher_is_better, m.bound);
            regressed |= v == "regressed";
            let _ = writeln!(
                out,
                "{:<15} {:<12} {:>14.4} {:>4} {:>6.2}%  {:>14.4} {:>4} {:>6.2}%  {:>8.4}  {v}",
                w.name(),
                m.name,
                median(va),
                va.len(),
                100.0 * spread(va),
                median(vb),
                vb.len(),
                100.0 * spread(vb),
                median(vb) / median(va),
            );
        }
        let (fa, fb) = (ra.failed / ra.attempted, rb.failed / rb.attempted);
        let v = if fb > fa { "regressed" } else { "unchanged" };
        regressed |= fb > fa;
        let _ = writeln!(
            out,
            "{:<15} {:<12} {:>14} of {:<9}  {:>14} of {:<9}  {:>8}  {v}",
            w.name(),
            "failed",
            ra.failed,
            ra.attempted,
            rb.failed,
            rb.attempted,
            ""
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let xs: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&xs), Some([3.5, 24.0, 160.0]));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let steady = [100.0, 100.5, 101.0, 100.2];
        assert_eq!(verdict(&steady, &[100.1, 100.6, 100.9, 100.3], true, 0.05), "unchanged");
        assert_eq!(verdict(&steady, &[90.0, 90.5, 91.0, 90.2], true, 0.05), "regressed");
        assert_eq!(verdict(&steady, &[90.0, 90.5, 91.0, 90.2], false, 0.05), "improved");
        // Wide spread and overlapping runs: no call either way.
        let noisy = [80.0, 100.0, 120.0, 95.0];
        assert_eq!(verdict(&noisy, &[85.0, 90.0, 110.0, 70.0], true, 0.05), "unresolved");
        // Wide spread but every run of b reads worse than every run of a.
        assert_eq!(verdict(&noisy, &[40.0, 50.0, 60.0, 45.0], true, 0.05), "regressed");
    }
}
