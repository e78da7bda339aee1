//! `cbt-benchmark compare <setA> <setB>`: per (workload, metric)
//! medians, quartiles and a verdict against the metric's bound.
//!
//! A set is a file of result records, one JSON object per line, as
//! `cbt-benchmark sweep` writes them. Only end-to-end metrics carry a
//! bound, so only they get a verdict.

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// The verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread of either set exceeds the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub const fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one pairing from the two sets' values.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let spread = stats::spread(a).unwrap_or(0.0).max(stats::spread(b).unwrap_or(0.0));
    // `setup_s` is exempt from the spread rule, as in the driver's
    // acceptance check.
    if spread > def.bound && def.name != "setup_s" {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// `(workload, metric) → values` of the untraced records in a set.
pub type Set = BTreeMap<(String, String), Vec<f64>>;

/// Parses a set from the text of a result file.
pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let values = v
            .get("values")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no values", i + 1))?;
        for (k, x) in values.iter() {
            if let Some(x) = x.as_f64() {
                set.entry((workload.to_string(), k.clone())).or_default().push(x);
            }
        }
    }
    Ok(set)
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static MetricDef,
    /// `(median, q1, q3)` of set A.
    pub a: (f64, f64, f64),
    /// `(median, q1, q3)` of set B.
    pub b: (f64, f64, f64),
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(v).unwrap_or((stats::median(v), stats::median(v)));
    (stats::median(v), q1, q3)
}

/// Compares two sets over every (workload, end-to-end metric) pairing
/// both contain.
pub fn compare(a: &Set, b: &Set) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            rows.push(Row {
                workload,
                metric,
                a: summary(va),
                b: summary(vb),
                verdict: verdict(metric, va, vb),
            });
        }
    }
    rows
}

/// Prints the table; true when no row is a regression.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<16} {:>6} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    for r in rows {
        let iqr =
            |(m, q1, q3): (f64, f64, f64)| if m != 0.0 { (q3 - q1).abs() / m.abs() } else { 0.0 };
        println!(
            "{:<14} {:<16} {:>6} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.a.0,
            r.b.0,
            iqr(r.a) * 100.0,
            iqr(r.b) * 100.0,
            r.metric.bound * 100.0,
            r.verdict.as_str()
        );
    }
    rows.iter().all(|r| r.verdict != Verdict::Regression)
}
