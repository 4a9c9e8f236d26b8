//! The metric value types and the snapshot every counter the engine,
//! optimizer and host machine expose is read into, under one schema (see
//! `docs/METRICS.md`).
//!
//! There is no store behind a snapshot: `Emulator::metrics` walks the
//! one table in `engine/metrics.rs` over the authoritative sources (the
//! engine's counts, [`risotto_tcg::OptStats`], `ChainStats`/`CoreStats`)
//! and nothing here feeds back into execution, so observability cannot
//! change simulated cycles.

use std::collections::BTreeMap;

/// Schema version stamped into every [`MetricsSnapshot`].
pub const SNAPSHOT_VERSION: u64 = 1;

/// The type of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Summary of observed samples (count / sum / min / max).
    Histogram,
}

impl MetricKind {
    /// Lower-case name used in the JSON exposition.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Registration record for one metric (or one metric family, when the
/// name contains a `<i>` placeholder segment — e.g. `core.<i>.insns`).
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name; dot-separated, `<i>` marks a per-index family.
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Unit of the value (e.g. `cycles`, `blocks`, `ns`).
    pub unit: &'static str,
    /// One-line description.
    pub help: String,
}

/// Summary statistics of one histogram metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observed samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistSummary {
    /// Records one sample.
    pub(crate) fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// The value of one metric in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram summary.
    Histogram(HistSummary),
}

impl MetricValue {
    /// The scalar value of a counter or gauge (`None` for histograms).
    pub fn scalar(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Normalizes a concrete metric name to its documented form: numeric
/// dot-segments become `<i>` (`core.3.insns` → `core.<i>.insns`).
pub fn doc_name(name: &str) -> String {
    name.split('.')
        .map(
            |seg| {
                if seg.bytes().all(|b| b.is_ascii_digit()) && !seg.is_empty() {
                    "<i>"
                } else {
                    seg
                }
            },
        )
        .collect::<Vec<_>>()
        .join(".")
}

/// A versioned, immutable copy of every metric, with a JSON exposition.
///
/// ```
/// use risotto_core::obs::{HistSummary, MetricValue, MetricsSnapshot, SNAPSHOT_VERSION};
///
/// let snap = MetricsSnapshot {
///     version: SNAPSHOT_VERSION,
///     metrics: [
///         ("chain.hits", MetricValue::Counter(7)),
///         ("exec.cycles", MetricValue::Gauge(1234)),
///         (
///             "stage.decode_ns",
///             MetricValue::Histogram(HistSummary { count: 2, sum: 1000, min: 200, max: 800 }),
///         ),
///     ]
///     .into_iter()
///     .map(|(name, value)| (name.to_owned(), value))
///     .collect(),
/// };
/// assert_eq!(snap.counter("chain.hits"), 7);
/// assert_eq!(snap.gauge("exec.cycles"), 1234);
/// assert_eq!(snap.histogram("stage.decode_ns").sum, 1000);
/// assert!(snap.to_json().starts_with("{\"version\": 1, \"metrics\": {"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Metric name → value, deterministically ordered.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Reads a counter total (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Reads a gauge (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Reads a histogram summary (empty if absent).
    pub fn histogram(&self, name: &str) -> HistSummary {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistSummary::default(),
        }
    }

    /// Compact JSON exposition:
    /// `{"version":1,"metrics":{"name":{"type":"counter","value":N},…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len());
        out.push_str(&format!("{{\"version\": {}, \"metrics\": {{", self.version));
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": "));
            match v {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => {
                    out.push_str(&format!("{{\"type\": \"{}\", \"value\": {n}}}", v.kind().name()));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                        h.count, h.sum, h.min, h.max
                    ));
                }
            }
        }
        out.push_str("}}");
        out
    }
}
