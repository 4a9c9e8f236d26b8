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
}

impl MetricKind {
    /// Lower-case name used in the JSON exposition.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// Registration record for one metric (or one metric family, when the
/// name contains a `<i>` placeholder segment — e.g. `core.<i>.insns`).
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name; dot-separated, `<i>` marks a per-index family.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Unit of the value (e.g. `cycles`, `blocks`, `insns`).
    pub unit: &'static str,
    /// One-line description.
    pub help: String,
}

/// The value of one metric in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
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
/// use risotto_core::obs::{MetricValue, MetricsSnapshot, SNAPSHOT_VERSION};
///
/// let snap = MetricsSnapshot {
///     version: SNAPSHOT_VERSION,
///     metrics: [("chain.hits", MetricValue::Counter(7)), ("exec.cycles", MetricValue::Gauge(1234))]
///         .into_iter()
///         .map(|(name, value)| (name.to_owned(), value))
///         .collect(),
/// };
/// assert_eq!(snap.counter("chain.hits"), 7);
/// assert_eq!(snap.gauge("exec.cycles"), 1234);
/// assert_eq!(
///     snap.to_json(),
///     "{\"version\": 1, \"metrics\": {\"chain.hits\": {\"type\": \"counter\", \"value\": 7}, \
///      \"exec.cycles\": {\"type\": \"gauge\", \"value\": 1234}}}"
/// );
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

    /// Compact JSON exposition:
    /// `{"version":1,"metrics":{"name":{"type":"counter","value":N},…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len());
        out.push_str(&format!("{{\"version\": {}, \"metrics\": {{", self.version));
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let (kind, n) = match *v {
                MetricValue::Counter(n) => (MetricKind::Counter, n),
                MetricValue::Gauge(n) => (MetricKind::Gauge, n),
            };
            out.push_str(&format!("\"{name}\": {{\"type\": \"{}\", \"value\": {n}}}", kind.name()));
        }
        out.push_str("}}");
        out
    }
}
