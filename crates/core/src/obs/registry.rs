//! The unified metrics registry: every counter the engine, optimizer and
//! host machine expose, under one schema (see `docs/METRICS.md`).
//!
//! The registry is *passive*: it is filled from the authoritative
//! sources (`Report`-era fields, [`risotto_tcg::OptStats`],
//! `ChainStats`/`CoreStats`) and never feeds back into execution, so
//! enabling observability cannot change simulated cycles.

use risotto_memmodel::FenceKind;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

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
    fn observe(&mut self, v: u64) {
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

/// The value of one metric in a registry or snapshot.
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

fn spec(name: &str, kind: MetricKind, unit: &'static str, help: &str) -> MetricSpec {
    MetricSpec { name: name.to_owned(), kind, unit, help: help.to_owned() }
}

/// The unified metrics registry.
///
/// Every metric of the static schema ([`MetricsRegistry::specs`]) is
/// pre-registered at zero; per-index family members (`core.<i>.…`) are
/// materialized on first write. Values live in a name-sorted table, so
/// snapshots and their JSON exposition are deterministically ordered.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// `(name, value)`, sorted by name. Schema names are borrowed from
    /// the process-wide schema; only family members own theirs.
    values: Vec<(Cow<'static, str>, MetricValue)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// The zeroed registry [`MetricsRegistry::new`] copies: every
/// non-family metric of the schema, sorted by name. Built once per
/// process — an `Emulator` is constructed per guest program, and the
/// schema (some ninety `MetricSpec`s with their help strings) is
/// documentation, not something to rebuild each time.
fn zeroed() -> &'static [(Cow<'static, str>, MetricValue)] {
    static SCHEMA: OnceLock<Vec<MetricSpec>> = OnceLock::new();
    static ZEROED: OnceLock<Vec<(Cow<'static, str>, MetricValue)>> = OnceLock::new();
    ZEROED.get_or_init(|| {
        let mut values: Vec<_> = SCHEMA
            .get_or_init(MetricsRegistry::specs)
            .iter()
            // A family's members are registered on first write.
            .filter(|s| !s.name.contains("<i>"))
            .map(|s| {
                let zero = match s.kind {
                    MetricKind::Counter => MetricValue::Counter(0),
                    MetricKind::Gauge => MetricValue::Gauge(0),
                    MetricKind::Histogram => MetricValue::Histogram(HistSummary::default()),
                };
                (Cow::Borrowed(s.name.as_str()), zero)
            })
            .collect();
        values.sort_by(|a, b| a.0.cmp(&b.0));
        values
    })
}

impl MetricsRegistry {
    /// A registry with every non-family metric of the schema at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry { values: zeroed().to_vec() }
    }

    /// The slot of `name`, registered with `zero` if new.
    fn slot(&mut self, name: &str, zero: MetricValue) -> &mut MetricValue {
        let at = match self.values.binary_search_by(|(n, _)| n.as_ref().cmp(name)) {
            Ok(at) => at,
            Err(at) => {
                self.values.insert(at, (Cow::Owned(name.to_owned()), zero));
                at
            }
        };
        &mut self.values[at].1
    }

    fn get(&self, name: &str) -> Option<&MetricValue> {
        let at = self.values.binary_search_by(|(n, _)| n.as_ref().cmp(name)).ok()?;
        Some(&self.values[at].1)
    }

    /// The full metric schema: one [`MetricSpec`] per metric, including
    /// the per-kind fence counters and the `core.<i>.…` per-core
    /// families. `docs/METRICS.md` must document exactly this list
    /// (enforced by `tests/obs.rs`).
    pub fn specs() -> Vec<MetricSpec> {
        use MetricKind::{Counter, Gauge, Histogram};
        let mut v = vec![
            spec("translate.blocks", Counter, "blocks", "Translations installed (incl. retranslations and native thunks)"),
            spec("translate.retranslations", Counter, "blocks", "Translations beyond a block's first (evictions, corruption refills, quarantine retries)"),
            spec("translate.fallback_blocks", Counter, "blocks", "Quarantine episodes: blocks that entered interpreter fallback"),
            spec("translate.interp_steps", Counter, "insns", "Guest instructions executed by the fallback interpreter"),
            spec("translate.insns", Counter, "insns", "Guest instructions covered by tier-1 translations"),
            spec("template.blocks", Counter, "blocks", "Blocks translated by tier-0 template instantiation"),
            spec("template.insns", Counter, "insns", "Guest instructions covered by tier-0 template translations"),
            spec("template.promotions", Counter, "blocks", "Tier-0 blocks re-translated through the tier-1 pipeline on warming"),
            spec("template.promotion_failures", Counter, "blocks", "Tier-0→1 promotions that failed; the template stays installed"),
            spec("fault.injected", Counter, "faults", "Injected translate/lower/syscall faults encountered"),
            spec("opt.folded", Counter, "ops", "Constants folded by the optimizer"),
            spec("opt.loads_forwarded", Counter, "ops", "Loads forwarded (RAR + RAW elimination)"),
            spec("opt.stores_eliminated", Counter, "ops", "Dead stores removed (WAW elimination)"),
            spec("opt.fences_merged", Counter, "fences", "Fences merged away (all kinds)"),
            spec("opt.dce_removed", Counter, "ops", "Ops removed by dead-code elimination"),
            spec("chain.hits", Counter, "exits", "Direct-jump exits through an already-patched chain slot"),
            spec("chain.links", Counter, "exits", "Direct-jump exits resolved by the dispatcher then patched"),
            spec("chain.flushes", Counter, "slots", "Chain slots un-patched / jump-cache entries dropped on unmap"),
            spec("jcache.hits", Counter, "exits", "Indirect exits that hit the per-core jump cache"),
            spec("jcache.misses", Counter, "exits", "Indirect exits resolved by the full dispatcher lookup"),
            spec("exec.insns", Counter, "insns", "Host instructions retired, all cores"),
            spec("exec.atomics", Counter, "insns", "Atomic RMW instructions executed"),
            spec("fence.exec.dmb_ld", Counter, "fences", "DMB LD barriers executed"),
            spec("fence.exec.dmb_st", Counter, "fences", "DMB ST barriers executed"),
            spec("fence.exec.dmb_ff", Counter, "fences", "DMB FF (SY) barriers executed"),
            spec("fence.exec.cycles", Counter, "cycles", "Cycles attributed to barriers"),
            spec("engine.syscalls", Counter, "calls", "Completed (non-busy-wait) guest syscalls"),
            spec("sb.promotions", Counter, "superblocks", "Tier-2 superblocks successfully installed"),
            spec("sb.fences_merged_cross", Counter, "fences", "Fence merges that crossed a former TB boundary"),
            spec("verify.checked", Counter, "checks", "Translation-verifier checks executed (static passes and install read-backs)"),
            spec("verify.violations", Counter, "violations", "Translations rejected by the verifier (sum of the per-pass counters)"),
            spec("verify.ir_violations", Counter, "violations", "IR-lint (pass 1) rejections"),
            spec("verify.fence_violations", Counter, "violations", "Fence-obligation (pass 2) rejections"),
            spec("verify.encoding_violations", Counter, "violations", "Encoding / install read-back (pass 3) rejections"),
            spec("analysis.sites", Counter, "sites", "Static memory-access sites the analysis discovered"),
            spec("analysis.private", Counter, "sites", "Sites proven core-private"),
            spec("analysis.relaxable", Counter, "sites", "Private + read-only sites on a poison-free image"),
            spec("analysis.poisons", Counter, "poisons", "Soundness poisons (unresolved indirection, solver limits, ...)"),
            spec("analysis.relaxed", Counter, "fences", "Fences removed by analysis-driven relaxation at translate time"),
            spec("analysis.relaxed_blocks", Counter, "blocks", "Tier-1 translations with at least one relaxed event"),
            spec("analysis.hint_folded", Counter, "ops", "Pure IR ops replaced by constants via known-bits hints"),
            spec("analysis.branches_pruned", Counter, "branches", "Conditional exits statically decided by known-bits hints"),
            spec("regalloc.env_loads_eliminated", Counter, "loads", "GetReg ops served from a pinned host register (env LDRs avoided)"),
            spec("regalloc.spills", Counter, "stores", "Temp values spilled to the spill area under register pressure"),
            spec("exec.cycles", Gauge, "cycles", "Simulated parallel runtime (max core clock)"),
            spec("exec.cores", Gauge, "cores", "Cores configured for the run"),
            spec("core.<i>.insns", Gauge, "insns", "Host instructions retired by core i"),
            spec("core.<i>.cycles", Gauge, "cycles", "Local clock of core i"),
            spec("stage.template_ns", Histogram, "ns", "Wall time of tier-0 template translation, per block"),
            spec("stage.decode_ns", Histogram, "ns", "Wall time of frontend decode+translate, per block"),
            spec("stage.opt_ns", Histogram, "ns", "Wall time of the optimizer pipeline, per block"),
            spec("stage.encode_ns", Histogram, "ns", "Wall time of backend lowering, per block"),
            spec("stage.install_ns", Histogram, "ns", "Wall time of code install + TB mapping, per block"),
            spec("sb.stage.select_ns", Histogram, "ns", "Wall time of tier-2 trace selection, per promotion attempt"),
            spec("sb.stage.opt_ns", Histogram, "ns", "Wall time of the region optimizer over a stitched superblock"),
            spec("sb.stage.encode_ns", Histogram, "ns", "Wall time of backend lowering for a superblock"),
            spec("fuzz.programs", Counter, "programs", "Random programs generated and differentially executed"),
            spec("fuzz.configs_run", Counter, "runs", "Individual oracle-configuration executions (interpreter included)"),
            spec("fuzz.divergences", Counter, "divergences", "Programs whose oracle configurations disagreed (or tripped the validator)"),
            spec("fuzz.minimizer_steps", Counter, "steps", "Candidate reductions attempted while delta-debugging divergent programs"),
            spec("fuzz.fault_runs", Counter, "runs", "Fault-composed executions (random FaultPlan layered over a generated program)"),
            spec("fuzz.promoted", Counter, "programs", "Fuzz iterations whose tier-2 configuration installed at least one superblock"),
        ];
        for k in FenceKind::TCG_ALL {
            let n = k.tcg_name().expect("TCG fence has a short name");
            v.push(spec(
                &format!("fence.inserted.{n}"),
                Counter,
                "fences",
                &format!("`{k:?}` fences emitted by the frontend (counted before optimization)"),
            ));
            v.push(spec(
                &format!("fence.merged.{n}"),
                Counter,
                "fences",
                &format!("`{k:?}` fences merged away by the optimizer"),
            ));
        }
        v
    }

    /// Normalizes a concrete metric name to its documented form: numeric
    /// dot-segments become `<i>` (`core.3.insns` → `core.<i>.insns`).
    pub fn doc_name(name: &str) -> String {
        name.split('.')
            .map(|seg| {
                if seg.bytes().all(|b| b.is_ascii_digit()) && !seg.is_empty() {
                    "<i>"
                } else {
                    seg
                }
            })
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Adds `delta` to a counter (registering it as a counter if new).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.slot(name, MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => debug_assert!(false, "add on non-counter {name}: {other:?}"),
        }
    }

    /// Sets a counter to an absolute total (for counters mirrored from an
    /// authoritative accumulator rather than incremented in place).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        *self.slot(name, MetricValue::Counter(0)) = MetricValue::Counter(v);
    }

    /// Sets a gauge (registering it if new — how `core.<i>.…` family
    /// members materialize).
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        *self.slot(name, MetricValue::Gauge(0)) = MetricValue::Gauge(v);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, sample: u64) {
        match self.slot(name, MetricValue::Histogram(HistSummary::default())) {
            MetricValue::Histogram(h) => h.observe(sample),
            other => debug_assert!(false, "observe on non-histogram {name}: {other:?}"),
        }
    }

    /// Reads a counter total (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Reads a gauge (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Reads a histogram summary (empty if absent).
    pub fn histogram(&self, name: &str) -> HistSummary {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistSummary::default(),
        }
    }

    /// An immutable, versioned copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            metrics: self.values.iter().map(|(name, v)| (name.to_string(), *v)).collect(),
        }
    }
}

/// A versioned, immutable copy of a [`MetricsRegistry`], with a JSON
/// exposition.
///
/// ```
/// use risotto_core::obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.add("chain.hits", 7);
/// reg.set_gauge("exec.cycles", 1234);
/// reg.observe("stage.decode_ns", 800);
/// reg.observe("stage.decode_ns", 200);
///
/// let snap = reg.snapshot();
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
