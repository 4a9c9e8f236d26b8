//! What the engine counts, said once: the [`Counts`] it accumulates
//! while it runs, and the one table ([`METRICS`]) that names every metric
//! and says how to read it off an [`Emulator`]. The table is the schema
//! ([`specs`]; docs/METRICS.md documents exactly it), the snapshot
//! ([`Emulator::metrics`] walks it once) and the only place a metric
//! name is spelled in this crate.

use super::Emulator;
use crate::obs::{HotTb, MetricKind, MetricSpec, MetricValue, MetricsSnapshot, SNAPSHOT_VERSION};
#[cfg(doc)]
use crate::{faults::FaultPlan, Report};
use risotto_analysis::AnalysisSummary;
use risotto_host_arm::AllocStats;
use risotto_memmodel::FenceKind;
use risotto_tcg::OptStats;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// Every total the engine keeps while it runs. The metric table reads
/// them ([`Report`] only `tb_count`); the run loop's watchdog and the
/// [`FaultPlan`]'s ordinals are the only things that steer by them.
#[derive(Debug, Default)]
pub(super) struct Counts {
    /// Translations installed (retranslations and native thunks
    /// included); a block's first install takes its id from it.
    pub(super) tb_count: usize,
    /// Quarantine episodes: blocks that entered interpreter fallback.
    pub(super) fallback_blocks: usize,
    /// Translations beyond a block's first: eviction / corruption
    /// refills plus bounded retries of quarantined blocks.
    pub(super) retranslations: usize,
    /// Instructions executed by the fallback interpreter (counts against
    /// the run's fuel).
    pub(super) interp_steps: u64,
    /// Syscall service attempts (drives [`FaultPlan::fail_syscall_at`]).
    pub(super) syscall_attempts: u64,
    /// Completed (non-busy-wait) syscalls — a watchdog progress marker.
    pub(super) syscalls_completed: u64,
    /// Optimizer statistics aggregated over every translated block.
    pub(super) opt_totals: OptStats,
    /// Blocks translated by tier-0 template instantiation.
    pub(super) template_blocks: u64,
    /// Guest instructions covered by tier-0 template translations.
    pub(super) template_insns: u64,
    /// Template blocks re-translated through tier 1 on warming.
    pub(super) template_promotions: u64,
    /// Tier-0→1 promotions that failed; the template stays installed.
    pub(super) template_promotion_failures: u64,
    /// Backend register-allocation statistics summed over every lowered
    /// tier-1 block.
    pub(super) regalloc_totals: AllocStats,
    /// Frontend-emitted fences counted pre-optimization, indexed per
    /// [`FenceKind::tcg_index`].
    pub(super) fence_inserted: [u64; 12],
    /// Injected faults that fired (translate / lower / install / syscall).
    pub(super) faults_injected: u64,
    /// Of those, code installs corrupted ([`FaultPlan::corrupt_install_at`]).
    pub(super) faults_install: u64,
    /// Guest instructions covered by tier-1 translations (denominator
    /// of the per-tier translation-cost comparison).
    pub(super) tier1_insns: u64,
    /// Verification checks executed (each level-applicable check on a
    /// TB counts once; a Full-level TB counts twice — translate-time
    /// static passes plus install-time read-back).
    pub(super) verify_checked: u64,
    /// IR-lint violations (pass 1).
    pub(super) verify_ir: u64,
    /// Fence-obligation violations (pass 2).
    pub(super) verify_fence: u64,
    /// Encoding / read-back violations (pass 3 and install checks).
    pub(super) verify_encoding: u64,
    /// Code installs so far (ordinal for
    /// [`FaultPlan::corrupt_install_at`]).
    pub(super) installs_done: u64,
    /// Fences removed by analysis-driven relaxation at translate time.
    pub(super) analysis_relaxed: u64,
    /// Tier-1 translations with at least one relaxed event.
    pub(super) analysis_relaxed_blocks: u64,
}

/// How a metric is read off the engine — which also fixes its kind.
#[derive(Clone, Copy)]
enum Read {
    Counter(fn(&Emulator) -> u64),
    Gauge(fn(&Emulator) -> u64),
    /// A counter per TCG fence kind, read by [`FenceKind::tcg_index`]:
    /// `<k>` in the row's name stands for [`FenceKind::tcg_name`], in its
    /// help for the kind's `Debug` name.
    PerFence(fn(&Emulator, usize) -> u64),
    /// A gauge per core, read by core index: `<i>` in the row's name.
    PerCore(fn(&Emulator, usize) -> u64),
}
use Read::{Counter, Gauge, PerCore, PerFence};

/// One row of [`METRICS`].
struct Metric {
    name: &'static str,
    unit: &'static str,
    help: &'static str,
    read: Read,
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self.read {
            Counter(_) | PerFence(_) => MetricKind::Counter,
            Gauge(_) | PerCore(_) => MetricKind::Gauge,
        }
    }
}

const fn row(name: &'static str, unit: &'static str, help: &'static str, read: Read) -> Metric {
    Metric { name, unit, help, read }
}

fn analysis(e: &Emulator) -> AnalysisSummary {
    e.analysis.as_ref().map(|f| f.summary()).unwrap_or_default()
}

/// Every metric there is: each one a count the engine or the machine
/// keeps, so a snapshot is a deterministic function of the program and
/// the configuration.
#[rustfmt::skip]
static METRICS: &[Metric] = &[
    row("translate.blocks", "blocks", "Translations installed (incl. retranslations and native thunks)", Counter(|e| e.counts.tb_count as u64)),
    row("translate.retranslations", "blocks", "Translations beyond a block's first (evictions, corruption refills, quarantine retries)", Counter(|e| e.counts.retranslations as u64)),
    row("translate.fallback_blocks", "blocks", "Quarantine episodes: blocks that entered interpreter fallback", Counter(|e| e.counts.fallback_blocks as u64)),
    row("translate.interp_steps", "insns", "Guest instructions executed by the fallback interpreter", Counter(|e| e.counts.interp_steps)),
    row("translate.insns", "insns", "Guest instructions covered by tier-1 translations", Counter(|e| e.counts.tier1_insns)),
    row("template.blocks", "blocks", "Blocks translated by tier-0 template instantiation", Counter(|e| e.counts.template_blocks)),
    row("template.insns", "insns", "Guest instructions covered by tier-0 template translations", Counter(|e| e.counts.template_insns)),
    row("template.promotions", "blocks", "Tier-0 blocks re-translated through the tier-1 pipeline on warming", Counter(|e| e.counts.template_promotions)),
    row("template.promotion_failures", "blocks", "Tier-0→1 promotions that failed; the template stays installed", Counter(|e| e.counts.template_promotion_failures)),
    row("fault.injected", "faults", "Injected translate/lower/install/syscall faults that fired", Counter(|e| e.counts.faults_injected)),
    row("fault.injected.install", "faults", "Code installs corrupted by the fault plan (each one rejected by the install read-back)", Counter(|e| e.counts.faults_install)),
    row("opt.folded", "ops", "Constants folded by the optimizer", Counter(|e| e.counts.opt_totals.folded as u64)),
    row("opt.loads_forwarded", "ops", "Loads forwarded (RAR + RAW elimination)", Counter(|e| e.counts.opt_totals.loads_forwarded as u64)),
    row("opt.stores_eliminated", "ops", "Dead stores removed (WAW elimination)", Counter(|e| e.counts.opt_totals.stores_eliminated as u64)),
    row("opt.fences_merged", "fences", "Fences merged away (all kinds)", Counter(|e| e.counts.opt_totals.fences_merged as u64)),
    row("opt.dce_removed", "ops", "Ops removed by dead-code elimination", Counter(|e| e.counts.opt_totals.dce_removed as u64)),
    row("fence.inserted.<k>", "fences", "`<k>` fences emitted by the frontend (counted before optimization)", PerFence(|e, k| e.counts.fence_inserted[k])),
    row("fence.merged.<k>", "fences", "`<k>` fences merged away by the optimizer", PerFence(|e, k| e.counts.opt_totals.fences_merged_by_kind[k] as u64)),
    row("chain.hits", "exits", "Direct-jump exits through an already-patched chain slot", Counter(|e| e.machine.chain_stats().chain_hits)),
    row("chain.links", "exits", "Direct-jump exits resolved by the dispatcher then patched", Counter(|e| e.machine.chain_stats().chain_links)),
    row("chain.flushes", "slots", "Chain slots un-patched / jump-cache entries dropped on unmap", Counter(|e| e.machine.chain_stats().chain_flushes)),
    row("jcache.hits", "exits", "Indirect exits that hit the per-core jump cache", Counter(|e| e.machine.chain_stats().dispatch_hits)),
    row("jcache.misses", "exits", "Indirect exits resolved by the full dispatcher lookup", Counter(|e| e.machine.chain_stats().dispatch_misses)),
    row("exec.insns", "insns", "Host instructions retired, all cores", Counter(|e| e.machine.total_stats().insns)),
    row("exec.atomics", "insns", "Atomic RMW instructions executed", Counter(|e| e.machine.total_stats().atomics)),
    row("exec.native_calls", "calls", "Host-linked native library calls executed", Counter(|e| e.machine.total_stats().native_calls)),
    row("fence.exec.dmb_ld", "fences", "DMB LD barriers executed", Counter(|e| e.machine.total_stats().dmb[0])),
    row("fence.exec.dmb_st", "fences", "DMB ST barriers executed", Counter(|e| e.machine.total_stats().dmb[1])),
    row("fence.exec.dmb_ff", "fences", "DMB FF (SY) barriers executed", Counter(|e| e.machine.total_stats().dmb[2])),
    row("fence.exec.cycles", "cycles", "Cycles attributed to barriers", Counter(|e| e.machine.total_stats().fence_cycles)),
    row("engine.syscalls", "calls", "Completed (non-busy-wait) guest syscalls", Counter(|e| e.counts.syscalls_completed)),
    row("verify.checked", "checks", "Translation-verifier checks executed (static passes and install read-backs)", Counter(|e| e.counts.verify_checked)),
    row("verify.violations", "violations", "Translations rejected by the verifier (sum of the per-pass counters)", Counter(|e| e.counts.verify_ir + e.counts.verify_fence + e.counts.verify_encoding)),
    row("verify.ir_violations", "violations", "IR-lint (pass 1) rejections", Counter(|e| e.counts.verify_ir)),
    row("verify.fence_violations", "violations", "Fence-obligation (pass 2) rejections", Counter(|e| e.counts.verify_fence)),
    row("verify.encoding_violations", "violations", "Encoding / install read-back (pass 3) rejections", Counter(|e| e.counts.verify_encoding)),
    row("analysis.sites", "sites", "Static memory-access sites the analysis discovered", Counter(|e| analysis(e).sites)),
    row("analysis.private", "sites", "Sites proven core-private", Counter(|e| analysis(e).private)),
    row("analysis.relaxable", "sites", "Private + read-only sites on a poison-free image", Counter(|e| analysis(e).relaxable)),
    row("analysis.poisons", "poisons", "Soundness poisons (unresolved indirection, solver limits, ...)", Counter(|e| analysis(e).poisons)),
    row("analysis.relaxed", "fences", "Fences removed by analysis-driven relaxation at translate time", Counter(|e| e.counts.analysis_relaxed)),
    row("analysis.relaxed_blocks", "blocks", "Tier-1 translations with at least one relaxed event", Counter(|e| e.counts.analysis_relaxed_blocks)),
    row("regalloc.env_loads_eliminated", "loads", "GetReg ops served from a pinned host register (env LDRs avoided)", Counter(|e| e.counts.regalloc_totals.env_loads_eliminated)),
    row("regalloc.spills", "stores", "Temp values spilled to the spill area under register pressure", Counter(|e| e.counts.regalloc_totals.spills)),
    row("exec.cycles", "cycles", "Simulated parallel runtime (max core clock)", Gauge(|e| e.machine.clock())),
    row("exec.cores", "cores", "Cores configured for the run", Gauge(|e| e.machine.n_cores() as u64)),
    row("core.<i>.insns", "insns", "Host instructions retired by core i", PerCore(|e, c| e.machine.stats(c).insns)),
    row("core.<i>.cycles", "cycles", "Local clock of core i", PerCore(|e, c| e.machine.core_cycles(c))),
];

/// `name` with its `<k>` segment replaced by the short name of `kind`.
fn fence_name(name: &str, kind: FenceKind) -> String {
    name.replace("<k>", kind.tcg_name().expect("TCG fence has a short name"))
}

/// The full metric schema: one [`MetricSpec`] per metric, the per-kind
/// fence counters spelled out and the per-core families as
/// `core.<i>.…`. `docs/METRICS.md` must document exactly this list
/// (enforced by `tests/obs.rs`).
pub fn specs() -> Vec<MetricSpec> {
    let mut specs = Vec::new();
    for m in METRICS {
        let spec = |name, help| MetricSpec { name, kind: m.kind(), unit: m.unit, help };
        match m.read {
            PerFence(_) => {
                specs.extend(FenceKind::TCG_ALL.iter().map(|&k| {
                    spec(fence_name(m.name, k), m.help.replace("<k>", &format!("{k:?}")))
                }))
            }
            _ => specs.push(spec(m.name.to_owned(), m.help.to_owned())),
        }
    }
    specs
}

impl Emulator {
    /// A versioned snapshot of every metric, read off the engine and
    /// machine state as they are now. Valid at any point — typically
    /// read after [`Emulator::run`] returns. See `docs/METRICS.md`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut metrics = BTreeMap::new();
        let mut put = |name: String, value: MetricValue| {
            metrics.insert(name, value);
        };
        for m in METRICS {
            let name = || m.name.to_owned();
            match m.read {
                Counter(read) => put(name(), MetricValue::Counter(read(self))),
                Gauge(read) => put(name(), MetricValue::Gauge(read(self))),
                PerFence(read) => FenceKind::TCG_ALL.iter().enumerate().for_each(|(i, &k)| {
                    put(fence_name(m.name, k), MetricValue::Counter(read(self, i)));
                }),
                PerCore(read) => (0..self.machine.n_cores()).for_each(|c| {
                    put(m.name.replace("<i>", &c.to_string()), MetricValue::Gauge(read(self, c)));
                }),
            }
        }
        MetricsSnapshot { version: SNAPSHOT_VERSION, metrics }
    }

    /// The `n` hottest translation blocks, hottest first (ties broken
    /// by guest pc): the machine's transfer profile plus the engine's
    /// dispatch-loop entries, merged per guest pc (requires
    /// [`EmuConfig::profiling`](super::EmuConfig); empty otherwise).
    pub fn hot_tbs(&self, n: usize) -> Vec<HotTb> {
        if !self.config.profiling {
            return Vec::new();
        }
        // A dispatch-loop entry missed every fast path by definition.
        let resumes = self.tbs.iter().map(|(&pc, meta)| (pc, meta.resumes, meta.resumes));
        let transfers = self.machine.tb_profile().map(|(pc, p)| (pc, p.execs, p.chain_misses));
        let mut blocks: HashMap<u64, HotTb> = HashMap::new();
        for (pc, execs, chain_misses) in resumes.chain(transfers).filter(|&(_, n, _)| n > 0) {
            let tb = blocks.entry(pc).or_insert_with(|| HotTb {
                tb_id: self.tb_id(pc).unwrap_or(0),
                guest_pc: pc,
                execs: 0,
                chain_misses: 0,
            });
            tb.execs += execs;
            tb.chain_misses += chain_misses;
        }
        let mut hot: Vec<HotTb> = blocks.into_values().collect();
        hot.sort_by_key(|tb| (Reverse(tb.execs), tb.guest_pc));
        hot.truncate(n);
        hot
    }
}
