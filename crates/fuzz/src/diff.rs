//! The differential oracle: one leg table and one run check.
//!
//! A leg ([`Leg`]) is one emulator configuration, and [`legs`] is the
//! table every dynamic oracle reads: the native oracle; {qemu, no-fences,
//! tcg-ver, risotto} × backend {Arm, TSO} × rung {tier-1 only, tier-0
//! only, the tier-0→1 ladder} × analysis {off, on}; and [`RISOTTO`] with
//! chaining off and with the optimizer off — 51 legs, all at
//! [`VerifyLevel::Full`] with the atomic log on.
//!
//! A [`Subject`] is a guest program together with how the reference
//! interpreter ends it. [`run_checked`] runs a subject under one leg and
//! checks the run; [`differential`] runs a generated program under the
//! five legs of [`FUZZ_LEGS`], and the functional matrix
//! (`tests/theorem1/functional.rs`) runs its programs under every leg,
//! both through [`run_checked`]. Any broken rule is a [`Divergence`].
//!
//! A separate fault-composed mode layers a random [`FaultPlan`] over the
//! program and checks the graceful-degradation contract from PR 1:
//! either the run completes with exactly the fault-free results, or it
//! fails with a typed error — never a panic, never silent divergence.

use crate::spec::ProgSpec;
use risotto_core::{
    AtomicEvent, BackendKind, EmuConfig, EmuError, Emulator, FaultPlan, FaultSite, MetricsSnapshot,
    PassConfig, Report, Setup, SplitMix64, VerifyLevel,
};
use risotto_guest_x86::{Flags, Gpr, GuestBinary, Interp, SparseMem, DATA_BASE};
use std::collections::BTreeMap;

/// Which translation tiers serve a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Every block through the tier-1 pipeline.
    Tier1,
    /// Every block a tier-0 template: the warm threshold is never reached.
    Tier0,
    /// Tier-0 templates, promoted to tier-1 at a block's fourth entry.
    Ladder,
}

/// One emulator configuration every program runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// The evaluation setup.
    pub setup: Setup,
    /// The host backend.
    pub backend: BackendKind,
    /// Which tiers translate.
    pub rung: Rung,
    /// Analysis-driven fence relaxation.
    pub analysis: bool,
    /// Direct TB chaining and the jump cache; off, every exit goes
    /// through the dispatcher.
    pub chaining: bool,
    /// Every optimizer pass; off, `PassConfig::none()`: the raw frontend
    /// IR, in which only each block's last flag writer sets the flags.
    pub optimize: bool,
}

impl Leg {
    /// The emulator configuration of this leg.
    pub fn config(self) -> EmuConfig {
        let warm_threshold = match self.rung {
            Rung::Tier1 => None,
            Rung::Tier0 => Some(u64::MAX),
            Rung::Ladder => Some(4),
        };
        EmuConfig {
            backend: self.backend,
            passes: if self.optimize { PassConfig::all() } else { PassConfig::none() },
            verify: VerifyLevel::Full,
            warm_threshold,
            analysis: self.analysis,
            chaining: self.chaining,
            atomic_log: true,
            ..EmuConfig::default()
        }
    }
}

/// The paper's setup on the default host, every block through tier-1.
pub const RISOTTO: Leg = Leg {
    setup: Setup::Risotto,
    backend: BackendKind::Arm,
    rung: Rung::Tier1,
    analysis: false,
    chaining: true,
    optimize: true,
};

/// The native oracle, every DBT setup × backend × rung × analysis, and
/// [`RISOTTO`] with chaining off and with the optimizer off.
pub fn legs() -> Vec<Leg> {
    let mut legs = vec![Leg { setup: Setup::Native, ..RISOTTO }];
    for setup in [Setup::Qemu, Setup::NoFences, Setup::TcgVer, Setup::Risotto] {
        for backend in BackendKind::ALL {
            for rung in [Rung::Tier1, Rung::Tier0, Rung::Ladder] {
                for analysis in [false, true] {
                    legs.push(Leg { setup, backend, rung, analysis, ..RISOTTO });
                }
            }
        }
    }
    legs.push(Leg { chaining: false, ..RISOTTO });
    legs.push(Leg { optimize: false, ..RISOTTO });
    legs
}

/// The legs [`differential`] runs, [`RISOTTO`] first: it with the
/// optimizer off, on the ladder (so a generated hot loop crosses both
/// tiers), on the TSO backend and with analysis on.
pub const FUZZ_LEGS: [Leg; 5] = [
    RISOTTO,
    Leg { optimize: false, ..RISOTTO },
    Leg { rung: Rung::Ladder, ..RISOTTO },
    Leg { backend: BackendKind::Tso, ..RISOTTO },
    Leg { analysis: true, ..RISOTTO },
];

/// A guest program and how the reference interpreter ends it.
#[derive(Debug)]
pub struct Subject {
    /// Names the program in a failure.
    pub name: String,
    /// The program.
    pub bin: GuestBinary,
    /// Cores every run gets.
    pub cores: usize,
    /// The interpreter's exit value of each thread, by core; `None` for
    /// a core the program never spawns a thread on.
    pub exit_vals: Vec<Option<u64>>,
    /// The `WRITE` byte stream.
    pub output: Vec<u8>,
    /// Every `.data` word.
    pub data: Vec<u64>,
    /// Thread 0's final register file.
    pub regs: [u64; 16],
    /// Thread 0's final flags.
    pub flags: Flags,
    /// Host steps a run may take: 64 per interpreted instruction, plus a
    /// million, so a run that does not terminate fails rather than hangs.
    fuel: u64,
}

/// Every `.data` word of `bin` in `mem`.
fn data_words(mem: &SparseMem, bin: &GuestBinary) -> Vec<u64> {
    (0..bin.data.len().div_ceil(8) as u64).map(|i| mem.read_u64(DATA_BASE + 8 * i)).collect()
}

impl Subject {
    /// Runs `bin` through the reference interpreter, which may execute
    /// `interp_fuel` instructions.
    ///
    /// # Errors
    ///
    /// The interpreter's error, when it does not end the program.
    pub fn new(
        name: String,
        bin: GuestBinary,
        cores: usize,
        interp_fuel: u64,
    ) -> Result<Self, String> {
        let mut interp = Interp::new(&bin);
        interp.run(interp_fuel).map_err(|e| format!("{name}: reference interpreter: {e}"))?;
        let exit_vals =
            (0..cores).map(|t| (t < interp.thread_count()).then(|| interp.exit_val(t))).collect();
        Ok(Subject {
            data: data_words(&interp.mem, &bin),
            regs: std::array::from_fn(|i| interp.reg(0, Gpr(i as u8))),
            flags: interp.flags(0),
            fuel: interp.steps() * 64 + 1_000_000,
            output: interp.output,
            name,
            bin,
            cores,
            exit_vals,
        })
    }

    /// Lowers `spec` and runs it through the interpreter with twice its
    /// computed step bound.
    ///
    /// # Errors
    ///
    /// The lowering's or the interpreter's error.
    pub fn of_spec(spec: &ProgSpec) -> Result<Self, String> {
        let bin = spec.lower().map_err(|e| format!("lower: {e}"))?;
        let fuel = spec.max_interp_steps() * 2 + 10_000;
        Subject::new(format!("seed {:#x}", spec.seed), bin, spec.cores(), fuel)
    }

    /// Runs the program under `setup` and `config`.
    ///
    /// # Errors
    ///
    /// The emulator's error.
    pub fn run(&self, setup: Setup, config: EmuConfig) -> Result<Run, EmuError> {
        let mut emu = Emulator::with_config(&self.bin, setup, self.cores, config);
        let report = emu.run(self.fuel)?;
        Ok(Run {
            data: data_words(emu.mem(), &self.bin),
            regs: emu.guest_regs(0),
            flags: emu.guest_flags(0),
            atomics: emu.take_atomic_log(),
            metrics: emu.metrics(),
            dangling: emu.validate_chains(),
            report,
        })
    }
}

/// What one run leaves for the check to read.
#[derive(Debug, Clone)]
pub struct Run {
    /// The run's result.
    pub report: Report,
    /// The run's metrics.
    pub metrics: MetricsSnapshot,
    /// Every `.data` word.
    pub data: Vec<u64>,
    /// Core 0's final register file.
    pub regs: [u64; 16],
    /// Core 0's final flags.
    pub flags: Flags,
    /// The atomic-access log, in execution order.
    pub atomics: Vec<AtomicEvent>,
    /// Chain words that point at no live block.
    pub dangling: Vec<(u64, u64, u64)>,
}

/// Per-cell successful-update counts: the projection of an atomic log
/// that does not depend on the schedule.
fn update_counts(events: &[AtomicEvent]) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for e in events.iter().filter(|e| e.old != e.new) {
        *m.entry(e.addr).or_default() += 1;
    }
    m
}

/// Runs `p` under `leg` and checks the run: the reference rules
/// (`check_reference`) and the leg-counter rules
/// ([`check_leg_counters`]). Returns it, or every rule it broke.
pub fn run_checked(p: &Subject, leg: Leg, reference: Option<&Run>) -> Result<Run, Vec<String>> {
    let run = p.run(leg.setup, leg.config()).map_err(|e| vec![format!("run failed: {e}")])?;
    let mut bad = check_reference(p, &run, reference);
    bad.extend(check_leg_counters(leg, &run.metrics, &run.dangling));
    if bad.is_empty() {
        Ok(run)
    } else {
        Err(bad)
    }
}

/// The reference rules, every one `run` of `p` broke:
///
/// * it ends: every core exits with the interpreter's exit value for its
///   thread, and a core with no thread never runs;
/// * the `WRITE` output and every `.data` word equal the interpreter's;
/// * on a single-core program, core 0's register file and flags equal
///   the interpreter's;
/// * against `reference`, the program's [`RISOTTO`] run (the interpreter
///   keeps no atomic log): on a single-core program the atomic log and
///   the atomic total; on a multi-core program, whose interleaving is
///   the leg's own, the per-cell successful-update counts.
fn check_reference(p: &Subject, run: &Run, reference: Option<&Run>) -> Vec<String> {
    let mut bad = Vec::new();
    if run.report.exit_vals != p.exit_vals {
        bad.push(format!("exit values {:?} != interp {:?}", run.report.exit_vals, p.exit_vals));
    }
    if run.report.output != p.output {
        bad.push(format!("output {:x?} != interp {:x?}", run.report.output, p.output));
    }
    if let Some(i) = (0..p.data.len()).find(|&i| run.data[i] != p.data[i]) {
        bad.push(format!(".data word {i}: {:#x} != interp {:#x}", run.data[i], p.data[i]));
    }
    let single = p.cores == 1;
    if let Some(r) = (0..16).find(|&r| single && run.regs[r] != p.regs[r]) {
        let reg = Gpr(r as u8);
        bad.push(format!("{reg}: {:#x} != interp {:#x}", run.regs[r], p.regs[r]));
    }
    if single && run.flags != p.flags {
        bad.push(format!("flags {:?} != interp {:?}", run.flags, p.flags));
    }
    if let Some(r) = reference {
        if single {
            if run.atomics != r.atomics {
                bad.push(format!(
                    "atomic log differs from risotto's ({} vs {} events)",
                    run.atomics.len(),
                    r.atomics.len()
                ));
            }
            let total = |m: &MetricsSnapshot| m.counter("exec.atomics");
            if total(&run.metrics) != total(&r.metrics) {
                bad.push(format!(
                    "{} atomics != risotto's {}",
                    total(&run.metrics),
                    total(&r.metrics)
                ));
            }
        } else if update_counts(&run.atomics) != update_counts(&r.atomics) {
            bad.push("per-cell successful-update counts differ from risotto's".into());
        }
    }
    bad
}

/// The leg-counter rules, every one a run under `leg` broke, read off its
/// metrics `m` and its `dangling` chain words: they need no reference, so
/// the litmus matrix checks its runs with them too.
///
/// * the verifier ran and found nothing, and no chain word dangles;
/// * templates only with a tier-0 rung (and on tier-0 alone, nothing
///   through tier-1 and no promotion), no partial barrier on TSO (x86 has
///   only `MFENCE`), no chain linked or hit with chaining off. That a
///   chained run chains is the program's property, not the run's (a
///   generated program may enter every block once), so the functional
///   matrix asserts it per program.
pub fn check_leg_counters(
    leg: Leg,
    m: &MetricsSnapshot,
    dangling: &[(u64, u64, u64)],
) -> Vec<String> {
    let mut bad = Vec::new();
    if m.counter("verify.checked") == 0 {
        bad.push("the verifier never ran".into());
    }
    if m.counter("verify.violations") != 0 {
        bad.push(format!("the verifier flagged {} translations", m.counter("verify.violations")));
    }
    if !dangling.is_empty() {
        bad.push(format!("dangling chain words: {dangling:x?}"));
    }
    let templates = m.counter("template.blocks");
    let rung_ok = match leg.rung {
        Rung::Tier1 => templates == 0,
        Rung::Tier0 => {
            templates > 0
                && m.counter("template.insns") >= templates
                && m.counter("translate.insns") == 0
                && m.counter("template.promotions") == 0
        }
        Rung::Ladder => templates > 0,
    };
    if !rung_ok {
        bad.push(format!(
            "{:?} rung: {templates} template blocks, {} tier-1 insns, {} promotions",
            leg.rung,
            m.counter("translate.insns"),
            m.counter("template.promotions")
        ));
    }
    let partial = m.counter("fence.exec.dmb_ld") + m.counter("fence.exec.dmb_st");
    if leg.backend == BackendKind::Tso && partial != 0 {
        bad.push(format!("the TSO backend executed {partial} partial barriers"));
    }
    let (hits, links) = (m.counter("chain.hits"), m.counter("chain.links"));
    if !leg.chaining && hits + links > 0 {
        bad.push(format!("chained with chaining off: {hits} chain hits, {links} links"));
    }
    bad
}

/// One observed disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The leg that disagreed, or the stage that failed.
    pub leg: String,
    /// What disagreed.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.leg, self.what)
    }
}

/// Result of one full differential iteration.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// Divergences found (empty = the program agrees everywhere).
    pub divergences: Vec<Divergence>,
    /// Oracle executions performed (interpreter included).
    pub configs_run: u64,
}

/// Runs `spec` through the interpreter and [`run_checked`] under every
/// leg of [`FUZZ_LEGS`], each later leg against the [`RISOTTO`] run.
pub fn differential(spec: &ProgSpec) -> DiffResult {
    let p = match Subject::of_spec(spec) {
        Ok(p) => p,
        Err(what) => {
            let divergences = vec![Divergence { leg: "reference".into(), what }];
            return DiffResult { divergences, configs_run: 0 };
        }
    };
    let mut divergences = Vec::new();
    let mut reference = None;
    for leg in FUZZ_LEGS {
        match run_checked(&p, leg, reference.as_ref()) {
            Ok(run) if leg == RISOTTO => reference = Some(run),
            Ok(_) => {}
            Err(bad) => divergences
                .extend(bad.into_iter().map(|what| Divergence { leg: format!("{leg:?}"), what })),
        }
    }
    DiffResult { divergences, configs_run: 1 + FUZZ_LEGS.len() as u64 }
}

/// Returns true iff `spec` diverges (the minimizer's default predicate).
pub fn diverges(spec: &ProgSpec) -> bool {
    !differential(spec).divergences.is_empty()
}

/// A random fault plan for the fault-composed mode: background rates on
/// the recoverable layers, plus occasionally a syscall-layer fault (which
/// is allowed to surface as a typed error).
pub fn random_fault_plan(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed ^ 0xFA_017);
    let mut plan = FaultPlan::seeded(seed)
        .rate(FaultSite::Translate, 400 + rng.below(3000) as u16)
        .rate(FaultSite::Lower, 400 + rng.below(3000) as u16)
        .rate(FaultSite::TbCache, 200 + rng.below(1200) as u16);
    if rng.chance(1, 4) {
        plan = plan.rate(FaultSite::Syscall, 1 + rng.below(400) as u16);
    }
    if rng.chance(1, 3) {
        plan = plan.corrupt_install_at(rng.below(6));
    }
    plan
}

/// Fault-composed check: layers `plan` over the [`RISOTTO`] leg and
/// asserts graceful degradation. `Ok(completed)` reports whether the run
/// completed (vs. failing with an accepted typed error).
///
/// # Errors
///
/// A [`Divergence`] when the run panicked, or completed with results
/// other than the interpreter's.
pub fn fault_check(spec: &ProgSpec, plan: FaultPlan) -> Result<bool, Divergence> {
    let diverged = |what: String| Divergence { leg: "fault".into(), what };
    let p = Subject::of_spec(spec).map_err(diverged)?;
    let config = EmuConfig { fault_plan: plan, ..RISOTTO.config() };
    let run =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.run(RISOTTO.setup, config)));
    match run {
        Err(_) => Err(diverged("panicked under fault plan".into())),
        // Any typed error is acceptable degradation — the PR 1 contract
        // (see tests/fault_sweep.rs) forbids only panics and silent
        // divergence.
        Ok(Err(_)) => Ok(false),
        Ok(Ok(run)) if run.report.exit_vals != p.exit_vals => Err(diverged(format!(
            "completed with exit values {:?} != interp {:?}",
            run.report.exit_vals, p.exit_vals
        ))),
        Ok(Ok(run)) if run.report.output != p.output => {
            Err(diverged("completed with diverging output".into()))
        }
        Ok(Ok(_)) => Ok(true),
    }
}
