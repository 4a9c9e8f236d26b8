//! Cross-tier differential execution: one program, six observers.
//!
//! Every generated program runs through the reference interpreter and
//! five DBT configurations — tier-1, tier-1 with the optimizer off, the
//! tier ladder with the tier-0 template translator enabled (cold blocks
//! are IR-less templates that promote to tier-1 at a lowered
//! threshold), tier-1 on the MiniTSO host backend (the cross-backend
//! oracle) and tier-1 with analysis-driven relaxation — all with
//! [`VerifyLevel::Full`] as a second oracle. The comparison covers exit
//! values, the `WRITE` byte stream, the final data-section image, final
//! register files and flags (single-core), atomic-access event orderings
//! (single-core) and per-cell successful-update counts (multi-core), and
//! the validator's violation counter. Any disagreement is a
//! [`Divergence`].
//!
//! A separate fault-composed mode layers a random [`FaultPlan`] over the
//! program and checks the graceful-degradation contract from PR 1:
//! either the run completes with exactly the fault-free results, or it
//! fails with a typed error — never a panic, never silent divergence.

use crate::spec::{ProgSpec, CELLS, SLOTS};
use risotto_core::{
    AtomicEvent, BackendKind, EmuConfig, Emulator, FaultPlan, FaultSite, PassConfig, Report, Setup,
    SplitMix64, VerifyLevel,
};
use risotto_guest_x86::{Flags, Gpr, GuestBinary, Interp};

/// Warm threshold the fuzz harness wires into its tier-0 configuration —
/// low enough that the short generated loops actually promote from
/// templates to tier-1.
pub const FUZZ_HOT_THRESHOLD: u64 = 8;

/// The DBT oracle configurations (the interpreter is always run too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Tier-1 translation, full optimizer (the production path).
    Tier1,
    /// Tier-1 with every optimization pass disabled.
    Tier1NoOpt,
    /// The tier ladder: cold blocks start as tier-0 IR-less templates
    /// and re-translate through tier-1 at [`FUZZ_HOT_THRESHOLD`].
    Tier0,
    /// Tier-1 on the MiniTSO host backend (docs/BACKENDS.md): the
    /// standing cross-backend differential oracle — guest-visible
    /// state must be bit-identical to the Arm-backend runs.
    Tier1Tso,
    /// Tier-1 with whole-program analysis-driven fence relaxation
    /// enabled (docs/ANALYSIS.md): guest-visible state must be
    /// bit-identical to the unrelaxed tier-1 run, and the Full-level
    /// verifier must accept every relaxed translation.
    Tier1Analysis,
}

impl Config {
    /// All DBT configurations, in comparison order.
    pub const ALL: [Config; 5] =
        [Config::Tier1, Config::Tier1NoOpt, Config::Tier0, Config::Tier1Tso, Config::Tier1Analysis];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Config::Tier1 => "tier1",
            Config::Tier1NoOpt => "tier1-noopt",
            Config::Tier0 => "tier0",
            Config::Tier1Tso => "tier1-tso",
            Config::Tier1Analysis => "tier1-analysis",
        }
    }
}

/// Everything observable we collect from one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-core exit values.
    pub exit_vals: Vec<Option<u64>>,
    /// The `WRITE` byte stream.
    pub output: Vec<u8>,
    /// Final data-section words (shared cells + every private region).
    pub data: Vec<u64>,
    /// Final register file of every core (DBT runs only fill core 0 for
    /// multi-core programs; children end halted with squashed state).
    pub regs: Vec<[u64; 16]>,
    /// Final flags of core 0 (`None` for the interpreter, which does not
    /// expose its flags).
    pub flags0: Option<Flags>,
    /// Ordered atomic events on guest data addresses (DBT runs only).
    pub atomics: Vec<AtomicEvent>,
    /// Total atomic RMWs executed (DBT runs only).
    pub atomic_total: u64,
    /// Verifier violation count (the second oracle; must stay 0).
    pub verify_violations: u64,
}

/// One observed disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Configuration that disagreed (or errored).
    pub config: &'static str,
    /// What disagreed.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.what)
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

/// Words of `.data` the lowered program owns (shared cells + private
/// regions; the lowering's tid scratch is excluded — it holds core
/// indices that are equal across schedules anyway, but it is an
/// implementation detail, not program state).
fn data_words(spec: &ProgSpec) -> usize {
    CELLS as usize + spec.cores() * SLOTS as usize
}

/// Fuel given to the interpreter (architectural steps).
fn interp_fuel(spec: &ProgSpec) -> u64 {
    spec.max_interp_steps() * 2 + 10_000
}

/// Host-instruction watchdog for DBT runs: generous multiple of the
/// architectural bound so real non-termination still trips it.
fn watchdog_steps(spec: &ProgSpec) -> u64 {
    interp_fuel(spec) * 64 + 1_000_000
}

/// Runs the reference interpreter.
pub fn run_interp(spec: &ProgSpec, bin: &GuestBinary) -> Result<Outcome, String> {
    let mut interp = Interp::new(bin);
    interp.run(interp_fuel(spec)).map_err(|e| format!("interp: {e:?}"))?;
    let n = spec.cores();
    let data_base = risotto_guest_x86::DATA_BASE;
    let data =
        (0..data_words(spec)).map(|i| interp.mem.read_u64(data_base + i as u64 * 8)).collect();
    let regs = (0..n)
        .map(|t| {
            let mut r = [0u64; 16];
            for (i, v) in r.iter_mut().enumerate() {
                *v = interp.reg(t, Gpr(i as u8));
            }
            r
        })
        .collect();
    Ok(Outcome {
        exit_vals: (0..n).map(|t| Some(interp.exit_val(t))).collect(),
        output: interp.output.clone(),
        data,
        regs,
        flags0: None,
        atomics: Vec::new(),
        atomic_total: 0,
        verify_violations: 0,
    })
}

/// The emulator configuration of one oracle run over `spec`: the
/// Full-level verifier, the atomic log and the livelock watchdog, plus
/// what `config` varies.
fn emu_config(spec: &ProgSpec, config: Config) -> EmuConfig {
    let base = EmuConfig {
        verify: VerifyLevel::Full,
        atomic_log: true,
        watchdog: Some(watchdog_steps(spec)),
        ..EmuConfig::default()
    };
    match config {
        Config::Tier1 => base,
        Config::Tier1NoOpt => EmuConfig { passes: PassConfig::none(), ..base },
        // Templates at birth, tier-1 once warm: every generated hot loop
        // crosses both tiers.
        Config::Tier0 => EmuConfig { warm_threshold: Some(FUZZ_HOT_THRESHOLD), ..base },
        Config::Tier1Tso => EmuConfig { backend: BackendKind::Tso, ..base },
        Config::Tier1Analysis => EmuConfig { analysis: true, ..base },
    }
}

/// Runs one DBT configuration and collects its outcome.
pub fn run_config(spec: &ProgSpec, bin: &GuestBinary, config: Config) -> Result<Outcome, String> {
    let cores = spec.cores();
    let mut emu = Emulator::with_config(bin, Setup::Risotto, cores, emu_config(spec, config));
    let report: Report = emu.run(u64::MAX / 4).map_err(|e| format!("{}: {e}", config.name()))?;
    let data_base = risotto_guest_x86::DATA_BASE;
    let data =
        (0..data_words(spec)).map(|i| emu.mem().read_u64(data_base + i as u64 * 8)).collect();
    let regs = (0..cores).map(|c| emu.guest_regs(c)).collect();
    let flags0 = Some(emu.guest_flags(0));
    // Keep only events on the program's own data words; the runtime
    // itself never issues atomics, so this is belt-and-braces.
    let hi = data_base + data_words(spec) as u64 * 8;
    let atomics: Vec<AtomicEvent> =
        emu.take_atomic_log().into_iter().filter(|e| e.addr >= data_base && e.addr < hi).collect();
    let snap = emu.metrics();
    Ok(Outcome {
        exit_vals: report.exit_vals.clone(),
        output: report.output.clone(),
        data,
        regs,
        flags0,
        atomics,
        atomic_total: snap.counter("exec.atomics"),
        verify_violations: snap.counter("verify.violations"),
    })
}

/// Per-cell successful-update counts — the schedule-invariant projection
/// of the atomic event log used for multi-core comparison.
fn update_counts(events: &[AtomicEvent]) -> Vec<(u64, usize)> {
    let mut m: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| e.old != e.new) {
        *m.entry(e.addr).or_default() += 1;
    }
    m.into_iter().collect()
}

/// Runs the full oracle matrix over `spec` and compares.
pub fn differential(spec: &ProgSpec) -> DiffResult {
    let mut divs = Vec::new();
    let mut configs_run = 0u64;

    let bin = match spec.lower() {
        Ok(b) => b,
        Err(e) => {
            return DiffResult {
                divergences: vec![Divergence { config: "lower", what: e.to_string() }],
                configs_run: 0,
            }
        }
    };

    let reference = match run_interp(spec, &bin) {
        Ok(o) => {
            configs_run += 1;
            o
        }
        Err(e) => {
            return DiffResult {
                divergences: vec![Divergence { config: "interp", what: e }],
                configs_run: 1,
            }
        }
    };

    let single = spec.threads.is_empty();
    let mut dbt_outcomes: Vec<(Config, Outcome)> = Vec::new();
    for config in Config::ALL {
        configs_run += 1;
        match run_config(spec, &bin, config) {
            Ok(o) => dbt_outcomes.push((config, o)),
            Err(e) => divs.push(Divergence { config: config.name(), what: e }),
        }
    }

    for (config, o) in &dbt_outcomes {
        let name = config.name();
        if o.verify_violations != 0 {
            divs.push(Divergence {
                config: name,
                what: format!("validator flagged {} violations", o.verify_violations),
            });
        }
        if o.exit_vals != reference.exit_vals {
            divs.push(Divergence {
                config: name,
                what: format!("exit values {:?} != interp {:?}", o.exit_vals, reference.exit_vals),
            });
        }
        if o.output != reference.output {
            divs.push(Divergence {
                config: name,
                what: format!("output {:x?} != interp {:x?}", o.output, reference.output),
            });
        }
        if o.data != reference.data {
            let first = o.data.iter().zip(&reference.data).position(|(a, b)| a != b).unwrap_or(0);
            divs.push(Divergence {
                config: name,
                what: format!(
                    "data word {first}: {:#x} != interp {:#x}",
                    o.data[first], reference.data[first]
                ),
            });
        }
        if single && o.regs[0] != reference.regs[0] {
            let first = (0..16).find(|&i| o.regs[0][i] != reference.regs[0][i]).unwrap_or(0);
            divs.push(Divergence {
                config: name,
                what: format!(
                    "reg {}: {:#x} != interp {:#x}",
                    Gpr(first as u8),
                    o.regs[0][first],
                    reference.regs[0][first]
                ),
            });
        }
    }

    // Cross-config invariants among the DBT runs.
    if let Some((base_cfg, base)) = dbt_outcomes.first() {
        for (config, o) in dbt_outcomes.iter().skip(1) {
            let name = config.name();
            if single {
                if o.regs != base.regs {
                    divs.push(Divergence {
                        config: name,
                        what: format!("register file differs from {}", base_cfg.name()),
                    });
                }
                if o.flags0 != base.flags0 {
                    divs.push(Divergence {
                        config: name,
                        what: format!(
                            "flags {:?} != {} flags {:?}",
                            o.flags0,
                            base_cfg.name(),
                            base.flags0
                        ),
                    });
                }
                if o.atomics != base.atomics {
                    divs.push(Divergence {
                        config: name,
                        what: format!(
                            "atomic event order differs from {} ({} vs {} events)",
                            base_cfg.name(),
                            o.atomics.len(),
                            base.atomics.len()
                        ),
                    });
                }
                if o.atomic_total != base.atomic_total {
                    divs.push(Divergence {
                        config: name,
                        what: format!(
                            "atomic totals {} != {} {}",
                            o.atomic_total,
                            base_cfg.name(),
                            base.atomic_total
                        ),
                    });
                }
            } else if update_counts(&o.atomics) != update_counts(&base.atomics) {
                divs.push(Divergence {
                    config: name,
                    what: format!(
                        "per-cell successful-update counts differ from {}",
                        base_cfg.name()
                    ),
                });
            }
        }
    }

    DiffResult { divergences: divs, configs_run }
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

/// Fault-composed check: layers `plan` over the tier-1 configuration and
/// asserts graceful degradation. `Ok(completed)` reports whether the run
/// completed (vs. failing with an accepted typed error).
pub fn fault_check(spec: &ProgSpec, plan: FaultPlan) -> Result<bool, Divergence> {
    let bin =
        spec.lower().map_err(|e| Divergence { config: "fault", what: format!("lower: {e}") })?;
    let reference = run_interp(spec, &bin).map_err(|e| Divergence { config: "fault", what: e })?;
    let config = EmuConfig { fault_plan: plan, ..emu_config(spec, Config::Tier1) };
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, spec.cores(), config);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| emu.run(u64::MAX / 4)));
    match run {
        Err(_) => Err(Divergence { config: "fault", what: "panicked under fault plan".into() }),
        // Any typed error is acceptable degradation — the PR 1 contract
        // (see tests/fault_sweep.rs) forbids only panics and silent
        // divergence.
        Ok(Err(_)) => Ok(false),
        Ok(Ok(report)) => {
            if report.exit_vals != reference.exit_vals {
                return Err(Divergence {
                    config: "fault",
                    what: format!(
                        "completed with exit values {:?} != interp {:?}",
                        report.exit_vals, reference.exit_vals
                    ),
                });
            }
            if report.output != reference.output {
                return Err(Divergence {
                    config: "fault",
                    what: "completed with diverging output".into(),
                });
            }
            Ok(true)
        }
    }
}
