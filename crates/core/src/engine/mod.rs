//! The Risotto DBT engine: execution loop, translation-block cache,
//! setup presets, syscall layer and the dynamic host linker (§4.2, §6).
//!
//! The engine owns a [`Machine`] and drives it through events: on a
//! translation miss it decodes the guest basic block, applies the
//! configured x86→TCG mapping and optimizer, lowers it per the TCG→Arm
//! scheme and installs the host code; on a guest syscall it services the
//! virtual OS interface (write / spawn / join / exit). When host linking
//! is enabled, translating a PLT address instead emits a marshaling thunk
//! that calls the registered native host function directly (§6.2).
//!
//! This module holds the [`Emulator`] itself and its run loop; the rest
//! of the engine is split by concern: `config` (setups, tier and
//! verifier policy, errors, reports), `translate` (the per-tier
//! producers and the one commit path), `fallback` (block interpretation
//! over the reference semantics), `syscall` and `metrics`.
//!
//! ## Failure model
//!
//! The pipeline is panic-free: every layer failure — decoder, optimizer
//! backend, TB cache, host linker, syscall layer — is either *recovered*
//! or surfaced as a typed [`EmuError`]. Translation and lowering failures
//! (real or injected via [`FaultPlan`]) quarantine the guest pc and fall
//! back to direct interpretation of that block, with a bounded number of
//! re-translation retries; detected TB-cache corruption discards the
//! entry and re-translates; failed host-library links fall back to the
//! translated guest implementation behind the PLT stub. Under any fault
//! plan a run either completes with the same observable output as the
//! fault-free run, or returns a typed error — never a silently wrong
//! result. See DESIGN.md §11.

mod config;
mod fallback;
mod metrics;
mod syscall;
mod translate;

pub use config::{
    BackendKind, CoreDump, EmuError, HostExport, HostLibrary, LinkError, Report, Setup,
    TemplateStats, TierConfig, VerifyLevel,
};
pub use metrics::specs;

use crate::faults::FaultPlan;
use crate::idl::Idl;
use crate::obs::{Obs, TraceSink, TraceStage};
use metrics::Counts;
use risotto_analysis::{analyze_image, ImageFacts};
use risotto_guest_x86::{Flags, Gpr, GuestBinary, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use risotto_host_arm::{
    AtomicEvent, CostModel, Event, Machine, RmwStyle, SchedPolicy, Xreg, ENV_BASE, SPILL_BASE,
};
use risotto_tcg::{env, PassConfig};
use std::collections::{HashMap, HashSet};
use syscall::SyscallOutcome;
use translate::{Quarantine, TranslateScratch};

/// Per-core guest env block base (20 regs × 8 bytes, padded to 0x100).
pub const ENV_REGION: u64 = 0xF000_0000;

/// Per-core spill area base (temp index × 8).
pub const SPILL_REGION: u64 = 0xF800_0000;

const ENV_STRIDE: u64 = 0x100;

const SPILL_STRIDE: u64 = 0x10000;

/// What the engine knows about one guest pc across every translation it
/// has had; created at the pc's first block install or resume, never
/// removed.
#[derive(Debug, Default)]
struct TbMeta {
    /// Stable engine TB id: the 1-based `tb_count` of the pc's first
    /// block install. A block install that finds it set is a
    /// re-translation.
    id: Option<u64>,
    /// The current translation is a tier-0 template block (a promotion
    /// candidate for the tier-1 re-translate).
    tier0: bool,
    /// Dispatch-loop entries while profiling is enabled; each missed the
    /// machine's fast paths by definition. Read only by
    /// [`Emulator::hot_tbs`]: nothing the engine decides depends on it.
    resumes: u64,
}

/// The DBT engine.
#[derive(Debug)]
pub struct Emulator {
    setup: Setup,
    machine: Machine,
    /// PLT vaddr → (native function id, arity) for host-linked imports.
    plt_natives: HashMap<u64, (u16, usize)>,
    exit_vals: Vec<Option<u64>>,
    output: Vec<u8>,
    core_started: Vec<bool>,
    passes: PassConfig,
    rmw_style: RmwStyle,
    /// Host backend lowering/verifying every translation
    /// (docs/BACKENDS.md); [`Setup::Native`] is pinned to Arm.
    backend_kind: BackendKind,
    plan: FaultPlan,
    /// Bounded guest pc → failed-translation-attempt map (fallback
    /// bookkeeping, satellite of the translation verifier).
    quarantine: Quarantine,
    fuel_limit: u64,
    watchdog: Option<u64>,
    /// Every total the engine keeps (docs/METRICS.md).
    counts: Counts,
    /// Observability: stage histograms, trace sink, enable flags.
    obs: Obs,
    /// [`TierConfig::warm_threshold`] of the tier ladder (`None` =
    /// tier-1 only).
    warm_threshold: Option<u64>,
    /// Guest pc → its one engine-side record.
    tbs: HashMap<u64, TbMeta>,
    /// Active translation-verifier level (docs/VERIFIER.md).
    verify: VerifyLevel,
    /// What the engine reads of the loaded image: its entry and the
    /// `.text` that `fetch` decodes from and [`Emulator::set_analysis`]
    /// analyses. Everything else is empty — `.data` is in machine
    /// memory, the symbols are [`Emulator::link_library`]'s argument.
    binary: GuestBinary,
    /// Whole-program analysis facts driving fence relaxation
    /// (docs/ANALYSIS.md); `None` = analysis disabled (the default).
    analysis: Option<ImageFacts>,
    /// Test hook: guest pcs the relaxer pretends are private (mutant
    /// injection for verifier kill tests; see `force_private_for_test`).
    forced_private: HashSet<u64>,
    /// The translate path's reusable working memory.
    scratch: TranslateScratch,
}

impl Emulator {
    /// Loads a guest binary under the given setup.
    pub fn new(binary: &GuestBinary, setup: Setup, n_cores: usize, cost: CostModel) -> Emulator {
        let mut machine = Machine::new(n_cores, cost);
        machine.mem.write_bytes(TEXT_BASE, &binary.text);
        machine.mem.write_bytes(DATA_BASE, &binary.data);
        Emulator {
            setup,
            machine,
            plt_natives: HashMap::new(),
            exit_vals: vec![None; n_cores],
            output: Vec::new(),
            core_started: vec![false; n_cores],
            passes: PassConfig::all(),
            rmw_style: RmwStyle::Casal,
            backend_kind: BackendKind::Arm,
            plan: FaultPlan::default(),
            quarantine: Quarantine::default(),
            fuel_limit: u64::MAX,
            watchdog: None,
            counts: Counts::default(),
            obs: Obs::new(),
            warm_threshold: None,
            tbs: HashMap::new(),
            verify: VerifyLevel::default(),
            binary: GuestBinary {
                entry: binary.entry,
                text: binary.text.clone(),
                data: Vec::new(),
                dynsyms: Vec::new(),
                symbols: HashMap::new(),
            },
            analysis: None,
            forced_private: HashSet::new(),
            scratch: TranslateScratch::default(),
        }
    }

    /// Overrides how direct TCG `Cas`/`AtomicAdd` ops are lowered (§6.3
    /// ablation): `casal` vs the `DMBFF; RMW2; DMBFF` exclusive loop. Only
    /// affects setups whose frontend emits direct RMW ops (risotto,
    /// no-fences).
    pub fn set_rmw_style(&mut self, style: RmwStyle) {
        self.rmw_style = style;
    }

    /// Selects the host backend (docs/BACKENDS.md). Call it before the
    /// first translation: installed code is not retranslated. The
    /// native-oracle setup models Arm-compiled binaries and stays on
    /// the Arm backend.
    ///
    /// # Panics
    ///
    /// If a non-Arm backend is requested under [`Setup::Native`].
    pub fn set_backend(&mut self, kind: BackendKind) {
        assert!(
            self.setup != Setup::Native || kind == BackendKind::Arm,
            "the native oracle is Arm-compiled code; it has no {} rendition",
            kind.name()
        );
        self.backend_kind = kind;
    }

    /// The active host backend.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// Overrides the optimizer pass configuration (ablation studies).
    pub fn set_passes(&mut self, passes: PassConfig) {
        self.passes = passes;
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]). Set it before
    /// [`Emulator::link_library`] for host-call faults to apply.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Selects the translation-verifier level (see [`VerifyLevel`];
    /// defaults to [`VerifyLevel::Full`] in debug builds,
    /// [`VerifyLevel::Off`] in release builds). Verification is purely
    /// observational on clean translations: cycles, output and exit
    /// values are bit-identical across levels.
    pub fn set_verify(&mut self, level: VerifyLevel) {
        self.verify = level;
    }

    /// The active translation-verifier level.
    pub fn verify_level(&self) -> VerifyLevel {
        self.verify
    }

    /// Enables or disables whole-program analysis-driven fence
    /// relaxation (docs/ANALYSIS.md). Turning it on analyses the loaded
    /// image here, once, into facts this emulator owns (turning it on
    /// again keeps them; off drops them); already-installed
    /// translations are not retroactively changed, so flip this before
    /// running. Relaxation never weakens verification: the Full-level
    /// verifier re-derives its own mask from the pristine facts and
    /// rejects any translation that relaxed more.
    pub fn set_analysis(&mut self, on: bool) {
        if !on {
            self.analysis = None;
        } else if self.analysis.is_none() {
            self.analysis = Some(analyze_image(&self.binary));
        }
    }

    /// Whether analysis-driven relaxation is enabled.
    pub fn analysis_enabled(&self) -> bool {
        self.analysis.is_some()
    }

    /// The analysis facts for the loaded image (None while disabled).
    pub fn analysis_facts(&self) -> Option<&ImageFacts> {
        self.analysis.as_ref()
    }

    /// Test hook (mutant injection): forces the relaxer to treat the
    /// access at `pc` as private regardless of what the analysis
    /// proved. The verifier mask is still derived from the pristine
    /// facts, so a wrong claim surfaces as a structured
    /// fence-obligation [`VerifyError`] at install time.
    #[doc(hidden)]
    pub fn force_private_for_test(&mut self, pc: u64) {
        self.forced_private.insert(pc);
    }

    /// Selects the host scheduling policy (see [`SchedPolicy`]).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.machine.set_sched_policy(policy);
    }

    /// Enables or disables TB chaining and the indirect jump cache on the
    /// host machine (on by default). The disabled configuration resolves
    /// every exit through the dispatcher and is the reference that chained
    /// runs are differentially checked against.
    pub fn set_chaining(&mut self, on: bool) {
        self.machine.set_chaining(on);
    }

    /// Installs a trace sink and enables structured event emission at the
    /// decode / opt / encode / install / dispatch / fault boundaries.
    /// Tracing is purely observational: a traced run is bit-identical
    /// (cycles, output, exit values) to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.sink = sink;
        self.obs.tracing = true;
    }

    /// Enables per-stage wall-clock histograms (`stage.*_ns` metrics).
    /// Off by default: the untimed pipeline takes no clock readings.
    pub fn set_stage_timing(&mut self, on: bool) {
        self.obs.timing = on;
    }

    /// Enables the hot-TB profiler on both the engine dispatch loop and
    /// the host machine's transfer paths (off by default; observational
    /// only). Disabling discards collected counts.
    pub fn set_profiling(&mut self, on: bool) {
        self.obs.profiling = on;
        // The tier-0 promoter owns the machine-side profile while the
        // template tier is enabled; it must survive observability
        // toggles.
        self.machine.set_profiling(on || self.warm_threshold.is_some());
        if !on {
            self.tbs.values_mut().for_each(|meta| meta.resumes = 0);
        }
    }

    /// Sets the tier ladder (`None`: tier-1 only). With a
    /// [`TierConfig::warm_threshold`], cold blocks start as tier-0
    /// templates and the machine's transfer profile — on for as long as
    /// the template tier is, whatever [`Emulator::set_profiling`] says —
    /// raises the events that promote them.
    ///
    /// Tiering never changes architectural results: both tiers translate
    /// the same guest instructions under verified mappings. Cycle counts
    /// *do* change — that is the point.
    pub fn set_tiering(&mut self, cfg: Option<TierConfig>) {
        self.warm_threshold = cfg.and_then(|c| c.warm_threshold);
        self.machine.set_hot_threshold(self.warm_threshold);
        self.machine.set_profiling(self.obs.profiling || self.warm_threshold.is_some());
    }

    /// Tier-0 template statistics so far (also in [`Report::template`]
    /// after a run).
    pub fn template_stats(&self) -> TemplateStats {
        self.counts.template_stats
    }

    /// `true` while the tier-0 template tier serves cold translations:
    /// tiering must be on with a [`TierConfig::warm_threshold`], and the
    /// setup must be a DBT one (the native oracle has no guest decode).
    fn tier0_active(&self) -> bool {
        self.setup != Setup::Native && self.warm_threshold.is_some()
    }

    /// Audits the machine's chain graph; empty means every patched chain
    /// word points at a live translation (see `Machine::validate_chains`).
    pub fn validate_chains(&self) -> Vec<(u64, u64, u64)> {
        self.machine.validate_chains()
    }

    /// Arms the livelock watchdog: a run that makes no observable
    /// progress (new translation, completed syscall, output bytes, core
    /// exit) for `steps` machine steps fails with [`EmuError::Stalled`].
    pub fn set_watchdog(&mut self, steps: u64) {
        self.watchdog = Some(steps.max(1));
    }

    /// The active setup.
    pub fn setup(&self) -> Setup {
        self.setup
    }

    /// Read access to guest/machine memory (for assertions).
    pub fn mem(&self) -> &risotto_guest_x86::SparseMem {
        &self.machine.mem
    }

    /// The architectural value of guest register `reg` on `core`.
    ///
    /// Valid once the core has been initialized (and after
    /// [`run`](Emulator::run) returns): differential harnesses use this
    /// to compare final register files against the reference interpreter.
    /// Reads the env-slot block in the DBT setups and the pinned host
    /// registers in the native setup, so it is setup-agnostic.
    pub fn guest_reg(&self, core: usize, reg: Gpr) -> u64 {
        self.read_env(core, reg.0)
    }

    /// The full 16-register guest file of `core`
    /// (see [`Emulator::guest_reg`]).
    pub fn guest_regs(&self, core: usize) -> [u64; Gpr::COUNT] {
        std::array::from_fn(|i| self.read_env(core, i as u8))
    }

    /// The architectural condition flags of `core`
    /// (see [`Emulator::guest_reg`]).
    pub fn guest_flags(&self, core: usize) -> Flags {
        let set = |slot: u8| self.read_env(core, slot) != 0;
        Flags { zf: set(env::ZF), sf: set(env::SF), cf: set(env::CF), of: set(env::OF) }
    }

    /// Enables or disables the host machine's ordered atomic-access
    /// event log (off by default; purely observational). The fuzzer's
    /// per-access ordering oracle drains it with
    /// [`Emulator::take_atomic_log`] after a run.
    pub fn set_atomic_log(&mut self, on: bool) {
        self.machine.set_atomic_log(on);
    }

    /// Drains and returns the recorded [`AtomicEvent`]s in execution
    /// order (empty when the log is disabled).
    pub fn take_atomic_log(&mut self) -> Vec<AtomicEvent> {
        self.machine.take_atomic_log()
    }

    /// Links a host library against the binary's imports (§6.2): every
    /// export whose name appears in the binary's `.dynsym` gets its PLT
    /// entry redirected to the native function. The whole library is
    /// validated against `idl` first — unknown symbols, duplicate exports
    /// and arity mismatches are typed errors and link nothing. No-op
    /// (after validation) unless the setup enables host linking.
    ///
    /// Returns the names actually linked.
    ///
    /// # Errors
    ///
    /// [`LinkError`] on a library/IDL mismatch.
    pub fn link_library(
        &mut self,
        binary: &GuestBinary,
        idl: &Idl,
        lib: HostLibrary,
    ) -> Result<Vec<String>, LinkError> {
        let mut seen: HashSet<&str> = HashSet::new();
        for e in &lib.funcs {
            if !seen.insert(&e.name) {
                return Err(LinkError::DuplicateExport {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                });
            }
            let Some(decl) = idl.lookup(&e.name) else {
                return Err(LinkError::NotInIdl {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                });
            };
            if decl.params.len() != e.arity {
                return Err(LinkError::ArityMismatch {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                    idl: decl.params.len(),
                    export: e.arity,
                });
            }
        }
        if !self.setup.host_linking() {
            return Ok(Vec::new());
        }
        let mut linked = Vec::new();
        for HostExport { name, arity, func } in lib.funcs {
            let Some(sym) = binary.dynsyms.iter().find(|d| d.name == name) else { continue };
            if self.plan.host_call_fails(&name) {
                // Injected link failure: leave the import on its
                // translated guest implementation (the PLT stub jumps
                // there) — the run still produces the same output.
                continue;
            }
            let id = self.machine.register_native(func);
            self.plt_natives.insert(sym.plt_vaddr, (id, arity));
            // Re-binding (last wins): discard any already-installed thunk.
            self.machine.unmap_tb(sym.plt_vaddr);
            linked.push(name);
        }
        Ok(linked)
    }

    fn env_base(core: usize) -> u64 {
        ENV_REGION + core as u64 * ENV_STRIDE
    }

    fn env_addr(core: usize, reg: u8) -> u64 {
        Self::env_base(core) + reg as u64 * 8
    }

    /// Guest env slot `slot` of `core` — registers 0–15, then the four
    /// condition flags: the env block in machine memory in the DBT
    /// setups, host register `X(6 + slot)` in the native convention.
    fn read_env(&self, core: usize, slot: u8) -> u64 {
        if self.setup == Setup::Native {
            self.machine.reg(core, Xreg(6 + slot))
        } else {
            self.machine.mem.read_u64(Self::env_addr(core, slot))
        }
    }

    fn write_env(&mut self, core: usize, slot: u8, val: u64) {
        if self.setup == Setup::Native {
            self.machine.set_reg(core, Xreg(6 + slot), val);
        } else {
            self.machine.mem.write_u64(Self::env_addr(core, slot), val);
        }
    }

    fn write_guest_reg(&mut self, core: usize, reg: Gpr, val: u64) {
        self.write_env(core, reg.0, val);
    }

    fn write_guest_flags(&mut self, core: usize, f: Flags) {
        for (slot, b) in [(env::ZF, f.zf), (env::SF, f.sf), (env::CF, f.cf), (env::OF, f.of)] {
            self.write_env(core, slot, b as u64);
        }
    }

    fn init_core(&mut self, core: usize, arg: Option<u64>) {
        let stack_top = STACK_TOP - core as u64 * STACK_SIZE;
        for slot in 0..env::COUNT as u8 {
            self.write_env(core, slot, 0);
        }
        if self.setup != Setup::Native {
            self.machine.set_reg(core, ENV_BASE, Self::env_base(core));
        }
        self.machine.set_reg(core, SPILL_BASE, SPILL_REGION + core as u64 * SPILL_STRIDE);
        self.write_guest_reg(core, Gpr::RSP, stack_top);
        if let Some(a) = arg {
            self.write_guest_reg(core, Gpr::RDI, a);
        }
        self.core_started[core] = true;
    }

    /// Puts `core` back into execution at `guest_pc`: translated code
    /// when the pipeline can produce it, interpreted blocks otherwise,
    /// until a translatable pc is reached or the core halts.
    fn resume_at(&mut self, core: usize, guest_pc: u64) -> Result<(), EmuError> {
        // Every resume passes here: no TB-id lookup unless someone listens.
        let tb_id = self.obs.tracing.then(|| self.tb_id(guest_pc)).flatten();
        self.obs.trace(TraceStage::Dispatch, Some(core), Some(guest_pc), tb_id, None, String::new);
        let mut pc = guest_pc;
        loop {
            match self.ensure_translated(Some(core), pc) {
                Ok(host) => {
                    if self.obs.profiling {
                        self.tbs.entry(pc).or_default().resumes += 1;
                    }
                    self.machine.start_core(core, host);
                    return Ok(());
                }
                Err(_fault) => match self.interpret_block(core, pc)? {
                    Some(next) => pc = next,
                    None => return Ok(()),
                },
            }
        }
    }

    /// Applies the plan's TB-cache faults: explicit one-shot corruptions
    /// (detected at the cache-entry checksum, so the entry is discarded
    /// and later re-translated — corrupted code never executes) and
    /// background eviction pressure.
    fn inject_tb_cache_faults(&mut self) {
        if self.plan.is_empty() {
            return;
        }
        for pc in self.plan.pending_corruptions() {
            if self.machine.lookup_tb(pc).is_some() && self.plan.take_corrupt_tb(pc) {
                self.machine.unmap_tb(pc);
                let tb_id = self.tb_id(pc);
                self.obs.trace(TraceStage::Fault, None, Some(pc), tb_id, None, || {
                    "TB-cache corruption detected; entry discarded".to_owned()
                });
            }
        }
        if self.plan.tb_cache_strikes() {
            let mut tbs = self.machine.mapped_tbs();
            if !tbs.is_empty() {
                tbs.sort_unstable();
                let victim = tbs[self.plan.pick(tbs.len())];
                self.machine.unmap_tb(victim);
            }
        }
    }

    /// The stable engine id of the block at `guest_pc`, once it has one.
    fn tb_id(&self, guest_pc: u64) -> Option<u64> {
        self.tbs.get(&guest_pc)?.id
    }

    /// Observable-progress marker for the watchdog.
    fn progress_marker(&self) -> (usize, usize, usize, u64, usize, usize) {
        let halted = (0..self.machine.n_cores()).filter(|&c| self.machine.core_halted(c)).count();
        let exited = self.exit_vals.iter().filter(|v| v.is_some()).count();
        (
            self.counts.tb_count,
            self.counts.retranslations,
            self.output.len(),
            self.counts.syscalls_completed,
            halted,
            exited,
        )
    }

    fn dump_cores(&self) -> Vec<CoreDump> {
        (0..self.machine.n_cores())
            .map(|c| CoreDump {
                core: c,
                host_pc: self.machine.core_pc(c),
                cycles: self.machine.core_cycles(c),
                halted: self.machine.core_halted(c),
            })
            .collect()
    }

    /// Runs the program to completion (all threads halted).
    ///
    /// # Errors
    ///
    /// Unrecoverable translation faults, runaway execution (`fuel` steps,
    /// counting both machine steps and fallback-interpreted guest
    /// instructions), syscall misuse, injected syscall faults, host-code
    /// faults, and — with [`Emulator::set_watchdog`] armed — stalls.
    pub fn run(&mut self, fuel: u64) -> Result<Report, EmuError> {
        self.run_sliced_for_test(fuel, u64::MAX)
    }

    /// [`Emulator::run`], handing the machine at most `slice` steps at a
    /// time. Without injected faults (which roll once per machine event)
    /// nothing observable may depend on `slice`: a run cut into single
    /// steps is the per-step definition of the machine's scheduler, which
    /// is what the test suite holds its run quanta to.
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`].
    #[doc(hidden)]
    pub fn run_sliced_for_test(&mut self, fuel: u64, slice: u64) -> Result<Report, EmuError> {
        self.fuel_limit = fuel;
        let base_steps = self.machine.total_steps();
        self.init_core(0, None);
        self.resume_at(0, self.binary.entry)?;
        let mut last_marker = self.progress_marker();
        let mut no_progress: u64 = 0;
        loop {
            let used = (self.machine.total_steps() - base_steps) + self.counts.interp_steps;
            let remaining = fuel.saturating_sub(used);
            let before = self.machine.total_steps();
            let ev = self.machine.run(remaining.min(slice).min(self.watchdog.unwrap_or(u64::MAX)));
            self.inject_tb_cache_faults();
            match ev {
                Event::AllHalted => break,
                Event::TranslationMiss { core, guest_pc } => {
                    self.resume_at(core, guest_pc)?;
                }
                Event::GuestSyscall { core, next } => {
                    if let SyscallOutcome::Resume = self.do_syscall(core, next)? {
                        self.resume_at(core, next)?;
                    }
                }
                Event::OutOfFuel => {
                    let used = (self.machine.total_steps() - base_steps) + self.counts.interp_steps;
                    if used >= fuel {
                        return Err(EmuError::OutOfFuel);
                    }
                    // Otherwise just a slice boundary: fall through to
                    // the progress check.
                }
                Event::HotTb { core, guest_pc } => {
                    // The transfer already completed: a promotion needs
                    // no resume and cannot perturb the core's execution.
                    self.on_hot_tb(core, guest_pc);
                }
                Event::HostFault { core, host_pc, kind } => {
                    return Err(EmuError::HostFault {
                        kind,
                        core,
                        host_pc,
                        guest_pc: self.machine.guest_pc_of_host(host_pc),
                    });
                }
            }
            let marker = self.progress_marker();
            if marker != last_marker {
                last_marker = marker;
                no_progress = 0;
            } else {
                no_progress += (self.machine.total_steps() - before).max(1);
                if let Some(w) = self.watchdog {
                    if no_progress >= w {
                        return Err(EmuError::Stalled {
                            steps: no_progress,
                            cores: self.dump_cores(),
                        });
                    }
                }
            }
        }
        // HLT'd threads report guest RAX as their exit value.
        for core in 0..self.machine.n_cores() {
            if self.core_started[core] && self.exit_vals[core].is_none() {
                self.exit_vals[core] = Some(self.guest_reg(core, Gpr::RAX));
            }
        }
        self.obs.sink.flush();
        Ok(Report {
            cycles: self.machine.clock(),
            tb_count: self.counts.tb_count,
            code_bytes: self.machine.code_size(),
            stats: self.machine.total_stats(),
            exit_vals: self.exit_vals.clone(),
            output: self.output.clone(),
            fallback_blocks: self.counts.fallback_blocks,
            retranslations: self.counts.retranslations,
            chain: self.machine.chain_stats(),
            opt: self.counts.opt_totals,
            template: self.counts.template_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_guest_x86::{AluOp, Cond, GelfBuilder};

    /// `rax = 3 * n` by a counted loop: an entry block that runs once, a
    /// loop block, an exit block.
    fn counted_loop(n: u64) -> GuestBinary {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RCX, n);
        b.asm.label("loop");
        b.asm.alu_ri(AluOp::Add, Gpr::RAX, 3);
        b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        b.asm.cmp_ri(Gpr::RCX, 0);
        b.asm.jcc_to(Cond::Ne, "loop");
        b.asm.hlt();
        b.finish().unwrap()
    }

    #[test]
    fn a_record_keeps_its_id_its_tier_and_its_resumes_while_profiling() {
        let bin = counted_loop(40);
        let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
        emu.set_profiling(true);
        emu.set_tiering(Some(TierConfig { warm_threshold: Some(8) }));
        let report = emu.run(100_000).unwrap();
        assert_eq!(report.exit_vals[0], Some(120));
        // The entry block is a template still; the loop crossed the warm
        // threshold, and a promotion re-installs a pc that has its id.
        assert!(emu.tbs[&bin.entry].tier0);
        let promoted = emu.tbs.values().filter(|meta| !meta.tier0).count();
        assert!(promoted >= 1 && promoted as u64 == report.template.promotions, "{report:?}");
        assert_eq!(report.retranslations, promoted);
        let ids: HashSet<u64> = emu.tbs.values().filter_map(|meta| meta.id).collect();
        let first_installs = (report.tb_count - promoted) as u64;
        assert_eq!(ids.len() as u64, first_installs, "one id per first install");
        // Each block entered the dispatch loop once: the miss that made it.
        assert!(emu.tbs.values().all(|meta| meta.resumes == 1));
        let entry = emu.hot_tbs(8).into_iter().find(|tb| tb.guest_pc == bin.entry).unwrap();
        assert_eq!((entry.tb_id, entry.execs, entry.chain_misses), (1, 1, 1));

        // Evicted and translated again: same id, one more retranslation.
        assert!(emu.machine.unmap_tb(bin.entry));
        assert!(emu.ensure_translated(None, bin.entry).is_ok());
        assert_eq!((emu.tb_id(bin.entry), emu.counts.retranslations), (Some(1), promoted + 1));
        emu.set_profiling(false);
        assert!(emu.tbs.values().all(|meta| meta.resumes == 0), "disabling discards the counts");
    }
}
