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
//! of the engine is split by concern: `config` (setups, the one
//! [`EmuConfig`], errors, reports), `translate` (the per-tier
//! producers and the one commit path), `fallback` (block interpretation
//! over the reference semantics), `syscall` and `metrics`.
//!
//! ## Failure model
//!
//! The pipeline is panic-free: every layer failure — decoder, optimizer
//! backend, TB cache, host linker, syscall layer — is either *recovered*
//! or surfaced as a typed [`EmuError`]. Translation and lowering failures
//! (real or injected via [`FaultPlan`](crate::FaultPlan)) quarantine the
//! guest pc and fall back to direct interpretation of that block, with a
//! bounded number of re-translation retries; detected TB-cache corruption
//! discards the entry and re-translates; failed host-library links fall
//! back to the translated guest implementation behind the PLT stub. Under
//! any fault plan a run either completes with the same observable output
//! as the fault-free run, or returns a typed error — never a silently
//! wrong result. See DESIGN.md §11.

mod config;
mod fallback;
mod metrics;
mod syscall;
mod translate;

pub use config::{
    BackendKind, CoreDump, EmuConfig, EmuError, HostExport, HostLibrary, LinkError, Report, Setup,
    TierConfig, VerifyLevel,
};
pub use metrics::specs;

use crate::idl::Idl;
use crate::obs::{Obs, TraceSink, TraceStage};
use metrics::Counts;
use risotto_analysis::{analyze_image, ImageFacts};
use risotto_guest_x86::{Flags, Gpr, GuestBinary, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use risotto_host_arm::{AtomicEvent, CostModel, Event, Machine, Xreg, ENV_BASE, SPILL_BASE};
use risotto_tcg::env;
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
/// has had; created at the pc's first block install (an install that
/// finds one is a re-translation), never removed.
#[derive(Debug)]
struct TbMeta {
    /// Stable engine TB id: the 1-based `tb_count` of the pc's first
    /// block install.
    id: u64,
    /// The current translation is a tier-0 template block (a promotion
    /// candidate for the tier-1 re-translate).
    tier0: bool,
}

/// The DBT engine.
#[derive(Debug)]
pub struct Emulator {
    setup: Setup,
    /// Everything that configures this emulator, fixed at construction.
    config: EmuConfig,
    machine: Machine,
    /// PLT vaddr → (native function id, arity) for host-linked imports.
    plt_natives: HashMap<u64, (u16, usize)>,
    exit_vals: Vec<Option<u64>>,
    output: Vec<u8>,
    core_started: Vec<bool>,
    /// Bounded guest pc → failed-translation-attempt map (fallback
    /// bookkeeping, satellite of the translation verifier).
    quarantine: Quarantine,
    /// Machine steps plus interpreted guest instructions at which the
    /// current run is out of fuel (see [`Emulator::fuel_left`]).
    fuel_end: u64,
    /// Every total the engine keeps (docs/METRICS.md).
    counts: Counts,
    /// Observability: the trace sink.
    obs: Obs,
    /// Guest pc → its one engine-side record.
    tbs: HashMap<u64, TbMeta>,
    /// What the engine reads of the loaded image: its entry and the
    /// `.text` that `fetch` decodes from and the analysis analyses.
    /// Everything else is empty — `.data` is in machine memory, the
    /// symbols are [`Emulator::link_library`]'s argument.
    binary: GuestBinary,
    /// Whole-program analysis facts driving fence relaxation
    /// (docs/ANALYSIS.md); present exactly when [`EmuConfig::analysis`]
    /// is on.
    analysis: Option<ImageFacts>,
    /// Test hook: guest pcs the relaxer pretends are private (mutant
    /// injection for verifier kill tests; see `force_private_for_test`).
    forced_private: HashSet<u64>,
    /// The translate path's reusable working memory, borrowed from the
    /// thread's spare for the emulator's lifetime.
    scratch: TranslateScratch,
}

impl Drop for Emulator {
    /// Hands the translate scratch back to the thread, so the next
    /// emulator built there starts with tables already grown.
    fn drop(&mut self) {
        std::mem::take(&mut self.scratch).give_back();
    }
}

impl Emulator {
    /// Loads a guest binary under the given setup with the default
    /// [`EmuConfig`] (which is what a fresh machine runs), pricing the
    /// machine with `cost`.
    pub fn new(binary: &GuestBinary, setup: Setup, n_cores: usize, cost: CostModel) -> Emulator {
        let mut machine = Machine::new(n_cores, cost);
        machine.mem.write_bytes(TEXT_BASE, &binary.text);
        machine.mem.write_bytes(DATA_BASE, &binary.data);
        Emulator {
            setup,
            config: EmuConfig::default(),
            machine,
            plt_natives: HashMap::new(),
            exit_vals: vec![None; n_cores],
            output: Vec::new(),
            core_started: vec![false; n_cores],
            quarantine: Quarantine::default(),
            fuel_end: u64::MAX,
            counts: Counts::default(),
            obs: Obs::default(),
            tbs: HashMap::new(),
            binary: GuestBinary {
                entry: binary.entry,
                text: binary.text.clone(),
                data: Vec::new(),
                dynsyms: Vec::new(),
                symbols: HashMap::new(),
            },
            analysis: None,
            forced_private: HashSet::new(),
            scratch: TranslateScratch::take_spare(),
        }
    }

    /// Loads a guest binary under the given setup and configuration,
    /// pricing the machine with the configured backend's cost model.
    ///
    /// # Panics
    ///
    /// If `config` asks for a non-Arm backend under [`Setup::Native`].
    pub fn with_config(
        binary: &GuestBinary,
        setup: Setup,
        n_cores: usize,
        config: EmuConfig,
    ) -> Emulator {
        assert!(
            setup != Setup::Native || config.backend == BackendKind::Arm,
            "the native oracle is Arm-compiled code; it has no {} rendition",
            config.backend.name()
        );
        let mut emu = Emulator::new(binary, setup, n_cores, config.backend.cost_model());
        emu.config = config;
        emu.apply_config();
        emu
    }

    /// Makes the machine and the analysis facts what the config says.
    fn apply_config(&mut self) {
        let c = &self.config;
        // The tier-0 promoter reads the machine's entry counts, so they
        // are kept for as long as the template tier is on.
        self.machine.set_hot_threshold(c.warm_threshold);
        self.machine.set_chaining(c.chaining);
        self.machine.set_atomic_log(c.atomic_log);
        if c.analysis != self.analysis.is_some() {
            self.analysis = c.analysis.then(|| analyze_image(&self.binary));
        }
    }

    /// The configuration this emulator was built with. A run consumes
    /// its fault plan's one-shot faults and advances the plan's stream.
    pub fn config(&self) -> &EmuConfig {
        &self.config
    }

    /// Replay shim for [`EmuConfig::verify`] (ROADMAP item 6(b)).
    #[doc(hidden)]
    pub fn set_verify(&mut self, level: VerifyLevel) {
        self.config.verify = level;
        self.apply_config();
    }

    /// Replay shim for [`EmuConfig::warm_threshold`] (ROADMAP item 6(b)).
    #[doc(hidden)]
    pub fn set_tiering(&mut self, cfg: Option<TierConfig>) {
        self.config.warm_threshold = cfg.and_then(|c| c.warm_threshold);
        self.apply_config();
    }

    /// Replay shim for [`EmuConfig::analysis`] (ROADMAP item 6(b)).
    #[doc(hidden)]
    pub fn set_analysis(&mut self, on: bool) {
        self.config.analysis = on;
        self.apply_config();
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

    /// Installs a trace sink and enables structured event emission at the
    /// decode / opt / encode / install / dispatch / fault boundaries.
    /// Tracing is purely observational: a traced run is bit-identical
    /// (cycles, output, exit values) to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.sink = Some(sink);
    }

    /// `true` while the tier-0 template tier serves cold translations:
    /// the config must set [`EmuConfig::warm_threshold`], and the setup
    /// must be a DBT one (the native oracle has no guest decode).
    fn tier0_active(&self) -> bool {
        self.setup != Setup::Native && self.config.warm_threshold.is_some()
    }

    /// Audits the machine's chain graph; empty means every patched chain
    /// word points at a live translation (see `Machine::validate_chains`).
    pub fn validate_chains(&self) -> Vec<(u64, u64, u64)> {
        self.machine.validate_chains()
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

    /// Drains and returns the recorded [`AtomicEvent`]s in execution
    /// order (empty unless [`EmuConfig::atomic_log`] is on).
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
            if self.config.fault_plan.host_call_fails(&name) {
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
        let tb_id = self.obs.sink.as_ref().and_then(|_| self.tb_id(guest_pc));
        self.obs.trace(TraceStage::Dispatch, Some(core), Some(guest_pc), tb_id, String::new);
        let mut pc = guest_pc;
        loop {
            match self.ensure_translated(Some(core), pc) {
                Ok(host) => {
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
        if self.config.fault_plan.is_empty() {
            return;
        }
        for pc in self.config.fault_plan.pending_corruptions() {
            if self.machine.lookup_tb(pc).is_some() && self.config.fault_plan.take_corrupt_tb(pc) {
                self.machine.unmap_tb(pc);
                let tb_id = self.tb_id(pc);
                self.obs.trace(TraceStage::Fault, None, Some(pc), tb_id, || {
                    "TB-cache corruption detected; entry discarded".to_owned()
                });
            }
        }
        if self.config.fault_plan.tb_cache_strikes() {
            let mut tbs = self.machine.mapped_tbs();
            if !tbs.is_empty() {
                tbs.sort_unstable();
                let victim = tbs[self.config.fault_plan.pick(tbs.len())];
                self.machine.unmap_tb(victim);
            }
        }
    }

    /// Fuel the current run has left: what neither the machine's steps
    /// nor the fallback's interpreted guest instructions have used up.
    fn fuel_left(&self) -> u64 {
        self.fuel_end.saturating_sub(self.machine.total_steps() + self.counts.interp_steps)
    }

    /// The stable engine id of the block at `guest_pc`, once it has one.
    fn tb_id(&self, guest_pc: u64) -> Option<u64> {
        self.tbs.get(&guest_pc).map(|meta| meta.id)
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
    /// faults, and — with [`EmuConfig::watchdog`] armed — stalls.
    pub fn run(&mut self, fuel: u64) -> Result<Report, EmuError> {
        self.run_sliced_for_test(fuel, u64::MAX)
    }

    /// [`Emulator::run`], handing the machine at most `slice` steps at a
    /// time. Without injected faults (which roll once per machine event)
    /// nothing observable may depend on `slice`: a quantum the fuel cuts
    /// short stays open and the next slice resumes it, so the machine
    /// takes the same steps however the run is cut, and the test suite
    /// holds every slicing to one step at a time.
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`].
    #[doc(hidden)]
    pub fn run_sliced_for_test(&mut self, fuel: u64, slice: u64) -> Result<Report, EmuError> {
        self.fuel_end =
            (self.machine.total_steps() + self.counts.interp_steps).saturating_add(fuel);
        let watchdog = self.config.watchdog.map(|w| w.max(1));
        self.init_core(0, None);
        self.resume_at(0, self.binary.entry)?;
        let mut last_marker = self.progress_marker();
        let mut no_progress: u64 = 0;
        loop {
            let before = self.machine.total_steps();
            let budget = self.fuel_left().min(slice).min(watchdog.unwrap_or(u64::MAX));
            let ev = self.machine.run(budget);
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
                    if self.fuel_left() == 0 {
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
                if let Some(w) = watchdog {
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
        if let Some(sink) = &mut self.obs.sink {
            sink.flush();
        }
        Ok(Report {
            cycles: self.machine.clock(),
            tb_count: self.counts.tb_count,
            code_bytes: self.machine.code_size(),
            exit_vals: self.exit_vals.clone(),
            output: self.output.clone(),
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
    fn a_record_keeps_its_id_and_its_tier() {
        let bin = counted_loop(40);
        let config = EmuConfig { warm_threshold: Some(8), ..EmuConfig::default() };
        let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, config);
        let report = emu.run(100_000).unwrap();
        assert_eq!(report.exit_vals[0], Some(120));
        // The entry block is a template still; the loop crossed the warm
        // threshold, and a promotion re-installs a pc that has its id.
        assert!(emu.tbs[&bin.entry].tier0);
        let promoted = emu.tbs.values().filter(|meta| !meta.tier0).count();
        let snap = emu.metrics();
        assert!(promoted >= 1 && promoted as u64 == snap.counter("template.promotions"));
        assert_eq!(snap.counter("translate.retranslations"), promoted as u64);
        let ids: HashSet<u64> = emu.tbs.values().map(|meta| meta.id).collect();
        let first_installs = (report.tb_count - promoted) as u64;
        assert_eq!(ids.len() as u64, first_installs, "one id per first install");
        assert_eq!(emu.tb_id(bin.entry), Some(1));

        // Evicted and translated again: same id, one more retranslation.
        assert!(emu.machine.unmap_tb(bin.entry));
        assert!(emu.ensure_translated(None, bin.entry).is_ok());
        assert_eq!((emu.tb_id(bin.entry), emu.counts.retranslations), (Some(1), promoted + 1));
    }

    /// `Report` is the run's result; every count is a row of
    /// [`Emulator::metrics`]. Destructured field by field, so a field
    /// added to it stops this test from compiling.
    #[test]
    fn report_is_the_result_and_every_count_is_a_row() {
        let bin = counted_loop(40);
        let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
        let Report { cycles, tb_count, code_bytes, exit_vals, output } = emu.run(100_000).unwrap();
        let snap = emu.metrics();
        assert_eq!(cycles, snap.gauge("exec.cycles"));
        assert_eq!(tb_count as u64, snap.counter("translate.blocks"));
        assert!(code_bytes > 0);
        assert_eq!((exit_vals, output), (vec![Some(120)], Vec::new()));
    }

    /// One construction path: `with_config` is `new` priced by the
    /// configured backend's cost model, on both backends.
    #[test]
    fn with_config_is_new_priced_by_the_backend() {
        let bin = counted_loop(40);
        for backend in BackendKind::ALL {
            let config = EmuConfig { backend, ..EmuConfig::default() };
            let mut configured = Emulator::with_config(&bin, Setup::Risotto, 1, config);
            let mut plain = Emulator::new(&bin, Setup::Risotto, 1, backend.cost_model());
            plain.config.backend = backend;
            assert_eq!(plain.config(), configured.config());
            let (a, b) = (configured.run(100_000).unwrap(), plain.run(100_000).unwrap());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", backend.name());
            assert_eq!(configured.metrics(), plain.metrics(), "{}", backend.name());
        }
    }
}
