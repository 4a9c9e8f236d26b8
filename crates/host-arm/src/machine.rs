//! The multi-core weak-memory host machine simulator.
//!
//! Cores execute MiniArm code from a shared code cache against shared
//! memory, with per-core FIFO *store buffers* (stores become globally
//! visible when drained; loads forward from the own buffer), per-core
//! exclusive monitors for `LDXR`/`STXR`, and a calibrated cycle-cost
//! model. Scheduling is discrete-event: the core with the smallest local
//! clock runs next, so the reported runtime is the maximum core clock —
//! a parallel-execution time.
//!
//! Operationally the machine is TSO-like (store buffering only). The
//! *additional* Arm weakness (load-load reordering etc.) is covered
//! exactly by the axiomatic layer (`risotto-memmodel`/`risotto-litmus`);
//! see DESIGN.md §10. Fences, acquire/release and atomics still have
//! their architectural *costs* and their buffer-drain semantics here.

use crate::backend::{fp_op_of, helper_at};
use crate::code_cache::{CodeCache, Via};
use crate::contention::Contention;
use crate::cost::CostModel;
#[cfg(test)]
use crate::insn::ACond;
use crate::insn::{AFpOp, AOp, Dmb, HostInsn, MemOrder, Nzcv, TbExitKind, Xreg};
use crate::sched::Scheduler;
use crate::store_buffer::{Probe, StoreBuffer};
#[cfg(test)]
use crate::store_buffer::{DRAIN_AGE, STORE_BUFFER_CAP};
use risotto_guest_x86::SparseMem;
use risotto_tcg::Helper;

/// A result returned by a registered native host function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeResult {
    /// Return value (goes to X0).
    pub ret: u64,
    /// Cycles charged for the native execution.
    pub cost: u64,
}

/// A native host library function: receives shared memory and the six
/// argument registers.
pub type NativeFn = Box<dyn FnMut(&mut SparseMem, &[u64; 6]) -> NativeResult>;

/// Events that suspend the machine back to the DBT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Every started core has halted.
    AllHalted,
    /// A TB exit targeted a guest pc with no installed translation; the
    /// engine must translate and [`Machine::map_tb`] it, then resume.
    TranslationMiss {
        /// Core that missed.
        core: usize,
        /// Guest pc needing translation.
        guest_pc: u64,
    },
    /// A guest syscall; the engine services it and redirects the core.
    GuestSyscall {
        /// Core performing the syscall.
        core: usize,
        /// Guest pc following the syscall.
        next: u64,
    },
    /// The global step budget was exhausted (runaway guest).
    OutOfFuel,
    /// A profiled block's execution count crossed the hotness threshold
    /// (see [`Machine::set_hot_threshold`]); the engine may re-translate
    /// it a tier up. The triggering transfer has already completed — the
    /// core continues from its target when the machine resumes, so this
    /// event never perturbs execution.
    HotTb {
        /// Core whose transfer crossed the threshold.
        core: usize,
        /// Guest pc of the hot block.
        guest_pc: u64,
    },
    /// A core hit unexecutable host state (undecodable code bytes, an
    /// unknown helper index, an out-of-range native function index).
    /// The faulting core is left un-advanced at `host_pc`; the engine
    /// decides whether to re-translate, fall back, or abort.
    HostFault {
        /// The faulting core.
        core: usize,
        /// Host pc of the faulting instruction.
        host_pc: u64,
        /// What kind of fault occurred.
        kind: HostFaultKind,
    },
}

/// Classification of a [`Event::HostFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The bytes at `host_pc` did not decode as a MiniArm instruction
    /// (or lay outside the installed code cache).
    Decode,
    /// A `Hcall` named a helper index the machine does not implement.
    UnknownHelper(u8),
    /// A `NativeCall` named an unregistered native function index.
    UnknownNative(u16),
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions executed.
    pub insns: u64,
    /// `DMB` barriers executed, by kind (LD, ST, FF).
    pub dmb: [u64; 3],
    /// Atomic RMW instructions executed.
    pub atomics: u64,
    /// Native library calls.
    pub native_calls: u64,
    /// Cycles attributed to barriers.
    pub fence_cycles: u64,
}

/// One atomic read-modify-write recorded by the machine's atomic-access
/// log (see [`Machine::set_atomic_log`]). Every successful or failed
/// hardware RMW — `casal`, `ldaddal`, a winning `stxr`, and the
/// sequentially-consistent helper atomics — appends one event in
/// execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicEvent {
    /// Core that executed the access.
    pub core: usize,
    /// Target memory address.
    pub addr: u64,
    /// Value the RMW read from memory.
    pub old: u64,
    /// Value the RMW left in memory (equals `old` for a failed
    /// compare-exchange).
    pub new: u64,
}

/// What one [`Machine::step`] did.
enum Step {
    /// The instruction ran.
    Ran,
    /// The core was past its bound and the step was not core-local:
    /// nothing ran.
    Yielded,
    /// The instruction ran, or faulted, and the machine must suspend.
    Suspend(Event),
}

/// Cycles an ALU operation costs.
fn alu_cost(cost: &CostModel, op: AOp) -> u64 {
    match op {
        AOp::Mul => cost.mul,
        AOp::Udiv | AOp::Urem => cost.div,
        _ => cost.alu,
    }
}

/// One step of the xorshift stream in `state` (which must not be zero):
/// each core's jitter, and the seeded operation mixes of this crate's
/// tests.
#[inline]
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[derive(Debug, Clone)]
struct Core {
    regs: [u64; Xreg::COUNT],
    nzcv: Nzcv,
    pc: u64,
    cycles: u64,
    halted: bool,
    started: bool,
    monitor: Option<u64>,
    stats: CoreStats,
    /// Per-core deterministic jitter stream: real machines have timing
    /// noise that breaks the phase-lock a discrete-event simulator
    /// otherwise falls into on contended atomics.
    jitter: u64,
    sb: StoreBuffer,
}

impl Core {
    fn new() -> Core {
        Core {
            regs: [0; Xreg::COUNT],
            nzcv: Nzcv::default(),
            pc: 0,
            cycles: 0,
            halted: true,
            started: false,
            monitor: None,
            stats: CoreStats::default(),
            jitter: 0x9E3779B97F4A7C15,
            sb: StoreBuffer::new(),
        }
    }

    /// `true` while the scheduler may step this core.
    fn runnable(&self) -> bool {
        self.started && !self.halted
    }

    /// What the scheduler knows of the core: its clock while it is
    /// runnable.
    fn sched_clock(&self) -> Option<u64> {
        self.runnable().then_some(self.cycles)
    }

    /// Next jitter value in 0..16 (xorshift, seeded per construction and
    /// perturbed by the core's own execution history).
    fn next_jitter(&mut self) -> u64 {
        xorshift(&mut self.jitter) & 15
    }

    fn get(&self, r: Xreg) -> u64 {
        if r.0 == 31 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set(&mut self, r: Xreg, v: u64) {
        if r.0 != 31 {
            self.regs[r.index()] = v;
        }
    }
}

/// The host machine.
pub struct Machine {
    /// Shared memory (guest address space + runtime areas).
    pub mem: SparseMem,
    cores: Vec<Core>,
    /// Translated code and everything keyed by guest pc (`code_cache.rs`).
    pub(crate) cache: CodeCache,
    natives: Vec<NativeFn>,
    cost: CostModel,
    /// Who has recently taken which line exclusively (`contention.rs`).
    contention: Contention,
    total_steps: u64,
    /// How many cores have their exclusive monitor set: with none, a
    /// write has no monitor to clear.
    armed: usize,
    /// Picks the core each run quantum steps (`sched.rs`).
    sched: Scheduler,
    /// Ordered atomic RMW event log; `None` (the default) disables
    /// recording entirely. See [`Machine::set_atomic_log`].
    atomic_log: Option<Vec<AtomicEvent>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("code_bytes", &self.code_size())
            .field("tbs", &self.mapped_tbs().len())
            .field("natives", &self.natives.len())
            .finish()
    }
}

impl Machine {
    /// Creates a machine with `n_cores` (all idle) and a cost model.
    pub fn new(n_cores: usize, cost: CostModel) -> Machine {
        Machine {
            mem: SparseMem::new(),
            cores: (0..n_cores)
                .map(|i| {
                    let mut c = Core::new();
                    c.jitter = c.jitter.wrapping_mul(i as u64 * 2 + 1);
                    c
                })
                .collect(),
            cache: CodeCache::new(n_cores),
            natives: Vec::new(),
            cost,
            contention: Contention::new(cost.contend_window),
            total_steps: 0,
            armed: 0,
            sched: Scheduler::new(n_cores),
            atomic_log: None,
        }
    }

    /// Enables or disables the ordered atomic-access event log (off by
    /// default; purely observational — never affects cycles, memory or
    /// scheduling). Differential harnesses use the per-core sequence of
    /// [`AtomicEvent`]s as an ordering oracle across translation
    /// configurations. Toggling in either direction clears the log.
    pub fn set_atomic_log(&mut self, on: bool) {
        self.atomic_log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains and returns the recorded atomic events (empty when the log
    /// is disabled). Recording continues afterwards if enabled.
    pub fn take_atomic_log(&mut self) -> Vec<AtomicEvent> {
        self.atomic_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn log_atomic(&mut self, core: usize, addr: u64, old: u64, new: u64) {
        if let Some(log) = &mut self.atomic_log {
            log.push(AtomicEvent { core, addr, old, new });
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// `true` if a live core's pc lies in `start..start + len`: the code
    /// cache asks before it reuses a region.
    pub(crate) fn core_parked_in(&self, start: u64, len: usize) -> bool {
        self.cores.iter().any(|c| c.runnable() && c.pc >= start && c.pc - start < len as u64)
    }

    /// Registers a native host function; returns its index for
    /// [`HostInsn::NativeCall`].
    pub fn register_native(&mut self, f: NativeFn) -> u16 {
        self.natives.push(f);
        (self.natives.len() - 1) as u16
    }

    /// Starts (or restarts) a core at a host code address.
    pub fn start_core(&mut self, core: usize, host_pc: u64) {
        let c = &mut self.cores[core];
        c.pc = host_pc;
        c.halted = false;
        c.started = true;
    }

    /// Sets a core register (engine use: env pointers, arguments).
    pub fn set_reg(&mut self, core: usize, r: Xreg, v: u64) {
        self.cores[core].set(r, v);
    }

    /// Reads a core register.
    pub fn reg(&self, core: usize, r: Xreg) -> u64 {
        self.cores[core].get(r)
    }

    /// Halts a core, behind everything it has buffered (`hlt`, a halting
    /// TB exit, and engine use: guest thread exit).
    pub fn halt_core(&mut self, core: usize) {
        self.drain_all(core);
        self.cores[core].halted = true;
    }

    /// `true` if the core has halted.
    pub fn core_halted(&self, core: usize) -> bool {
        self.cores[core].halted
    }

    /// The core's current host pc (diagnostics / state dumps).
    pub fn core_pc(&self, core: usize) -> u64 {
        self.cores[core].pc
    }

    /// Drains the core's store buffer to shared memory, invalidating
    /// foreign exclusive monitors — the same synchronization a helper or
    /// native call performs at its ABI boundary. The engine uses this
    /// before interpreting a guest block on the core's behalf.
    pub fn drain_store_buffer(&mut self, core: usize) {
        self.drain_all(core);
    }

    /// Stores a u64 to shared memory on `core`'s behalf (engine use: the
    /// interpreter fallback). The store is globally visible at once —
    /// after everything the core still has buffered — and, like a
    /// drained one, clears every other core's exclusive monitor on
    /// `addr`, so an `stxr` cannot succeed over it.
    pub fn store_u64(&mut self, core: usize, addr: u64, v: u64) {
        self.drain_all(core);
        self.write_word(core, addr, v);
    }

    /// [`Machine::store_u64`] for one byte; it clears monitors on the
    /// word the byte lies in, as the machine's own byte store does.
    pub fn store_u8(&mut self, core: usize, addr: u64, v: u8) {
        self.drain_all(core);
        self.mem.write_u8(addr, v);
        self.invalidate_monitors(core, addr & !7);
    }

    /// The core's local clock.
    pub fn core_cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }

    /// Advances a core's clock without executing (engine use: model a
    /// blocked wait, e.g. a guest `join` retry).
    pub fn add_cycles(&mut self, core: usize, cycles: u64) {
        self.cores[core].cycles += cycles;
    }

    /// Total executed machine steps across all cores.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// The machine clock: max over started cores (parallel runtime).
    pub fn clock(&self) -> u64 {
        self.cores.iter().filter(|c| c.started).map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> CoreStats {
        self.cores[core].stats
    }

    /// Aggregated statistics over all cores.
    pub fn total_stats(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.cores {
            t.insns += c.stats.insns;
            for i in 0..3 {
                t.dmb[i] += c.stats.dmb[i];
            }
            t.atomics += c.stats.atomics;
            t.native_calls += c.stats.native_calls;
            t.fence_cycles += c.stats.fence_cycles;
        }
        t
    }

    /// The one way a buffered store reaches shared memory: oldest first,
    /// while the buffer has one due at clock `now` — aged out, or over
    /// capacity.
    fn drain_due(&mut self, core: usize, now: u64) {
        while let Some((a, v)) = self.cores[core].sb.pop_due(now) {
            self.write_word(core, a, v);
        }
    }

    /// Drains everything `core` has buffered.
    fn drain_all(&mut self, core: usize) {
        self.drain_due(core, u64::MAX);
    }

    /// The one way a word `core` wrote becomes globally visible: no other
    /// core's `stxr` may succeed over it.
    fn write_word(&mut self, core: usize, addr: u64, v: u64) {
        self.mem.write_u64(addr, v);
        self.invalidate_monitors(core, addr);
    }

    /// Clears every exclusive monitor on `addr` but the writer's own.
    fn invalidate_monitors(&mut self, writer: usize, addr: u64) {
        if self.armed == 0 {
            return;
        }
        for i in 0..self.cores.len() {
            if i != writer && self.cores[i].monitor == Some(addr) {
                self.set_monitor(i, None);
            }
        }
    }

    /// The one way a core's exclusive monitor changes: `armed` counts
    /// the cores that hold one.
    fn set_monitor(&mut self, core: usize, monitor: Option<u64>) {
        let c = &mut self.cores[core];
        self.armed += usize::from(monitor.is_some());
        self.armed -= usize::from(c.monitor.is_some());
        c.monitor = monitor;
        debug_assert_eq!(
            self.armed,
            self.cores.iter().filter(|c| c.monitor.is_some()).count(),
            "armed-monitor count"
        );
    }

    /// Cycle cost of an exclusive/atomic access to `addr`: `base` plus the
    /// cache-line ping-pong penalty per recently contending core plus a
    /// little seeded jitter. The penalty is physical (line ownership), so
    /// it applies to `casal`/`ldaddal`, helper atomics *and* `ldxr`.
    fn atomic_cost(&mut self, core: usize, addr: u64, base: u64) -> u64 {
        let cores = &self.cores;
        let slowest_running = || cores.iter().filter_map(Core::sched_clock).min().unwrap_or(0);
        let others =
            self.contention.others_in_window(core, addr, cores[core].cycles, slowest_running);
        let jitter = self.cores[core].next_jitter();
        base + self.cost.atomic_contend * others + jitter
    }

    /// The one way an atomic read-modify-write reaches shared memory:
    /// behind everything `core` has buffered, `f` sees the word at `addr`
    /// and says what to leave there (`None`: nothing, a failed
    /// compare-exchange). Written or not, the access is logged, counted
    /// and charged `CostModel::atomic` plus contention; returns the value
    /// read. The engine calls it too, for the interpreter fallback's
    /// locked instructions.
    pub fn rmw(&mut self, core: usize, addr: u64, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        self.drain_all(core);
        let old = self.mem.read_u64(addr);
        let new = f(old);
        if let Some(new) = new {
            self.write_word(core, addr, new);
        }
        self.log_atomic(core, addr, old, new.unwrap_or(old));
        self.cores[core].stats.atomics += 1;
        let ac = self.atomic_cost(core, addr, self.cost.atomic);
        self.cores[core].cycles += ac;
        old
    }

    /// Runs until an [`Event`] occurs, executing at most `fuel` steps.
    ///
    /// Cores run in quanta: one scheduler pick of the core with the
    /// smallest `(clock, index)`, then the picked core is stepped while a
    /// fresh pick would choose it again — while it stays below the
    /// runner-up's `(clock, index)`, the bound the pick returned — and
    /// past that bound for as long as each next step is *core-local* (it
    /// reads and writes only the core's own state and counters that
    /// commute). The first step that is not hands the machine back to
    /// the scheduler before it has any effect, so every step that
    /// touches shared state still runs when its core holds the smallest
    /// `(clock, index)`, and a completed run ends exactly as one with a
    /// pick before every step (DESIGN.md §6, "Scheduling: run quanta").
    ///
    /// Fuel that runs out inside a quantum leaves it open, and the next
    /// call resumes it unless the engine has changed what the pick read
    /// (another core's clock or run state): slicing the fuel moves no
    /// step. The engine writes [`Machine::mem`] directly only at events,
    /// never at an [`Event::OutOfFuel`] boundary, and a core-local step
    /// reads no memory anyway.
    pub fn run(&mut self, fuel: u64) -> Event {
        // The scheduler reads one clock per core, taken here. Until this
        // call returns only the stepped core's clock and run state
        // change, and it is told again when its quantum ends; what the
        // engine did since the last call (`start_core`, `halt_core`,
        // `add_cycles`) is read now.
        for (i, c) in self.cores.iter().enumerate() {
            self.sched.set_clock(i, c.sched_clock());
        }
        let mut budget = fuel;
        loop {
            if budget == 0 {
                let idle = self.sched.pick().is_none();
                return if idle { Event::AllHalted } else { Event::OutOfFuel };
            }
            let (core, until, mut ahead) = match self.sched.resume() {
                Some(open) => open,
                None => match self.sched.pick() {
                    Some((core, until)) => (core, until, false),
                    None => return Event::AllHalted,
                },
            };
            loop {
                match self.step(core, ahead) {
                    Step::Ran => {}
                    Step::Yielded => break,
                    Step::Suspend(ev) => return ev,
                }
                budget -= 1;
                let c = &self.cores[core];
                ahead = (c.cycles, core) >= until;
                if c.halted {
                    break;
                }
                if budget == 0 {
                    self.sched.keep_open((core, until, ahead));
                    return Event::OutOfFuel;
                }
            }
            self.sched.set_clock(core, self.cores[core].sched_clock());
        }
    }

    /// Executes one instruction on `core`. `ahead`: the core is past its
    /// scheduler bound, so a step that is not core-local (a drain due, a
    /// fetch fault, an instruction its own arm finds shared) yields
    /// instead, leaving no trace but a decode-table fill. One body for
    /// both: a monomorphized copy per mode, both inlined into `run`,
    /// measured slower (EXPERIMENTS.md, "Run-ahead quanta").
    fn step(&mut self, core: usize, ahead: bool) -> Step {
        let c = &self.cores[core];
        let (pc, now) = (c.pc, c.cycles);
        if now >= c.sb.due() {
            if ahead {
                return Step::Yielded;
            }
            self.drain_due(core, now);
        }
        let Some(idx) = self.cache.fetch(pc) else {
            if ahead {
                return Step::Yielded;
            }
            self.total_steps += 1;
            // Leave the core parked on the faulting pc; the engine owns
            // the recovery decision.
            return Step::Suspend(Event::HostFault {
                core,
                host_pc: pc,
                kind: HostFaultKind::Decode,
            });
        };
        // Matched where it lies: the bindings are copies, so each arm
        // loads the operands it uses and the table is free again before
        // the arm touches `self`.
        let (insn, len) = self.cache.entry(idx);
        let next = pc + *len as u64;
        // Arms that touch only the core work through `c`; the ones that
        // reach shared memory or other cores re-borrow after the call.
        // Each arm decides first whether it is core-local, from what it
        // reads anyway; the step is counted after it, at pc `to`.
        let c = &mut self.cores[core];
        let mut to = next;
        use HostInsn::*;
        match *insn {
            LdrB { .. } | StrB { .. } | Ldxr { .. } | Stxr { .. } if ahead => return Step::Yielded,
            Cas { .. } | LdaddAl { .. } | NativeCall { .. } | Hlt if ahead => return Step::Yielded,
            Barrier(Dmb::Ff) if ahead && !c.sb.is_empty() => return Step::Yielded,
            // A float helper touches registers only.
            Hcall { helper } if ahead && helper_at(helper).and_then(fp_op_of).is_none() => {
                return Step::Yielded
            }
            ExitTb(kind) if ahead && !self.cache.resolves_locally(core, kind, |r| c.get(r)) => {
                return Step::Yielded
            }
            MovImm { dst, imm } => {
                c.set(dst, imm);
                c.cycles += self.cost.alu;
            }
            MovReg { dst, src } => {
                let v = c.get(src);
                c.set(dst, v);
                c.cycles += self.cost.alu;
            }
            Ldr { dst, base, off, order } => {
                let addr = c.get(base).wrapping_add(off as i64 as u64);
                let v = match c.sb.probe(addr) {
                    Probe::Forward(v) => v,
                    _ if ahead => return Step::Yielded,
                    Probe::Clear => self.mem.read_u64(addr),
                    Probe::Overlap => {
                        self.drain_all(core);
                        self.mem.read_u64(addr)
                    }
                };
                let c = &mut self.cores[core];
                c.set(dst, v);
                c.cycles += self.cost.load
                    + if order == MemOrder::Plain { 0 } else { self.cost.acq_rel_extra };
            }
            Str { src, base, off, order } => {
                let addr = c.get(base).wrapping_add(off as i64 as u64);
                let v = c.get(src);
                if c.sb.probe(addr) == Probe::Overlap {
                    if ahead {
                        return Step::Yielded;
                    }
                    self.drain_all(core);
                }
                // All stores go through the FIFO buffer; its order already
                // gives release stores their prior-store ordering (the
                // machine never delays loads), so `stlr` needs no drain —
                // only its extra latency.
                let c = &mut self.cores[core];
                if order != MemOrder::Plain {
                    c.cycles += self.cost.acq_rel_extra;
                }
                c.sb.push(addr, v, c.cycles);
                c.cycles += self.cost.store;
            }
            LdrB { dst, base, off } => {
                let addr = c.get(base).wrapping_add(off as i64 as u64);
                // Byte loads bypass the (u64-granular) store buffer: drain
                // first if any entry lies within a word of the byte.
                if c.sb.probe(addr) != Probe::Clear {
                    self.drain_all(core);
                }
                let v = self.mem.read_u8(addr) as u64;
                let c = &mut self.cores[core];
                c.set(dst, v);
                c.cycles += self.cost.load;
            }
            StrB { src, base, off } => {
                let addr = c.get(base).wrapping_add(off as i64 as u64);
                let v = c.get(src) as u8;
                self.store_u8(core, addr, v);
                self.cores[core].cycles += self.cost.store;
            }
            Ldxr { dst, addr, acquire } => {
                let a = c.get(addr);
                self.drain_all(core);
                let v = self.mem.read_u64(a);
                self.cores[core].set(dst, v);
                self.set_monitor(core, Some(a));
                // Taking the line exclusively pays the same ping-pong
                // penalty as a single-instruction atomic.
                let ac = self.atomic_cost(core, a, self.cost.exclusive);
                self.cores[core].cycles += ac + if acquire { self.cost.acq_rel_extra } else { 0 };
            }
            Stxr { status, src, addr, release } => {
                let a = c.get(addr);
                let v = c.get(src);
                self.drain_all(core);
                let ok = self.cores[core].monitor == Some(a);
                self.set_monitor(core, None);
                if ok {
                    if self.atomic_log.is_some() {
                        let prev = self.mem.read_u64(a);
                        self.log_atomic(core, a, prev, v);
                    }
                    self.write_word(core, a, v);
                }
                let c = &mut self.cores[core];
                c.set(status, if ok { 0 } else { 1 });
                c.stats.atomics += 1;
                c.cycles += self.cost.exclusive + if release { self.cost.acq_rel_extra } else { 0 };
            }
            Cas { cmp_old, new, addr, acq_rel } => {
                let (a, expected, new) = (c.get(addr), c.get(cmp_old), c.get(new));
                let old = self.rmw(core, a, |old| (old == expected).then_some(new));
                let c = &mut self.cores[core];
                c.set(cmp_old, old);
                c.cycles += if acq_rel { self.cost.acq_rel_extra } else { 0 };
            }
            LdaddAl { old, addend, addr } => {
                let (a, add) = (c.get(addr), c.get(addend));
                let prev = self.rmw(core, a, |prev| Some(prev.wrapping_add(add)));
                self.cores[core].set(old, prev);
            }
            Barrier(d) => {
                // Only the full barrier needs a drain: it orders prior
                // writes against later *reads*. `DMB ST` (write→write) is
                // free ordering under a FIFO buffer, and `DMB LD` orders
                // loads, which this machine never delays.
                match d {
                    Dmb::Ff => self.drain_all(core),
                    Dmb::Ld | Dmb::St => {}
                }
                let c = &mut self.cores[core];
                let cyc = match d {
                    Dmb::Ld => self.cost.dmb_ld,
                    Dmb::St => self.cost.dmb_st,
                    Dmb::Ff => self.cost.dmb_ff,
                };
                c.stats.dmb[d as usize] += 1;
                c.stats.fence_cycles += cyc;
                c.cycles += cyc;
            }
            Alu { op, dst, a, b } => {
                let r = op.apply(c.get(a), c.get(b));
                c.set(dst, r);
                c.cycles += alu_cost(&self.cost, op);
            }
            AluImm { op, dst, a, imm } => {
                let r = op.apply(c.get(a), imm);
                c.set(dst, r);
                c.cycles += alu_cost(&self.cost, op);
            }
            Cmp { a, b } => {
                c.nzcv = Nzcv::from_cmp(c.get(a), c.get(b));
                c.cycles += self.cost.alu;
            }
            CmpImm { a, imm } => {
                c.nzcv = Nzcv::from_cmp(c.get(a), imm);
                c.cycles += self.cost.alu;
            }
            Cset { dst, cond } => {
                let v = cond.eval(c.nzcv) as u64;
                c.set(dst, v);
                c.cycles += self.cost.alu;
            }
            Fp { op, dst, a, b } => {
                let r = op.apply(c.get(a), c.get(b));
                c.set(dst, r);
                c.cycles += self.cost.hardfloat;
            }
            BCond { cond, rel } => {
                if cond.eval(c.nzcv) {
                    to = next.wrapping_add(rel as i64 as u64);
                }
                c.cycles += self.cost.branch;
            }
            B { rel } => {
                to = next.wrapping_add(rel as i64 as u64);
                c.cycles += self.cost.branch;
            }
            // The arms that may suspend count the step first.
            Hcall { helper } => {
                self.count_step(core, next);
                return self.exec_helper(core, pc, helper).map_or(Step::Ran, Step::Suspend);
            }
            NativeCall { func } => {
                if self.natives.get(func as usize).is_none() {
                    self.count_step(core, pc);
                    return Step::Suspend(Event::HostFault {
                        core,
                        host_pc: pc,
                        kind: HostFaultKind::UnknownNative(func),
                    });
                }
                let args = [0, 1, 2, 3, 4, 5].map(|r| c.get(Xreg(r)));
                // Native code runs with the host's own ordering; it
                // synchronizes through its ABI boundary — drain first.
                self.drain_all(core);
                let f = &mut self.natives[func as usize];
                let res = f(&mut self.mem, &args);
                let c = &mut self.cores[core];
                c.set(Xreg(0), res.ret);
                c.stats.native_calls += 1;
                c.cycles += res.cost + self.cost.call;
            }
            ExitTb(kind) => {
                self.count_step(core, next);
                return self.exit_tb(core, pc, kind).map_or(Step::Ran, Step::Suspend);
            }
            Hlt => self.halt_core(core),
            Nop => c.cycles += self.cost.alu,
        }
        self.count_step(core, to);
        Step::Ran
    }

    /// Counts a step `core` has taken and moves its pc to `to`.
    fn count_step(&mut self, core: usize, to: u64) {
        self.total_steps += 1;
        let c = &mut self.cores[core];
        c.pc = to;
        c.stats.insns += 1;
    }

    fn exec_helper(&mut self, core: usize, pc: u64, helper: u8) -> Option<Event> {
        let Some(helper) = helper_at(helper) else {
            // Park the core on the Hcall itself, as for other host faults.
            self.cores[core].pc = pc;
            return Some(Event::HostFault {
                core,
                host_pc: pc,
                kind: HostFaultKind::UnknownHelper(helper),
            });
        };
        self.cores[core].cycles += self.cost.helper_overhead;
        let a0 = self.cores[core].get(Xreg(0));
        let a1 = self.cores[core].get(Xreg(1));
        let a2 = self.cores[core].get(Xreg(2));
        let ret = match helper {
            // (addr, expected, new) — GCC builtin: casal.
            Helper::CmpxchgSc => self.rmw(core, a0, |old| (old == a1).then_some(a2)),
            // (addr, addend).
            Helper::XaddSc => self.rmw(core, a0, |old| Some(old.wrapping_add(a1))),
            // Soft-float helpers: the shared deterministic f64
            // semantics (risotto_guest_x86::softfloat), bit-identical
            // to the interpreter and the hardware-FP path — they are
            // that path's `AFpOp::apply`, at the soft-float price.
            Helper::FpAdd
            | Helper::FpSub
            | Helper::FpMul
            | Helper::FpDiv
            | Helper::FpSqrt
            | Helper::FpCvtIF
            | Helper::FpCvtFI => {
                let op = fp_op_of(helper).expect("every float helper names a float op");
                let multiple = if op == AFpOp::Sqrt { 2 } else { 1 };
                self.cores[core].cycles += self.cost.softfloat * multiple;
                op.apply(a0, a1)
            }
        };
        self.cores[core].set(Xreg(0), ret);
        None
    }

    fn exit_tb(&mut self, core: usize, pc: u64, kind: TbExitKind) -> Option<Event> {
        let (guest_pc, transfer) = match kind {
            TbExitKind::Halt => {
                self.halt_core(core);
                return None;
            }
            TbExitKind::Syscall { next } => {
                self.drain_all(core);
                // Stay on this instruction; the engine redirects the pc.
                self.cores[core].pc = pc;
                return Some(Event::GuestSyscall { core, next });
            }
            TbExitKind::Jump { guest_pc, chain } => {
                (guest_pc, self.cache.follow_jump(pc, guest_pc, chain))
            }
            TbExitKind::JumpReg { reg } => {
                let guest_pc = self.cores[core].get(reg);
                (guest_pc, self.cache.follow_jump_reg(core, guest_pc))
            }
        };
        let c = &mut self.cores[core];
        let Some(t) = transfer else {
            // Stay on the exit; it runs again once the engine has mapped one.
            c.pc = pc;
            return Some(Event::TranslationMiss { core, guest_pc });
        };
        // The one place a core enters a TB, however the exit found it.
        c.pc = t.host;
        c.cycles += match t.via {
            Via::Chain | Via::JumpCache => self.cost.tb_chain,
            Via::Dispatch => self.cost.tb_dispatch,
        };
        // The transfer is complete, so the event never perturbs execution.
        t.hot.then_some(Event::HotTb { core, guest_pc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CODE_BASE;

    fn machine_with(insns: &[HostInsn]) -> (Machine, u64) {
        let mut m = Machine::new(2, CostModel::uniform());
        let addr = m.install_code(insns);
        (m, addr)
    }

    #[test]
    fn straight_line_execution() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(0), imm: 6 },
            MovImm { dst: Xreg(1), imm: 7 },
            Alu { op: AOp::Mul, dst: Xreg(2), a: Xreg(0), b: Xreg(1) },
            Hlt,
        ]);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(2)), 42);
        assert_eq!(m.stats(0).insns, 4);
    }

    #[test]
    fn store_buffer_forwards_and_drains_on_dmb() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 99 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            // Own load sees the buffered store (forwarding).
            Ldr { dst: Xreg(3), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::Ff),
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(3)), 99);
        assert_eq!(m.mem.read_u64(0x5000), 99, "DMB FF drained the buffer");
        assert_eq!(m.stats(0).dmb[Dmb::Ff as usize], 1);
    }

    #[test]
    fn store_buffering_is_visible_across_cores() {
        // Core 0 buffers a store; before any drain, core 1 still reads 0.
        use HostInsn::*;
        let mut m = Machine::new(2, CostModel::uniform());
        let w = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            // Read the *other* location immediately: SB-style.
            MovImm { dst: Xreg(3), imm: 0x6000 },
            Ldr { dst: Xreg(4), base: Xreg(3), off: 0, order: MemOrder::Plain },
            Hlt,
        ]);
        let r = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x6000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 0x5000 },
            Ldr { dst: Xreg(4), base: Xreg(3), off: 0, order: MemOrder::Plain },
            Hlt,
        ]);
        m.start_core(0, w);
        m.start_core(1, r);
        assert_eq!(m.run(1000), Event::AllHalted);
        // With unit costs and interleaved clocks both loads run before the
        // buffered stores age out: the classic a=b=0.
        assert_eq!(m.reg(0, Xreg(4)), 0);
        assert_eq!(m.reg(1, Xreg(4)), 0);
    }

    #[test]
    fn casal_is_atomic_and_clears_monitors() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(0), imm: 0 },  // expected
            MovImm { dst: Xreg(2), imm: 42 }, // new
            Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(0)), 0, "old value returned");
        assert_eq!(m.mem.read_u64(0x5000), 42);
        assert_eq!(m.stats(0).atomics, 1);
    }

    #[test]
    fn an_atomic_is_one_rmw_whether_instruction_or_helper() {
        use crate::backend::helper_index;
        use HostInsn::*;
        const WORD: u64 = 0x5000;
        let cost = CostModel::thunderx2_like();
        // Core 1 has just taken `WORD` exclusively; core 0 then runs one
        // atomic on it, operands in X0–X2. What that leaves behind, and
        // what it cost less the cycles only this form of the atomic pays.
        let after = |atomic: HostInsn, ret: Xreg, own_cycles: u64, x1: u64, x2: u64| {
            let mut m = Machine::new(2, cost);
            m.set_atomic_log(true);
            m.mem.write_u64(WORD, 10);
            let taker =
                m.install_code(&[Ldxr { dst: Xreg(2), addr: Xreg(0), acquire: false }, Hlt]);
            let code = m.install_code(&[atomic, Hlt]);
            m.set_reg(1, Xreg(0), WORD);
            m.start_core(1, taker);
            assert_eq!(m.run(10), Event::AllHalted);
            for (r, v) in [(0, WORD), (1, x1), (2, x2)] {
                m.set_reg(0, Xreg(r), v);
            }
            m.start_core(0, code);
            assert_eq!(m.run(1), Event::OutOfFuel);
            let word = m.mem.read_u64(WORD);
            let left =
                (m.reg(0, ret), word, m.take_atomic_log(), m.stats(0).atomics, m.cores[1].monitor);
            (left, m.core_cycles(0) - own_cycles)
        };
        let cas = Cas { cmp_old: Xreg(1), new: Xreg(2), addr: Xreg(0), acq_rel: true };
        let cas = (cas, Xreg(1), cost.acq_rel_extra, Helper::CmpxchgSc);
        let ldadd = LdaddAl { old: Xreg(3), addend: Xreg(1), addr: Xreg(0) };
        let ldadd = (ldadd, Xreg(3), 0, Helper::XaddSc);
        let event = |new| vec![AtomicEvent { core: 0, addr: WORD, old: 10, new }];
        for ((insn, ret, insn_cycles, helper), x1, x2, expect) in [
            // A compare-exchange that wins: the foreign monitor is gone.
            (cas, 10, 42, (10, 42, event(42), 1, None)),
            // One that loses: no write, the monitor kept, still logged
            // and counted.
            (cas, 11, 42, (10, 10, event(10), 1, Some(WORD))),
            (ldadd, 5, 0, (10, 15, event(15), 1, None)),
        ] {
            let hcall = Hcall { helper: helper_index(helper) };
            let as_insn = after(insn, ret, insn_cycles, x1, x2);
            let as_helper = after(hcall, Xreg(0), cost.helper_overhead, x1, x2);
            assert_eq!(as_insn, as_helper, "{insn:?} / {helper:?}");
            let (left, charge) = as_insn;
            assert_eq!(left, expect, "{insn:?}");
            let one_contender = cost.atomic + cost.atomic_contend;
            assert!((one_contender..one_contender + 16).contains(&charge), "{insn:?}: {charge}");
        }
    }

    #[test]
    fn exclusive_pair_success_and_interference() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: true },
            AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
            Stxr { status: Xreg(3), src: Xreg(2), addr: Xreg(1), release: true },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(3)), 0, "stxr succeeded");
        assert_eq!(m.mem.read_u64(0x5000), 1);
    }

    #[test]
    fn tb_exit_miss_and_resume() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let b1 = m.install_code(&[
            MovImm { dst: Xreg(0), imm: 5 },
            ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 }),
        ]);
        m.start_core(0, b1);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("unexpected event {other:?}"),
        }
        // Engine translates 0x2000 and resumes.
        let b2 = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x2000, b2);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 6);
    }

    #[test]
    fn hot_tb_event_fires_at_threshold_and_after_transfer() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        m.set_profiling(true);
        m.set_hot_threshold(Some(4));
        // Self-loop: every iteration re-enters 0x2000 through the chain.
        let body = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 }),
        ]);
        m.map_tb(0x2000, body);
        m.start_core(0, body);
        match m.run(10_000) {
            Event::HotTb { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("expected HotTb, got {other:?}"),
        }
        let execs = |m: &Machine| m.tb_profile().map(|(_, prof)| prof.execs).sum::<u64>();
        assert_eq!(execs(&m), 4, "fired at the threshold");
        // The transfer completed before the event: the core is parked at
        // the start of 0x2000's body with the iteration's work done, so
        // promotion never perturbs execution.
        assert_eq!(m.cores[0].pc, body);
        assert_eq!(m.reg(0, Xreg(0)), 4);
        // A failed promotion retriggers at the next threshold multiple.
        match m.run(10_000) {
            Event::HotTb { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("expected second HotTb, got {other:?}"),
        }
        assert_eq!(execs(&m), 8);
    }

    #[test]
    fn native_call_invokes_registered_function() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let id = m.register_native(Box::new(|mem, args| {
            mem.write_u64(0x7000, args[0] + args[1]);
            NativeResult { ret: args[0] * args[1], cost: 10 }
        }));
        let a = m.install_code(&[
            MovImm { dst: Xreg(0), imm: 6 },
            MovImm { dst: Xreg(1), imm: 7 },
            NativeCall { func: id },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(0)), 42);
        assert_eq!(m.mem.read_u64(0x7000), 13);
        assert_eq!(m.stats(0).native_calls, 1);
    }

    #[test]
    fn dmb_st_does_not_drain_but_dmb_ff_does() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 7 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::St),
            Hlt,
        ]);
        m.start_core(0, a);
        // Step up to (but not through) the Hlt: after the DMB ST the store
        // must still be invisible globally (FIFO gives W→W for free).
        // We detect it by checking memory before the halt drains: run with
        // tiny fuel so the Hlt hasn't executed yet.
        let ev = m.run(4); // 4 instructions: movs, str, barrier
        assert_eq!(ev, Event::OutOfFuel);
        assert_eq!(m.mem.read_u64(0x5000), 0, "DMB ST must not drain the buffer");
        assert_eq!(m.run(10), Event::AllHalted);
        assert_eq!(m.mem.read_u64(0x5000), 7, "halt drains");
    }

    #[test]
    fn release_store_keeps_fifo_order() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 2 },
            Str { src: Xreg(3), base: Xreg(1), off: 8, order: MemOrder::AcqRel }, // stlr
            // Own reads forward from the buffer in order.
            Ldr { dst: Xreg(4), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Ldr { dst: Xreg(5), base: Xreg(1), off: 8, order: MemOrder::Plain },
            Hlt,
        ]);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(4)), 1);
        assert_eq!(m.reg(0, Xreg(5)), 2);
        assert_eq!(m.mem.read_u64(0x5000), 1);
        assert_eq!(m.mem.read_u64(0x5008), 2);
    }

    #[test]
    fn aged_stores_drain_without_fences() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        // Store, then spin long enough for the age-based drain.
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 9 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 300 },
            AluImm { op: AOp::Sub, dst: Xreg(3), a: Xreg(3), imm: 1 },
            CmpImm { a: Xreg(3), imm: 0 },
            BCond { cond: ACond::Ne, rel: -28 },
            Nop, // memory must be visible before the halt-drain
            Hlt,
        ]);
        m.start_core(0, a);
        // Run until just before Hlt: 4 + 3*300 + 1 = 905 instructions.
        assert_eq!(m.run(905), Event::OutOfFuel);
        assert_eq!(m.mem.read_u64(0x5000), 9, "the store must age out of the buffer");
    }

    #[test]
    fn a_store_drains_at_the_first_own_step_that_starts_at_drain_age() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let mut code = vec![
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 9 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
        ];
        code.extend([Nop; 100]);
        code.push(Hlt);
        let a = m.install_code(&code);
        m.start_core(0, a);
        // Unit costs: step k starts at clock k, so the store is buffered
        // at clock 2.
        let t = 2;
        assert_eq!(m.run(t + DRAIN_AGE), Event::OutOfFuel);
        assert_eq!(
            m.core_cycles(0),
            t + DRAIN_AGE,
            "the last step started a cycle short of the age"
        );
        assert_eq!(m.mem.read_u64(0x5000), 0, "95 cycles old: still buffered");
        assert_eq!(m.run(1), Event::OutOfFuel);
        assert_eq!(m.mem.read_u64(0x5000), 9, "96 cycles old at the start of a step: drained");
    }

    #[test]
    fn the_store_over_capacity_pushes_out_exactly_the_oldest() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let mut code = vec![MovImm { dst: Xreg(1), imm: 0x5000 }, MovImm { dst: Xreg(2), imm: 9 }];
        let stores = STORE_BUFFER_CAP as u64 + 1;
        code.extend((0..stores).map(|i| Str {
            src: Xreg(2),
            base: Xreg(1),
            off: 8 * i as i32,
            order: MemOrder::Plain,
        }));
        code.extend([Nop, Nop, Hlt]);
        let a = m.install_code(&code);
        m.start_core(0, a);
        let visible = |m: &Machine| -> Vec<u64> {
            (0..stores).filter(|i| m.mem.read_u64(0x5000 + 8 * i) == 9).collect()
        };
        // The seventeenth store is buffered like the others...
        assert_eq!(m.run(2 + stores), Event::OutOfFuel);
        assert!(m.core_cycles(0) < DRAIN_AGE, "nothing here is old enough to age out");
        assert_eq!(visible(&m), [], "a store only leaves at the start of a later step");
        // ...and the next step of its core makes room by draining one.
        assert_eq!(m.run(1), Event::OutOfFuel);
        assert_eq!(visible(&m), [0], "the oldest store, and only it");
        assert_eq!(m.run(1), Event::OutOfFuel);
        assert_eq!(visible(&m), [0], "sixteen stay buffered");
        assert_eq!(m.run(1), Event::AllHalted);
        assert_eq!(visible(&m).len() as u64, stores);
    }

    #[test]
    fn exclusive_monitor_cleared_by_foreign_drain() {
        use HostInsn::*;
        // Core 0 takes a monitor; core 1's buffered store to the same
        // address drains and must clear it, failing core 0's stxr.
        let mut m = Machine::new(2, CostModel::uniform());
        let c0 = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: false },
            // Spin to give core 1 time to write + drain.
            MovImm { dst: Xreg(3), imm: 400 },
            AluImm { op: AOp::Sub, dst: Xreg(3), a: Xreg(3), imm: 1 },
            CmpImm { a: Xreg(3), imm: 0 },
            BCond { cond: ACond::Ne, rel: -28 },
            MovImm { dst: Xreg(4), imm: 42 },
            Stxr { status: Xreg(5), src: Xreg(4), addr: Xreg(1), release: false },
            Hlt,
        ]);
        let c1 = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 7 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::Ff),
            Hlt,
        ]);
        m.start_core(0, c0);
        m.start_core(1, c1);
        assert_eq!(m.run(10_000), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(5)), 1, "stxr must fail after foreign write");
        assert_eq!(m.mem.read_u64(0x5000), 7, "the foreign write survives");
    }

    #[test]
    fn exclusive_monitor_cleared_by_engine_side_writes() {
        use HostInsn::*;
        // Core 0 is between its ldxr and its stxr when the engine puts
        // something into the monitored word on core 1's behalf.
        let stxr_after = |engine: fn(&mut Machine)| {
            let mut m = Machine::new(2, CostModel::uniform());
            let c0 = m.install_code(&[
                MovImm { dst: Xreg(1), imm: 0x5000 },
                Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: false },
                MovImm { dst: Xreg(4), imm: 42 },
                Stxr { status: Xreg(5), src: Xreg(4), addr: Xreg(1), release: false },
                Hlt,
            ]);
            m.start_core(0, c0);
            assert_eq!(m.run(2), Event::OutOfFuel);
            engine(&mut m);
            assert_eq!(m.run(100), Event::AllHalted);
            (m.reg(0, Xreg(5)), m.mem.read_u64(0x5000))
        };
        assert_eq!(stxr_after(|_| {}), (0, 42), "undisturbed, the pair succeeds");
        // The interpreter fallback's stores.
        assert_eq!(stxr_after(|m| m.store_u64(1, 0x5000, 7)), (1, 7), "the foreign word survives");
        assert_eq!(stxr_after(|m| m.store_u8(1, 0x5003, 7)), (1, 7 << 24), "and so does a byte");
        // A thread exit that finds a store still buffered.
        let exit_with_a_buffered_store = |m: &mut Machine| {
            let c1 = m.install_code(&[
                MovImm { dst: Xreg(1), imm: 0x5000 },
                MovImm { dst: Xreg(2), imm: 7 },
                Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
                Hlt,
            ]);
            m.add_cycles(0, 50);
            m.start_core(1, c1);
            assert_eq!(m.run(3), Event::OutOfFuel);
            assert_eq!((m.stats(1).insns, m.mem.read_u64(0x5000)), (3, 0));
            m.halt_core(1);
        };
        assert_eq!(stxr_after(exit_with_a_buffered_store), (1, 7));
    }

    #[test]
    fn the_armed_monitor_count_follows_every_monitor_change() {
        use HostInsn::*;
        const X: u64 = SHARED;
        const Y: u64 = SHARED + 8;
        // Each core runs the `Rmw2Fenced` shape, `DMB FF; LDXR; STXR;
        // DMB FF`, on its own word; core 1 also stores to core 0's word
        // between its pair's halves.
        let pair = |word: u64, between: &[HostInsn]| {
            let mut code = vec![
                MovImm { dst: Xreg(1), imm: word },
                Barrier(Dmb::Ff),
                Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: false },
                AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
            ];
            code.extend_from_slice(between);
            code.extend([
                Stxr { status: Xreg(3), src: Xreg(2), addr: Xreg(1), release: false },
                Barrier(Dmb::Ff),
                Hlt,
            ]);
            code
        };
        let foreign_store = [
            MovImm { dst: Xreg(5), imm: X },
            MovImm { dst: Xreg(6), imm: 7 },
            Str { src: Xreg(6), base: Xreg(5), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::Ff),
        ];
        let run_with = |engine: Option<fn(&mut Machine)>| {
            let mut m = Machine::new(2, CostModel::uniform());
            let (c0, c1) =
                (m.install_code(&pair(X, &[])), m.install_code(&pair(Y, &foreign_store)));
            // Core 0 takes its monitor, then sits out while core 1 runs.
            m.start_core(0, c0);
            assert_eq!(m.run(3), Event::OutOfFuel);
            assert_eq!((m.armed, m.cores[0].monitor), (1, Some(X)));
            m.add_cycles(0, 1000);
            m.start_core(1, c1);
            assert_eq!(m.run(3), Event::OutOfFuel);
            assert_eq!((m.armed, m.cores[1].monitor), (2, Some(Y)));
            // Core 1's `DMB FF` drains its store to X: core 0's monitor
            // is gone, core 1's kept.
            assert_eq!(m.run(1 + foreign_store.len() as u64), Event::OutOfFuel);
            assert_eq!((m.armed, m.cores[0].monitor, m.cores[1].monitor), (1, None, Some(Y)));
            if let Some(engine) = engine {
                engine(&mut m);
            }
            assert_eq!(m.run(100), Event::AllHalted);
            assert_eq!(m.armed, 0, "every monitor was cleared or consumed");
            (m.reg(0, Xreg(3)), m.reg(1, Xreg(3)), m.mem.read_u64(X), m.mem.read_u64(Y))
        };
        // Core 0's `stxr` fails over the foreign drain; core 1's succeeds
        // undisturbed, and fails after the engine writes its word.
        assert_eq!(run_with(None), (1, 0, 7, 1));
        assert_eq!(run_with(Some(|m| m.store_u64(0, Y, 9))), (1, 1, 7, 9));
        assert_eq!(run_with(Some(|m| m.store_u8(0, Y + 1, 9))), (1, 1, 7, 9 << 8));
        assert_eq!(
            run_with(Some(|m| m.store_u64(1, Y, 9))),
            (1, 0, 7, 1),
            "the own write keeps it"
        );
    }

    #[test]
    fn contention_costs_more() {
        use HostInsn::*;
        let model = CostModel::thunderx2_like();
        // Two cores CAS the same address repeatedly vs different addresses.
        let build = |m: &mut Machine, addr: u64| {
            m.install_code(&[
                MovImm { dst: Xreg(1), imm: addr },
                MovImm { dst: Xreg(4), imm: 200 },
                // loop:
                Ldr { dst: Xreg(0), base: Xreg(1), off: 0, order: MemOrder::Plain },
                MovReg { dst: Xreg(2), src: Xreg(0) },
                AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
                Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
                AluImm { op: AOp::Sub, dst: Xreg(4), a: Xreg(4), imm: 1 },
                CmpImm { a: Xreg(4), imm: 0 },
                // Loop body size: 8+3+12+5+12+10+6 = 56 bytes back to the Ldr.
                BCond { cond: ACond::Ne, rel: -56 },
                Hlt,
            ])
        };
        let mut same = Machine::new(2, model);
        let c0 = build(&mut same, 0x5000);
        let c1 = build(&mut same, 0x5000);
        same.start_core(0, c0);
        same.start_core(1, c1);
        same.run(1_000_000);

        let mut diff = Machine::new(2, model);
        let d0 = build(&mut diff, 0x5000);
        let d1 = build(&mut diff, 0x9000);
        diff.start_core(0, d0);
        diff.start_core(1, d1);
        diff.run(1_000_000);

        assert!(
            same.clock() > diff.clock() + 1000,
            "contended CAS ({}) must be slower than uncontended ({})",
            same.clock(),
            diff.clock()
        );
    }

    /// A self-looping TB that decrements to a halt: 4 direct-jump exits
    /// (x0 = 1..=4 jump back, x0 = 5 halts).
    fn looping_tb(m: &mut Machine) -> u64 {
        use HostInsn::*;
        let a = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            CmpImm { a: Xreg(0), imm: 5 },
            BCond { cond: ACond::Eq, rel: 18 }, // over the 18-byte Jump exit
            ExitTb(TbExitKind::Jump { guest_pc: 0x1000, chain: 0 }),
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x1000, a);
        a
    }

    #[test]
    fn direct_jump_chains_after_first_dispatch() {
        let mut m = Machine::new(1, CostModel::uniform());
        let a = looping_tb(&mut m);
        m.start_core(0, a);
        assert_eq!(m.run(1000), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 5);
        let s = m.chain_stats();
        assert_eq!(s.chain_links, 1, "the exit is resolved exactly once");
        assert_eq!(s.chain_hits, 3, "every later traversal follows the patched slot");
    }

    #[test]
    fn chaining_disabled_is_pure_dispatch_with_identical_state() {
        let run = |chaining: bool| {
            let mut m = Machine::new(1, CostModel::uniform());
            m.set_chaining(chaining);
            let a = looping_tb(&mut m);
            m.start_core(0, a);
            assert_eq!(m.run(1000), Event::AllHalted);
            (m.reg(0, Xreg(0)), m.chain_stats())
        };
        let (on, s_on) = run(true);
        let (off, s_off) = run(false);
        assert_eq!(on, off, "architectural state must not depend on chaining");
        assert!(s_on.chain_hits > 0);
        assert_eq!(s_off.chain_hits + s_off.chain_links, 0);
    }

    #[test]
    fn jumpreg_exits_use_the_jump_cache() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            CmpImm { a: Xreg(0), imm: 5 },
            BCond { cond: ACond::Eq, rel: 3 }, // over the 3-byte JumpReg exit
            ExitTb(TbExitKind::JumpReg { reg: Xreg(9) }),
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x1000, a);
        m.set_reg(0, Xreg(9), 0x1000);
        m.start_core(0, a);
        assert_eq!(m.run(1000), Event::AllHalted);
        let s = m.chain_stats();
        assert_eq!(s.dispatch_misses, 1, "first indirect exit fills the cache");
        assert_eq!(s.dispatch_hits, 3);
    }

    #[test]
    fn unmap_unlinks_chains_and_stale_body_never_runs() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 42 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x1000, a);
        m.map_tb(0x2000, b);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 42);
        assert_eq!(m.chain_stats().chain_links, 1);

        // Evict the chained-into TB. The chain slot in `a` must be
        // un-patched before the mapping disappears.
        assert!(m.unmap_tb(0x2000));
        assert!(m.chain_stats().chain_flushes >= 1);
        m.set_reg(0, Xreg(1), 0);
        m.start_core(0, a);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("stale chain was followed: {other:?}"),
        }
        assert_eq!(m.reg(0, Xreg(1)), 0, "the stale body must never execute");

        // The engine retranslates; possibly into the reclaimed region.
        let b2 = m.install_code(&[MovImm { dst: Xreg(1), imm: 43 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, b2);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 43, "the new body executes after relink");
    }

    #[test]
    fn jcache_is_flushed_on_unmap() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::JumpReg { reg: Xreg(9) })]);
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 42 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, b);
        m.set_reg(0, Xreg(9), 0x2000);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 42);

        assert!(m.unmap_tb(0x2000));
        m.set_reg(0, Xreg(1), 0);
        m.start_core(0, a);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("stale jump-cache entry was served: {other:?}"),
        }
        assert_eq!(m.reg(0, Xreg(1)), 0);
    }

    #[test]
    fn code_buffer_is_reclaimed_on_unmap() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let body = [MovImm { dst: Xreg(1), imm: 7 }, ExitTb(TbExitKind::Halt)];
        let a = m.install_code(&body);
        m.map_tb(0x1000, a);
        let size = m.code_size();
        for _ in 0..50 {
            assert!(m.unmap_tb(0x1000));
            let b = m.install_code(&body);
            assert_eq!(b, a, "same-size retranslation reuses the freed region");
            m.map_tb(0x1000, b);
        }
        assert_eq!(m.code_size(), size, "churn must not grow the code buffer");
    }

    #[test]
    fn parked_in_region_free_is_deferred() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        m.map_tb(0x1000, a);
        m.start_core(0, a);
        assert!(matches!(m.run(100), Event::TranslationMiss { .. }));
        // Evict the TB the core is parked *inside*. Its 18-byte region
        // must not be handed to the next (12-byte) install while the core
        // still sits there.
        assert!(m.unmap_tb(0x1000));
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 7 }, ExitTb(TbExitKind::Halt)]);
        assert_ne!(b, a, "a parked-in region must not be reused");
        m.map_tb(0x2000, b);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 7);
        // Once the core has left, the deferred free is honoured.
        let c = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x3000, chain: 0 })]);
        assert_eq!(c, a, "deferred region is reclaimed after the core moves on");
    }
    fn encoded_len(insns: &[HostInsn]) -> i32 {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode(&mut bytes);
        }
        bytes.len() as i32
    }

    /// `body` repeated `n` times (counted down in `counter`), then `Hlt`.
    fn counted_loop(counter: Xreg, n: u64, body: &[HostInsn]) -> Vec<HostInsn> {
        use HostInsn::*;
        let mut code = vec![MovImm { dst: counter, imm: n }];
        code.extend_from_slice(body);
        let tail = [
            AluImm { op: AOp::Sub, dst: counter, a: counter, imm: 1 },
            CmpImm { a: counter, imm: 0 },
            BCond { cond: ACond::Ne, rel: 0 },
        ];
        let back = encoded_len(body) + encoded_len(&tail);
        code.extend_from_slice(&tail[..2]);
        code.push(BCond { cond: ACond::Ne, rel: -back });
        code.push(Hlt);
        code
    }

    const SHARED: u64 = 0x5000;

    /// Two cores: core 0 publishes through plain stores that only age
    /// out of its buffer, bumps a counter with `ldaddal` and fences; core
    /// 1 sums what it sees of them and runs `ldxr`/`stxr` and `casal`
    /// against the words core 0 is still writing.
    fn two_core_machine() -> Machine {
        use HostInsn::*;
        let mut m = Machine::new(2, CostModel::thunderx2_like());
        let producer = counted_loop(
            Xreg(4),
            40,
            &[
                MovImm { dst: Xreg(1), imm: SHARED },
                Str { src: Xreg(4), base: Xreg(1), off: 0, order: MemOrder::Plain },
                MovImm { dst: Xreg(6), imm: 3 },
                LdaddAl { old: Xreg(7), addend: Xreg(6), addr: Xreg(1) },
                Str { src: Xreg(4), base: Xreg(1), off: 24, order: MemOrder::AcqRel },
                Ldr { dst: Xreg(8), base: Xreg(1), off: 16, order: MemOrder::Plain },
                Barrier(Dmb::Ff),
                Str { src: Xreg(8), base: Xreg(1), off: 32, order: MemOrder::Plain },
            ],
        );
        let mut consumer =
            vec![MovImm { dst: Xreg(1), imm: SHARED }, MovImm { dst: Xreg(10), imm: SHARED + 16 }];
        consumer.extend(counted_loop(
            Xreg(4),
            25,
            &[
                // Whatever has aged out of core 0's buffer by now.
                Ldr { dst: Xreg(12), base: Xreg(1), off: 32, order: MemOrder::AcqRel },
                Alu { op: AOp::Add, dst: Xreg(13), a: Xreg(13), b: Xreg(12) },
                Ldxr { dst: Xreg(9), addr: Xreg(10), acquire: true },
                AluImm { op: AOp::Add, dst: Xreg(9), a: Xreg(9), imm: 1 },
                Stxr { status: Xreg(11), src: Xreg(9), addr: Xreg(10), release: true },
                Ldr { dst: Xreg(0), base: Xreg(1), off: 0, order: MemOrder::Plain },
                AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(0), imm: 1 },
                Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
            ],
        ));
        let (p, c) = (m.install_code(&producer), m.install_code(&consumer));
        m.start_core(0, p);
        m.start_core(1, c);
        // A head start for core 1: core 0 opens with one long quantum,
        // which every slice length must cut.
        m.add_cycles(1, 700);
        m
    }

    /// Four cores contending on one `casal` word and one `ldaddal` word,
    /// each loop iteration leaving through a chained `ExitTb(Jump)`.
    fn four_core_machine() -> Machine {
        use HostInsn::*;
        let mut m = Machine::new(4, CostModel::thunderx2_like());
        for core in 0..4u64 {
            let guest_pc = 0x1000 + core * 0x100;
            let mut body = vec![
                MovImm { dst: Xreg(1), imm: SHARED },
                AluImm { op: AOp::Add, dst: Xreg(4), a: Xreg(4), imm: 1 },
                Ldr { dst: Xreg(0), base: Xreg(1), off: 0, order: MemOrder::Plain },
                AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(0), imm: 1 },
                Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
                MovImm { dst: Xreg(5), imm: SHARED + 8 },
                LdaddAl { old: Xreg(7), addend: Xreg(4), addr: Xreg(5) },
                // A private word per core: buffered, never fenced.
                Str {
                    src: Xreg(7),
                    base: Xreg(1),
                    off: 64 + 8 * core as i32,
                    order: MemOrder::Plain,
                },
                CmpImm { a: Xreg(4), imm: 20 + 5 * core },
            ];
            let exit = ExitTb(TbExitKind::Jump { guest_pc, chain: 0 });
            body.push(BCond { cond: ACond::Eq, rel: encoded_len(&[exit]) });
            body.push(exit);
            body.push(ExitTb(TbExitKind::Halt));
            let host = m.install_code(&body);
            m.map_tb(guest_pc, host);
            m.start_core(core as usize, host);
        }
        m
    }

    /// Runs `m` in `run(slice)` calls until every core has halted or the
    /// machine has taken `stop_at` steps in all.
    fn drive(m: &mut Machine, slice: u64, stop_at: u64) {
        while m.total_steps() < stop_at {
            match m.run(slice.min(stop_at - m.total_steps())) {
                Event::AllHalted => break,
                Event::OutOfFuel => assert!(m.total_steps() < 100_000, "runaway program"),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    /// Everything a run leaves behind that a schedule could change.
    fn run_in_slices(mut m: Machine, slice: u64) -> String {
        m.set_atomic_log(true);
        drive(&mut m, slice, u64::MAX);
        outcome(m)
    }

    fn outcome(mut m: Machine) -> String {
        let cores: Vec<_> = m.cores.iter().map(|c| (c.cycles, c.stats, c.regs, c.nzcv)).collect();
        let words: Vec<u64> = (0..16).map(|i| m.mem.read_u64(SHARED + 8 * i)).collect();
        format!(
            "{cores:?} {:?} {} {words:?} {:?}",
            m.chain_stats(),
            m.total_steps(),
            m.take_atomic_log()
        )
    }

    #[test]
    fn run_result_does_not_depend_on_how_the_fuel_is_sliced() {
        for build in [two_core_machine as fn() -> Machine, four_core_machine] {
            // One step per `run`: every step but a quantum's first
            // resumes the quantum the last call left open.
            let per_step = run_in_slices(build(), 1);
            for slice in [7, 1000, u64::MAX] {
                assert_eq!(run_in_slices(build(), slice), per_step, "slices of {slice}");
            }
        }
        let log = |m: Machine| run_in_slices(m, u64::MAX);
        assert!(log(two_core_machine()).contains("AtomicEvent"), "the atomics ran");
        assert_ne!(log(two_core_machine()), log(four_core_machine()));

        // What the engine does between two `run` calls — a blocked wait
        // charged to one core, a thread spawned on another — is seen by
        // the next call whatever the slicing.
        let engine_steps_in = |slice| {
            let mut m = four_core_machine();
            let spawned = m.lookup_tb(0x1300).expect("core 3's block is mapped");
            m.halt_core(3);
            m.set_atomic_log(true);
            drive(&mut m, slice, 150);
            assert_eq!((m.total_steps(), m.stats(3).insns), (150, 0));
            m.add_cycles(1, 500);
            m.start_core(3, spawned);
            drive(&mut m, slice, u64::MAX);
            assert!(m.stats(3).insns > 0 && m.core_cycles(1) > 500);
            outcome(m)
        };
        let per_step = engine_steps_in(1);
        for slice in [7, 1000, u64::MAX] {
            assert_eq!(engine_steps_in(slice), per_step, "slices of {slice}");
        }
    }

    /// The definition `run` had before run-ahead quanta, kept as their
    /// reference: a scheduler pick before every step.
    fn run_per_step_scan(m: &mut Machine) -> Event {
        loop {
            assert!(m.total_steps() < 100_000, "runaway program");
            for (i, c) in m.cores.iter().enumerate() {
                m.sched.set_clock(i, c.sched_clock());
            }
            let Some((core, _)) = m.sched.pick() else {
                return Event::AllHalted;
            };
            if let Step::Suspend(ev) = m.step(core, false) {
                return ev;
            }
        }
    }

    #[test]
    fn completed_runs_end_as_with_a_pick_before_every_step() {
        for build in [two_core_machine as fn() -> Machine, four_core_machine] {
            let mut reference = build();
            reference.set_atomic_log(true);
            assert_eq!(run_per_step_scan(&mut reference), Event::AllHalted);
            assert_eq!(run_in_slices(build(), u64::MAX), outcome(reference));
        }
    }

    /// `n` `Nop`s: core-local steps of one cycle each.
    fn nops(n: usize) -> Vec<HostInsn> {
        vec![HostInsn::Nop; n]
    }

    /// A two-core program in which core 0 runs `lead` core-local steps
    /// ahead of core 1 and then reaches one kind of shared access, and
    /// what only the per-step order leaves behind.
    struct RunAhead {
        what: &'static str,
        build: fn(&mut Machine),
        lead: u64,
        check: fn(&Machine) -> bool,
    }

    /// One program per kind of step that is not core-local. Thunderx2
    /// costs: `MovImm`, `Nop` and `B` take one cycle, so core 0 reaches
    /// its shared access at clock `lead` or later, far past core 1's 0.
    fn run_ahead_programs() -> [RunAhead; 5] {
        use HostInsn::*;
        const X: u64 = SHARED;
        const Y: u64 = SHARED + 8;
        fn mov(r: u8, imm: u64) -> HostInsn {
            MovImm { dst: Xreg(r), imm }
        }
        // Accesses through X1.
        fn str(src: u8) -> HostInsn {
            Str { src: Xreg(src), base: Xreg(1), off: 0, order: MemOrder::Plain }
        }
        fn ldr(dst: u8) -> HostInsn {
            Ldr { dst: Xreg(dst), base: Xreg(1), off: 0, order: MemOrder::Plain }
        }
        fn strb(src: u8) -> HostInsn {
            StrB { src: Xreg(src), base: Xreg(1), off: 0 }
        }
        fn ldrb(dst: u8) -> HostInsn {
            LdrB { dst: Xreg(dst), base: Xreg(1), off: 0 }
        }
        fn start(m: &mut Machine, core: usize, code: Vec<HostInsn>) {
            let at = m.install_code(&code);
            m.start_core(core, at);
        }
        [
            RunAhead {
                what: "a plain store, then a load of it on the other core",
                build: |m| {
                    // Stored at clock 2, drained when 96 cycles old.
                    start(
                        m,
                        1,
                        [vec![mov(1, X), mov(2, 7), str(2)], nops(120), vec![Hlt]].concat(),
                    );
                    start(m, 0, [vec![mov(1, X)], nops(150), vec![ldr(3), Hlt]].concat());
                },
                lead: 151,
                check: |m| m.reg(0, Xreg(3)) == 7,
            },
            RunAhead {
                what: "a byte store and a byte load each way",
                build: |m| {
                    // Core 1 stores X at clock 2 and loads Y at clock 200,
                    // core 0 loads X at clock 151 and stores Y at 257.
                    let one = [vec![mov(1, X), mov(2, 7), strb(2), mov(1, Y)], nops(195)];
                    start(m, 1, [one.concat(), vec![ldrb(3), Hlt]].concat());
                    let zero = [vec![mov(1, X)], nops(150), vec![ldrb(3), mov(1, Y), mov(2, 9)]];
                    start(m, 0, [zero.concat(), nops(100), vec![strb(2), Hlt]].concat());
                },
                lead: 151,
                check: |m| (m.reg(0, Xreg(3)), m.reg(1, Xreg(3)), m.mem.read_u8(Y)) == (7, 0, 9),
            },
            RunAhead {
                what: "an exclusive pair on both cores",
                build: |m| {
                    let pair = [
                        Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: false },
                        AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
                        Stxr { status: Xreg(3), src: Xreg(2), addr: Xreg(1), release: false },
                        Hlt,
                    ];
                    start(m, 1, [vec![mov(1, X)], pair.to_vec()].concat());
                    start(m, 0, [vec![mov(1, X)], nops(150), pair.to_vec()].concat());
                },
                lead: 151,
                // Both pairs succeed, core 1's first.
                check: |m| (m.reg(0, Xreg(3)), m.reg(1, Xreg(3)), m.mem.read_u64(X)) == (0, 0, 2),
            },
            RunAhead {
                what: "a DMB FF with a store buffered",
                build: |m| {
                    // Buffered at clock 2, fenced at 44; core 1 loads at 21.
                    let fence = vec![Barrier(Dmb::Ff), Hlt];
                    start(m, 0, [vec![mov(1, X), mov(2, 7), str(2)], nops(40), fence].concat());
                    start(m, 1, [vec![mov(1, X)], nops(20), vec![ldr(3), Hlt]].concat());
                },
                lead: 43,
                check: |m| (m.reg(1, Xreg(3)), m.mem.read_u64(X)) == (0, 7),
            },
            RunAhead {
                what: "a chain the other core links",
                build: |m| {
                    let halt = m.install_code(&[ExitTb(TbExitKind::Halt)]);
                    m.map_tb(0x2000, halt);
                    // Core 1 starts on the shared exit; core 0 branches
                    // back to it after 150 steps.
                    let exit = ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 });
                    let mut code = vec![exit];
                    code.extend(nops(150));
                    let back = encoded_len(&code) + encoded_len(&[B { rel: 0 }]);
                    code.push(B { rel: -back });
                    let at = m.install_code(&code);
                    m.start_core(1, at);
                    m.start_core(0, at + encoded_len(&[exit]) as u64);
                },
                lead: 151,
                // Core 1 linked the exit at clock 0, core 0 followed the
                // chain at 151.
                check: |m| {
                    let tb = CostModel::thunderx2_like();
                    (m.core_cycles(0), m.core_cycles(1)) == (151 + tb.tb_chain, tb.tb_dispatch)
                },
            },
        ]
    }

    #[test]
    fn a_core_past_its_bound_yields_at_every_kind_of_shared_access() {
        let fresh = |build: fn(&mut Machine)| {
            let mut m = Machine::new(2, CostModel::thunderx2_like());
            m.set_atomic_log(true);
            build(&mut m);
            m
        };
        for RunAhead { what, build, lead, check } in run_ahead_programs() {
            // Core 0 runs ahead through every core-local step...
            let mut m = fresh(build);
            assert_eq!(m.run(lead), Event::OutOfFuel, "{what}");
            assert_eq!((m.stats(0).insns, m.stats(1).insns), (lead, 0), "{what}");
            assert!(m.core_cycles(0) >= lead && m.core_cycles(1) == 0, "{what}: not ahead");
            // ...and the shared access hands the machine to core 1.
            assert_eq!(m.run(1), Event::OutOfFuel, "{what}");
            assert_eq!((m.stats(0).insns, m.stats(1).insns), (lead, 1), "{what}");
            // Finished, it is the per-step order's run.
            let mut m = fresh(build);
            assert_eq!(m.run(u64::MAX), Event::AllHalted, "{what}");
            assert!(check(&m), "{what}");
            let mut reference = fresh(build);
            assert_eq!(run_per_step_scan(&mut reference), Event::AllHalted, "{what}");
            assert_eq!(outcome(m), outcome(reference), "{what}");
        }
    }

    #[test]
    fn fuel_runs_out_inside_a_quantum() {
        let mut m = two_core_machine();
        // Core 1 is 700 cycles ahead: core 0 owns the machine for a while.
        assert_eq!(m.run(3), Event::OutOfFuel);
        assert_eq!((m.stats(0).insns, m.stats(1).insns), (3, 0));
        assert_eq!(m.total_steps(), 3);
        assert_eq!(m.run(0), Event::OutOfFuel, "no fuel, no step");
        assert_eq!(m.total_steps(), 3);
    }

    #[test]
    fn contention_table_forgets_sites_whose_window_emptied() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::thunderx2_like());
        // One `ldaddal` per word over far more words than the table's
        // first sweep threshold, each a window apart from the next.
        let code = counted_loop(
            Xreg(4),
            1000,
            &[
                AluImm { op: AOp::Add, dst: Xreg(1), a: Xreg(1), imm: 8 },
                LdaddAl { old: Xreg(7), addend: Xreg(4), addr: Xreg(1) },
            ],
        );
        let a = m.install_code(&code);
        m.set_reg(0, Xreg(1), SHARED);
        m.start_core(0, a);
        assert_eq!(m.run(1_000_000), Event::AllHalted);
        assert_eq!(m.stats(0).atomics, 1000);
        assert!(m.contention.sites() < 200, "{} sites kept", m.contention.sites());
    }

    #[test]
    fn reused_hole_executes_the_new_code() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[MovImm { dst: Xreg(1), imm: 1 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x1000, a);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 1);

        assert!(m.unmap_tb(0x1000));
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 2 }, ExitTb(TbExitKind::Halt)]);
        assert_eq!(b, a, "same-length code lands in the hole");
        m.start_core(0, b);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 2, "A's decoded instructions must be gone");
    }

    #[test]
    fn chain_word_is_reread_after_every_patch() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        let body = [MovImm { dst: Xreg(1), imm: 9 }, ExitTb(TbExitKind::Halt)];
        let b = m.install_code(&body);
        m.map_tb(0x2000, b);
        // Decoded unpatched, linked by the dispatcher...
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!((m.chain_stats().chain_links, m.chain_stats().chain_hits), (1, 0));
        // ...re-decoded with the patched word: a hit...
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!((m.chain_stats().chain_links, m.chain_stats().chain_hits), (1, 1));
        // ...and re-decoded again once unlinked: back to the dispatcher.
        assert!(m.unmap_tb(0x2000));
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::TranslationMiss { core: 0, guest_pc: 0x2000 });
        let b2 = m.install_code(&body);
        m.map_tb(0x2000, b2);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!((m.chain_stats().chain_links, m.chain_stats().chain_hits), (2, 1));
        assert!(m.validate_chains().is_empty());
    }

    #[test]
    fn corrupted_code_is_decoded_afresh() {
        use HostInsn::*;
        let code = [MovImm { dst: Xreg(1), imm: 5 }, Hlt];
        // Every byte of the `MovImm`: opcode, register, immediate.
        for offset in 0..encoded_len(&code[..1]) as usize {
            let mut m = Machine::new(1, CostModel::uniform());
            let a = m.install_code(&code);
            m.start_core(0, a);
            assert_eq!(m.run(100), Event::AllHalted);
            assert_eq!(m.reg(0, Xreg(1)), 5);

            assert!(m.corrupt_code_byte(a, offset));
            m.set_reg(0, Xreg(1), 0);
            m.start_core(0, a);
            let ev = m.run(100);
            let decode_fault =
                Event::HostFault { core: 0, host_pc: a, kind: HostFaultKind::Decode };
            assert!(
                ev == decode_fault || m.reg(0, Xreg(1)) != 5,
                "byte {offset}: the cached MovImm ran ({ev:?})"
            );
        }
    }

    #[test]
    fn fetch_outside_live_code_is_a_decode_fault() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[MovImm { dst: Xreg(1), imm: 1 }, Hlt]);
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 2 }, Hlt]);
        m.start_core(0, b);
        assert_eq!(m.run(100), Event::AllHalted);
        m.discard_region(b);
        let past_the_end = CODE_BASE + m.code_size() as u64;
        for pc in [0, CODE_BASE - 1, past_the_end, u64::MAX, b, b + 3] {
            m.start_core(0, pc);
            assert_eq!(
                m.run(100),
                Event::HostFault { core: 0, host_pc: pc, kind: HostFaultKind::Decode },
                "pc {pc:#x}"
            );
        }
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted, "live code next to the hole still runs");
        assert_eq!(m.reg(0, Xreg(1)), 1);
    }
}
