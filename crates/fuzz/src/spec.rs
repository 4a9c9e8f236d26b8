//! The generator IR: a structured program specification that lowers
//! deterministically to a MiniX86 [`GuestBinary`].
//!
//! The fuzzer never mutates raw instruction bytes. It generates, minimizes
//! and serializes [`ProgSpec`]s — a small structured IR whose invariants
//! (bounded loop trip counts, valid slot/cell indices, balanced
//! spawn/join, schedule-invariant multi-core results) make every lowered
//! program well-formed and terminating *by construction*. Delta-debugging
//! then operates on IR nodes, so every reduction candidate is again a
//! valid program.
//!
//! ## Memory layout
//!
//! The lowered `.data` section holds, in order: the shared atomic cells
//! (one u64 each), one private slot region per thread (u64 slots), and a
//! lowering-owned scratch area for spawned thread ids. Thread bodies
//! address their private region through `R15` and the shared cells
//! through `R14`, both loaded in a fixed prologue.
//!
//! ## Schedule invariance
//!
//! Multi-threaded specs must produce the same final state under *any*
//! fair schedule, because the reference interpreter (round-robin, SC) and
//! the host machine (discrete-event, weak memory) schedule differently.
//! The IR enforces the discipline that guarantees it: shared cells are
//! only touched by commutative atomic increments ([`Stmt::AtomicAdd`],
//! [`Stmt::CasAdd`]) whose fetched old values are squashed, plain
//! loads/stores stay inside the thread's private region, shared cells are
//! only read back in the main thread *after* all joins, and `WRITE`
//! output is emitted by the main thread only.

use risotto_guest_x86::{AluOp, AsmError, Cond, FpOp, GelfBuilder, Gpr, GuestBinary};
use std::fmt;

/// Registers the IR may use as working registers. Excluded: `RSP`
/// (stack), `R11` (atomic/checksum scratch), `R12`/`R13` (loop
/// counters), `R14` (shared base), `R15` (private base).
pub const WORKING_REGS: [Gpr; 10] = [
    Gpr::RAX,
    Gpr::RCX,
    Gpr::RDX,
    Gpr::RBX,
    Gpr::RBP,
    Gpr::RSI,
    Gpr::RDI,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
];

/// Checksum / atomic scratch register (never a working register).
pub const SCRATCH: Gpr = Gpr::R11;
/// Loop counter for nesting depth 0.
pub const CTR0: Gpr = Gpr::R13;
/// Loop counter for nesting depth 1.
pub const CTR1: Gpr = Gpr::R12;
/// Base register of the thread's private slot region.
pub const PRIV_BASE: Gpr = Gpr::R15;
/// Base register of the shared atomic cells.
pub const SHARED_BASE: Gpr = Gpr::R14;

/// Maximum loop trip count the IR accepts (termination bound).
pub const MAX_TRIPS: u16 = 64;
/// Maximum loop nesting depth (two reserved counter registers).
pub const MAX_LOOP_DEPTH: usize = 2;
/// Private u64 slots per thread.
pub const SLOTS: u16 = 8;
/// Shared atomic cells per program.
pub const CELLS: u8 = 4;
/// Maximum threads (main + children) a spec may declare.
pub const MAX_THREADS: usize = 4;

/// FNV-style fold prime used by the lowered checksum epilogue.
const FOLD_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A value operand: another working register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A working register.
    Reg(Gpr),
    /// A 64-bit immediate.
    Imm(u64),
}

/// One IR statement. See the module docs for the invariants each
/// variant carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `dst = imm`.
    MovImm {
        /// Destination working register.
        dst: Gpr,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = src` (register copy).
    MovReg {
        /// Destination working register.
        dst: Gpr,
        /// Source working register.
        src: Gpr,
    },
    /// `dst = dst op src` with MiniX86 flag semantics.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination working register.
        dst: Gpr,
        /// Second operand.
        src: Src,
    },
    /// `RAX = RAX / src`, `RDX = RAX % src` (div-by-zero → `(0, RAX)`).
    Div {
        /// Divisor working register.
        src: Gpr,
    },
    /// Soft-float `dst = dst op src` on f64 bit patterns.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination working register.
        dst: Gpr,
        /// Source working register.
        src: Gpr,
    },
    /// `dst = [private slot]`.
    Load {
        /// Destination working register.
        dst: Gpr,
        /// Private slot index (`< SLOTS`).
        slot: u16,
    },
    /// `[private slot] = src`.
    Store {
        /// Private slot index (`< SLOTS`).
        slot: u16,
        /// Source working register.
        src: Gpr,
    },
    /// Byte load from inside a private slot (aliasing pressure on the
    /// u64-granular store-buffer model).
    LoadB {
        /// Destination working register (zero-extended byte).
        dst: Gpr,
        /// Private slot index (`< SLOTS`).
        slot: u16,
        /// Byte offset inside the slot (`< 8`).
        byte: u8,
    },
    /// Byte store into a private slot.
    StoreB {
        /// Private slot index (`< SLOTS`).
        slot: u16,
        /// Byte offset inside the slot (`< 8`).
        byte: u8,
        /// Source working register (low byte stored).
        src: Gpr,
    },
    /// `dst = [shared cell]`. Single-threaded specs only — in
    /// multi-threaded specs a mid-run read of a shared cell is
    /// schedule-dependent. (The lowered main-thread epilogue reads the
    /// final cells after all joins regardless.)
    LoadShared {
        /// Destination working register.
        dst: Gpr,
        /// Shared cell index (`< CELLS`).
        cell: u8,
    },
    /// `CMP a, src` (sets flags).
    Cmp {
        /// Left operand working register.
        a: Gpr,
        /// Right operand.
        src: Src,
    },
    /// `TEST a, b` (sets flags from `a & b`).
    Test {
        /// Left operand working register.
        a: Gpr,
        /// Right operand working register.
        b: Gpr,
    },
    /// `MFENCE`.
    Fence,
    /// `PUSH reg; reg = imm; POP reg` — balanced stack traffic that
    /// exercises spill-like load/store forwarding.
    Spill {
        /// Register saved and restored.
        reg: Gpr,
        /// Value held inside the window.
        imm: u64,
    },
    /// `if (a cond imm) { then } else { else }` via a forward branch.
    If {
        /// Condition evaluated against `CMP a, imm`.
        cond: Cond,
        /// Compared working register.
        a: Gpr,
        /// Compared immediate.
        imm: u64,
        /// Taken body.
        then_body: Vec<Stmt>,
        /// Fallthrough body (may be empty).
        else_body: Vec<Stmt>,
    },
    /// A counted loop with a backward conditional edge — the shape that
    /// drives TB chaining and tier-0 → tier-1 promotion.
    Loop {
        /// Trip count (`1..=MAX_TRIPS`).
        trips: u16,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Call a shared routine (routines are flat: no loops, no calls).
    Call {
        /// Routine index.
        routine: u8,
    },
    /// `LOCK XADD` of `k` into a shared cell; the fetched old value is
    /// squashed so multi-core results stay schedule-invariant.
    AtomicAdd {
        /// Shared cell index (`< CELLS`).
        cell: u8,
        /// Increment (`>= 1`).
        k: u32,
    },
    /// A `LOCK CMPXCHG` retry loop adding `k` to a shared cell; fetched
    /// values squashed as for [`Stmt::AtomicAdd`].
    CasAdd {
        /// Shared cell index (`< CELLS`).
        cell: u8,
        /// Increment (`>= 1`).
        k: u32,
    },
    /// A single raw `LOCK CMPXCHG` on a *private* slot: exercises the
    /// success and failure paths (ZF, RAX write-back) deterministically.
    Cmpxchg {
        /// Private slot index (`< SLOTS`).
        slot: u16,
        /// Value loaded into `RAX` as the expected value.
        expect: u32,
        /// Replacement value.
        newv: u32,
    },
    /// `WRITE(1, &slot, 8)` — main thread only (single writer keeps the
    /// output byte stream schedule-invariant).
    Write {
        /// Private slot index (`< SLOTS`).
        slot: u16,
    },
    /// `RAX = GETTID`.
    Gettid,
}

/// A complete program specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgSpec {
    /// Seed that generated the spec (informational; reproduces the
    /// program via the generator but is not needed to lower it).
    pub seed: u64,
    /// Main-thread body (runs on core 0 between the spawns and joins).
    pub main: Vec<Stmt>,
    /// Child-thread bodies; thread `i+1` runs `threads[i]`. The lowering
    /// spawns all children before `main` runs and joins them after.
    pub threads: Vec<Vec<Stmt>>,
    /// Shared flat routines callable from any body.
    pub routines: Vec<Vec<Stmt>>,
    /// Free-form note carried into the corpus file.
    pub note: String,
}

/// Why a [`ProgSpec`] is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A register outside [`WORKING_REGS`] was used.
    BadReg(Gpr),
    /// A private-slot index `>= SLOTS` (or byte offset `>= 8`).
    BadSlot(u16),
    /// A shared-cell index `>= CELLS`.
    BadCell(u8),
    /// A loop trip count outside `1..=MAX_TRIPS`.
    BadTrips(u16),
    /// Loop nesting deeper than [`MAX_LOOP_DEPTH`].
    TooDeep,
    /// A call to a routine index that does not exist.
    BadRoutine(u8),
    /// A routine contains a loop or a call (routines must be flat).
    RoutineNotFlat,
    /// An atomic increment of zero (would make "successful update"
    /// detection ambiguous).
    ZeroIncrement,
    /// More threads than [`MAX_THREADS`] allows.
    TooManyThreads(usize),
    /// A statement reserved to single-threaded specs or the main thread
    /// (`LoadShared` / `Write`) appeared elsewhere.
    ScheduleDependent(&'static str),
    /// The assembler rejected the lowered program (cannot happen for a
    /// validated spec; kept so the minimizer can skip rather than panic).
    Lower(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadReg(r) => write!(f, "non-working register {r}"),
            SpecError::BadSlot(s) => write!(f, "private slot {s} out of range"),
            SpecError::BadCell(c) => write!(f, "shared cell {c} out of range"),
            SpecError::BadTrips(t) => write!(f, "trip count {t} outside 1..={MAX_TRIPS}"),
            SpecError::TooDeep => write!(f, "loops nested deeper than {MAX_LOOP_DEPTH}"),
            SpecError::BadRoutine(r) => write!(f, "call to undefined routine {r}"),
            SpecError::RoutineNotFlat => write!(f, "routine contains a loop or call"),
            SpecError::ZeroIncrement => write!(f, "atomic increment of zero"),
            SpecError::TooManyThreads(n) => write!(f, "{n} threads exceeds {MAX_THREADS}"),
            SpecError::ScheduleDependent(w) => {
                write!(f, "{w} is schedule-dependent in this position")
            }
            SpecError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn check_reg(r: Gpr) -> Result<(), SpecError> {
    if WORKING_REGS.contains(&r) {
        Ok(())
    } else {
        Err(SpecError::BadReg(r))
    }
}

impl ProgSpec {
    /// Total cores (main + children) the lowered program needs.
    pub fn cores(&self) -> usize {
        1 + self.threads.len()
    }

    /// Validates every structural invariant. Lowering and the minimizer
    /// only accept specs that pass.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.cores() > MAX_THREADS {
            return Err(SpecError::TooManyThreads(self.cores()));
        }
        let multi = !self.threads.is_empty();
        for body in self.routines.iter() {
            Self::check_body(body, 0, self.routines.len(), true, multi, false)?;
        }
        Self::check_body(&self.main, 0, self.routines.len(), false, multi, true)?;
        for body in &self.threads {
            Self::check_body(body, 0, self.routines.len(), false, multi, false)?;
        }
        Ok(())
    }

    fn check_body(
        body: &[Stmt],
        depth: usize,
        n_routines: usize,
        in_routine: bool,
        multi: bool,
        is_main: bool,
    ) -> Result<(), SpecError> {
        let src_ok = |s: &Src| match s {
            Src::Reg(r) => check_reg(*r),
            Src::Imm(_) => Ok(()),
        };
        for s in body {
            match s {
                Stmt::MovImm { dst, .. } => check_reg(*dst)?,
                Stmt::MovReg { dst, src } => {
                    check_reg(*dst)?;
                    check_reg(*src)?;
                }
                Stmt::Alu { dst, src, .. } => {
                    check_reg(*dst)?;
                    src_ok(src)?;
                }
                Stmt::Div { src } => check_reg(*src)?,
                Stmt::Fp { dst, src, .. } => {
                    check_reg(*dst)?;
                    check_reg(*src)?;
                }
                Stmt::Load { dst, slot } => {
                    check_reg(*dst)?;
                    if *slot >= SLOTS {
                        return Err(SpecError::BadSlot(*slot));
                    }
                }
                Stmt::Store { slot, src } => {
                    check_reg(*src)?;
                    if *slot >= SLOTS {
                        return Err(SpecError::BadSlot(*slot));
                    }
                }
                Stmt::LoadB { dst, slot, byte } => {
                    check_reg(*dst)?;
                    if *slot >= SLOTS || *byte >= 8 {
                        return Err(SpecError::BadSlot(*slot));
                    }
                }
                Stmt::StoreB { slot, byte, src } => {
                    check_reg(*src)?;
                    if *slot >= SLOTS || *byte >= 8 {
                        return Err(SpecError::BadSlot(*slot));
                    }
                }
                Stmt::LoadShared { dst, cell } => {
                    check_reg(*dst)?;
                    if *cell >= CELLS {
                        return Err(SpecError::BadCell(*cell));
                    }
                    if multi {
                        return Err(SpecError::ScheduleDependent("loadsh"));
                    }
                }
                Stmt::Cmp { a, src } => {
                    check_reg(*a)?;
                    src_ok(src)?;
                }
                Stmt::Test { a, b } => {
                    check_reg(*a)?;
                    check_reg(*b)?;
                }
                Stmt::Fence | Stmt::Gettid => {}
                Stmt::Spill { reg, .. } => check_reg(*reg)?,
                Stmt::If { a, then_body, else_body, .. } => {
                    check_reg(*a)?;
                    Self::check_body(then_body, depth, n_routines, in_routine, multi, is_main)?;
                    Self::check_body(else_body, depth, n_routines, in_routine, multi, is_main)?;
                }
                Stmt::Loop { trips, body } => {
                    if in_routine {
                        return Err(SpecError::RoutineNotFlat);
                    }
                    if *trips == 0 || *trips > MAX_TRIPS {
                        return Err(SpecError::BadTrips(*trips));
                    }
                    if depth + 1 > MAX_LOOP_DEPTH {
                        return Err(SpecError::TooDeep);
                    }
                    Self::check_body(body, depth + 1, n_routines, in_routine, multi, is_main)?;
                }
                Stmt::Call { routine } => {
                    if in_routine {
                        return Err(SpecError::RoutineNotFlat);
                    }
                    if *routine as usize >= n_routines {
                        return Err(SpecError::BadRoutine(*routine));
                    }
                }
                Stmt::AtomicAdd { cell, k } | Stmt::CasAdd { cell, k } => {
                    if *cell >= CELLS {
                        return Err(SpecError::BadCell(*cell));
                    }
                    if *k == 0 {
                        return Err(SpecError::ZeroIncrement);
                    }
                }
                Stmt::Cmpxchg { slot, .. } => {
                    if *slot >= SLOTS {
                        return Err(SpecError::BadSlot(*slot));
                    }
                }
                Stmt::Write { slot } => {
                    if *slot >= SLOTS {
                        return Err(SpecError::BadSlot(*slot));
                    }
                    if multi && !is_main {
                        return Err(SpecError::ScheduleDependent("write"));
                    }
                }
            }
        }
        Ok(())
    }

    /// An upper bound on the guest instructions the *interpreter* retires
    /// executing the lowered program (all threads summed). Used to size
    /// fuel and as the termination bound checked by the well-formedness
    /// tests. CAS retry loops are bounded by total-update × thread-count
    /// (every failed attempt pairs with another thread's success).
    pub fn max_interp_steps(&self) -> u64 {
        let n_threads = self.cores() as u64;
        let mut updates = 0u64;
        let mut total = 0u64;
        for body in self.routines.iter().chain([&self.main]).chain(self.threads.iter()) {
            total += Self::body_cost(body, &self.routines, 1, &mut updates);
        }
        // Prologue/epilogue per thread (bases, flag materialization,
        // checksum folds, spawn/join/exit sequences): generous constant.
        let overhead = n_threads * 160 + self.threads.len() as u64 * 16;
        // Each dynamic CAS attempt is ≤ 7 instructions; retries are
        // bounded by updates × n_threads beyond the first attempts.
        total + overhead + updates * n_threads * 8 + 64
    }

    /// Worst-case dynamic instruction count of `body` executed `mult`
    /// times; `updates` accumulates dynamic shared-cell increments.
    fn body_cost(body: &[Stmt], routines: &[Vec<Stmt>], mult: u64, updates: &mut u64) -> u64 {
        let mut c = 0u64;
        for s in body {
            c += match s {
                Stmt::If { then_body, else_body, .. } => {
                    // Both arms count toward `updates` (upper bound).
                    3 * mult
                        + Self::body_cost(then_body, routines, mult, updates)
                        + Self::body_cost(else_body, routines, mult, updates)
                }
                Stmt::Loop { trips, body } => {
                    mult + Self::body_cost(body, routines, mult * *trips as u64, updates)
                        + 2 * mult * *trips as u64
                }
                Stmt::Call { routine } => {
                    2 * mult
                        + routines
                            .get(*routine as usize)
                            .map(|r| Self::body_cost(r, routines, mult, updates))
                            .unwrap_or(0)
                }
                Stmt::AtomicAdd { .. } => {
                    *updates += mult;
                    3 * mult
                }
                Stmt::CasAdd { .. } => {
                    *updates += mult;
                    8 * mult
                }
                Stmt::Cmpxchg { .. } => 3 * mult,
                Stmt::Spill { .. } => 3 * mult,
                Stmt::Write { .. } => 5 * mult,
                Stmt::Gettid => 2 * mult,
                _ => mult,
            };
        }
        c
    }

    /// Lowers the spec to a runnable [`GuestBinary`].
    ///
    /// The lowering is deterministic: equal specs produce byte-identical
    /// binaries. Returns an error only if the spec is invalid (the
    /// assembler cannot fail on a valid spec).
    pub fn lower(&self) -> Result<GuestBinary, SpecError> {
        self.validate()?;
        let mut b = GelfBuilder::new("main");
        // Data layout: shared cells, per-thread private regions, tid
        // scratch for the spawn/join bookkeeping.
        let shared_base = b.data_zeroed(CELLS as usize * 8);
        let mut priv_bases = Vec::new();
        for _ in 0..self.cores() {
            priv_bases.push(b.data_zeroed(SLOTS as usize * 8));
        }
        let tid_base = b.data_zeroed(self.threads.len().max(1) * 8);

        let mut ctx = Lower { next_label: 0 };

        // Routines first (they sit before `main`; entry is a label).
        // `Write` in a routine is main-only (validated), so the main
        // thread's private base is the right buffer address.
        for (i, body) in self.routines.iter().enumerate() {
            b.asm.label(&format!("routine_{i}"));
            ctx.body(&mut b, body, priv_bases[0]);
            b.asm.ret();
        }

        // Child thread bodies.
        for (t, body) in self.threads.iter().enumerate() {
            let core = t + 1;
            b.asm.label(&format!("thread_{core}"));
            b.asm.mov_ri(PRIV_BASE, priv_bases[core]);
            b.asm.mov_ri(SHARED_BASE, shared_base);
            ctx.body(&mut b, body, priv_bases[core]);
            ctx.epilogue(&mut b, priv_bases[core], shared_base, tid_base, self, false);
        }

        // Main.
        b.asm.label("main");
        b.asm.mov_ri(PRIV_BASE, priv_bases[0]);
        b.asm.mov_ri(SHARED_BASE, shared_base);
        for t in 0..self.threads.len() {
            let core = t + 1;
            b.asm.mov_ri(Gpr::RAX, risotto_guest_x86::syscalls::SPAWN);
            b.asm.mov_label(Gpr::RDI, &format!("thread_{core}"));
            b.asm.mov_ri(Gpr::RSI, 0x1000 + core as u64);
            b.asm.syscall();
            // Stash the returned tid for the join sequence.
            b.asm.mov_ri(SCRATCH, tid_base + t as u64 * 8);
            b.asm.store(SCRATCH, 0, Gpr::RAX);
        }
        ctx.body(&mut b, &self.main, priv_bases[0]);
        ctx.epilogue(&mut b, priv_bases[0], shared_base, tid_base, self, true);

        b.finish().map_err(|e: AsmError| SpecError::Lower(e.to_string()))
    }
}

/// Lowering context: fresh-label allocation and per-statement emission.
struct Lower {
    next_label: u32,
}

impl Lower {
    fn fresh(&mut self, kind: &str) -> String {
        self.next_label += 1;
        format!("L{}_{}", kind, self.next_label)
    }

    fn body(&mut self, b: &mut GelfBuilder, stmts: &[Stmt], privb: u64) {
        self.body_at(b, stmts, privb, 0)
    }

    fn body_at(&mut self, b: &mut GelfBuilder, stmts: &[Stmt], privb: u64, depth: usize) {
        for s in stmts {
            self.stmt(b, s, privb, depth);
        }
    }

    fn stmt(&mut self, b: &mut GelfBuilder, s: &Stmt, privb: u64, depth: usize) {
        match s {
            Stmt::MovImm { dst, imm } => {
                b.asm.mov_ri(*dst, *imm);
            }
            Stmt::MovReg { dst, src } => {
                b.asm.mov_rr(*dst, *src);
            }
            Stmt::Alu { op, dst, src } => {
                match src {
                    Src::Reg(r) => b.asm.alu_rr(*op, *dst, *r),
                    Src::Imm(i) => b.asm.alu_ri(*op, *dst, *i),
                };
            }
            Stmt::Div { src } => {
                b.asm.div(*src);
            }
            Stmt::Fp { op, dst, src } => {
                b.asm.fp(*op, *dst, *src);
            }
            Stmt::Load { dst, slot } => {
                b.asm.load(*dst, PRIV_BASE, *slot as i32 * 8);
            }
            Stmt::Store { slot, src } => {
                b.asm.store(PRIV_BASE, *slot as i32 * 8, *src);
            }
            Stmt::LoadB { dst, slot, byte } => {
                b.asm.load_b(*dst, PRIV_BASE, *slot as i32 * 8 + *byte as i32);
            }
            Stmt::StoreB { slot, byte, src } => {
                b.asm.store_b(PRIV_BASE, *slot as i32 * 8 + *byte as i32, *src);
            }
            Stmt::LoadShared { dst, cell } => {
                b.asm.load(*dst, SHARED_BASE, *cell as i32 * 8);
            }
            Stmt::Cmp { a, src } => {
                match src {
                    Src::Reg(r) => b.asm.cmp_rr(*a, *r),
                    Src::Imm(i) => b.asm.cmp_ri(*a, *i),
                };
            }
            Stmt::Test { a, b: rb } => {
                b.asm.test_rr(*a, *rb);
            }
            Stmt::Fence => {
                b.asm.mfence();
            }
            Stmt::Spill { reg, imm } => {
                b.asm.push(*reg);
                b.asm.mov_ri(*reg, *imm);
                b.asm.pop(*reg);
            }
            Stmt::If { cond, a, imm, then_body, else_body } => {
                let l_else = self.fresh("else");
                let l_end = self.fresh("end");
                b.asm.cmp_ri(*a, *imm);
                b.asm.jcc_to(cond.negate(), &l_else);
                self.body_at(b, then_body, privb, depth);
                b.asm.jmp_to(&l_end);
                b.asm.label(&l_else);
                self.body_at(b, else_body, privb, depth);
                b.asm.label(&l_end);
            }
            Stmt::Loop { trips, body } => {
                let ctr = if depth == 0 { CTR0 } else { CTR1 };
                let l_head = self.fresh("loop");
                b.asm.mov_ri(ctr, *trips as u64);
                b.asm.label(&l_head);
                self.body_at(b, body, privb, depth + 1);
                b.asm.alu_ri(AluOp::Sub, ctr, 1);
                b.asm.jcc_to(Cond::Ne, &l_head);
            }
            Stmt::Call { routine } => {
                b.asm.call_to(&format!("routine_{routine}"));
            }
            Stmt::AtomicAdd { cell, k } => {
                b.asm.mov_ri(SCRATCH, *k as u64);
                b.asm.xadd(SHARED_BASE, *cell as i32 * 8, SCRATCH);
                // Squash the fetched (schedule-dependent) old value.
                b.asm.mov_ri(SCRATCH, 0);
            }
            Stmt::CasAdd { cell, k } => {
                let l_retry = self.fresh("cas");
                b.asm.load(Gpr::RAX, SHARED_BASE, *cell as i32 * 8);
                b.asm.label(&l_retry);
                b.asm.mov_rr(SCRATCH, Gpr::RAX);
                b.asm.alu_ri(AluOp::Add, SCRATCH, *k as u64);
                b.asm.cmpxchg(SHARED_BASE, *cell as i32 * 8, SCRATCH);
                b.asm.jcc_to(Cond::Ne, &l_retry);
                // Squash RAX (winning expected value) and the scratch.
                b.asm.mov_ri(Gpr::RAX, 0);
                b.asm.mov_ri(SCRATCH, 0);
            }
            Stmt::Cmpxchg { slot, expect, newv } => {
                b.asm.mov_ri(Gpr::RAX, *expect as u64);
                b.asm.mov_ri(SCRATCH, *newv as u64);
                b.asm.cmpxchg(PRIV_BASE, *slot as i32 * 8, SCRATCH);
            }
            Stmt::Write { slot } => {
                b.asm.mov_ri(Gpr::RAX, risotto_guest_x86::syscalls::WRITE);
                b.asm.mov_ri(Gpr::RDI, 1);
                b.asm.mov_ri(Gpr::RSI, privb + *slot as u64 * 8);
                b.asm.mov_ri(Gpr::RDX, 8);
                b.asm.syscall();
            }
            Stmt::Gettid => {
                b.asm.mov_ri(Gpr::RAX, risotto_guest_x86::syscalls::GETTID);
                b.asm.syscall();
            }
        }
    }

    /// Shared end-of-thread sequence: materialize the body-final flags
    /// into registers (they survive only via control flow), join children
    /// (main only), fold everything observable into a checksum, and exit.
    fn epilogue(
        &mut self,
        b: &mut GelfBuilder,
        privb: u64,
        shared: u64,
        tid_base: u64,
        spec: &ProgSpec,
        is_main: bool,
    ) {
        // Flags → R8..=R10, RBX via mov/jcc only (neither touches flags).
        for (cond, reg) in
            [(Cond::E, Gpr::R8), (Cond::L, Gpr::R9), (Cond::B, Gpr::R10), (Cond::S, Gpr::RBX)]
        {
            let skip = self.fresh("flag");
            b.asm.mov_ri(reg, 0);
            b.asm.jcc_to(cond.negate(), &skip);
            b.asm.mov_ri(reg, 1);
            b.asm.label(&skip);
        }
        b.asm.mov_ri(SCRATCH, 0x9E37_79B9);
        if is_main {
            // Join every child; fold each (deterministic) exit value.
            for t in 0..spec.threads.len() {
                b.asm.mov_ri(Gpr::RAX, tid_base + t as u64 * 8);
                b.asm.load(Gpr::RDI, Gpr::RAX, 0);
                b.asm.mov_ri(Gpr::RAX, risotto_guest_x86::syscalls::JOIN);
                b.asm.syscall();
                b.asm.alu_ri(AluOp::Mul, SCRATCH, FOLD_PRIME);
                b.asm.alu_rr(AluOp::Xor, SCRATCH, Gpr::RAX);
            }
            // Shared cells are final once every child has joined.
            for c in 0..CELLS {
                b.asm.mov_ri(Gpr::RAX, shared + c as u64 * 8);
                b.asm.load(Gpr::RAX, Gpr::RAX, 0);
                b.asm.alu_ri(AluOp::Mul, SCRATCH, FOLD_PRIME);
                b.asm.alu_rr(AluOp::Xor, SCRATCH, Gpr::RAX);
            }
        }
        // Fold the private slots.
        for s in 0..SLOTS {
            b.asm.mov_ri(Gpr::RAX, privb + s as u64 * 8);
            b.asm.load(Gpr::RAX, Gpr::RAX, 0);
            b.asm.alu_ri(AluOp::Mul, SCRATCH, FOLD_PRIME);
            b.asm.alu_rr(AluOp::Xor, SCRATCH, Gpr::RAX);
        }
        // Fold the working registers (flag materialization included).
        for r in WORKING_REGS {
            if r == Gpr::RAX {
                continue; // clobbered by the folds above
            }
            b.asm.alu_ri(AluOp::Mul, SCRATCH, FOLD_PRIME);
            b.asm.alu_rr(AluOp::Xor, SCRATCH, r);
        }
        b.asm.mov_rr(Gpr::RAX, SCRATCH);
        if is_main {
            b.asm.hlt();
        } else {
            b.asm.mov_rr(Gpr::RDI, Gpr::RAX);
            b.asm.mov_ri(Gpr::RAX, risotto_guest_x86::syscalls::EXIT);
            b.asm.syscall();
        }
    }
}
