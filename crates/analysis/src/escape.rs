//! Shared-memory escape analysis: classifies every static memory access
//! in the image as core-private, read-only, shared, or atomic.
//!
//! The engine uses the classification to *relax ordering obligations*:
//! fences guarding provably-private or provably-read-only accesses are
//! dropped before lowering (see `risotto_tcg::verify::relax_block`), so
//! soundness is load-bearing. The analysis is a whole-program abstract
//! interpretation built on the [`crate::dataflow`] solver:
//!
//! * **Domain** — [`Val`] tracks each register as an absolute-value
//!   interval, an offset interval into the *executing core's own stack*,
//!   or ⊤. A tracked stack map gives call/return resolution and stack
//!   slot values. Widening collapses non-singleton intervals to ⊤
//!   ([`crate::dataflow::WIDEN_AFTER`] joins at one node).
//! * **Instances** — one abstract interpretation per *core*: the root
//!   (image entry) plus one instance per statically discovered spawn
//!   site, each with its own `RDI` argument and its own stack identity.
//!   A spawn site whose block can re-reach itself (a spawn in a loop),
//!   or whose parent is already replicated, produces a *replicated*
//!   instance: one static instance standing for several cores, which
//!   must additionally not conflict with itself.
//! * **Counted-loop refinement** — interval domains widen induction
//!   pointers to ⊤, which would make every in-loop access wild. Phase 2
//!   pattern-matches the workload generator's counted-loop shape
//!   (`sub c,1; cmp c,0; jne head` self-loop with a singleton trip
//!   count) and computes, per register, the *affine hull* over all
//!   iterations. Phase 3 re-solves with these hulls *forced* at the
//!   loop head. The pin is justified structurally (the loop body is
//!   straight-line and executes exactly `c₀` times), not inductively —
//!   an interval domain cannot re-verify an affine pin. As a safety
//!   net the refined solution is discarded unless it realizes a subset
//!   of phase 1's edges with no new poison.
//! * **Poison** — anything the analysis cannot bound (unresolved
//!   indirect target, unknown syscall number, instance cap, solver
//!   limit, …) poisons the *whole image*: no access is relaxable.
//!   Unknown addresses short of poison become [`Region::Wild`]
//!   accesses, which conservatively conflict with everything.
//!
//! Classification is per *static site* (pc): the translated code is
//! shared by every core that executes it, so a site is only relaxable
//! if the access is relaxable in **every** instance that reaches it.

use crate::cfg::{Block, Cfg, Term};
use crate::dataflow::{solve, Lattice, Solution, Transfer};
use crate::ImageFacts;
use risotto_guest_x86::{
    syscalls, AluOp, Cond, Gpr, GuestBinary, Insn, Operand, HEAP_BASE, STACK_SIZE, STACK_TOP,
    TEXT_BASE,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Cap on abstract core instances; exceeding it poisons the image.
pub const MAX_INSTANCES: usize = 32;

/// Worklist step budget per instance solve.
const MAX_STEPS: u64 = 50_000;

/// An abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val {
    /// Absolute value in the inclusive interval `[lo, hi]`.
    Int(u64, u64),
    /// Offset into the executing core's own stack, relative to its stack
    /// top, in the inclusive interval `[lo, hi]` (offsets are ≤ 0 for
    /// live stack data).
    Stack(i64, i64),
    /// Unknown.
    Top,
}

impl Val {
    fn singleton(self) -> Option<u64> {
        match self {
            Val::Int(lo, hi) if lo == hi => Some(lo),
            _ => None,
        }
    }

    fn widened(self) -> Val {
        match self {
            Val::Int(lo, hi) if lo != hi => Val::Top,
            Val::Stack(lo, hi) if lo != hi => Val::Top,
            v => v,
        }
    }

    fn join(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a, b), Val::Int(c, d)) => Val::Int(a.min(c), b.max(d)),
            (Val::Stack(a, b), Val::Stack(c, d)) => Val::Stack(a.min(c), b.max(d)),
            _ => Val::Top,
        }
    }

    /// `self + disp` with overflow collapsing to ⊤.
    fn add_disp(self, disp: i64) -> Val {
        match self {
            Val::Int(lo, hi) => match (lo.checked_add_signed(disp), hi.checked_add_signed(disp)) {
                (Some(l), Some(h)) => Val::Int(l, h),
                _ => Val::Top,
            },
            Val::Stack(lo, hi) => match (lo.checked_add(disp), hi.checked_add(disp)) {
                (Some(l), Some(h)) => Val::Stack(l, h),
                _ => Val::Top,
            },
            Val::Top => Val::Top,
        }
    }
}

/// Abstract flags: the last flag-setting comparison, if tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagsAbs {
    /// `cmp a, b`.
    Cmp(Val, Val),
    /// `test a, b`.
    Test(Val, Val),
    /// Anything else.
    Unknown,
}

/// Per-program-point abstract state: registers, flags, and the tracked
/// own-stack slot map (keyed by byte offset from the core's stack top;
/// each slot holds 8 bytes). A missing slot means ⊤.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    regs: [Val; 16],
    flags: FlagsAbs,
    stack: BTreeMap<i64, Val>,
}

impl State {
    /// Core entry state: all registers zero, `RDI` = the spawn argument,
    /// `RSP` = the core's own stack top.
    fn entry(arg: Val) -> State {
        let mut regs = [Val::Int(0, 0); 16];
        regs[Gpr::RDI.index()] = arg;
        regs[Gpr::RSP.index()] = Val::Stack(0, 0);
        State { regs, flags: FlagsAbs::Unknown, stack: BTreeMap::new() }
    }

    fn get(&self, r: Gpr) -> Val {
        self.regs[r.index()]
    }

    fn set(&mut self, r: Gpr, v: Val) {
        self.regs[r.index()] = v;
    }

    fn operand(&self, op: Operand) -> Val {
        match op {
            Operand::Reg(r) => self.get(r),
            Operand::Imm(k) => Val::Int(k, k),
        }
    }
}

impl Lattice for State {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for i in 0..16 {
            let j = self.regs[i].join(other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        if self.flags != other.flags && self.flags != FlagsAbs::Unknown {
            self.flags = FlagsAbs::Unknown;
            changed = true;
        }
        // Stack slots: keep the intersection of keys, joining values.
        let keys: Vec<i64> = self.stack.keys().copied().collect();
        for k in keys {
            match other.stack.get(&k) {
                Some(ov) => {
                    let cur = self.stack[&k];
                    let j = cur.join(*ov);
                    if j != cur {
                        self.stack.insert(k, j);
                        changed = true;
                    }
                }
                None => {
                    self.stack.remove(&k);
                    changed = true;
                }
            }
        }
        changed
    }

    fn widen(&mut self) {
        for v in &mut self.regs {
            *v = v.widened();
        }
        for v in self.stack.values_mut() {
            *v = v.widened();
        }
        self.flags = FlagsAbs::Unknown;
    }
}

/// Where an access may land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Absolute byte range `[lo, hi]` (inclusive).
    Abs(u64, u64),
    /// Byte range `[lo, hi]` of offsets into the executing core's own
    /// stack (both ≤ −1, ≥ −`STACK_SIZE`).
    OwnStack(i64, i64),
    /// Could be anywhere.
    Wild,
}

impl Region {
    /// `true` for absolute ranges that may alias *some* core's stack
    /// (anything reaching past `HEAP_BASE` and below the stack top).
    pub fn stack_suspect(&self) -> bool {
        match *self {
            Region::Abs(lo, hi) => hi >= HEAP_BASE && lo < STACK_TOP,
            Region::OwnStack(..) => false,
            Region::Wild => true,
        }
    }
}

/// The dynamic kind of a static access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// RMW (`lock cmpxchg` / `lock xadd`) — never relaxed.
    Atomic,
}

/// One access recorded during the final collection walk.
#[derive(Debug, Clone, Copy)]
struct Access {
    inst: usize,
    pc: u64,
    kind: AccessKind,
    width: u8,
    region: Region,
}

/// Why the image was poisoned (no relaxation anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Poison {
    /// An indirect jump/call target was not a singleton text address.
    UnresolvedIndirect,
    /// A `ret` popped a value that was not a singleton text address.
    UnresolvedRet,
    /// A syscall executed with a non-singleton `RAX`.
    UnknownSyscall,
    /// A `SPAWN` whose target was not a singleton text address.
    UnresolvedSpawnTarget,
    /// More than [`MAX_INSTANCES`] abstract cores were discovered.
    InstanceCap,
    /// The worklist solver hit its step budget.
    SolverLimit,
    /// Control flowed to a pc with no recovered block.
    MissingBlock,
    /// A block decodes past the end of the recovered run ([`Term::Bad`]).
    BadBlock,
}

impl Poison {
    /// Stable human-readable tag (used in JSON reports).
    pub fn tag(&self) -> &'static str {
        match self {
            Poison::UnresolvedIndirect => "unresolved-indirect",
            Poison::UnresolvedRet => "unresolved-ret",
            Poison::UnknownSyscall => "unknown-syscall",
            Poison::UnresolvedSpawnTarget => "unresolved-spawn-target",
            Poison::InstanceCap => "instance-cap",
            Poison::SolverLimit => "solver-limit",
            Poison::MissingBlock => "missing-block",
            Poison::BadBlock => "bad-block",
        }
    }
}

/// Final classification of a static access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Only the executing core can conflict with this access.
    Private,
    /// A read from memory no instance ever writes.
    ReadOnly,
    /// May participate in cross-core communication.
    Shared,
    /// RMW — ordering is the point; never relaxed.
    Atomic,
}

impl SiteClass {
    /// `true` if ordering obligations on this site may be dropped.
    pub fn relaxable(&self) -> bool {
        matches!(self, SiteClass::Private | SiteClass::ReadOnly)
    }

    /// Stable lowercase tag (used in JSON reports).
    pub fn tag(&self) -> &'static str {
        match self {
            SiteClass::Private => "private",
            SiteClass::ReadOnly => "readonly",
            SiteClass::Shared => "shared",
            SiteClass::Atomic => "atomic",
        }
    }
}

/// Classified static access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Access kind at this pc (identical in every instance: one insn).
    pub kind: AccessKind,
    /// Access width in bytes (1 or 8; syscall buffer reads report 1).
    pub width: u8,
    /// The meet of the per-instance classifications.
    pub class: SiteClass,
    /// Hull of the access regions across instances (reported by
    /// `dump_translation --analysis on`; the engine reads only `class`).
    pub region: Region,
}

/// Hull of two regions (used to summarize a site across instances).
fn region_join(a: Region, b: Region) -> Region {
    match (a, b) {
        (Region::Abs(al, ah), Region::Abs(bl, bh)) => Region::Abs(al.min(bl), ah.max(bh)),
        (Region::OwnStack(al, ah), Region::OwnStack(bl, bh)) => {
            Region::OwnStack(al.min(bl), ah.max(bh))
        }
        _ => Region::Wild,
    }
}

/// One abstract core.
#[derive(Debug, Clone)]
pub struct InstanceInfo {
    /// Entry pc.
    pub entry: u64,
    /// Pc of the spawn site that created it (`None` for the root).
    pub spawned_at: Option<u64>,
    /// `true` if this static instance may stand for several cores.
    pub replicated: bool,
}

/// Everything `exec_block` reports besides successor states.
#[derive(Default)]
struct BlockEffects {
    accesses: Vec<Access>,
    spawns: Vec<(u64, u64, Val)>, // (site pc, target, arg)
    poisons: BTreeSet<Poison>,
}

/// Turns an abstract address + width into a region, demoting own-stack
/// ranges that leak outside the core's stack slice to [`Region::Wild`]
/// (they could land in a neighbouring core's stack).
fn region_of(addr: Val, width: u8) -> Region {
    let w = width as u64 - 1;
    match addr {
        Val::Int(lo, hi) => match hi.checked_add(w) {
            Some(h) => Region::Abs(lo, h),
            None => Region::Wild,
        },
        Val::Stack(lo, hi) => {
            let h = hi.saturating_add(w as i64);
            if lo >= -(STACK_SIZE as i64) && h <= -1 {
                Region::OwnStack(lo, h)
            } else {
                Region::Wild
            }
        }
        Val::Top => Region::Wild,
    }
}

fn alu(op: AluOp, a: Val, b: Val) -> Val {
    use Val::*;
    // Exact on singletons, interval-checked on the pointer-arithmetic
    // shapes the workloads use, ⊤ otherwise.
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        if !matches!(a, Stack(..)) && !matches!(b, Stack(..)) {
            return Int(op.apply(x, y), op.apply(x, y));
        }
    }
    match op {
        AluOp::Add => match (a, b) {
            (Int(al, ah), Int(bl, bh)) => match (al.checked_add(bl), ah.checked_add(bh)) {
                (Some(l), Some(h)) => Int(l, h),
                _ => Top,
            },
            (Stack(al, ah), Int(bl, bh)) | (Int(bl, bh), Stack(al, ah)) => {
                if bh <= i64::MAX as u64 {
                    match (al.checked_add(bl as i64), ah.checked_add(bh as i64)) {
                        (Some(l), Some(h)) => Stack(l, h),
                        _ => Top,
                    }
                } else {
                    Top
                }
            }
            _ => Top,
        },
        AluOp::Sub => match (a, b) {
            (Int(al, ah), Int(bl, bh)) => {
                // [al,ah] − [bl,bh] = [al−bh, ah−bl] when it stays ≥ 0.
                match (al.checked_sub(bh), ah.checked_sub(bl)) {
                    (Some(l), Some(h)) => Int(l, h),
                    _ => Top,
                }
            }
            (Stack(al, ah), Int(bl, bh)) => {
                if bh <= i64::MAX as u64 {
                    match (al.checked_sub(bh as i64), ah.checked_sub(bl as i64)) {
                        (Some(l), Some(h)) => Stack(l, h),
                        _ => Top,
                    }
                } else {
                    Top
                }
            }
            _ => Top,
        },
        AluOp::Mul => match (a, b) {
            (Int(al, ah), Int(bl, bh)) | (Int(bl, bh), Int(al, ah)) if bl == bh => {
                let p_lo = (al as u128) * (bl as u128);
                let p_hi = (ah as u128) * (bl as u128);
                if p_hi <= u64::MAX as u128 {
                    Int(p_lo as u64, p_hi as u64)
                } else {
                    Top
                }
            }
            _ => Top,
        },
        AluOp::Shl => match (a, b) {
            (Int(al, ah), Int(bl, bh)) if bl == bh && bl < 64 => {
                match (al.checked_shl(bl as u32), ah.checked_shl(bl as u32)) {
                    (Some(l), Some(h)) if (h >> bl) == ah && (l >> bl) == al => Int(l, h),
                    _ => Top,
                }
            }
            _ => Top,
        },
        AluOp::Shr => match (a, b) {
            (Int(al, ah), Int(bl, bh)) if bl == bh && bl < 64 => Int(al >> bl, ah >> bl),
            _ => Top,
        },
        AluOp::And => match (a, b) {
            // Masking an interval by a constant bounds it by the mask.
            (Int(_, _), Int(m, m2)) | (Int(m, m2), Int(_, _)) if m == m2 => Int(0, m),
            _ => Top,
        },
        _ => Top,
    }
}

/// Decides `cond` against the abstract flags; `None` if both outcomes
/// are possible.
fn decide(cond: Cond, flags: FlagsAbs) -> Option<bool> {
    let (a, b, is_test) = match flags {
        FlagsAbs::Cmp(a, b) => (a, b, false),
        FlagsAbs::Test(a, b) => (a, b, true),
        FlagsAbs::Unknown => return None,
    };
    if is_test {
        // Only the zero-test shapes matter (`test r, r; jcc`).
        if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
            let z = (x & y) == 0;
            return match cond {
                Cond::E => Some(z),
                Cond::Ne => Some(!z),
                _ => None,
            };
        }
        return None;
    }
    let (al, ah, bl, bh) = match (a, b) {
        (Val::Int(al, ah), Val::Int(bl, bh)) => (al, ah, bl, bh),
        // Same-stack offsets compare like their offsets (common base).
        (Val::Stack(al, ah), Val::Stack(bl, bh)) => {
            // Offsets are small signed; rebase to unsigned order-preserving.
            let r = |v: i64| (v as i128 - i64::MIN as i128) as u64;
            (r(al), r(ah), r(bl), r(bh))
        }
        _ => return None,
    };
    let eq = match () {
        _ if ah < bl || bh < al => Some(false),
        _ if al == ah && bl == bh && al == bl => Some(true),
        _ => None,
    };
    let ult = match () {
        _ if ah < bl => Some(true),
        _ if al >= bh => Some(false),
        _ => None,
    };
    // Signed comparisons: only decide when neither interval straddles
    // the sign boundary.
    let signed_ok = (ah < 1 << 63 || al >= 1 << 63) && (bh < 1 << 63 || bl >= 1 << 63);
    let slt = if signed_ok {
        let (sal, sah, sbl, sbh) = (al as i64, ah as i64, bl as i64, bh as i64);
        match () {
            _ if sah < sbl => Some(true),
            _ if sal >= sbh => Some(false),
            _ => None,
        }
    } else {
        None
    };
    match cond {
        Cond::E => eq,
        Cond::Ne => eq.map(|v| !v),
        Cond::B => ult,
        Cond::Ae => ult.map(|v| !v),
        Cond::A => match (ult, eq) {
            (Some(false), Some(false)) => Some(true),
            (Some(true), _) | (_, Some(true)) => Some(false),
            _ => None,
        },
        Cond::Be => match (ult, eq) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Cond::L => slt,
        Cond::Ge => slt.map(|v| !v),
        Cond::G => match (slt, eq) {
            (Some(false), Some(false)) => Some(true),
            (Some(true), _) | (_, Some(true)) => Some(false),
            _ => None,
        },
        Cond::Le => match (slt, eq) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Cond::S | Cond::Ns => None,
    }
}

/// Records one access and invalidates any tracked stack slots a write
/// may touch; returns the computed region.
fn record(
    st: &mut State,
    fx: &mut BlockEffects,
    inst: usize,
    pc: u64,
    kind: AccessKind,
    width: u8,
    addr: Val,
) -> Region {
    let region = region_of(addr, width);
    fx.accesses.push(Access { inst, pc, kind, width, region });
    if matches!(kind, AccessKind::Write | AccessKind::Atomic) {
        smash_stack(st, region);
    }
    region
}

/// Invalidate tracked stack slots a write to `region` may touch.
fn smash_stack(state: &mut State, region: Region) {
    match region {
        Region::OwnStack(lo, hi) => {
            // A slot at offset s covers bytes [s, s+7].
            let keys: Vec<i64> = state.stack.range(lo - 7..=hi).map(|(&k, _)| k).collect();
            for k in keys {
                state.stack.remove(&k);
            }
        }
        Region::Wild => state.stack.clear(),
        Region::Abs(..) => {
            if region.stack_suspect() {
                state.stack.clear();
            }
        }
    }
}

/// Interprets one recovered block: applies every non-terminator
/// instruction to `state`, records effects, and returns the successor
/// edge states implied by the terminator.
fn exec_block(
    bin: &GuestBinary,
    block: &Block,
    input: &State,
    inst: usize,
    fx: &mut BlockEffects,
) -> Vec<(u64, State)> {
    let text_end = TEXT_BASE + bin.text.len() as u64;
    let is_text = |pc: u64| pc >= TEXT_BASE && pc < text_end;
    let mut st = input.clone();
    for ci in &block.insns {
        let insn = ci.insn;
        if insn.is_terminator() {
            break;
        }
        match insn {
            Insn::MovRI { dst, imm } => st.set(dst, Val::Int(imm, imm)),
            Insn::MovRR { dst, src } => {
                let v = st.get(src);
                st.set(dst, v);
            }
            Insn::Lea { dst, base, disp } => {
                let v = st.get(base).add_disp(disp as i64);
                st.set(dst, v);
            }
            Insn::Load { dst, base, disp } => {
                let addr = st.get(base).add_disp(disp as i64);
                let region = record(&mut st, fx, inst, ci.pc, AccessKind::Read, 8, addr);
                let v = match (region, addr) {
                    (Region::OwnStack(..), Val::Stack(o, o2)) if o == o2 => {
                        st.stack.get(&o).copied().unwrap_or(Val::Top)
                    }
                    _ => Val::Top,
                };
                st.set(dst, v);
            }
            Insn::LoadB { dst, base, disp } => {
                let addr = st.get(base).add_disp(disp as i64);
                record(&mut st, fx, inst, ci.pc, AccessKind::Read, 1, addr);
                st.set(dst, Val::Int(0, 255));
            }
            Insn::Store { base, disp, src } => {
                let addr = st.get(base).add_disp(disp as i64);
                let region = record(&mut st, fx, inst, ci.pc, AccessKind::Write, 8, addr);
                if let (Region::OwnStack(..), Val::Stack(o, o2)) = (region, addr) {
                    if o == o2 {
                        st.stack.insert(o, st.get(src));
                    }
                }
            }
            Insn::StoreB { base, disp, src } => {
                let addr = st.get(base).add_disp(disp as i64);
                record(&mut st, fx, inst, ci.pc, AccessKind::Write, 1, addr);
                let _ = src;
            }
            Insn::Push { src } => {
                let v = st.get(src);
                let rsp = st.get(Gpr::RSP).add_disp(-8);
                let region = record(&mut st, fx, inst, ci.pc, AccessKind::Write, 8, rsp);
                if let (Region::OwnStack(..), Val::Stack(o, o2)) = (region, rsp) {
                    if o == o2 {
                        st.stack.insert(o, v);
                    }
                }
                st.set(Gpr::RSP, rsp);
            }
            Insn::Pop { dst } => {
                let rsp = st.get(Gpr::RSP);
                let region = record(&mut st, fx, inst, ci.pc, AccessKind::Read, 8, rsp);
                let v = match (region, rsp) {
                    (Region::OwnStack(..), Val::Stack(o, o2)) if o == o2 => {
                        st.stack.get(&o).copied().unwrap_or(Val::Top)
                    }
                    _ => Val::Top,
                };
                st.set(dst, v);
                let up = rsp.add_disp(8);
                st.set(Gpr::RSP, up);
            }
            Insn::Alu { op, dst, src } => {
                let v = alu(op, st.get(dst), st.operand(src));
                st.set(dst, v);
                st.flags = FlagsAbs::Unknown;
            }
            Insn::MulWide { src } => {
                let a = st.get(Gpr::RAX);
                let b = st.get(src);
                st.set(Gpr::RAX, alu(AluOp::Mul, a, b));
                let high_zero = match (a, b) {
                    (Val::Int(_, ah), Val::Int(_, bh)) => {
                        (ah as u128) * (bh as u128) <= u64::MAX as u128
                    }
                    _ => false,
                };
                st.set(Gpr::RDX, if high_zero { Val::Int(0, 0) } else { Val::Top });
                st.flags = FlagsAbs::Unknown;
            }
            Insn::Div { src } => {
                let (q, r) = match (st.get(Gpr::RAX), st.get(src)) {
                    (Val::Int(al, ah), Val::Int(d, d2)) if d == d2 && d != 0 => {
                        (Val::Int(al / d, ah / d), Val::Int(0, d - 1))
                    }
                    _ => (Val::Top, Val::Top),
                };
                st.set(Gpr::RAX, q);
                st.set(Gpr::RDX, r);
                st.flags = FlagsAbs::Unknown;
            }
            Insn::Fp { dst, .. } => {
                st.set(dst, Val::Top);
                st.flags = FlagsAbs::Unknown;
            }
            Insn::Cmp { a, b } => st.flags = FlagsAbs::Cmp(st.get(a), st.operand(b)),
            Insn::Test { a, b } => st.flags = FlagsAbs::Test(st.get(a), st.operand(b)),
            Insn::LockCmpxchg { base, disp, .. } => {
                let addr = st.get(base).add_disp(disp as i64);
                record(&mut st, fx, inst, ci.pc, AccessKind::Atomic, 8, addr);
                st.set(Gpr::RAX, Val::Top);
                st.flags = FlagsAbs::Unknown;
            }
            Insn::LockXadd { base, disp, src } => {
                let addr = st.get(base).add_disp(disp as i64);
                record(&mut st, fx, inst, ci.pc, AccessKind::Atomic, 8, addr);
                st.set(src, Val::Top);
                st.flags = FlagsAbs::Unknown;
            }
            Insn::Mfence | Insn::Nop => {}
            // Terminators were skipped above.
            _ => {}
        }
    }

    // Terminator.
    let last = block.insns.last().map(|ci| ci.insn);
    match block.term {
        Term::Jump(t) | Term::ResolvedJump(t) | Term::Fall(t) => vec![(t, st)],
        Term::Cond { taken, fall } => {
            let cond = match last {
                Some(Insn::Jcc { cond, .. }) => Some(cond),
                _ => None,
            };
            match cond.and_then(|c| decide(c, st.flags)) {
                Some(true) => vec![(taken, st)],
                Some(false) => vec![(fall, st)],
                None => vec![(taken, st.clone()), (fall, st)],
            }
        }
        Term::Call { target, ret } => {
            let pc = block.insns.last().map(|ci| ci.pc).unwrap_or(block.start);
            push_ret(&mut st, pc, ret, inst, fx);
            vec![(target, st)]
        }
        Term::Indirect { reg, ret } => {
            let target = st.get(reg).singleton().filter(|&t| is_text(t));
            match target {
                Some(t) => {
                    if let Some(r) = ret {
                        let pc = block.insns.last().map(|ci| ci.pc).unwrap_or(block.start);
                        push_ret(&mut st, pc, r, inst, fx);
                    }
                    vec![(t, st)]
                }
                None => {
                    fx.poisons.insert(Poison::UnresolvedIndirect);
                    vec![]
                }
            }
        }
        Term::Ret => {
            let pc = block.insns.last().map(|ci| ci.pc).unwrap_or(block.start);
            let rsp = st.get(Gpr::RSP);
            let region = record(&mut st, fx, inst, pc, AccessKind::Read, 8, rsp);
            let target = match (region, rsp) {
                (Region::OwnStack(..), Val::Stack(o, o2)) if o == o2 => {
                    st.stack.get(&o).copied().unwrap_or(Val::Top).singleton()
                }
                _ => None,
            };
            match target.filter(|&t| is_text(t)) {
                Some(t) => {
                    let up = rsp.add_disp(8);
                    st.set(Gpr::RSP, up);
                    vec![(t, st)]
                }
                None => {
                    fx.poisons.insert(Poison::UnresolvedRet);
                    vec![]
                }
            }
        }
        Term::Halt => vec![],
        Term::Syscall { next } => {
            let pc = block.insns.last().map(|ci| ci.pc).unwrap_or(block.start);
            let nr = st.get(Gpr::RAX).singleton();
            st.set(Gpr::RAX, Val::Top);
            match nr {
                None => {
                    fx.poisons.insert(Poison::UnknownSyscall);
                    vec![(next, st)]
                }
                Some(syscalls::EXIT) => vec![],
                Some(syscalls::SPAWN) => {
                    let target = st.get(Gpr::RDI).singleton().filter(|&t| is_text(t));
                    match target {
                        Some(t) => {
                            let arg = match st.get(Gpr::RSI) {
                                v @ Val::Int(..) => v,
                                // A non-integer argument (e.g. a pointer
                                // into the parent's stack) makes the
                                // child's view of it wild, which the
                                // child's ⊤-based accesses already
                                // over-approximate.
                                _ => Val::Top,
                            };
                            fx.spawns.push((pc, t, arg));
                        }
                        None => {
                            fx.poisons.insert(Poison::UnresolvedSpawnTarget);
                        }
                    }
                    vec![(next, st)]
                }
                Some(syscalls::WRITE) => {
                    // WRITE reads the guest buffer [RSI, RSI+RDX).
                    let buf = st.get(Gpr::RSI);
                    let len = st.get(Gpr::RDX);
                    let addr = match (buf, len) {
                        (_, Val::Int(0, 0)) => None,
                        (Val::Int(bl, bh), Val::Int(_, lh)) => Some(
                            bh.checked_add(lh - 1).map(|h| Val::Int(bl, h)).unwrap_or(Val::Top),
                        ),
                        (Val::Stack(bl, bh), Val::Int(_, lh)) if lh <= i64::MAX as u64 => Some(
                            bh.checked_add(lh as i64 - 1)
                                .map(|h| Val::Stack(bl, h))
                                .unwrap_or(Val::Top),
                        ),
                        _ => Some(Val::Top),
                    };
                    if let Some(a) = addr {
                        record(&mut st, fx, inst, pc, AccessKind::Read, 1, a);
                    }
                    vec![(next, st)]
                }
                Some(_) => vec![(next, st)],
            }
        }
        Term::Bad => {
            fx.poisons.insert(Poison::BadBlock);
            vec![]
        }
    }
}

/// Pushes the return address for a call terminator (a real store).
fn push_ret(st: &mut State, pc: u64, ret: u64, inst: usize, fx: &mut BlockEffects) {
    let rsp = st.get(Gpr::RSP).add_disp(-8);
    let region = region_of(rsp, 8);
    fx.accesses.push(Access { inst, pc, kind: AccessKind::Write, width: 8, region });
    if matches!(region, Region::Wild | Region::Abs(..)) {
        smash_stack(st, region);
    }
    if let (Region::OwnStack(..), Val::Stack(o, o2)) = (region, rsp) {
        if o == o2 {
            st.stack.insert(o, Val::Int(ret, ret));
        }
    }
    st.set(Gpr::RSP, rsp);
}

/// [`Transfer`] impl driving [`exec_block`] over the recovered CFG, with
/// optional forced pins at refined loop heads.
struct Interp<'a> {
    bin: &'a GuestBinary,
    cfg: &'a Cfg,
    inst: usize,
    pins: BTreeMap<u64, State>,
    fx: BlockEffects,
}

impl Transfer for Interp<'_> {
    type State = State;
    fn flow(&mut self, node: u64, input: &State) -> Vec<(u64, State)> {
        let Some(block) = self.cfg.blocks.get(&node) else {
            self.fx.poisons.insert(Poison::MissingBlock);
            return vec![];
        };
        let mut out = exec_block(self.bin, block, input, self.inst, &mut self.fx);
        // Accesses recorded while *solving* are discarded; only the
        // final collection walk's records are kept.
        self.fx.accesses.clear();
        for (succ, st) in &mut out {
            if let Some(pin) = self.pins.get(succ) {
                *st = pin.clone();
            }
        }
        out
    }
}

/// A detected counted self-loop and its affine head pin.
struct LoopPin {
    head: u64,
    pin: State,
}

/// All sixteen registers in index order.
const GPRS: [Gpr; 16] = [
    Gpr::RAX,
    Gpr::RCX,
    Gpr::RDX,
    Gpr::RBX,
    Gpr::RSP,
    Gpr::RBP,
    Gpr::RSI,
    Gpr::RDI,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::R12,
    Gpr::R13,
    Gpr::R14,
    Gpr::R15,
];

/// Writes of an instruction to a register (including `RSP` updates).
fn writes_reg(insn: &Insn, r: Gpr) -> bool {
    match *insn {
        Insn::MovRI { dst, .. }
        | Insn::MovRR { dst, .. }
        | Insn::Load { dst, .. }
        | Insn::LoadB { dst, .. }
        | Insn::Lea { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::Fp { dst, .. } => dst == r,
        Insn::Pop { dst } => dst == r || r == Gpr::RSP,
        Insn::MulWide { .. } | Insn::Div { .. } => r == Gpr::RAX || r == Gpr::RDX,
        Insn::LockCmpxchg { .. } => r == Gpr::RAX,
        Insn::LockXadd { src, .. } => src == r,
        Insn::Syscall => r == Gpr::RAX,
        Insn::Push { .. } | Insn::Call { .. } | Insn::CallReg { .. } | Insn::Ret => r == Gpr::RSP,
        _ => false,
    }
}

/// Detects counted self-loops in `sol` and computes their forced pins.
///
/// Shape (the workload generator's `CountedLoop`): a single block `B`
/// whose conditional terminator targets its own start, ending
/// `sub c, 1; cmp c, 0; jne B`, where `c` is written nowhere else in
/// the block and enters the loop as a singleton `c₀ ≥ 1`. The loop body
/// is straight-line and runs exactly `c₀` times, so at head entry of
/// iteration `i ∈ [0, c₀)` every register whose per-iteration delta is
/// a syntactic constant `s` holds `entry + i·s`; the pin is the hull of
/// that family. Registers written any other way pin to ⊤.
fn detect_pins(cfg: &Cfg, entry: u64, entry_state: &State, sol: &Solution<State>) -> Vec<LoopPin> {
    let mut pins = Vec::new();
    for (&start, b) in &cfg.blocks {
        if !sol.inputs.contains_key(&start) {
            continue;
        }
        let Term::Cond { taken, fall } = b.term else { continue };
        if taken != start || fall == start {
            continue;
        }
        let n = b.insns.len();
        if n < 3 {
            continue;
        }
        let counter = match (b.insns[n - 3].insn, b.insns[n - 2].insn, b.insns[n - 1].insn) {
            (
                Insn::Alu { op: AluOp::Sub, dst: c, src: Operand::Imm(1) },
                Insn::Cmp { a, b: Operand::Imm(0) },
                Insn::Jcc { cond: Cond::Ne, .. },
            ) if a == c => c,
            _ => continue,
        };
        if b.insns[..n - 3].iter().any(|ci| writes_reg(&ci.insn, counter)) {
            continue;
        }
        // Entry state: join of edges into the head from outside the loop
        // (plus the instance entry state if the head is the entry).
        let mut ext: Option<State> = if start == entry { Some(entry_state.clone()) } else { None };
        for ((from, to), st) in &sol.edges {
            if *to == start && *from != start {
                match &mut ext {
                    Some(e) => {
                        e.join_from(st);
                    }
                    None => ext = Some(st.clone()),
                }
            }
        }
        let Some(ext) = ext else { continue };
        let Some(c0) = ext.get(counter).singleton() else { continue };
        if c0 == 0 || c0 > i64::MAX as u64 {
            continue;
        }
        // Per-register syntactic deltas over one iteration.
        let mut delta: [Option<i64>; 16] = [Some(0); 16];
        for ci in &b.insns[..n - 1] {
            match ci.insn {
                Insn::Alu { op: AluOp::Add, dst, src: Operand::Imm(k) } => {
                    if let Some(d) = delta[dst.index()] {
                        delta[dst.index()] = d.checked_add(k as i64);
                    }
                }
                Insn::Alu { op: AluOp::Sub, dst, src: Operand::Imm(k) } => {
                    if let Some(d) = delta[dst.index()] {
                        delta[dst.index()] = d.checked_sub(k as i64);
                    }
                }
                Insn::Lea { dst, base, disp } if dst == base => {
                    if let Some(d) = delta[dst.index()] {
                        delta[dst.index()] = d.checked_add(disp as i64);
                    }
                }
                ref other => {
                    for (i, slot) in delta.iter_mut().enumerate() {
                        if writes_reg(other, GPRS[i]) {
                            *slot = None;
                        }
                    }
                }
            }
        }
        let span = |s: i64| (s as i128) * (c0 as i128 - 1);
        let mut pin =
            State { regs: [Val::Top; 16], flags: FlagsAbs::Unknown, stack: BTreeMap::new() };
        for (slot, (&d, &e)) in pin.regs.iter_mut().zip(delta.iter().zip(&ext.regs)) {
            *slot = match (d, e) {
                (Some(0), v) => v,
                (Some(s), Val::Int(lo, hi)) => {
                    let l = lo as i128 + span(s).min(0);
                    let h = hi as i128 + span(s).max(0);
                    if l >= 0 && h <= u64::MAX as i128 {
                        Val::Int(l as u64, h as u64)
                    } else {
                        Val::Top
                    }
                }
                (Some(s), Val::Stack(lo, hi)) => {
                    let l = lo as i128 + span(s).min(0);
                    let h = hi as i128 + span(s).max(0);
                    if l >= i64::MIN as i128 && h <= i64::MAX as i128 {
                        Val::Stack(l as i64, h as i64)
                    } else {
                        Val::Top
                    }
                }
                _ => Val::Top,
            };
        }
        // Tracked stack slots survive the pin only if the loop body
        // provably never writes memory.
        let writes_mem = b.insns.iter().any(|ci| {
            matches!(
                ci.insn,
                Insn::Store { .. }
                    | Insn::StoreB { .. }
                    | Insn::Push { .. }
                    | Insn::Pop { .. }
                    | Insn::LockCmpxchg { .. }
                    | Insn::LockXadd { .. }
            )
        });
        if !writes_mem {
            pin.stack = ext.stack.clone();
        }
        pins.push(LoopPin { head: start, pin });
    }
    pins
}

/// Result of analyzing one instance.
struct InstanceResult {
    accesses: Vec<Access>,
    spawns: Vec<(u64, u64, Val)>,
    poisons: BTreeSet<Poison>,
    edges: BTreeSet<(u64, u64)>,
    refined: u32,
}

/// One core instance: the image's `cfg`, which every instance shares,
/// walked from the pc this one starts at.
fn analyze_instance(
    bin: &GuestBinary,
    cfg: &Cfg,
    entry: u64,
    inst: usize,
    arg: Val,
) -> InstanceResult {
    let entry_state = State::entry(arg);

    // Phase 1: plain widening solve.
    let mut interp = Interp { bin, cfg, inst, pins: BTreeMap::new(), fx: BlockEffects::default() };
    let sol1 = solve(&mut interp, &[(entry, entry_state.clone())], MAX_STEPS);
    let mut poisons = std::mem::take(&mut interp.fx.poisons);
    if sol1.hit_limit {
        poisons.insert(Poison::SolverLimit);
    }

    // Phases 2+3: counted-loop refinement, only on a clean phase 1.
    let mut refined = 0u32;
    let mut sol = sol1;
    if poisons.is_empty() {
        let pins = detect_pins(cfg, entry, &entry_state, &sol);
        if !pins.is_empty() {
            let n = pins.len() as u32;
            let mut interp3 = Interp {
                bin,
                cfg,
                inst,
                pins: pins.into_iter().map(|p| (p.head, p.pin)).collect(),
                fx: BlockEffects::default(),
            };
            let sol3 = solve(&mut interp3, &[(entry, entry_state.clone())], MAX_STEPS);
            let p1_edges: BTreeSet<(u64, u64)> = sol.edges.keys().copied().collect();
            let clean = interp3.fx.poisons.is_empty()
                && !sol3.hit_limit
                && sol3.edges.keys().all(|e| p1_edges.contains(e));
            if clean {
                sol = sol3;
                refined = n;
            }
        }
    }

    // Phase 4: deterministic collection walk over the fixpoint inputs.
    let mut fx = BlockEffects::default();
    for (&node, input) in &sol.inputs {
        if let Some(block) = cfg.blocks.get(&node) {
            exec_block(bin, block, input, inst, &mut fx);
        }
    }
    poisons.extend(fx.poisons.iter().copied());

    // Deduplicate spawn sites (a site interpreted in several walks still
    // spawns once per realized site).
    let mut seen = BTreeSet::new();
    let spawns: Vec<(u64, u64, Val)> =
        fx.spawns.into_iter().filter(|s| seen.insert((s.0, s.1))).collect();

    InstanceResult {
        accesses: fx.accesses,
        spawns,
        poisons,
        edges: sol.edges.keys().copied().collect(),
        refined,
    }
}

/// `true` when access ranges may refer to the same bytes. `same_core`
/// tells whether the two accesses can execute on the same core (own-
/// stack ranges only alias within one core).
fn ranges_meet(a: Region, b: Region, same_core: bool) -> bool {
    match (a, b) {
        (Region::Wild, _) | (_, Region::Wild) => true,
        (Region::Abs(al, ah), Region::Abs(bl, bh)) => al <= bh && bl <= ah,
        (Region::Abs(..), Region::OwnStack(..)) => a.stack_suspect(),
        (Region::OwnStack(..), Region::Abs(..)) => b.stack_suspect(),
        (Region::OwnStack(al, ah), Region::OwnStack(bl, bh)) => same_core && al <= bh && bl <= ah,
    }
}

/// Runs the whole-image escape analysis over a recovered CFG.
pub fn analyze(bin: &GuestBinary, cfg: &Cfg) -> ImageFacts {
    let mut poisons: BTreeSet<Poison> = BTreeSet::new();
    if cfg.unresolved {
        poisons.insert(Poison::UnresolvedIndirect);
    }

    // Instance discovery worklist. Entries are (entry pc, arg,
    // replicated, spawned_at); the root core has arg 0.
    struct Pending {
        entry: u64,
        arg: Val,
        replicated: bool,
        spawned_at: Option<u64>,
    }
    let mut queue: VecDeque<Pending> = VecDeque::from([Pending {
        entry: bin.entry,
        arg: Val::Int(0, 0),
        replicated: false,
        spawned_at: None,
    }]);
    let mut instances: Vec<InstanceInfo> = Vec::new();
    let mut all_accesses: Vec<(bool, Access)> = Vec::new(); // (replicated, access)
    let mut refined_loops = 0u32;

    while let Some(p) = queue.pop_front() {
        if instances.len() >= MAX_INSTANCES {
            poisons.insert(Poison::InstanceCap);
            break;
        }
        let inst = instances.len();
        instances.push(InstanceInfo {
            entry: p.entry,
            spawned_at: p.spawned_at,
            replicated: p.replicated,
        });
        let r = analyze_instance(bin, cfg, p.entry, inst, p.arg);
        poisons.extend(r.poisons.iter().copied());
        refined_loops += r.refined;
        for a in &r.accesses {
            all_accesses.push((p.replicated, *a));
        }
        for &(site_pc, target, arg) in &r.spawns {
            // A spawn site whose block can re-reach itself spawns an
            // unbounded family of cores: the child is replicated.
            let site_block =
                cfg.blocks.range(..=site_pc).next_back().map(|(&s, _)| s).unwrap_or(site_pc);
            let loops = reaches_itself(site_block, &r.edges);
            queue.push_back(Pending {
                entry: target,
                arg,
                replicated: p.replicated || loops,
                spawned_at: Some(site_pc),
            });
        }
    }

    // Classification: per (instance, pc) access, then meet across
    // instances at each pc.
    let mut sites: BTreeMap<u64, Site> = BTreeMap::new();
    for &(replicated_a, a) in all_accesses.iter() {
        let class = if a.kind == AccessKind::Atomic {
            SiteClass::Atomic
        } else {
            let conflicts = |other_core_only: bool| {
                all_accesses.iter().any(|&(_, b)| {
                    if other_core_only {
                        // Another core: a different instance, or this
                        // instance again if it stands for several cores.
                        let other = b.inst != a.inst || replicated_a;
                        if !other {
                            return false;
                        }
                        // Across cores, own stacks never alias. Any
                        // other-core access (even a read) defeats
                        // *exclusivity*; read-read sharing degrades to
                        // ReadOnly below, which is still relaxable.
                        ranges_meet(a.region, b.region, false)
                    } else {
                        // Any write anywhere (for read-only), including
                        // this access itself if it is a write.
                        if !matches!(b.kind, AccessKind::Write | AccessKind::Atomic) {
                            return false;
                        }
                        ranges_meet(a.region, b.region, b.inst == a.inst)
                    }
                })
            };
            if !conflicts(true) {
                SiteClass::Private
            } else if a.kind == AccessKind::Read && !conflicts(false) {
                SiteClass::ReadOnly
            } else {
                SiteClass::Shared
            }
        };
        let entry = sites.entry(a.pc).or_insert(Site {
            kind: a.kind,
            width: a.width,
            class,
            region: a.region,
        });
        // Meet across instances: any non-relaxable occurrence wins; a
        // Private/ReadOnly disagreement degrades to the weaker ReadOnly
        // only if both are relaxable, else Shared.
        entry.class = meet(entry.class, class);
        entry.width = entry.width.min(a.width);
        entry.region = region_join(entry.region, a.region);
    }

    ImageFacts { sites, poisons: poisons.into_iter().collect(), instances, refined_loops }
}

/// Meet of two per-instance classes at one site.
fn meet(a: SiteClass, b: SiteClass) -> SiteClass {
    use SiteClass::*;
    match (a, b) {
        (Atomic, _) | (_, Atomic) => Atomic,
        (Shared, _) | (_, Shared) => Shared,
        (Private, Private) => Private,
        // Private in one instance, ReadOnly in another: both relaxable,
        // keep the weaker claim.
        _ => ReadOnly,
    }
}

/// Can `block` reach itself over the realized edge set?
fn reaches_itself(block: u64, edges: &BTreeSet<(u64, u64)>) -> bool {
    let mut seen = BTreeSet::new();
    let mut work = vec![block];
    while let Some(n) = work.pop() {
        for &(f, t) in edges.range((n, 0)..=(n, u64::MAX)) {
            debug_assert_eq!(f, n);
            if t == block {
                return true;
            }
            if seen.insert(t) {
                work.push(t);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover;
    use risotto_guest_x86::{Assembler, GelfBuilder};

    fn facts(build: impl FnOnce(&mut GelfBuilder, &mut Vec<u64>)) -> (ImageFacts, Vec<u64>) {
        let mut b = GelfBuilder::new("main");
        let mut addrs = Vec::new();
        b.asm.label("main");
        build(&mut b, &mut addrs);
        let bin = b.finish().expect("valid image");
        let cfg = recover(&bin);
        (analyze(&bin, &cfg), addrs)
    }

    /// Helper: asm-only image.
    fn facts_asm(f: impl FnOnce(&mut Assembler)) -> ImageFacts {
        facts(|b, _| f(&mut b.asm)).0
    }

    #[test]
    fn single_core_private_store_and_load() {
        let (fx, addrs) = facts(|b, addrs| {
            let v = b.data_u64(&[7]);
            addrs.push(v);
            b.asm.mov_ri(Gpr::RBX, v);
            b.asm.mov_ri(Gpr::RAX, 1);
            b.asm.store(Gpr::RBX, 0, Gpr::RAX);
            b.asm.load(Gpr::RCX, Gpr::RBX, 0);
            b.asm.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        let _ = addrs;
        let classes: Vec<SiteClass> = fx.sites.values().map(|s| s.class).collect();
        assert_eq!(classes, vec![SiteClass::Private, SiteClass::Private]);
        for &pc in fx.sites.keys() {
            assert!(fx.relaxable(pc));
        }
    }

    #[test]
    fn disjoint_worker_slices_are_private_but_flag_is_shared() {
        // main spawns two workers with args 0 and 1; each stores to
        // out[arg] (disjoint 8-byte slots) and then xadds a shared flag.
        let (fx, addrs) = facts(|b, addrs| {
            let out = b.data_zeroed(16);
            let flag = b.data_u64(&[0]);
            addrs.push(out);
            addrs.push(flag);
            let a = &mut b.asm;
            for i in 0..2u64 {
                a.mov_ri(Gpr::RAX, syscalls::SPAWN);
                a.mov_label(Gpr::RDI, "worker");
                a.mov_ri(Gpr::RSI, i);
                a.syscall();
            }
            a.hlt();
            a.label("worker");
            // addr = out + rdi*8
            a.mov_rr(Gpr::RBX, Gpr::RDI);
            a.alu_ri(AluOp::Mul, Gpr::RBX, 8);
            a.alu_ri(AluOp::Add, Gpr::RBX, out);
            a.mov_ri(Gpr::RCX, 42);
            a.store(Gpr::RBX, 0, Gpr::RCX);
            a.mov_ri(Gpr::RDX, flag);
            a.mov_ri(Gpr::RCX, 1);
            a.insn(Insn::LockXadd { base: Gpr::RDX, disp: 0, src: Gpr::RCX });
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        assert_eq!(fx.instances.len(), 3);
        let _ = addrs;
        let mut store_class = None;
        let mut atomic_class = None;
        for s in fx.sites.values() {
            match s.kind {
                AccessKind::Write => store_class = Some(s.class),
                AccessKind::Atomic => atomic_class = Some(s.class),
                _ => {}
            }
        }
        assert_eq!(store_class, Some(SiteClass::Private), "disjoint slices are private");
        assert_eq!(atomic_class, Some(SiteClass::Atomic));
    }

    #[test]
    fn read_only_input_is_relaxable_shared_output_is_not() {
        // Both workers read in[0] (never written) and store to the SAME
        // output slot.
        let (fx, _) = facts(|b, _| {
            let inp = b.data_u64(&[5]);
            let out = b.data_u64(&[0]);
            let a = &mut b.asm;
            for i in 0..2u64 {
                a.mov_ri(Gpr::RAX, syscalls::SPAWN);
                a.mov_label(Gpr::RDI, "worker");
                a.mov_ri(Gpr::RSI, i);
                a.syscall();
            }
            a.hlt();
            a.label("worker");
            a.mov_ri(Gpr::RBX, inp);
            a.load(Gpr::RCX, Gpr::RBX, 0);
            a.mov_ri(Gpr::RBX, out);
            a.store(Gpr::RBX, 0, Gpr::RCX);
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        let mut saw_ro = false;
        let mut saw_shared = false;
        for s in fx.sites.values() {
            match s.kind {
                AccessKind::Read => {
                    assert_eq!(s.class, SiteClass::ReadOnly);
                    saw_ro = true;
                }
                AccessKind::Write => {
                    assert_eq!(s.class, SiteClass::Shared);
                    saw_shared = true;
                }
                _ => {}
            }
        }
        assert!(saw_ro && saw_shared);
    }

    #[test]
    fn counted_loop_pointer_walk_is_refined_and_private() {
        // A single-core counted loop striding an 80-byte private array:
        // without refinement the pointer widens to ⊤ (wild).
        let (fx, _) = facts(|b, _| {
            let arr = b.data_zeroed(80);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, arr);
            a.mov_ri(Gpr::RCX, 10);
            a.label("loop");
            a.mov_ri(Gpr::RAX, 3);
            a.store(Gpr::RBX, 0, Gpr::RAX);
            a.alu_ri(AluOp::Add, Gpr::RBX, 8);
            a.alu_ri(AluOp::Sub, Gpr::RCX, 1);
            a.cmp_ri(Gpr::RCX, 0);
            a.jcc_to(Cond::Ne, "loop");
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        assert_eq!(fx.refined_loops, 1);
        let store = fx.sites.values().find(|s| s.kind == AccessKind::Write).unwrap();
        assert_eq!(store.class, SiteClass::Private);
    }

    #[test]
    fn own_stack_traffic_is_private_and_calls_resolve() {
        let fx = facts_asm(|a| {
            a.mov_ri(Gpr::RAX, 11);
            a.push(Gpr::RAX);
            a.call_to("f");
            a.pop(Gpr::RBX);
            a.hlt();
            a.label("f");
            a.mov_ri(Gpr::RDX, 1);
            a.ret();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        for s in fx.sites.values() {
            assert_eq!(s.class, SiteClass::Private, "stack access must be private: {s:?}");
        }
        // push + call-push + ret-pop + pop = 4 sites.
        assert_eq!(fx.sites.len(), 4);
    }

    #[test]
    fn wild_store_poisons_nothing_but_shares_everything() {
        // A worker stores through a ⊤ pointer (loaded from memory): it
        // conflicts with every access of every other core, including
        // main's otherwise-private store.
        let (fx, _) = facts(|b, _| {
            let cell = b.data_u64(&[0x1234]);
            let other = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RAX, syscalls::SPAWN);
            a.mov_label(Gpr::RDI, "worker");
            a.mov_ri(Gpr::RSI, 0);
            a.syscall();
            a.mov_ri(Gpr::RDX, other);
            a.mov_ri(Gpr::RAX, 9);
            a.store(Gpr::RDX, 0, Gpr::RAX);
            a.hlt();
            a.label("worker");
            a.mov_ri(Gpr::RBX, cell);
            a.load(Gpr::RCX, Gpr::RBX, 0); // RCX = ⊤
            a.mov_ri(Gpr::RAX, 9);
            a.store(Gpr::RCX, 0, Gpr::RAX); // wild write
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        for s in fx.sites.values() {
            if s.kind == AccessKind::Write {
                assert_eq!(s.class, SiteClass::Shared);
            }
        }
    }

    #[test]
    fn single_core_wild_store_stays_private() {
        // With no spawn sites there is no other core to conflict with:
        // even a ⊤-pointer store is core-private.
        let (fx, _) = facts(|b, _| {
            let cell = b.data_u64(&[0x1234]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.load(Gpr::RCX, Gpr::RBX, 0); // RCX = ⊤
            a.mov_ri(Gpr::RAX, 9);
            a.store(Gpr::RCX, 0, Gpr::RAX);
            a.hlt();
        });
        assert!(!fx.poisoned());
        let store = fx.sites.values().find(|s| s.kind == AccessKind::Write).unwrap();
        assert_eq!(store.class, SiteClass::Private);
    }

    #[test]
    fn unresolved_ret_poisons_image() {
        let fx = facts_asm(|a| {
            a.ret(); // pops from an empty tracked stack
        });
        assert!(fx.poisons.contains(&Poison::UnresolvedRet));
        assert!(!fx.relaxable(TEXT_BASE));
    }

    #[test]
    fn unknown_syscall_number_poisons_image() {
        let (fx, _) = facts(|b, _| {
            let cell = b.data_u64(&[3]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.load(Gpr::RAX, Gpr::RBX, 0); // RAX = ⊤
            a.syscall();
            a.hlt();
        });
        assert!(fx.poisons.contains(&Poison::UnknownSyscall));
    }

    #[test]
    fn replicated_spawn_in_loop_defeats_privacy() {
        // One spawn site inside a counted loop: the child instance is
        // replicated, so its core-indexed-looking (but here constant)
        // store conflicts with its sibling copies.
        let (fx, _) = facts(|b, _| {
            let out = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RCX, 2);
            a.label("spawnloop");
            a.mov_ri(Gpr::RAX, syscalls::SPAWN);
            a.mov_label(Gpr::RDI, "worker");
            a.mov_rr(Gpr::RSI, Gpr::RCX);
            a.syscall();
            a.alu_ri(AluOp::Sub, Gpr::RCX, 1);
            a.cmp_ri(Gpr::RCX, 0);
            a.jcc_to(Cond::Ne, "spawnloop");
            a.hlt();
            a.label("worker");
            a.mov_ri(Gpr::RBX, out);
            a.mov_ri(Gpr::RAX, 1);
            a.store(Gpr::RBX, 0, Gpr::RAX);
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        let worker = fx.instances.iter().find(|i| i.spawned_at.is_some()).unwrap();
        assert!(worker.replicated);
        let store = fx.sites.values().find(|s| s.kind == AccessKind::Write).unwrap();
        assert_eq!(store.class, SiteClass::Shared);
    }

    #[test]
    fn write_syscall_buffer_counts_as_a_read() {
        // Worker 0 WRITEs a buffer that worker 1 stores into: the store
        // must not be private.
        let (fx, _) = facts(|b, _| {
            let buf = b.data_u64(&[0]);
            let a = &mut b.asm;
            for i in 0..2u64 {
                a.mov_ri(Gpr::RAX, syscalls::SPAWN);
                a.mov_label(Gpr::RDI, if i == 0 { "writer" } else { "storer" });
                a.mov_ri(Gpr::RSI, i);
                a.syscall();
            }
            a.hlt();
            a.label("writer");
            a.mov_ri(Gpr::RAX, syscalls::WRITE);
            a.mov_ri(Gpr::RDI, 1);
            a.mov_ri(Gpr::RSI, buf);
            a.mov_ri(Gpr::RDX, 8);
            a.syscall();
            a.hlt();
            a.label("storer");
            a.mov_ri(Gpr::RBX, buf);
            a.mov_ri(Gpr::RAX, 1);
            a.store(Gpr::RBX, 0, Gpr::RAX);
            a.hlt();
        });
        assert!(!fx.poisoned(), "poisons: {:?}", fx.poisons);
        let store = fx.sites.values().find(|s| s.kind == AccessKind::Write).unwrap();
        assert_eq!(store.class, SiteClass::Shared);
    }
}
