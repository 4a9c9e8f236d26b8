//! Liveness analysis and the deterministic block-scoped register
//! allocator behind the TCG→MiniArm backend.
//!
//! The allocator manages one unified *value* space per block: TCG temps
//! (`0..n_temps`) and — in DBT mode — the guest env registers
//! (`n_temps..n_temps + env::COUNT`). A liveness prepass lists every
//! operand (op index, with `ops.len()` standing for the block exit) and
//! marks each, in one backward walk, with its value's next read and
//! whether the value dies there. During lowering the allocator keeps
//! values in the host register pool and:
//!
//! * serves `GetReg` by *aliasing* the destination temp to the pinned
//!   env value — no code at all; the env slot is `LDR`-ed once on the
//!   first actual read and the value stays resident across the whole
//!   TB. Aliases are broken — materialized into their own register —
//!   only when the env register is overwritten while the alias is still
//!   live, which real frontend IR almost never does;
//! * turns `SetReg` into a *dirty* bit: when the source temp dies at
//!   the write (the common compute-into-fresh-temp pattern) its
//!   register is transferred to the env value outright, otherwise one
//!   register move remains. The env `STR` is deferred to the next flush
//!   point (the block exit, `CallHelper`, `Cas`/exclusive sequences),
//!   so the interpreter and fault-fallback paths always observe a
//!   coherent env while straight-line code pays no store traffic. The
//!   *final* write to an env register in a block
//!   stores the source directly instead — deferring it would only
//!   prepend a register copy to the same `STR`;
//! * treats `MovI` as a zero-cost constant definition: the `MOV`
//!   immediate is emitted at the first read, equal constants in one
//!   block share a single host register (flag materialization makes
//!   duplicate 0/1 immediates ubiquitous), and constants are
//!   rematerialized under pressure rather than spilled;
//! * spills under pressure with a true Belady (furthest *next use*)
//!   policy over the precomputed read positions, preferring store-free
//!   victims among equals and breaking remaining ties on the lowest
//!   value id — every decision is over dense arrays in a fixed order,
//!   so the same IR always lowers to bit-identical host code.
//!
//! Temps spill to `SPILL_BASE + 8·temp`; env values write back to their
//! home slot `ENV_BASE + 8·reg`. Both regions are host-private: the
//! encoding verifier (Pass 3) filters them out of the ordering-point
//! stream and separately checks that every deferred env write-back lands
//! before the exit anchor that could observe it.

use crate::backend::{BackendError, HostAsm, ENV_BASE, SPILL_BASE};
use crate::insn::{HostInsn, MemOrder, Xreg};
use risotto_tcg::{env, reset, TbExit, TcgBlock, TcgOp, Temp};

/// Per-block register-allocation statistics, summed by the engine into
/// the `regalloc.*` metrics (docs/METRICS.md).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Env-area `LDR`s emitted (first-use fills and post-eviction
    /// refills). Naive per-op codegen emits one per `GetReg`.
    pub env_loads: u64,
    /// Env-area `STR`s emitted (deferred write-backs at flush points
    /// plus dirty evictions). Naive codegen emits one per `SetReg`.
    pub env_stores: u64,
    /// `GetReg` ops served from an already-pinned host register — each
    /// one is an env `LDR` the allocator eliminated.
    pub env_loads_eliminated: u64,
    /// `SetReg` ops whose write-back was coalesced into a deferred
    /// flush — each one is an env `STR` the allocator eliminated.
    pub env_stores_eliminated: u64,
    /// Temp values stored to the spill area under register pressure.
    pub spills: u64,
    /// Temp values reloaded from the spill area.
    pub reloads: u64,
    /// Distinct guest env registers pinned in host registers for at
    /// least part of the block.
    pub pinned_regs: u64,
}

impl std::ops::AddAssign for AllocStats {
    fn add_assign(&mut self, rhs: AllocStats) {
        self.env_loads += rhs.env_loads;
        self.env_stores += rhs.env_stores;
        self.env_loads_eliminated += rhs.env_loads_eliminated;
        self.env_stores_eliminated += rhs.env_stores_eliminated;
        self.spills += rhs.spills;
        self.reloads += rhs.reloads;
        self.pinned_regs += rhs.pinned_regs;
    }
}

/// One operand of one op (or of the block exit): a read or a write of a
/// value at a position — the op index, `ops.len()` for the exit.
#[derive(Debug, Clone, Copy)]
struct Operand {
    /// The value id. The forward walk records an env value as
    /// [`ENV_TAG`]` | reg` (the temp bound is not known yet); the
    /// backward walk rewrites it to `n_temps + reg`.
    v: u32,
    pos: u32,
    /// For a read: the index in [`Liveness::operands`] of `v`'s next
    /// read ([`NO_READ`] when this is its last).
    next_read: u32,
    read: bool,
    /// The value's last reference in the block: its register is free
    /// once this position is lowered.
    dies: bool,
}

/// Marks an env register number in [`Operand::v`] during the forward
/// walk.
const ENV_TAG: u32 = 1 << 31;

/// End of a read chain.
const NO_READ: u32 = u32::MAX;

/// Per-operand next-use and death marks of every value in a block, in
/// flat tables that are recomputed — never reallocated — per block.
#[derive(Debug, Default)]
struct Liveness {
    /// Number of temp values: one past the highest temp the block
    /// mentions (ops' defs and uses, the exit) and never less than
    /// `n_temps`, so temp ids beyond an under-reporting `n_temps` are
    /// representable — the backend must not rely on the IR lint having
    /// run.
    n_temps: usize,
    /// Every operand in position order; position `p`'s are
    /// `operands[start[p]..start[p + 1]]`.
    operands: Vec<Operand>,
    start: Vec<u32>,
    /// value id → its first read in `operands` ([`NO_READ`] = never
    /// read); the reads of a value chain on through
    /// [`Operand::next_read`] in position order.
    first_read: Vec<u32>,
    /// value id → last position referencing the value (read or write);
    /// [`UNREFERENCED`] for a value the block never mentions.
    last_ref: Vec<usize>,
    /// temp → the env register it aliases and that register's write
    /// generation when the alias formed (forward walk only).
    alias: Vec<Option<(u8, u32)>>,
}

/// [`Liveness::last_ref`] of a value no op and no exit mentions. Such a
/// value is never resident, so nothing ever compares its entry.
const UNREFERENCED: usize = usize::MAX;

impl Liveness {
    /// Two walks. The forward one lists every operand and resolves
    /// `GetReg` aliases, which only a forward walk can: an alias lives
    /// until its temp is redefined or its register is overwritten by
    /// anything but a copy of itself. It finds the temp bound on the
    /// way. The backward one, in the shape of QEMU's `liveness_pass_1`,
    /// leaves on each operand its value's next read and whether the
    /// value dies there.
    fn compute(&mut self, block: &TcgBlock, manage_env: bool) {
        reset(&mut self.alias, block.n_temps as usize, None);
        self.operands.clear();
        self.start.clear();
        // `alias` mirrors the allocator's GetReg aliasing: while a temp
        // aliases an env value, its reads are the env value's reads (the
        // deferred pin fill happens at the first such read). The chain
        // breaks when the temp is redefined or the env register is
        // overwritten — exactly as it will during lowering, so the
        // next-use information the Belady policy sees is exact. A write
        // bumps the register's generation, which breaks every alias to
        // it at once.
        let mut w = ForwardWalk { live: self, env_gen: [0; env::COUNT] };
        for (i, op) in block.ops.iter().enumerate() {
            w.live.start.push(w.live.operands.len() as u32);
            // One match per op for its reads (the order of an op's
            // operands is immaterial: they share a position) and the
            // temp it defines.
            let def = match op {
                TcgOp::MovI { dst, .. } => Some(*dst),
                TcgOp::GetReg { dst, reg } if manage_env => {
                    let t = w.cover(*dst);
                    w.live.alias[t] = Some((*reg, w.env_gen[*reg as usize]));
                    w.note(t as u32, i, false);
                    continue;
                }
                TcgOp::GetReg { dst, .. } => Some(*dst),
                TcgOp::SetReg { reg, src } => {
                    w.read(*src, i);
                    if manage_env {
                        // A self-copy (`src` aliases this very register)
                        // leaves the value unchanged: aliases survive.
                        if w.live_alias(*src) != Some(*reg) {
                            w.env_gen[*reg as usize] += 1;
                        }
                        w.note(ENV_TAG | u32::from(*reg), i, false);
                    }
                    None
                }
                TcgOp::Mov { dst, src: a }
                | TcgOp::Ld { dst, addr: a }
                | TcgOp::Ld8 { dst, addr: a } => {
                    w.read(*a, i);
                    Some(*dst)
                }
                TcgOp::St { addr: a, src: b } | TcgOp::St8 { addr: a, src: b } => {
                    w.read(*a, i);
                    w.read(*b, i);
                    None
                }
                TcgOp::Bin { dst, a, b, .. }
                | TcgOp::Setcond { dst, a, b, .. }
                | TcgOp::AtomicAdd { dst, addr: a, val: b } => {
                    w.read(*a, i);
                    w.read(*b, i);
                    Some(*dst)
                }
                TcgOp::Cas { dst, addr, expect, new } => {
                    w.read(*addr, i);
                    w.read(*expect, i);
                    w.read(*new, i);
                    Some(*dst)
                }
                TcgOp::Fence(_) => None,
                TcgOp::CallHelper { args, ret, .. } => {
                    args.iter().for_each(|a| w.read(*a, i));
                    *ret
                }
            };
            if let Some(d) = def {
                let t = w.cover(d);
                w.note(t as u32, i, false);
                w.live.alias[t] = None;
            }
        }
        let exit_pos = block.ops.len();
        w.live.start.push(w.live.operands.len() as u32);
        if let TbExit::JumpReg(t) | TbExit::CondJump { flag: t, .. } = &block.exit {
            w.read(*t, exit_pos);
        }
        w.live.start.push(w.live.operands.len() as u32);

        // Backward: the first reference met is a value's last.
        self.n_temps = self.alias.len();
        let n_values = self.n_temps + if manage_env { env::COUNT } else { 0 };
        reset(&mut self.last_ref, n_values, UNREFERENCED);
        reset(&mut self.first_read, n_values, NO_READ);
        for k in (0..self.operands.len()).rev() {
            let o = &mut self.operands[k];
            if o.v & ENV_TAG != 0 {
                o.v = (self.n_temps as u32) + (o.v & !ENV_TAG);
            }
            let v = o.v as usize;
            if self.last_ref[v] == UNREFERENCED {
                self.last_ref[v] = o.pos as usize;
                o.dies = true;
            }
            if o.read {
                o.next_read = std::mem::replace(&mut self.first_read[v], k as u32);
            }
        }
    }

    /// Sorted read positions of value `v`.
    #[cfg(test)]
    fn reads(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut k = self.first_read[v];
        while k != NO_READ {
            out.push(self.operands[k as usize].pos as usize);
            k = self.operands[k as usize].next_read;
        }
        out
    }

    /// The values last referenced at position `at`.
    #[cfg(test)]
    fn dying_at(&self, at: usize) -> Vec<usize> {
        let at = self.start[at] as usize..self.start[at + 1] as usize;
        self.operands[at].iter().filter(|o| o.dies).map(|o| o.v as usize).collect()
    }
}

/// The state of [`Liveness::compute`]'s forward walk.
struct ForwardWalk<'a> {
    live: &'a mut Liveness,
    /// env register → write generation (see [`Liveness::alias`]).
    env_gen: [u32; env::COUNT],
}

impl ForwardWalk<'_> {
    /// Grows the temp-indexed table to cover `t`: its final length is
    /// the temp bound.
    fn cover(&mut self, t: Temp) -> usize {
        let t = t.0 as usize;
        if t >= self.live.alias.len() {
            self.live.alias.resize(t + 1, None);
        }
        t
    }

    fn note(&mut self, v: u32, at: usize, read: bool) {
        let pos = at as u32;
        self.live.operands.push(Operand { v, pos, next_read: NO_READ, read, dies: false });
    }

    /// The env register `t` aliases right now, if any.
    fn live_alias(&self, t: Temp) -> Option<u8> {
        let a = self.live.alias.get(t.0 as usize).copied().flatten();
        a.filter(|&(reg, gen)| self.env_gen[reg as usize] == gen).map(|(reg, _)| reg)
    }

    /// A read of `t` at `at`, and of the env value it aliases.
    fn read(&mut self, t: Temp, at: usize) {
        let v = self.cover(t);
        self.note(v as u32, at, true);
        if let Some(reg) = self.live_alias(t) {
            self.note(ENV_TAG | u32::from(reg), at, true);
        }
    }
}

/// What the allocator tracks per value (the temp-only fields stay at
/// their defaults for env values).
#[derive(Debug, Clone, Copy, Default)]
struct ValueState {
    /// Currently assigned host register.
    loc: Option<Xreg>,
    /// The register copy is newer than the value's memory home.
    dirty: bool,
    /// The temp has been defined (in a register or its slot).
    defined: bool,
    /// The temp's spill slot holds the current value.
    in_slot: bool,
    /// The env value the temp currently aliases (set by `GetReg`,
    /// broken by redefinition of either side).
    alias: Option<usize>,
    /// The value is a known constant (`MovI`, possibly propagated
    /// through `Mov`). Constant temps are rematerialized with a 1-cycle
    /// `MovImm` instead of being spilled/reloaded, and equal constants
    /// share one host register.
    const_val: Option<u64>,
    /// Monotone cursor along the value's read chain (next-use scan):
    /// an index into `live.operands`, or [`NO_READ`].
    cursor: u32,
}

/// The allocator's reusable per-block tables ([`Liveness`] and the
/// per-value state), owned by the backend's lowering scratch.
/// [`Allocator::new`] re-initializes every one of them, so no block sees
/// what the previous one — finished or abandoned on an error — left.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    live: Liveness,
    /// value id → its allocation state.
    val: Vec<ValueState>,
    /// Every alias `GetReg` formed, as `(temp, next)` links of one
    /// chain per env register (see [`Allocator::alias_head`]).
    alias_links: Vec<(usize, usize)>,
    /// The temps `write_env` found aliasing the register it overwrites.
    aliasing: Vec<usize>,
}

/// The deterministic block-scoped allocator (see the module docs).
#[derive(Debug)]
pub(crate) struct Allocator<'a> {
    s: &'a mut AllocScratch,
    pool: &'static [Xreg],
    /// Whether env registers participate (false in native/direct mode).
    manage_env: bool,
    /// host register number → value id held.
    holder: [Option<usize>; 32],
    /// Bit per host register number: a pool register no value holds.
    free: u32,
    /// host register number → constant the register is known to hold
    /// right now. Maintained at every instruction that writes a pool
    /// register; rebinding alone never changes register contents, so
    /// the knowledge survives ownership transfers and evictions.
    reg_const: [Option<u64>; 32],
    /// Bit per host register number whose `reg_const` entry is known.
    const_known: u32,
    /// env index → head of the chain in `alias_links` of the temps that
    /// aliased the register since it was last overwritten
    /// ([`NO_LINK`] = none). Links whose temp has moved on are skipped
    /// when the chain is read.
    alias_head: [usize; env::COUNT],
    /// Bit per env index: dead (past its last reference) but still
    /// resident, because its deferred write-back was owed when it died.
    dead_dirty: u32,
    /// env index → was ever pinned in a host register.
    pinned: [bool; env::COUNT],
    stats: AllocStats,
}

/// End of an alias chain.
const NO_LINK: usize = usize::MAX;

impl<'a> Allocator<'a> {
    pub(crate) fn new(
        block: &TcgBlock,
        pool: &'static [Xreg],
        manage_env: bool,
        s: &'a mut AllocScratch,
    ) -> Allocator<'a> {
        s.live.compute(block, manage_env);
        s.val.clear();
        s.val.extend(
            (s.live.first_read.iter())
                .map(|&first_read| ValueState { cursor: first_read, ..ValueState::default() }),
        );
        s.alias_links.clear();
        debug_assert!(pool.windows(2).all(|w| w[0].0 < w[1].0), "pool in register order");
        Allocator {
            s,
            pool,
            manage_env,
            holder: [None; 32],
            free: pool.iter().fold(0, |free, r| free | 1 << r.0),
            reg_const: [None; 32],
            const_known: 0,
            alias_head: [NO_LINK; env::COUNT],
            dead_dirty: 0,
            pinned: [false; env::COUNT],
            stats: AllocStats::default(),
        }
    }

    fn is_env(&self, v: usize) -> bool {
        v >= self.s.live.n_temps
    }

    /// First read position of `v` at or after `idx` (`usize::MAX` when
    /// the value is never read again).
    fn next_use(&mut self, v: usize, idx: usize) -> usize {
        let ops = &self.s.live.operands;
        let c = &mut self.s.val[v].cursor;
        while *c != NO_READ && (ops[*c as usize].pos as usize) < idx {
            *c = ops[*c as usize].next_read;
        }
        if *c != NO_READ {
            ops[*c as usize].pos as usize
        } else {
            usize::MAX
        }
    }

    fn bind(&mut self, r: Xreg, v: usize) {
        self.s.val[v].loc = Some(r);
        self.holder[r.0 as usize] = Some(v);
        self.free &= !(1 << r.0);
    }

    /// Records what `r` is known to hold after a write to it.
    fn set_const(&mut self, r: Xreg, c: Option<u64>) {
        self.reg_const[r.0 as usize] = c;
        let bit = 1 << r.0;
        self.const_known =
            if c.is_some() { self.const_known | bit } else { self.const_known & !bit };
    }

    /// Frees `r` (its value's `loc` is the caller's to update).
    fn release(&mut self, r: Xreg) {
        self.holder[r.0 as usize] = None;
        self.free |= 1 << r.0;
    }

    fn unbind(&mut self, v: usize) {
        if let Some(r) = self.s.val[v].loc.take() {
            self.s.val[v].dirty = false;
            self.release(r);
        }
    }

    /// Frees the registers of values that died at the previous position
    /// (`idx` is the op about to be lowered; a value is dead past its
    /// last reference). Dirty env values survive — their deferred
    /// write-back is still owed — and go once a flush has paid it.
    pub(crate) fn free_dead(&mut self, idx: usize) {
        let mut owed = self.dead_dirty;
        while owed != 0 {
            let reg = owed.trailing_zeros() as usize;
            owed &= owed - 1;
            let v = self.s.live.n_temps + reg;
            if !self.s.val[v].dirty {
                self.dead_dirty &= !(1 << reg);
                self.unbind(v);
            }
        }
        let Some(prev) = idx.checked_sub(1) else { return };
        let (from, to) = (self.s.live.start[prev], self.s.live.start[prev + 1]);
        for k in from as usize..to as usize {
            let o = self.s.live.operands[k];
            if !o.dies {
                continue;
            }
            let v = o.v as usize;
            if self.is_env(v) && self.s.val[v].dirty {
                self.dead_dirty |= 1 << (v - self.s.live.n_temps);
            } else {
                self.unbind(v);
            }
        }
    }

    /// Evicts `v` from `r`, storing it to its memory home if that home
    /// is stale (env: dirty write-back; temp: spill).
    fn evict(&mut self, asm: &mut HostAsm, r: Xreg, v: usize) {
        if self.is_env(v) {
            if self.s.val[v].dirty {
                let reg = (v - self.s.live.n_temps) as i32;
                asm.push(HostInsn::Str {
                    src: r,
                    base: ENV_BASE,
                    off: reg * 8,
                    order: MemOrder::Plain,
                });
                self.stats.env_stores += 1;
                self.s.val[v].dirty = false;
            }
        } else if !self.s.val[v].in_slot && self.s.val[v].const_val.is_none() {
            // Known constants are rematerialized by `MovImm` on the
            // next read — cheaper than a spill/reload round trip.
            asm.push(HostInsn::Str {
                src: r,
                base: SPILL_BASE,
                off: v as i32 * 8,
                order: MemOrder::Plain,
            });
            self.stats.spills += 1;
            self.s.val[v].in_slot = true;
            self.s.val[v].dirty = false;
        }
        self.s.val[v].loc = None;
        self.release(r);
    }

    /// Claims a register: the first free pool register in pool order,
    /// else the Belady victim — furthest next use, store-free preferred
    /// among equals, lowest value id as the final (deterministic)
    /// tie-break.
    fn take_reg(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        // The pool is in register order, so its first free register is
        // the lowest free bit.
        let free = forbid.iter().fold(self.free, |free, r| free & !(1 << r.0));
        if free != 0 {
            return Ok(Xreg(free.trailing_zeros() as u8));
        }
        let mut best: Option<(Xreg, usize, usize, bool)> = None;
        for &r in self.pool {
            if forbid.contains(&r) {
                continue;
            }
            let Some(v) = self.holder[r.0 as usize] else { continue };
            let nu = self.next_use(v, idx);
            let store_free = if self.is_env(v) {
                !self.s.val[v].dirty
            } else {
                self.s.val[v].in_slot || self.s.val[v].const_val.is_some()
            };
            let better = match best {
                None => true,
                Some((_, bv, bnu, bfree)) => {
                    nu > bnu
                        || (nu == bnu
                            && ((store_free && !bfree) || (store_free == bfree && v < bv)))
                }
            };
            if better {
                best = Some((r, v, nu, store_free));
            }
        }
        let (r, v, _, _) = best.ok_or(BackendError::RegisterPressure { at_op })?;
        self.evict(asm, r, v);
        Ok(r)
    }

    /// Register holding temp `t`: the aliased env value's register for
    /// `GetReg` results, a spill-slot reload otherwise. A temp that was
    /// never defined is a typed error — the backend must not silently
    /// reload garbage even when the IR lint did not run.
    pub(crate) fn read_temp(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        t: Temp,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        let v = t.0 as usize;
        if let Some(ev) = self.s.val[v].alias {
            // Aliased temps live in the env value's register; a missing
            // residence means the env value was evicted (its slot is
            // current — dirty values are never unbound) and refills here.
            let reg = (ev - self.s.live.n_temps) as u8;
            return self.read_env(asm, idx, at_op, reg, forbid);
        }
        if let Some(c) = self.s.val[v].const_val {
            // Constants share registers: any pool register already known
            // to hold these bits serves the read (ownership unchanged —
            // register contents only change at writes, and the caller's
            // forbid list protects the register for the whole op). The
            // first such register in pool order is the lowest one.
            let mut known = forbid.iter().fold(self.const_known, |m, r| m & !(1 << r.0));
            while known != 0 {
                let r = known.trailing_zeros() as usize;
                if self.reg_const[r] == Some(c) {
                    return Ok(Xreg(r as u8));
                }
                known &= known - 1;
            }
            let r = self.take_reg(asm, idx, at_op, forbid)?;
            asm.push(HostInsn::MovImm { dst: r, imm: c });
            self.set_const(r, Some(c));
            self.bind(r, v);
            return Ok(r);
        }
        if let Some(r) = self.s.val[v].loc {
            return Ok(r);
        }
        if !self.s.val[v].defined {
            return Err(BackendError::UndefinedTemp { temp: t.0, at_op });
        }
        let r = self.take_reg(asm, idx, at_op, forbid)?;
        asm.push(HostInsn::Ldr {
            dst: r,
            base: SPILL_BASE,
            off: v as i32 * 8,
            order: MemOrder::Plain,
        });
        self.stats.reloads += 1;
        self.s.val[v].dirty = false;
        self.set_const(r, None);
        self.bind(r, v);
        Ok(r)
    }

    /// Register for (re)defining temp `t` — no reload, breaks any env
    /// alias (the redefinition overwrites the whole value).
    pub(crate) fn def_temp(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        t: Temp,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        let v = t.0 as usize;
        self.s.val[v].alias = None;
        self.s.val[v].const_val = None;
        let r = match self.s.val[v].loc {
            Some(r) => r,
            None => {
                let r = self.take_reg(asm, idx, at_op, forbid)?;
                self.bind(r, v);
                r
            }
        };
        self.s.val[v].defined = true;
        self.s.val[v].dirty = true;
        self.s.val[v].in_slot = false;
        // The caller writes `r` next; whatever constant it held is gone.
        self.set_const(r, None);
        Ok(r)
    }

    /// Lowers `MovI { dst, val }`: records the constant and emits
    /// nothing. The value is materialized (`MovImm`) at its first read,
    /// shares a register with any other value holding the same bits,
    /// and is rematerialized rather than spilled under pressure.
    pub(crate) fn def_const(&mut self, dst: Temp, val: u64) {
        let v = dst.0 as usize;
        // MovI (re)defines dst: drop any register or alias it held (the
        // old register still holds its old bits — no write happened).
        if let Some(r) = self.s.val[v].loc {
            self.release(r);
            self.s.val[v].loc = None;
        }
        self.s.val[v].alias = None;
        self.s.val[v].const_val = Some(val);
        self.s.val[v].defined = true;
        self.s.val[v].dirty = false;
        self.s.val[v].in_slot = false;
    }

    /// The constant a temp is currently known to hold, if any.
    pub(crate) fn const_of(&self, t: Temp) -> Option<u64> {
        self.s.val[t.0 as usize].const_val
    }

    /// Register holding guest env register `reg`, `LDR`-ing its env
    /// slot on first use (the pin fill).
    pub(crate) fn read_env(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        reg: u8,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        debug_assert!(self.manage_env);
        let v = self.s.live.n_temps + reg as usize;
        if let Some(r) = self.s.val[v].loc {
            return Ok(r);
        }
        let r = self.take_reg(asm, idx, at_op, forbid)?;
        asm.push(HostInsn::Ldr {
            dst: r,
            base: ENV_BASE,
            off: reg as i32 * 8,
            order: MemOrder::Plain,
        });
        self.stats.env_loads += 1;
        self.pinned[reg as usize] = true;
        self.set_const(r, None);
        self.bind(r, v);
        Ok(r)
    }

    /// Lowers `GetReg { dst, reg }`: aliases `dst` to the env value.
    /// Emits nothing — the pin fill is deferred to the first read.
    pub(crate) fn alias_env(&mut self, dst: Temp, reg: u8) {
        debug_assert!(self.manage_env);
        let t = dst.0 as usize;
        // GetReg (re)defines dst: drop any register it held.
        if let Some(r) = self.s.val[t].loc {
            self.release(r);
            self.s.val[t].loc = None;
        }
        self.s.val[t].alias = Some(self.s.live.n_temps + reg as usize);
        self.s.alias_links.push((t, self.alias_head[reg as usize]));
        self.alias_head[reg as usize] = self.s.alias_links.len() - 1;
        self.s.val[t].const_val = None;
        self.s.val[t].defined = true;
        self.s.val[t].dirty = false;
        self.s.val[t].in_slot = false;
    }

    /// Lowers `SetReg { reg, src }` given `rs = read_temp(src)`: marks
    /// the env value dirty for the next flush, transferring `rs` to it
    /// outright when `src` dies here, copying otherwise. Live aliases of
    /// the overwritten value are materialized into their own registers
    /// first.
    pub(crate) fn write_env(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        reg: u8,
        src: Temp,
        rs: Xreg,
    ) -> Result<(), BackendError> {
        debug_assert!(self.manage_env);
        let v = self.s.live.n_temps + reg as usize;
        let src_v = src.0 as usize;
        self.pinned[reg as usize] = true;
        // Self-copy: `src` aliases this very register, so the value is
        // unchanged and every alias stays valid. `read_temp` has just
        // made the env value resident (`rs` is its register).
        if self.s.val[src_v].alias == Some(v) {
            debug_assert_eq!(self.s.val[v].loc, Some(rs));
            self.s.val[v].dirty = true;
            return Ok(());
        }
        // The old value dies: materialize live aliases into their own
        // registers (ascending temp order — deterministic) and break
        // the dead ones. The first live alias inherits the dying
        // value's register outright (zero code); the rest copy from it.
        self.s.aliasing.clear();
        let mut link = std::mem::replace(&mut self.alias_head[reg as usize], NO_LINK);
        while link != NO_LINK {
            let (t, next) = self.s.alias_links[link];
            if self.s.val[t].alias == Some(v) {
                self.s.aliasing.push(t);
            }
            link = next;
        }
        self.s.aliasing.sort_unstable();
        self.s.aliasing.dedup();
        let mut home: Option<Xreg> = None;
        for i in 0..self.s.aliasing.len() {
            let t = self.s.aliasing[i];
            self.s.val[t].alias = None;
            if self.s.live.last_ref[t] <= idx {
                continue;
            }
            if home.is_none() {
                if let Some(rv) = self.s.val[v].loc {
                    // Rebind: the env value is about to be overwritten,
                    // so its register simply becomes the alias's home.
                    self.s.val[v].loc = None;
                    self.s.val[v].dirty = false;
                    self.bind(rv, t);
                    self.s.val[t].in_slot = false;
                    home = Some(rv);
                    continue;
                }
            }
            let rt = self.take_reg(asm, idx, at_op, &[rs, home.unwrap_or(rs)])?;
            match home {
                Some(rh) => {
                    asm.push(HostInsn::MovReg { dst: rt, src: rh });
                    self.set_const(rt, self.reg_const[rh.0 as usize]);
                }
                None => {
                    // Non-resident env values always have a current
                    // slot (dirty ones are never unbound).
                    asm.push(HostInsn::Ldr {
                        dst: rt,
                        base: ENV_BASE,
                        off: reg as i32 * 8,
                        order: MemOrder::Plain,
                    });
                    self.stats.env_loads += 1;
                    self.set_const(rt, None);
                    home = Some(rt);
                }
            }
            self.bind(rt, t);
            self.s.val[t].in_slot = false;
        }
        // Final write: nothing later reads or rewrites this register,
        // so deferring would only add a register copy ahead of the same
        // `STR`. Store the source directly — exactly what naive per-op
        // codegen does — and leave nothing for the flush to do.
        if self.s.live.last_ref[v] <= idx {
            if let Some(r_old) = self.s.val[v].loc {
                self.release(r_old);
                self.s.val[v].loc = None;
            }
            asm.push(HostInsn::Str {
                src: rs,
                base: ENV_BASE,
                off: reg as i32 * 8,
                order: MemOrder::Plain,
            });
            self.stats.env_stores += 1;
            self.s.val[v].dirty = false;
            return Ok(());
        }
        // Transfer: `src` owns `rs` and dies at this op — the register
        // simply becomes the env value's home.
        if self.s.val[src_v].alias.is_none()
            && self.holder[rs.0 as usize] == Some(src_v)
            && self.s.live.last_ref[src_v] <= idx
        {
            if let Some(r_old) = self.s.val[v].loc {
                self.release(r_old);
            }
            self.s.val[src_v].loc = None;
            self.bind(rs, v);
            self.s.val[v].dirty = true;
            return Ok(());
        }
        // Copy: ensure the env value has a register distinct from `rs`.
        let re = match self.s.val[v].loc {
            Some(r) => r,
            None => {
                let r = self.take_reg(asm, idx, at_op, &[rs])?;
                self.bind(r, v);
                r
            }
        };
        if re != rs {
            asm.push(HostInsn::MovReg { dst: re, src: rs });
            self.set_const(re, self.reg_const[rs.0 as usize]);
        }
        self.s.val[v].dirty = true;
        Ok(())
    }

    /// Writes every dirty env register back to its env slot, in
    /// ascending env order (deterministic emission); the registers are
    /// clean afterwards.
    pub(crate) fn flush_env(&mut self, asm: &mut HostAsm) {
        if !self.manage_env {
            return;
        }
        for reg in 0..env::COUNT {
            let v = self.s.live.n_temps + reg;
            if self.s.val[v].dirty {
                if let Some(r) = self.s.val[v].loc {
                    asm.push(HostInsn::Str {
                        src: r,
                        base: ENV_BASE,
                        off: reg as i32 * 8,
                        order: MemOrder::Plain,
                    });
                    self.stats.env_stores += 1;
                    self.s.val[v].dirty = false;
                }
            }
        }
    }

    /// Final statistics; `pinned_regs` is the count of distinct env
    /// registers that were ever resident.
    pub(crate) fn into_stats(self) -> AllocStats {
        let mut s = self.stats;
        s.pinned_regs = self.pinned.iter().filter(|&&p| p).count() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_tcg::BinOp;

    fn block_with(ops: Vec<TcgOp>, exit: TbExit, n_temps: u32) -> TcgBlock {
        TcgBlock { guest_pc: 0x1000, guest_len: 4, ops, exit, n_temps }
    }

    #[test]
    fn liveness_records_reads_and_exit_uses() {
        let t0 = Temp(0);
        let t1 = Temp(1);
        let b = block_with(
            vec![
                TcgOp::MovI { dst: t0, val: 1 },
                TcgOp::GetReg { dst: t1, reg: 3 },
                TcgOp::Bin { op: BinOp::Add, dst: t0, a: t0, b: t1 },
            ],
            TbExit::JumpReg(t0),
            2,
        );
        let mut l = Liveness::default();
        l.compute(&b, true);
        assert_eq!(l.reads(0), [2, 3], "t0 read by the Bin op and the exit");
        assert_eq!(l.reads(1), [2]);
        // The GetReg defers the env read to t1's actual use (the Bin op
        // at position 2) via the alias chain.
        assert_eq!(l.reads(l.n_temps + 3), [2], "env 3 is read where its alias t1 is used");
        assert_eq!(l.last_ref[l.n_temps + 3], 2);
        assert_eq!(l.last_ref[0], 3);
        assert_eq!(l.dying_at(3), [0], "only t0 lives to the exit");
        assert!(l.dying_at(2).contains(&1) && l.dying_at(2).contains(&(l.n_temps + 3)));
    }

    #[test]
    fn liveness_is_robust_to_underreported_n_temps() {
        let b = block_with(vec![TcgOp::MovI { dst: Temp(7), val: 0 }], TbExit::Halt, 1);
        let mut l = Liveness::default();
        l.compute(&b, true);
        assert_eq!(l.n_temps, 8, "temp ids beyond n_temps must still be representable");
        let mut b = block_with(
            vec![TcgOp::Mov { dst: Temp(3), src: Temp(9) }],
            TbExit::JumpReg(Temp(12)),
            2,
        );
        l.compute(&b, true);
        assert_eq!(l.n_temps, 13, "the exit temp is the highest");
        b.exit = TbExit::Halt;
        l.compute(&b, false);
        assert_eq!(l.n_temps, 10);
        b.n_temps = 64;
        l.compute(&b, true);
        assert_eq!(l.n_temps, 64, "never below n_temps");
    }
}
