//! Liveness analysis and the deterministic block-scoped register
//! allocator behind the TCG→MiniArm backend.
//!
//! The allocator manages one unified *value* space per block: TCG temps
//! (`0..n_temps`) and — in DBT mode — the guest env registers
//! (`n_temps..n_temps + env::COUNT`). A liveness prepass records, for
//! every value, the sorted list of read positions (op index, with
//! `ops.len()` standing for the block exit) and the last position that
//! references the value at all. During lowering the allocator keeps
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

/// Turns per-key counts into bucket bounds. On entry `off[k + 2]` holds
/// the number of items of key `k` (`off[0] = off[1] = 0`); on return
/// `off[k + 1]` is where bucket `k` starts, so a scatter that writes
/// item by item through `off[k + 1]` and bumps it leaves bucket `k` at
/// `off[k]..off[k + 1]`.
fn bucket_starts(off: &mut [usize]) {
    for k in 1..off.len() {
        off[k] += off[k - 1];
    }
}

/// The read positions and live ranges of every value in a block, in
/// flat tables that are recomputed — never reallocated — per block.
#[derive(Debug, Default)]
struct Liveness {
    /// Number of temp values: the block's [`TcgBlock::temp_bound`], so
    /// temp ids beyond an under-reporting `n_temps` are representable —
    /// the backend must not rely on the IR lint having run.
    n_temps: usize,
    /// Value `v`'s sorted *read* positions (op index; `ops.len()` is the
    /// block exit) are `read_pos[read_off[v]..read_off[v + 1]]`.
    read_off: Vec<usize>,
    read_pos: Vec<usize>,
    /// `(value, position)` of every read in op order — what `read_pos`
    /// is bucketed from.
    reads_in_order: Vec<(usize, usize)>,
    /// value id → last position referencing the value (read or write);
    /// [`UNREFERENCED`] for a value the block never mentions.
    last_ref: Vec<usize>,
    /// The values whose last reference is position `p` are
    /// `dead_vals[dead_off[p]..dead_off[p + 1]]`.
    dead_off: Vec<usize>,
    dead_vals: Vec<usize>,
    /// temp → the env register it aliases and that register's write
    /// generation when the alias formed (`compute` only).
    alias: Vec<Option<(u8, u32)>>,
}

/// [`Liveness::last_ref`] of a value no op and no exit mentions. Such a
/// value is never resident, so nothing ever compares its entry; it
/// keeps the (many) temps the optimizer deleted out of the death lists.
const UNREFERENCED: usize = usize::MAX;

impl Liveness {
    fn compute(&mut self, block: &TcgBlock, manage_env: bool) {
        let max_temp = block.temp_bound();
        let n_values = max_temp + if manage_env { env::COUNT } else { 0 };
        self.n_temps = max_temp;
        reset(&mut self.last_ref, n_values, UNREFERENCED);
        reset(&mut self.alias, max_temp, None);
        self.reads_in_order.clear();
        let Liveness { reads_in_order, last_ref, alias, .. } = self;
        // (A read is a reference too: the bucketing below folds the
        // reads into `last_ref`.)
        let mut read = |v: usize, at: usize| reads_in_order.push((v, at));
        // `alias` mirrors the allocator's GetReg aliasing: while a temp
        // aliases an env value, its reads are the env value's reads (the
        // deferred pin fill happens at the first such read). The chain
        // breaks when the temp is redefined or the env register is
        // overwritten — exactly as it will during lowering, so the
        // next-use information the Belady policy sees is exact. A write
        // bumps the register's generation, which breaks every alias to
        // it at once.
        let mut env_gen = [0u32; env::COUNT];
        let live_alias = |a: Option<(u8, u32)>, env_gen: &[u32; env::COUNT]| {
            a.filter(|&(reg, gen)| env_gen[reg as usize] == gen).map(|(reg, _)| reg)
        };
        for (i, op) in block.ops.iter().enumerate() {
            op.uses().for_each(|u| {
                let t = u.0 as usize;
                read(t, i);
                if let Some(reg) = live_alias(alias[t], &env_gen) {
                    read(max_temp + reg as usize, i);
                }
            });
            if manage_env {
                match op {
                    TcgOp::GetReg { dst, reg } => {
                        alias[dst.0 as usize] = Some((*reg, env_gen[*reg as usize]));
                        last_ref[dst.0 as usize] = i;
                        continue;
                    }
                    TcgOp::SetReg { reg, src } => {
                        // A self-copy (`src` aliases this very register)
                        // leaves the value unchanged: aliases survive.
                        if live_alias(alias[src.0 as usize], &env_gen) != Some(*reg) {
                            env_gen[*reg as usize] += 1;
                        }
                        last_ref[max_temp + *reg as usize] = i;
                    }
                    _ => {}
                }
            }
            if let Some(d) = op.def() {
                let t = d.0 as usize;
                last_ref[t] = i;
                alias[t] = None;
            }
        }
        let exit_pos = block.ops.len();
        match &block.exit {
            TbExit::JumpReg(t) | TbExit::CondJump { flag: t, .. } => {
                let t = t.0 as usize;
                read(t, exit_pos);
                if let Some(reg) = live_alias(alias[t], &env_gen) {
                    read(max_temp + reg as usize, exit_pos);
                }
            }
            _ => {}
        }

        // Bucket the reads by value (they were recorded in position
        // order, so each bucket comes out sorted) and the values by
        // their last reference.
        reset(&mut self.read_off, n_values + 2, 0);
        for &(v, _) in &self.reads_in_order {
            self.read_off[v + 2] += 1;
        }
        bucket_starts(&mut self.read_off);
        reset(&mut self.read_pos, self.reads_in_order.len(), 0);
        for &(v, at) in &self.reads_in_order {
            self.read_pos[self.read_off[v + 1]] = at;
            self.read_off[v + 1] += 1;
            let last = &mut self.last_ref[v];
            if *last == UNREFERENCED || *last < at {
                *last = at;
            }
        }
        reset(&mut self.dead_off, exit_pos + 3, 0);
        let referenced = || self.last_ref.iter().enumerate().filter(|(_, &at)| at != UNREFERENCED);
        for (_, &at) in referenced() {
            self.dead_off[at + 2] += 1;
        }
        bucket_starts(&mut self.dead_off);
        reset(&mut self.dead_vals, self.dead_off[exit_pos + 2], 0);
        for (v, &at) in referenced() {
            self.dead_vals[self.dead_off[at + 1]] = v;
            self.dead_off[at + 1] += 1;
        }
    }

    /// Sorted read positions of value `v`.
    #[cfg(test)]
    fn reads(&self, v: usize) -> &[usize] {
        &self.read_pos[self.read_off[v]..self.read_off[v + 1]]
    }

    /// The values last referenced at position `at`.
    fn dying_at(&self, at: usize) -> &[usize] {
        &self.dead_vals[self.dead_off[at]..self.dead_off[at + 1]]
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
    /// Monotone cursor into `live.read_pos` (next-use scan).
    cursor: usize,
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
    /// host register number → constant the register is known to hold
    /// right now. Maintained at every instruction that writes a pool
    /// register; rebinding alone never changes register contents, so
    /// the knowledge survives ownership transfers and evictions.
    reg_const: [Option<u64>; 32],
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
        let n_values = s.live.last_ref.len();
        s.val.clear();
        s.val.extend(
            s.live.read_off[..n_values]
                .iter()
                .map(|&first_read| ValueState { cursor: first_read, ..ValueState::default() }),
        );
        s.alias_links.clear();
        Allocator {
            s,
            pool,
            manage_env,
            holder: [None; 32],
            reg_const: [None; 32],
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
        let live = &self.s.live;
        let c = &mut self.s.val[v].cursor;
        let end = live.read_off[v + 1];
        while *c < end && live.read_pos[*c] < idx {
            *c += 1;
        }
        if *c < end {
            live.read_pos[*c]
        } else {
            usize::MAX
        }
    }

    fn bind(&mut self, r: Xreg, v: usize) {
        self.s.val[v].loc = Some(r);
        self.holder[r.0 as usize] = Some(v);
    }

    fn unbind(&mut self, v: usize) {
        if let Some(r) = self.s.val[v].loc.take() {
            self.s.val[v].dirty = false;
            self.holder[r.0 as usize] = None;
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
        for i in 0..self.s.live.dying_at(prev).len() {
            let v = self.s.live.dying_at(prev)[i];
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
        self.holder[r.0 as usize] = None;
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
        for &r in self.pool {
            if self.holder[r.0 as usize].is_none() && !forbid.contains(&r) {
                return Ok(r);
            }
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
            // forbid list protects the register for the whole op).
            for &r in self.pool {
                if self.reg_const[r.0 as usize] == Some(c) && !forbid.contains(&r) {
                    return Ok(r);
                }
            }
            let r = self.take_reg(asm, idx, at_op, forbid)?;
            asm.push(HostInsn::MovImm { dst: r, imm: c });
            self.reg_const[r.0 as usize] = Some(c);
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
        self.reg_const[r.0 as usize] = None;
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
        self.reg_const[r.0 as usize] = None;
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
            self.holder[r.0 as usize] = None;
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
        self.reg_const[r.0 as usize] = None;
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
            self.holder[r.0 as usize] = None;
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
                    self.reg_const[rt.0 as usize] = self.reg_const[rh.0 as usize];
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
                    self.reg_const[rt.0 as usize] = None;
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
                self.holder[r_old.0 as usize] = None;
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
                self.holder[r_old.0 as usize] = None;
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
            self.reg_const[re.0 as usize] = self.reg_const[rs.0 as usize];
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
        assert!(l.n_temps >= 8, "temp ids beyond n_temps must still be representable");
    }
}
