//! The TCG optimizer.
//!
//! Passes (§2.3, §5.4, §6.1):
//!
//! * constant propagation & folding (incl. the false-dependency
//!   simplifications `x*0 ↝ 0`, `x⊕x ↝ 0` of §6.1),
//! * copy propagation,
//! * memory-access eliminations — RAR / RAW / WAW forwarding with the
//!   Fig. 10 fence side conditions ([`OptPolicy::Verified`]) or QEMU's
//!   historical fence-oblivious behavior ([`OptPolicy::QemuUnsound`],
//!   which the FMR example shows incorrect),
//! * fence merging: adjacent fences with no intervening memory access
//!   merge into their join, placed at the earliest position,
//! * dead code elimination (temp liveness + redundant `SetReg` removal:
//!   a guest register written twice with no read in between — the
//!   frontend already leaves out every flag writer's flags but the
//!   last's, so the flags are never such a pair in its own output).
//!
//! Blocks are in SSA form (the frontend allocates a fresh temp per def);
//! every pass preserves that invariant.

use crate::ir::{TbExit, TcgBlock, TcgOp, Temp};
use crate::{reset, with_thread_scratch};
use risotto_memmodel::{ElimKind, FenceKind, OptPolicy};
use std::cell::RefCell;

/// Statistics from one optimization run (exposed for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constants folded.
    pub folded: usize,
    /// Loads forwarded (RAW + RAR).
    pub loads_forwarded: usize,
    /// Dead stores removed (WAW).
    pub stores_eliminated: usize,
    /// Fences merged away.
    pub fences_merged: usize,
    /// Fences merged away, by the kind of the removed fence; indexed by
    /// [`FenceKind::tcg_index`] over [`FenceKind::TCG_ALL`]. The entries
    /// sum to `fences_merged`.
    pub fences_merged_by_kind: [usize; 12],
    /// Ops removed by DCE.
    pub dce_removed: usize,
}

impl std::ops::AddAssign for OptStats {
    fn add_assign(&mut self, rhs: OptStats) {
        self.folded += rhs.folded;
        self.loads_forwarded += rhs.loads_forwarded;
        self.stores_eliminated += rhs.stores_eliminated;
        self.fences_merged += rhs.fences_merged;
        for (a, b) in self.fences_merged_by_kind.iter_mut().zip(rhs.fences_merged_by_kind) {
            *a += b;
        }
        self.dce_removed += rhs.dce_removed;
    }
}

/// Which passes run — the ablation knob for the `ablation_passes` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant folding + copy propagation (+ false-dependency elim).
    pub constant_fold: bool,
    /// RAR/RAW/WAW memory forwarding.
    pub forward_memory: bool,
    /// Fence merging (§6.1).
    pub merge_fences: bool,
    /// Dead code elimination.
    pub dce: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig { constant_fold: true, forward_memory: true, merge_fences: true, dce: true }
    }
}

impl PassConfig {
    /// Everything on (the production pipeline).
    pub fn all() -> PassConfig {
        PassConfig::default()
    }

    /// Everything off (raw frontend output).
    pub fn none() -> PassConfig {
        PassConfig { constant_fold: false, forward_memory: false, merge_fences: false, dce: false }
    }

    /// All passes except one, by name (for ablations).
    ///
    /// # Panics
    ///
    /// Panics on an unknown pass name.
    pub fn all_except(pass: &str) -> PassConfig {
        let mut c = PassConfig::all();
        match pass {
            "constant_fold" => c.constant_fold = false,
            "forward_memory" => c.forward_memory = false,
            "merge_fences" => c.merge_fences = false,
            "dce" => c.dce = false,
            other => panic!("unknown pass `{other}`"),
        }
        c
    }
}

/// Nothing: the known-bits IR pass that filled it is gone. Kept, with
/// [`apply_hints`], only because the frozen `benchmark/` replay still
/// names them; ROADMAP item 6(g) deletes both.
#[doc(hidden)]
#[derive(Debug)]
pub struct IrHints;

/// A no-op, kept for the frozen `benchmark/` replay; ROADMAP item 6(g)
/// deletes it (see [`IrHints`]).
#[doc(hidden)]
pub fn apply_hints(_block: &mut TcgBlock, _hints: &IrHints) {}

/// The optimizer's reusable working memory: the temp-indexed tables and
/// work lists every pass needs, kept between blocks so a steady-state
/// [`optimize_in`] call allocates nothing. Each pass re-initializes the
/// tables it reads before it reads them (`clear` + `resize`, never a
/// fresh `Vec`), so nothing a previous block — or a previous pass, or a
/// pass that stopped half-way — left behind can be observed.
#[derive(Debug, Default)]
pub struct OptScratch {
    /// temp → its known constant value (`constant_fold`).
    konst: Vec<Option<u64>>,
    /// temp → the temp it is a copy of, fully resolved (`constant_fold`).
    alias: Vec<Option<Temp>>,
    /// The accesses `forward_memory` can still forward from or delete.
    tracked: Vec<Tracked>,
    /// temp → live at the current point of `dce`'s backward walk.
    live: Vec<bool>,
    /// op index → survives `dce`.
    keep: Vec<bool>,
}

/// Runs the full pass pipeline in place.
pub fn optimize(block: &mut TcgBlock, policy: OptPolicy) -> OptStats {
    optimize_with(block, policy, PassConfig::all())
}

/// Runs a configurable pass pipeline in place.
pub fn optimize_with(block: &mut TcgBlock, policy: OptPolicy, passes: PassConfig) -> OptStats {
    thread_local!(static SPARE: RefCell<OptScratch> = RefCell::default());
    with_thread_scratch(&SPARE, |scratch| optimize_in(block, policy, passes, scratch))
}

/// [`optimize_with`] over a caller-owned [`OptScratch`] — what the
/// engine calls, with the scratch of its `Emulator`.
pub fn optimize_in(
    block: &mut TcgBlock,
    policy: OptPolicy,
    passes: PassConfig,
    scratch: &mut OptScratch,
) -> OptStats {
    let mut stats = OptStats::default();
    // No pass introduces a temp, so one bound sizes every table of
    // every pass.
    let bound = block.temp_bound();
    if passes.constant_fold {
        stats.folded += constant_fold(block, bound, scratch);
    }
    if passes.forward_memory {
        forward_memory(block, policy, &mut stats, scratch);
    }
    if passes.merge_fences {
        stats.fences_merged += merge_fences_counted(block, &mut stats.fences_merged_by_kind);
    }
    if passes.dce {
        stats.dce_removed += dce(block, bound, scratch);
    }
    // A second fold + DCE round cleans up values exposed by forwarding.
    // With nothing forwarded it would change nothing: fold is idempotent
    // on its own output, and fold has turned every `GetReg r` after a
    // `SetReg r` into a copy, so no dead read keeps a `SetReg` alive
    // past the first DCE walk. Without fold, such a read can.
    if stats.loads_forwarded + stats.stores_eliminated > 0 || !passes.constant_fold {
        if passes.constant_fold {
            stats.folded += constant_fold(block, bound, scratch);
        }
        if passes.dce {
            stats.dce_removed += dce(block, bound, scratch);
        }
    }
    stats
}

// ---------------------------------------------------------------------
// Constant folding + copy propagation.
// ---------------------------------------------------------------------

/// Folds constants and propagates copies, each op rewritten where it
/// stands; returns the number of ops rewritten. `bound` is the block's
/// [`TcgBlock::temp_bound`].
fn constant_fold(block: &mut TcgBlock, bound: usize, scratch: &mut OptScratch) -> usize {
    use crate::ir::BinOp;
    reset(&mut scratch.konst, bound, None);
    reset(&mut scratch.alias, bound, None);
    let (konst, alias) = (&mut scratch.konst, &mut scratch.alias);
    // Track which temp (if any) currently holds each env register's value,
    // so constants and copies propagate through SetReg/GetReg round-trips.
    let mut env_alias: [Option<Temp>; crate::ir::env::COUNT] = [None; crate::ir::env::COUNT];
    let mut changed = 0usize;
    let ix = |t: Temp| t.0 as usize;

    for op in &mut block.ops {
        // Canonicalize uses through the alias map.
        rewrite_uses(op, alias);
        // Env-register forwarding: rewrite GetReg into a copy of the temp
        // last stored to that register.
        if let TcgOp::GetReg { dst, reg } = *op {
            if let Some(src) = env_alias[reg as usize] {
                changed += 1;
                *op = TcgOp::Mov { dst, src };
            }
        }
        if let TcgOp::SetReg { reg, src } = *op {
            env_alias[reg as usize] = Some(resolve(alias, src));
        }
        let folded = match *op {
            TcgOp::MovI { dst, val } => {
                konst[ix(dst)] = Some(val);
                None
            }
            TcgOp::Mov { dst, src } => fold_copy(konst, alias, dst, src, &mut changed),
            TcgOp::Bin { op: bop, dst, a, b } => {
                let (ka, kb) = (konst[ix(a)], konst[ix(b)]);
                if let (Some(x), Some(y)) = (ka, kb) {
                    changed += 1;
                    Some(TcgOp::MovI { dst, val: bop.apply(x, y) })
                } else {
                    // Algebraic simplifications (false-dependency
                    // elimination, §6.1): results that no longer depend
                    // on the variable operand.
                    let simplified = match bop {
                        BinOp::Mul | BinOp::And if ka == Some(0) || kb == Some(0) => {
                            Some(TcgOp::MovI { dst, val: 0 })
                        }
                        BinOp::Xor | BinOp::Sub if a == b => Some(TcgOp::MovI { dst, val: 0 }),
                        BinOp::Add | BinOp::Or | BinOp::Xor if ka == Some(0) => {
                            Some(TcgOp::Mov { dst, src: b })
                        }
                        BinOp::Add
                        | BinOp::Sub
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Shl
                        | BinOp::Shr
                            if kb == Some(0) =>
                        {
                            Some(TcgOp::Mov { dst, src: a })
                        }
                        BinOp::Mul if kb == Some(1) => Some(TcgOp::Mov { dst, src: a }),
                        BinOp::Mul if ka == Some(1) => Some(TcgOp::Mov { dst, src: b }),
                        _ => None,
                    };
                    changed += usize::from(simplified.is_some());
                    match simplified {
                        // The copy may itself fold (its rewrite is
                        // already counted).
                        Some(TcgOp::Mov { dst, src }) => {
                            fold_copy(konst, alias, dst, src, &mut 0).or(simplified)
                        }
                        other => other,
                    }
                }
            }
            TcgOp::Setcond { cond, dst, a, b } => match (konst[ix(a)], konst[ix(b)]) {
                (Some(x), Some(y)) => {
                    changed += 1;
                    Some(TcgOp::MovI { dst, val: cond.apply(x, y) })
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(new) = folded {
            if let TcgOp::MovI { dst, val } = new {
                konst[ix(dst)] = Some(val);
            }
            *op = new;
        }
    }
    // Exit operands also go through the alias map.
    match &mut block.exit {
        TbExit::JumpReg(t) => *t = resolve(alias, *t),
        TbExit::CondJump { flag, taken, fallthrough } => {
            let f = resolve(alias, *flag);
            *flag = f;
            // A constant flag turns the conditional exit into a jump.
            if let Some(v) = konst[ix(f)] {
                let target = if v != 0 { *taken } else { *fallthrough };
                block.exit = TbExit::Jump(target);
                changed += 1;
            }
        }
        _ => {}
    }
    changed
}

/// `dst = src`: a copy of a constant becomes that constant (returned as
/// the replacement `MovI`, counted into `changed`); any other copy is
/// recorded in the alias table and stays.
fn fold_copy(
    konst: &[Option<u64>],
    alias: &mut [Option<Temp>],
    dst: Temp,
    src: Temp,
    changed: &mut usize,
) -> Option<TcgOp> {
    match konst[src.0 as usize] {
        Some(val) => {
            *changed += 1;
            Some(TcgOp::MovI { dst, val })
        }
        None => {
            alias[dst.0 as usize] = Some(resolve(alias, src));
            None
        }
    }
}

fn resolve(alias: &[Option<Temp>], t: Temp) -> Temp {
    let mut cur = t;
    while let Some(next) = alias[cur.0 as usize] {
        cur = next;
    }
    cur
}

fn rewrite_uses(op: &mut TcgOp, alias: &[Option<Temp>]) {
    let fix = |t: &mut Temp| *t = resolve(alias, *t);
    match op {
        TcgOp::Mov { src, .. } | TcgOp::SetReg { src, .. } => fix(src),
        TcgOp::Ld { addr, .. } | TcgOp::Ld8 { addr, .. } => fix(addr),
        TcgOp::St { addr, src } | TcgOp::St8 { addr, src } => {
            fix(addr);
            fix(src);
        }
        TcgOp::Bin { a, b, .. } | TcgOp::Setcond { a, b, .. } => {
            fix(a);
            fix(b);
        }
        TcgOp::Cas { addr, expect, new, .. } => {
            fix(addr);
            fix(expect);
            fix(new);
        }
        TcgOp::AtomicAdd { addr, val, .. } => {
            fix(addr);
            fix(val);
        }
        TcgOp::CallHelper { args, .. } => args.iter_mut().for_each(fix),
        TcgOp::MovI { .. } | TcgOp::GetReg { .. } | TcgOp::Fence(_) => {}
    }
}

// ---------------------------------------------------------------------
// Memory-access eliminations (RAR / RAW / WAW).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrackedKind {
    Store { value: Temp },
    Load { value: Temp },
}

#[derive(Debug, Clone, Copy)]
struct Tracked {
    addr: Temp,
    kind: TrackedKind,
    /// The kinds of fence encountered since this access, one bit per
    /// [`FenceKind::tcg_index`] (see [`fence_bit`]). The side conditions
    /// quantify over the *set* of crossed fences, so a bitset loses
    /// nothing.
    fences_since: u16,
}

/// Bit 12 of a crossed-fence set: some fence that is not a TCG fence.
const NON_TCG_FENCE: u16 = 1 << 12;

/// The bit a fence contributes to [`Tracked::fences_since`].
fn fence_bit(k: FenceKind) -> u16 {
    k.tcg_index().map_or(NON_TCG_FENCE, |i| 1 << i)
}

/// Whether an elimination of `kind` may cross every fence of the set
/// `crossed` (see [`fence_bit`]) under `policy`'s
/// [`OptPolicy::may_cross`]. A non-TCG fence admits nothing under either
/// policy.
fn elim_allowed(kind: ElimKind, crossed: u16, policy: OptPolicy) -> bool {
    crossed & NON_TCG_FENCE == 0
        && (FenceKind::TCG_ALL.iter().enumerate())
            .all(|(i, f)| crossed & (1 << i) == 0 || policy.may_cross(kind, *f))
}

/// Forwards loads and removes dead stores. Two addresses are considered
/// the same only when they are the *same temp* (SSA makes this sound);
/// distinct temps conservatively alias, flushing the tracking state.
fn forward_memory(
    block: &mut TcgBlock,
    policy: OptPolicy,
    stats: &mut OptStats,
    scratch: &mut OptScratch,
) {
    let tracked = &mut scratch.tracked;
    tracked.clear();
    let ops = &mut block.ops;
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            TcgOp::Fence(k) => {
                for t in tracked.iter_mut() {
                    t.fences_since |= fence_bit(k);
                }
            }
            TcgOp::Ld { dst, addr } => {
                let forwarded = tracked.iter().find(|t| t.addr == addr).and_then(|t| {
                    let (value, kind) = match t.kind {
                        TrackedKind::Store { value } => (value, ElimKind::Raw),
                        TrackedKind::Load { value } => (value, ElimKind::Rar),
                    };
                    elim_allowed(kind, t.fences_since, policy).then_some(value)
                });
                if let Some(src) = forwarded {
                    stats.loads_forwarded += 1;
                    ops[i] = TcgOp::Mov { dst, src };
                } else {
                    // A load from a different temp-address may alias a
                    // tracked store… loads don't invalidate stores;
                    // track this load.
                    tracked.retain(|t| t.addr != addr);
                    tracked.push(Tracked {
                        addr,
                        kind: TrackedKind::Load { value: dst },
                        fences_since: 0,
                    });
                }
            }
            TcgOp::St { addr, src } => {
                // WAW: a previous store to the same temp-address with no
                // blocking fence and no intervening load of that address.
                if let Some(pos) = tracked.iter().position(|t| t.addr == addr) {
                    let t = tracked.remove(pos);
                    if matches!(t.kind, TrackedKind::Store { .. })
                        && elim_allowed(ElimKind::Waw, t.fences_since, policy)
                    {
                        // Find the previous store and drop it.
                        if let Some(idx) = ops[..i]
                            .iter()
                            .rposition(|o| matches!(o, TcgOp::St { addr: a, .. } if *a == addr))
                        {
                            ops.remove(idx);
                            i -= 1;
                            stats.stores_eliminated += 1;
                        }
                    }
                }
                // Stores to *other* addresses may alias (different temps
                // can hold the same address): invalidate everything except
                // same-temp entries we just handled.
                tracked.retain(|t| t.addr == addr);
                tracked.push(Tracked {
                    addr,
                    kind: TrackedKind::Store { value: src },
                    fences_since: 0,
                });
            }
            TcgOp::Ld8 { .. }
            | TcgOp::St8 { .. }
            | TcgOp::Cas { .. }
            | TcgOp::AtomicAdd { .. }
            | TcgOp::CallHelper { .. } => {
                // Byte accesses may partially overlap tracked 64-bit
                // locations; RMWs and helpers clobber arbitrarily.
                tracked.clear();
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Fence merging (§6.1).
// ---------------------------------------------------------------------

/// Merges runs of fences with no intervening memory access into a single
/// fence (their join, `Fsc`-absorbing) at the earliest position. Returns
/// the number of fences removed.
pub fn merge_fences(block: &mut TcgBlock) -> usize {
    merge_fences_counted(block, &mut [0; 12])
}

/// [`merge_fences`], additionally tallying each removed fence by kind
/// into `by_kind` (indexed per [`FenceKind::tcg_index`]).
pub fn merge_fences_counted(block: &mut TcgBlock, by_kind: &mut [usize; 12]) -> usize {
    let ops = &mut block.ops;
    // `ops[..kept]` is the output so far; the walk compacts in place.
    let mut kept = 0usize;
    // The fence a later one merges into — the last fence kept, while no
    // memory access has been kept after it — with its current kind.
    let mut open: Option<(usize, FenceKind)> = None;
    let mut removed = 0usize;
    for i in 0..ops.len() {
        match ops[i] {
            TcgOp::Fence(k) => {
                debug_assert!(k.is_tcg(), "non-TCG fence in IR");
                if let Some((at, prev)) = open {
                    let joined = prev.tcg_join(k);
                    ops[at] = TcgOp::Fence(joined);
                    open = Some((at, joined));
                    removed += 1;
                    if let Some(kind) = k.tcg_index() {
                        by_kind[kind] += 1;
                    }
                    continue;
                }
                open = Some((kept, k));
            }
            ref op if op.is_memory_access() => open = None,
            _ => {}
        }
        if kept != i {
            ops.swap(kept, i);
        }
        kept += 1;
    }
    ops.truncate(kept);
    removed
}

// ---------------------------------------------------------------------
// Dead code elimination.
// ---------------------------------------------------------------------

/// Removes ops whose results are unused (including irrelevant loads) and
/// `SetReg`s overwritten before any read. Returns the number removed.
/// `bound` is the block's [`TcgBlock::temp_bound`].
fn dce(block: &mut TcgBlock, bound: usize, scratch: &mut OptScratch) -> usize {
    reset(&mut scratch.live, bound, false);
    reset(&mut scratch.keep, block.ops.len(), true);
    let (live, keep) = (&mut scratch.live, &mut scratch.keep);
    match &block.exit {
        TbExit::JumpReg(t) => live[t.0 as usize] = true,
        TbExit::CondJump { flag, .. } => live[flag.0 as usize] = true,
        _ => {}
    }
    let mut env_overwritten = [false; crate::ir::env::COUNT];
    for (i, op) in block.ops.iter().enumerate().rev() {
        let needed = match op {
            TcgOp::SetReg { reg, .. } => {
                let r = *reg as usize;
                let needed = !env_overwritten[r];
                env_overwritten[r] = true;
                needed
            }
            TcgOp::GetReg { dst, reg } => {
                env_overwritten[*reg as usize] = false;
                live[dst.0 as usize]
            }
            TcgOp::St { .. }
            | TcgOp::Fence(_)
            | TcgOp::Cas { .. }
            | TcgOp::AtomicAdd { .. }
            | TcgOp::CallHelper { .. } => true,
            other => other.def().map(|d| live[d.0 as usize]).unwrap_or(true),
        };
        if needed {
            op.uses().for_each(|u| live[u.0 as usize] = true);
        } else {
            keep[i] = false;
        }
    }
    let before = block.ops.len();
    let mut i = 0;
    block.ops.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
    before - block.ops.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_block;
    use crate::frontend::{translate_block, FrontendConfig};
    use crate::ir::{env, Helper};
    use risotto_guest_x86::{AluOp, Assembler, Gpr, SparseMem};

    fn fetcher(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
        move |addr| {
            let mut out = [0u8; 16];
            let off = (addr - base) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            out
        }
    }

    fn translate(f: impl FnOnce(&mut Assembler), cfg: FrontendConfig) -> TcgBlock {
        let mut a = Assembler::new(0x1000);
        f(&mut a);
        let (bytes, _) = a.finish().unwrap();
        translate_block(0x1000, cfg, fetcher(bytes, 0x1000)).unwrap()
    }

    /// Optimized and unoptimized blocks must agree on env and memory.
    fn check_equivalent(block: &TcgBlock, optimized: &TcgBlock) {
        for seed in 0..4u64 {
            let mut env1 = [0u64; env::COUNT];
            for (i, r) in env1.iter_mut().enumerate() {
                *r = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64 * 13) % 1000;
            }
            env1[Gpr::RSP.index()] = 0x7000_0000;
            let mut env2 = env1;
            let mut m1 = SparseMem::new();
            m1.write_u64(env1[Gpr::RDI.index()], 77);
            let mut m2 = m1.clone();
            let e1 = eval_block(block, &mut env1, &mut m1);
            let e2 = eval_block(optimized, &mut env2, &mut m2);
            assert_eq!(e1, e2);
            assert_eq!(env1, env2, "env mismatch (seed {seed})");
        }
    }

    #[test]
    fn constant_folding_collapses_address_arithmetic() {
        let mut b = translate(
            |a| {
                a.mov_ri(Gpr::RAX, 21);
                a.alu_ri(AluOp::Mul, Gpr::RAX, 2);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let stats = optimize(&mut b, OptPolicy::Verified);
        assert!(stats.folded > 0);
        check_equivalent(&orig, &b);
        // The multiply folded to a constant 42 somewhere.
        assert!(b.ops.iter().any(|o| matches!(o, TcgOp::MovI { val: 42, .. })));
        assert!(b.count_ops(|o| matches!(o, TcgOp::Bin { .. })) == 0);
    }

    #[test]
    fn dce_removes_overwritten_flag_updates() {
        // The frontend never emits a flag update that a later writer in
        // the same block overwrites, but a hand-built block can: `rax +=
        // 1` with its ZF, then a second ZF with no read of the first in
        // between.
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let [x, one, sum, zero, zf, zf2] = [(); 6].map(|()| b.new_temp());
        b.ops = vec![
            TcgOp::GetReg { dst: x, reg: Gpr::RAX.0 },
            TcgOp::MovI { dst: one, val: 1 },
            TcgOp::Bin { op: crate::ir::BinOp::Add, dst: sum, a: x, b: one },
            TcgOp::SetReg { reg: Gpr::RAX.0, src: sum },
            TcgOp::MovI { dst: zero, val: 0 },
            TcgOp::Setcond { cond: crate::ir::CondOp::Eq, dst: zf, a: sum, b: zero },
            TcgOp::SetReg { reg: env::ZF, src: zf },
            TcgOp::MovI { dst: zf2, val: 1 },
            TcgOp::SetReg { reg: env::ZF, src: zf2 },
        ];
        let orig = b.clone();
        let bound = b.temp_bound();
        let removed = dce(&mut b, bound, &mut OptScratch::default());
        // The first ZF write, its Setcond and the zero it compares with.
        assert_eq!(removed, 3, "{:?}", b.ops);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::SetReg { reg: env::ZF, .. })), 1);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Setcond { .. })), 0);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn raw_forwarding_under_verified_policy() {
        // store [rdi]; load [rdi] — same address temp only when the
        // frontend reuses it; here both compute rdi+0 ⇒ same GetReg? No:
        // each instruction re-reads the env, producing different temps.
        // Build the IR by hand to exercise the forwarding machinery.
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let val = b.new_temp();
        let loaded = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: val, val: 99 },
            TcgOp::St { addr, src: val },
            TcgOp::Fence(FenceKind::Fww),
            TcgOp::Ld { dst: loaded, addr },
            TcgOp::SetReg { reg: 0, src: loaded },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats, &mut OptScratch::default());
        assert_eq!(stats.loads_forwarded, 1, "RAW across Fww is allowed");
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Ld { .. })), 0);
        check_equivalent(&orig, &b);

        // Across an Fmr, the verified policy must refuse…
        let mut c = orig.clone();
        c.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward_memory(&mut c, OptPolicy::Verified, &mut stats, &mut OptScratch::default());
        assert_eq!(stats.loads_forwarded, 0, "RAW across Fmr is unsound (FMR)");

        // …while QEMU's policy (unsoundly) forwards.
        let mut d = orig.clone();
        d.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward_memory(&mut d, OptPolicy::QemuUnsound, &mut stats, &mut OptScratch::default());
        assert_eq!(stats.loads_forwarded, 1);
    }

    #[test]
    fn waw_elimination_drops_first_store() {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let v1 = b.new_temp();
        let v2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: v1, val: 1 },
            TcgOp::MovI { dst: v2, val: 2 },
            TcgOp::St { addr, src: v1 },
            TcgOp::St { addr, src: v2 },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats, &mut OptScratch::default());
        assert_eq!(stats.stores_eliminated, 1);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::St { .. })), 1);
        check_equivalent(&orig, &b);
    }

    /// `St addr, 1; Fence(f); St addr, 2` — may the first store go?
    fn waw_across(f: FenceKind, policy: OptPolicy) -> usize {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let v1 = b.new_temp();
        let v2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: v1, val: 1 },
            TcgOp::MovI { dst: v2, val: 2 },
            TcgOp::St { addr, src: v1 },
            TcgOp::Fence(f),
            TcgOp::St { addr, src: v2 },
        ];
        let mut stats = OptStats::default();
        forward_memory(&mut b, policy, &mut stats, &mut OptScratch::default());
        stats.stores_eliminated
    }

    #[test]
    fn waw_only_crosses_read_predecessor_fences() {
        use FenceKind::*;
        // Sound: the fence orders nothing the deleted write participates
        // in (read-only predecessor class).
        for f in [Frr, Frw, Frm] {
            assert_eq!(waw_across(f, OptPolicy::Verified), 1, "{f:?} blocks a sound WAW");
        }
        // Unsound: the deleted write is in the fence's predecessor class —
        // in particular Fww, which the pre-fix RAR predicate wrongly
        // allowed (single-threaded evaluation cannot see the difference;
        // tests/opt_soundness.rs shows the multi-threaded counterexample).
        for f in [Fwr, Fww, Fwm, Fmr, Fmw, Fmm, Fsc] {
            assert_eq!(waw_across(f, OptPolicy::Verified), 0, "{f:?} must block WAW");
        }
        // The QEMU policy ignores fences entirely — that is the modelled
        // unsoundness, not a bug.
        assert_eq!(waw_across(Fmm, OptPolicy::QemuUnsound), 1);
    }

    #[test]
    fn rar_forwarding_aliases_loads() {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let l1 = b.new_temp();
        let l2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::Ld { dst: l1, addr },
            TcgOp::Ld { dst: l2, addr },
            TcgOp::SetReg { reg: 0, src: l1 },
            TcgOp::SetReg { reg: 1, src: l2 },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats, &mut OptScratch::default());
        assert_eq!(stats.loads_forwarded, 1);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn fence_merging_reproduces_section_6_1() {
        // a = X; Y = 1 under the verified mapping: ld; Frm; Fww; st —
        // the Frm/Fww pair merges into one full fence.
        let mut b = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let merged = merge_fences(&mut b);
        assert_eq!(merged, 1);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Fence(_))), 1);
        // The merged fence is Fmm (≡ DMB FF on Arm, like the paper's Fsc).
        assert_eq!(b.count_fences(FenceKind::Fmm), 1);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn fences_do_not_merge_across_memory_accesses() {
        let mut b = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.load(Gpr::RBX, Gpr::RSI, 0);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let merged = merge_fences(&mut b);
        assert_eq!(merged, 0, "Frm · Ld · Frm must not merge");
        assert_eq!(b.count_fences(FenceKind::Frm), 2);
    }

    /// `Fence(Frm); <mid ops>; Fence(Fww)` in a hand-built block: how
    /// many fences merge away?
    fn merge_with_between(mk_mid: impl FnOnce(&mut TcgBlock) -> Vec<TcgOp>) -> usize {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let mid = mk_mid(&mut b);
        b.ops = vec![TcgOp::Fence(FenceKind::Frm)];
        b.ops.extend(mid);
        b.ops.push(TcgOp::Fence(FenceKind::Fww));
        merge_fences(&mut b)
    }

    #[test]
    fn fences_merge_across_non_memory_ops_only() {
        // Pure register traffic between the fences: still mergeable.
        assert_eq!(
            merge_with_between(|b| {
                let t = b.new_temp();
                vec![TcgOp::MovI { dst: t, val: 9 }, TcgOp::SetReg { reg: 3, src: t }]
            }),
            1,
            "non-memory ops must not break a fence run"
        );
    }

    #[test]
    fn fences_do_not_merge_across_helper_calls() {
        // A helper can touch arbitrary memory (CmpxchgSc *is* an access):
        // merging the surrounding fences past it would reorder its
        // accesses out of their fence classes.
        assert_eq!(
            merge_with_between(|b| {
                let a = b.new_temp();
                let e = b.new_temp();
                let n = b.new_temp();
                let r = b.new_temp();
                vec![
                    TcgOp::GetReg { dst: a, reg: 7 },
                    TcgOp::GetReg { dst: e, reg: 0 },
                    TcgOp::GetReg { dst: n, reg: 1 },
                    TcgOp::CallHelper {
                        helper: Helper::CmpxchgSc,
                        args: vec![a, e, n],
                        ret: Some(r),
                    },
                ]
            }),
            0,
            "CallHelper is a memory access for fence merging"
        );
    }

    #[test]
    fn fences_do_not_merge_across_cas() {
        assert_eq!(
            merge_with_between(|b| {
                let a = b.new_temp();
                let e = b.new_temp();
                let n = b.new_temp();
                let d = b.new_temp();
                vec![
                    TcgOp::GetReg { dst: a, reg: 7 },
                    TcgOp::GetReg { dst: e, reg: 0 },
                    TcgOp::GetReg { dst: n, reg: 1 },
                    TcgOp::Cas { dst: d, addr: a, expect: e, new: n },
                ]
            }),
            0,
            "Cas is a memory access for fence merging"
        );
    }

    #[test]
    fn underreported_n_temps_reaches_the_lint_instead_of_panicking() {
        // Temp 7 in a block that claims one temp: the optimizer runs
        // before the lint, so it must get through for the lint to say so.
        let mut b = TcgBlock {
            guest_pc: 0,
            guest_len: 0,
            ops: vec![TcgOp::MovI { dst: Temp(7), val: 3 }],
            exit: TbExit::JumpReg(Temp(7)),
            n_temps: 1,
        };
        let orig = b.clone();
        let stats = optimize_with(&mut b, OptPolicy::Verified, PassConfig::all());
        assert_eq!(b, orig, "nothing to fold, forward, merge or eliminate");
        assert_eq!(stats, OptStats::default());
        let e = crate::verify::lint_in(&b, &mut Default::default()).unwrap_err();
        assert!(e.obligation.contains("out-of-range temp t7"), "{e}");
    }

    #[test]
    fn full_pipeline_on_realistic_block() {
        let mut b = translate(
            |a| {
                a.mov_ri(Gpr::RDI, 0x4000);
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.alu_ri(AluOp::Add, Gpr::RAX, 5);
                a.store(Gpr::RDI, 8, Gpr::RAX);
                a.alu_ri(AluOp::Mul, Gpr::RBX, 0); // false dependency
                a.cmp_ri(Gpr::RAX, 0);
                a.jcc_to(risotto_guest_x86::Cond::E, "out");
                a.label("out");
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let before = b.ops.len();
        let stats = optimize(&mut b, OptPolicy::Verified);
        assert!(b.ops.len() < before, "pipeline should shrink the block");
        assert!(stats.folded > 0);
        check_equivalent(&orig, &b);
        // The false dependency rbx*0 folded to a plain constant.
        assert!(!b.ops.iter().any(|o| matches!(o, TcgOp::Bin { op: crate::ir::BinOp::Mul, .. })));
    }
}
