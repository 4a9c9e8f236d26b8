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
    /// temp → its known constant value (fold).
    konst: Vec<Option<u64>>,
    /// temp → the temp it is a copy of, fully resolved (fold).
    alias: Vec<Option<Temp>>,
    /// The accesses forwarding can still forward from or delete.
    tracked: Vec<Tracked>,
    /// temp → live at the current point of DCE's backward walk.
    live: Vec<bool>,
    /// op index → survives fence merging and DCE.
    keep: Vec<bool>,
}

thread_local!(static SPARE: RefCell<OptScratch> = RefCell::default());

/// Runs the full pass pipeline in place.
pub fn optimize(block: &mut TcgBlock, policy: OptPolicy) -> OptStats {
    optimize_with(block, policy, PassConfig::all())
}

/// Runs a configurable pass pipeline in place.
pub fn optimize_with(block: &mut TcgBlock, policy: OptPolicy, passes: PassConfig) -> OptStats {
    with_thread_scratch(&SPARE, |scratch| optimize_in(block, policy, passes, scratch))
}

/// [`optimize_with`] over a caller-owned [`OptScratch`] — what the
/// engine calls, with the translation scratch its `Emulator` borrows
/// from the thread.
///
/// The passes run as two walks: fold and forward rewrite each op where
/// it stands in one forward walk, then fence merging and DCE decide
/// which ops stay in one backward walk and one compaction. Each walk
/// gives every op the same input the passes gave it when they ran one
/// after the other, so the output and the [`OptStats`] are theirs.
pub fn optimize_in(
    block: &mut TcgBlock,
    policy: OptPolicy,
    passes: PassConfig,
    scratch: &mut OptScratch,
) -> OptStats {
    let mut stats = OptStats::default();
    let PassConfig { constant_fold, forward_memory, merge_fences, dce } = passes;
    fold_and_forward(block, policy, constant_fold, forward_memory, &mut stats, scratch);
    merge_and_sweep(block, merge_fences, dce, &mut stats, scratch);
    // A second fold + DCE round cleans up values exposed by forwarding.
    // With nothing forwarded it would change nothing: fold is idempotent
    // on its own output, and fold has turned every `GetReg r` after a
    // `SetReg r` into a copy, so no dead read keeps a `SetReg` alive
    // past the first DCE walk. Without fold, such a read can.
    if stats.loads_forwarded + stats.stores_eliminated > 0 || !constant_fold {
        fold_and_forward(block, policy, constant_fold, false, &mut stats, scratch);
        merge_and_sweep(block, false, dce, &mut stats, scratch);
    }
    stats
}

/// The forward walk: constant folding and copy propagation, then memory
/// forwarding, on each op in turn. Fold reads only what it recorded of
/// the ops before, never the ops themselves, so forwarding's rewrites
/// behind it change nothing it decides; forwarding looks only behind
/// it, at ops fold has already rewritten.
fn fold_and_forward(
    block: &mut TcgBlock,
    policy: OptPolicy,
    fold: bool,
    forward: bool,
    stats: &mut OptStats,
    scratch: &mut OptScratch,
) {
    if !fold && !forward {
        return;
    }
    let OptScratch { konst, alias, tracked, .. } = scratch;
    let mut folder = fold.then(|| Folder::new(block.n_temps as usize, konst, alias));
    tracked.clear();
    let ops = &mut block.ops;
    let mut i = 0;
    while i < ops.len() {
        if let Some(f) = &mut folder {
            stats.folded += f.op(&mut ops[i]);
        }
        if forward {
            i = forward_op(ops, i, policy, stats, tracked);
        }
        i += 1;
    }
    if let Some(f) = &mut folder {
        stats.folded += f.exit(&mut block.exit);
    }
}

// ---------------------------------------------------------------------
// Constant folding + copy propagation.
// ---------------------------------------------------------------------

/// Folds constants and propagates copies, each op rewritten where it
/// stands.
struct Folder<'a> {
    /// temp → its known constant value.
    konst: &'a mut Vec<Option<u64>>,
    /// temp → the temp it is a copy of, fully resolved.
    alias: &'a mut Vec<Option<Temp>>,
    /// Which temp (if any) currently holds each env register's value,
    /// so constants and copies propagate through SetReg/GetReg
    /// round-trips.
    env_alias: [Option<Temp>; crate::ir::env::COUNT],
}

impl<'a> Folder<'a> {
    /// A folder over the scratch's tables, reset for `n_temps` temps.
    fn new(
        n_temps: usize,
        konst: &'a mut Vec<Option<u64>>,
        alias: &'a mut Vec<Option<Temp>>,
    ) -> Folder<'a> {
        reset(konst, n_temps, None);
        reset(alias, n_temps, None);
        Folder { konst, alias, env_alias: [None; crate::ir::env::COUNT] }
    }

    /// Rewrites `op`; returns the number of rewrites. One match per op
    /// both canonicalizes its operands through the alias map and folds
    /// it.
    fn op(&mut self, op: &mut TcgOp) -> usize {
        use crate::ir::BinOp;
        let Folder { konst, alias, env_alias } = self;
        let fix = |alias: &[Option<Temp>], t: &mut Temp| *t = resolve(alias, *t);
        let mut changed = 0usize;
        let folded = match op {
            TcgOp::MovI { dst, val } => {
                set(konst, *dst, Some(*val));
                None
            }
            TcgOp::Mov { dst, src } => {
                fix(alias, src);
                fold_copy(konst, alias, *dst, *src, &mut changed)
            }
            // Env-register forwarding: a GetReg becomes a copy of the
            // temp last stored to that register, and folds as one.
            TcgOp::GetReg { dst, reg } => match env_alias[*reg as usize] {
                Some(src) => {
                    changed += 1;
                    let dst = *dst;
                    *op = TcgOp::Mov { dst, src };
                    fold_copy(konst, alias, dst, src, &mut changed)
                }
                None => None,
            },
            TcgOp::SetReg { reg, src } => {
                fix(alias, src);
                env_alias[*reg as usize] = Some(*src);
                None
            }
            TcgOp::Ld { addr, .. } | TcgOp::Ld8 { addr, .. } => {
                fix(alias, addr);
                None
            }
            TcgOp::St { addr, src } | TcgOp::St8 { addr, src } => {
                fix(alias, addr);
                fix(alias, src);
                None
            }
            TcgOp::Bin { op: bop, dst, a, b } => {
                fix(alias, a);
                fix(alias, b);
                let (bop, dst, a, b) = (*bop, *dst, *a, *b);
                let (ka, kb) = (get(konst, a), get(konst, b));
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
            TcgOp::Setcond { cond, dst, a, b } => {
                fix(alias, a);
                fix(alias, b);
                match (get(konst, *a), get(konst, *b)) {
                    (Some(x), Some(y)) => {
                        changed += 1;
                        Some(TcgOp::MovI { dst: *dst, val: cond.apply(x, y) })
                    }
                    _ => None,
                }
            }
            TcgOp::Cas { addr, expect, new, .. } => {
                fix(alias, addr);
                fix(alias, expect);
                fix(alias, new);
                None
            }
            TcgOp::AtomicAdd { addr, val, .. } => {
                fix(alias, addr);
                fix(alias, val);
                None
            }
            TcgOp::CallHelper { args, .. } => {
                args.iter_mut().for_each(|t| fix(alias, t));
                None
            }
            TcgOp::Fence(_) => None,
        };
        if let Some(new) = folded {
            if let TcgOp::MovI { dst, val } = new {
                set(konst, dst, Some(val));
            }
            *op = new;
        }
        changed
    }

    /// Rewrites the block exit, after every op; returns the number of
    /// rewrites.
    fn exit(&mut self, exit: &mut TbExit) -> usize {
        // Exit operands also go through the alias map.
        match exit {
            TbExit::JumpReg(t) => *t = resolve(self.alias, *t),
            TbExit::CondJump { flag, taken, fallthrough } => {
                let f = resolve(self.alias, *flag);
                *flag = f;
                // A constant flag turns the conditional exit into a jump.
                if let Some(v) = get(self.konst, f) {
                    let target = if v != 0 { *taken } else { *fallthrough };
                    *exit = TbExit::Jump(target);
                    return 1;
                }
            }
            _ => {}
        }
        0
    }
}

/// `dst = src`: a copy of a constant becomes that constant (returned as
/// the replacement `MovI`, counted into `changed`); any other copy is
/// recorded in the alias table and stays.
fn fold_copy(
    konst: &[Option<u64>],
    alias: &mut Vec<Option<Temp>>,
    dst: Temp,
    src: Temp,
    changed: &mut usize,
) -> Option<TcgOp> {
    match get(konst, src) {
        Some(val) => {
            *changed += 1;
            Some(TcgOp::MovI { dst, val })
        }
        None => {
            let root = resolve(alias, src);
            set(alias, dst, Some(root));
            None
        }
    }
}

/// Entry `t` of a temp-indexed table, an entry past the end reading as
/// unset. The tables start at `n_temps` entries and grow when written
/// ([`set`]), so a temp beyond an under-reporting `n_temps` needs no
/// walk to find the temp bound first: its entry reads as a fresh one
/// would.
fn get<T: Copy + Default>(table: &[T], t: Temp) -> T {
    table.get(t.0 as usize).copied().unwrap_or_default()
}

/// Sets entry `t` of a temp-indexed table, growing it to cover `t`.
fn set<T: Copy + Default>(table: &mut Vec<T>, t: Temp, value: T) {
    let i = t.0 as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    table[i] = value;
}

fn resolve(alias: &[Option<Temp>], t: Temp) -> Temp {
    let mut cur = t;
    while let Some(next) = get(alias, cur) {
        cur = next;
    }
    cur
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

/// Memory forwarding at `ops[i]` (RAR / RAW / WAW), with `tracked` the
/// accesses it can still forward from or delete; returns the index of
/// the op just handled, one less than `i` when a dead store before it
/// was removed. Two addresses are considered the same only when they are
/// the *same temp* (SSA makes this sound); distinct temps conservatively
/// alias, flushing the tracking state.
fn forward_op(
    ops: &mut Vec<TcgOp>,
    mut i: usize,
    policy: OptPolicy,
    stats: &mut OptStats,
    tracked: &mut Vec<Tracked>,
) -> usize {
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
                // tracked store… loads don't invalidate stores; track
                // this load.
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
            // Stores to *other* addresses may alias (different temps can
            // hold the same address): invalidate everything except
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
    i
}

// ---------------------------------------------------------------------
// Fence merging (§6.1) and dead code elimination.
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
    with_thread_scratch(&SPARE, |scratch| {
        let mut stats = OptStats::default();
        merge_and_sweep(block, true, false, &mut stats, scratch);
        for (total, n) in by_kind.iter_mut().zip(stats.fences_merged_by_kind) {
            *total += n;
        }
        stats.fences_merged
    })
}

/// The backward walk: fence merging (`merge`) and dead code elimination
/// (`dce`), then one compaction.
///
/// Merging reads the block as it stands, before DCE, as it did when it
/// ran first: an access DCE removes still separates two fences. A fence
/// run met from its end keeps its earliest fence, as the join of every
/// kind in it (the join is associative and commutative); each other
/// fence is counted by its own kind. DCE removes ops whose results are
/// unused (including irrelevant loads) and `SetReg`s overwritten before
/// any read. Fences read no temp and DCE keeps every one, so neither
/// decision moves the other.
fn merge_and_sweep(
    block: &mut TcgBlock,
    merge: bool,
    dce: bool,
    stats: &mut OptStats,
    scratch: &mut OptScratch,
) {
    if !merge && !dce {
        return;
    }
    let ops = &mut block.ops;
    reset(&mut scratch.keep, ops.len(), true);
    reset(&mut scratch.live, if dce { block.n_temps as usize } else { 0 }, false);
    let (live, keep) = (&mut scratch.live, &mut scratch.keep);
    if let (true, TbExit::JumpReg(t) | TbExit::CondJump { flag: t, .. }) = (dce, &block.exit) {
        set(live, *t, true);
    }
    let mut env_overwritten = [false; crate::ir::env::COUNT];
    // The fence run met so far: its earliest fence and the join of the
    // run's kinds, written back when the run ends.
    let mut run: Option<(usize, FenceKind)> = None;
    for i in (0..ops.len()).rev() {
        // One match per op: whether DCE needs it, and whether it is a
        // memory access (which ends a fence run).
        let (needed, access) = match ops[i] {
            TcgOp::Fence(k) => {
                debug_assert!(k.is_tcg(), "non-TCG fence in IR");
                if merge {
                    run = Some(match run {
                        Some((later, joined)) => {
                            keep[later] = false;
                            stats.fences_merged += 1;
                            if let TcgOp::Fence(removed) = ops[later] {
                                if let Some(kind) = removed.tcg_index() {
                                    stats.fences_merged_by_kind[kind] += 1;
                                }
                            }
                            (i, k.tcg_join(joined))
                        }
                        None => (i, k),
                    });
                }
                (true, false)
            }
            TcgOp::SetReg { reg, .. } => {
                (!std::mem::replace(&mut env_overwritten[reg as usize], true), false)
            }
            TcgOp::GetReg { dst, reg } => {
                env_overwritten[reg as usize] = false;
                (get(live, dst), false)
            }
            TcgOp::MovI { dst, .. }
            | TcgOp::Mov { dst, .. }
            | TcgOp::Bin { dst, .. }
            | TcgOp::Setcond { dst, .. } => (get(live, dst), false),
            TcgOp::Ld { dst, .. } | TcgOp::Ld8 { dst, .. } => (get(live, dst), true),
            TcgOp::St { .. }
            | TcgOp::St8 { .. }
            | TcgOp::Cas { .. }
            | TcgOp::AtomicAdd { .. }
            | TcgOp::CallHelper { .. } => (true, true),
        };
        if merge && access {
            if let Some((at, joined)) = run.take() {
                ops[at] = TcgOp::Fence(joined);
            }
        }
        if !dce {
            continue;
        }
        if needed {
            ops[i].uses().for_each(|u| set(live, u, true));
        } else {
            keep[i] = false;
            stats.dce_removed += 1;
        }
    }
    if let Some((at, joined)) = run {
        ops[at] = TcgOp::Fence(joined);
    }
    if keep.contains(&false) {
        let mut i = 0;
        ops.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }
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

    /// Memory forwarding alone.
    fn forward(b: &mut TcgBlock, policy: OptPolicy, stats: &mut OptStats) {
        fold_and_forward(b, policy, false, true, stats, &mut OptScratch::default());
    }

    /// The backward walk merges a fence run into the join of its kinds
    /// taken from the end; the passes, run one after the other, took it
    /// from the start. That is the same fence only because the join is
    /// associative and commutative.
    #[test]
    fn fence_join_is_associative_and_commutative() {
        for a in FenceKind::TCG_ALL {
            for b in FenceKind::TCG_ALL {
                assert_eq!(a.tcg_join(b), b.tcg_join(a), "{a:?} ⊔ {b:?}");
                for c in FenceKind::TCG_ALL {
                    let (left, right) = (a.tcg_join(b).tcg_join(c), a.tcg_join(b.tcg_join(c)));
                    assert_eq!(left, right, "({a:?} ⊔ {b:?}) ⊔ {c:?}");
                }
            }
        }
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
        let mut stats = OptStats::default();
        merge_and_sweep(&mut b, false, true, &mut stats, &mut OptScratch::default());
        let removed = stats.dce_removed;
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
        forward(&mut b, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.loads_forwarded, 1, "RAW across Fww is allowed");
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Ld { .. })), 0);
        check_equivalent(&orig, &b);

        // Across an Fmr, the verified policy must refuse…
        let mut c = orig.clone();
        c.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward(&mut c, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.loads_forwarded, 0, "RAW across Fmr is unsound (FMR)");

        // …while QEMU's policy (unsoundly) forwards.
        let mut d = orig.clone();
        d.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward(&mut d, OptPolicy::QemuUnsound, &mut stats);
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
        forward(&mut b, OptPolicy::Verified, &mut stats);
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
        forward(&mut b, policy, &mut stats);
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
        forward(&mut b, OptPolicy::Verified, &mut stats);
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
