//! Per-TB translation validation (static analysis over emitted IR).
//!
//! Risotto's mapping schemes and optimizer side conditions are verified
//! offline (`mappings::check`, `tests/opt_soundness.rs`), but a bug in
//! the *implementation* of a pass — like the PR-2 WAW side-condition
//! regression — only surfaces if some corpus test happens to exercise
//! it. Following the translation-validation approach (Metere et al.,
//! "Sound Transpilation from Binary to Machine-Independent Code"), this
//! module checks every block the pipeline actually emits, at
//! translation time:
//!
//! * [`lint_in`] — **Pass 1**, IR well-formedness: temps are defined
//!   before use and in range, env register indices resolve, and fences
//!   are TCG fences. ("No ops after a terminal exit" holds
//!   structurally: [`TcgBlock`] carries a single [`TbExit`] after the op
//!   list, so there is nothing to check.)
//! * [`check_obligations`] — **Pass 2**, the fence-obligation checker:
//!   given the frontend's *reference* IR and the optimized IR, it
//!   recomputes every guest memory event's ordering obligation under
//!   the configured [`FencePlacement`] and statically proves the
//!   optimized block still discharges all of them after fence merging
//!   and WAW store elimination. The discharge predicate is
//!   [`FenceKind::tcg_at_least`] over
//!   [`FenceKind::tcg_join`] — the same ordering primitives the
//!   `mappings` scheme/check layer is built on (`tests/verifier.rs`
//!   cross-validates the two on the litmus corpus).
//!
//! Pass 3 (the host-encoding checker) lives in `risotto-host-arm`
//! because it decodes Arm bytes; it reports through the same
//! [`VerifyError`] type.
//!
//! The checker is *complete* for the current pass pipeline (zero false
//! positives): no pass drops or weakens a fence, and merging replaces
//! two fences in an access-free region with their join, so the
//! fence-join between any two surviving accesses is invariant. It is
//! *sound* for the targeted bug classes: a dropped, reordered or
//! downgraded fence weakens some inter-access join, an unsoundly
//! eliminated store (or any eliminated atomic) fails the elimination
//! side conditions, and both are reported as [`VerifyError`]s.

use crate::ir::{env, TbExit, TcgBlock, TcgOp, Temp};
use crate::{reset, with_thread_scratch};
use risotto_memmodel::{ElimKind, FenceKind, FencePlacement, GuestAccess, OptPolicy};
use std::cell::RefCell;

thread_local!(static SPARE: RefCell<VerifyScratch> = RefCell::default());

/// Which verifier pass rejected the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyPass {
    /// Pass 1: IR well-formedness lint.
    IrLint,
    /// Pass 2: fence-obligation / translation-validation check.
    FenceObligations,
    /// Pass 3: host-encoding decode-back check (reported by
    /// `risotto-host-arm`).
    Encoding,
}

impl VerifyPass {
    /// Short name used in diagnostics and metrics.
    pub fn name(self) -> &'static str {
        match self {
            VerifyPass::IrLint => "ir-lint",
            VerifyPass::FenceObligations => "fence-obligations",
            VerifyPass::Encoding => "encoding",
        }
    }
}

/// A structured verifier diagnostic.
///
/// The engine attaches the TB id and routes the block into the
/// quarantine/re-translate fault path instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Which pass rejected the block.
    pub pass: VerifyPass,
    /// Guest pc of the rejected block.
    pub guest_pc: u64,
    /// Index of the offending op in the block the violation was found
    /// in (the optimized block unless the message says otherwise), when
    /// attributable to a single op.
    pub op_index: Option<usize>,
    /// Human-readable statement of the violated obligation.
    pub obligation: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verify[{}] at {:#x}", self.pass.name(), self.guest_pc)?;
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        write!(f, ": {}", self.obligation)
    }
}

impl std::error::Error for VerifyError {}

// ---------------------------------------------------------------------
// Pass 1: IR lint.
// ---------------------------------------------------------------------

/// Passes 1 and 2's reusable working memory (event lists, fence gaps,
/// the event matching) — kept between blocks so a steady-state check
/// allocates nothing. Every check re-initializes what it reads before
/// reading it, so a previous block, or a check that returned early with
/// an error, leaves nothing behind that a later check can observe.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    /// temp → defined so far ([`lint`]).
    defined: Vec<bool>,
    /// op index → scheme fence removed by the relaxation
    /// ([`relax_block`], and Pass 2's relaxed view of its reference).
    dropped: Vec<bool>,
    /// The reference block's memory events and fence gaps.
    reference: EventMap,
    /// The optimized block's.
    optimized: EventMap,
    /// temp → index of the reference event defining it.
    def_event: Vec<u32>,
    /// optimized event → the reference event it was matched to.
    partner: Vec<usize>,
    /// Reference events no optimized event was matched to.
    unmatched: Vec<usize>,
    /// optimized event → its reference partner's obligation is relaxed.
    relaxed: Vec<bool>,
    /// Guest pc of the block `reference` was captured from, until a
    /// check consumes the capture.
    captured_pc: Option<u64>,
}

impl VerifyScratch {
    /// Pass 2, first half: records what the proof needs of `reference`
    /// — its memory events and the fence gaps around them, with the
    /// scheme fences of the events set in `mask` relaxed away — so the
    /// caller can go on to optimize the block in place instead of
    /// keeping a copy of it. [`check_captured`] is the second half.
    pub fn capture_reference(
        &mut self,
        reference: &TcgBlock,
        placement: FencePlacement,
        mask: &[bool],
    ) {
        mark_relaxed(reference, placement, mask, &mut self.dropped);
        self.reference.extract(reference, &self.dropped);
        self.captured_pc = Some(reference.guest_pc);
    }
}

/// [`lint_in`] over the calling thread's spare scratch. The flag is
/// ignored; it stays only because the frozen `benchmark/` replay passes
/// it.
pub fn lint(block: &TcgBlock, _ignored: bool) -> Result<(), VerifyError> {
    with_thread_scratch(&SPARE, |scratch| lint_in(block, scratch))
}

/// Pass 1: checks IR well-formedness, over a caller-owned
/// [`VerifyScratch`].
pub fn lint_in(block: &TcgBlock, scratch: &mut VerifyScratch) -> Result<(), VerifyError> {
    let err = |op_index: Option<usize>, obligation: String| VerifyError {
        pass: VerifyPass::IrLint,
        guest_pc: block.guest_pc,
        op_index,
        obligation,
    };
    let n = block.n_temps;
    // Every index below is range-checked against `n` first.
    reset(&mut scratch.defined, n as usize, false);
    let defined = &mut scratch.defined;
    for (i, op) in block.ops.iter().enumerate() {
        for Temp(u) in op.uses() {
            if u >= n {
                return Err(err(Some(i), format!("use of out-of-range temp t{u} (n_temps {n})")));
            }
            if !defined[u as usize] {
                return Err(err(Some(i), format!("use of t{u} before definition")));
            }
        }
        if let Some(Temp(d)) = op.def() {
            if d >= n {
                return Err(err(Some(i), format!("def of out-of-range temp t{d} (n_temps {n})")));
            }
            defined[d as usize] = true;
        }
        match op {
            TcgOp::Fence(k) if !k.is_tcg() => {
                return Err(err(Some(i), format!("non-TCG fence {k:?} in IR")));
            }
            TcgOp::GetReg { reg, .. } | TcgOp::SetReg { reg, .. }
                if *reg as usize >= env::COUNT =>
            {
                return Err(err(Some(i), format!("env register {reg} out of range")));
            }
            _ => {}
        }
    }
    let exit_temp = match &block.exit {
        TbExit::JumpReg(t) => Some(*t),
        TbExit::CondJump { flag, .. } => Some(*flag),
        _ => None,
    };
    if let Some(Temp(u)) = exit_temp {
        if u >= n {
            return Err(err(None, format!("exit uses out-of-range temp t{u} (n_temps {n})")));
        }
        if !defined[u as usize] {
            return Err(err(None, format!("exit uses t{u} before definition")));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Pass 2: fence obligations (translation validation).
// ---------------------------------------------------------------------

/// Shape of a guest memory event, for matching reference against
/// optimized IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Ld,
    Ld8,
    St,
    St8,
    Cas,
    AtomicAdd,
    Helper(crate::ir::Helper),
}

impl Shape {
    /// The shape of `op`, when it is a memory event.
    fn of(op: &TcgOp) -> Option<Shape> {
        Some(match op {
            TcgOp::Ld { .. } => Shape::Ld,
            TcgOp::Ld8 { .. } => Shape::Ld8,
            TcgOp::St { .. } => Shape::St,
            TcgOp::St8 { .. } => Shape::St8,
            TcgOp::Cas { .. } => Shape::Cas,
            TcgOp::AtomicAdd { .. } => Shape::AtomicAdd,
            TcgOp::CallHelper { helper, .. } => Shape::Helper(*helper),
            _ => return None,
        })
    }

    /// The x86→TCG table row of a plain guest access; RMWs and helper
    /// calls carry their SC semantics in the op itself.
    fn access(self) -> Option<GuestAccess> {
        match self {
            Shape::Ld | Shape::Ld8 => Some(GuestAccess::Load),
            Shape::St | Shape::St8 => Some(GuestAccess::Store),
            Shape::Cas | Shape::AtomicAdd | Shape::Helper(_) => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Ld => "load",
            Shape::Ld8 => "byte load",
            Shape::St => "store",
            Shape::St8 => "byte store",
            Shape::Cas => "cas",
            Shape::AtomicAdd => "atomic add",
            Shape::Helper(_) => "helper call",
        }
    }
}

/// One memory event of a block.
#[derive(Debug, Clone, Copy)]
struct Ev {
    shape: Shape,
    /// Index in `block.ops`.
    op_index: usize,
    /// Defining temp (loads / RMWs / helpers-with-result); stores have
    /// none and are matched positionally.
    def: Option<Temp>,
}

/// The gap *before* event `i` (or after the last event, for the final
/// gap): its fences, as a range of [`EventMap::fences`].
#[derive(Debug, Clone, Copy, Default)]
struct Gap {
    start: usize,
    end: usize,
}

/// A block split into its memory-event sequence and the `events + 1`
/// fence gaps around them. The gaps' fences lie back to back in one
/// flat list, in block order.
#[derive(Debug, Default)]
struct EventMap {
    events: Vec<Ev>,
    gaps: Vec<Gap>,
    fences: Vec<FenceKind>,
}

impl EventMap {
    /// Maps `block` as it reads with the ops marked in `dropped`
    /// removed (an empty slice removes none): event op indices count
    /// the surviving ops only.
    fn extract(&mut self, block: &TcgBlock, dropped: &[bool]) {
        self.events.clear();
        self.gaps.clear();
        self.fences.clear();
        let mut gap = Gap::default();
        let survivors =
            block.ops.iter().enumerate().filter(|(i, _)| !dropped.get(*i).is_some_and(|&d| d));
        for (op_index, (_, op)) in survivors.enumerate() {
            if let Some(shape) = Shape::of(op) {
                self.events.push(Ev { shape, op_index, def: op.def() });
                gap.end = self.fences.len();
                self.gaps.push(gap);
                gap = Gap { start: gap.end, end: gap.end };
                continue;
            }
            if let TcgOp::Fence(k) = op {
                self.fences.push(*k);
            }
        }
        gap.end = self.fences.len();
        self.gaps.push(gap);
    }

    /// The fences of the gap range `lo..=hi`, in block order.
    fn fences_in(&self, lo: usize, hi: usize) -> &[FenceKind] {
        &self.fences[self.gaps[lo].start..self.gaps[hi].end]
    }

    /// Joins every fence in the gap range `lo..=hi`.
    fn join(&self, lo: usize, hi: usize) -> Option<FenceKind> {
        self.fences_in(lo, hi).iter().copied().reduce(FenceKind::tcg_join)
    }
}

/// `true` when the ordering provided by `have` covers the requirement
/// `need` (`None` = no fence).
fn at_least(have: Option<FenceKind>, need: Option<FenceKind>) -> bool {
    match (have, need) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(h), Some(n)) => h.tcg_at_least(n),
    }
}

fn fence_name(f: Option<FenceKind>) -> String {
    match f {
        None => "none".into(),
        Some(k) => k.tcg_name().map(str::to_owned).unwrap_or_else(|| format!("{k:?}")),
    }
}

/// Checks that every event of `map` (a block at `guest_pc`) discharges
/// its scheme obligation — the minimum fence join before and after it,
/// which is the [`FencePlacement::fences`] table's own fences for its
/// access shape — from the fences in its adjacent gaps. Events
/// whose index is set in `relaxed` carry an analysis-relaxed obligation
/// and are exempt (the relaxation itself was already recomputed from the
/// analysis facts by [`check_obligations_masked`]).
fn check_scheme(
    guest_pc: u64,
    map: &EventMap,
    placement: FencePlacement,
    relaxed: &[bool],
) -> Result<(), VerifyError> {
    for (i, ev) in map.events.iter().enumerate() {
        if relaxed.get(i).copied().unwrap_or(false) {
            continue;
        }
        let (before, after) = ev.shape.access().map_or((None, None), |a| placement.fences(a));
        for (side, gap, need) in [("leading", i, before), ("trailing", i + 1, after)] {
            let have = map.join(gap, gap);
            if !at_least(have, need) {
                let position = if gap == i { "preceding" } else { "following" };
                return Err(VerifyError {
                    pass: VerifyPass::FenceObligations,
                    guest_pc,
                    op_index: Some(ev.op_index),
                    obligation: format!(
                        "{} requires a {side} fence >= {} but the {position} gap provides {}",
                        ev.shape.name(),
                        fence_name(need),
                        fence_name(have),
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Pass 2: proves the optimized block still discharges every ordering
/// obligation of the reference (pre-optimization) block.
///
/// `reference` is the frontend's raw translation of the same guest
/// block. The proof has four parts:
///
/// 1. every optimized memory event matches a reference event of the
///    same shape, in order (loads and RMWs by their SSA result temp,
///    stores right-aligned — WAW removes the *earlier* store);
/// 2. every reference event missing from the optimized block was
///    legally eliminable: plain (byte) loads always (irrelevant-read /
///    forwarding elimination), a plain store only when a later store
///    overwrites it with only loads in between and every crossed fence
///    admitted by [`OptPolicy::may_cross`] for WAW;
///    atomics, helper calls and byte stores never;
/// 3. between any two surviving events (and the block edges) the
///    optimized fence join is at least the reference fence join — a
///    dropped, reordered or downgraded fence fails here;
/// 4. each block independently satisfies the per-event scheme
///    obligations of `placement`, read off [`FencePlacement::fences`]
///    (e.g. `ld; >=Frm` / `>=Fww; st` for
///    [`FencePlacement::VerifiedTrailing`]) — an access emitted without
///    its table fences fails here.
pub fn check_obligations(
    reference: &TcgBlock,
    optimized: &TcgBlock,
    placement: FencePlacement,
    policy: OptPolicy,
) -> Result<(), VerifyError> {
    check_obligations_masked(reference, optimized, placement, policy, &[])
}

/// Analysis-driven relaxation: removes the scheme-attached fence of each
/// masked memory event from `block`, which must be raw frontend output
/// (the fences still sit adjacent to their access). `mask` is indexed by
/// memory-event order (the order [`check_obligations`] matches events
/// in); entries for RMW/helper events are ignored — their ordering lives
/// in the op itself and can never be relaxed. Returns the number of
/// fences removed.
///
/// Soundness contract: a masked event must be provably core-private or
/// read-only-shared (no inter-thread ordering can be observed through
/// it), which is exactly what `risotto-analysis` certifies and what
/// [`check_obligations_masked`] re-derives from the pristine facts at
/// install time.
pub fn relax_block(block: &mut TcgBlock, placement: FencePlacement, mask: &[bool]) -> u32 {
    with_thread_scratch(&SPARE, |scratch| relax_block_in(block, placement, mask, scratch))
}

/// [`relax_block`] over a caller-owned [`VerifyScratch`].
pub fn relax_block_in(
    block: &mut TcgBlock,
    placement: FencePlacement,
    mask: &[bool],
    scratch: &mut VerifyScratch,
) -> u32 {
    let removed = mark_relaxed(block, placement, mask, &mut scratch.dropped);
    if removed > 0 {
        let mut dropped = scratch.dropped.iter();
        block.ops.retain(|_| !dropped.next().is_some_and(|&d| d));
    }
    removed
}

/// Marks in `dropped` (one entry per op) the scheme fences of each masked
/// memory event of `block` and returns how many were marked; `dropped`
/// comes back empty when no mask bit is set.
fn mark_relaxed(
    block: &TcgBlock,
    placement: FencePlacement,
    mask: &[bool],
    dropped: &mut Vec<bool>,
) -> u32 {
    dropped.clear();
    if !mask.iter().any(|&m| m) {
        return 0;
    }
    dropped.resize(block.ops.len(), false);
    let mut event = 0usize;
    let mut removed = 0u32;
    for (i, op) in block.ops.iter().enumerate() {
        let Some(shape) = Shape::of(op) else { continue };
        let masked = mask.get(event).copied().unwrap_or(false);
        event += 1;
        let Some(access) = shape.access().filter(|_| masked) else { continue };
        // The frontend emits each access's table fences directly adjacent
        // to it; anything else (already-optimized IR, a hand-built block)
        // conservatively relaxes nothing on that side.
        let (lead, trail) = placement.fences(access);
        for (j, want) in [(i.checked_sub(1), lead), (Some(i + 1), trail)] {
            let (Some(j), Some(want)) = (j, want) else { continue };
            if matches!(block.ops.get(j), Some(TcgOp::Fence(k)) if *k == want) && !dropped[j] {
                dropped[j] = true;
                removed += 1;
            }
        }
    }
    removed
}

/// [`check_obligations`] against an analysis-relaxed reference: the
/// obligations of events set in `mask` are recomputed as relaxed (their
/// scheme fence removed from the checker's view of `reference`, exactly
/// as [`relax_block`] would remove it) before the four-part proof runs.
/// The caller must derive `mask` from the *pristine* analysis facts —
/// never from the mask the translation pipeline actually applied — so a
/// pipeline that relaxed an event the facts do not certify fails part
/// 3/4 here with a structured [`VerifyError`].
pub fn check_obligations_masked(
    reference: &TcgBlock,
    optimized: &TcgBlock,
    placement: FencePlacement,
    policy: OptPolicy,
    mask: &[bool],
) -> Result<(), VerifyError> {
    with_thread_scratch(&SPARE, |scratch| {
        check_obligations_in(reference, optimized, placement, policy, mask, scratch)
    })
}

/// [`check_obligations_masked`] over a caller-owned [`VerifyScratch`].
pub fn check_obligations_in(
    reference: &TcgBlock,
    optimized: &TcgBlock,
    placement: FencePlacement,
    policy: OptPolicy,
    mask: &[bool],
    scratch: &mut VerifyScratch,
) -> Result<(), VerifyError> {
    scratch.capture_reference(reference, placement, mask);
    check_captured(optimized, placement, policy, mask, scratch)
}

/// Pass 2, second half: the four-part proof of `optimized` against the
/// reference [`VerifyScratch::capture_reference`] last recorded in
/// `scratch`, under the same `placement` and `mask`. The capture is
/// consumed: a check with none outstanding, or with one taken from a
/// block at another guest pc, is a structured error.
pub fn check_captured(
    optimized: &TcgBlock,
    placement: FencePlacement,
    policy: OptPolicy,
    mask: &[bool],
    scratch: &mut VerifyScratch,
) -> Result<(), VerifyError> {
    let err = |op_index: Option<usize>, obligation: String| VerifyError {
        pass: VerifyPass::FenceObligations,
        guest_pc: optimized.guest_pc,
        op_index,
        obligation,
    };
    match scratch.captured_pc.take() {
        Some(pc) if pc == optimized.guest_pc => {}
        Some(pc) => {
            return Err(err(
                None,
                format!(
                    "reference block pc {pc:#x} does not match optimized pc {:#x}",
                    optimized.guest_pc
                ),
            ));
        }
        None => return Err(err(None, "no reference block was captured for this check".into())),
    }

    let VerifyScratch {
        reference: re, optimized: oe, def_event, partner, unmatched, relaxed, ..
    } = scratch;
    oe.extract(optimized, &[]);

    // Scheme obligations hold for the frontend's (possibly analysis-
    // relaxed) output (part 4; the optimized block is checked after
    // event matching, when relaxed events can be mapped through).
    check_scheme(optimized.guest_pc, re, placement, mask)?;

    // Reference events by SSA result temp (the frontend allocates a
    // fresh temp per def, so defs are unique).
    const NO_EVENT: u32 = u32::MAX;
    let defs = re.events.iter().filter_map(|ev| ev.def);
    reset(def_event, defs.map(|t| t.0 as usize + 1).max().unwrap_or(0), NO_EVENT);
    for (i, ev) in re.events.iter().enumerate() {
        if let Some(Temp(t)) = ev.def {
            if std::mem::replace(&mut def_event[t as usize], i as u32) != NO_EVENT {
                return Err(err(
                    Some(ev.op_index),
                    format!("reference defines t{t} at two memory events (not SSA)"),
                ));
            }
        }
    }

    // Part 1: match optimized events to reference events, walking
    // backwards so stores right-align within their segment.
    reset(partner, oe.events.len(), usize::MAX);
    unmatched.clear();
    let mut r: isize = re.events.len() as isize - 1;
    for (o, ev) in oe.events.iter().enumerate().rev() {
        let p = if let Some(Temp(t)) = ev.def {
            let Some(p) = def_event.get(t as usize).copied().filter(|&p| p != NO_EVENT) else {
                return Err(err(
                    Some(ev.op_index),
                    format!("{} defining t{t} has no reference counterpart", ev.shape.name()),
                ));
            };
            if p as isize > r {
                return Err(err(
                    Some(ev.op_index),
                    format!(
                        "{} defining t{t} was reordered across another access",
                        ev.shape.name()
                    ),
                ));
            }
            p as usize
        } else {
            // A store: nearest same-shaped reference store at or before
            // the cursor.
            let mut p = r;
            loop {
                if p < 0 {
                    return Err(err(
                        Some(ev.op_index),
                        format!("{} has no reference counterpart", ev.shape.name()),
                    ));
                }
                if re.events[p as usize].shape == ev.shape {
                    break;
                }
                p -= 1;
            }
            p as usize
        };
        let rev = &re.events[p];
        if rev.shape != ev.shape {
            return Err(err(
                Some(ev.op_index),
                format!(
                    "access changed shape: reference op {} is a {}, optimized op {} a {}",
                    rev.op_index,
                    rev.shape.name(),
                    ev.op_index,
                    ev.shape.name()
                ),
            ));
        }
        unmatched.extend((p + 1)..=(r as usize));
        partner[o] = p;
        r = p as isize - 1;
    }
    unmatched.extend(0..(r + 1) as usize);

    // Part 4 for the optimized block: scheme obligations per surviving
    // event, exempting events whose reference partner was relaxed.
    relaxed.clear();
    relaxed.extend(partner.iter().map(|&p| mask.get(p).copied().unwrap_or(false)));
    check_scheme(optimized.guest_pc, oe, placement, relaxed)?;

    // Part 2: every eliminated reference event must have been legally
    // eliminable.
    for &k in unmatched.iter() {
        let ev = &re.events[k];
        match ev.shape {
            // Load forwarding / irrelevant-read elimination is always
            // sound in the TCG model (reads impose no ord out-edges).
            Shape::Ld | Shape::Ld8 => {}
            Shape::Cas | Shape::AtomicAdd | Shape::Helper(_) => {
                return Err(err(
                    Some(ev.op_index),
                    format!(
                        "{} eliminated from reference (atomics may never be dropped)",
                        ev.shape.name()
                    ),
                ));
            }
            Shape::St8 => {
                return Err(err(
                    Some(ev.op_index),
                    "byte store eliminated from reference (no WAW elimination for St8)".into(),
                ));
            }
            Shape::St => {
                // Find the overwriting store.
                let mut killer = None;
                for (j, later) in re.events.iter().enumerate().skip(k + 1) {
                    match later.shape {
                        Shape::St => {
                            killer = Some(j);
                            break;
                        }
                        Shape::Ld | Shape::Ld8 => continue,
                        _ => break,
                    }
                }
                let Some(j) = killer else {
                    return Err(err(
                        Some(ev.op_index),
                        "store eliminated with no overwriting store before the next atomic/helper or block end".into(),
                    ));
                };
                for &f in re.fences_in(k + 1, j) {
                    if !policy.may_cross(ElimKind::Waw, f) {
                        return Err(err(
                            Some(ev.op_index),
                            format!(
                                "store eliminated across fence {} (WAW side condition violated)",
                                fence_name(Some(f))
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Part 3: inter-access fence joins are preserved. Optimized gap i
    // spans the reference gaps between partner(i-1) and partner(i)
    // (block edges anchor the first and last segments).
    for i in 0..=oe.events.len() {
        let lo = if i == 0 { 0 } else { partner[i - 1] + 1 };
        let hi = if i == oe.events.len() { re.events.len() } else { partner[i] };
        let need = re.join(lo, hi);
        let have = oe.join(i, i);
        if !at_least(have, need) {
            let op_index = oe.events.get(i).map(|e| e.op_index);
            return Err(err(
                op_index,
                format!(
                    "fence join weakened between surviving accesses: reference requires {}, optimized provides {}",
                    fence_name(need),
                    fence_name(have)
                ),
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::FrontendConfig;
    use crate::ir::Helper;
    use crate::opt::{optimize, PassConfig};
    use risotto_guest_x86::{Assembler, Gpr};

    fn fetcher(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
        move |addr: u64| {
            let mut w = [0u8; 16];
            let off = (addr - base) as usize;
            for (i, b) in w.iter_mut().enumerate() {
                *b = bytes.get(off + i).copied().unwrap_or(0);
            }
            w
        }
    }

    fn sample_block(cfg: FrontendConfig) -> TcgBlock {
        let mut a = Assembler::new(0x1000);
        a.load(Gpr::RAX, Gpr::RDI, 0);
        a.store(Gpr::RSI, 0, Gpr::RAX);
        a.load(Gpr::RBX, Gpr::RDI, 8);
        a.store(Gpr::RSI, 8, Gpr::RBX);
        a.hlt();
        let (bytes, _) = a.finish().unwrap();
        crate::translate_block(0x1000, cfg, fetcher(bytes, 0x1000)).unwrap()
    }

    #[test]
    fn clean_pipeline_verifies() {
        for (cfg, policy) in [
            (FrontendConfig::risotto(), OptPolicy::Verified),
            (FrontendConfig::tcg_ver(), OptPolicy::Verified),
            (FrontendConfig::qemu(), OptPolicy::QemuUnsound),
            (FrontendConfig::no_fences(), OptPolicy::QemuUnsound),
        ] {
            let reference = sample_block(cfg);
            let mut opt = reference.clone();
            optimize(&mut opt, policy);
            lint(&opt, false).unwrap();
            check_obligations(&reference, &opt, cfg.fences, policy).unwrap();
        }
    }

    #[test]
    fn lint_rejects_undefined_temp_use() {
        let block = TcgBlock {
            guest_pc: 0x1000,
            guest_len: 1,
            ops: vec![TcgOp::Mov { dst: Temp(1), src: Temp(0) }],
            exit: TbExit::Halt,
            n_temps: 2,
        };
        let e = lint(&block, false).unwrap_err();
        assert_eq!(e.pass, VerifyPass::IrLint);
        assert_eq!(e.op_index, Some(0));
    }

    #[test]
    fn lint_rejects_undefined_exit_flag() {
        let block = TcgBlock {
            guest_pc: 0x1000,
            guest_len: 1,
            ops: vec![],
            exit: TbExit::JumpReg(Temp(0)),
            n_temps: 1,
        };
        let e = lint(&block, false).unwrap_err();
        assert_eq!(e.op_index, None);
    }

    #[test]
    fn dropped_fence_is_flagged() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        let mut opt = reference.clone();
        optimize(&mut opt, OptPolicy::Verified);
        let fence_at =
            opt.ops.iter().position(|o| matches!(o, TcgOp::Fence(_))).expect("has a fence");
        opt.ops.remove(fence_at);
        let e = check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).unwrap_err();
        assert_eq!(e.pass, VerifyPass::FenceObligations);
    }

    #[test]
    fn downgraded_fence_is_flagged() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        let mut opt = reference.clone();
        optimize(&mut opt, OptPolicy::Verified);
        let fence_at =
            opt.ops.iter().position(|o| matches!(o, TcgOp::Fence(_))).expect("has a fence");
        opt.ops[fence_at] = TcgOp::Fence(FenceKind::Facq);
        assert!(check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).is_err());
    }

    #[test]
    fn reordered_fence_is_flagged() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        let mut opt = reference.clone();
        optimize(&mut opt, OptPolicy::Verified);
        // Swap a fence across an adjacent memory access.
        let pos = opt
            .ops
            .iter()
            .zip(opt.ops.iter().skip(1))
            .position(|(a, b)| {
                (matches!(a, TcgOp::Fence(_)) && b.is_memory_access())
                    || (a.is_memory_access() && matches!(b, TcgOp::Fence(_)))
            })
            .expect("fence adjacent to an access");
        opt.ops.swap(pos, pos + 1);
        assert!(check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).is_err());
    }

    #[test]
    fn unsound_store_elimination_is_flagged() {
        // `Fww; St; Fww; St` with the first store dropped: the WAW side
        // condition forbids crossing Fww (the PR-2 bug class).
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        let mut opt = reference.clone();
        optimize(&mut opt, OptPolicy::Verified);
        let st_at =
            opt.ops.iter().position(|o| matches!(o, TcgOp::St { .. })).expect("has a store");
        opt.ops.remove(st_at);
        let e = check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).unwrap_err();
        assert!(e.obligation.contains("store eliminated"), "{e}");
    }

    #[test]
    fn eliminated_atomic_is_flagged() {
        let reference = TcgBlock {
            guest_pc: 0x1000,
            guest_len: 1,
            ops: vec![
                TcgOp::MovI { dst: Temp(0), val: 0 },
                TcgOp::CallHelper {
                    helper: Helper::CmpxchgSc,
                    args: vec![Temp(0)],
                    ret: Some(Temp(1)),
                },
            ],
            exit: TbExit::Halt,
            n_temps: 2,
        };
        let mut opt = reference.clone();
        opt.ops.pop();
        let e = check_obligations(&reference, &opt, FencePlacement::None, OptPolicy::Verified)
            .unwrap_err();
        assert!(e.obligation.contains("atomics"), "{e}");
    }

    #[test]
    fn relaxed_block_verifies_only_under_matching_mask() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        // Events: Ld, St, Ld, St. Relax the first load.
        let mask = [true, false, false, false];
        let mut opt = reference.clone();
        let removed = relax_block(&mut opt, cfg.fences, &mask);
        assert_eq!(removed, 1, "one Frm dropped");
        optimize(&mut opt, OptPolicy::Verified);
        // The unmasked checker must reject the missing Frm…
        let e = check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).unwrap_err();
        assert_eq!(e.pass, VerifyPass::FenceObligations);
        // …while the masked checker re-derives the relaxation and accepts.
        check_obligations_masked(&reference, &opt, cfg.fences, OptPolicy::Verified, &mask).unwrap();
    }

    #[test]
    fn over_relaxation_is_flagged() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        // The pipeline relaxed the first store, but the (pristine) facts
        // only certify the first load: Pass 2 must reject.
        let mut opt = reference.clone();
        relax_block(&mut opt, cfg.fences, &[false, true, false, false]);
        optimize(&mut opt, OptPolicy::Verified);
        let e = check_obligations_masked(
            &reference,
            &opt,
            cfg.fences,
            OptPolicy::Verified,
            &[true, false, false, false],
        )
        .unwrap_err();
        assert_eq!(e.pass, VerifyPass::FenceObligations);
    }

    #[test]
    fn relax_ignores_atomic_events() {
        // Cas carries its ordering in the op; masking it must remove
        // nothing.
        let mut a = Assembler::new(0x1000);
        a.cmpxchg(Gpr::RSI, 0, Gpr::RAX);
        a.hlt();
        let (bytes, _) = a.finish().unwrap();
        let cfg = FrontendConfig::risotto();
        let mut block = crate::translate_block(0x1000, cfg, fetcher(bytes, 0x1000)).unwrap();
        assert_eq!(relax_block(&mut block, cfg.fences, &[true]), 0);
    }

    #[test]
    fn a_capture_serves_one_check_of_its_own_block() {
        let cfg = FrontendConfig::risotto();
        let reference = sample_block(cfg);
        let mut opt = reference.clone();
        optimize(&mut opt, OptPolicy::Verified);
        let mut scratch = VerifyScratch::default();
        let check = |optimized: &TcgBlock, scratch: &mut VerifyScratch| {
            check_captured(optimized, cfg.fences, OptPolicy::Verified, &[], scratch)
        };
        let e = check(&opt, &mut scratch).unwrap_err();
        assert!(e.obligation.contains("no reference block"), "{e}");
        scratch.capture_reference(&reference, cfg.fences, &[]);
        check(&opt, &mut scratch).unwrap();
        let e = check(&opt, &mut scratch).unwrap_err();
        assert!(e.obligation.contains("no reference block"), "a capture is consumed: {e}");
        scratch.capture_reference(&reference, cfg.fences, &[]);
        let elsewhere = TcgBlock { guest_pc: 0x2000, ..opt.clone() };
        let e = check(&elsewhere, &mut scratch).unwrap_err();
        assert!(e.obligation.contains("does not match"), "{e}");
    }

    #[test]
    fn pass_ablation_still_verifies() {
        let cfg = FrontendConfig::risotto();
        for passes in [
            PassConfig::none(),
            PassConfig::all_except("merge_fences"),
            PassConfig::all_except("forward_memory"),
            PassConfig::all_except("constant_fold"),
            PassConfig::all_except("dce"),
        ] {
            let reference = sample_block(cfg);
            let mut opt = reference.clone();
            crate::optimize_with(&mut opt, OptPolicy::Verified, passes);
            check_obligations(&reference, &opt, cfg.fences, OptPolicy::Verified).unwrap();
        }
    }
}
