//! The x86→TCG half of the mapping tables, and the Fig. 10 elimination
//! rule.
//!
//! [`FencePlacement::fences`] is the one x86→TCG fence table (Fig. 2 and
//! Fig. 7a); [`FenceKind::arm_dmb`] and [`FenceKind::tso_fence`] are its
//! TCG→host halves. [`OptPolicy::may_cross`] is the one Fig. 10 side
//! condition. The DBT's frontend, tier-0 templates, optimizer and
//! verifier read these, and so do the litmus-level schemes and
//! transformations in `risotto-mappings`, so the Theorem-1 sweep
//! certifies exactly the rows the engine runs.

use crate::FenceKind;

/// Where the guest-ordering fences go (the x86→TCG mapping scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FencePlacement {
    /// QEMU's Fig. 2: leading fences. QEMU generates `Fmr`/`Fmw` and then
    /// demotes the `Fmr` to `Frr` for x86 guests (§3.1, store→load
    /// reordering is allowed); the table holds the demoted form, so loads
    /// lower to `DMBLD; LDR` and stores to `DMBFF; STR` exactly as Fig. 2
    /// shows.
    QemuLeading,
    /// The verified Fig. 7a: `Frm` after loads, `Fww` before stores.
    VerifiedTrailing,
    /// No access fences (the incorrect `no-fences` oracle); `MFENCE`
    /// still maps to `Fsc`.
    None,
}

/// A guest instruction shape the x86→TCG table places fences around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestAccess {
    /// A plain load: `MOV r, [m]`, its byte form, `POP` and `RET`.
    Load,
    /// A plain store: `MOV [m], r`, its byte form, `PUSH` and `CALL`.
    Store,
    /// `MFENCE`, which maps to its fence alone.
    Mfence,
}

impl FencePlacement {
    /// The leading and trailing TCG fence the scheme places around
    /// `access`. Locked RMWs are not in the table: they map to a TCG RMW
    /// with SC semantics and no fence under every placement.
    pub fn fences(self, access: GuestAccess) -> (Option<FenceKind>, Option<FenceKind>) {
        use FenceKind::*;
        match (self, access) {
            (_, GuestAccess::Mfence) => (Some(Fsc), None),
            (FencePlacement::QemuLeading, GuestAccess::Load) => (Some(Frr), None),
            (FencePlacement::QemuLeading, GuestAccess::Store) => (Some(Fmw), None),
            (FencePlacement::VerifiedTrailing, GuestAccess::Load) => (None, Some(Frm)),
            (FencePlacement::VerifiedTrailing, GuestAccess::Store) => (Some(Fww), None),
            (FencePlacement::None, _) => (None, None),
        }
    }
}

/// Which Fig. 10 memory-access elimination is being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElimKind {
    /// Forward a store's value into a later load of the same address.
    Raw,
    /// Forward an earlier load's value into a later load.
    Rar,
    /// Delete an earlier store overwritten by a later one.
    Waw,
}

/// `true` when an elimination of `kind` may cross the fence `f` under the
/// verified policy (Fig. 10 side conditions).
///
/// RAW and RAR move a *read* of the location earlier (to the forwarded
/// def), so the fences they may cross are the ones whose ordering the
/// surviving access still provides: `Fsc`/`Fww` for RAW, `Frm`/`Fww` for
/// RAR. WAW deletes the *first write*: every `[W];po;[F];po;[post(F)]`
/// edge that write contributed disappears, and the surviving same-address
/// write (coherence-after it) only inherits the in-edges. So deleting a
/// store across `f` is sound exactly when writes are not in `f`'s
/// predecessor class — `Frr`/`Frw`/`Frm`. In particular `Fww`, which
/// Fig. 10's published `o ∈ {rm, ww}` admits, makes WAW *unsound*: with
/// `St x; Fww; St x; St y` the deleted store carries the `Fww` edge into
/// `St y`, and dropping it lets an observer see `y` new but `x` stale
/// (`tests/opt_soundness.rs` exercises the counterexample exhaustively).
pub fn elim_may_cross(kind: ElimKind, f: FenceKind) -> bool {
    match kind {
        ElimKind::Raw => matches!(f, FenceKind::Fsc | FenceKind::Fww),
        ElimKind::Rar => matches!(f, FenceKind::Frm | FenceKind::Fww),
        ElimKind::Waw => f.tcg_order().is_some_and(|(pre, _)| !pre.writes),
    }
}

/// Which elimination side conditions the memory-forwarding pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptPolicy {
    /// Fig. 10: RAW may cross `Fsc`/`Fww`, RAR may cross `Frm`/`Fww`, and
    /// WAW (which deletes a *write*) only fences with a read-only
    /// predecessor class — `Frr`/`Frw`/`Frm`. See [`elim_may_cross`].
    Verified,
    /// QEMU's fence-oblivious eliminations (unsound across `Fmr`, §3.2).
    QemuUnsound,
}

impl OptPolicy {
    /// `true` when an elimination of `kind` may cross the fence `f` under
    /// this policy. A non-TCG fence admits nothing under either policy.
    pub fn may_cross(self, kind: ElimKind, f: FenceKind) -> bool {
        f.is_tcg() && (self == OptPolicy::QemuUnsound || elim_may_cross(kind, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_table_matches_fig2_and_fig7a() {
        use FenceKind::*;
        use GuestAccess::*;
        let rows = [
            (FencePlacement::QemuLeading, [(Some(Frr), None), (Some(Fmw), None)]),
            (FencePlacement::VerifiedTrailing, [(None, Some(Frm)), (Some(Fww), None)]),
            (FencePlacement::None, [(None, None), (None, None)]),
        ];
        for (p, [load, store]) in rows {
            assert_eq!(p.fences(Load), load, "{p:?}");
            assert_eq!(p.fences(Store), store, "{p:?}");
            assert_eq!(p.fences(Mfence), (Some(Fsc), None), "{p:?}");
        }
    }

    #[test]
    fn qemu_policy_crosses_every_tcg_fence_and_nothing_else() {
        for kind in [ElimKind::Raw, ElimKind::Rar, ElimKind::Waw] {
            for &f in &FenceKind::TCG_ALL {
                assert!(OptPolicy::QemuUnsound.may_cross(kind, f));
                assert_eq!(OptPolicy::Verified.may_cross(kind, f), elim_may_cross(kind, f));
            }
            for f in [FenceKind::MFence, FenceKind::DmbLd, FenceKind::DmbSt, FenceKind::DmbFf] {
                assert!(!OptPolicy::QemuUnsound.may_cross(kind, f), "{f:?}");
                assert!(!OptPolicy::Verified.may_cross(kind, f), "{f:?}");
            }
        }
    }
}
