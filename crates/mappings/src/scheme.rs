//! Mapping schemes between the x86, TCG IR and Arm concurrency alphabets.
//!
//! Each scheme rewrites a litmus [`Program`] instruction-by-instruction,
//! inserting the leading/trailing fences its translation table prescribes.
//! The fence tables are the DBT's own: [`X86ToTcg`] reads
//! [`FencePlacement::fences`], the TCG→host schemes read
//! [`FenceKind::arm_dmb`] and [`FenceKind::tso_fence`]. The repertoire
//! covers:
//!
//! * Qemu's erroneous schemes (Fig. 2), including both GCC helper flavours
//!   the paper discusses (§3.1),
//! * the paper's verified schemes (Fig. 7a/7b/7c),
//! * the "intended" Arm-Cats direct mapping (Fig. 3, §3.3), and
//! * the fence-free oracle used by the evaluation's `no-fences` setup.

use risotto_litmus::{Instr, Program, RmwKind};
use risotto_memmodel::{AccessMode, FenceKind, FencePlacement, GuestAccess};

/// A translation scheme from one ISA's concurrency alphabet to another's.
pub trait MappingScheme {
    /// Human-readable scheme name.
    fn name(&self) -> &str;

    /// Translates one instruction into a sequence of target instructions.
    ///
    /// `If` bodies are handled by [`MappingScheme::map_program`]; `map_instr`
    /// only sees the condition-free instructions.
    fn map_instr(&self, instr: &Instr) -> Vec<Instr>;

    /// Translates a whole program, recursing into conditionals.
    fn map_program(&self, prog: &Program) -> Program {
        fn map_list(scheme: &(impl MappingScheme + ?Sized), instrs: &[Instr]) -> Vec<Instr> {
            let mut out = Vec::new();
            for i in instrs {
                match i {
                    Instr::If { reg, eq, then, els } => out.push(Instr::If {
                        reg: *reg,
                        eq: *eq,
                        then: map_list(scheme, then),
                        els: map_list(scheme, els),
                    }),
                    other => out.extend(scheme.map_instr(other)),
                }
            }
            out
        }
        Program {
            name: format!("{}[{}]", prog.name, self.name()),
            init: prog.init.clone(),
            threads: prog
                .threads
                .iter()
                .map(|t| risotto_litmus::Thread { instrs: map_list(self, &t.instrs) })
                .collect(),
        }
    }
}

/// How RMW helper calls end up lowered on the Arm host (§3.1): the GCC
/// built-ins compile to different instruction sequences per GCC version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperStyle {
    /// GCC 9: `ldaxr`/`stlxr` loop — `RMW2_AL`.
    Gcc9Lxsx,
    /// GCC 10: `casal` — `RMW1_AL`.
    Gcc10Casal,
}

/// How the verified IR→Arm scheme lowers TCG RMWs (Fig. 7b): either the
/// exclusive pair bracketed by full fences, or a bare `casal` (which is
/// only sound under the corrected Arm model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwLowering {
    /// `DMBFF; RMW2; DMBFF`.
    Rmw2Fenced,
    /// `RMW1_AL` (`casal`).
    Casal,
}

/// `rmw` (an [`Instr::Rmw`]) with its kind replaced by `kind`: every
/// scheme maps an RMW to one of the same location, registers and values.
fn rmw_as(rmw: &Instr, kind: RmwKind) -> Instr {
    let mut out = rmw.clone();
    if let Instr::Rmw { kind: k, .. } = &mut out {
        *k = kind;
    }
    out
}

// ---------------------------------------------------------------------
// x86 → TCG IR
// ---------------------------------------------------------------------

/// The x86→TCG mapping: one row of the DBT frontend's own
/// [`FencePlacement::fences`] table. Plain loads and stores get the row's
/// leading/trailing fences, `MFENCE` its fence (`Fsc`), and a locked RMW
/// becomes a TCG RMW with SC semantics (QEMU's helper call has the same
/// semantics at the IR level).
///
/// * `X86ToTcg(QemuLeading)` is Fig. 2 with the `Fmr → Frr` demotion
///   QEMU applies for x86 guests (§3.1): `Frr; ld`, `Fmw; st`. The
///   *leading* fences are the source of the performance problem of §3.4
///   (unmergeable fences).
/// * `X86ToTcg(VerifiedTrailing)` is Fig. 7a: `ld; Frm`, `Fww; st`. The
///   trailing `Frm` and the leading `Fww` are proved minimal in §5.4
///   (LB-IR and MP-IR witnesses).
/// * `X86ToTcg(None)` is the `no-fences` oracle's IR: plain accesses,
///   `MFENCE → Fsc`.
#[derive(Debug, Clone, Copy)]
pub struct X86ToTcg(pub FencePlacement);

impl MappingScheme for X86ToTcg {
    fn name(&self) -> &str {
        match self.0 {
            FencePlacement::QemuLeading => "qemu-x86-to-tcg",
            FencePlacement::VerifiedTrailing => "verified-x86-to-tcg",
            FencePlacement::None => "no-fences-x86-to-tcg",
        }
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        let access = match instr {
            Instr::Load { mode: AccessMode::Plain, .. } => GuestAccess::Load,
            Instr::Store { mode: AccessMode::Plain, .. } => GuestAccess::Store,
            Instr::Fence(FenceKind::MFence) => GuestAccess::Mfence,
            Instr::Rmw { kind: RmwKind::X86Lock, .. } => {
                return vec![rmw_as(instr, RmwKind::TcgSc)]
            }
            Instr::Let { .. } => return vec![instr.clone()],
            other => panic!("{}: not an x86 instruction: {other:?}", self.name()),
        };
        let (lead, trail) = self.0.fences(access);
        let body = (access != GuestAccess::Mfence).then(|| instr.clone());
        [lead.map(Instr::Fence), body, trail.map(Instr::Fence)].into_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------
// TCG IR → Arm
// ---------------------------------------------------------------------

/// Qemu's TCG→Arm lowering: fences via [`FenceKind::arm_dmb`], RMWs via a
/// helper call whose atomic sequence depends on the GCC version.
#[derive(Debug, Clone, Copy)]
pub struct QemuTcgToArm {
    /// Which GCC built-in expansion the helper uses.
    pub helper: HelperStyle,
}

impl MappingScheme for QemuTcgToArm {
    fn name(&self) -> &str {
        match self.helper {
            HelperStyle::Gcc9Lxsx => "qemu-tcg-to-arm(gcc9)",
            HelperStyle::Gcc10Casal => "qemu-tcg-to-arm(gcc10)",
        }
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        match instr {
            Instr::Load { mode: AccessMode::Plain, .. }
            | Instr::Store { mode: AccessMode::Plain, .. }
            | Instr::Let { .. } => vec![instr.clone()],
            Instr::Rmw { kind: RmwKind::TcgSc, .. } => {
                let kind = match self.helper {
                    HelperStyle::Gcc9Lxsx => RmwKind::ArmLxsx { acq: true, rel: true },
                    HelperStyle::Gcc10Casal => RmwKind::ArmCasal,
                };
                vec![rmw_as(instr, kind)]
            }
            Instr::Fence(k) if k.is_tcg() => k.arm_dmb().map(Instr::Fence).into_iter().collect(),
            other => panic!("{}: not a TCG instruction: {other:?}", self.name()),
        }
    }
}

/// The verified TCG→Arm mapping (Fig. 7b): plain `ld`/`st` to `LDR`/`STR`,
/// fences via the same minimal [`FenceKind::arm_dmb`] lowering, and RMWs
/// either as `DMBFF; RMW2; DMBFF` or as `RMW1_AL`.
#[derive(Debug, Clone, Copy)]
pub struct VerifiedTcgToArm {
    /// RMW lowering choice.
    pub rmw: RmwLowering,
}

impl MappingScheme for VerifiedTcgToArm {
    fn name(&self) -> &str {
        match self.rmw {
            RmwLowering::Rmw2Fenced => "verified-tcg-to-arm(rmw2)",
            RmwLowering::Casal => "verified-tcg-to-arm(casal)",
        }
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        match instr {
            Instr::Load { mode: AccessMode::Plain, .. }
            | Instr::Store { mode: AccessMode::Plain, .. }
            | Instr::Let { .. } => vec![instr.clone()],
            Instr::Rmw { kind: RmwKind::TcgSc, .. } => match self.rmw {
                RmwLowering::Rmw2Fenced => vec![
                    Instr::Fence(FenceKind::DmbFf),
                    rmw_as(instr, RmwKind::ArmLxsx { acq: false, rel: false }),
                    Instr::Fence(FenceKind::DmbFf),
                ],
                RmwLowering::Casal => vec![rmw_as(instr, RmwKind::ArmCasal)],
            },
            Instr::Fence(k) if k.is_tcg() => k.arm_dmb().map(Instr::Fence).into_iter().collect(),
            other => panic!("{}: not a TCG instruction: {other:?}", self.name()),
        }
    }
}

// ---------------------------------------------------------------------
// TCG IR → x86-TSO
// ---------------------------------------------------------------------

/// The verified TCG→x86-TSO mapping implemented by `risotto-host-tso`:
/// plain `ld`/`st` to plain `MOV`s, fences via [`FenceKind::tso_fence`]
/// (most become no-ops), and TCG RMWs to a `LOCK`-prefixed `CMPXCHG`
/// ([`RmwKind::X86Lock`], whose TSO semantics are a full fence).
///
/// Unlike [`VerifiedTcgToArm`] there is no RMW-style choice: x86 has a
/// single atomic-RMW idiom, and `LOCK` already carries the bracketing
/// `MFENCE` semantics the `Rmw2Fenced` style reconstructs on Arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifiedTcgToTso;

impl MappingScheme for VerifiedTcgToTso {
    fn name(&self) -> &str {
        "verified-tcg-to-tso"
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        match instr {
            Instr::Load { mode: AccessMode::Plain, .. }
            | Instr::Store { mode: AccessMode::Plain, .. }
            | Instr::Let { .. } => vec![instr.clone()],
            Instr::Rmw { kind: RmwKind::TcgSc, .. } => vec![rmw_as(instr, RmwKind::X86Lock)],
            Instr::Fence(k) if k.is_tcg() => k.tso_fence().map(Instr::Fence).into_iter().collect(),
            other => panic!("{}: not a TCG instruction: {other:?}", self.name()),
        }
    }
}

// ---------------------------------------------------------------------
// x86 → Arm (direct)
// ---------------------------------------------------------------------

/// The "intended" Arm-Cats mapping of Fig. 3: `RMOV → LDRQ` (`LDAPR`),
/// `WMOV → STRL` (`STLR`), `RMW → RMW1_AL`, `MFENCE → DMBFF`.
///
/// §3.3 shows this mapping is erroneous under the *original* Arm model
/// (SBAL) and sound under the corrected one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmCatsIntended;

impl MappingScheme for ArmCatsIntended {
    fn name(&self) -> &str {
        "arm-cats-intended"
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        match instr {
            Instr::Load { dst, loc, mode: AccessMode::Plain } => {
                vec![Instr::Load { dst: *dst, loc: *loc, mode: AccessMode::AcquirePc }]
            }
            Instr::Store { loc, val, mode: AccessMode::Plain } => {
                vec![Instr::Store { loc: *loc, val: val.clone(), mode: AccessMode::Release }]
            }
            Instr::Rmw { kind: RmwKind::X86Lock, .. } => vec![rmw_as(instr, RmwKind::ArmCasal)],
            Instr::Fence(FenceKind::MFence) => vec![Instr::Fence(FenceKind::DmbFf)],
            Instr::Let { .. } => vec![instr.clone()],
            other => panic!("{}: not an x86 instruction: {other:?}", self.name()),
        }
    }
}

/// Composition of two schemes: `second ∘ first`.
#[derive(Debug, Clone, Copy)]
pub struct Composed<F, S> {
    first: F,
    second: S,
    name: &'static str,
}

impl<F: MappingScheme, S: MappingScheme> Composed<F, S> {
    /// Composes `first` then `second` under a display name.
    pub fn new(first: F, second: S, name: &'static str) -> Self {
        Composed { first, second, name }
    }
}

impl<F: MappingScheme, S: MappingScheme> MappingScheme for Composed<F, S> {
    fn name(&self) -> &str {
        self.name
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        self.first.map_instr(instr).iter().flat_map(|i| self.second.map_instr(i)).collect()
    }

    fn map_program(&self, prog: &Program) -> Program {
        let mut p = self.second.map_program(&self.first.map_program(prog));
        p.name = format!("{}[{}]", prog.name, self.name);
        p
    }
}

/// The end-to-end verified x86→Arm scheme of Fig. 7c.
pub fn verified_x86_to_arm(rmw: RmwLowering) -> impl MappingScheme {
    let first = X86ToTcg(FencePlacement::VerifiedTrailing);
    Composed::new(first, VerifiedTcgToArm { rmw }, "verified-x86-to-arm")
}

/// The end-to-end verified x86→x86 scheme through TCG IR and back onto a
/// TSO host: the round trip the `risotto-host-tso` backend performs.
pub fn verified_x86_to_tso() -> impl MappingScheme {
    let first = X86ToTcg(FencePlacement::VerifiedTrailing);
    Composed::new(first, VerifiedTcgToTso, "verified-x86-to-tso")
}

/// Qemu's end-to-end x86→Arm scheme (Fig. 2): the table's demoted
/// leading `Frr`/`Fmw` become `DMB LD`/`DMB FF` as in Fig. 2.
pub fn qemu_x86_to_arm(helper: HelperStyle) -> impl MappingScheme {
    let first = X86ToTcg(FencePlacement::QemuLeading);
    Composed::new(first, QemuTcgToArm { helper }, "qemu-x86-to-arm")
}

/// The fence-free oracle (§7.1's `no-fences` setup), exactly as the DBT
/// runs it: no access fences, `MFENCE → Fsc → DMB FF`, and `casal` RMWs
/// — knowingly incorrect, used only as a performance upper bound.
pub fn no_fences_x86_to_arm() -> impl MappingScheme {
    let second = VerifiedTcgToArm { rmw: RmwLowering::Casal };
    Composed::new(X86ToTcg(FencePlacement::None), second, "no-fences-x86-to-arm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_litmus::corpus;

    #[test]
    fn verified_mapping_of_mp_matches_fig7c() {
        let p = X86ToTcg(FencePlacement::VerifiedTrailing).map_program(&corpus::mp());
        // T0: Fww; st X; Fww; st Y
        let t0 = &p.threads[0].instrs;
        assert!(matches!(t0[0], Instr::Fence(FenceKind::Fww)));
        assert!(matches!(t0[1], Instr::Store { .. }));
        assert!(matches!(t0[2], Instr::Fence(FenceKind::Fww)));
        // T1: ld Y; Frm; ld X; Frm
        let t1 = &p.threads[1].instrs;
        assert!(matches!(t1[0], Instr::Load { .. }));
        assert!(matches!(t1[1], Instr::Fence(FenceKind::Frm)));
    }

    #[test]
    fn qemu_mapping_inserts_leading_fences() {
        // The demoted `Frr` the DBT emits, not Fig. 2's raw `Fmr`.
        let p = X86ToTcg(FencePlacement::QemuLeading).map_program(&corpus::mp());
        let t1 = &p.threads[1].instrs;
        assert!(matches!(t1[0], Instr::Fence(FenceKind::Frr)));
        assert!(matches!(t1[1], Instr::Load { .. }));
    }

    #[test]
    fn tso_mapping_erases_free_fences_and_locks_rmws() {
        // The verified x86→TCG→TSO round trip: the trailing Frm / leading
        // Fww that protect the Arm lowering vanish on a TSO host, so MP
        // maps back to plain MOVs with no fences at all.
        let p = verified_x86_to_tso().map_program(&corpus::mp());
        for t in &p.threads {
            assert!(t.instrs.iter().all(|i| !matches!(i, Instr::Fence(_))), "{:?}", t.instrs);
        }
        // SB's programmer MFENCE (→ Fsc) survives as MFENCE.
        let sb = verified_x86_to_tso().map_program(&corpus::sb_fenced());
        for t in &sb.threads {
            assert!(t.instrs.iter().any(|i| matches!(i, Instr::Fence(FenceKind::MFence))));
        }
        // TCG RMWs come back as LOCK-prefixed x86 RMWs.
        let al = verified_x86_to_tso().map_program(&corpus::sbal_x86());
        assert!(matches!(al.threads[0].instrs[0], Instr::Rmw { kind: RmwKind::X86Lock, .. }));
    }

    #[test]
    fn qemu_end_to_end_reproduces_fig2() {
        // RMOV → DMBLD; LDR and WMOV → DMBFF; STR.
        let p = qemu_x86_to_arm(HelperStyle::Gcc10Casal).map_program(&corpus::mp());
        let t0 = &p.threads[0].instrs;
        assert!(matches!(t0[0], Instr::Fence(FenceKind::DmbFf)));
        assert!(matches!(t0[1], Instr::Store { mode: AccessMode::Plain, .. }));
        let t1 = &p.threads[1].instrs;
        assert!(matches!(t1[0], Instr::Fence(FenceKind::DmbLd)));
        assert!(matches!(t1[1], Instr::Load { mode: AccessMode::Plain, .. }));
    }

    #[test]
    fn verified_end_to_end_reproduces_fig7c() {
        // RMOV → LDR; DMBLD and WMOV → DMBST; STR.
        let p = verified_x86_to_arm(RmwLowering::Casal).map_program(&corpus::mp());
        let t0 = &p.threads[0].instrs;
        assert!(matches!(t0[0], Instr::Fence(FenceKind::DmbSt)));
        assert!(matches!(t0[1], Instr::Store { .. }));
        let t1 = &p.threads[1].instrs;
        assert!(matches!(t1[0], Instr::Load { .. }));
        assert!(matches!(t1[1], Instr::Fence(FenceKind::DmbLd)));
    }

    #[test]
    fn intended_mapping_uses_synchronizing_accesses() {
        let p = ArmCatsIntended.map_program(&corpus::sbal_x86());
        let t0 = &p.threads[0].instrs;
        assert!(matches!(t0[0], Instr::Rmw { kind: RmwKind::ArmCasal, .. }));
        assert!(matches!(t0[1], Instr::Load { mode: AccessMode::AcquirePc, .. }));
    }

    #[test]
    fn no_fences_drops_access_fences_and_keeps_mfence() {
        let mp = no_fences_x86_to_arm().map_program(&corpus::mp());
        for t in &mp.threads {
            assert!(t.instrs.iter().all(|i| !matches!(i, Instr::Fence(_))), "{:?}", t.instrs);
        }
        // SB's programmer MFENCE stays a full fence, as in the DBT.
        let sb = no_fences_x86_to_arm().map_program(&corpus::sb_fenced());
        for t in &sb.threads {
            let fences: Vec<_> = t.instrs.iter().filter(|i| matches!(i, Instr::Fence(_))).collect();
            assert_eq!(fences, [&Instr::Fence(FenceKind::DmbFf)], "{:?}", t.instrs);
        }
    }
}
