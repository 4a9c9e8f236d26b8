//! The litmus corpus: every example program from the paper, plus the
//! classic tests used by the mapping-verification sweep.
//!
//! Naming follows the paper: `MP`, `MPQ`, `SBQ`, `FMR`, `SBAL`, `LB-IR`,
//! `MP-IR` and the two Fig. 9 RMW tests. Each function documents the
//! expected allowed/forbidden verdicts, which the test-suite asserts
//! mechanically through the enumerator.

use crate::program::{Expr, LocSpec, Program, Reg, RmwKind};
use risotto_memmodel::{AccessMode, FenceKind, Loc};

/// Location `X`.
pub const X: Loc = Loc(0);
/// Location `Y`.
pub const Y: Loc = Loc(1);
/// Location `Z`.
pub const Z: Loc = Loc(2);
/// Location `U`.
pub const U: Loc = Loc(3);

/// Register `a` (paper's first observer register).
pub const A: Reg = Reg(0);
/// Register `b`.
pub const B: Reg = Reg(1);
/// Register `c`.
pub const C: Reg = Reg(2);

// ---------------------------------------------------------------------
// Classics (x86-flavoured unless noted).
// ---------------------------------------------------------------------

/// Message passing (§2.1): `T0: X=1; Y=1 ∥ T1: a=Y; b=X`.
///
/// Weak outcome `a=1 ∧ b=0`: allowed on Arm, forbidden on x86 and SC.
pub fn mp() -> Program {
    Program::builder("MP")
        .thread(|t| {
            t.store(X, 1).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y).load(B, X);
        })
        .build()
}

/// Store buffering: `T0: X=1; a=Y ∥ T1: Y=1; b=X`.
///
/// Weak outcome `a=b=0`: allowed on x86 (and Arm), forbidden on SC.
pub fn sb() -> Program {
    Program::builder("SB")
        .thread(|t| {
            t.store(X, 1).load(A, Y);
        })
        .thread(|t| {
            t.store(Y, 1).load(B, X);
        })
        .build()
}

/// Store buffering with `MFENCE`s — forbidden even on x86.
pub fn sb_fenced() -> Program {
    Program::builder("SB+mfences")
        .thread(|t| {
            t.store(X, 1).fence(FenceKind::MFence).load(A, Y);
        })
        .thread(|t| {
            t.store(Y, 1).fence(FenceKind::MFence).load(B, X);
        })
        .build()
}

/// Load buffering: `T0: a=X; Y=1 ∥ T1: b=Y; X=1`.
///
/// Weak outcome `a=b=1`: forbidden on x86 (R→W in ppo), allowed in the bare
/// TCG IR model without fences.
pub fn lb() -> Program {
    Program::builder("LB")
        .thread(|t| {
            t.load(A, X).store(Y, 1);
        })
        .thread(|t| {
            t.load(B, Y).store(X, 1);
        })
        .build()
}

/// Independent reads of independent writes (4 threads).
///
/// Weak outcome (the two readers disagree on the write order): forbidden on
/// x86, allowed on non-MCA models (Arm is MCA, so forbidden there too).
pub fn iriw() -> Program {
    Program::builder("IRIW")
        .thread(|t| {
            t.store(X, 1);
        })
        .thread(|t| {
            t.store(Y, 1);
        })
        .thread(|t| {
            t.load(A, X).load(B, Y);
        })
        .thread(|t| {
            t.load(C, Y).load(Reg(3), X);
        })
        .build()
}

/// 2+2W: `T0: X=1; Y=2 ∥ T1: Y=1; X=2`; weak outcome: final `X=1 ∧ Y=1`.
pub fn two_plus_two_w() -> Program {
    Program::builder("2+2W")
        .thread(|t| {
            t.store(X, 1).store(Y, 2);
        })
        .thread(|t| {
            t.store(Y, 1).store(X, 2);
        })
        .build()
}

/// S: `T0: X=2; Y=1 ∥ T1: a=Y; X=1`; weak outcome `a=1 ∧ X=2` final.
pub fn s_test() -> Program {
    Program::builder("S")
        .thread(|t| {
            t.store(X, 2).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y).store(X, 1);
        })
        .build()
}

/// R: `T0: X=1; Y=1 ∥ T1: Y=2; a=X`; weak outcome `Y=2 final ∧ a=0`.
pub fn r_test() -> Program {
    Program::builder("R")
        .thread(|t| {
            t.store(X, 1).store(Y, 1);
        })
        .thread(|t| {
            t.store(Y, 2).load(A, X);
        })
        .build()
}

// ---------------------------------------------------------------------
// §3.2 — errors in Qemu.
// ---------------------------------------------------------------------

/// MPQ source (x86): `T0: X=1; Y=1 ∥ T1: a=Y; if (a==1) RMW(X,1,2)`.
///
/// x86 forbids `a=1 ∧ X=1` (final): if the read observed `Y=1`, the RMW
/// must observe `X=1` and succeed.
pub fn mpq_x86() -> Program {
    Program::builder("MPQ(x86)")
        .thread(|t| {
            t.store(X, 1).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y).if_eq(A, 1, |b| {
                b.rmw(X, 1u64, 2u64, RmwKind::X86Lock);
            });
        })
        .build()
}

/// MPQ as translated by Qemu with GCC 10 (`casal` ⇒ `RMW1_AL`), §3.2:
///
/// ```text
/// T0: DMBFF; X=1; DMBFF; Y=1
/// T1: DMBLD; a=Y; if (a==1) RMW1_AL(X,1,2)
/// ```
///
/// Arm *allows* `a=1 ∧ X=1`: the plain read `a=Y` and the RMW's acquire
/// read are unordered, so the translation is erroneous.
pub fn mpq_arm_qemu() -> Program {
    Program::builder("MPQ(arm,qemu)")
        .thread(|t| {
            t.fence(FenceKind::DmbFf).store(X, 1).fence(FenceKind::DmbFf).store(Y, 1);
        })
        .thread(|t| {
            t.fence(FenceKind::DmbLd).load(A, Y).if_eq(A, 1, |b| {
                b.rmw(X, 1u64, 2u64, RmwKind::ArmCasal);
            });
        })
        .build()
}

/// MPQ as translated by Risotto's verified mappings (Fig. 7c): trailing
/// `DMBLD` after loads, leading `DMBST` before stores, RMW → `RMW1_AL`.
/// Forbids `a=1 ∧ X=1` again.
pub fn mpq_arm_verified() -> Program {
    Program::builder("MPQ(arm,verified)")
        .thread(|t| {
            t.fence(FenceKind::DmbSt).store(X, 1).fence(FenceKind::DmbSt).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y).fence(FenceKind::DmbLd).if_eq(A, 1, |b| {
                b.rmw(X, 1u64, 2u64, RmwKind::ArmCasal);
            });
        })
        .build()
}

/// SBQ source (x86):
///
/// ```text
/// T0: X=1; RMW(Z,0,1); a=Y
/// T1: Y=1; RMW(U,0,1); b=X
/// ```
///
/// x86 forbids `Z=U=1 ∧ a=b=0` — successful RMWs order store→load.
pub fn sbq_x86() -> Program {
    Program::builder("SBQ(x86)")
        .thread(|t| {
            t.store(X, 1).rmw(Z, 0u64, 1u64, RmwKind::X86Lock).load(A, Y);
        })
        .thread(|t| {
            t.store(Y, 1).rmw(U, 0u64, 1u64, RmwKind::X86Lock).load(B, X);
        })
        .build()
}

/// SBQ as translated by Qemu with GCC 9 (`ldaxr`/`stlxr` ⇒ `RMW2_AL`), §3.2:
///
/// ```text
/// T0: DMBFF; X=1; RMW2_AL(Z,0,1); DMBLD; a=Y
/// T1: DMBFF; Y=1; RMW2_AL(U,0,1); DMBLD; b=X
/// ```
///
/// Arm allows `Z=U=1 ∧ a=b=0` — neither `RMW2_AL` nor `DMBLD` orders the
/// store→load pairs, so the translation is erroneous.
pub fn sbq_arm_qemu() -> Program {
    Program::builder("SBQ(arm,qemu)")
        .thread(|t| {
            t.fence(FenceKind::DmbFf)
                .store(X, 1)
                .rmw(Z, 0u64, 1u64, RmwKind::ArmLxsx { acq: true, rel: true })
                .fence(FenceKind::DmbLd)
                .load(A, Y);
        })
        .thread(|t| {
            t.fence(FenceKind::DmbFf)
                .store(Y, 1)
                .rmw(U, 0u64, 1u64, RmwKind::ArmLxsx { acq: true, rel: true })
                .fence(FenceKind::DmbLd)
                .load(B, X);
        })
        .build()
}

/// SBQ under the verified mappings with the `RMW2` lowering
/// (`DMBFF; RMW2; DMBFF`, Fig. 7b): forbids the SB outcome.
pub fn sbq_arm_verified_rmw2() -> Program {
    Program::builder("SBQ(arm,verified,rmw2)")
        .thread(|t| {
            t.fence(FenceKind::DmbSt)
                .store(X, 1)
                .fence(FenceKind::DmbFf)
                .rmw(Z, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf)
                .load(A, Y)
                .fence(FenceKind::DmbLd);
        })
        .thread(|t| {
            t.fence(FenceKind::DmbSt)
                .store(Y, 1)
                .fence(FenceKind::DmbFf)
                .rmw(U, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf)
                .load(B, X)
                .fence(FenceKind::DmbLd);
        })
        .build()
}

/// SBQ under the verified mappings with the `RMW1_AL` lowering: correct
/// only under the *corrected* Arm model, where `casal` is a full barrier.
pub fn sbq_arm_verified_casal() -> Program {
    Program::builder("SBQ(arm,verified,casal)")
        .thread(|t| {
            t.fence(FenceKind::DmbSt)
                .store(X, 1)
                .rmw(Z, 0u64, 1u64, RmwKind::ArmCasal)
                .load(A, Y)
                .fence(FenceKind::DmbLd);
        })
        .thread(|t| {
            t.fence(FenceKind::DmbSt)
                .store(Y, 1)
                .rmw(U, 0u64, 1u64, RmwKind::ArmCasal)
                .load(B, X)
                .fence(FenceKind::DmbLd);
        })
        .build()
}

/// FMR source (TCG IR, §3.2):
///
/// ```text
/// T0: X=3; Fmr; Y=2; a=Y; Frw; Z=2
/// T1: b=Z; if (b==2) { Frw; X=4; c=X }
/// ```
///
/// The TCG model forbids `a=2 ∧ c=3`.
pub fn fmr_source() -> Program {
    Program::builder("FMR(src)")
        .thread(|t| {
            t.store(X, 3)
                .fence(FenceKind::Fmr)
                .store(Y, 2)
                .load(A, Y)
                .fence(FenceKind::Frw)
                .store(Z, 2);
        })
        .thread(|t| {
            t.load(B, Z).if_eq(B, 2, |b| {
                b.fence(FenceKind::Frw).store(X, 4).load(C, X);
            });
        })
        .build()
}

/// FMR after Qemu's RAW transformation (`a=Y ↝ a:=2`): the TCG model now
/// *allows* `a=2 ∧ c=3`, exposing the transformation as unsound in the
/// presence of `Fmr`.
pub fn fmr_raw_transformed() -> Program {
    Program::builder("FMR(raw)")
        .thread(|t| {
            t.store(X, 3)
                .fence(FenceKind::Fmr)
                .store(Y, 2)
                .let_(A, 2u64)
                .fence(FenceKind::Frw)
                .store(Z, 2);
        })
        .thread(|t| {
            t.load(B, Z).if_eq(B, 2, |b| {
                b.fence(FenceKind::Frw).store(X, 4).load(C, X);
            });
        })
        .build()
}

// ---------------------------------------------------------------------
// §3.3 — error in the "desired" Arm mapping (SBAL).
// ---------------------------------------------------------------------

/// SBAL source (x86): `T0: RMW(X,0,1); a=Y ∥ T1: RMW(Y,0,1); b=X`.
///
/// x86 forbids `X=Y=1 ∧ a=b=0`.
pub fn sbal_x86() -> Program {
    Program::builder("SBAL(x86)")
        .thread(|t| {
            t.rmw(X, 0u64, 1u64, RmwKind::X86Lock).load(A, Y);
        })
        .thread(|t| {
            t.rmw(Y, 0u64, 1u64, RmwKind::X86Lock).load(B, X);
        })
        .build()
}

/// SBAL under the Arm-Cats "intended" mapping (Fig. 3): `RMW1_AL` +
/// `LDRQ` (acquire-PC) loads.
///
/// The *original* Arm model allows `X=Y=1 ∧ a=b=0` (the mapping is
/// erroneous); the *corrected* model forbids it.
pub fn sbal_arm_intended() -> Program {
    Program::builder("SBAL(arm,intended)")
        .thread(|t| {
            t.rmw(X, 0u64, 1u64, RmwKind::ArmCasal).load_mode(A, Y, AccessMode::AcquirePc);
        })
        .thread(|t| {
            t.rmw(Y, 0u64, 1u64, RmwKind::ArmCasal).load_mode(B, X, AccessMode::AcquirePc);
        })
        .build()
}

// ---------------------------------------------------------------------
// §5.4 — minimality witnesses (Fig. 8, Fig. 9).
// ---------------------------------------------------------------------

/// LB-IR (Fig. 8): load-buffering in the TCG model with trailing `Frw`
/// fences; forbids `a=b=1`. Dropping either fence re-allows it, which is
/// why the x86→IR mapping needs a trailing fence on loads.
pub fn lb_ir() -> Program {
    Program::builder("LB-IR")
        .thread(|t| {
            t.load(A, X).fence(FenceKind::Frw).store(Y, 1);
        })
        .thread(|t| {
            t.load(B, Y).fence(FenceKind::Frw).store(X, 1);
        })
        .build()
}

/// LB-IR *without* the fences: the TCG model allows `a=b=1`.
pub fn lb_ir_unfenced() -> Program {
    Program::builder("LB-IR(unfenced)")
        .thread(|t| {
            t.load(A, X).store(Y, 1);
        })
        .thread(|t| {
            t.load(B, Y).store(X, 1);
        })
        .build()
}

/// MP-IR (Fig. 8): message passing in the TCG model with a leading `Fww`
/// on the writer and an `Frr` between the reads; forbids `a=1 ∧ b=0`.
pub fn mp_ir() -> Program {
    Program::builder("MP-IR")
        .thread(|t| {
            t.store(X, 1).fence(FenceKind::Fww).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y).fence(FenceKind::Frr).load(B, X);
        })
        .build()
}

/// Fig. 9 (left): TCG source `T0: X=2; RMW(Y,0,1) ∥ T1: Y=2; RMW(X,0,1)`.
///
/// The paper's disallowed outcome "X=Y=1" is the execution in which *both*
/// RMWs succeed without observing the other thread's plain store; we
/// observe it through the RMWs' old-value registers (`a=b=0`). The TCG
/// model forbids it; unfenced Arm RMW2s allow it.
pub fn fig9_left_tcg() -> Program {
    Program::builder("Fig9L(tcg)")
        .thread(|t| {
            t.store(X, 2).rmw_into(A, Y, 0u64, 1u64, RmwKind::TcgSc);
        })
        .thread(|t| {
            t.store(Y, 2).rmw_into(B, X, 0u64, 1u64, RmwKind::TcgSc);
        })
        .build()
}

/// Fig. 9 (left) lowered to Arm with `DMBFF; RMW2; DMBFF`: still forbids
/// final `X=Y=1`.
pub fn fig9_left_arm_fenced() -> Program {
    Program::builder("Fig9L(arm,fenced)")
        .thread(|t| {
            t.store(X, 2)
                .fence(FenceKind::DmbFf)
                .rmw_into(A, Y, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf);
        })
        .thread(|t| {
            t.store(Y, 2)
                .fence(FenceKind::DmbFf)
                .rmw_into(B, X, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf);
        })
        .build()
}

/// Fig. 9 (left) lowered *without* the `DMBFF`s: Arm allows the outcome,
/// witnessing that the fences in the IR→Arm RMW2 mapping are necessary.
pub fn fig9_left_arm_unfenced() -> Program {
    Program::builder("Fig9L(arm,unfenced)")
        .thread(|t| {
            t.store(X, 2).rmw_into(A, Y, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false });
        })
        .thread(|t| {
            t.store(Y, 2).rmw_into(B, X, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false });
        })
        .build()
}

/// Fig. 9 (right): TCG source `T0: RMW(X,0,1); a=Y ∥ T1: RMW(Y,0,1); b=X`;
/// the TCG model forbids `a=b=0`.
pub fn fig9_right_tcg() -> Program {
    Program::builder("Fig9R(tcg)")
        .thread(|t| {
            t.rmw(X, 0u64, 1u64, RmwKind::TcgSc).load(A, Y);
        })
        .thread(|t| {
            t.rmw(Y, 0u64, 1u64, RmwKind::TcgSc).load(B, X);
        })
        .build()
}

/// Fig. 9 (right) lowered with `DMBFF; RMW2; DMBFF`: forbids `a=b=0`.
pub fn fig9_right_arm_fenced() -> Program {
    Program::builder("Fig9R(arm,fenced)")
        .thread(|t| {
            t.fence(FenceKind::DmbFf)
                .rmw(X, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf)
                .load(A, Y);
        })
        .thread(|t| {
            t.fence(FenceKind::DmbFf)
                .rmw(Y, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false })
                .fence(FenceKind::DmbFf)
                .load(B, X);
        })
        .build()
}

/// Fig. 9 (right) lowered without the fences: Arm allows `a=b=0`.
pub fn fig9_right_arm_unfenced() -> Program {
    Program::builder("Fig9R(arm,unfenced)")
        .thread(|t| {
            t.rmw(X, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false }).load(A, Y);
        })
        .thread(|t| {
            t.rmw(Y, 0u64, 1u64, RmwKind::ArmLxsx { acq: false, rel: false }).load(B, X);
        })
        .build()
}

// ---------------------------------------------------------------------
// §6.1 — fence-merging example and false dependencies.
// ---------------------------------------------------------------------

/// The §6.1 merge source: `a=X; Frm; Fww; Y=1` (adjacent fences produced by
/// the verified x86→IR mapping for `a=X; Y=1`).
pub fn merge_example() -> Program {
    Program::builder("merge(src)")
        .thread(|t| {
            t.load(A, X).fence(FenceKind::Frm).fence(FenceKind::Fww).store(Y, 1);
        })
        .thread(|t| {
            t.load(B, Y).fence(FenceKind::Frm).fence(FenceKind::Fww).store(X, 1);
        })
        .build()
}

/// The §6.1 merge result: `a=X; Fsc; Y=1`.
pub fn merge_result() -> Program {
    Program::builder("merge(dst)")
        .thread(|t| {
            t.load(A, X).fence(FenceKind::Fsc).store(Y, 1);
        })
        .thread(|t| {
            t.load(B, Y).fence(FenceKind::Fsc).store(X, 1);
        })
        .build()
}

/// A false-dependency program: `a=X; Y = a*0` — the store's value is
/// constant but syntactically depends on the load. Used to check that
/// false-dependency elimination (§6.1) is sound in the TCG model.
pub fn false_dep() -> Program {
    Program::builder("false-dep")
        .thread(|t| {
            t.load(A, X);
            t.store(Y, Expr::Mul(Box::new(Expr::Reg(A)), Box::new(Expr::Const(0))));
        })
        .thread(|t| {
            t.load(B, Y).fence(FenceKind::Frm).store(X, 1);
        })
        .build()
}

/// Address-dependency variant of MP for dependency-tracking tests: the
/// second load's address depends on the first load.
pub fn mp_addr_dep() -> Program {
    Program::builder("MP+addr-dep")
        .thread(|t| {
            t.store(X, 1).fence(FenceKind::DmbSt).store(Y, 1);
        })
        .thread(|t| {
            t.load(A, Y);
            t.load(B, LocSpec::Dep { loc: X, via: A });
        })
        .build()
}

/// The x86-flavoured programs: the sources of every x86→* mapping sweep
/// and the programs `compile_litmus` turns into guest binaries. The order
/// is the one the checked-in hashes fold them in.
pub fn x86() -> [Program; 11] {
    [
        mp(),
        sb(),
        sb_fenced(),
        lb(),
        iriw(),
        two_plus_two_w(),
        s_test(),
        r_test(),
        mpq_x86(),
        sbq_x86(),
        sbal_x86(),
    ]
}

/// Every named corpus program, for sweep-style tests.
pub fn all() -> Vec<Program> {
    vec![
        mp(),
        sb(),
        sb_fenced(),
        lb(),
        iriw(),
        two_plus_two_w(),
        s_test(),
        r_test(),
        mpq_x86(),
        mpq_arm_qemu(),
        mpq_arm_verified(),
        sbq_x86(),
        sbq_arm_qemu(),
        sbq_arm_verified_rmw2(),
        sbq_arm_verified_casal(),
        fmr_source(),
        fmr_raw_transformed(),
        sbal_x86(),
        sbal_arm_intended(),
        lb_ir(),
        lb_ir_unfenced(),
        mp_ir(),
        fig9_left_tcg(),
        fig9_left_arm_fenced(),
        fig9_left_arm_unfenced(),
        fig9_right_tcg(),
        fig9_right_arm_fenced(),
        fig9_right_arm_unfenced(),
        merge_example(),
        merge_result(),
        false_dep(),
        mp_addr_dep(),
    ]
}
