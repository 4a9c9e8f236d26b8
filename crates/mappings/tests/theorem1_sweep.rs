//! Theorem-1 checks over the corpus and the generated program family.
//!
//! Each scheme test is a slice of the verdict table
//! (`risotto_mappings::check::table`): it names its rows and checks them
//! over the debug-sized sources (`Sources::debug`: the 11-program x86
//! corpus, the 325 small-alphabet programs, every 24th program of the
//! full family and the 371 programs with a one-instruction thread; TCG
//! rows read them through the verified x86→TCG row, plus the 48 TCG
//! fence patterns). Each row is in one slice: the intended and no-fences
//! rows are `check.rs`' unit tests, every other row is here. The `verify_mappings` binary in
//! `risotto-bench` checks every row over the full 1 225-program family.
//! The transformation, minimality and FMR tests below check their own
//! rewrites, not a scheme.

use risotto_litmus::{corpus, Instr};
use risotto_mappings::check::{assert_rows, check_translation, rows, BehaviorScope, Sources};
use risotto_mappings::scheme::{MappingScheme, X86ToTcg};
use risotto_mappings::transform::{
    eliminate_at, eliminate_false_deps, merge_fences_at, reorder_at,
};
use risotto_memmodel::{ElimKind, FencePlacement, OptPolicy, TcgIr, X86Tso};

/// The verified x86→TCG row (Fig. 7a) of the DBT's own table.
const VERIFIED: X86ToTcg = X86ToTcg(FencePlacement::VerifiedTrailing);

/// The rows named `names`, checked over the debug-sized sources.
fn slice(names: &[&str]) {
    assert_rows(&rows(names), &Sources::debug());
}

#[test]
fn verified_x86_to_tcg_passes_corpus() {
    slice(&["verified x86->tcg"]);
}

/// QEMU's leading-fence x86→TCG step is already unsound under the TCG
/// model for programs with failed RMWs: a failed TCG RMW generates a lone
/// `Rsc`, which the GOrd axiom orders only with its successors
/// (`[Rsc];po`), so the `a=Y → RMW-read` ordering of MPQ is lost; the
/// verified scheme's trailing `Frm` restores it. On RMW-free programs
/// QEMU's (over-strong) fences are sound.
#[test]
fn qemu_x86_to_tcg_already_loses_failed_rmw_ordering() {
    slice(&["qemu x86->tcg"]);
}

#[test]
fn verified_tcg_to_arm_passes_tcg_corpus() {
    slice(&["verified tcg->arm (Rmw2Fenced)", "verified tcg->arm (Casal)"]);
}

#[test]
fn verified_tcg_to_tso_passes_tcg_corpus() {
    slice(&["verified tcg->tso"]);
}

#[test]
fn verified_end_to_end_tso_passes_corpus() {
    slice(&["verified x86->tso"]);
}

#[test]
fn verified_end_to_end_passes_corpus_both_lowerings() {
    slice(&["verified x86->arm (Rmw2Fenced)", "verified x86->arm (Casal)"]);
}

#[test]
fn qemu_end_to_end_fails_exactly_on_rmw_programs() {
    slice(&["qemu x86->arm (Gcc9Lxsx)", "qemu x86->arm (Gcc10Casal)"]);
}

// ------------------------------------------------------------------------
// Transformations (Ms = Mt = TCG IR).
// ------------------------------------------------------------------------

/// Applies every applicable verified elimination/merge/reorder at every
/// site of every TCG-translated corpus program and Theorem-1-checks each.
#[test]
fn verified_transformations_never_introduce_behaviors() {
    let tcg = TcgIr::new();
    // Extra TCG programs with eliminable same-location pairs in every
    // flavour (adjacent and across sound fences).
    let eliminable = {
        use risotto_litmus::{Program, Reg};
        use risotto_memmodel::{FenceKind, Loc};
        let (x, y) = (Loc(0), Loc(1));
        vec![
            Program::builder("elim-rar")
                .thread(|t| {
                    t.load(Reg(0), x).load(Reg(1), x).fence(FenceKind::Frm).load(Reg(2), x);
                })
                .thread(|t| {
                    t.store(x, 1).fence(FenceKind::Fww).store(y, 1);
                })
                .build(),
            Program::builder("elim-raw-waw")
                .thread(|t| {
                    t.store(x, 1).load(Reg(0), x).store(x, 2).fence(FenceKind::Fww).store(x, 3);
                })
                .thread(|t| {
                    t.load(Reg(1), x).fence(FenceKind::Frm).load(Reg(2), y);
                })
                .build(),
            Program::builder("elim-f-raw")
                .thread(|t| {
                    t.store(x, 1).fence(FenceKind::Fsc).load(Reg(0), x);
                })
                .thread(|t| {
                    t.store(x, 2).fence(FenceKind::Fww).load(Reg(1), x).store(y, 1);
                })
                .build(),
            // F-WAW across a write-free fence; every other WAW site in
            // this list crosses `Fww`, which the rule refuses.
            Program::builder("elim-f-waw")
                .thread(|t| {
                    t.store(x, 1).fence(FenceKind::Frm).store(x, 2).store(y, 1);
                })
                .thread(|t| {
                    t.load(Reg(0), y).fence(FenceKind::Frm).load(Reg(1), x);
                })
                .build(),
        ]
    };
    let sources: Vec<_> = corpus::x86()
        .iter()
        .map(|p| VERIFIED.map_program(p))
        .chain([corpus::lb_ir(), corpus::mp_ir(), corpus::merge_example(), corpus::false_dep()])
        .chain(eliminable)
        .collect();
    let mut applied = 0;
    let mut waw_across_fence = 0;
    for src in &sources {
        for tid in 0..src.threads.len() {
            for idx in 0..src.threads[tid].instrs.len() {
                for elim in [ElimKind::Rar, ElimKind::Raw, ElimKind::Waw] {
                    if let Some(tgt) = eliminate_at(src, tid, idx, elim, OptPolicy::Verified) {
                        applied += 1;
                        let instrs = &src.threads[tid].instrs;
                        if elim == ElimKind::Waw && matches!(instrs[idx + 1], Instr::Fence(_)) {
                            waw_across_fence += 1;
                        }
                        check_translation(src, &tcg, &tgt, &tcg, BehaviorScope::MemoryOnly)
                            .unwrap_or_else(|e| panic!("{elim:?} on {}: {e}", src.name));
                    }
                }
                if let Some(tgt) = merge_fences_at(src, tid, idx) {
                    applied += 1;
                    check_translation(src, &tcg, &tgt, &tcg, BehaviorScope::MemoryAndRegisters)
                        .unwrap_or_else(|e| panic!("merge on {}: {e}", src.name));
                }
                if let Some(tgt) = reorder_at(src, tid, idx) {
                    applied += 1;
                    check_translation(src, &tcg, &tgt, &tcg, BehaviorScope::MemoryAndRegisters)
                        .unwrap_or_else(|e| panic!("reorder on {}: {e}", src.name));
                }
            }
        }
        let nodeps = eliminate_false_deps(src);
        check_translation(src, &tcg, &nodeps, &tcg, BehaviorScope::MemoryAndRegisters)
            .unwrap_or_else(|e| panic!("false-dep elim on {}: {e}", src.name));
    }
    assert!(applied > 10, "sweep applied too few transformations ({applied})");
    assert!(waw_across_fence > 0, "the sweep never applied F-WAW");
}

/// `opt_soundness`'s WAW shape A at the litmus level: deleting `St X=1`
/// across `Fww` drops its `[W];po;[Fww];po;[W]` edge into `St Y=1`. The
/// shared rule refuses the rewrite; QEMU's fence-oblivious policy makes
/// it, and Theorem 1 rejects the result.
#[test]
fn f_waw_refuses_fww_and_the_qemu_rewrite_is_unsound() {
    use risotto_litmus::{Program, Reg};
    use risotto_memmodel::{FenceKind, Loc};
    let (x, y) = (Loc(0), Loc(1));
    let src = Program::builder("waw-A")
        .thread(|t| {
            t.store(x, 1).fence(FenceKind::Fww).store(x, 2).store(y, 1);
        })
        .thread(|t| {
            t.load(Reg(0), y).fence(FenceKind::Frm).load(Reg(1), x);
        })
        .build();
    assert!(eliminate_at(&src, 0, 0, ElimKind::Waw, OptPolicy::Verified).is_none());
    let tgt = eliminate_at(&src, 0, 0, ElimKind::Waw, OptPolicy::QemuUnsound).unwrap();
    let tcg = TcgIr::new();
    let res = check_translation(&src, &tcg, &tgt, &tcg, BehaviorScope::MemoryAndRegisters);
    assert!(res.is_err(), "WAW across Fww must be unsound");
}

/// §5.4's minimality witnesses, taken from the table's own output: the
/// verified row maps LB and MP soundly, and dropping the trailing `Frm`
/// after LB's first load, or the leading `Fww` before MP's second store,
/// lets Theorem 1 fail.
#[test]
fn verified_row_fences_are_minimal_on_lb_and_mp() {
    use risotto_litmus::Program;
    use risotto_memmodel::FenceKind;
    let (x86, tcg) = (X86Tso::new(), TcgIr::new());
    let check = |src: &Program, tgt: &Program| {
        check_translation(src, &x86, tgt, &tcg, BehaviorScope::MemoryAndRegisters)
    };
    let is = |k: FenceKind| move |i: &Instr| *i == Instr::Fence(k);
    let (lb, mp) = (corpus::lb(), corpus::mp());
    let (mut lb_tcg, mut mp_tcg) = (VERIFIED.map_program(&lb), VERIFIED.map_program(&mp));
    check(&lb, &lb_tcg).expect("the verified row maps LB soundly");
    check(&mp, &mp_tcg).expect("the verified row maps MP soundly");

    let t0 = &mut lb_tcg.threads[0].instrs;
    let frm = t0.iter().position(is(FenceKind::Frm)).expect("LB's load has a trailing Frm");
    assert!(matches!(t0[frm - 1], Instr::Load { .. }));
    t0.remove(frm);
    assert!(check(&lb, &lb_tcg).is_err(), "LB without its trailing Frm must fail");

    let t0 = &mut mp_tcg.threads[0].instrs;
    let fww = t0.iter().rposition(is(FenceKind::Fww)).expect("MP's second store has an Fww");
    assert!(matches!(t0[fww + 1], Instr::Store { .. }) && fww > 0);
    t0.remove(fww);
    assert!(check(&mp, &mp_tcg).is_err(), "MP without its leading Fww must fail");
}

/// QEMU's any-fence RAW policy is unsound: the FMR program is a concrete
/// Theorem-1 counterexample.
#[test]
fn any_fence_raw_policy_fails_theorem1_on_fmr() {
    let tcg = TcgIr::new();
    let src = corpus::fmr_source();
    // Eliminate `a = Y` after `Y = 2` across the… the pair here is
    // W(Y,2) · R(Y) adjacent (no fence): plain RAW. The *unsoundness* comes
    // from the Fmr earlier in the thread. Apply RAW at the W Y=2 site.
    let idx = src.threads[0]
        .instrs
        .iter()
        .position(
            |i| matches!(i, risotto_litmus::Instr::Store { loc, .. } if loc.loc() == corpus::Y),
        )
        .unwrap();
    let tgt = eliminate_at(&src, 0, idx, ElimKind::Raw, OptPolicy::QemuUnsound).unwrap();
    let res = check_translation(&src, &tcg, &tgt, &tcg, BehaviorScope::MemoryAndRegisters);
    assert!(res.is_err(), "RAW after an Fmr-bearing prefix must be unsound (FMR, §3.2)");
}
