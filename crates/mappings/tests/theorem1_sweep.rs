//! Theorem-1 sweeps over the corpus and the generated program family.
//!
//! The default run subsamples the generated family to keep CI fast; the
//! `verify_mappings` binary in `risotto-bench` runs the full sweep.

use risotto_litmus::{corpus, Instr};
use risotto_mappings::check::{check_translation, verify_suite, BehaviorScope};
use risotto_mappings::gen::{generate_two_thread, x86_alphabet, x86_alphabet_small};
use risotto_mappings::scheme::{
    qemu_x86_to_arm, verified_x86_to_arm, verified_x86_to_tso, HelperStyle, MappingScheme,
    VerifiedTcgToArm, VerifiedTcgToTso, X86ToTcg,
};
use risotto_mappings::transform::{
    eliminate_at, eliminate_false_deps, merge_fences_at, reorder_at,
};
use risotto_memmodel::{Arm, ElimKind, FencePlacement, OptPolicy, RmwStyle, TcgIr, X86Tso};

/// The verified x86→TCG row (Fig. 7a) of the DBT's own table.
const VERIFIED: X86ToTcg = X86ToTcg(FencePlacement::VerifiedTrailing);

/// x86-flavoured corpus programs (sources for x86→* mappings).
fn x86_corpus() -> Vec<risotto_litmus::Program> {
    vec![
        corpus::mp(),
        corpus::sb(),
        corpus::sb_fenced(),
        corpus::lb(),
        corpus::iriw(),
        corpus::two_plus_two_w(),
        corpus::s_test(),
        corpus::r_test(),
        corpus::mpq_x86(),
        corpus::sbq_x86(),
        corpus::sbal_x86(),
    ]
}

#[test]
fn verified_x86_to_tcg_passes_corpus() {
    let failures = verify_suite(&VERIFIED, &x86_corpus(), &X86Tso::new(), &TcgIr::new());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn qemu_x86_to_tcg_already_loses_failed_rmw_ordering() {
    // Qemu's leading-fence x86→TCG step is *already* unsound under the TCG
    // model for programs with failed RMWs: a failed TCG RMW generates a
    // lone `Rsc`, which the GOrd axiom orders only with its successors
    // (`[Rsc];po`), so the `a=Y → RMW-read` ordering of MPQ is lost — the
    // verified scheme's *trailing* `Frm` restores it. On RMW-free programs
    // Qemu's (over-strong) fences are sound.
    let failures = verify_suite(
        &X86ToTcg(FencePlacement::QemuLeading),
        &x86_corpus(),
        &X86Tso::new(),
        &TcgIr::new(),
    );
    let names: Vec<&str> = failures.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["MPQ(x86)"], "unexpected failure set: {failures:?}");
}

#[test]
fn verified_tcg_to_arm_passes_tcg_corpus() {
    let tcg_corpus: Vec<_> = x86_corpus().iter().map(|p| VERIFIED.map_program(p)).collect();
    for rmw in [RmwStyle::Rmw2Fenced, RmwStyle::Casal] {
        let failures =
            verify_suite(&VerifiedTcgToArm { rmw }, &tcg_corpus, &TcgIr::new(), &Arm::corrected());
        assert!(failures.is_empty(), "rmw={rmw:?}: {failures:?}");
    }
}

#[test]
fn verified_tcg_to_tso_passes_tcg_corpus() {
    // The TSO mirror of `verified_tcg_to_arm_passes_tcg_corpus`: the same
    // TCG-translated corpus, checked against the executable x86-TSO model
    // instead of the corrected Arm model. Theorem 1 requires
    // behaviors(target, X86Tso) ⊆ behaviors(source, TcgIr) even though the
    // scheme erases most fences.
    let tcg_corpus: Vec<_> = x86_corpus().iter().map(|p| VERIFIED.map_program(p)).collect();
    let failures = verify_suite(&VerifiedTcgToTso, &tcg_corpus, &TcgIr::new(), &X86Tso::new());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn verified_tcg_to_tso_exhaustive_fence_patterns() {
    // Exhaustive Theorem-1 enumeration over every TCG-event/fence pattern:
    // for each TCG fence kind, a two-thread MP/SB-shaped skeleton with the
    // fence between the two accesses of each thread, in all four
    // load/store orientations. Every one of these programs must check
    // under the no-op/MFENCE lowering — this is the enumeration recorded
    // in DESIGN.md §14.
    use risotto_litmus::{Program, Reg};
    use risotto_memmodel::{FenceKind, Loc};
    let (x, y) = (Loc(0), Loc(1));
    let mut family = Vec::new();
    for &k in &FenceKind::TCG_ALL {
        for (t0_store_first, t1_store_first) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let name = format!("tso-enum-{k:?}-{t0_store_first}-{t1_store_first}");
            let p = Program::builder(&name)
                .thread(|t| {
                    if t0_store_first {
                        t.store(x, 1).fence(k).load(Reg(0), y);
                    } else {
                        t.load(Reg(0), x).fence(k).store(y, 1);
                    }
                })
                .thread(|t| {
                    if t1_store_first {
                        t.store(y, 1).fence(k).load(Reg(1), x);
                    } else {
                        t.load(Reg(1), y).fence(k).store(x, 1);
                    }
                })
                .build();
            family.push(p);
        }
    }
    assert_eq!(family.len(), 48, "12 TCG fence kinds x 4 orientations");
    let failures = verify_suite(&VerifiedTcgToTso, &family, &TcgIr::new(), &X86Tso::new());
    assert!(failures.is_empty(), "TSO lowering violates Theorem 1: {failures:?}");
}

#[test]
fn verified_end_to_end_tso_passes_corpus() {
    let s = verified_x86_to_tso();
    let failures = verify_suite(&s, &x86_corpus(), &X86Tso::new(), &X86Tso::new());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn generated_sweep_verified_tso_scheme_subsampled() {
    // The TSO mirror of `generated_sweep_verified_scheme_subsampled`.
    let family = generate_two_thread(&x86_alphabet(), 2, 24);
    let s = verified_x86_to_tso();
    let failures = verify_suite(&s, &family, &X86Tso::new(), &X86Tso::new());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn generated_sweep_verified_tso_small_alphabet_exhaustive() {
    // All 325 programs over the fence-free alphabet, x86→TCG→TSO.
    let family = generate_two_thread(&x86_alphabet_small(), 2, 1);
    let s = verified_x86_to_tso();
    let failures = verify_suite(&s, &family, &X86Tso::new(), &X86Tso::new());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn verified_end_to_end_passes_corpus_both_lowerings() {
    for rmw in [RmwStyle::Rmw2Fenced, RmwStyle::Casal] {
        let s = verified_x86_to_arm(rmw);
        let failures = verify_suite(&s, &x86_corpus(), &X86Tso::new(), &Arm::corrected());
        assert!(failures.is_empty(), "rmw={rmw:?}: {failures:?}");
    }
}

#[test]
fn qemu_end_to_end_fails_exactly_on_rmw_programs() {
    for helper in [HelperStyle::Gcc9Lxsx, HelperStyle::Gcc10Casal] {
        let s = qemu_x86_to_arm(helper);
        let failures = verify_suite(&s, &x86_corpus(), &X86Tso::new(), &Arm::corrected());
        let names: Vec<&str> = failures.iter().map(|(n, _)| n.as_str()).collect();
        assert!(!failures.is_empty(), "Qemu scheme must fail somewhere ({helper:?})");
        for name in &names {
            assert!(
                name.contains("MPQ") || name.contains("SBQ") || name.contains("SBAL"),
                "unexpected failure on fence-only program {name} ({helper:?})"
            );
        }
    }
}

#[test]
fn generated_sweep_verified_scheme_subsampled() {
    // ~66 programs from the full alphabet (stride 24).
    let family = generate_two_thread(&x86_alphabet(), 2, 24);
    let s = verified_x86_to_arm(RmwStyle::Casal);
    let failures = verify_suite(&s, &family, &X86Tso::new(), &Arm::corrected());
    assert!(failures.is_empty(), "failures: {failures:?}");
}

#[test]
fn generated_sweep_verified_scheme_small_alphabet_exhaustive() {
    // All 325 programs over the fence-free alphabet.
    let family = generate_two_thread(&x86_alphabet_small(), 2, 1);
    let s = verified_x86_to_arm(RmwStyle::Rmw2Fenced);
    let failures = verify_suite(&s, &family, &X86Tso::new(), &Arm::corrected());
    assert!(failures.is_empty(), "failures: {failures:?}");
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
    let sources: Vec<_> = x86_corpus()
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
