//! The full Theorem-1 verification sweep — the systems counterpart of
//! checking the paper's 14k-line Agda development.
//!
//! Verifies the x86→TCG, TCG→Arm and end-to-end mapping schemes over the
//! litmus corpus and the exhaustively generated two-thread program family,
//! and confirms that the erroneous schemes (QEMU's, and the Fig. 3
//! mapping under the original Arm model) fail exactly where the paper
//! says they do.

use risotto_bench::{print_table, BenchCli};
use risotto_litmus::corpus;
use risotto_mappings::check::verify_suite;
use risotto_mappings::gen::{generate_two_thread, x86_alphabet};
use risotto_mappings::scheme::*;
use risotto_memmodel::{Arm, FencePlacement, RmwStyle, TcgIr, X86Tso};

fn main() {
    // It reads no flag; parsing rejects every one.
    let _ = BenchCli::parse("verify_mappings", &[]);
    let x86 = X86Tso::new();
    let tcg = TcgIr::new();
    let arm = Arm::corrected();
    let arm_orig = Arm::original();

    let corpus_progs = vec![
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
    ];
    println!("Generating the exhaustive two-thread family (len-2 over the full alphabet)…");
    let family = generate_two_thread(&x86_alphabet(), 2, 1);
    println!("  {} corpus programs + {} generated programs\n", corpus_progs.len(), family.len());

    let mut rows = Vec::new();
    let mut check = |name: &str, fails_corpus: usize, fails_family: usize, expect_sound: bool| {
        let verdict = if fails_corpus == 0 && fails_family == 0 {
            "SOUND (no counterexample)"
        } else {
            "UNSOUND (counterexamples found)"
        };
        let expected = if expect_sound { "sound" } else { "unsound" };
        assert_eq!(
            (fails_corpus + fails_family == 0),
            expect_sound,
            "{name}: verdict does not match the paper"
        );
        rows.push(vec![
            name.to_string(),
            fails_corpus.to_string(),
            fails_family.to_string(),
            format!("{verdict} — paper says {expected}"),
        ]);
    };

    // Verified schemes: must pass everywhere.
    let v1 = X86ToTcg(FencePlacement::VerifiedTrailing);
    check(
        "verified x86->tcg",
        verify_suite(&v1, &corpus_progs, &x86, &tcg).len(),
        verify_suite(&v1, &family, &x86, &tcg).len(),
        true,
    );
    for rmw in [RmwStyle::Rmw2Fenced, RmwStyle::Casal] {
        let s = verified_x86_to_arm(rmw);
        check(
            &format!("verified x86->arm ({rmw:?})"),
            verify_suite(&s, &corpus_progs, &x86, &arm).len(),
            verify_suite(&s, &family, &x86, &arm).len(),
            true,
        );
    }
    // Qemu schemes: must fail (on RMW programs).
    for helper in [HelperStyle::Gcc9Lxsx, HelperStyle::Gcc10Casal] {
        let s = qemu_x86_to_arm(helper);
        check(
            &format!("qemu x86->arm ({helper:?})"),
            verify_suite(&s, &corpus_progs, &x86, &arm).len(),
            verify_suite(&s, &family, &x86, &arm).len(),
            false,
        );
    }
    // Fig. 3 intended mapping: fails under the original model, passes
    // under the corrected one.
    check(
        "intended x86->arm (original Arm)",
        verify_suite(&ArmCatsIntended, &corpus_progs, &x86, &arm_orig).len(),
        verify_suite(&ArmCatsIntended, &family, &x86, &arm_orig).len(),
        false,
    );
    check(
        "intended x86->arm (corrected Arm)",
        verify_suite(&ArmCatsIntended, &corpus_progs, &x86, &arm).len(),
        verify_suite(&ArmCatsIntended, &family, &x86, &arm).len(),
        true,
    );
    // The no-fences oracle, as the DBT runs it: knowingly incorrect.
    let s = no_fences_x86_to_arm();
    check(
        "no-fences x86->arm",
        verify_suite(&s, &corpus_progs, &x86, &arm).len(),
        verify_suite(&s, &family, &x86, &arm).len(),
        false,
    );

    print_table(&["scheme", "corpus fails", "family fails", "verdict"], &rows);
    println!("\nAll verdicts match the paper (§3.2, §3.3, §5.4).");
}
