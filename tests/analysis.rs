//! The whole-program-analysis gate (docs/ANALYSIS.md).
//!
//! Four claims are tested over the Fig. 12 kernel corpus and the litmus
//! suite:
//!
//! 1. **Transparency** — every kernel produces bit-identical results
//!    with analysis-driven fence relaxation on and off, on both host
//!    backends, and never runs slower on Arm. At least three kernels
//!    must run strictly *faster* — the subsystem has to pay for itself.
//! 2. **Soundness under the verifier** — all relaxed translations pass
//!    `VerifyLevel::Full` with zero violations (the verifier re-derives
//!    the relaxation mask from the pristine facts), and litmus programs
//!    run with analysis on stay within the x86-allowed behavior set.
//! 3. **Mutant kill** — force-misclassifying shared accesses as
//!    private (`force_private_for_test`) makes the engine relax fences
//!    the verifier mask does not license; every mutant that actually
//!    relaxed more than the clean run must be rejected at install
//!    (Pass 2, `FenceObligations`), and the run must still produce the
//!    correct result via the interpreter fallback. Forcing an access
//!    the analysis already proved private is a no-op (negative
//!    control).
//! 4. **Ownership** — facts live in the emulator that asked for them:
//!    computed once per `set_analysis(true)`, dropped when turned off,
//!    equal when re-derived, and equal across emulators over one image.

use risotto::analysis::{AccessKind, SiteClass};
use risotto::core::{BackendKind, Emulator, Setup, VerifyLevel};
use risotto::host::CostModel;
use risotto::litmus::{behaviors, corpus};
use risotto::memmodel::X86Tso;
use risotto::workloads::kernels;
use risotto::workloads::litmus_compile::compile_litmus;

const SCALE: u64 = 4;
const THREADS: usize = 2;
const FUEL: u64 = 20_000_000_000;

/// Transparency on Arm: bit-identical results, cycles never up, and
/// strictly down on at least three kernels.
#[test]
fn kernels_bit_identical_and_no_slower_with_analysis() {
    let mut faster = Vec::new();
    for w in kernels::all() {
        let bin = (w.build)(SCALE, THREADS);
        let mut off = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        let r_off = off.run(FUEL).unwrap_or_else(|e| panic!("{} (off): {e}", w.name));
        let mut on = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        on.set_analysis(true);
        let r_on = on.run(FUEL).unwrap_or_else(|e| panic!("{} (on): {e}", w.name));
        assert_eq!(r_on.exit_vals, r_off.exit_vals, "{}: exit values diverge", w.name);
        assert_eq!(r_on.output, r_off.output, "{}: output diverges", w.name);
        assert!(
            r_on.cycles <= r_off.cycles,
            "{}: analysis-on regressed cycles ({} > {})",
            w.name,
            r_on.cycles,
            r_off.cycles
        );
        if r_on.cycles < r_off.cycles {
            faster.push(w.name);
        }
    }
    assert!(
        faster.len() >= 3,
        "fence relaxation must strictly reduce cycles on >= 3 kernels, got {faster:?}"
    );
}

/// Transparency on the MiniTSO backend: the relaxation mask is
/// backend-independent, and so are the guest-visible results.
#[test]
fn kernels_bit_identical_with_analysis_on_tso() {
    for w in kernels::all() {
        let bin = (w.build)(SCALE, THREADS);
        let mut off = Emulator::new(&bin, Setup::Risotto, THREADS, BackendKind::Tso.cost_model());
        off.set_backend(BackendKind::Tso);
        let r_off = off.run(FUEL).unwrap_or_else(|e| panic!("{} (tso off): {e}", w.name));
        let mut on = Emulator::new(&bin, Setup::Risotto, THREADS, BackendKind::Tso.cost_model());
        on.set_backend(BackendKind::Tso);
        on.set_analysis(true);
        let r_on = on.run(FUEL).unwrap_or_else(|e| panic!("{} (tso on): {e}", w.name));
        assert_eq!(r_on.exit_vals, r_off.exit_vals, "{}: tso exit values diverge", w.name);
        assert_eq!(r_on.output, r_off.output, "{}: tso output diverges", w.name);
    }
}

/// Every relaxed translation passes the full verifier: the relaxation
/// the engine applies is exactly the one the verifier's own mask
/// licenses (zero false positives on the clean corpus).
#[test]
fn full_verifier_accepts_all_analysis_relaxations() {
    let mut relaxed_total = 0;
    for w in kernels::all() {
        let bin = (w.build)(SCALE, THREADS);
        let mut emu = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        emu.set_analysis(true);
        emu.set_verify(VerifyLevel::Full);
        emu.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let m = emu.metrics();
        assert_eq!(
            m.counter("verify.violations"),
            0,
            "{}: clean kernel flagged under analysis",
            w.name
        );
        assert!(m.counter("verify.checked") > 0, "{}: verifier never ran", w.name);
        relaxed_total += m.counter("analysis.relaxed");
    }
    assert!(relaxed_total > 0, "no kernel relaxed any fence — subsystem went dead");
}

/// Litmus programs with analysis on: still within the x86-allowed set,
/// still verifier-clean. (Results are *not* compared to the
/// analysis-off run — removing private fences legitimately shifts
/// interleavings; containment in the axiomatic set is the spec.)
#[test]
fn litmus_with_analysis_stays_within_x86_behaviors() {
    for prog in [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb()] {
        let allowed = behaviors(&prog, &X86Tso::new());
        for delays in [&[0u64, 0][..], &[0, 40], &[40, 0], &[13, 11]] {
            let compiled = compile_litmus(&prog, delays);
            let mut emu = Emulator::new(
                &compiled.binary,
                Setup::Risotto,
                compiled.threads,
                CostModel::thunderx2_like(),
            );
            emu.set_analysis(true);
            emu.set_verify(VerifyLevel::Full);
            emu.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            let obs = compiled.observe(emu.mem());
            assert!(
                allowed.iter().any(|b| b.mem == obs.mem && b.regs == obs.regs),
                "{} (delays {delays:?}, analysis on): observed {obs:?} is NOT x86-allowed",
                prog.name
            );
            assert_eq!(
                emu.metrics().counter("verify.violations"),
                0,
                "{}: verifier flagged a litmus translation",
                prog.name
            );
        }
    }
}

/// Mutant kill: forcing every shared plain access private makes the
/// engine relax beyond the verifier's mask; Pass 2 must reject each
/// such translation at install, and the interpreter fallback must keep
/// the result correct. 100% kill: no mutant that relaxed more than the
/// clean run may pass the verifier.
#[test]
fn forced_private_mutants_die_at_install() {
    let mut kills = 0;
    let mut mutants = 0;
    for w in kernels::all() {
        let bin = (w.build)(SCALE, THREADS);
        let mut base = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        let r_base = base.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", w.name));

        // Clean analysis-on reference: how much the licensed mask relaxes.
        let mut clean = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        clean.set_analysis(true);
        clean.set_verify(VerifyLevel::Full);
        let r_clean = clean.run(FUEL).unwrap_or_else(|e| panic!("{} (clean): {e}", w.name));
        let mc = clean.metrics();
        assert_eq!(mc.counter("verify.violations"), 0, "{}: clean run flagged", w.name);
        let clean_relaxed = mc.counter("analysis.relaxed");
        assert_eq!(r_clean.exit_vals, r_base.exit_vals, "{}: clean run diverges", w.name);

        let shared: Vec<u64> = clean
            .analysis_facts()
            .expect("facts present after set_analysis")
            .sites
            .iter()
            .filter(|(_, s)| s.kind != AccessKind::Atomic && s.class == SiteClass::Shared)
            .map(|(&pc, _)| pc)
            .collect();
        if shared.is_empty() {
            continue; // nothing to misclassify in this kernel
        }
        mutants += 1;

        let mut evil = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
        evil.set_analysis(true);
        evil.set_verify(VerifyLevel::Full);
        for &pc in &shared {
            evil.force_private_for_test(pc);
        }
        let r_evil = evil.run(FUEL).unwrap_or_else(|e| panic!("{} (mutant): {e}", w.name));
        // Whatever the verifier did, the user-visible result must be the
        // fault-free one (rejected blocks fall back to the interpreter).
        assert_eq!(r_evil.exit_vals, r_base.exit_vals, "{}: mutant corrupted results", w.name);
        assert_eq!(r_evil.output, r_base.output, "{}: mutant corrupted output", w.name);
        let me = evil.metrics();
        if me.counter("analysis.relaxed") > clean_relaxed {
            // The mutant really removed extra fences: it must have died.
            assert!(
                me.counter("verify.violations") > 0,
                "{}: mutant relaxed shared accesses and survived the verifier",
                w.name
            );
            kills += 1;
        }
    }
    assert!(mutants >= 8, "expected shared sites in most kernels, got {mutants}");
    assert!(kills >= 6, "too few mutants exercised the kill path: {kills}/{mutants}");
}

/// Negative control: forcing a pc the analysis already proved private
/// changes nothing — same mask, zero violations.
#[test]
fn forcing_an_already_private_site_is_harmless() {
    let w = kernels::all().into_iter().find(|w| w.name == "pca").expect("pca kernel exists");
    let bin = (w.build)(SCALE, THREADS);
    let mut emu = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
    emu.set_analysis(true);
    emu.set_verify(VerifyLevel::Full);
    let private: Vec<u64> = emu
        .analysis_facts()
        .expect("facts present")
        .sites
        .iter()
        .filter(|(_, s)| s.class == SiteClass::Private)
        .map(|(&pc, _)| pc)
        .collect();
    assert!(!private.is_empty(), "pca should have private accesses");
    for &pc in &private {
        emu.force_private_for_test(pc);
    }
    emu.run(FUEL).expect("pca runs");
    let m = emu.metrics();
    assert_eq!(m.counter("verify.violations"), 0, "private-forcing must be a no-op");
    assert!(m.counter("analysis.relaxed") > 0, "pca should relax its private accesses");
}

/// Facts belong to the emulator: `set_analysis(true)` analyses the image
/// once and keeps that object, off-then-on re-derives equal facts, and
/// two emulators over one image are independent and indistinguishable.
#[test]
fn facts_are_per_emulator_and_reproducible() {
    let w = kernels::all().into_iter().find(|w| w.name == "pca").expect("pca kernel exists");
    let bin = (w.build)(SCALE, THREADS);
    let run = |emu: &mut Emulator| {
        let report = emu.run(FUEL).expect("pca runs");
        let analysis: Vec<_> = emu
            .metrics()
            .metrics
            .into_iter()
            .filter(|(name, _)| name.starts_with("analysis."))
            .collect();
        (analysis, report.cycles, report.exit_vals, report.output)
    };

    let mut a = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
    assert!(a.analysis_facts().is_none(), "analysis is off by default");
    a.set_analysis(true);
    let facts = a.analysis_facts().expect("facts present after set_analysis");
    let (first, summary) = (std::ptr::from_ref(facts), facts.summary());
    assert!(summary.relaxable > 0, "pca should have relaxable accesses");
    a.set_analysis(true);
    assert!(
        std::ptr::eq(first, a.analysis_facts().expect("facts kept")),
        "turning analysis on twice must keep the facts it already has"
    );
    a.set_analysis(false);
    assert!(a.analysis_facts().is_none(), "turning analysis off drops the facts");
    a.set_analysis(true);
    assert_eq!(a.analysis_facts().expect("facts re-derived").summary(), summary);

    let mut b = Emulator::new(&bin, Setup::Risotto, THREADS, CostModel::thunderx2_like());
    b.set_analysis(true);
    let (ra, rb) = (run(&mut a), run(&mut b));
    assert_eq!(ra, rb, "two emulators over one image must agree");
    assert!(a.metrics().counter("analysis.relaxed") > 0, "pca should relax fences");
}
