//! The whole-program-analysis gate (docs/ANALYSIS.md).
//!
//! Four claims are tested over the Fig. 12 kernel corpus, the CAS grid,
//! the fuzz reproducers and the litmus suite:
//!
//! 1. **Transparency** (the analysis-on legs of the functional matrix,
//!    `theorem1/functional.rs`, each with its analysis-off twins) —
//!    every program ends as the reference interpreter ends with
//!    analysis-driven fence relaxation on, on every setup, backend and
//!    rung, and kernels and the CAS grid never run slower than their
//!    twins. On risotto/Arm/tier-1 at least three kernels per scale must
//!    run strictly *faster* — the subsystem has to pay for itself — and
//!    a program where no fence was relaxed must run exactly as with
//!    analysis off: same cycles, code and translation counters.
//! 2. **Soundness under the verifier** — all relaxed translations pass
//!    `VerifyLevel::Full` with zero violations (the verifier re-derives
//!    the relaxation mask from the pristine facts), and litmus programs
//!    run with analysis on stay within the x86-allowed behavior set (the
//!    analysis-on legs of the `theorem1` litmus matrix).
//! 3. **Mutant kill** — force-misclassifying shared accesses as
//!    private (`force_private_for_test`) makes the engine relax fences
//!    the verifier mask does not license; every mutant that actually
//!    relaxed more than the clean run must be rejected at install
//!    (Pass 2, `FenceObligations`), and the run must still produce the
//!    correct result via the interpreter fallback. Forcing an access
//!    the analysis already proved private is a no-op (negative
//!    control).
//! 4. **Ownership** — facts live in the emulator that asked for them:
//!    absent unless its `EmuConfig` turns analysis on, and equal across
//!    emulators over one image.
//!
//! And across versions, [`FACTS_HASH`] pins the facts themselves over
//! every corpus a gate or the benchmark analyses.

mod theorem1;

use risotto::analysis::{analyze_image, AccessKind, SiteClass};
use risotto::core::{EmuConfig, Emulator, Setup, VerifyLevel};
use risotto::fuzz::{generate, program_seed, GenConfig};
use risotto::guest::GuestBinary;
use risotto::host::CostModel;
use risotto::litmus::corpus;
use risotto::workloads::litmus_compile::compile_litmus;
use risotto::workloads::{cas, kernels};
use theorem1::reproducers::REPRODUCERS;

const SCALE: u64 = 4;
const THREADS: usize = 2;
const FUEL: u64 = 20_000_000_000;

/// Analysis on, at the Full verifier level.
fn verified_analysis() -> EmuConfig {
    EmuConfig { analysis: true, verify: VerifyLevel::Full, ..EmuConfig::default() }
}

/// The Arm tier-1 analysis-on legs and their analysis-off twins, on
/// every program of the functional table: transparency (each run ends
/// as the reference interpreter ends; a twin with nothing relaxed is
/// identical; kernels and the CAS grid never run slower) and risotto
/// makes at least three kernels strictly faster at each scale.
#[test]
fn kernels_bit_identical_and_no_slower_with_analysis() {
    theorem1::functional::sweep(theorem1::functional::Slice::AnalysisArmTier1);
}

/// The same on the TSO analysis-on legs: the relaxation mask is
/// backend-independent, and so are the guest-visible results.
#[test]
fn kernels_bit_identical_with_analysis_on_tso() {
    theorem1::functional::sweep(theorem1::functional::Slice::AnalysisTso);
}

/// The same on the Arm tier-0 and ladder analysis-on legs. Every run of
/// every analysis slice is at `VerifyLevel::Full`: the relaxation the
/// engine applies is exactly the one the verifier's own mask licenses
/// (zero false positives), and every ladder leg but no-fences relaxes
/// a fence.
#[test]
fn full_verifier_accepts_all_analysis_relaxations() {
    theorem1::functional::sweep(theorem1::functional::Slice::AnalysisArmTiered);
}

/// Litmus programs with analysis on stay within the x86-allowed set and
/// verifier-clean, on every setup, backend and rung. (Results are *not*
/// compared to the analysis-off run: removing private fences
/// legitimately shifts interleavings; containment in the axiomatic set
/// is the spec.)
#[test]
fn litmus_with_analysis_stays_within_x86_behaviors() {
    theorem1::sweep(theorem1::Slice::Analysis);
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
        let mut clean = Emulator::with_config(&bin, Setup::Risotto, THREADS, verified_analysis());
        let r_clean = clean.run(FUEL).unwrap_or_else(|e| panic!("{} (clean): {e}", w.name));
        let mc = clean.metrics();
        assert_eq!(mc.counter("verify.violations"), 0, "{}: clean run flagged", w.name);
        let clean_relaxed = mc.counter("analysis.relaxed");
        assert_eq!(r_clean.exit_vals, r_base.exit_vals, "{}: clean run diverges", w.name);

        let shared: Vec<u64> = clean
            .analysis_facts()
            .expect("facts present with analysis on")
            .sites
            .iter()
            .filter(|(_, s)| s.kind != AccessKind::Atomic && s.class == SiteClass::Shared)
            .map(|(&pc, _)| pc)
            .collect();
        if shared.is_empty() {
            continue; // nothing to misclassify in this kernel
        }
        mutants += 1;

        let mut evil = Emulator::with_config(&bin, Setup::Risotto, THREADS, verified_analysis());
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
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, THREADS, verified_analysis());
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

/// Facts belong to the emulator: there are none unless its config turns
/// analysis on, and two emulators over one image are independent and
/// indistinguishable.
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

    let off = Emulator::with_config(&bin, Setup::Risotto, THREADS, EmuConfig::default());
    assert!(off.analysis_facts().is_none(), "analysis is off by default");
    let analysis = EmuConfig { analysis: true, ..EmuConfig::default() };
    let mut a = Emulator::with_config(&bin, Setup::Risotto, THREADS, analysis.clone());
    let summary = a.analysis_facts().expect("facts present with analysis on").summary();
    assert!(summary.relaxable > 0, "pca should have relaxable accesses");

    let mut b = Emulator::with_config(&bin, Setup::Risotto, THREADS, analysis);
    assert_eq!(b.analysis_facts().expect("facts present").summary(), summary);
    let (ra, rb) = (run(&mut a), run(&mut b));
    assert_eq!(ra, rb, "two emulators over one image must agree");
    assert!(a.metrics().counter("analysis.relaxed") > 0, "pca should relax fences");
}

/// FNV-1a over a byte string, continuing from `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every image whose facts a gate or the benchmark reads: the 16 kernels
/// at the `analyze --smoke` and `BENCH_pipeline.json` scales with one
/// and two threads, the CAS grid, the x86 litmus programs, the fuzz
/// reproducers, and the first 400 programs of each generator
/// configuration the benchmark draws from.
fn analysed_images() -> Vec<GuestBinary> {
    let mut images = Vec::new();
    for w in kernels::all() {
        for scale in [4, 16] {
            for threads in [1, 2] {
                images.push((w.build)(scale, threads));
            }
        }
    }
    for (threads, vars) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)] {
        images.push(cas::cas_bench(10_000, threads, vars));
    }
    for prog in corpus::x86().into_iter().chain([corpus::lb_ir_unfenced()]) {
        images.push(compile_litmus(&prog, &vec![0; prog.threads.len()]).binary);
    }
    for (_, spec) in REPRODUCERS.iter() {
        images.push(spec.lower().expect("reproducer lowers"));
    }
    // `translate_cold` draws loop-free programs, `mixed_tiered` the
    // defaults, both from corpus seed 1.
    let mut cold = GenConfig { ensure_hot_loop: false, ..GenConfig::default() };
    cold.weights.loops = 0;
    for cfg in [cold, GenConfig::default()] {
        for i in 0..400 {
            images.push(generate(&cfg, program_seed(1, i)).lower().expect("generated spec lowers"));
        }
    }
    images
}

/// FNV-1a hash of each image's `ImageFacts` (their `Debug` text: every
/// site's kind, width, class and region, the poisons, the instances and
/// the refined loops) over [`analysed_images`]: a change to the analysis
/// that claims the same facts must reproduce it.
const FACTS_HASH: u64 = 0xdbb6_93af_1870_1c34;

#[test]
fn facts_match_the_checked_in_hash() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bin in &analysed_images() {
        fnv(&mut h, format!("{:?}", analyze_image(bin)).as_bytes());
    }
    assert_eq!(h, FACTS_HASH, "analysis facts changed (got {h:#018x})");
}
