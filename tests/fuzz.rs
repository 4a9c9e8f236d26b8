//! Integration tests for the differential fuzzing subsystem
//! (DESIGN.md §13, docs/FUZZING.md): generator well-formedness,
//! corpus round-trips, minimizer laws, a batch of generated programs
//! under every leg of the functional matrix, fault-composed degradation,
//! and replay of the checked-in reproducer corpus.

mod theorem1;

use risotto::fuzz::{
    differential, fault_check, generate, minimize, parse_corpus, program_seed, random_fault_plan,
    to_corpus_string, GenConfig, Leg, ProgSpec, Rung, Stmt, Subject, RISOTTO,
};
use risotto::guest::Interp;
use theorem1::functional::{sweep, Slice, BATCHES, REPRODUCERS};

/// Seeds used by the seeded property sweeps below. Fixed, so failures
/// name a replayable program.
fn sweep_seeds(n: u64, salt: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| program_seed(salt, i))
}

fn stmt_count(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::If { then_body, else_body, .. } => {
                1 + stmt_count(then_body) + stmt_count(else_body)
            }
            Stmt::Loop { body, .. } => 1 + stmt_count(body),
            _ => 1,
        })
        .sum()
}

fn spec_size(spec: &ProgSpec) -> usize {
    stmt_count(&spec.main)
        + spec.threads.iter().map(|b| stmt_count(b)).sum::<usize>()
        + spec.routines.iter().map(|b| stmt_count(b)).sum::<usize>()
}

fn contains_atomic(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::AtomicAdd { .. } | Stmt::CasAdd { .. } => true,
        Stmt::If { then_body, else_body, .. } => {
            contains_atomic(then_body) || contains_atomic(else_body)
        }
        Stmt::Loop { body, .. } => contains_atomic(body),
        _ => false,
    })
}

fn spec_has_atomic(spec: &ProgSpec) -> bool {
    contains_atomic(&spec.main)
        || spec.threads.iter().any(|b| contains_atomic(b))
        || spec.routines.iter().any(|b| contains_atomic(b))
}

/// Every generated spec validates, lowers, and terminates inside its own
/// declared interpreter step bound, with every core producing an exit
/// value (balanced spawn/join).
#[test]
fn generated_programs_are_wellformed_and_terminate() {
    let cfg = GenConfig::default();
    let mut multicore = 0;
    for seed in sweep_seeds(250, 0xA11) {
        let spec = generate(&cfg, seed);
        spec.validate().unwrap_or_else(|e| panic!("seed {seed:#x}: invalid spec: {e}"));
        let bin = spec.lower().unwrap_or_else(|e| panic!("seed {seed:#x}: lowering failed: {e}"));
        let mut interp = Interp::new(&bin);
        interp
            .run(spec.max_interp_steps())
            .unwrap_or_else(|e| panic!("seed {seed:#x}: exceeded its own step bound: {e:?}"));
        for t in 0..spec.cores() {
            // exit_val would be meaningless if the thread never halted;
            // the interpreter only reports Ok once every spawned thread
            // ran to completion, so reaching here is the assertion.
            let _ = interp.exit_val(t);
        }
        if !spec.threads.is_empty() {
            multicore += 1;
        }
    }
    assert!(multicore >= 40, "only {multicore}/250 programs were multi-core");
}

/// Corpus serialization round-trips exactly: parse(to_string(spec)) is
/// identity, for generated programs of every shape.
#[test]
fn corpus_round_trips_exactly() {
    let cfg = GenConfig::default();
    for seed in sweep_seeds(150, 0xC0) {
        let mut spec = generate(&cfg, seed);
        spec.note = format!("round-trip check for {seed:#x}");
        let text = to_corpus_string(&spec);
        let back = parse_corpus(&text)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: reparse failed: {e}\n{text}"));
        assert_eq!(back, spec, "seed {seed:#x}: corpus round-trip changed the spec");
    }
}

/// Hand-edited corpus text cannot smuggle in malformed programs: the
/// parser re-validates.
#[test]
fn corpus_parser_rejects_invalid_programs() {
    // Structurally fine, semantically invalid: xadd with k = 0.
    let text = "risotto-fuzz v1\nseed 0x1\nmain {\n  xadd s0 += 0x0\n}\n";
    assert!(parse_corpus(text).is_err(), "zero-increment atomic must be rejected");
    // Loop nesting too deep.
    let text = "risotto-fuzz v1\nseed 0x1\nmain {\n  loop 2 {\n    loop 2 {\n      loop 2 {\n        fence\n      }\n    }\n  }\n}\n";
    assert!(parse_corpus(text).is_err(), "triple-nested loop must be rejected");
    // Unknown register.
    let text = "risotto-fuzz v1\nseed 0x1\nmain {\n  mov r99 = 0x1\n}\n";
    assert!(parse_corpus(text).is_err(), "unknown register must be rejected");
}

/// Minimization preserves the predicate, only shrinks, and is
/// idempotent: re-minimizing a fixpoint changes nothing.
#[test]
fn minimizer_preserves_predicate_and_is_idempotent() {
    let cfg = GenConfig::default();
    let mut checked = 0;
    for seed in sweep_seeds(40, 0x317) {
        let spec = generate(&cfg, seed);
        if !spec_has_atomic(&spec) {
            continue;
        }
        checked += 1;
        let min = minimize(&spec, &spec_has_atomic, 50_000);
        assert!(spec_has_atomic(&min.spec), "seed {seed:#x}: minimization lost the predicate");
        assert!(min.spec.validate().is_ok(), "seed {seed:#x}: minimized spec invalid");
        assert!(
            spec_size(&min.spec) <= spec_size(&spec),
            "seed {seed:#x}: minimization grew the program"
        );
        // An atomic-containing fixpoint under this predicate is tiny.
        assert!(
            spec_size(&min.spec) <= 2,
            "seed {seed:#x}: fixpoint still has {} statements:\n{}",
            spec_size(&min.spec),
            to_corpus_string(&min.spec),
        );
        let again = minimize(&min.spec, &spec_has_atomic, 50_000);
        assert_eq!(again.spec, min.spec, "seed {seed:#x}: minimize is not idempotent");
        assert_eq!(again.accepted, 0, "seed {seed:#x}: second pass still found reductions");
    }
    assert!(checked >= 10, "only {checked}/40 programs contained atomics");
}

/// The first generated batch (`program_seed(0xD1F, 0..40)`) under every
/// leg of the functional matrix: each run passes the run check the
/// fuzzer shares, and every ladder leg promotes on at least a quarter of
/// the programs it runs.
#[test]
fn differential_sweep_finds_no_divergence() {
    sweep(Slice::Generated { salt: BATCHES[0] });
}

/// Fault-composed runs degrade gracefully: no panic, and completed runs
/// match the fault-free reference exactly.
#[test]
fn fault_composition_degrades_gracefully() {
    let cfg = GenConfig::default();
    let mut completed = 0u64;
    for seed in sweep_seeds(25, 0xFA) {
        let spec = generate(&cfg, seed);
        match fault_check(&spec, random_fault_plan(seed)) {
            Ok(true) => completed += 1,
            Ok(false) => {} // typed error: accepted degradation
            Err(d) => panic!("seed {seed:#x}: fault contract violated: {d}"),
        }
    }
    // Background rates are low; most runs must recover and complete.
    assert!(completed >= 10, "only {completed}/25 fault-composed runs completed");
}

/// Replays every checked-in reproducer: the corpus must parse, agree
/// across all configurations, and keep its intended coverage properties.
#[test]
fn corpus_replay_stays_green() {
    // The list names every file under `tests/corpus/`.
    let corpus_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut files: Vec<String> = std::fs::read_dir(corpus_dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path().file_stem().unwrap().to_string_lossy().into())
        .collect();
    files.sort();
    let mut listed: Vec<&str> = REPRODUCERS.iter().map(|(name, _)| *name).collect();
    listed.sort();
    assert_eq!(files, listed, "tests/corpus and the reproducer list disagree");
    for (name, text) in REPRODUCERS {
        let spec =
            parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}` failed to parse: {e}"));
        let result = differential(&spec);
        assert!(
            result.divergences.is_empty(),
            "corpus `{name}` diverged: {:?}",
            result.divergences
        );
        // Round-trip the checked-in file too: serializer output parses
        // back to the same spec (formatting may differ, semantics not).
        let back = parse_corpus(&to_corpus_string(&spec)).expect("re-serialized corpus parses");
        assert_eq!(back, spec, "corpus `{name}` did not round-trip");
    }
    // The promotion corpus exists to drive tier-0 → tier-1 promotion on
    // the ladder leg: check it still does.
    let (_, text) = REPRODUCERS.iter().find(|(name, _)| *name == "hot_loop_promotion").unwrap();
    let p = Subject::of_spec(&parse_corpus(text).unwrap()).expect("spec runs");
    let ladder = Leg { rung: Rung::Ladder, ..RISOTTO };
    let run = p.run(ladder.setup, ladder.config()).expect("spec runs");
    let promotions = run.metrics.counter("template.promotions");
    assert!(promotions > 0, "hot_loop_promotion no longer promotes a template");
}

/// The documented regression-test skeleton for a minimized reproducer
/// contains the pieces a paste-in needs.
#[test]
fn regression_skeleton_is_complete() {
    let spec = generate(&GenConfig::default(), 99);
    let s = risotto::fuzz::regression_test_skeleton(&spec, "divergent_demo");
    for needle in ["#[test]", "fn corpus_divergent_demo()", "parse_corpus", "differential"] {
        assert!(s.contains(needle), "skeleton missing `{needle}`:\n{s}");
    }
}
