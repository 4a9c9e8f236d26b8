//! Integration tests for the differential fuzzing subsystem
//! (DESIGN.md §13, docs/FUZZING.md): generator well-formedness,
//! `ProgSpec::validate`'s rejections, minimizer laws, the reproducer
//! printer, a batch of generated programs under every leg of the
//! functional matrix, fault-composed degradation, and replay of the
//! checked-in reproducers.

mod theorem1;

use risotto::core::{FaultPlan, MetricsSnapshot};
use risotto::fuzz::spec::CELLS;
use risotto::fuzz::{
    differential, generate, minimize, program_seed, regression_test_skeleton, spec_constructor,
    GenConfig, Leg, ProgSpec, Rung, SpecError, Stmt, Subject, RISOTTO,
};
use risotto::guest::{FpOp, Gpr, Interp};
use theorem1::functional::{fault_sweep, sweep, FaultSlice, Slice, BATCHES};
use theorem1::reproducers::REPRODUCERS;

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

/// Whether any statement of `body`, at any nesting depth, satisfies `f`.
fn body_any(body: &[Stmt], f: &dyn Fn(&Stmt) -> bool) -> bool {
    body.iter().any(|s| {
        f(s) || match s {
            Stmt::If { then_body, else_body, .. } => {
                body_any(then_body, f) || body_any(else_body, f)
            }
            Stmt::Loop { body, .. } => body_any(body, f),
            _ => false,
        }
    })
}

/// Whether any statement of `spec`, in any body, satisfies `f`.
fn spec_any(spec: &ProgSpec, f: &dyn Fn(&Stmt) -> bool) -> bool {
    [&spec.main].into_iter().chain(&spec.threads).chain(&spec.routines).any(|b| body_any(b, f))
}

fn spec_has_atomic(spec: &ProgSpec) -> bool {
    spec_any(spec, &|s| matches!(s, Stmt::AtomicAdd { .. } | Stmt::CasAdd { .. }))
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

/// A spec with `main` as its only body.
fn main_only(main: Vec<Stmt>) -> ProgSpec {
    ProgSpec { seed: 0, main, threads: vec![], routines: vec![], note: String::new() }
}

/// `ProgSpec::validate` rejects one spec per structural error, each with
/// exactly its variant: a hand-written reproducer relies on it (through
/// `lower`) to be a well-formed, terminating program. `Lower` is the
/// assembler's error, which no validated spec reaches.
#[test]
fn validate_rejects_each_malformed_shape() {
    let fence = || vec![Stmt::Fence];
    let deep = Stmt::Loop {
        trips: 2,
        body: vec![Stmt::Loop { trips: 2, body: vec![Stmt::Loop { trips: 2, body: fence() }] }],
    };
    let cases = [
        (main_only(vec![Stmt::MovImm { dst: Gpr::RSP, imm: 1 }]), SpecError::BadReg(Gpr::RSP)),
        (main_only(vec![Stmt::Load { dst: Gpr::RAX, slot: 8 }]), SpecError::BadSlot(8)),
        (main_only(vec![Stmt::AtomicAdd { cell: CELLS, k: 1 }]), SpecError::BadCell(CELLS)),
        (main_only(vec![Stmt::Loop { trips: 0, body: fence() }]), SpecError::BadTrips(0)),
        (main_only(vec![deep]), SpecError::TooDeep),
        (main_only(vec![Stmt::Call { routine: 0 }]), SpecError::BadRoutine(0)),
        (
            ProgSpec {
                routines: vec![vec![Stmt::Loop { trips: 1, body: fence() }]],
                ..main_only(vec![])
            },
            SpecError::RoutineNotFlat,
        ),
        (main_only(vec![Stmt::CasAdd { cell: 0, k: 0 }]), SpecError::ZeroIncrement),
        (ProgSpec { threads: vec![fence(); 4], ..main_only(vec![]) }, SpecError::TooManyThreads(5)),
        (
            ProgSpec {
                threads: vec![fence()],
                ..main_only(vec![Stmt::LoadShared { dst: Gpr::RAX, cell: 0 }])
            },
            SpecError::ScheduleDependent("loadsh"),
        ),
    ];
    for (spec, want) in cases {
        assert_eq!(spec.validate(), Err(want.clone()), "{spec:?}");
        assert_eq!(spec.lower().err(), Some(want), "lower validates: {spec:?}");
    }
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
            spec_constructor(&min.spec, "fixpoint"),
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

/// Fault-composed runs of the generated batches, one plan per case, the
/// site rotating: each passes the run check or ends in its injected
/// syscall error.
#[test]
fn fault_composition_degrades_gracefully() {
    fault_sweep(FaultSlice::Generated);
}

/// Replays every checked-in reproducer: each agrees across all legs of
/// the differential oracle and keeps the shape docs/FUZZING.md documents
/// for it, read off the spec and its risotto or ladder run. The ladder
/// leg must promote `hot_loop_promotion`, the reproducer that exists to
/// drive tier-0 → tier-1 promotion.
#[test]
fn corpus_replay_stays_green() {
    for (name, spec) in REPRODUCERS.iter() {
        let result = differential(spec);
        assert!(
            result.divergences.is_empty(),
            "reproducer `{name}` diverged: {:?}",
            result.divergences
        );
        let p = Subject::of_spec(spec).expect("reproducer runs");
        let metrics = |leg| p.run(leg, &FaultPlan::default()).expect("reproducer runs").metrics;
        let risotto = metrics(RISOTTO);
        let ladder = metrics(Leg { rung: Rung::Ladder, ..RISOTTO });
        assert!(shape_holds(name, spec, &p, &risotto, &ladder), "`{name}` lost its shape");
    }
}

/// The row of docs/FUZZING.md's reproducer table for `name`, as a check
/// of the spec (cores, statement kinds), of how the interpreter ends it,
/// and of one counter of its `risotto` or `ladder` run.
fn shape_holds(
    name: &str,
    spec: &ProgSpec,
    p: &Subject,
    risotto: &MetricsSnapshot,
    ladder: &MetricsSnapshot,
) -> bool {
    let has = |f: &dyn Fn(&Stmt) -> bool| spec_any(spec, f);
    let nested_loop = |s: &Stmt| matches!(s, Stmt::Loop { body, .. } if body.iter().any(|t| matches!(t, Stmt::Loop { .. })));
    let in_loop = |f: &dyn Fn(&Stmt) -> bool| {
        has(&|s| matches!(s, Stmt::Loop { body, .. } if body_any(body, f)))
    };
    let fp_mul = |s: &Stmt| matches!(s, Stmt::Fp { op: FpOp::Mul, .. });
    match name {
        // Stores and fences in a hot loop: the adjacent fences merge, yet
        // no store is eliminated and no load forwarded.
        "store_store_fence" => {
            spec.cores() == 1
                && in_loop(&|s| matches!(s, Stmt::Store { .. }))
                && in_loop(&|s| *s == Stmt::Fence)
                && risotto.counter("opt.fences_merged") > 0
                && risotto.counter("opt.stores_eliminated") == 0
                && risotto.counter("opt.loads_forwarded") == 0
        }
        // Three cores, both RMW flavours on shared cells.
        "spawn_cas_contention" => {
            spec.cores() == 3
                && has(&|s| matches!(s, Stmt::AtomicAdd { .. }))
                && has(&|s| matches!(s, Stmt::CasAdd { .. }))
                && risotto.counter("exec.atomics") > 0
        }
        // A nested hot loop around a branch: the ladder promotes.
        "hot_loop_promotion" => {
            has(&nested_loop)
                && in_loop(&|s| matches!(s, Stmt::If { .. }))
                && ladder.counter("template.promotions") > 0
        }
        // Every compare-exchange misses: the slot keeps the byte store's
        // value. Div-by-zero and a byte store ride along.
        "cmpxchg_fail_path" => {
            let slot3 = p.data[usize::from(CELLS) + 3];
            has(&|s| matches!(s, Stmt::Div { .. }))
                && has(&|s| matches!(s, Stmt::StoreB { .. }))
                && has(&|s| matches!(s, Stmt::Cmpxchg { .. }))
                && slot3 == 9 | 9 << 40
                && risotto.counter("exec.atomics") > 0
        }
        // An `fp mul` chain in a loop that ends on a NaN bit pattern.
        "fp_nan_chain" => {
            spec.cores() == 1
                && in_loop(&fp_mul)
                && f64::from_bits(p.regs[Gpr::RSI.index()]).is_nan()
                && risotto.counter("chain.hits") > 0
        }
        // The same chain in a routine only a spawned thread calls, and
        // that thread runs on core 1.
        "fp_nan_cross_thread" => {
            spec.cores() == 2
                && spec.routines.iter().any(|r| body_any(r, &fp_mul))
                && !body_any(&spec.main, &|s| matches!(s, Stmt::Call { .. }))
                && risotto.gauge("core.1.insns") > 0
        }
        _ => panic!("reproducer `{name}` has no documented shape"),
    }
}

/// The checked-in reproducers are the printer's own output: each
/// constructor in `tests/theorem1/reproducers.rs` is exactly what
/// `spec_constructor` prints for the spec it builds, and the list names
/// every constructor.
#[test]
fn reproducers_are_the_printers_output() {
    let source = include_str!("theorem1/reproducers.rs");
    for (name, spec) in REPRODUCERS.iter() {
        let printed = spec_constructor(spec, name);
        assert!(source.contains(&printed), "`{name}` is not the printer's output:\n{printed}");
    }
    assert_eq!(source.matches("() -> ProgSpec {").count(), REPRODUCERS.len());
}

/// The regression-test skeleton for a minimized reproducer is a
/// `#[test]` that runs the printer's constructor through the
/// differential oracle.
#[test]
fn regression_skeleton_is_complete() {
    let spec = generate(&GenConfig::default(), 99);
    let s = regression_test_skeleton(&spec, "divergent_demo");
    for needle in [
        "#[test]\nfn reproducer_divergent_demo() {",
        "differential(&divergent_demo())",
        &spec_constructor(&spec, "divergent_demo"),
    ] {
        assert!(s.contains(needle), "skeleton missing `{needle}`:\n{s}");
    }
}
