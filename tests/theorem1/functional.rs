//! The functional oracle: every program of one table runs under every
//! leg of the one leg table (`risotto_fuzz::legs`) and must pass the run
//! check the differential fuzzer shares (`risotto_fuzz::run_checked`,
//! which lists its rules): end exactly as the reference interpreter
//! (`Interp`) ends, registers and flags included on one core, with a
//! clean verifier and chain graph and the leg's own counters, and agree
//! with the program's risotto/Arm/tier-1 run on atomics.
//!
//! The programs: the 16 Fig. 12 kernels at scale 4 (where swaptions
//! relaxes) and at scale 8 (where the chain-hit floor holds), with two
//! threads; the CAS grid at (threads, vars) = (1, 1), (4, 2), (4, 4);
//! the checked-in fuzz reproducers; one hand-assembled program that
//! halts with `CF` and `OF` set ([`flags_at_halt`]); and the generated
//! programs `program_seed(salt, 0..40)` for each salt of [`BATCHES`].
//!
//! A twin is an analysis-on run paired with the analysis-off run of the
//! same program on the otherwise identical leg ([`check_twins`]).

use risotto::core::{BackendKind, MetricsSnapshot, Report, Setup};
use risotto::fuzz::{
    generate, legs, parse_corpus, program_seed, run_checked, GenConfig, Leg, Run, Rung, Subject,
    RISOTTO,
};
use risotto::guest::{AluOp, Cond, GelfBuilder, Gpr, GuestBinary};
use risotto::workloads::{cas, kernels};
use std::sync::OnceLock;

/// The checked-in fuzz reproducers (`tests/corpus/*.risotto`), in the
/// order the hashes fold them.
pub const REPRODUCERS: [(&str, &str); 6] = [
    ("store_store_fence", include_str!("../corpus/store_store_fence.risotto")),
    ("spawn_cas_contention", include_str!("../corpus/spawn_cas_contention.risotto")),
    ("hot_loop_promotion", include_str!("../corpus/hot_loop_promotion.risotto")),
    ("cmpxchg_fail_path", include_str!("../corpus/cmpxchg_fail_path.risotto")),
    // f64 NaN *payload* propagation differed between the interpreter and
    // every DBT tier until all four evaluation sites were unified on
    // guest_x86::softfloat (LLVM may commute `fa * fb`, so "identical"
    // expressions at two call sites can return different NaN bits).
    ("fp_nan_chain", include_str!("../corpus/fp_nan_chain.risotto")),
    ("fp_nan_cross_thread", include_str!("../corpus/fp_nan_cross_thread.risotto")),
];

/// The salts of the generated-program batches, one slice each
/// (`tests/fuzz.rs`, `tests/backends.rs`).
pub const BATCHES: [u64; 2] = [0xD1F, 0xBAC0_0000];

/// Generated programs per batch.
const BATCH: u64 = 40;

/// In a debug build a generated-program slice runs every 19th case of
/// its programs × legs product (each leg on two or three programs of the
/// batch, each program under two or three legs); a release build runs
/// all of it.
const STRIDE: usize = if cfg!(debug_assertions) { 19 } else { 1 };

/// Instructions the interpreter may execute.
const INTERP_FUEL: u64 = 1_000_000_000;

/// Where a program comes from: the twin and per-leg rules hold on some
/// sources only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Kernel { scale: u64 },
    Cas,
    Reproducer,
    Assembled,
    Generated { salt: u64 },
}

/// A single-core program written with the assembler rather than the fuzz
/// lowering: a counted loop, so every chained leg takes a chain and the
/// ladder promotes, then a last block that ends in `hlt` with `CF` and
/// `OF` set where the loop left both clear. Every generated program ends
/// in `mul`/`xor` folds, which clear both, so only this one sees a
/// translation drop the last block's carry or overflow write.
fn flags_at_halt() -> GuestBinary {
    let mut b = GelfBuilder::new("main");
    let a = &mut b.asm;
    a.label("main").mov_ri(Gpr::RCX, 10).mov_ri(Gpr::RAX, 0);
    a.label("loop").alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX).alu_ri(AluOp::Sub, Gpr::RCX, 1);
    a.jcc_to(Cond::Ne, "loop");
    // i64::MAX - u64::MAX borrows (CF) and overflows (OF).
    a.mov_ri(Gpr::RDX, i64::MAX as u64).mov_ri(Gpr::RSI, u64::MAX).cmp_rr(Gpr::RDX, Gpr::RSI);
    a.hlt();
    b.finish().expect("flags_at_halt assembles")
}

/// One program of the table, with the interpreter's run of it.
struct Program {
    source: Source,
    subject: Subject,
    /// The program's [`RISOTTO`] run, made when a slice first needs it.
    reference: OnceLock<Run>,
}

impl Program {
    fn new(source: Source, subject: Result<Subject, String>) -> Program {
        let subject = subject.unwrap_or_else(|e| panic!("{e}"));
        Program { source, subject, reference: OnceLock::new() }
    }

    /// The run of this program under `leg`, through the run check
    /// against the program's [`RISOTTO`] run.
    fn run(&self, leg: Leg) -> Run {
        if leg == RISOTTO {
            return self.reference().clone();
        }
        self.checked(leg, Some(self.reference()))
    }

    fn reference(&self) -> &Run {
        self.reference.get_or_init(|| self.checked(RISOTTO, None))
    }

    fn checked(&self, leg: Leg, reference: Option<&Run>) -> Run {
        let run = run_checked(&self.subject, leg, reference);
        run.unwrap_or_else(|bad| panic!("{} under {leg:?}: {}", self.subject.name, bad.join("; ")))
    }
}

/// The program table, built and interpreted once per test binary; the
/// generated batches apart, so that their slices interpret no kernel.
fn programs(generated: bool) -> &'static [Program] {
    static TABLE: OnceLock<Vec<Program>> = OnceLock::new();
    static GENERATED: OnceLock<Vec<Program>> = OnceLock::new();
    if generated {
        return GENERATED.get_or_init(|| {
            let batch = |salt| (0..BATCH).map(move |i| (salt, program_seed(salt, i)));
            (BATCHES.into_iter().flat_map(batch))
                .map(|(salt, seed)| {
                    let spec = generate(&GenConfig::default(), seed);
                    Program::new(Source::Generated { salt }, Subject::of_spec(&spec))
                })
                .collect()
        });
    }
    TABLE.get_or_init(|| {
        let mut table = Vec::new();
        for scale in [4, 8] {
            for w in kernels::all() {
                let name = format!("{}@{scale}", w.name);
                let subject = Subject::new(name, (w.build)(scale, 2), 2, INTERP_FUEL);
                table.push(Program::new(Source::Kernel { scale }, subject));
            }
        }
        for (threads, vars) in [(1, 1), (4, 2), (4, 4)] {
            let name = format!("cas({threads},{vars})");
            let bin = cas::cas_bench(100, threads, vars);
            let cas = Program::new(Source::Cas, Subject::new(name, bin, threads, INTERP_FUEL));
            let total = Some(100 * threads as u64);
            assert_eq!(cas.subject.exit_vals[0], total, "{}: total", cas.subject.name);
            table.push(cas);
        }
        for (name, text) in REPRODUCERS {
            let spec = parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
            let bin = spec.lower().unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
            let subject = Subject::new(name.to_owned(), bin, spec.cores(), INTERP_FUEL);
            table.push(Program::new(Source::Reproducer, subject));
        }
        let name = "flags_at_halt".to_owned();
        let flags = Program::new(Source::Assembled, Subject::new(name, flags_at_halt(), 1, 1000));
        assert!(flags.subject.flags.cf && flags.subject.flags.of, "flags_at_halt: CF and OF");
        table.push(flags);
        table
    })
}

/// A part of the functional matrix run by one test, in the file named.
/// Legs that carry a per-leg check over the program table (ladder,
/// analysis, chaining off) never split by program, except that each
/// generated batch is a slice of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Native and the chained Arm tier-1 legs, analysis off, kernels
    /// (`end_to_end.rs`).
    Tier1Arm,
    /// The same legs on the CAS grid, the reproducers and the
    /// hand-assembled program (`end_to_end.rs`).
    Tier1ArmCasAndCorpus,
    /// The TSO tier-1 legs, analysis off (`backends.rs`).
    Tier1Tso,
    /// The tier-0-only legs, analysis off (`templates.rs`).
    Tier0,
    /// The ladder legs, analysis off (`templates.rs`).
    Ladder,
    /// Risotto/Arm/tier-1 with chaining off, and its chained twin
    /// (`chaining.rs`).
    Unchained,
    /// The Arm tier-1 analysis-on legs and their twins (`analysis.rs`).
    AnalysisArmTier1,
    /// The Arm tier-0 and ladder analysis-on legs and their twins
    /// (`analysis.rs`).
    AnalysisArmTiered,
    /// The TSO analysis-on legs and their twins (`analysis.rs`).
    AnalysisTso,
    /// Every leg on the generated programs of the batch `salt`
    /// (`fuzz.rs` and `backends.rs`), strided in a debug build.
    Generated { salt: u64 },
}

impl Slice {
    /// The slice that runs `leg` on a program from `source`.
    fn of(leg: Leg, source: Source) -> Slice {
        if let Source::Generated { salt } = source {
            return Slice::Generated { salt };
        }
        if !leg.chaining {
            return Slice::Unchained;
        }
        match (leg.analysis, leg.backend, leg.rung) {
            (true, BackendKind::Arm, Rung::Tier1) => Slice::AnalysisArmTier1,
            (true, BackendKind::Arm, _) => Slice::AnalysisArmTiered,
            (true, BackendKind::Tso, _) => Slice::AnalysisTso,
            (false, _, Rung::Tier0) => Slice::Tier0,
            (false, _, Rung::Ladder) => Slice::Ladder,
            (false, BackendKind::Tso, Rung::Tier1) => Slice::Tier1Tso,
            (false, BackendKind::Arm, Rung::Tier1) => match source {
                Source::Kernel { .. } => Slice::Tier1Arm,
                _ => Slice::Tier1ArmCasAndCorpus,
            },
        }
    }

    /// The leg this slice re-runs next to `leg`: analysis-off twins in an
    /// analysis slice, the chained twin in the chaining slice.
    fn twin(self, leg: Leg) -> Option<Leg> {
        match self {
            Slice::AnalysisArmTier1 | Slice::AnalysisArmTiered | Slice::AnalysisTso => {
                Some(Leg { analysis: false, ..leg })
            }
            Slice::Unchained => Some(Leg { chaining: true, ..leg }),
            _ => None,
        }
    }
}

/// Per-leg checks over the runs of one leg: every ladder leg promotes a
/// block on at least a quarter of the programs; outside the generated
/// batches (where a debug build leaves two or three programs per leg),
/// every tier-1 and ladder analysis leg but no-fences (which has no
/// fence to relax) relaxes one; a chained leg takes a direct-jump exit
/// through a chain on every kernel, CAS-grid, reproducer and
/// hand-assembled program, and
/// on some program of a generated batch (one may enter every block
/// once); chained risotto/Arm/tier-1 resolves at least 90% of its
/// direct-jump exits on the scale-8 kernels through an already-patched
/// chain slot (the rest are the one-time links).
fn check_leg(leg: Leg, programs: &[&Program], runs: &[Run]) {
    let total = |name: &str| runs.iter().map(|r| r.metrics.counter(name)).sum::<u64>();
    if leg.rung == Rung::Ladder {
        let promoted = runs.iter().filter(|r| r.metrics.counter("template.promotions") > 0).count();
        assert!(promoted * 4 >= runs.len(), "{leg:?}: promoted on {promoted}/{}", runs.len());
    }
    let generated = matches!(programs[0].source, Source::Generated { .. });
    if leg.analysis && leg.rung != Rung::Tier0 && leg.setup != Setup::NoFences && !generated {
        assert!(total("analysis.relaxed") > 0, "{leg:?}: no fence relaxed");
    }
    let chained = |r: &Run| r.metrics.counter("chain.hits") + r.metrics.counter("chain.links") > 0;
    if leg.chaining && generated {
        assert!(runs.iter().any(chained), "{leg:?}: no program took a chain");
    } else if let Some((p, _)) =
        programs.iter().zip(runs).find(|(_, r)| leg.chaining && !chained(r))
    {
        panic!("{} under {leg:?}: never took a direct-jump exit", p.subject.name);
    }
    let scale8: Vec<_> = programs
        .iter()
        .zip(runs)
        .filter(|(p, _)| p.source == Source::Kernel { scale: 8 })
        .map(|(_, r)| &r.metrics)
        .collect();
    if leg == RISOTTO && !scale8.is_empty() {
        let hits: u64 = scale8.iter().map(|m| m.counter("chain.hits")).sum();
        let links: u64 = scale8.iter().map(|m| m.counter("chain.links")).sum();
        let rate = hits as f64 / (hits + links) as f64;
        assert!(rate >= 0.90, "chain-hit rate {rate:.3} below 0.90 ({hits} hits / {links} links)");
    }
}

/// The twin rules for analysis-on `on` against analysis-off `off`.
/// Relaxing fences is all analysis does: with none relaxed, the twins
/// translate and execute the same code. On kernels, the CAS grid and
/// the hand-assembled program, relaxing never costs cycles; on the
/// reproducers it can
/// (`spawn_cas_contention` retries more CAS rounds with fewer fences),
/// so their deltas are printed, not asserted. Risotto/Arm/tier-1 must
/// make at least three kernels strictly faster at each scale.
fn check_twins(leg: Leg, programs: &[&Program], on: &[Run], off: &[Run]) {
    let mut faster = [0, 0];
    for ((p, on), off) in programs.iter().zip(on).zip(off) {
        let case = format!("{} under {leg:?}", p.subject.name);
        let (c_on, c_off) = (on.report.cycles, off.report.cycles);
        if on.metrics.counter("analysis.relaxed") == 0 {
            let shape = |r: &Report| (r.cycles, r.code_bytes, r.tb_count);
            assert_eq!(shape(&on.report), shape(&off.report), "{case}: nothing relaxed");
            let translation = |m: &MetricsSnapshot| {
                let mut m = m.metrics.clone();
                m.retain(|n, _| n.starts_with("opt.") || n.starts_with("translate."));
                m
            };
            assert_eq!(
                translation(&on.metrics),
                translation(&off.metrics),
                "{case}: nothing relaxed"
            );
        }
        match p.source {
            Source::Reproducer | Source::Generated { .. } => {
                println!("{case}: analysis moved cycles by {:+}", c_on as i64 - c_off as i64);
            }
            Source::Kernel { .. } | Source::Cas | Source::Assembled => {
                assert!(c_on <= c_off, "{case}: analysis-on regressed cycles ({c_on} > {c_off})");
            }
        }
        if let Source::Kernel { scale } = p.source {
            faster[usize::from(scale == 8)] += usize::from(c_on < c_off);
        }
    }
    if leg == (Leg { analysis: true, ..RISOTTO }) {
        assert!(
            faster.iter().all(|&n| n >= 3),
            "{leg:?}: kernels strictly faster per scale: {faster:?}"
        );
    }
}

/// Every case of `slice`, each through [`run_checked`], then the
/// per-leg checks, and the twin rules where the slice has twins.
pub fn sweep(slice: Slice) {
    let generated = matches!(slice, Slice::Generated { .. });
    let stride = if generated { STRIDE } else { 1 };
    let mut runs = 0;
    for (j, leg) in legs().into_iter().enumerate() {
        let cases: Vec<&Program> = (programs(generated).iter().enumerate())
            .filter(|(i, p)| Slice::of(leg, p.source) == slice && (i + j) % stride == 0)
            .map(|(_, p)| p)
            .collect();
        if cases.is_empty() {
            continue;
        }
        let ran: Vec<Run> = cases.iter().map(|p| p.run(leg)).collect();
        check_leg(leg, &cases, &ran);
        runs += ran.len();
        if let Some(twin) = slice.twin(leg) {
            let twins: Vec<Run> = cases.iter().map(|p| p.run(twin)).collect();
            check_leg(twin, &cases, &twins);
            if leg.analysis {
                check_twins(leg, &cases, &ran, &twins);
            }
        }
    }
    assert!(runs > 0, "{slice:?} holds no case");
}
