//! The functional oracle: every program of one table runs under every
//! leg of [`legs`] and must end exactly as the reference interpreter
//! (`Interp`) ends.
//!
//! The programs: the 16 Fig. 12 kernels at scale 4 (where swaptions
//! relaxes) and at scale 8 (where the chain-hit floor holds), with two
//! threads; the CAS grid at (threads, vars) = (1, 1), (4, 2), (4, 4);
//! and the checked-in fuzz reproducers.
//!
//! Every run (see [`run_checked`]) succeeds; every core that ran exits
//! with the interpreter's exit value for its thread, and core 0 ran; the
//! `WRITE` output and every `.data` word equal the interpreter's; the
//! verifier ran and found nothing; the chain graph is clean; and the
//! leg's own counters hold (templates only on tier-0, none on tier-1,
//! no partial barrier on TSO, chains exactly when chaining is on).
//!
//! A twin is an analysis-on run paired with the analysis-off run of the
//! same program on the otherwise identical leg ([`check_twins`]).

use super::{legs, Leg, Rung, RISOTTO};
use risotto::core::{BackendKind, Emulator, MetricsSnapshot, Report, Setup};
use risotto::fuzz::parse_corpus;
use risotto::guest::{GuestBinary, Interp, SparseMem, DATA_BASE};
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

/// Host steps a run may take.
const FUEL: u64 = 2_000_000_000;

/// Instructions the interpreter may execute.
const INTERP_FUEL: u64 = 1_000_000_000;

/// Where a program comes from: the twin and per-leg rules hold on some
/// sources only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Kernel { scale: u64 },
    Cas,
    Reproducer,
}

/// One program of the table, with the interpreter's run of it.
struct Program {
    name: String,
    source: Source,
    bin: GuestBinary,
    cores: usize,
    interp: Interp,
    data: Vec<u64>,
}

impl Program {
    fn new(name: String, source: Source, bin: GuestBinary, cores: usize) -> Program {
        let mut interp = Interp::new(&bin);
        interp.run(INTERP_FUEL).unwrap_or_else(|e| panic!("{name}: reference interpreter: {e}"));
        let data = data_words(&interp.mem, &bin);
        Program { name, source, bin, cores, interp, data }
    }
}

/// Every `.data` word of `bin` in `mem`.
fn data_words(mem: &SparseMem, bin: &GuestBinary) -> Vec<u64> {
    (0..bin.data.len().div_ceil(8) as u64).map(|i| mem.read_u64(DATA_BASE + 8 * i)).collect()
}

/// The program table, built and interpreted once per test binary.
fn programs() -> &'static [Program] {
    static TABLE: OnceLock<Vec<Program>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::new();
        for scale in [4, 8] {
            for w in kernels::all() {
                let name = format!("{}@{scale}", w.name);
                table.push(Program::new(name, Source::Kernel { scale }, (w.build)(scale, 2), 2));
            }
        }
        for (threads, vars) in [(1, 1), (4, 2), (4, 4)] {
            let name = format!("cas({threads},{vars})");
            let cas = Program::new(name, Source::Cas, cas::cas_bench(100, threads, vars), threads);
            assert_eq!(cas.interp.exit_val(0), 100 * threads as u64, "{}: total", cas.name);
            table.push(cas);
        }
        for (name, text) in REPRODUCERS {
            let spec = parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
            let bin = spec.lower().unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
            table.push(Program::new(name.to_owned(), Source::Reproducer, bin, spec.cores()));
        }
        table
    })
}

/// A part of the functional matrix run by one test, in the file named.
/// Legs that carry a per-leg check over the program table (ladder,
/// analysis, chaining off) never split by program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Native and the chained Arm tier-1 legs, analysis off, kernels
    /// (`end_to_end.rs`).
    Tier1Arm,
    /// The same legs on the CAS grid and the reproducers
    /// (`end_to_end.rs`).
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
}

impl Slice {
    /// The slice that runs `leg` on a program from `source`.
    fn of(leg: Leg, source: Source) -> Slice {
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
                Source::Cas | Source::Reproducer => Slice::Tier1ArmCasAndCorpus,
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

/// A finished run: its result and its metrics.
struct Run {
    report: Report,
    metrics: MetricsSnapshot,
}

/// Runs `p` under `leg` and checks that it ends as the interpreter ends
/// and that the leg's counters hold.
fn run_checked(p: &Program, leg: Leg) -> Run {
    let case = format!("{} under {leg:?}", p.name);
    let mut emu = Emulator::with_config(&p.bin, leg.setup, p.cores, leg.config());
    let report = emu.run(FUEL).unwrap_or_else(|e| panic!("{case}: {e}"));

    assert!(report.exit_vals.first().is_some_and(Option::is_some), "{case}: core 0 never ran");
    for (tid, exit) in report.exit_vals.iter().enumerate() {
        if let Some(exit) = exit {
            assert_eq!(*exit, p.interp.exit_val(tid), "{case}: exit value of thread {tid}");
        }
    }
    assert_eq!(report.output, p.interp.output, "{case}: WRITE output");
    let data = data_words(emu.mem(), &p.bin);
    if let Some(i) = (0..data.len()).find(|&i| data[i] != p.data[i]) {
        panic!("{case}: .data word {i}: {:#x} != interp {:#x}", data[i], p.data[i]);
    }

    let m = emu.metrics();
    assert!(m.counter("verify.checked") > 0, "{case}: the verifier never ran");
    assert_eq!(m.counter("verify.violations"), 0, "{case}: the verifier flagged a translation");
    let bad = emu.validate_chains();
    assert!(bad.is_empty(), "{case}: dangling chain words: {bad:x?}");
    let templates = m.counter("template.blocks");
    match leg.rung {
        Rung::Tier1 => assert_eq!(templates, 0, "{case}: tier-1 run used templates"),
        Rung::Tier0 => {
            assert!(templates > 0, "{case}: no template used");
            assert!(m.counter("template.insns") >= templates, "{case}: stats inconsistent");
            assert_eq!(m.counter("translate.insns"), 0, "{case}: tier-1 translated a block");
            assert_eq!(m.counter("template.promotions"), 0, "{case}: tier-0-only run promoted");
        }
        Rung::Ladder => assert!(templates > 0, "{case}: tier-0 never served a block"),
    }
    // x86 has only MFENCE: the TSO dialect has no partial barrier.
    if leg.backend == BackendKind::Tso {
        assert_eq!(m.counter("fence.exec.dmb_ld"), 0, "{case}: TSO backend executed a DMB LD");
        assert_eq!(m.counter("fence.exec.dmb_st"), 0, "{case}: TSO backend executed a DMB ST");
    }
    let (hits, links) = (m.counter("chain.hits"), m.counter("chain.links"));
    if leg.chaining {
        assert!(hits + links > 0, "{case}: never took a direct-jump exit");
    } else {
        assert_eq!((hits, links), (0, 0), "{case}: chained with chaining off");
    }
    Run { report, metrics: m }
}

/// Per-leg checks over the runs of one leg: every ladder leg promotes a
/// block; every tier-1 and ladder analysis leg but no-fences (which has
/// no fence to relax) relaxes one; chained risotto/Arm/tier-1 resolves at
/// least 90% of its direct-jump exits on the scale-8 kernels through an
/// already-patched chain slot (the rest are the one-time links).
fn check_leg(leg: Leg, programs: &[&Program], runs: &[Run]) {
    let total = |name: &str| runs.iter().map(|r| r.metrics.counter(name)).sum::<u64>();
    if leg.rung == Rung::Ladder {
        assert!(total("template.promotions") > 0, "{leg:?}: no block promoted");
    }
    if leg.analysis && leg.rung != Rung::Tier0 && leg.setup != Setup::NoFences {
        assert!(total("analysis.relaxed") > 0, "{leg:?}: no fence relaxed");
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
/// translate and execute the same code. On kernels and the CAS grid,
/// relaxing never costs cycles; on the reproducers it can
/// (`spawn_cas_contention` retries more CAS rounds with fewer fences),
/// so their deltas are printed, not asserted. Risotto/Arm/tier-1 must
/// make at least three kernels strictly faster at each scale.
fn check_twins(leg: Leg, programs: &[&Program], on: &[Run], off: &[Run]) {
    let mut faster = [0, 0];
    for ((p, on), off) in programs.iter().zip(on).zip(off) {
        let case = format!("{} under {leg:?}", p.name);
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
            Source::Reproducer => {
                println!("{case}: analysis moved cycles by {:+}", c_on as i64 - c_off as i64);
            }
            Source::Kernel { .. } | Source::Cas => {
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
    let mut runs = 0;
    for leg in legs() {
        let cases: Vec<&Program> =
            programs().iter().filter(|p| Slice::of(leg, p.source) == slice).collect();
        if cases.is_empty() {
            continue;
        }
        let ran: Vec<Run> = cases.iter().map(|p| run_checked(p, leg)).collect();
        check_leg(leg, &cases, &ran);
        runs += ran.len();
        if let Some(twin) = slice.twin(leg) {
            let twins: Vec<Run> = cases.iter().map(|p| run_checked(p, twin)).collect();
            check_leg(twin, &cases, &twins);
            if leg.analysis {
                check_twins(leg, &cases, &ran, &twins);
            }
        }
    }
    assert!(runs > 0, "{slice:?} holds no case");
}
