//! The four workloads: which guest programs each one runs, how the
//! emulator is configured for them, and how `--seed` shapes the inputs.
//!
//! The seed feeds only the generators here; the emulator sees nothing
//! but the generated binaries. Sizes are counts, chosen so that one pass
//! takes about one second on the reference container (README.md,
//! "Workloads"); the shapes are fixed.

use std::collections::BTreeSet;

use risotto_core::{BackendKind, Emulator, Setup, SplitMix64, TierConfig, VerifyLevel};
use risotto_fuzz::spec::{CELLS, SLOTS};
use risotto_fuzz::{generate, program_seed, GenConfig};
use risotto_guest_x86::GuestBinary;
use risotto_workloads::{cas, kernels};

/// One of the benchmark's workloads. Names are fixed: later issues cite
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 Fig. 12 kernels at a large scale: machine stepping owns
    /// the pass.
    ExecSteady,
    /// Thousands of loop-free generated programs, each block run about
    /// once, fully verified: the translate path owns the pass.
    TranslateCold,
    /// Generated programs with hot loops on the full tier ladder with
    /// analysis: translate and execute each own about half.
    MixedTiered,
    /// The Fig. 15 CAS contention grid: atomics, fences and up to four
    /// simulated cores competing for the scheduler.
    ContendedSync,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ExecSteady,
        Workload::TranslateCold,
        Workload::MixedTiered,
        Workload::ContendedSync,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecSteady => "exec_steady",
            Workload::TranslateCold => "translate_cold",
            Workload::MixedTiered => "mixed_tiered",
            Workload::ContendedSync => "contended_sync",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload runs tier-1 only — the workloads on which
    /// the replay must reproduce the live run's translation counts
    /// block for block.
    pub fn tier1_only(self) -> bool {
        self != Workload::MixedTiered
    }

    /// Whether the live run verifies at [`VerifyLevel::Full`], i.e.
    /// whether the replayed verify stages are part of what `run` pays.
    pub fn full_verify(self) -> bool {
        matches!(self, Workload::TranslateCold | Workload::MixedTiered)
    }
}

/// One guest program of a workload.
#[derive(Debug, Clone)]
pub struct Program {
    /// Stable name within the workload (`blackscholes`, `gen-17`,
    /// `cas-4-2`), used when a failure or a determinism mismatch is
    /// reported.
    pub name: String,
    /// The binary handed to the emulator and to the reference
    /// interpreter.
    pub bin: GuestBinary,
    /// Simulated cores the program needs.
    pub cores: usize,
    /// Leading `.data` words that are program state and therefore part
    /// of the expected result.
    pub data_words: usize,
}

/// Kernel scale of `exec_steady` (elements per guest thread).
const KERNEL_SCALE: u64 = 6_144;
/// `matrixmultiply` is cubic in its scale.
const MATMUL_SCALE: u64 = 27;
/// Guest threads per kernel.
const KERNEL_THREADS: usize = 2;
/// Programs in `translate_cold`.
const COLD_PROGRAMS: u64 = 2_000;
/// Programs in `mixed_tiered`.
const MIXED_PROGRAMS: u64 = 400;
/// CAS increments per guest thread in `contended_sync`.
const CAS_ITERS: u64 = 10_000;
/// The `(threads, vars)` grid of `contended_sync`: uncontended,
/// pairwise and maximal contention at one, two and four cores.
const CAS_GRID: [(usize, usize); 6] = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)];
/// `--smoke` divides every count by this (same shapes, same paths).
const SMOKE_DIVISOR: u64 = 20;

/// Shaves up to 1/512 off `n`, so that two seeds never run the same
/// input while their totals stay within the `sim_cycles` bound of each
/// other (the kernels and the CAS loop have no other random input).
fn shave(n: u64, rng: &mut SplitMix64) -> u64 {
    n - rng.next_u64() % (n / 512 + 1)
}

/// Builds the programs of `workload` from `seed`. The same seed gives
/// the same programs; `smoke` shrinks every count by [`SMOKE_DIVISOR`].
pub fn build(workload: Workload, seed: u64, smoke: bool) -> Vec<Program> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    let mut rng = SplitMix64::new(seed);
    match workload {
        Workload::ExecSteady => kernels::all()
            .into_iter()
            .map(|k| {
                let full = if k.name == "matrixmultiply" { MATMUL_SCALE } else { KERNEL_SCALE };
                let bin = (k.build)(shave((full / div).max(8), &mut rng), KERNEL_THREADS);
                let data_words = bin.data.len() / 8;
                Program { name: k.name.to_owned(), bin, cores: KERNEL_THREADS, data_words }
            })
            .collect(),
        Workload::TranslateCold => {
            let mut cfg = GenConfig { ensure_hot_loop: false, ..GenConfig::default() };
            cfg.weights.loops = 0;
            generated(&cfg, &mut rng, COLD_PROGRAMS / div)
        }
        Workload::MixedTiered => generated(&GenConfig::default(), &mut rng, MIXED_PROGRAMS / div),
        Workload::ContendedSync => CAS_GRID
            .into_iter()
            .map(|(threads, vars)| {
                let bin = cas::cas_bench(shave(CAS_ITERS / div, &mut rng), threads, vars);
                let data_words = bin.data.len() / 8;
                Program { name: format!("cas-{threads}-{vars}"), bin, cores: threads, data_words }
            })
            .collect(),
    }
}

/// The generated workloads draw their programs from a corpus that does
/// not depend on `--seed`: a fresh draw moves `sim_cycles` by far more
/// than its bound (1.1 % between seeds on `translate_cold`, 14 % on
/// `mixed_tiered`, where two dozen loop nests own half the cycles), so a
/// reseeded corpus could not be compared with anything.
const CORPUS_SEED: u64 = 1;

/// The first `count` programs of the corpus of `cfg`, less the
/// `count / 64` that `rng` makes sit out. Those are drawn from the
/// lighter half of the corpus (by the generator's static step bound),
/// which holds a few percent of the cycles: like [`shave`], two seeds
/// never run the same input, yet their totals stay within the
/// `sim_cycles` bound of each other.
fn generated(cfg: &GenConfig, rng: &mut SplitMix64, count: u64) -> Vec<Program> {
    let specs: Vec<_> = (0..count).map(|i| generate(cfg, program_seed(CORPUS_SEED, i))).collect();
    let mut by_weight: Vec<usize> = (0..specs.len()).collect();
    by_weight.sort_by_key(|&i| (specs[i].max_interp_steps(), i));
    let light = &by_weight[..specs.len() / 2];
    let mut sits_out = BTreeSet::new();
    while sits_out.len() < (specs.len() / 64).max(1) {
        sits_out.insert(light[(rng.next_u64() % light.len() as u64) as usize]);
    }
    specs
        .iter()
        .enumerate()
        .filter(|(i, _)| !sits_out.contains(i))
        .map(|(i, spec)| {
            let bin = spec.lower().expect("the generator only emits specs that lower");
            // Shared cells plus every core's private slots, as
            // `risotto_fuzz::diff` compares them; the lowering's tid
            // scratch behind them is not program state.
            let data_words = CELLS as usize + spec.cores() * SLOTS as usize;
            Program { name: format!("gen-{i}"), bin, cores: spec.cores(), data_words }
        })
        .collect()
}

/// `Emulator::new` with its defaults: `Setup::Risotto`, Arm cost model,
/// tier-1 only, analysis off.
pub fn new_emulator(p: &Program) -> Emulator {
    Emulator::new(&p.bin, Setup::Risotto, p.cores, BackendKind::Arm.cost_model())
}

/// Configures a fresh emulator as the workload table in README.md
/// states it.
pub fn configure(workload: Workload, emu: &mut Emulator) {
    match workload {
        // As `risotto_bench::run_on` pins it: install-time read-back on.
        Workload::ExecSteady | Workload::ContendedSync => emu.set_verify(VerifyLevel::Install),
        Workload::TranslateCold => emu.set_verify(VerifyLevel::Full),
        // The ladder of `BenchCli --tiers 2`, with analysis.
        Workload::MixedTiered => {
            emu.set_verify(VerifyLevel::Full);
            emu.set_tiering(Some(TierConfig { warm_threshold: Some(32), ..TierConfig::default() }));
            emu.set_analysis(true);
        }
    }
}
