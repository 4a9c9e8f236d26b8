//! The kernel suite behind `BENCH_pipeline.json`: the 16 Fig. 12 kernels
//! under the risotto setup, once per `legs()` entry, reported in simulated
//! cycles and deterministic counters only — the artifact is a pure
//! function of the source tree, which is what lets `ci.sh` use the
//! checked-in copy as its own baseline.

use risotto_core::obs::MetricsSnapshot;
use risotto_core::{BackendKind, EmuConfig, Emulator, Report, Setup};
use risotto_workloads::kernels;

/// Kernel scale in smoke (CI) mode. `ci.sh` names the kernels whose
/// analysis leg relaxes fences at this scale, so changing it moves that
/// gate too.
const SMOKE_SCALE: u64 = 16;

/// One configuration each kernel runs under.
struct Leg {
    /// Name in panic messages.
    name: &'static str,
    config: EmuConfig,
}

/// The legs, base run first: every later leg must reproduce the base
/// run's exit values and output bit for bit — only cycles and counters
/// may move. The base run keeps every observability feature off, so its
/// numbers equal an uninstrumented build's.
fn legs() -> [Leg; 4] {
    let base = EmuConfig::default();
    [
        Leg { name: "tier-1", config: base.clone() },
        // The x86-TSO host backend: most TCG fences are no-ops under TSO,
        // only W→R orderings cost an MFENCE, which executes as a full
        // barrier (`fence.exec.dmb_ff`). Cycles are priced by its own cost
        // model.
        Leg { name: "tso", config: EmuConfig { backend: BackendKind::Tso, ..base.clone() } },
        // Whole-program fence relaxation (docs/ANALYSIS.md).
        Leg { name: "analysis", config: EmuConfig { analysis: true, ..base.clone() } },
        // Cold start: every block pinned to the template translator.
        Leg { name: "tier-0", config: EmuConfig { warm_threshold: crate::TEMPLATES_ONLY, ..base } },
    ]
}

/// Runs the suite (`smoke` shrinks the scale for CI), prints one line per
/// kernel, and returns the `BENCH_pipeline.json` text.
///
/// # Panics
///
/// Panics on any emulation error, if a leg's results differ from the
/// base run's, if the analysis leg's cycles differ from the base run's
/// without a relaxed fence or do not fall with one, or if the tier-0 leg
/// translated anything through the IR pipeline.
pub fn pipeline_json(smoke: bool) -> String {
    let (scale, threads) = if smoke { (SMOKE_SCALE, 2) } else { (64, 2) };
    let mode = if smoke { "smoke" } else { "full" };
    println!("kernel suite ({mode}, scale {scale}, {threads} threads):");
    let mut entries = Vec::new();
    let legs = legs();
    for w in kernels::all() {
        let bin = (w.build)(scale, threads);
        let runs: Vec<(Report, MetricsSnapshot)> = legs
            .iter()
            .map(|leg| {
                let mut emu =
                    Emulator::with_config(&bin, Setup::Risotto, threads, leg.config.clone());
                let r = emu
                    .run(crate::FUEL)
                    .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, leg.name));
                (r, emu.metrics())
            })
            .collect();
        let (r, base) = &runs[0];
        for (leg, (other, _)) in legs.iter().zip(&runs).skip(1) {
            assert_eq!(other.exit_vals, r.exit_vals, "{} ({}): exit values", w.name, leg.name);
            assert_eq!(other.output, r.output, "{} ({}): output", w.name, leg.name);
        }
        let [_, (rt, tso), (ra, an), (r0, t0)] = &runs[..] else { unreachable!("one run per leg") };
        // Analysis only removes fences: a leg that relaxed none runs in
        // exactly the base cycles, one that relaxed some in fewer. The
        // second half holds on these kernels, not on every program: on
        // the fuzz reproducer `spawn_cas_contention`, 31 relaxed fences
        // save 1 138 fence cycles, but 13 more CAS retries end the run
        // 458 cycles later.
        let relaxed = an.counter("analysis.relaxed");
        assert!(
            if relaxed == 0 { ra.cycles == r.cycles } else { ra.cycles < r.cycles },
            "{}: analysis leg ran {} cycles against {} with {relaxed} fences relaxed",
            w.name,
            ra.cycles,
            r.cycles
        );
        assert!(t0.counter("template.blocks") > 0, "{}: tier-0 leg translated nothing", w.name);
        assert_eq!(t0.counter("translate.insns"), 0, "{}: tier-1 ran in the tier-0 leg", w.name);

        println!(
            "{:16} {:>10} cycles   chain {:>5.1}%   an {:+6} cy ({} relax)   tso {:>10} cy ({} mfence)   t0 {:>10} cy",
            w.name,
            r.cycles,
            100.0 * crate::chain_hit_ratio(base),
            r.cycles as i64 - ra.cycles as i64,
            relaxed,
            rt.cycles,
            tso.counter("fence.exec.dmb_ff"),
            r0.cycles,
        );
        entries.push(format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"cycles\": {}, \"chain_hit_rate\": {:.4}, ",
                "\"chain_hits\": {}, \"chain_links\": {}, \"dispatch_hits\": {}, ",
                "\"dispatch_misses\": {},\n     ",
                "\"tso\": {{\"cycles\": {}, \"mfences\": {}, \"arm_dmb_ff\": {}, ",
                "\"cycle_delta_vs_arm\": {}}},\n     ",
                "\"analysis\": {{\"cycles\": {}, \"cycle_delta_vs_off\": {}, ",
                "\"relaxed\": {}, \"relaxable\": {}, \"sites\": {}, ",
                "\"private\": {}, \"poisons\": {}}},\n     ",
                "\"tier0\": {{\"cycles\": {}, \"blocks\": {}, \"insns\": {}}},\n     ",
                "\"metrics\": {}}}"
            ),
            w.name,
            r.cycles,
            crate::chain_hit_ratio(base),
            base.counter("chain.hits"),
            base.counter("chain.links"),
            base.counter("jcache.hits"),
            base.counter("jcache.misses"),
            rt.cycles,
            tso.counter("fence.exec.dmb_ff"),
            base.counter("fence.exec.dmb_ff"),
            r.cycles as i64 - rt.cycles as i64,
            ra.cycles,
            r.cycles as i64 - ra.cycles as i64,
            relaxed,
            an.counter("analysis.relaxable"),
            an.counter("analysis.sites"),
            an.counter("analysis.private"),
            an.counter("analysis.poisons"),
            r0.cycles,
            t0.counter("template.blocks"),
            t0.counter("template.insns"),
            base.to_json()
        ));
    }
    format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"scale\": {scale},\n  \"threads\": {threads},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}
