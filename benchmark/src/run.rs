//! One workload invocation: set-up, one untimed warm-up pass, the timed
//! passes, and — with `--trace` — one extra traced pass plus the replay.
//! End-to-end metrics come from the untraced passes only.

use std::time::{Duration, Instant};

use crate::calibrate::{CalibratedClock, Calibrator};
use crate::json::Json;
use crate::oracle::{self, Expected};
use crate::pass::{self, PassResult, PassTrace};
use crate::trace::{self, stage, SpanLog};
use crate::workloads::{self, Program, Workload};

/// An end-to-end metric and the rule `compare` judges it by.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the base's median by which it may worsen before that
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; `BENCHMARK.json` states the same directions
/// and bounds.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "guest_mips", unit: "Minsn/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "sim_cycles", unit: "cycles", higher_is_better: false, bound: 0.005 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// The per-layer metrics of the traced run, `(name, unit)`. The prefix
/// is the crate the number belongs to.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("guest_x86.decode_ns_per_insn", "ns/insn"),
    ("guest_x86.interp_mips", "Minsn/s"),
    ("tcg.frontend_ns_per_insn", "ns/insn"),
    ("tcg.frontend_ops_per_insn", "ops/insn"),
    ("tcg.opt_ns_per_insn", "ns/insn"),
    ("tcg.opt_ops_per_insn", "ops/insn"),
    ("tcg.opt_fences_merged", "count"),
    ("tcg.opt_folded", "count"),
    ("tcg.opt_loads_forwarded", "count"),
    ("tcg.opt_dce_removed", "count"),
    ("tcg.verify_ns_per_insn", "ns/insn"),
    ("tcg.superblock_promotions", "count"),
    ("tcg.superblock_fences_merged_cross", "count"),
    ("host_arm.lower_ns_per_insn", "ns/insn"),
    ("host_arm.host_insns_per_guest_insn", "insn/insn"),
    ("host_arm.regalloc_spills", "count"),
    ("host_arm.regalloc_env_loads_eliminated", "count"),
    ("host_arm.verify_encoding_ns_per_insn", "ns/insn"),
    ("host_arm.install_ns_per_block", "ns/block"),
    ("host_arm.code_bytes_per_guest_insn", "B/insn"),
    ("host_arm.machine_step_ns.alu", "ns/step"),
    ("host_arm.machine_step_ns.mem", "ns/step"),
    ("host_arm.machine_step_ns.fence", "ns/step"),
    ("host_arm.machine_step_ns.rmw", "ns/step"),
    ("host_arm.machine_step_ns.alu_cores4", "ns/step"),
    ("host_arm.dyn_host_insns_per_guest_insn", "insn/insn"),
    ("host_arm.sim_cycles_per_guest_insn", "cycles/insn"),
    ("host_arm.fence_cycle_share", "ratio"),
    ("host_arm.chain_hit_rate", "ratio"),
    ("host_arm.jcache_hit_rate", "ratio"),
    ("host_tso.lower_ns_per_insn", "ns/insn"),
    ("template.translate_ns_per_insn", "ns/insn"),
    ("template.host_insns_per_guest_insn", "insn/insn"),
    ("template.blocks", "count"),
    ("template.promotions", "count"),
    ("analysis.analyze_us_per_image", "us/image"),
    ("analysis.relaxed_fences", "count"),
    ("analysis.poisoned_images", "count"),
    ("core.emu_new_us_per_program", "us/program"),
    ("core.run_s", "s"),
    ("core.translate_replay_s", "s"),
    ("core.execute_dispatch_s", "s"),
    ("core.translate_share", "ratio"),
    ("core.execute_ns_per_host_insn", "ns/insn"),
    ("core.ir_overhead_ratio", "ratio"),
    ("core.tb_translations", "count"),
    ("core.retranslations", "count"),
    ("core.fallback_blocks", "count"),
    ("core.syscalls", "count"),
    ("core.chain_links", "count"),
    ("core.jcache_misses", "count"),
    ("core.code_bytes", "B"),
    ("core.host_insns", "count"),
    ("core.trace_overhead", "ratio"),
];

/// Timed passes are never fewer than this, whatever `--seconds` says.
const MIN_TIMED_PASSES: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Simulated host instructions per synthetic machine loop.
const MACHINE_LOOP_STEPS: u64 = 2_000_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Generator seed (1 by default; 2 is the held-out seed).
    pub seed: u64,
    /// Timed passes repeat until they have covered this much wall time.
    pub seconds: f64,
    /// Run the traced pass and the replay, and report the per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Shrink every count (same code paths, seconds instead of minutes).
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in [`END_TO_END`] / [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit, as in [`END_TO_END`] / [`PER_LAYER`].
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted: programs × timed passes.
    pub attempted: u64,
    /// Operations whose result differed from the reference interpreter.
    pub failed: u64,
    /// The first few failures, for the console.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// `guest_mips` of each timed pass, in order.
    pub guest_mips_samples: Vec<f64>,
    /// Median over the timed passes of guest instructions per *wall*
    /// second, before calibration — what this host did right now.
    pub guest_mips_wall: f64,
    /// Spans of the traced pass and the replay.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.failed == 0)),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }

    /// One line of a result file: the result object plus what `compare`
    /// groups by.
    pub fn ledger_json(&self) -> Json {
        let Json::Obj(mut members) = self.result_json() else { unreachable!() };
        members.insert(0, ("trace".to_owned(), Json::Bool(self.trace)));
        members.insert(0, ("seed".to_owned(), Json::Num(self.seed as f64)));
        members.insert(0, ("workload".to_owned(), Json::Str(self.workload.to_owned())));
        Json::Obj(members)
    }
}

/// A workload's inputs and what building them cost.
struct SetUp {
    programs: Vec<Program>,
    expected: Vec<Expected>,
    /// Generation, then the reference run of each program, in calibrated
    /// seconds.
    calibrated: Vec<f64>,
    /// The reference interpreter alone, wall time.
    interp: Duration,
    /// Σ nominal guest instructions of the programs.
    guest_insns: u64,
}

/// Generation plus the reference interpreter: everything that happens
/// before the warm-up pass.
fn set_up(o: &Options, calibrator: &mut Calibrator) -> Result<SetUp, String> {
    let mut clock = CalibratedClock::start(calibrator);
    let t0 = Instant::now();
    let programs = workloads::build(o.workload, o.seed, o.smoke);
    clock.add(t0.elapsed());
    let mut expected = Vec::with_capacity(programs.len());
    let mut interp = Duration::ZERO;
    for p in &programs {
        let t = Instant::now();
        expected.push(oracle::reference(p)?);
        let took = t.elapsed();
        interp += took;
        clock.add(took);
    }
    let guest_insns = expected.iter().map(|e| e.guest_insns).sum();
    Ok(SetUp { programs, expected, calibrated: clock.finish(), interp, guest_insns })
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The time of one repetition with the host's hiccups taken out: every
/// part (a program's run, a program's reference run) is timed once per
/// repetition, and the parts' medians are summed. A slow burst of the
/// host spoils the parts it falls on in one repetition; the median of a
/// part over the repetitions shrugs that off, where the median of whole
/// repetitions is spoilt by a burst anywhere in them.
pub fn sum_of_medians(repetitions: &[&[f64]]) -> f64 {
    let parts = repetitions.first().map_or(0, |r| r.len());
    (0..parts).map(|i| median(&repetitions.iter().map(|r| r[i]).collect::<Vec<_>>())).sum()
}

/// `a / b`, and 0 when there was nothing to divide by (a layer the
/// workload does not use).
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Runs one invocation.
///
/// # Errors
///
/// A broken workload or a violated self-check (determinism, replay
/// parity). A failed operation is not an error: it is counted.
pub fn run_workload(o: &Options) -> Result<Outcome, String> {
    let mut calibrator = Calibrator::new();
    let mut setup = set_up(o, &mut calibrator)?;
    let mut setups = vec![std::mem::take(&mut setup.calibrated)];
    // The traced run reports no `setup_s`; one set-up is enough for it.
    for _ in 1..if o.trace { 1 } else { SETUPS } {
        setup = set_up(o, &mut calibrator)?;
        setups.push(std::mem::take(&mut setup.calibrated));
    }
    let (programs, expected, guest_insns) = (&setup.programs, &setup.expected, setup.guest_insns);

    let warm_up = pass::run_pass(o.workload, programs, expected, &mut calibrator, None);
    let mut timed: Vec<PassResult> = Vec::new();
    let mut covered = Duration::ZERO;
    // The traced run needs the untraced median only as the base of
    // `core.trace_overhead`.
    let seconds = if o.trace { 0.0 } else { o.seconds };
    while timed.len() < MIN_TIMED_PASSES || covered.as_secs_f64() < seconds {
        let p = pass::run_pass(o.workload, programs, expected, &mut calibrator, None);
        pass::check_deterministic(
            programs,
            &warm_up,
            &p,
            &format!("timed pass {}", timed.len() + 1),
        )?;
        covered += p.wall;
        timed.push(p);
    }

    let mips = |seconds: f64| guest_insns as f64 / 1e6 / seconds;
    let guest_mips_samples: Vec<f64> =
        timed.iter().map(|p| mips(p.calibrated.iter().sum())).collect();
    let guest_mips_wall =
        median(&timed.iter().map(|p| mips(p.wall.as_secs_f64())).collect::<Vec<_>>());
    let pass_s = sum_of_medians(&timed.iter().map(|p| p.calibrated.as_slice()).collect::<Vec<_>>());
    let failures: Vec<String> = timed.iter().flat_map(|p| p.failures.iter().cloned()).collect();
    let mut outcome = Outcome {
        workload: o.workload.name(),
        seed: o.seed,
        trace: o.trace,
        attempted: (programs.len() * timed.len()) as u64,
        failed: failures.len() as u64,
        failures: failures.into_iter().take(5).collect(),
        metrics: Vec::new(),
        guest_mips_samples,
        guest_mips_wall,
        spans: None,
    };

    if !o.trace {
        let values = [
            mips(pass_s),
            warm_up.total.get("sim_cycles") as f64,
            peak_rss_mb()?,
            sum_of_medians(&setups.iter().map(Vec::as_slice).collect::<Vec<_>>()),
        ];
        outcome.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric { name: m.name, value, unit: m.unit })
            .collect();
        return Ok(outcome);
    }

    let (metrics, spans) = per_layer_metrics(o, &setup, &warm_up, pass_s, &mut calibrator)?;
    outcome.metrics = metrics;
    outcome.spans = Some(spans);
    Ok(outcome)
}

/// The traced run's extra pass, the replay and the machine loops, and
/// every per-layer metric computed from them.
fn per_layer_metrics(
    o: &Options,
    setup: &SetUp,
    warm_up: &PassResult,
    pass_s: f64,
    calibrator: &mut Calibrator,
) -> Result<(Vec<Metric>, SpanLog), String> {
    let SetUp { programs, expected, interp, .. } = setup;
    let guest_insns = setup.guest_insns as f64;
    let mut tr = PassTrace { spans: SpanLog::new(), decoded: Vec::new() };
    let traced = pass::run_pass(o.workload, programs, expected, calibrator, Some(&mut tr));
    pass::check_deterministic(programs, warm_up, &traced, "the traced pass")?;
    let PassTrace { mut spans, decoded } = tr;
    let replayed = trace::replay(o.workload, programs, &decoded, &mut spans)?;
    let live = &traced.total;
    let poisoned_images =
        traced.per_program.iter().filter(|c| c.get("analysis.poisons") > 0).count();

    // Replay parity: the layer table must be timing the work the engine
    // did. Tier-1 instructions match on every workload, blocks where
    // nothing but tier-1 installs code, template counts where the
    // template tier ran.
    let mut parity = vec![("translate.insns", replayed.insns)];
    if o.workload.tier1_only() {
        parity.push(("translate.blocks", replayed.blocks));
    } else {
        parity.push(("template.blocks", replayed.template_blocks));
        parity.push(("template.insns", replayed.template_insns));
    }
    for (name, got) in parity {
        if got != live.get(name) {
            return Err(format!(
                "replay parity check failed: replayed {got} but the live run's `{name}` is {}",
                live.get(name)
            ));
        }
    }

    let ns = |name: &str| spans.total_ns(name) as f64;
    let insns = replayed.insns as f64;
    let blocks = replayed.blocks as f64;
    let template_insns = replayed.template_insns as f64;
    let tier0 = live.get("template.blocks") > 0;
    let tier1_translate_ns = ns(stage::FRONTEND) + ns(stage::OPT) + ns(stage::LOWER_ARM);
    // What `run` pays per translated block under this workload's
    // configuration: the three translate stages, the engine's second
    // decode walk (it counts `translate.insns` that way), the install,
    // the verifier where it is at `Full`, the templates where tier 0
    // runs.
    let mut replay_ns = tier1_translate_ns + ns(stage::DECODE) + ns(stage::INSTALL);
    if o.workload.full_verify() {
        replay_ns += ns(stage::VERIFY) + ns(stage::VERIFY_ENCODING);
    }
    if tier0 {
        replay_ns += ns(stage::TEMPLATE);
    }
    let run_ns = ns("core.run");
    let execute_ns = run_ns - replay_ns;
    let host_insns = live.get("exec.insns") as f64;
    let cycles = live.get("sim_cycles") as f64;
    let chain_total = (live.get("chain.hits") + live.get("chain.links")) as f64;
    let jcache_total = (live.get("jcache.hits") + live.get("jcache.misses")) as f64;
    let steps = if o.smoke { MACHINE_LOOP_STEPS / 20 } else { MACHINE_LOOP_STEPS };

    let mut values: Vec<(&str, f64)> = vec![
        ("guest_x86.decode_ns_per_insn", per(ns(stage::DECODE), insns)),
        ("guest_x86.interp_mips", per(guest_insns / 1e6, interp.as_secs_f64())),
        ("tcg.frontend_ns_per_insn", per(ns(stage::FRONTEND), insns)),
        ("tcg.frontend_ops_per_insn", per(replayed.frontend_ops as f64, insns)),
        ("tcg.opt_ns_per_insn", per(ns(stage::OPT), insns)),
        ("tcg.opt_ops_per_insn", per(replayed.opt_ops as f64, insns)),
        ("tcg.opt_fences_merged", replayed.opt.fences_merged as f64),
        ("tcg.opt_folded", replayed.opt.folded as f64),
        ("tcg.opt_loads_forwarded", replayed.opt.loads_forwarded as f64),
        ("tcg.opt_dce_removed", replayed.opt.dce_removed as f64),
        ("tcg.verify_ns_per_insn", per(ns(stage::VERIFY), insns)),
        ("tcg.superblock_promotions", live.get("sb.promotions") as f64),
        ("tcg.superblock_fences_merged_cross", live.get("sb.fences_merged_cross") as f64),
        ("host_arm.lower_ns_per_insn", per(ns(stage::LOWER_ARM), insns)),
        ("host_arm.host_insns_per_guest_insn", per(replayed.host_insns as f64, insns)),
        ("host_arm.regalloc_spills", replayed.spills as f64),
        ("host_arm.regalloc_env_loads_eliminated", replayed.env_loads_eliminated as f64),
        ("host_arm.verify_encoding_ns_per_insn", per(ns(stage::VERIFY_ENCODING), insns)),
        ("host_arm.install_ns_per_block", per(ns(stage::INSTALL), blocks)),
        ("host_arm.code_bytes_per_guest_insn", per(replayed.code_bytes as f64, insns)),
        ("host_arm.dyn_host_insns_per_guest_insn", per(host_insns, guest_insns)),
        ("host_arm.sim_cycles_per_guest_insn", per(cycles, guest_insns)),
        ("host_arm.fence_cycle_share", per(live.get("fence.exec.cycles") as f64, cycles)),
        ("host_arm.chain_hit_rate", per(live.get("chain.hits") as f64, chain_total)),
        ("host_arm.jcache_hit_rate", per(live.get("jcache.hits") as f64, jcache_total)),
        ("host_tso.lower_ns_per_insn", per(ns(stage::LOWER_TSO), insns)),
        ("template.translate_ns_per_insn", per(ns(stage::TEMPLATE), template_insns)),
        (
            "template.host_insns_per_guest_insn",
            per(replayed.template_host_insns as f64, template_insns),
        ),
        ("template.blocks", live.get("template.blocks") as f64),
        ("template.promotions", live.get("template.promotions") as f64),
        ("analysis.analyze_us_per_image", per(ns(stage::ANALYZE) / 1e3, replayed.images as f64)),
        ("analysis.relaxed_fences", live.get("analysis.relaxed") as f64),
        ("analysis.poisoned_images", poisoned_images as f64),
        ("core.emu_new_us_per_program", per(ns("core.emu_new") / 1e3, programs.len() as f64)),
        ("core.run_s", run_ns / 1e9),
        ("core.translate_replay_s", replay_ns / 1e9),
        ("core.execute_dispatch_s", execute_ns / 1e9),
        ("core.translate_share", per(replay_ns, traced.wall.as_nanos() as f64)),
        ("core.execute_ns_per_host_insn", per(execute_ns, host_insns)),
        (
            "core.ir_overhead_ratio",
            per(per(tier1_translate_ns, insns), per(ns(stage::TEMPLATE), template_insns)),
        ),
        ("core.tb_translations", live.get("tb_count") as f64),
        ("core.retranslations", live.get("translate.retranslations") as f64),
        ("core.fallback_blocks", live.get("translate.fallback_blocks") as f64),
        ("core.syscalls", live.get("engine.syscalls") as f64),
        ("core.chain_links", live.get("chain.links") as f64),
        ("core.jcache_misses", live.get("jcache.misses") as f64),
        ("core.code_bytes", live.get("code_bytes") as f64),
        ("core.host_insns", host_insns),
        ("core.trace_overhead", traced.calibrated.iter().sum::<f64>() / pass_s - 1.0),
    ];
    values.extend(trace::machine_step_ns(steps));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            Metric { name, value: value.expect("every per-layer metric is computed"), unit }
        })
        .collect();
    Ok((metrics, spans))
}
