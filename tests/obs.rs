//! Acceptance tests for the observability layer (metrics snapshot,
//! trace sinks, hot-TB profile):
//!
//! * a snapshot's rows add up across the full 16-kernel Fig. 12 suite on
//!   both backends: machine-wide rows against per-core ones, `Report`'s
//!   cycles against the clock, per-kind fence merges against the total;
//! * a fully instrumented run (trace sink + hot-TB profiling) is the
//!   default run: same architectural results, simulated cycles and
//!   metrics snapshot, as a whole — observability is passive, and on the
//!   tier ladder it moves no promotion — and the trace of a run is the
//!   same trace every time;
//! * `RingBufferSink` is bounded and overwrites oldest-first;
//! * `docs/METRICS.md` documents 100% of the metric schema, and every
//!   metric a real run emits maps back into that schema;
//! * each tier leg's counters show the blocks that went through it;
//! * `hot_tbs` is empty unless profiling was asked for, tiering or not,
//!   and merges its two sources per block in a deterministic order.

use std::cell::RefCell;
use std::rc::Rc;

use risotto::core::obs::{doc_name, specs};
use risotto::core::{
    BackendKind, EmuConfig, Emulator, FaultPlan, RingBufferSink, Setup, TraceEvent, TraceSink,
    TraceStage, VerifyLevel,
};
use risotto::guest::{AluOp, Cond, GelfBuilder, Gpr, GuestBinary};
use risotto::memmodel::FenceKind;
use risotto::workloads::kernels;
use risotto_bench::TEMPLATES_ONLY;

const FUEL: u64 = 400_000_000;

/// The default configuration with the hot-TB profiler on.
fn profiled() -> EmuConfig {
    EmuConfig { profiling: true, ..EmuConfig::default() }
}

/// Keeps every event, in order, in a list the test keeps a handle to
/// (the engine owns the installed sink, so inspection goes through `Rc`).
struct VecSink(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// A snapshot's rows add up: the machine-wide rows are the per-core ones
/// summed (instructions) or maxed (cycles, which is also `Report`'s
/// figure), and the per-kind fence merges decompose the aggregate —
/// on every kernel, on both backends. The hot-TB profile covers real
/// blocks, hottest first.
#[test]
fn counters_conserve_on_all_kernels_and_both_backends() {
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        for backend in BackendKind::ALL {
            let leg = format!("{} ({})", w.name, backend.name());
            let config = EmuConfig { backend, ..profiled() };
            let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, config);
            let r = emu.run(FUEL).unwrap_or_else(|e| panic!("{leg}: {e}"));
            let snap = emu.metrics();

            assert_eq!(snap.gauge("exec.cores"), 2, "{leg}: exec.cores gauge");
            let per_core = |row: &str| -> Vec<u64> {
                (0..2)
                    .map(|c| {
                        let name = format!("core.{c}.{row}");
                        assert!(snap.metrics.contains_key(&name), "{leg}: {name} missing");
                        snap.gauge(&name)
                    })
                    .collect()
            };
            let insns = per_core("insns");
            assert_eq!(snap.counter("exec.insns"), insns.iter().sum(), "{leg}: {insns:?}");
            let cycles = per_core("cycles");
            assert_eq!(snap.gauge("exec.cycles"), *cycles.iter().max().unwrap(), "{leg}");
            assert_eq!(snap.gauge("exec.cycles"), r.cycles, "{leg}: Report.cycles");

            let merged_by_kind: u64 = FenceKind::TCG_ALL
                .iter()
                .map(|k| snap.counter(&format!("fence.merged.{}", k.tcg_name().unwrap())))
                .sum();
            assert_eq!(
                merged_by_kind,
                snap.counter("opt.fences_merged"),
                "{leg}: per-kind fence merges don't sum to opt.fences_merged"
            );

            let hot = emu.hot_tbs(8);
            assert!(!hot.is_empty(), "{leg}: no hot TBs recorded");
            assert!(hot.windows(2).all(|p| p[0].execs >= p[1].execs), "{leg}: not sorted");
            assert!(hot.iter().all(|t| t.execs > 0), "{leg}: zero-exec TB in profile");
        }
    }
}

/// Observability is passive on every tier, and what it records is a
/// function of the program: a run with a trace sink and the hot-TB
/// profiler on is the default run, on tier-1 alone and on the tier
/// ladder at two warm thresholds — same cycles, exit values and output,
/// the same metrics snapshot as a whole (so on the ladder the same
/// promotions and translations, since nothing the profiler counts
/// decides a promotion) — and two traced runs record the same events.
#[test]
fn instrumented_run_is_bit_identical_to_default_run() {
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        for warm_threshold in [None, Some(4), Some(32)] {
            let leg = format!("{} ({warm_threshold:?})", w.name);
            let plain = EmuConfig { warm_threshold, ..EmuConfig::default() };
            let mut plain = Emulator::with_config(&bin, Setup::Risotto, 2, plain);
            let rp = plain.run(FUEL).unwrap_or_else(|e| panic!("{leg} plain: {e}"));
            let plain_snap = plain.metrics();

            let traced_run = || {
                let events = Rc::new(RefCell::new(Vec::new()));
                let traced = EmuConfig { warm_threshold, ..profiled() };
                let mut traced = Emulator::with_config(&bin, Setup::Risotto, 2, traced);
                traced.set_trace_sink(Box::new(VecSink(Rc::clone(&events))));
                let rt = traced.run(FUEL).unwrap_or_else(|e| panic!("{leg} traced: {e}"));
                (rt, traced.metrics(), events.take())
            };
            let (rt, traced_snap, events) = traced_run();

            assert_eq!(rp.cycles, rt.cycles, "{leg}: observing changed simulated cycles");
            assert_eq!(rp.exit_vals, rt.exit_vals, "{leg}: observing changed exit values");
            assert_eq!(rp.output, rt.output, "{leg}: observing changed guest output");
            // Every counter and gauge, `template.promotions` and
            // `translate.blocks` among them.
            assert_eq!(plain_snap, traced_snap, "{leg}: observing changed the metrics");

            assert!(
                events.iter().any(|e| e.stage == TraceStage::Dispatch),
                "{leg}: no dispatch events"
            );
            assert!(
                events.iter().any(|e| e.stage == TraceStage::Decode),
                "{leg}: no decode events"
            );
            assert!(events.iter().map(|e| e.seq).eq(0..events.len() as u64), "{leg}: event seqs");
            assert_eq!(events, traced_run().2, "{leg}: two traced runs recorded different events");
        }
    }
}

#[test]
fn ring_buffer_sink_is_bounded_and_overwrites_oldest() {
    let mut ring = RingBufferSink::new(4);
    assert_eq!(ring.capacity(), 4);
    assert!(ring.is_empty());
    for seq in 0..10u64 {
        ring.record(&TraceEvent {
            seq,
            stage: TraceStage::Dispatch,
            core: Some(0),
            guest_pc: Some(0x1000 + seq),
            tb_id: None,
            detail: String::new(),
        });
    }
    assert_eq!(ring.len(), 4, "ring grew past its capacity");
    assert_eq!(ring.overwritten(), 6);
    let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9], "ring must retain the newest events, oldest first");

    // Capacity 0 is clamped to 1 rather than buffering nothing.
    let zero = RingBufferSink::new(0);
    assert_eq!(zero.capacity(), 1);
}

#[test]
fn metrics_md_documents_the_entire_schema() {
    let doc = include_str!("../docs/METRICS.md");
    for s in specs() {
        assert!(
            doc.contains(&format!("`{}`", s.name)),
            "docs/METRICS.md is missing metric `{}` — document it (name, type, unit, source)",
            s.name
        );
    }

    // And the schema is closed: everything a real run emits normalizes
    // back to a documented spec name.
    let documented: Vec<String> = specs().into_iter().map(|s| s.name).collect();
    let bin = (kernels::all()[0].build)(8, 2);
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, profiled());
    emu.run(FUEL).expect("kernel runs");
    for name in emu.metrics().metrics.keys() {
        let doc_name = doc_name(name);
        assert!(
            documented.contains(&doc_name),
            "run emitted `{name}` (documented form `{doc_name}`) which is not in the schema"
        );
    }
}

/// The warm threshold of the tier ladder the tiered tests below run
/// `kmeans` under: low enough that templates promote.
const LADDER: Option<u64> = Some(4);

/// A kernel that promotes templates under [`LADDER`].
fn kmeans() -> GuestBinary {
    let kernel = kernels::all().into_iter().find(|w| w.name == "kmeans").expect("kmeans exists");
    (kernel.build)(16, 2)
}

/// What a tier wired to the wrong counter would break: with no fault
/// plan, each leg moves exactly the counters of the producers it runs,
/// every install on the ladder is a template or a promotion, and two
/// snapshots of one state are equal.
#[test]
fn tier_legs_reconcile_with_the_counters() {
    let bin = kmeans();
    for (leg, warm_threshold) in
        [("tier-1", None), ("templates", TEMPLATES_ONLY), ("ladder", LADDER)]
    {
        let config = EmuConfig { warm_threshold, ..EmuConfig::default() };
        let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, config);
        emu.run(FUEL).unwrap_or_else(|e| panic!("{leg}: {e}"));
        let snap = emu.metrics();
        assert_eq!(snap, emu.metrics(), "{leg}: two snapshots of the same state differ");
        let tier1 = snap.counter("translate.insns");
        let (templates, promoted) =
            (snap.counter("template.blocks"), snap.counter("template.promotions"));
        if warm_threshold.is_some() {
            assert_eq!(snap.counter("translate.blocks"), templates + promoted, "{leg}: {snap:?}");
        }
        // Each leg exercises the rows it is there for.
        match leg {
            "tier-1" => assert!(tier1 > 0 && templates == 0 && promoted == 0, "{snap:?}"),
            "templates" => assert!(tier1 == 0 && templates > 0 && promoted == 0, "{snap:?}"),
            _ => assert!(tier1 > 0 && templates > 0 && promoted > 0, "{snap:?}"),
        }
    }
}

/// `hot_tbs` is the observational profile and nothing else: the tier
/// ladder turns the machine-side profile on for its promoter, which must
/// not leak out as half a profile (transfers without dispatch-loop
/// entries).
#[test]
fn hot_tbs_is_empty_unless_profiling_was_asked_for() {
    let bin = kmeans();
    let run = |profiling: bool| {
        let config = EmuConfig { warm_threshold: LADDER, profiling, ..EmuConfig::default() };
        let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, config);
        emu.run(FUEL).expect("kmeans runs");
        let promotions = emu.metrics().counter("template.promotions");
        assert!(promotions > 0, "the promoter's profile was live");
        emu.hot_tbs(4)
    };
    assert!(run(false).is_empty(), "tiering alone must not surface a profile");
    // With profiling on: the run's hottest blocks, `(tb_id, guest_pc,
    // execs, chain_misses)`, hottest first — transfers and dispatch-loop
    // entries together.
    let hot: Vec<_> =
        run(true).iter().map(|t| (t.tb_id, t.guest_pc, t.execs, t.chain_misses)).collect();
    assert_eq!(
        hot,
        [(5, 0x1010d, 32, 5), (11, 0x100cd, 30, 7), (7, 0x10135, 28, 4), (10, 0x10192, 22, 6)],
        "{hot:#x?}"
    );
}

/// `hot_tbs` merges the engine's dispatch-loop entries into the
/// machine's transfer profile per guest pc, and orders blocks that ran
/// equally often by guest pc, so the report does not depend on hash-map
/// iteration order: `main` and `exit` run once each, `body` and `tail`
/// 300 times each.
#[test]
fn hot_tbs_merge_both_sources_and_break_ties_by_pc() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 300);
    b.asm.jmp_to("body");
    b.asm.label("body");
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
    b.asm.jmp_to("tail");
    b.asm.label("tail");
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "body");
    b.asm.label("exit");
    b.asm.hlt();
    let bin = b.finish().unwrap();
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, profiled());
    assert_eq!(emu.run(FUEL).expect("loop runs").exit_vals[0], Some(300));
    let hot: Vec<_> = emu.hot_tbs(8).iter().map(|t| (t.guest_pc, t.execs)).collect();
    let pc = |label: &str| bin.symbols[label];
    assert_eq!(
        hot,
        [(pc("body"), 300), (pc("tail"), 300), (pc("main"), 1), (pc("exit"), 1)],
        "{hot:#x?}"
    );
    assert_eq!(emu.hot_tbs(1).len(), 1, "n caps the report");
}

/// A 400-iteration loop split over two blocks (`loop` jumps to `tail`,
/// `tail` branches back), so both blocks warm up.
fn two_block_loop() -> GuestBinary {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 400);
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.label("loop");
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
    b.asm.jmp_to("tail");
    b.asm.label("tail");
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "loop");
    b.asm.hlt();
    b.finish().unwrap()
}

/// Runs `two_block_loop` at `VerifyLevel::Install` and returns its
/// pipeline events (everything but `Dispatch`) cut into install
/// attempts: each piece ends with an `Install`; events after the last
/// one form the final piece.
fn install_attempts(warm_threshold: Option<u64>, fault_plan: FaultPlan) -> Vec<Vec<TraceEvent>> {
    let events = Rc::new(RefCell::new(Vec::new()));
    let config = EmuConfig {
        verify: VerifyLevel::Install,
        warm_threshold,
        fault_plan,
        ..EmuConfig::default()
    };
    let mut emu = Emulator::with_config(&two_block_loop(), Setup::Risotto, 1, config);
    emu.set_trace_sink(Box::new(VecSink(Rc::clone(&events))));
    let r = emu.run(FUEL).expect("loop runs");
    assert_eq!(r.exit_vals[0], Some(400));
    let mut attempts = vec![Vec::new()];
    for e in events.take().into_iter().filter(|e| e.stage != TraceStage::Dispatch) {
        let install = e.stage == TraceStage::Install;
        attempts.last_mut().unwrap().push(e);
        if install {
            attempts.push(Vec::new());
        }
    }
    attempts
}

/// Which tier's producer an install attempt's events came from.
fn tier_of(attempt: &[TraceEvent]) -> &'static str {
    use TraceStage::{Decode, Encode, Install, Opt};
    let stages: Vec<TraceStage> = attempt.iter().map(|e| e.stage).collect();
    let first = &attempt[0].detail;
    if stages == [Decode, Opt, Encode, Install] && !first.starts_with("tier-0") {
        "tier-1"
    } else if stages == [Decode, Install] && first.starts_with("tier-0") {
        "tier-0"
    } else {
        panic!("install attempt fits no tier's event order: {attempt:#?}")
    }
}

/// The event order external consumers parse (the repo benchmark's
/// replay keys on `Decode` events and the `"tier-0"` detail prefix):
/// tier-1 `Decode → Opt → Encode → Install`, tier-0 `Decode → Install`
/// — and an install the read-back rejects leaves its producer's events,
/// a `Fault`, and no `Install`.
#[test]
fn trace_event_order_per_tier_and_on_rejected_installs() {
    let mut tier1 = install_attempts(None, FaultPlan::default());
    assert!(tier1.pop().unwrap().is_empty(), "events after the last install");
    assert!(tier1.iter().all(|a| tier_of(a) == "tier-1"));

    let mut clean = install_attempts(LADDER, FaultPlan::default());
    assert!(clean.pop().unwrap().is_empty(), "events after the last install");
    let tiers: Vec<&str> = clean.iter().map(|a| tier_of(a)).collect();

    for tier in ["tier-0", "tier-1"] {
        let nth = tiers.iter().position(|t| *t == tier).unwrap_or_else(|| panic!("no {tier}"));
        let plan = FaultPlan::seeded(1).corrupt_install_at(nth as u64);
        let faulted = install_attempts(LADDER, plan);
        assert_eq!(faulted[..nth], clean[..nth], "{tier}: installs before the corrupted one");
        // The rejected attempt: the clean attempt's events with the
        // `Install` replaced by the verifier's `Fault`.
        let want = &clean[nth];
        let got = &faulted[nth][..want.len()];
        let key = |e: &TraceEvent| (e.stage, e.guest_pc);
        let (produced, rejected) = (want.len() - 1, &got[want.len() - 1]);
        assert!(
            got[..produced].iter().map(key).eq(want[..produced].iter().map(key)),
            "{tier}: producer events of the rejected attempt: {got:#?}"
        );
        assert_eq!(key(rejected), (TraceStage::Fault, want[produced].guest_pc), "{tier}");
        assert!(rejected.detail.contains("installed bytes differ"), "{tier}: {rejected:?}");
    }
}
