//! Acceptance tests for the observability layer (metrics snapshot,
//! trace sinks, hot-TB profiler):
//!
//! * every counter of a snapshot equals its legacy `Report` source across
//!   the full 16-kernel Fig. 12 suite (a snapshot is a view, not a second
//!   set of books);
//! * a fully instrumented run (ring-buffer sink + stage timing + hot-TB
//!   profiling) is bit-identical in architectural results and simulated
//!   cycles to a default run — observability is passive, and on the tier
//!   ladder it moves no promotion;
//! * `RingBufferSink` is bounded and overwrites oldest-first;
//! * `docs/METRICS.md` documents 100% of the metric schema, and every
//!   metric a real run emits maps back into that schema;
//! * the stage histograms' sample counts reconcile with the counters of
//!   the blocks that went through those stages, on every tier;
//! * `hot_tbs` is empty unless profiling was asked for, tiering or not.

use std::cell::RefCell;
use std::rc::Rc;

use risotto::core::obs::{doc_name, specs};
use risotto::core::{
    Emulator, FaultPlan, HotTbProfiler, RingBufferSink, Setup, TierConfig, TraceEvent, TraceSink,
    TraceStage, VerifyLevel,
};
use risotto::guest::{AluOp, Cond, GelfBuilder, Gpr, GuestBinary};
use risotto::host::CostModel;
use risotto::memmodel::FenceKind;
use risotto::workloads::kernels;
use risotto_bench::templates_only;

const FUEL: u64 = 400_000_000;

/// Forwards events into a shared ring buffer the test keeps a handle to
/// (the engine owns the installed sink, so inspection goes through `Rc`).
struct SharedSink(Rc<RefCell<RingBufferSink>>);

impl TraceSink for SharedSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

#[test]
fn registry_counters_equal_legacy_report_on_all_kernels() {
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        emu.set_stage_timing(true);
        emu.set_profiling(true);
        let r = emu.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let snap = emu.metrics();

        let expect = |metric: &str, legacy: u64| {
            assert_eq!(
                snap.counter(metric),
                legacy,
                "{}: metric `{metric}` diverged from its legacy Report source",
                w.name
            );
        };
        expect("translate.blocks", r.tb_count as u64);
        expect("translate.retranslations", r.retranslations as u64);
        expect("translate.fallback_blocks", r.fallback_blocks as u64);
        expect("opt.folded", r.opt.folded as u64);
        expect("opt.loads_forwarded", r.opt.loads_forwarded as u64);
        expect("opt.stores_eliminated", r.opt.stores_eliminated as u64);
        expect("opt.fences_merged", r.opt.fences_merged as u64);
        expect("opt.dce_removed", r.opt.dce_removed as u64);
        expect("chain.hits", r.chain.chain_hits);
        expect("chain.links", r.chain.chain_links);
        expect("chain.flushes", r.chain.chain_flushes);
        expect("jcache.hits", r.chain.dispatch_hits);
        expect("jcache.misses", r.chain.dispatch_misses);
        expect("fence.exec.dmb_ld", r.stats.dmb[0]);
        expect("fence.exec.dmb_st", r.stats.dmb[1]);
        expect("fence.exec.dmb_ff", r.stats.dmb[2]);
        expect("fence.exec.cycles", r.stats.fence_cycles);
        expect("exec.insns", r.stats.insns);
        assert_eq!(snap.gauge("exec.cycles"), r.cycles, "{}: exec.cycles gauge", w.name);
        assert_eq!(snap.gauge("exec.cores"), 2, "{}: exec.cores gauge", w.name);

        // Per-kind fence merges decompose the aggregate exactly.
        let merged_by_kind: u64 = FenceKind::TCG_ALL
            .iter()
            .map(|k| snap.counter(&format!("fence.merged.{}", k.tcg_name().unwrap())))
            .sum();
        assert_eq!(
            merged_by_kind, r.opt.fences_merged as u64,
            "{}: per-kind fence merges don't sum to opt.fences_merged",
            w.name
        );
        for (i, k) in FenceKind::TCG_ALL.iter().enumerate() {
            assert_eq!(
                snap.counter(&format!("fence.merged.{}", k.tcg_name().unwrap())),
                r.opt.fences_merged_by_kind[i] as u64,
                "{}: fence.merged.{} vs OptStats",
                w.name,
                k.tcg_name().unwrap()
            );
        }

        // Per-core gauge family materialized for both cores.
        assert!(snap.metrics.contains_key("core.0.insns"), "{}: core.0.insns missing", w.name);
        assert!(snap.metrics.contains_key("core.1.cycles"), "{}: core.1.cycles missing", w.name);

        // Stage timing was on: every successful decode is followed by
        // exactly one optimizer pass, and only lowered blocks leave
        // encode samples.
        let decode = snap.histogram("stage.decode_ns");
        let opt = snap.histogram("stage.opt_ns");
        let encode = snap.histogram("stage.encode_ns");
        assert!(decode.count > 0, "{}: no decode samples despite stage timing", w.name);
        assert_eq!(decode.count, opt.count, "{}: decode/opt sample counts differ", w.name);
        assert!(encode.count > 0 && encode.count <= decode.count, "{}: encode samples", w.name);
        assert!(decode.min <= decode.max && decode.sum >= decode.max, "{}: histogram", w.name);

        // The hot-TB profile covers real blocks and is sorted by execs.
        let hot = emu.hot_tbs(8);
        assert!(!hot.is_empty(), "{}: no hot TBs recorded", w.name);
        assert!(hot.windows(2).all(|p| p[0].execs >= p[1].execs), "{}: top_n not sorted", w.name);
        assert!(hot.iter().all(|t| t.execs > 0), "{}: zero-exec TB in profile", w.name);
    }
}

/// Observability is passive on every tier: a run with a trace sink, the
/// stage clock and the hot-TB profiler on is the default run, on tier-1
/// alone and on the tier ladder at two warm thresholds — same cycles,
/// exit values and output, and on the ladder the same promotions and
/// translations, since nothing the profiler counts decides a promotion.
#[test]
fn instrumented_run_is_bit_identical_to_default_run() {
    let ladders =
        [None, Some(4), Some(32)].map(|w| w.map(|w| TierConfig { warm_threshold: Some(w) }));
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        for tiers in ladders {
            let leg = format!("{} ({tiers:?})", w.name);
            let mut plain = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
            plain.set_tiering(tiers);
            let rp = plain.run(FUEL).unwrap_or_else(|e| panic!("{leg} plain: {e}"));

            let ring = Rc::new(RefCell::new(RingBufferSink::new(4096)));
            let mut traced = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
            traced.set_tiering(tiers);
            traced.set_trace_sink(Box::new(SharedSink(Rc::clone(&ring))));
            traced.set_stage_timing(true);
            traced.set_profiling(true);
            let rt = traced.run(FUEL).unwrap_or_else(|e| panic!("{leg} traced: {e}"));

            assert_eq!(rp.cycles, rt.cycles, "{leg}: observing changed simulated cycles");
            assert_eq!(rp.exit_vals, rt.exit_vals, "{leg}: observing changed exit values");
            assert_eq!(rp.output, rt.output, "{leg}: observing changed guest output");
            // `template.promotions` and the rest of the template tier's
            // counts, and `translate.blocks`.
            assert_eq!(rp.template, rt.template, "{leg}: observing moved the tier ladder");
            assert_eq!(rp.tb_count, rt.tb_count, "{leg}: observing changed the translations");
            if tiers.is_some() {
                continue;
            }

            let ring = ring.borrow();
            assert!(!ring.is_empty(), "{}: no trace events recorded", w.name);
            assert!(
                ring.events().any(|e| e.stage == TraceStage::Dispatch),
                "{}: no dispatch events",
                w.name
            );
            assert!(
                ring.events().any(|e| e.stage == TraceStage::Decode && e.dur_ns.is_some()),
                "{}: no timed decode events",
                w.name
            );
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
            dur_ns: None,
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
    let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
    emu.set_stage_timing(true);
    emu.set_profiling(true);
    emu.run(FUEL).expect("kernel runs");
    for name in emu.metrics().metrics.keys() {
        let doc_name = doc_name(name);
        assert!(
            documented.contains(&doc_name),
            "run emitted `{name}` (documented form `{doc_name}`) which is not in the schema"
        );
    }
}

/// The tier ladder the tiered tests below run `kmeans` under: a warm
/// threshold low enough that templates promote.
const LADDER: TierConfig = TierConfig { warm_threshold: Some(4) };

/// A kernel that promotes templates under [`LADDER`].
fn kmeans() -> GuestBinary {
    let kernel = kernels::all().into_iter().find(|w| w.name == "kmeans").expect("kmeans exists");
    (kernel.build)(16, 2)
}

/// What a stage enum wired to the wrong table row would break: with the
/// stage clock on and no fault plan, every stage's sample count is the
/// count of blocks that went through it, on every tier; with it off no
/// histogram has a sample.
#[test]
fn stage_histograms_reconcile_with_the_counters() {
    let bin = kmeans();
    let stages: Vec<String> =
        specs().into_iter().map(|s| s.name).filter(|n| n.ends_with("_ns")).collect();
    assert_eq!(stages.len(), 5, "{stages:?}");

    for (leg, tiers) in
        [("tier-1", None), ("templates", Some(templates_only())), ("ladder", Some(LADDER))]
    {
        for timing in [true, false] {
            let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
            emu.set_tiering(tiers);
            emu.set_stage_timing(timing);
            emu.run(FUEL).unwrap_or_else(|e| panic!("{leg}: {e}"));
            let snap = emu.metrics();
            assert_eq!(snap, emu.metrics(), "{leg}: two snapshots of the same state differ");
            if !timing {
                for stage in &stages {
                    assert_eq!(snap.histogram(stage).count, 0, "{leg}: `{stage}` timed while off");
                }
                continue;
            }
            let samples = |stage: &str| snap.histogram(stage).count;
            let (decode, blocks) = (samples("stage.decode_ns"), snap.counter("translate.blocks"));
            assert_eq!(decode, samples("stage.opt_ns"), "{leg}: decode vs opt");
            assert_eq!(decode, samples("stage.encode_ns"), "{leg}: decode vs encode");
            assert_eq!(samples("stage.template_ns"), snap.counter("template.blocks"), "{leg}");
            assert_eq!(samples("stage.install_ns"), blocks, "{leg}");
            assert_eq!(
                decode + samples("stage.template_ns"),
                blocks,
                "{leg}: a producer per block"
            );
            // Each leg exercises the rows it is there for.
            let (templates, promoted) =
                (snap.counter("template.blocks"), snap.counter("template.promotions"));
            match leg {
                "tier-1" => assert!(decode > 0 && templates == 0 && promoted == 0, "{snap:?}"),
                "templates" => assert!(decode == 0 && templates > 0 && promoted == 0, "{snap:?}"),
                _ => assert!(decode > 0 && templates > 0 && promoted > 0, "{snap:?}"),
            }
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
        let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        emu.set_tiering(Some(LADDER));
        emu.set_profiling(profiling);
        let r = emu.run(FUEL).expect("kmeans runs");
        assert!(r.template.promotions > 0, "the promoter's profile was live: {r:?}");
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

#[test]
fn hot_tb_profiler_default_is_empty_and_top_n_breaks_ties_by_pc() {
    // `Default` and `new` agree and start empty.
    let d = HotTbProfiler::default();
    assert!(d.is_empty());
    assert_eq!(d.len(), 0);
    assert!(d.top_n(8).is_empty());
    assert!(HotTbProfiler::new().is_empty());

    // Regression: equal execution counts must order by guest pc, so the
    // report is deterministic across HashMap iteration orders.
    let mut p = HotTbProfiler::new();
    p.record(3, 0x3000, 50, 0);
    p.record(1, 0x1000, 50, 2);
    p.record(4, 0x4000, 99, 1);
    p.record(2, 0x2000, 50, 0);
    let top = p.top_n(3);
    assert_eq!(top.len(), 3);
    assert_eq!(top[0].guest_pc, 0x4000, "hottest block first");
    assert_eq!(
        (top[1].guest_pc, top[2].guest_pc),
        (0x1000, 0x2000),
        "ties at 50 execs must order by ascending guest pc"
    );
    // The full report keeps the remaining tied block in pc order too.
    let all = p.top_n(10);
    assert_eq!(all.len(), 4);
    assert_eq!(all[3].guest_pc, 0x3000);

    // Re-recording accumulates instead of clobbering, and a real tb_id
    // upgrades an interpreted-only (id 0) entry.
    let mut q = HotTbProfiler::new();
    q.record(0, 0x5000, 1, 1);
    q.record(7, 0x5000, 2, 0);
    let only = q.top_n(1)[0];
    assert_eq!((only.tb_id, only.execs, only.chain_misses), (7, 3, 1));
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
fn install_attempts(tiers: Option<TierConfig>, plan: FaultPlan) -> Vec<Vec<TraceEvent>> {
    let ring = Rc::new(RefCell::new(RingBufferSink::new(4096)));
    let mut emu = Emulator::new(&two_block_loop(), Setup::Risotto, 1, CostModel::thunderx2_like());
    emu.set_verify(VerifyLevel::Install);
    emu.set_tiering(tiers);
    emu.set_fault_plan(plan);
    emu.set_trace_sink(Box::new(SharedSink(Rc::clone(&ring))));
    let r = emu.run(FUEL).expect("loop runs");
    assert_eq!(r.exit_vals[0], Some(400));
    let mut attempts = vec![Vec::new()];
    for e in ring.borrow().events().filter(|e| e.stage != TraceStage::Dispatch) {
        attempts.last_mut().unwrap().push(e.clone());
        if e.stage == TraceStage::Install {
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

    let mut clean = install_attempts(Some(LADDER), FaultPlan::default());
    assert!(clean.pop().unwrap().is_empty(), "events after the last install");
    let tiers: Vec<&str> = clean.iter().map(|a| tier_of(a)).collect();

    for tier in ["tier-0", "tier-1"] {
        let nth = tiers.iter().position(|t| *t == tier).unwrap_or_else(|| panic!("no {tier}"));
        let plan = FaultPlan::seeded(1).corrupt_install_at(nth as u64);
        let faulted = install_attempts(Some(LADDER), plan);
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
