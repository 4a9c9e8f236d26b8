//! Acceptance test for direct TB chaining (the PR's tentpole): across the
//! full 16-kernel Fig. 12 suite, a chaining-enabled run must resolve at
//! least 90% of its direct-jump exits through patched chain slots, and its
//! architectural results (per-thread exit values and WRITE output) must be
//! bit-identical to a chaining-disabled reference run, which takes every
//! TB exit through the dispatcher.

use risotto::core::{EmuConfig, Emulator, Setup};
use risotto::host::CostModel;
use risotto::workloads::kernels;

const FUEL: u64 = 400_000_000;

/// The reference configuration: chaining and the jump cache off, every
/// exit through the dispatcher.
fn dispatcher_only() -> EmuConfig {
    EmuConfig { chaining: false, ..EmuConfig::default() }
}

#[test]
fn chaining_matches_dispatcher_reference_on_all_kernels() {
    let mut total_hits = 0u64;
    let mut total_links = 0u64;
    for w in kernels::all() {
        let bin = (w.build)(8, 2);

        let mut chained = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        let rc = chained.run(FUEL).unwrap_or_else(|e| panic!("{} (chained): {e}", w.name));

        let mut reference = Emulator::with_config(&bin, Setup::Risotto, 2, dispatcher_only());
        let rr = reference.run(FUEL).unwrap_or_else(|e| panic!("{} (reference): {e}", w.name));

        assert_eq!(
            rc.exit_vals, rr.exit_vals,
            "{}: exit values diverge between chained and dispatcher runs",
            w.name
        );
        assert_eq!(
            rc.output, rr.output,
            "{}: guest output diverges between chained and dispatcher runs",
            w.name
        );

        // The reference config must never chain; the chained config must
        // actually exercise the chain slots on loopy kernels.
        let (mc, mr) = (chained.metrics(), reference.metrics());
        assert_eq!(mr.counter("chain.links"), 0, "{}: reference run created chains", w.name);
        assert_eq!(mr.counter("chain.hits"), 0, "{}: reference run took a chain", w.name);
        assert!(
            mc.counter("chain.hits") + mc.counter("chain.links") > 0,
            "{}: chained run never took a direct-jump exit",
            w.name
        );

        total_hits += mc.counter("chain.hits");
        total_links += mc.counter("chain.links");
    }
    // ≥90% of all direct-jump exits resolved via an already-patched chain
    // slot (the remainder are the one-time linking dispatches).
    let rate = total_hits as f64 / (total_hits + total_links) as f64;
    assert!(
        rate >= 0.90,
        "chain-hit rate {rate:.3} below 0.90 ({total_hits} hits / {total_links} links)"
    );
}

/// A single-thread guest whose helper returns to `sites` distinct call
/// sites, `passes` times each: every `ret` is an indirect transfer whose
/// target cycles through more return addresses than the per-core jump
/// cache has slots.
fn jcache_stress_bin(sites: usize, passes: u64) -> risotto::guest::GuestBinary {
    use risotto::guest::{AluOp, Cond, GelfBuilder, Gpr};
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.mov_ri(Gpr::R11, passes);
    b.asm.label("outer");
    for _ in 0..sites {
        b.asm.call_to("helper");
    }
    b.asm.alu_ri(AluOp::Sub, Gpr::R11, 1);
    b.asm.cmp_ri(Gpr::R11, 0);
    b.asm.jcc_to(Cond::Ne, "outer");
    b.asm.hlt();
    b.asm.label("helper");
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
    b.asm.ret();
    b.finish().unwrap()
}

/// Overfilling the 64-entry direct-mapped jump cache must degrade
/// gracefully: colliding targets keep evicting each other (misses stay
/// above the distinct-target count), non-colliding targets still hit,
/// and the hit/miss split exactly accounts for every indirect transfer
/// the dispatcher-only reference run performs.
#[test]
fn jump_cache_eviction_keeps_dispatch_accounting_consistent() {
    const SITES: usize = 100; // > JCACHE_SIZE (64): guarantees collisions
    const PASSES: u64 = 8;
    let bin = jcache_stress_bin(SITES, PASSES);

    let mut cached = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let rc = cached.run(FUEL).expect("cached run completes");

    let mut reference = Emulator::with_config(&bin, Setup::Risotto, 1, dispatcher_only());
    let rr = reference.run(FUEL).expect("reference run completes");

    assert_eq!(rc.exit_vals[0], Some(SITES as u64 * PASSES), "wrong call count");
    assert_eq!(rc.exit_vals, rr.exit_vals, "exit values diverge with the jump cache on");
    assert_eq!(rc.output, rr.output, "guest output diverges with the jump cache on");

    // The reference run takes every indirect exit through the full
    // dispatcher; the cached run must split the same transfer total into
    // hits + misses, no transfer lost or double-counted.
    let (mc, mr) = (cached.metrics(), reference.metrics());
    assert_eq!(mr.counter("jcache.hits"), 0, "reference run must never hit the jump cache");
    assert_eq!(
        mc.counter("jcache.hits") + mc.counter("jcache.misses"),
        mr.counter("jcache.misses"),
        "jump-cache hit/miss split must preserve the indirect-transfer total"
    );

    // Collisions: 100 targets in 64 direct-mapped slots means some pairs
    // share a slot and evict each other on every pass — cold misses
    // alone (one per distinct target) cannot explain the miss count.
    assert!(
        mc.counter("jcache.misses") > SITES as u64,
        "expected eviction re-misses beyond the {SITES} cold misses, got {}",
        mc.counter("jcache.misses")
    );
    // Non-colliding slots still serve hits after their cold miss.
    assert!(mc.counter("jcache.hits") > 0, "jump cache never hit despite repeated targets");
}
