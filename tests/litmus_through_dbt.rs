//! Theorem 1, dynamic direction, on the paper's default host: the
//! native oracle and the Arm tier-1 legs of the one litmus-through-DBT
//! matrix (`theorem1/mod.rs`, which documents the whole table), plus two
//! properties of the staggers that drive it.

mod theorem1;

use risotto::litmus::{behaviors, corpus, Behavior};
use risotto::memmodel::X86Tso;
use std::collections::BTreeSet;
use theorem1::{run_checked, sweep, Slice, RISOTTO, STAGGERS};

/// The RMW-free programs under native and {qemu, tcg-ver, risotto} on
/// the Arm backend, tier-1 only, analysis off.
#[test]
fn correct_setups_stay_within_x86_behaviors() {
    sweep(Slice::Tier1Arm);
}

/// The LOCK-prefixed RMW programs (MPQ, SBQ, SBAL) under the same legs.
#[test]
fn rmw_litmus_through_the_dbt() {
    sweep(Slice::Tier1ArmRmw);
}

/// The staggers actually explore different interleavings: on SB, multiple
/// distinct outcomes must be observed (including at least one where some
/// thread misses the other's store).
#[test]
fn staggers_explore_interleavings() {
    let sb = corpus::sb();
    let allowed = behaviors(&sb, &X86Tso::new());
    let outcomes: BTreeSet<Behavior> =
        STAGGERS.iter().map(|delays| run_checked(&sb, &allowed, RISOTTO, delays).0).collect();
    assert!(outcomes.len() >= 2, "expected several SB outcomes across staggers, got {outcomes:?}");
    // And the store-buffer machine can produce the TSO-weak one (a=b=0)
    // under a simultaneous start.
    let weak = outcomes.iter().any(|b| b.reg(0, corpus::A) == 0 && b.reg(1, corpus::B) == 0);
    assert!(weak, "the store-buffering outcome should be observable operationally");
}

/// Deterministic replay: same program, setup and stagger → identical
/// behavior and metrics (the simulator is fully reproducible).
#[test]
fn runs_are_deterministic() {
    let mp = corpus::mp();
    let allowed = behaviors(&mp, &X86Tso::new());
    let a = run_checked(&mp, &allowed, RISOTTO, &[5, 9]);
    let b = run_checked(&mp, &allowed, RISOTTO, &[5, 9]);
    assert_eq!(a, b);
}
