//! The dynamic oracles over the one leg table.
//!
//! A leg is one emulator configuration. The table (`risotto_fuzz::legs`,
//! next to the run check it shares with the differential fuzzer), all at
//! `VerifyLevel::Full`: the native oracle; {qemu, no-fences, tcg-ver,
//! risotto} × backend {Arm, TSO} × rung {tier-1 only, tier-0 only, the
//! tier-0→1 ladder} × analysis {off, on}; and risotto/Arm/tier-1 with
//! chaining off and with the optimizer off. A new axis or a new program
//! source is one more entry there, not another sweep. Two oracles read
//! it:
//!
//! * **Theorem 1, dynamic direction** (this file): every x86-flavoured
//!   litmus program of the corpus is compiled to a guest binary and run
//!   under every leg except no-fences and every interleaving stagger.
//!   Each observed behavior must be allowed by the axiomatic x86 model.
//!   (The machine is operationally TSO, so the observable set is a
//!   subset of what the Arm model would allow on silicon — containment
//!   in the x86 set is exactly what a correct x86 emulator must
//!   guarantee; see DESIGN.md §10.) Legs are not compared with each
//!   other: fewer or relaxed fences and templates drain store buffers on
//!   a different schedule, so the observed *sets* may legitimately
//!   differ. Containment in the axiomatic x86 set is the bar for every
//!   leg.
//! * **Functional** ([`functional`]): every kernel, CAS-grid, fuzz
//!   reproducer and generated program runs under every leg and must pass
//!   the run check it shares with the fuzzer (`risotto_fuzz::run_checked`):
//!   end exactly as the reference interpreter ends, with a clean verifier
//!   and chain graph, and agree with the program's risotto run on
//!   atomics.
//!
//! No-fences drops the fences x86 ordering needs, so it is incorrect by
//! design and the litmus oracle skips it. It passes the functional
//! oracle only because the machine is operationally TSO (DESIGN.md §10).
//!
//! Each oracle runs in slices: each (leg, program) case belongs to
//! exactly one, and each slice is one `#[test]` in the test file of the
//! subsystem it exercises, so a failure names the axis that broke.

// Each test binary that includes this module runs some of its slices.
#![allow(dead_code)]

pub mod functional;

use risotto::core::{BackendKind, Emulator, MetricsSnapshot, Setup};
use risotto::fuzz::{check_leg_counters, legs, Leg, Rung};
use risotto::litmus::{behaviors, corpus, Behavior, Instr, Program};
use risotto::memmodel::X86Tso;
use risotto::workloads::litmus_compile::compile_litmus;
use std::collections::BTreeSet;

/// Per-thread spin iterations before each litmus body.
pub const STAGGERS: [&[u64]; 10] = [
    &[0, 0],
    &[0, 40],
    &[40, 0],
    &[0, 7],
    &[7, 0],
    &[13, 11],
    &[3, 90],
    &[90, 3],
    &[0, 200],
    &[200, 0],
];

/// The programs `compile_litmus` turns into guest binaries
/// (`corpus::x86()`), each paired with whether it holds a LOCK-prefixed
/// RMW.
fn programs() -> Vec<(Program, bool)> {
    fn has_rmw(instrs: &[Instr]) -> bool {
        instrs.iter().any(|i| match i {
            Instr::Rmw { .. } => true,
            Instr::If { then, els, .. } => has_rmw(then) || has_rmw(els),
            _ => false,
        })
    }
    (corpus::x86().into_iter())
        .map(|p| {
            let rmw = p.threads.iter().any(|t| has_rmw(&t.instrs));
            (p, rmw)
        })
        .collect()
}

/// A part of the litmus matrix run by one test, in the file named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Native and the Arm tier-1 legs, analysis off, RMW-free programs
    /// (`litmus_through_dbt.rs`).
    Tier1Arm,
    /// Native and the Arm tier-1 legs, analysis off, RMW programs
    /// (`litmus_through_dbt.rs`).
    Tier1ArmRmw,
    /// The TSO tier-1 legs, analysis off, RMW-free programs
    /// (`backends.rs`).
    Tier1Tso,
    /// The TSO tier-1 legs, analysis off, RMW programs (`backends.rs`).
    Tier1TsoRmw,
    /// The tier-0-only legs, analysis off (`templates.rs`).
    Tier0,
    /// The ladder legs, analysis off (`verifier.rs`).
    Ladder,
    /// Every analysis-on leg (`analysis.rs`).
    Analysis,
}

impl Slice {
    /// The slice that runs `leg` on a program that holds an RMW or not.
    /// Ladder and analysis legs never split by program, so the per-leg
    /// checks of [`sweep`] see the whole corpus.
    fn of(leg: Leg, rmw: bool) -> Slice {
        if leg.analysis {
            return Slice::Analysis;
        }
        match (leg.rung, leg.backend, rmw) {
            (Rung::Tier0, ..) => Slice::Tier0,
            (Rung::Ladder, ..) => Slice::Ladder,
            (Rung::Tier1, BackendKind::Arm, false) => Slice::Tier1Arm,
            (Rung::Tier1, BackendKind::Arm, true) => Slice::Tier1ArmRmw,
            (Rung::Tier1, BackendKind::Tso, false) => Slice::Tier1Tso,
            (Rung::Tier1, BackendKind::Tso, true) => Slice::Tier1TsoRmw,
        }
    }
}

/// Runs `prog` compiled with `delays` under `leg` and checks the run: it
/// succeeds, its outcome is in `allowed`, and it keeps the leg-counter
/// rules the functional matrix checks too (`risotto_fuzz::
/// check_leg_counters`: a clean verifier and chain graph, the rung's
/// templates, no partial barrier on TSO, no chain with chaining off).
/// Returns the outcome and the run's metrics.
pub fn run_checked(
    prog: &Program,
    allowed: &BTreeSet<Behavior>,
    leg: Leg,
    delays: &[u64],
) -> (Behavior, MetricsSnapshot) {
    let case = format!("{} under {leg:?} (delays {delays:?})", prog.name);
    let compiled = compile_litmus(prog, delays);
    let mut emu =
        Emulator::with_config(&compiled.binary, leg.setup, compiled.threads, leg.config());
    emu.run(50_000_000).unwrap_or_else(|e| panic!("{case}: {e}"));
    let obs = compiled.observe(emu.mem());
    assert!(allowed.contains(&obs), "{case}: observed {obs:?} is NOT x86-allowed");
    let m = emu.metrics();
    let bad = check_leg_counters(leg, &m, &emu.validate_chains());
    assert!(bad.is_empty(), "{case}: {}", bad.join("; "));
    (obs, m)
}

/// Every case of `slice` × stagger on every leg but no-fences, each
/// through [`run_checked`]. Over the whole corpus, every ladder leg must
/// promote a block and every tier-1 analysis leg must relax a fence, or
/// that leg has gone dead.
/// (Templates never relax, and the blocks the ladder promotes are the
/// stagger spin loops, which hold no memory event: the other analysis
/// legs relax nothing.)
pub fn sweep(slice: Slice) {
    let programs = programs();
    let allowed: Vec<_> = programs.iter().map(|(p, _)| behaviors(p, &X86Tso::new())).collect();
    let mut runs = 0;
    for leg in legs().into_iter().filter(|leg| leg.setup != Setup::NoFences) {
        let cases: Vec<_> = programs
            .iter()
            .zip(&allowed)
            .filter(|((_, rmw), _)| Slice::of(leg, *rmw) == slice)
            .collect();
        if cases.is_empty() {
            continue;
        }
        let (mut promotions, mut relaxed) = (0, 0);
        for ((prog, _), allowed) in cases {
            for delays in STAGGERS {
                let m = run_checked(prog, allowed, leg, delays).1;
                promotions += m.counter("template.promotions");
                relaxed += m.counter("analysis.relaxed");
                runs += 1;
            }
        }
        if leg.rung == Rung::Ladder {
            assert!(promotions > 0, "{leg:?}: no block promoted over the corpus");
        }
        if leg.rung == Rung::Tier1 && leg.analysis {
            assert!(relaxed > 0, "{leg:?}: no fence relaxed over the corpus");
        }
    }
    assert!(runs > 0, "{slice:?} holds no case");
}
