//! The machine runs its cores in quanta — one scheduler scan, then the
//! picked core is stepped for as long as a fresh scan would pick it again.
//! The definition it must reproduce is a scan before every step, and a
//! run handed to the machine one step at a time *is* that definition. So:
//! whatever the slice length, a run must leave the same clocks, counters,
//! memory and atomic order behind, under every scheduling policy.

use risotto::core::{Emulator, Setup};
use risotto::guest::{GuestBinary, DATA_BASE};
use risotto::host::{CostModel, SchedPolicy};
use risotto::workloads::{cas, kernels};

const FUEL: u64 = 50_000_000;

const POLICIES: [SchedPolicy; 3] =
    [SchedPolicy::Deterministic, SchedPolicy::Random(0x5eed), SchedPolicy::Adversarial];

/// Everything a run exposes, finished or out of fuel, that a different
/// interleaving could have changed.
fn observe(bin: &GuestBinary, cores: usize, policy: SchedPolicy, fuel: u64, slice: u64) -> String {
    let mut emu = Emulator::new(bin, Setup::Risotto, cores, CostModel::thunderx2_like());
    emu.set_sched_policy(policy);
    emu.set_atomic_log(true);
    let outcome = emu.run_sliced_for_test(fuel, slice);
    let snapshot = emu.metrics();
    let per_core: Vec<(u64, u64)> = (0..cores)
        .map(|c| {
            (
                snapshot.gauge(&format!("core.{c}.cycles")),
                snapshot.gauge(&format!("core.{c}.insns")),
            )
        })
        .collect();
    let data: Vec<u64> =
        (0..bin.data.len() as u64 / 8).map(|i| emu.mem().read_u64(DATA_BASE + 8 * i)).collect();
    assert!(emu.validate_chains().is_empty());
    format!("{outcome:?}\n{per_core:?}\n{data:?}\n{:?}", emu.take_atomic_log())
}

/// `outcome` is the start of what every slicing must observe: `"Ok("`
/// for a finished run, the error otherwise.
fn assert_slice_invariant(name: &str, bin: &GuestBinary, cores: usize, fuel: u64, outcome: &str) {
    for policy in POLICIES {
        let per_step = observe(bin, cores, policy, fuel, 1);
        assert!(per_step.starts_with(outcome), "{name}: {policy:?}: {per_step}");
        assert!(per_step.contains("AtomicEvent"), "{name}: {policy:?}: no atomic ran");
        for slice in [7, 1000, u64::MAX] {
            assert_eq!(
                observe(bin, cores, policy, fuel, slice),
                per_step,
                "{name}: {policy:?} in slices of {slice} differs from one step at a time"
            );
        }
    }
}

/// `casal`, full fences, store-buffer drains and up to four cores
/// competing for the scheduler.
#[test]
fn cas_grid_is_slice_invariant() {
    for (threads, vars) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)] {
        let bin = cas::cas_bench(200, threads, vars);
        assert_slice_invariant(&format!("cas-{threads}-{vars}"), &bin, threads, FUEL, "Ok(");
    }
}

/// Two-thread kernels: plain loads and stores, soft-float helpers,
/// syscalls and a join at the end.
#[test]
fn kernels_are_slice_invariant() {
    let picked = ["canneal", "histogram", "kmeans", "streamcluster", "wordcount"];
    let all = kernels::all();
    for name in picked {
        let w = all.iter().find(|w| w.name == name).expect("a Fig. 12 kernel");
        assert_slice_invariant(name, &(w.build)(48, 2), 2, FUEL, "Ok(");
    }
}

/// Fuel that runs out in the middle of a quantum stops the run there,
/// at the same point however the steps before it were sliced.
#[test]
fn fuel_exhaustion_is_slice_invariant() {
    assert_slice_invariant("cas-4-1", &cas::cas_bench(60, 4, 1), 4, 2_001, "Err(OutOfFuel)");
}
