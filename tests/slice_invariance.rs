//! The machine runs its cores in quanta — one scheduler pick, then the
//! picked core is stepped while a fresh pick would choose it again, and
//! past that for as long as its steps touch only its own state. A
//! quantum the fuel cuts short stays open for the next `run` call. So:
//! whatever the slice length, a run must leave the same clocks,
//! counters, memory and atomic order behind, fuel running out mid-run
//! included. And a completed run must end as it did when the machine
//! picked before every step: [`SCHEDULE_HASH`] pins that, because
//! slicing only compares the machine with itself.

use risotto::core::{EmuConfig, Emulator, Setup};
use risotto::guest::{GuestBinary, DATA_BASE};
use risotto::workloads::{cas, kernels};

const FUEL: u64 = 50_000_000;

/// Everything a run exposes, finished or out of fuel, that a different
/// interleaving could have changed.
fn observe(bin: &GuestBinary, cores: usize, fuel: u64, slice: u64) -> String {
    let config = EmuConfig { atomic_log: true, ..EmuConfig::default() };
    let mut emu = Emulator::with_config(bin, Setup::Risotto, cores, config);
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

/// Runs `bin` in slices of 1, 7, 1000 and `u64::MAX` steps, asserts
/// every slicing observes what one step at a time does, and returns
/// that. `outcome` is the start of what every slicing must observe:
/// `"Ok("` for a finished run, the error otherwise.
fn slice_invariant(
    name: &str,
    bin: &GuestBinary,
    cores: usize,
    fuel: u64,
    outcome: &str,
) -> String {
    let per_step = observe(bin, cores, fuel, 1);
    assert!(per_step.starts_with(outcome), "{name}: {per_step}");
    for slice in [7, 1000, u64::MAX] {
        assert_eq!(
            observe(bin, cores, fuel, slice),
            per_step,
            "{name}: slices of {slice} differ from one step at a time"
        );
    }
    per_step
}

/// [`slice_invariant`] on a run in which an atomic must have run.
fn assert_slice_invariant(name: &str, bin: &GuestBinary, cores: usize, fuel: u64, outcome: &str) {
    let per_step = slice_invariant(name, bin, cores, fuel, outcome);
    assert!(per_step.contains("AtomicEvent"), "{name}: no atomic ran");
}

/// `casal`, full fences, store-buffer drains and up to four cores
/// competing for the scheduler: `(name, image, cores)`.
fn cas_grid() -> Vec<(String, GuestBinary, usize)> {
    let shapes = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)];
    shapes
        .into_iter()
        .map(|(threads, vars)| {
            (format!("cas-{threads}-{vars}"), cas::cas_bench(200, threads, vars), threads)
        })
        .collect()
}

/// Two-thread kernels: plain loads and stores, soft-float helpers,
/// syscalls and a join at the end.
fn picked_kernels() -> Vec<(String, GuestBinary, usize)> {
    let picked = ["canneal", "histogram", "kmeans", "streamcluster", "wordcount"];
    let all = kernels::all();
    picked
        .into_iter()
        .map(|name| {
            let w = all.iter().find(|w| w.name == name).expect("a Fig. 12 kernel");
            (name.to_owned(), (w.build)(48, 2), 2)
        })
        .collect()
}

#[test]
fn cas_grid_is_slice_invariant() {
    for (name, bin, cores) in cas_grid() {
        assert_slice_invariant(&name, &bin, cores, FUEL, "Ok(");
    }
}

#[test]
fn kernels_are_slice_invariant() {
    for (name, bin, cores) in picked_kernels() {
        assert_slice_invariant(&name, &bin, cores, FUEL, "Ok(");
    }
}

/// Host instructions each core has retired after a run on `fuel`.
fn insns(bin: &GuestBinary, cores: usize, fuel: u64) -> Vec<u64> {
    let mut emu = Emulator::with_config(bin, Setup::Risotto, cores, EmuConfig::default());
    let _ = emu.run(fuel);
    let snapshot = emu.metrics();
    (0..cores).map(|c| snapshot.gauge(&format!("core.{c}.insns"))).collect()
}

/// Fuel that runs out in the middle of a quantum stops the run there,
/// at the same point however the steps before it were sliced: among
/// four CAS threads, and halfway through a two-thread kernel, where both
/// threads are running and neither has reached its atomics yet.
#[test]
fn fuel_exhaustion_is_slice_invariant() {
    assert_slice_invariant("cas-4-1", &cas::cas_bench(60, 4, 1), 4, 2_001, "Err(OutOfFuel)");
    let (name, bin, cores) =
        picked_kernels().into_iter().find(|(name, ..)| name == "histogram").expect("picked");
    let done = insns(&bin, cores, FUEL);
    let fuel = done.iter().sum::<u64>() / 2;
    let half = insns(&bin, cores, fuel);
    assert!(
        (0..cores).all(|c| 0 < half[c] && half[c] < done[c]),
        "{name}: {half:?} of {done:?} retired, not both threads running"
    );
    slice_invariant(&name, &bin, cores, fuel, "Err(OutOfFuel)");
}

/// FNV-1a hash of what completed runs observe: the CAS grid and the
/// five kernels above, and all 16 Fig. 12 kernels at scale 32 with 2
/// and 4 threads. It was taken with a scheduler pick before
/// every step, so it pins the schedule itself, which the slice tests
/// above only compare with itself. A run stopped by fuel stays out:
/// where it stops is a matter of how many steps each core took, not of
/// what they computed.
const SCHEDULE_HASH: u64 = 0x4f3c_800c_901f_b2fe;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn completed_runs_match_the_checked_in_schedule_hash() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, bin, cores) in cas_grid().into_iter().chain(picked_kernels()) {
        fnv(&mut h, observe(&bin, cores, FUEL, u64::MAX).as_bytes());
    }
    for w in kernels::all() {
        for threads in [2, 4] {
            let bin = (w.build)(32, threads);
            let seen = observe(&bin, threads, FUEL, u64::MAX);
            assert!(seen.starts_with("Ok("), "{}@{threads}: {seen}", w.name);
            fnv(&mut h, seen.as_bytes());
        }
    }
    assert_eq!(h, SCHEDULE_HASH, "a completed run's schedule changed (got {h:#018x})");
}
