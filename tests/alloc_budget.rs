//! Allocation budget of the translate path.
//!
//! The tier-1 pipeline works over one reusable scratch per thread: an
//! `Emulator` takes it from the thread's spare and gives it back when
//! dropped (DESIGN.md, "Translation scratch and allocation discipline"),
//! so a steady-state translation allocates little beyond what it hands
//! to the code cache. This suite is the oracle that keeps it that way: a
//! counting global allocator around `Emulator::new` and `Emulator::run`
//! over the 16 kernels and the checked-in fuzz reproducers, with a
//! ceiling on heap allocations per translated block — through tier-1 at
//! `VerifyLevel::Full` and `Install`, and through tier-0 templates alone —
//! and per constructed emulator, and one for a second emulator on a
//! thread that already holds a grown scratch.
//!
//! `run` is measured whole — the machine's own allocations (guest
//! memory pages, the code cache growing) count against the per-block
//! budget too, which is why the kernels run at a small scale. The
//! execute path has a budget of its own: once a loop's pages and decoded
//! instructions exist, stepping it allocates nothing. One `#[test]`
//! only: the counter is process-wide.

mod theorem1;

use risotto::core::{BackendKind, EmuConfig, Emulator, Setup, VerifyLevel};
use risotto::guest::GuestBinary;
use risotto::host::{AOp, CostModel, Event, HostInsn, Machine, MemOrder, Xreg};
use risotto::workloads::kernels;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use theorem1::reproducers::REPRODUCERS;

/// Heap allocations (fresh and growing) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Per-block ceilings (allocations inside `run` over blocks translated).
const FULL_PER_BLOCK: u64 = 6;
const INSTALL_PER_BLOCK: u64 = 6;
const TEMPLATE_PER_BLOCK: u64 = 4;
/// Ceiling per block for an emulator whose thread already holds a grown
/// translate scratch.
const WARM_PER_BLOCK: u64 = 8;
/// Ceiling per `Emulator::new`.
const PER_NEW: u64 = 40;

/// The 16 kernels and the checked-in fuzz reproducers, by name, as
/// `(name, image, cores)`.
fn programs() -> Vec<(String, GuestBinary, usize)> {
    let mut out: Vec<_> =
        kernels::all().iter().map(|w| (w.name.to_owned(), (w.build)(8, 2), 2)).collect();
    for (name, spec) in REPRODUCERS.iter() {
        out.push((name.to_string(), spec.lower().expect("reproducer lowers"), spec.cores()));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 22, "16 kernels and the reproducers, got {}", out.len());
    out
}

#[test]
fn translate_path_stays_inside_its_allocation_budget() {
    let programs = programs();
    let cost = BackendKind::Arm.cost_model();
    // Warm-up: process-wide lazies (and the allocator itself) settle on
    // the first block ever translated.
    let (_, bin, cores) = &programs[0];
    Emulator::new(bin, Setup::Risotto, *cores, cost).run(u64::MAX / 4).expect("warm-up runs");

    let mut worst_new = 0;
    let tier1 = |verify| EmuConfig { verify, ..EmuConfig::default() };
    let templates = EmuConfig { warm_threshold: Some(u64::MAX), ..tier1(VerifyLevel::Install) };
    for (leg, config, ceiling) in [
        ("tier-1 Full", tier1(VerifyLevel::Full), FULL_PER_BLOCK),
        ("tier-1 Install", tier1(VerifyLevel::Install), INSTALL_PER_BLOCK),
        ("templates only", templates, TEMPLATE_PER_BLOCK),
    ] {
        let (mut in_run, mut blocks, mut template_blocks) = (0u64, 0u64, 0u64);
        for (name, bin, cores) in &programs {
            let config = config.clone();
            let (mut emu, in_new) =
                counted(|| Emulator::with_config(bin, Setup::Risotto, *cores, config));
            worst_new = worst_new.max(in_new);
            let (report, n) = counted(|| emu.run(u64::MAX / 4));
            let report = report.unwrap_or_else(|e| panic!("{name}: {e}"));
            in_run += n;
            blocks += report.tb_count as u64;
            template_blocks += emu.metrics().counter("template.blocks");
        }
        let tier0 = config.warm_threshold.is_some();
        assert_eq!(template_blocks, if tier0 { blocks } else { 0 }, "{leg}: template blocks");
        let per_block = in_run as f64 / blocks as f64;
        println!("{leg}: {in_run} allocations in run / {blocks} blocks = {per_block:.1}");
        assert!(
            in_run <= ceiling * blocks,
            "{leg}: {per_block:.1} allocations per block exceeds the budget of {ceiling}"
        );
    }
    // The pooled scratch: on a fresh thread the first emulator grows
    // its translate scratch from nothing; a second one, built after the
    // first is dropped, inherits it from the thread.
    let (name, bin, cores) = &programs[0];
    let config = EmuConfig { verify: VerifyLevel::Full, ..EmuConfig::default() };
    let run = |config: EmuConfig| {
        let mut emu = Emulator::with_config(bin, Setup::Risotto, *cores, config);
        let (report, n) = counted(|| emu.run(u64::MAX / 4));
        (report.unwrap_or_else(|e| panic!("{name}: {e}")).tb_count as u64, n)
    };
    let ((blocks, cold), (_, warm)) =
        std::thread::scope(|s| s.spawn(|| (run(config.clone()), run(config))).join().unwrap());
    println!("{name} on a fresh thread: {cold} allocations, then {warm} / {blocks} blocks");
    assert!(
        warm <= WARM_PER_BLOCK * blocks,
        "a second emulator on a warm thread made {warm} allocations for {blocks} blocks"
    );

    println!("Emulator::new: at most {worst_new} allocations");
    assert!(worst_new <= PER_NEW, "Emulator::new made {worst_new} allocations (> {PER_NEW})");

    let mut machine = store_load_loop();
    assert_eq!(machine.run(1_000), Event::OutOfFuel, "warm-up: pages touched, code decoded");
    let (event, in_steps) = counted(|| machine.run(100_000));
    assert_eq!(event, Event::OutOfFuel);
    println!("Machine::run: {in_steps} allocations in 100000 warm steps");
    assert_eq!(in_steps, 0, "stepping a warm loop must not allocate");
}

/// A bare machine whose two cores each spin on a store, a load of what
/// the other core stores, and an add — buffered stores, forwarding
/// probes, aged drains and a scheduler pick every few steps.
fn store_load_loop() -> Machine {
    use HostInsn::*;
    let mut m = Machine::new(2, CostModel::thunderx2_like());
    for core in 0..2u64 {
        let body = [
            Str { src: Xreg(2), base: Xreg(1), off: 8 * core as i32, order: MemOrder::Plain },
            Ldr { dst: Xreg(3), base: Xreg(1), off: 8 - 8 * core as i32, order: MemOrder::Plain },
            AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
        ];
        let back =
            body.iter().map(HostInsn::encoded_len).sum::<usize>() + B { rel: 0 }.encoded_len();
        let mut code = vec![MovImm { dst: Xreg(1), imm: 0x5000 }];
        code.extend(body);
        code.push(B { rel: -(back as i32) });
        let host = m.install_code(&code);
        m.start_core(core as usize, host);
    }
    m
}
