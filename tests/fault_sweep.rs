//! Fault-injection sweep and graceful-degradation tests.
//!
//! The robustness contract, one per fault site: under a plan of the one
//! generator (`risotto_fuzz::fault_plan`) a run passes the same run check
//! as a fault-free one (`risotto_fuzz::run_checked`), and only a plan
//! that rejects a syscall may end it instead, in that typed
//! [`EmuError`]. The sweep is the functional matrix's
//! ([`fault_sweep`]); the tests after it each pin one recovery path.

mod theorem1;

use risotto::core::{EmuConfig, EmuError, Emulator, FaultPlan, FaultSite, Setup};
use risotto::guest::{syscalls, AluOp, Cond, GelfBuilder, Gpr, GuestBinary};
use risotto::host::CostModel;
use theorem1::functional::{fault_sweep, FaultSlice};

const FUEL: u64 = 200_000_000;

fn cost() -> CostModel {
    CostModel::thunderx2_like()
}

/// An emulator that runs `bin` under the fault plan `fault_plan`.
fn faulted(bin: &GuestBinary, setup: Setup, cores: usize, fault_plan: FaultPlan) -> Emulator {
    Emulator::with_config(bin, setup, cores, EmuConfig { fault_plan, ..EmuConfig::default() })
}

/// Every leg on the kernels, the CAS grid, the reproducers and the
/// hand-assembled program, one plan per case, the site rotating.
#[test]
fn seeded_fault_sweep_never_diverges_silently() {
    fault_sweep(FaultSlice::Table);
}

/// Counts to `n` in a loop (exit value = n), with a WRITE on the way.
/// The loop head is its own revisited block (label `loop`); with
/// `gettid_each_iter` every iteration also performs a syscall, so the
/// engine's event loop runs once per iteration.
fn counting_binary(n: u64, gettid_each_iter: bool) -> GuestBinary {
    let mut b = GelfBuilder::new("main");
    let msg = b.data_bytes(b"ok\n");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
    b.asm.mov_ri(Gpr::RDI, 1);
    b.asm.mov_ri(Gpr::RSI, msg);
    b.asm.mov_ri(Gpr::RDX, 3);
    b.asm.syscall();
    b.asm.mov_ri(Gpr::RBX, 0);
    b.asm.mov_ri(Gpr::RCX, n);
    b.asm.label("loop");
    if gettid_each_iter {
        b.asm.mov_ri(Gpr::RAX, syscalls::GETTID);
        b.asm.syscall();
    }
    b.asm.alu_ri(AluOp::Add, Gpr::RBX, 1);
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "loop");
    b.asm.mov_rr(Gpr::RAX, Gpr::RBX);
    b.asm.hlt();
    b.finish().unwrap()
}

/// A block whose translation always fails is interpreted instead; the
/// run completes with the right answer, reports the fallback, and the
/// re-translation retries are bounded (not one per loop iteration).
#[test]
fn translate_fault_falls_back_to_interpreter() {
    let bin = counting_binary(500, false);
    let loop_pc = bin.symbols["loop"];
    for setup in Setup::ALL {
        let mut emu = faulted(&bin, setup, 1, FaultPlan::seeded(3).fail_translate_at(loop_pc));
        let r = emu.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", setup.name()));
        assert_eq!(r.exit_vals[0], Some(500), "{}", setup.name());
        assert_eq!(r.output, b"ok\n", "{}", setup.name());
        let m = emu.metrics();
        let retranslations = m.counter("translate.retranslations");
        assert!(m.counter("translate.fallback_blocks") >= 1, "{}: no fallback", setup.name());
        assert!(
            (1..=4).contains(&retranslations),
            "{}: retries not bounded: {retranslations}",
            setup.name()
        );
    }
}

/// Fuel counts machine steps and interpreted instructions together, in
/// the fallback as in the run loop: a spin loop that is always
/// interpreted, reached after a translated loop, stops once the two add
/// up to the fuel, not after another full fuel of interpretation.
#[test]
fn interpreted_loop_after_translated_code_stops_at_the_fuel() {
    let fuel = 50_000;
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 1_000);
    b.asm.label("count");
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "count");
    b.asm.label("spin");
    b.asm.alu_ri(AluOp::Add, Gpr::RBX, 1);
    b.asm.jmp_to("spin");
    let bin = b.finish().unwrap();
    for setup in Setup::ALL {
        let mut emu =
            faulted(&bin, setup, 1, FaultPlan::seeded(6).fail_translate_at(bin.symbols["spin"]));
        assert!(matches!(emu.run(fuel), Err(EmuError::OutOfFuel)), "{}", setup.name());
        let m = emu.metrics();
        let (steps, interpreted) = (m.counter("exec.insns"), m.counter("translate.interp_steps"));
        assert!(steps > 3_000 && interpreted > 0, "{}: {steps} + {interpreted}", setup.name());
        assert!(steps + interpreted <= fuel, "{}: {steps} + {interpreted}", setup.name());
    }
}

/// Backend (lowering) faults degrade the same way as frontend faults.
#[test]
fn lower_fault_falls_back_to_interpreter() {
    let bin = counting_binary(500, false);
    let mut emu =
        faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(4).fail_lower_at(bin.symbols["loop"]));
    let r = emu.run(FUEL).unwrap();
    assert_eq!(r.exit_vals[0], Some(500));
    assert!(emu.metrics().counter("translate.fallback_blocks") >= 1);
}

/// Detected TB corruption discards the entry and re-translates it; the
/// result is unchanged and the refill is counted.
#[test]
fn tb_corruption_is_retranslated() {
    let bin = counting_binary(500, true);
    let mut emu =
        faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(5).corrupt_tb_at(bin.symbols["loop"]));
    let r = emu.run(FUEL).unwrap();
    assert_eq!(r.exit_vals[0], Some(500));
    assert_eq!(r.output, b"ok\n");
    let m = emu.metrics();
    assert!(m.counter("translate.retranslations") >= 1, "corruption refill not counted");
    assert_eq!(
        m.counter("translate.fallback_blocks"),
        0,
        "corruption must not force interpretation"
    );
}

/// The PR-1 failure model meets TB chaining: corrupting (→ unmapping) the
/// loop-head TB *after it has been chained into* must unlink the chain —
/// the core takes a dispatcher miss and re-translates instead of running
/// the stale body. A still-patched chain would show up as a completed run
/// with zero retranslations (and, under eviction-with-replacement, as a
/// wrong count).
#[test]
fn unmapping_a_chained_into_tb_forces_retranslation() {
    // Counts to `n`; on iteration `k` only, performs a GETTID syscall.
    // The loop back-edge chains into the loop head during the event-free
    // iterations before `k`, so the one-shot corruption (which the engine
    // applies at the next event) hits a TB that is *already chained into*.
    let (n, k) = (500u64, 10u64);
    let mut b = GelfBuilder::new("main");
    let msg = b.data_bytes(b"ok\n");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
    b.asm.mov_ri(Gpr::RDI, 1);
    b.asm.mov_ri(Gpr::RSI, msg);
    b.asm.mov_ri(Gpr::RDX, 3);
    b.asm.syscall();
    b.asm.mov_ri(Gpr::RBX, 0);
    b.asm.label("loop");
    b.asm.alu_ri(AluOp::Add, Gpr::RBX, 1);
    b.asm.cmp_ri(Gpr::RBX, k);
    b.asm.jcc_to(Cond::Ne, "skip");
    b.asm.mov_ri(Gpr::RAX, syscalls::GETTID);
    b.asm.syscall();
    b.asm.label("skip");
    b.asm.cmp_ri(Gpr::RBX, n);
    b.asm.jcc_to(Cond::Ne, "loop");
    b.asm.mov_rr(Gpr::RAX, Gpr::RBX);
    b.asm.hlt();
    let bin = b.finish().unwrap();

    let loop_pc = bin.symbols["loop"];
    let mut emu = faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(5).corrupt_tb_at(loop_pc));
    let r = emu.run(FUEL).unwrap();
    assert_eq!(r.exit_vals[0], Some(n));
    assert_eq!(r.output, b"ok\n");
    let m = emu.metrics();
    assert!(m.counter("chain.links") >= 2, "the loop edges were never chained");
    assert!(
        m.counter("chain.flushes") >= 1,
        "unmapping the chained-into TB must unlink its incoming chains"
    );
    assert!(
        m.counter("translate.retranslations") >= 1,
        "after the unlink the dispatcher must miss and re-translate"
    );
}

/// Satellite: retranslation churn must not grow the host code buffer
/// without bound. Under heavy eviction pressure the buffer stays within a
/// small factor of the fault-free footprint, because unmapped regions are
/// reclaimed and reused.
#[test]
fn high_churn_eviction_keeps_the_code_buffer_bounded() {
    let bin = counting_binary(2_000, true);
    let baseline = {
        let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
        emu.run(FUEL).unwrap().code_bytes
    };
    let mut emu =
        faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(7).rate(FaultSite::TbCache, 4000));
    let r = emu.run(FUEL).unwrap();
    assert_eq!(r.exit_vals[0], Some(2_000));
    assert!(
        emu.metrics().counter("translate.retranslations") >= 20,
        "eviction pressure too low to test reclamation"
    );
    assert!(
        r.code_bytes <= baseline * 2,
        "code buffer grew without bound under churn: {} vs fault-free {}",
        r.code_bytes,
        baseline
    );
}

/// Injected syscall-layer faults are non-recoverable and typed, with the
/// failing layer, core, and guest pc attached.
#[test]
fn syscall_fault_is_a_typed_error() {
    let bin = counting_binary(10, false);
    let mut emu = faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(6).fail_syscall_at(0));
    match emu.run(FUEL) {
        Err(EmuError::Injected { site: FaultSite::Syscall, core: 0, pc }) => {
            assert!(pc > 0, "guest pc missing from the error");
        }
        other => panic!("expected an injected syscall error, got {other:?}"),
    }
}

/// A guest spin-loop makes no observable progress: with the watchdog
/// armed, the run fails with [`EmuError::Stalled`] and a per-core dump.
#[test]
fn watchdog_catches_a_spin_loop() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.label("spin");
    b.asm.jmp_to("spin");
    let bin = b.finish().unwrap();
    let config = EmuConfig { watchdog: Some(5_000), ..EmuConfig::default() };
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, config);
    match emu.run(FUEL) {
        Err(EmuError::Stalled { steps, cores }) => {
            assert!(steps >= 5_000, "fired early at {steps}");
            assert_eq!(cores.len(), 2, "dump missing cores");
            assert!(!cores[0].halted, "spinning core reported halted");
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

/// The watchdog is quiet on a run that finishes: progress markers (new
/// TBs, syscalls, exits) keep resetting it.
#[test]
fn watchdog_does_not_fire_on_progressing_runs() {
    let bin = counting_binary(2_000, false);
    let config = EmuConfig { watchdog: Some(1_000_000), ..EmuConfig::default() };
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, config);
    let r = emu.run(FUEL).unwrap();
    assert_eq!(r.exit_vals[0], Some(2_000));
}

/// Undecodable guest bytes are not maskable by the fallback: the
/// interpreter hits the same bytes, and the run fails with a typed
/// translation error carrying the pc — even with fault injection active.
#[test]
fn undecodable_bytes_stay_a_typed_error_under_faults() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 0xdead_0000);
    b.asm.insn(risotto::guest::Insn::JmpReg { reg: Gpr::RAX });
    let bin = b.finish().unwrap();
    let mut emu =
        faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(8).rate(FaultSite::Translate, 30_000));
    match emu.run(FUEL) {
        Err(EmuError::Translate { source, .. }) => assert_eq!(source.pc, 0xdead_0000),
        other => panic!("expected a translation error, got {other:?}"),
    }
}

/// Failed host-library links fall back to the translated guest
/// implementation: same observable result, no native calls.
#[test]
fn failed_host_link_uses_guest_implementation() {
    use risotto::core::Idl;
    use risotto::nativelib::hostlibs;
    use risotto::workloads::libbench::{digest_bench, DigestAlgo};
    let bin = digest_bench(DigestAlgo::Sha256, 128, 1);
    let idl = Idl::parse(hostlibs::IDL_TEXT).unwrap();

    // Fault-free linked run (native digest).
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    let linked = emu.link_library(&bin, &idl, hostlibs::libcrypto()).unwrap();
    assert!(linked.contains(&"sha256".to_string()));
    let native = emu.run(FUEL).unwrap();
    assert!(emu.metrics().counter("exec.native_calls") >= 1);

    // Injected link failure for sha256: validation still passes, the
    // import silently stays on the translated guest code path.
    let mut emu = faulted(&bin, Setup::Risotto, 1, FaultPlan::seeded(9).fail_host_call("sha256"));
    let linked = emu.link_library(&bin, &idl, hostlibs::libcrypto()).unwrap();
    assert!(!linked.contains(&"sha256".to_string()));
    let guest = emu.run(FUEL).unwrap();
    assert_eq!(guest.exit_vals[0], native.exit_vals[0], "digest changed");
    assert_eq!(emu.metrics().counter("exec.native_calls"), 0);
}

/// With (nearly) every translation failing, whole programs run through
/// the interpreter fallback — the reference semantics executing over the
/// env-in-machine-memory guest state — and must pass the run check, on
/// the kernels and the checked-in fuzz corpus.
#[test]
fn forced_fallback_matches_the_interpreter_on_kernels_and_corpus() {
    fault_sweep(FaultSlice::Fallback);
}
