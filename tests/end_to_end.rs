//! Workspace-level integration tests spanning every crate: built GELF
//! images through the DBT, guest I/O, error paths, and cross-setup
//! agreement on library-heavy programs and (the native and Arm tier-1
//! legs of the functional oracle in `theorem1/functional.rs`) on every
//! kernel, CAS-grid and reproducer program.

mod theorem1;

use risotto::core::{EmuConfig, EmuError, Emulator, FaultPlan, FaultSite, Idl, Setup};
use risotto::guest::{
    syscalls, AluOp, Cond, GelfBuilder, Gpr, GuestBinary, Interp, InterpError, DATA_BASE,
};
use risotto::host::CostModel;
use risotto::nativelib::hostlibs;

fn cost() -> CostModel {
    CostModel::thunderx2_like()
}

/// Native and the chained Arm tier-1 legs, analysis off, on every
/// kernel at scales 4 and 8: each run ends as the reference interpreter
/// ends.
#[test]
fn all_kernels_agree_across_setups() {
    theorem1::functional::sweep(theorem1::functional::Slice::Tier1Arm);
}

/// The same legs on the CAS grid (whose total the interpreter must also
/// compute) and the checked-in fuzz reproducers.
#[test]
fn cas_bench_agrees_across_setups() {
    theorem1::functional::sweep(theorem1::functional::Slice::Tier1ArmCasAndCorpus);
}

/// A built GELF image carries everything the DBT needs (text, data, an
/// import through its PLT stub).
#[test]
fn gelf_image_with_an_import_runs_through_the_dbt() {
    let mut b = GelfBuilder::new("main");
    let cell = b.data_u64(&[5]);
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RDI, cell);
    b.call_plt("triple");
    b.asm.hlt();
    b.plt_stub("triple", "impl_triple");
    b.asm.label("impl_triple");
    b.asm.load(Gpr::RAX, Gpr::RDI, 0);
    b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 3);
    b.asm.ret();
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    let r = emu.run(1_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(15));
}

/// The WRITE syscall's bytes surface in the report, identically across
/// setups.
#[test]
fn guest_output_is_captured() {
    let mut b = GelfBuilder::new("main");
    let msg = b.data_bytes(b"hello from the guest\n");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
    b.asm.mov_ri(Gpr::RDI, 1);
    b.asm.mov_ri(Gpr::RSI, msg);
    b.asm.mov_ri(Gpr::RDX, 21);
    b.asm.syscall();
    b.asm.hlt();
    let bin = b.finish().unwrap();
    for setup in Setup::ALL {
        let mut emu = Emulator::new(&bin, setup, 1, cost());
        let r = emu.run(1_000_000).unwrap();
        assert_eq!(r.output, b"hello from the guest\n", "{}", setup.name());
    }
}

/// Jumping into garbage raises a translation error, not a panic.
#[test]
fn bad_code_is_a_translate_error() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 0xdead_0000);
    b.asm.insn(risotto::guest::Insn::JmpReg { reg: Gpr::RAX });
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    match emu.run(1_000_000) {
        Err(EmuError::Translate { source, core, .. }) => {
            assert_eq!(source.pc, 0xdead_0000);
            assert_eq!(core, Some(0));
        }
        other => panic!("expected a translation error, got {other:?}"),
    }
}

/// Unknown syscalls and invalid joins are reported as errors.
#[test]
fn bad_syscalls_are_reported() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 999);
    b.asm.syscall();
    b.asm.hlt();
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Qemu, 1, cost());
    assert!(matches!(emu.run(1_000_000), Err(EmuError::BadSyscall { n: 999, core: 0, .. })));

    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
    b.asm.mov_ri(Gpr::RDI, 7); // no such thread
    b.asm.syscall();
    b.asm.hlt();
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Qemu, 2, cost());
    assert!(matches!(emu.run(1_000_000), Err(EmuError::BadJoin { tid: 7, core: 0, .. })));
}

/// Runaway guests exhaust fuel instead of hanging.
#[test]
fn infinite_loop_exhausts_fuel() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.jmp_to("main");
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    assert!(matches!(emu.run(10_000), Err(EmuError::OutOfFuel)));
}

/// Spawning more threads than cores fails cleanly.
#[test]
fn spawn_beyond_cores_fails() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    for _ in 0..3 {
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "child");
        b.asm.mov_ri(Gpr::RSI, 0);
        b.asm.syscall();
    }
    b.asm.hlt();
    b.asm.label("child");
    b.asm.label("spin");
    b.asm.jmp_to("spin");
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 2, cost());
    assert!(matches!(emu.run(10_000_000), Err(EmuError::TooManyThreads { .. })));
}

/// A guest program that uses *all three* host libraries in one run, with
/// linking — results identical to the unlinked (translated) run.
#[test]
fn mixed_library_program_linked_and_unlinked_agree() {
    use risotto::nativelib::guest;
    let mut b = GelfBuilder::new("main");
    let buf = b.data_bytes(&[7u8; 256]);
    let out = b.data_zeroed(64);
    b.asm.label("main");
    // digest
    b.asm.mov_ri(Gpr::RDI, buf);
    b.asm.mov_ri(Gpr::RSI, 256);
    b.asm.mov_ri(Gpr::RDX, out);
    b.call_plt("sha1");
    // kv: store first digest word under key 1, read it back
    b.asm.mov_ri(Gpr::RCX, out);
    b.asm.load(Gpr::RSI, Gpr::RCX, 0);
    b.asm.mov_ri(Gpr::RDI, 1);
    b.call_plt("kv_put");
    b.asm.mov_ri(Gpr::RDI, 1);
    b.call_plt("kv_get");
    b.asm.mov_rr(Gpr::R15, Gpr::RAX);
    // math: add trunc(1000·cos(0.5))
    b.asm.mov_ri(Gpr::RDI, 0.5f64.to_bits());
    b.call_plt("cos");
    b.asm.mov_ri(Gpr::RCX, 1000.0f64.to_bits());
    b.asm.fp(risotto::guest::FpOp::Mul, Gpr::RAX, Gpr::RCX);
    b.asm.fp(risotto::guest::FpOp::CvtFI, Gpr::RDX, Gpr::RAX);
    b.asm.alu_rr(AluOp::Add, Gpr::R15, Gpr::RDX);
    b.asm.mov_rr(Gpr::RAX, Gpr::R15);
    b.asm.hlt();
    b.plt_stub("sha1", "guest_sha1");
    b.plt_stub("kv_put", "guest_kv_put");
    b.plt_stub("kv_get", "guest_kv_get");
    b.plt_stub("cos", "guest_cos");
    guest::emit_sha1(&mut b);
    guest::emit_kv(&mut b);
    guest::emit_math(&mut b);
    let bin = b.finish().unwrap();

    // Reference (translated guest libraries).
    let mut interp = Interp::new(&bin);
    interp.run(100_000_000).unwrap();
    let expect = interp.exit_val(0);

    // tcg-ver: translated.
    let mut emu = Emulator::new(&bin, Setup::TcgVer, 1, cost());
    let r = emu.run(1_000_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(expect));

    // risotto: linked; sha1/kv parts are bit-identical, cos is a different
    // build — compare the kv/digest part only by masking the math term
    // through a tolerance: recompute both ways.
    let idl = Idl::parse(hostlibs::IDL_TEXT).unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    for lib in [hostlibs::libcrypto(), hostlibs::libkv(), hostlibs::libm()] {
        emu.link_library(&bin, &idl, lib).unwrap();
    }
    let r = emu.run(1_000_000_000).unwrap();
    let got = r.exit_vals[0].unwrap();
    // cos kernels agree to ~1e-9, so trunc(1000·cos) matches exactly here.
    assert_eq!(got, expect, "linked and translated runs disagree");
    assert!(emu.metrics().counter("exec.native_calls") >= 4);
}

/// Loops that straddle translation-block boundaries chain correctly: a
/// long unrolled body exceeding MAX_TB_INSNS still computes the right sum.
#[test]
fn long_blocks_split_and_chain() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 0);
    // 200 straight-line adds: > MAX_TB_INSNS (64), forcing TB splits.
    for i in 0..200u64 {
        b.asm.alu_ri(AluOp::Add, Gpr::RAX, i);
    }
    b.asm.hlt();
    let bin = b.finish().unwrap();
    let expect: u64 = (0..200).sum();
    for setup in Setup::ALL {
        let mut emu = Emulator::new(&bin, setup, 1, cost());
        let r = emu.run(10_000_000).unwrap();
        assert_eq!(r.exit_vals[0], Some(expect), "{}", setup.name());
        if setup == Setup::Qemu {
            assert!(r.tb_count >= 3, "expected multiple TBs, got {}", r.tb_count);
        }
    }
}

/// The report's code-size and TB-count fields are plausible and the
/// translation cache actually caches (loop bodies translate once).
#[test]
fn translation_cache_reuses_blocks() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 10_000);
    b.asm.label("loop");
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "loop");
    b.asm.hlt();
    let bin = b.finish().unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, cost());
    let r = emu.run(10_000_000).unwrap();
    assert!(r.tb_count <= 4, "10k iterations must reuse the cached TB, got {}", r.tb_count);
    assert!(r.code_bytes > 0);
    assert!(emu.metrics().counter("exec.insns") > 10_000);
}

/// The four ways one guest program executes: the reference interpreter
/// aside, tier-1 (the default), tier-0 templates only, and the fallback
/// interpreter behind a plan that fails (nearly) every translation.
fn dbt_paths(bin: &GuestBinary) -> [(&'static str, Emulator); 3] {
    let fallback = FaultPlan::seeded(1).rate(FaultSite::Translate, 65535);
    [
        ("tier-1", EmuConfig::default()),
        ("tier-0", EmuConfig { warm_threshold: Some(u64::MAX), ..EmuConfig::default() }),
        ("fallback", EmuConfig { fault_plan: fallback, ..EmuConfig::default() }),
    ]
    .map(|(path, config)| (path, Emulator::with_config(bin, Setup::Risotto, 1, config)))
}

/// The WRITE length is a guest register: a length no buffer could have
/// is a bad syscall on every path, not an allocation of that size.
#[test]
fn oversized_write_is_a_typed_error() {
    let mut b = GelfBuilder::new("main");
    let msg = b.data_bytes(b"x");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
    b.asm.mov_ri(Gpr::RDI, 1);
    b.asm.mov_ri(Gpr::RSI, msg);
    b.asm.mov_ri(Gpr::RDX, 1 << 60);
    b.asm.syscall();
    b.asm.hlt();
    let bin = b.finish().unwrap();

    let mut interp = Interp::new(&bin);
    assert_eq!(interp.run(1_000), Err(InterpError::BadSyscall(syscalls::WRITE)));
    for (path, mut emu) in dbt_paths(&bin) {
        match emu.run(1_000_000) {
            Err(EmuError::BadSyscall { n: syscalls::WRITE, core: 0, .. }) => {}
            other => panic!("{path}: expected a bad-syscall error, got {other:?}"),
        }
    }
}

/// A 64-bit access four bytes below the top of the address space wraps
/// to address zero — the same bytes on the interpreter and on every DBT
/// path, in debug and release builds alike.
#[test]
fn access_wrapping_the_address_space_agrees_everywhere() {
    let mut b = GelfBuilder::new("main");
    let out = b.data_u64(&[0, 0]);
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RSI, u64::MAX - 3);
    b.asm.mov_ri(Gpr::RBX, 0x1122_3344_5566_7788);
    b.asm.mov_ri(Gpr::RDI, 0);
    b.asm.store(Gpr::RSI, 0, Gpr::RBX);
    // A byte of the wrapped half, read while the store may still sit in
    // the core's store buffer: the first access after it.
    b.asm.load_b(Gpr::RDX, Gpr::RDI, 1);
    b.asm.load(Gpr::RCX, Gpr::RDI, 0); // the four bytes that wrapped
    b.asm.load(Gpr::RAX, Gpr::RSI, 0);
    b.asm.mov_ri(Gpr::RDI, out);
    b.asm.store(Gpr::RDI, 0, Gpr::RCX);
    b.asm.store(Gpr::RDI, 8, Gpr::RDX);
    b.asm.hlt();
    let bin = b.finish().unwrap();

    let mut interp = Interp::new(&bin);
    interp.run(1_000).unwrap();
    assert_eq!(interp.exit_val(0), 0x1122_3344_5566_7788);
    assert_eq!(interp.mem.read_u64(DATA_BASE), 0x1122_3344);
    assert_eq!(interp.mem.read_u64(DATA_BASE + 8), 0x33);
    for (path, mut emu) in dbt_paths(&bin) {
        let r = emu.run(1_000_000).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(r.exit_vals[0], Some(interp.exit_val(0)), "{path}: loaded value");
        assert_eq!(emu.mem().read_u64(DATA_BASE), 0x1122_3344, "{path}: wrapped bytes");
        assert_eq!(emu.mem().read_u64(DATA_BASE + 8), 0x33, "{path}: wrapped byte");
    }
}
