//! End-to-end engine tests: every setup must agree with the reference
//! guest interpreter on data-race-free programs, threads must work, and
//! the dynamic host linker must transparently replace guest library code.

use risotto_core::{Emulator, HostLibrary, Idl, Setup};
use risotto_guest_x86::{syscalls, AluOp, Cond, GelfBuilder, Gpr, GuestBinary, Interp};
use risotto_host_arm::{CostModel, NativeResult};

fn run_all_setups(bin: &GuestBinary, cores: usize) -> Vec<(Setup, risotto_core::Report)> {
    Setup::ALL
        .iter()
        .map(|&s| {
            let mut emu = Emulator::new(bin, s, cores, CostModel::thunderx2_like());
            let r = emu.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            (s, r)
        })
        .collect()
}

/// Fibonacci via an iterative loop: exercises ALU, branches, flags.
fn fib_binary(n: u64) -> GuestBinary {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.mov_ri(Gpr::RBX, 1);
    b.asm.mov_ri(Gpr::RCX, n);
    b.asm.label("loop");
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::E, "done");
    b.asm.mov_rr(Gpr::RDX, Gpr::RAX);
    b.asm.alu_rr(AluOp::Add, Gpr::RDX, Gpr::RBX);
    b.asm.mov_rr(Gpr::RAX, Gpr::RBX);
    b.asm.mov_rr(Gpr::RBX, Gpr::RDX);
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.jmp_to("loop");
    b.asm.label("done");
    b.asm.hlt();
    b.finish().unwrap()
}

#[test]
fn fib_agrees_with_interpreter_across_all_setups() {
    let bin = fib_binary(30);
    let mut interp = Interp::new(&bin);
    interp.run(10_000_000).unwrap();
    let expected = interp.exit_val(0);
    assert_eq!(expected, 832040);
    for (s, r) in run_all_setups(&bin, 1) {
        assert_eq!(r.exit_vals[0], Some(expected), "{} disagrees", s.name());
    }
}

/// Memory, call/ret, push/pop, recursion.
#[test]
fn recursive_function_and_stack() {
    // sum(n) = n + sum(n-1), sum(0) = 0, recursive through the guest stack.
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RDI, 100);
    b.asm.call_to("sum");
    b.asm.hlt();
    b.asm.label("sum");
    b.asm.cmp_ri(Gpr::RDI, 0);
    b.asm.jcc_to(Cond::Ne, "rec");
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.ret();
    b.asm.label("rec");
    b.asm.push(Gpr::RDI);
    b.asm.alu_ri(AluOp::Sub, Gpr::RDI, 1);
    b.asm.call_to("sum");
    b.asm.pop(Gpr::RDI);
    b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RDI);
    b.asm.ret();
    let bin = b.finish().unwrap();

    let mut interp = Interp::new(&bin);
    interp.run(10_000_000).unwrap();
    assert_eq!(interp.exit_val(0), 5050);
    for (s, r) in run_all_setups(&bin, 1) {
        assert_eq!(r.exit_vals[0], Some(5050), "{} disagrees", s.name());
    }
}

/// Multi-threaded atomic counter: 4 threads × 1000 `LOCK XADD`s each.
#[test]
fn threaded_counter() {
    let mut b = GelfBuilder::new("main");
    let counter = b.data_u64(&[0]);
    b.asm.label("main");
    for stash in [Gpr(3), Gpr(12), Gpr(13)] {
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "worker");
        b.asm.mov_ri(Gpr::RSI, 0);
        b.asm.syscall();
        b.asm.mov_rr(stash, Gpr::RAX);
    }
    b.asm.call_to("body");
    for stash in [Gpr(3), Gpr(12), Gpr(13)] {
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.mov_rr(Gpr::RDI, stash);
        b.asm.syscall();
    }
    b.asm.mov_ri(Gpr::RDI, counter);
    b.asm.load(Gpr::RAX, Gpr::RDI, 0);
    b.asm.hlt();
    b.asm.label("worker");
    b.asm.call_to("body");
    b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
    b.asm.mov_ri(Gpr::RDI, 0);
    b.asm.syscall();
    b.asm.label("body");
    b.asm.mov_ri(Gpr::RDI, counter);
    b.asm.mov_ri(Gpr::RCX, 1000);
    b.asm.label("loop");
    b.asm.mov_ri(Gpr::RDX, 1);
    b.asm.xadd(Gpr::RDI, 0, Gpr::RDX);
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "loop");
    b.asm.ret();
    let bin = b.finish().unwrap();

    for (s, r) in run_all_setups(&bin, 4) {
        assert_eq!(r.exit_vals[0], Some(4000), "{}: lost updates", s.name());
    }
}

/// A spinlock built on LOCK CMPXCHG protecting a plain counter: the
/// translated code's fences/atomics must make this correct on the host.
#[test]
fn cmpxchg_spinlock_protects_counter() {
    let mut b = GelfBuilder::new("main");
    let lock = b.data_u64(&[0]);
    let counter = b.data_u64(&[0]);
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
    b.asm.mov_label(Gpr::RDI, "worker");
    b.asm.mov_ri(Gpr::RSI, 0);
    b.asm.syscall();
    b.asm.mov_rr(Gpr(3), Gpr::RAX);
    b.asm.call_to("body");
    b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
    b.asm.mov_rr(Gpr::RDI, Gpr(3));
    b.asm.syscall();
    b.asm.mov_ri(Gpr::RDI, counter);
    b.asm.load(Gpr::RAX, Gpr::RDI, 0);
    b.asm.hlt();

    b.asm.label("worker");
    b.asm.call_to("body");
    b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
    b.asm.mov_ri(Gpr::RDI, 0);
    b.asm.syscall();

    b.asm.label("body");
    b.asm.mov_ri(Gpr(12), 500); // iterations
    b.asm.label("iter");
    // acquire lock
    b.asm.mov_ri(Gpr::RSI, 1);
    b.asm.mov_ri(Gpr(13), lock);
    b.asm.label("spin");
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.cmpxchg(Gpr(13), 0, Gpr::RSI);
    b.asm.jcc_to(Cond::Ne, "spin");
    // critical section: plain read-modify-write
    b.asm.mov_ri(Gpr::RDI, counter);
    b.asm.load(Gpr::RDX, Gpr::RDI, 0);
    b.asm.alu_ri(AluOp::Add, Gpr::RDX, 1);
    b.asm.store(Gpr::RDI, 0, Gpr::RDX);
    // release lock (plain store; x86 TSO release)
    b.asm.mov_ri(Gpr::RDX, 0);
    b.asm.store(Gpr(13), 0, Gpr::RDX);
    b.asm.alu_ri(AluOp::Sub, Gpr(12), 1);
    b.asm.cmp_ri(Gpr(12), 0);
    b.asm.jcc_to(Cond::Ne, "iter");
    b.asm.ret();
    let bin = b.finish().unwrap();

    // The incorrect no-fences setup may or may not lose updates on our
    // TSO-operational host; the four *correct-on-this-host* setups must
    // never lose one.
    for s in [Setup::Qemu, Setup::TcgVer, Setup::Risotto, Setup::Native] {
        let mut emu = Emulator::new(&bin, s, 2, CostModel::thunderx2_like());
        let r = emu.run(50_000_000).unwrap();
        assert_eq!(r.exit_vals[0], Some(1000), "{}: spinlock failed", s.name());
    }
}

/// Host linking: a guest binary importing `triple` runs its guest
/// implementation under qemu/tcg-ver but the native one under risotto.
#[test]
fn dynamic_host_linker_redirects_plt_calls() {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RDI, 14);
    b.call_plt("triple");
    b.asm.hlt();
    // Guest implementation: deliberately different from the host's
    // (computes x*3 + 1) so we can tell which ran.
    b.plt_stub("triple", "guest_triple");
    b.asm.label("guest_triple");
    b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
    b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 3);
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
    b.asm.ret();
    let bin = b.finish().unwrap();

    let idl = Idl::parse("u64 triple(u64);").unwrap();
    let lib = || {
        HostLibrary::new("libtriple").export(
            "triple",
            1,
            Box::new(|_mem: &mut risotto_guest_x86::SparseMem, args: &[u64; 6]| NativeResult {
                ret: args[0] * 3,
                cost: 5,
            }),
        )
    };

    // Without linking (qemu): guest implementation runs (x*3+1).
    let mut emu = Emulator::new(&bin, Setup::Qemu, 1, CostModel::thunderx2_like());
    let linked = emu.link_library(&bin, &idl, lib()).unwrap();
    assert!(linked.is_empty(), "qemu setup must not link");
    let r = emu.run(1_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(43));

    // With linking (risotto): the native library runs (x*3).
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let linked = emu.link_library(&bin, &idl, lib()).unwrap();
    assert_eq!(linked, vec!["triple".to_string()]);
    let r = emu.run(1_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(42));
    assert_eq!(emu.metrics().counter("exec.native_calls"), 1);
}

/// Performance sanity: the setups must order as the paper's Fig. 12
/// (no-fences < tcg-ver = risotto < qemu, native fastest) on a
/// memory-heavy single-thread kernel.
#[test]
fn setup_performance_ordering_matches_fig12() {
    // Memory-heavy loop: load, add, store over an array.
    let mut b = GelfBuilder::new("main");
    let arr = b.data_zeroed(8 * 64);
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 2000);
    b.asm.label("outer");
    b.asm.mov_ri(Gpr::RDI, arr);
    b.asm.mov_ri(Gpr::RSI, 64);
    b.asm.label("inner");
    b.asm.load(Gpr::RAX, Gpr::RDI, 0);
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
    b.asm.store(Gpr::RDI, 0, Gpr::RAX);
    b.asm.alu_ri(AluOp::Add, Gpr::RDI, 8);
    b.asm.alu_ri(AluOp::Sub, Gpr::RSI, 1);
    b.asm.cmp_ri(Gpr::RSI, 0);
    b.asm.jcc_to(Cond::Ne, "inner");
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.cmp_ri(Gpr::RCX, 0);
    b.asm.jcc_to(Cond::Ne, "outer");
    b.asm.hlt();
    let bin = b.finish().unwrap();

    let cycles: std::collections::HashMap<&str, u64> =
        run_all_setups(&bin, 1).into_iter().map(|(s, r)| (s.name(), r.cycles)).collect();
    assert!(cycles["no-fences"] < cycles["tcg-ver"], "{cycles:?}");
    assert!(cycles["tcg-ver"] < cycles["qemu"], "{cycles:?}");
    assert!(cycles["risotto"] <= cycles["tcg-ver"], "{cycles:?}");
    assert!(cycles["native"] < cycles["no-fences"], "{cycles:?}");
}
