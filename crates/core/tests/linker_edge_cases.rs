//! Dynamic-linker edge cases (§6.2): typed link errors (unknown exports,
//! duplicates, arity mismatches), link atomicity, missing imports, and
//! argument-count marshaling.

use risotto_core::{Emulator, HostLibrary, Idl, LinkError, Setup};
use risotto_guest_x86::{AluOp, GelfBuilder, Gpr};
use risotto_host_arm::{CostModel, NativeResult};

/// A library of `(name, arity, mult)` exports; each returns the sum of
/// its (marshaled) arguments times `mult`.
fn lib_with(funcs: Vec<(&str, usize, u64)>) -> HostLibrary {
    funcs.into_iter().fold(HostLibrary::new("test"), |lib, (name, arity, mult)| {
        lib.export(
            name,
            arity,
            Box::new(move |_m, args: &[u64; 6]| NativeResult {
                ret: args.iter().sum::<u64>() * mult,
                cost: 3,
            }),
        )
    })
}

/// Builds a binary importing `f` and `g`; guest impls return distinct
/// values so we can tell which path ran.
fn two_import_binary() -> risotto_guest_x86::GuestBinary {
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RDI, 10);
    b.asm.mov_ri(Gpr::RSI, 1);
    b.call_plt("f");
    b.asm.mov_rr(Gpr::RBX, Gpr::RAX);
    b.asm.mov_ri(Gpr::RDI, 10);
    b.asm.mov_ri(Gpr::RSI, 1);
    b.call_plt("g");
    b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RBX);
    b.asm.hlt();
    b.plt_stub("f", "guest_f");
    b.plt_stub("g", "guest_g");
    b.asm.label("guest_f");
    b.asm.mov_ri(Gpr::RAX, 1000); // guest f: constant 1000
    b.asm.ret();
    b.asm.label("guest_g");
    b.asm.mov_ri(Gpr::RAX, 2000); // guest g: constant 2000
    b.asm.ret();
    b.finish().unwrap()
}

#[test]
fn export_outside_the_idl_is_a_typed_error_and_links_nothing() {
    let bin = two_import_binary();
    // IDL only describes `f`; the library also exports `g`, which the
    // linker cannot marshal without a signature. The whole library is
    // rejected atomically — even `f` stays on its guest implementation.
    let idl = Idl::parse("u64 f(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let err = emu.link_library(&bin, &idl, lib_with(vec![("f", 2, 7), ("g", 2, 9)])).unwrap_err();
    assert_eq!(err, LinkError::NotInIdl { library: "test".into(), symbol: "g".into() });
    let r = emu.run(10_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(3000), "all guest paths");
    assert_eq!(emu.metrics().counter("exec.native_calls"), 0);
}

#[test]
fn duplicate_export_is_a_typed_error() {
    let bin = two_import_binary();
    let idl = Idl::parse("u64 f(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let err = emu.link_library(&bin, &idl, lib_with(vec![("f", 2, 7), ("f", 2, 9)])).unwrap_err();
    assert_eq!(err, LinkError::DuplicateExport { library: "test".into(), symbol: "f".into() });
}

#[test]
fn arity_mismatch_is_a_typed_error() {
    let bin = two_import_binary();
    // IDL says f takes two arguments; the export claims one.
    let idl = Idl::parse("u64 f(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let err = emu.link_library(&bin, &idl, lib_with(vec![("f", 1, 7)])).unwrap_err();
    assert_eq!(
        err,
        LinkError::ArityMismatch { library: "test".into(), symbol: "f".into(), idl: 2, export: 1 }
    );
}

#[test]
fn validation_applies_even_when_host_linking_is_disabled() {
    // The qemu setup never links, but a malformed library is still a
    // caller bug — it must be reported, not silently ignored.
    let bin = two_import_binary();
    let idl = Idl::parse("u64 f(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Qemu, 1, CostModel::thunderx2_like());
    assert!(matches!(
        emu.link_library(&bin, &idl, lib_with(vec![("nope", 1, 1)])),
        Err(LinkError::NotInIdl { .. })
    ));
    // A well-formed library under qemu: validated, then a no-op.
    let linked = emu.link_library(&bin, &idl, lib_with(vec![("f", 2, 7)])).unwrap();
    assert!(linked.is_empty());
}

#[test]
fn library_exports_not_imported_are_ignored() {
    let bin = two_import_binary();
    let idl = Idl::parse("u64 f(u64, u64);\nu64 g(u64, u64);\nu64 h(u64);").unwrap();
    // The library exports `h`, which the binary never imports: no link,
    // no crash.
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let linked = emu.link_library(&bin, &idl, lib_with(vec![("h", 1, 3)])).unwrap();
    assert!(linked.is_empty());
    let r = emu.run(10_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(3000), "all guest paths");
}

#[test]
fn marshaling_passes_exactly_the_declared_arity() {
    // Declare f with a single parameter: the second guest argument must
    // NOT reach the native function (it sees 0 there).
    let bin = two_import_binary();
    let idl = Idl::parse("u64 f(u64);\nu64 g(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    let linked = emu.link_library(&bin, &idl, lib_with(vec![("f", 1, 1), ("g", 2, 1)])).unwrap();
    assert_eq!(linked.len(), 2);
    let r = emu.run(10_000_000).unwrap();
    // f: only RDI=10 marshaled → 10; g: 10+1 → 11.
    assert_eq!(r.exit_vals[0], Some(10 + 11));
}

#[test]
fn linking_twice_is_idempotent_per_symbol() {
    let bin = two_import_binary();
    let idl = Idl::parse("u64 f(u64, u64);\nu64 g(u64, u64);").unwrap();
    let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
    emu.link_library(&bin, &idl, lib_with(vec![("f", 2, 7)])).unwrap();
    // Second library also exports f (and g): f is re-bound (last wins,
    // like LD_PRELOAD ordering), g links fresh.
    emu.link_library(&bin, &idl, lib_with(vec![("f", 2, 5), ("g", 2, 5)])).unwrap();
    let r = emu.run(10_000_000).unwrap();
    assert_eq!(r.exit_vals[0], Some(11 * 5 + 11 * 5));
}
