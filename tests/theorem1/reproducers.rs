//! The checked-in fuzz reproducers: minimized or hand-written programs
//! of known-tricky shapes (docs/FUZZING.md), each a `ProgSpec`
//! constructor as `risotto_fuzz::spec_constructor` prints it — a test in
//! `tests/fuzz.rs` holds every constructor to the printer's output.

use risotto::fuzz::{ProgSpec, Src, Stmt};
use risotto::guest::{AluOp, Cond, FpOp, Gpr};
use std::sync::LazyLock;

/// The reproducers by name, in the order the hashes fold them.
pub static REPRODUCERS: LazyLock<[(&str, ProgSpec); 6]> = LazyLock::new(|| {
    [
        ("store_store_fence", store_store_fence()),
        ("spawn_cas_contention", spawn_cas_contention()),
        ("hot_loop_promotion", hot_loop_promotion()),
        ("cmpxchg_fail_path", cmpxchg_fail_path()),
        ("fp_nan_chain", fp_nan_chain()),
        ("fp_nan_cross_thread", fp_nan_cross_thread()),
    ]
});

/// WAW pairs separated by fences inside a hot loop: the shape that drives
/// the optimizer's store elimination and fence merging against each
/// other.
#[rustfmt::skip]
fn store_store_fence() -> ProgSpec {
    ProgSpec {
        seed: 0x1,
        note: "hand-written: store-store/fence-merge interplay".into(),
        routines: vec![],
        threads: vec![],
        main: vec![
            Stmt::MovImm { dst: Gpr::RBX, imm: 0x10 },
            Stmt::MovImm { dst: Gpr::RCX, imm: 0x3 },
            Stmt::Loop { trips: 48, body: vec![
                Stmt::Store { slot: 0, src: Gpr::RBX },
                Stmt::Fence,
                Stmt::Store { slot: 0, src: Gpr::RCX },
                Stmt::Store { slot: 1, src: Gpr::RCX },
                Stmt::Fence,
                Stmt::Fence,
                Stmt::Store { slot: 1, src: Gpr::RBX },
                Stmt::Alu { op: AluOp::Add, dst: Gpr::RBX, src: Src::Imm(0x7) },
                Stmt::Alu { op: AluOp::Xor, dst: Gpr::RCX, src: Src::Reg(Gpr::RBX) },
            ] },
            Stmt::Load { dst: Gpr::RDX, slot: 0 },
            Stmt::Load { dst: Gpr::RSI, slot: 1 },
            Stmt::Cmp { a: Gpr::RDX, src: Src::Reg(Gpr::RSI) },
        ],
    }
}

/// Three cores hammering the same shared cells through both RMW flavours
/// (`LOCK XADD` and a `CMPXCHG` retry loop). Exercises spawn/join, the
/// sequentially-consistent helper atomics, and the per-cell
/// successful-update oracle.
#[rustfmt::skip]
fn spawn_cas_contention() -> ProgSpec {
    ProgSpec {
        seed: 0x2,
        note: "hand-written: spawn/join CAS contention".into(),
        routines: vec![],
        threads: vec![
            vec![
                Stmt::Loop { trips: 24, body: vec![
                    Stmt::AtomicAdd { cell: 0, k: 0x1 },
                    Stmt::CasAdd { cell: 1, k: 0x3 },
                ] },
                Stmt::Gettid,
            ],
            vec![
                Stmt::Loop { trips: 24, body: vec![
                    Stmt::CasAdd { cell: 0, k: 0x2 },
                    Stmt::AtomicAdd { cell: 1, k: 0x1 },
                    Stmt::Fence,
                ] },
            ],
        ],
        main: vec![
            Stmt::MovImm { dst: Gpr::RBX, imm: 0x5 },
            Stmt::Loop { trips: 32, body: vec![
                Stmt::AtomicAdd { cell: 0, k: 0x1 },
                Stmt::Alu { op: AluOp::Add, dst: Gpr::RBX, src: Src::Imm(0x1) },
            ] },
            Stmt::CasAdd { cell: 2, k: 0x7 },
        ],
    }
}

/// A hot nested loop with a data-dependent branch in the body: crosses the
/// ladder's warm threshold early, so the tier-0 → tier-1 promotion path
/// runs for sure.
#[rustfmt::skip]
fn hot_loop_promotion() -> ProgSpec {
    ProgSpec {
        seed: 0x3,
        note: "hand-written: tier-0 -> tier-1 promotion".into(),
        routines: vec![
            vec![
                Stmt::Alu { op: AluOp::Mul, dst: Gpr::RSI, src: Src::Imm(0x9) },
                Stmt::Alu { op: AluOp::Xor, dst: Gpr::RSI, src: Src::Reg(Gpr::RDI) },
                Stmt::Fence,
            ],
        ],
        threads: vec![],
        main: vec![
            Stmt::MovImm { dst: Gpr::RSI, imm: 0x1 },
            Stmt::MovImm { dst: Gpr::RDI, imm: 0x2 },
            Stmt::Loop { trips: 64, body: vec![
                Stmt::Alu { op: AluOp::Add, dst: Gpr::RDI, src: Src::Imm(0x3) },
                Stmt::If { cond: Cond::B, a: Gpr::RDI, imm: 0x40, then_body: vec![
                    Stmt::Call { routine: 0 },
                    Stmt::Store { slot: 2, src: Gpr::RSI },
                ], else_body: vec![
                    Stmt::Load { dst: Gpr::RSI, slot: 2 },
                    Stmt::Alu { op: AluOp::Shr, dst: Gpr::RDI, src: Src::Imm(0x1) },
                ] },
                Stmt::Loop { trips: 6, body: vec![
                    Stmt::Alu { op: AluOp::Add, dst: Gpr::RSI, src: Src::Imm(0x1) },
                ] },
            ] },
            Stmt::Write { slot: 2 },
        ],
    }
}

/// `CMPXCHG` failure semantics: the compare-exchange misses (the slot holds
/// a different value), so `RAX` must receive the current value and `ZF`
/// must clear; then the flags get materialized before the checksum
/// clobbers them. Also covers div-by-zero (quotient 0, remainder = old
/// `RAX`) and byte-granular stores next to word loads.
#[rustfmt::skip]
fn cmpxchg_fail_path() -> ProgSpec {
    ProgSpec {
        seed: 0x4,
        note: "hand-written: cmpxchg fail path and flag edges".into(),
        routines: vec![],
        threads: vec![],
        main: vec![
            Stmt::MovImm { dst: Gpr::RBX, imm: 0x9 },
            Stmt::Store { slot: 3, src: Gpr::RBX },
            Stmt::Cmpxchg { slot: 3, expect: 0x4, newv: 0x55 },
            Stmt::If { cond: Cond::Ne, a: Gpr::RBX, imm: 0x9, then_body: vec![
                Stmt::MovImm { dst: Gpr::R8, imm: 0x111 },
            ], else_body: vec![
                Stmt::StoreB { slot: 3, byte: 5, src: Gpr::RBX },
            ] },
            Stmt::MovImm { dst: Gpr::RDX, imm: 0x0 },
            Stmt::Div { src: Gpr::RDX },
            Stmt::Load { dst: Gpr::RCX, slot: 3 },
            Stmt::Test { a: Gpr::RCX, b: Gpr::RBX },
            Stmt::Loop { trips: 30, body: vec![
                Stmt::Alu { op: AluOp::Sub, dst: Gpr::RCX, src: Src::Imm(0x1) },
                Stmt::Cmpxchg { slot: 3, expect: 0x0, newv: 0x1 },
            ] },
        ],
    }
}

/// An `fp mul` chain through NaN bit patterns. f64 NaN *payload*
/// propagation differed between the interpreter and every DBT tier until
/// all four evaluation sites were unified on `guest_x86::softfloat` (LLVM
/// may commute `fa * fb`, so "identical" expressions at two call sites can
/// return different NaN bits).
#[rustfmt::skip]
fn fp_nan_chain() -> ProgSpec {
    ProgSpec {
        seed: 0xd8ba98ca24217b7e,
        note: "NaN payload propagation: fp mul chain through NaN bit patterns; interp vs DBT disagreed before softfloat unification".into(),
        routines: vec![],
        threads: vec![],
        main: vec![
            Stmt::Loop { trips: 4, body: vec![
                Stmt::Fp { op: FpOp::Mul, dst: Gpr::RSI, src: Gpr::R9 },
                Stmt::Alu { op: AluOp::Sub, dst: Gpr::R9, src: Src::Imm(0xac) },
            ] },
        ],
    }
}

/// The NaN-payload chain of [`fp_nan_chain`] in a routine a spawned thread
/// calls.
#[rustfmt::skip]
fn fp_nan_cross_thread() -> ProgSpec {
    ProgSpec {
        seed: 0xd3d0b6799ba8245c,
        note: "NaN payload propagation across a spawned thread; same softfloat-unification regression as fp_nan_chain".into(),
        routines: vec![
            vec![
                Stmt::Fp { op: FpOp::Mul, dst: Gpr::RBP, src: Gpr::R9 },
                Stmt::Alu { op: AluOp::Sub, dst: Gpr::R9, src: Src::Imm(0xc1) },
            ],
        ],
        threads: vec![
            vec![
                Stmt::Loop { trips: 3, body: vec![
                    Stmt::Call { routine: 0 },
                ] },
            ],
        ],
        main: vec![],
    }
}
