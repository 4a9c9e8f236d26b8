//! # risotto-guest-x86
//!
//! MiniX86 — the strongly-ordered guest ISA of the Risotto reproduction.
//!
//! MiniX86 stands in for x86-64 (see DESIGN.md for the substitution
//! rationale): it has the same memory-model-relevant primitives as the
//! paper's Fig. 1 (`RMOV`/`WMOV` loads and stores, `LOCK CMPXCHG` /
//! `LOCK XADD` RMWs, `MFENCE`), an x86-TSO memory model, a variable-length
//! binary encoding, and the ALU/branch/call/FP repertoire the evaluation
//! workloads need.
//!
//! The crate provides:
//!
//! * [`Insn`] with byte-level [`Insn::encode`] / [`Insn::decode`] — what
//!   the DBT frontend consumes,
//! * [`Assembler`] — two-pass, label-resolving,
//! * [`GelfBuilder`] / [`GuestBinary`] — the GELF executable format with
//!   `.text` / `.data` / `.dynsym`+PLT sections for the host linker, and
//! * [`Interp`] — a reference interpreter used as the functional oracle in
//!   differential tests, built on
//! * [`exec_insn`] over a [`GuestState`] — the workspace's one MiniX86
//!   instruction semantics (the DBT engine's fallback runs it too).
//!
//! ## Example
//!
//! ```
//! use risotto_guest_x86::{AluOp, GelfBuilder, Gpr, Interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GelfBuilder::new("main");
//! b.asm.label("main");
//! b.asm.mov_ri(Gpr::RAX, 6);
//! b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 7);
//! b.asm.hlt();
//! let bin = b.finish()?;
//! let mut interp = Interp::new(&bin);
//! interp.run(1000)?;
//! assert_eq!(interp.exit_val(0), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod gelf;
mod insn;
mod interp;
mod regs;
pub mod softfloat;

pub use asm::{AsmError, Assembler};
pub use gelf::{
    DynSym, GelfBuilder, GuestBinary, DATA_BASE, DATA_REG, HEAP_BASE, STACK_SIZE, STACK_TOP,
    TEXT_BASE,
};
pub use insn::{disassemble, syscalls, AluOp, DecodeError, FpOp, Insn, Operand};
pub use interp::{exec_insn, GuestState, Interp, InterpError, SparseMem, Step};
pub use regs::{Cond, Flags, Gpr};
