//! # Risotto-rs
//!
//! A from-scratch Rust reproduction of **"Risotto: A Dynamic Binary
//! Translator for Weak Memory Model Architectures"** (ASPLOS 2023):
//! a complete DBT stack — guest ISA, TCG-style IR with a verified-mapping
//! frontend and concurrency-aware optimizer, an Arm-style weak-memory host
//! machine, a dynamic host library linker — together with the paper's
//! formal side: executable axiomatic memory models (x86-TSO, TCG IR,
//! Armed-Cats original & corrected), a litmus enumerator, and a Theorem-1
//! translation-correctness checker.
//!
//! This crate is the umbrella: it re-exports every subsystem. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.
//!
//! ```
//! use risotto::core::{Emulator, Setup};
//! use risotto::guest::{AluOp, GelfBuilder, Gpr};
//! use risotto::host::CostModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GelfBuilder::new("main");
//! b.asm.label("main");
//! b.asm.mov_ri(Gpr::RAX, 21);
//! b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 2);
//! b.asm.hlt();
//! let bin = b.finish()?;
//! let report = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like())
//!     .run(1_000_000)?;
//! assert_eq!(report.exit_vals[0], Some(42));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// Whole-program static analysis: dataflow and the escape analysis
/// driving sound fence relaxation (docs/ANALYSIS.md).
pub use risotto_analysis as analysis;
/// The DBT engine and dynamic host linker.
pub use risotto_core as core;
/// Differential fuzzing: random programs, cross-tier oracles, minimizer.
pub use risotto_fuzz as fuzz;
/// The MiniX86 guest ISA, assembler and GELF format.
pub use risotto_guest_x86 as guest;
/// The MiniArm host ISA, backend and machine simulator.
pub use risotto_host_arm as host;
/// The MiniTSO (x86-TSO) host backend.
pub use risotto_host_tso as host_tso;
/// Litmus tests and exhaustive behavior enumeration.
pub use risotto_litmus as litmus;
/// Mapping schemes and Theorem-1 checking.
pub use risotto_mappings as mappings;
/// Axiomatic memory models (x86-TSO, TCG IR, Armed-Cats).
pub use risotto_memmodel as memmodel;
/// Native host libraries and their guest-assembly twins.
pub use risotto_nativelib as nativelib;
/// The TCG-style IR, frontend and optimizer.
pub use risotto_tcg as tcg;
/// Tier-0 IR-less template translator.
pub use risotto_template as template;
/// The evaluation workloads.
pub use risotto_workloads as workloads;
