//! # risotto-litmus
//!
//! Litmus-test infrastructure: a small program DSL, symbolic per-thread
//! elaboration, and exhaustive (herd-style) candidate-execution
//! enumeration against the models of `risotto-memmodel`.
//!
//! A litmus [`Program`] is an initialization of shared locations followed
//! by a parallel composition of threads built from the concurrency
//! primitives of the paper's Fig. 1 — loads/stores with optional
//! acquire/release/SC annotations, CAS-style RMWs in every flavour
//! (`LOCK CMPXCHG`, TCG `RMW`, Arm `CAS`/`CASAL`/`LDXR-STXR`), the full
//! fence alphabet, plus conditionals and register assignments.
//!
//! ## Example — the MP test of §2.1
//!
//! ```
//! use risotto_litmus::{allows, corpus, Behavior};
//! use risotto_memmodel::{Arm, X86Tso};
//!
//! let mp = corpus::mp();
//! let weak = |b: &Behavior| b.reg(1, corpus::A) == 1 && b.reg(1, corpus::B) == 0;
//! // Allowed on Arm, disallowed on x86 — exactly the paper's table.
//! assert!(allows(&mp, &Arm::corrected(), weak));
//! assert!(!allows(&mp, &X86Tso::new(), weak));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod elaborate;
mod enumerate;
mod program;

pub use enumerate::{allows, behaviors, for_each_consistent, Behavior};
pub use program::{
    Expr, Instr, LocSpec, Program, ProgramBuilder, Reg, RmwKind, Thread, ThreadBuilder,
};
