//! # risotto-mappings
//!
//! Executable mapping schemes and the Theorem-1 translation-correctness
//! checker — the systems counterpart of the paper's Agda development.
//!
//! * [`scheme`] — the x86→TCG-IR, TCG-IR→Arm and direct x86→Arm mapping
//!   schemes (both QEMU's erroneous ones, Fig. 2, and the paper's verified
//!   ones, Fig. 7), plus the Fig. 3 "intended" Arm-Cats mapping and the
//!   fence-free oracle.
//! * [`check`] — Theorem 1 as a decision procedure on litmus-sized
//!   programs: `behaviors(target, Mt) ⊆ behaviors(source, Ms)`, and the
//!   verdict table every scheme's expected verdict is one row of.
//! * [`transform`] — the Fig. 10 eliminations with their fence side
//!   conditions, fence merging/strengthening, reordering, and
//!   false-dependency elimination.
//! * [`gen`] — exhaustive two-thread program generation and the TCG
//!   fence patterns for sweeps.
//!
//! ## Example
//!
//! ```
//! use risotto_mappings::check::check_mapping;
//! use risotto_mappings::scheme::{qemu_x86_to_arm, verified_x86_to_arm, HelperStyle};
//! use risotto_litmus::corpus;
//! use risotto_memmodel::{Arm, RmwStyle, X86Tso};
//!
//! let src = corpus::mpq_x86();
//! // Qemu's scheme mistranslates MPQ…
//! assert!(check_mapping(&qemu_x86_to_arm(HelperStyle::Gcc10Casal),
//!                       &src, &X86Tso::new(), &Arm::corrected()).is_err());
//! // …the verified scheme does not.
//! assert!(check_mapping(&verified_x86_to_arm(RmwStyle::Casal),
//!                       &src, &X86Tso::new(), &Arm::corrected()).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod gen;
pub mod scheme;
pub mod transform;
