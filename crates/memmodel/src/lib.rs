//! # risotto-memmodel
//!
//! Axiomatic weak-memory-model framework for the Risotto reproduction.
//!
//! This crate provides the formal backbone of the project: event graphs
//! (`po`/`rf`/`co`/dependencies), the `cat`-style relational algebra, and
//! executable consistency checkers for the four models the paper reasons
//! about —
//!
//! * [`models::Sc`] — sequential consistency (reference),
//! * [`models::X86Tso`] — the x86-TSO model (GHB axiom),
//! * [`models::TcgIr`] — the paper's proposed TCG IR model (GOrd axiom,
//!   Fig. 6),
//! * [`models::Arm`] — Armed-Cats, in both the *original* form and the
//!   *corrected* form whose `casal` strengthening the paper contributed
//!   upstream (Fig. 5).
//!
//! It also holds the mapping tables every layer reads: the x86→TCG fence
//! placement ([`FencePlacement::fences`]), the TCG→host fence lowerings
//! ([`FenceKind::arm_dmb`], [`FenceKind::tso_fence`]) and the Fig. 10
//! elimination rule ([`OptPolicy::may_cross`]).
//!
//! Programs and candidate-execution enumeration live in `risotto-litmus`;
//! this crate only knows about finished executions.
//!
//! ## Example
//!
//! ```
//! use risotto_memmodel::{
//!     AccessMode, EventKind, ExecutionBuilder, Loc, MemoryModel, Sc, Tid, Val, X86Tso,
//! };
//!
//! // The store-buffering (SB) weak outcome: both threads read 0.
//! let mut b = ExecutionBuilder::new();
//! let ix = b.push_event(None, EventKind::Write { loc: Loc(0), val: Val(0), mode: AccessMode::Plain });
//! let iy = b.push_event(None, EventKind::Write { loc: Loc(1), val: Val(0), mode: AccessMode::Plain });
//! let wx = b.push_event(Some(Tid(0)), EventKind::Write { loc: Loc(0), val: Val(1), mode: AccessMode::Plain });
//! let ry = b.push_event(Some(Tid(0)), EventKind::Read { loc: Loc(1), val: Val(0), mode: AccessMode::Plain });
//! let wy = b.push_event(Some(Tid(1)), EventKind::Write { loc: Loc(1), val: Val(1), mode: AccessMode::Plain });
//! let rx = b.push_event(Some(Tid(1)), EventKind::Read { loc: Loc(0), val: Val(0), mode: AccessMode::Plain });
//! b.push_po(wx, ry);
//! b.push_po(wy, rx);
//! let mut x = b.build();
//! x.rf.insert(iy, ry);
//! x.rf.insert(ix, rx);
//! x.co.insert(ix, wx);
//! x.co.insert(iy, wy);
//!
//! assert!(x.is_well_formed());
//! assert!(X86Tso::new().is_consistent(&x)); // TSO allows SB
//! assert!(!Sc::new().is_consistent(&x));    // SC forbids it
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod execution;
mod mapping;
pub mod models;
mod relation;

pub use event::{
    AccessClass, AccessMode, Event, EventId, EventKind, FenceKind, Loc, RmwTag, Tid, Val,
};
pub use execution::{Execution, ExecutionBuilder, RmwPair};
pub use mapping::{elim_may_cross, ElimKind, FencePlacement, GuestAccess, OptPolicy, RmwStyle};
pub use models::{
    atomicity, common_axioms, sc_per_loc, Arm, ArmVariant, MemoryModel, Sc, TcgIr, X86Tso,
};
pub use relation::{EventSet, Relation, MAX_EVENTS};
