//! Differential fuzzing for the Risotto-rs translation pipeline.
//!
//! The crate closes the loop the paper's formal story leaves open in a
//! reimplementation: the per-TB verifier (PR 5) checks each installed
//! translation against its fence obligations, but nothing was hunting
//! for inputs on which the tiers *disagree*. This subsystem generates
//! random well-formed MiniX86 programs ([`gen`]), runs each through the
//! reference interpreter and five legs of the one leg table with the
//! verifier as a second oracle ([`diff`], which also holds the table and
//! the run check the functional matrix shares), and delta-debugs any
//! divergent program down to a minimal reproducer ([`mod@minimize`]),
//! which it prints as a `ProgSpec` constructor in a ready-to-paste
//! regression test.
//!
//! Everything is seeded: `generate(cfg, seed)` is a pure function, so a
//! failing iteration is reproduced by its seed alone.
//!
//! ```
//! use risotto_fuzz::{differential, generate, GenConfig};
//!
//! let spec = generate(&GenConfig::default(), 42);
//! let result = differential(&spec);
//! assert!(result.divergences.is_empty());
//! // The interpreter and the five legs of `FUZZ_LEGS`.
//! assert_eq!(result.configs_run, 6);
//! ```

pub mod diff;
pub mod gen;
pub mod minimize;
pub mod spec;

pub use diff::{
    check_leg_counters, differential, diverges, fault_plan, legs, run_checked, DiffResult,
    Divergence, Fault, Leg, Run, Rung, Subject, FUZZ_LEGS, RISOTTO,
};
pub use gen::{generate, GenConfig, Weights};
pub use minimize::{minimize, regression_test_skeleton, spec_constructor, Minimized};
pub use spec::{ProgSpec, SpecError, Src, Stmt};

/// Derives the per-iteration program seed from a run seed, so one
/// `--seed` reproduces the whole run and any single iteration can be
/// replayed in isolation (`generate(cfg, program_seed(run_seed, i))`).
pub fn program_seed(run_seed: u64, iter: u64) -> u64 {
    let mut rng = risotto_core::SplitMix64::new(run_seed);
    // Decorrelate the per-iteration streams from the run stream itself:
    // one split then an iteration-indexed jump.
    rng.next_u64().wrapping_add(iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ iter.rotate_left(17)
}
