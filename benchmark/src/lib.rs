//! # risotto-benchmark
//!
//! The repo benchmark: four workloads, two clocks (host wall time and
//! simulated cycles), a correctness oracle that is independent of every
//! DBT layer, and a traced run that replays every translated block
//! through the layers' public functions. See `README.md` beside this
//! crate for the workload, metric and layer tables.

#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod oracle;
pub mod pass;
pub mod run;
pub mod trace;
pub mod workloads;
