//! # Observability: metrics, tracing, and hot-TB profiling
//!
//! The unified observability layer of the engine (see `docs/METRICS.md`
//! for the metric reference and `docs/ARCHITECTURE.md` for where it sits
//! in the pipeline):
//!
//! * [`MetricsSnapshot`] — typed counters and gauges covering
//!   translation, optimization, fences, TB caching and chaining, and
//!   execution totals, read off the engine by `Emulator::metrics`
//!   through the one table in `engine/metrics.rs` ([`specs`] is that
//!   table's schema) and written out as JSON.
//! * [`TraceSink`] — span-style structured events
//!   ([`TraceEvent`]) at the decode / opt / encode / install / dispatch
//!   / fault boundaries, with guest-pc + core + TB-id context. Sinks:
//!   [`RingBufferSink`], or a caller's own.
//! * [`HotTb`] — one row of `Emulator::hot_tbs`: a block's execution
//!   and chain-miss counts, merged from the engine dispatch loop and
//!   the host machine's transfer paths.
//!
//! Everything here is **zero-cost when disabled** and *passive* when
//! enabled: observability reads the authoritative execution state but
//! never writes it, so an instrumented run produces bit-identical
//! simulated cycles and metrics to an uninstrumented one (enforced by
//! `tests/obs.rs` and the `ci.sh` pipeline-bench gate). No host clock
//! is read: every metric and every event is a deterministic function of
//! the program and the configuration.

mod registry;
mod trace;

pub use crate::engine::specs;
pub use registry::{
    doc_name, MetricKind, MetricSpec, MetricValue, MetricsSnapshot, SNAPSHOT_VERSION,
};
pub use trace::{RingBufferSink, TraceEvent, TraceSink, TraceStage};

use std::fmt;

/// One profiled translation block (see `Emulator::hot_tbs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotTb {
    /// Engine TB id: 1-based install order of the block's first
    /// translation, or 0 for blocks only ever interpreted.
    pub tb_id: u64,
    /// Guest pc of the block.
    pub guest_pc: u64,
    /// Times the block was entered (chain hits, jump-cache hits,
    /// dispatcher transfers, and engine dispatch-loop entries).
    pub execs: u64,
    /// Entries that missed every fast path and went through the
    /// dispatcher or the engine's translation-miss handler.
    pub chain_misses: u64,
}

/// The engine's observability state: the trace sink. Internal to the
/// crate; the `Emulator` exposes it through accessors.
#[derive(Default)]
pub(crate) struct Obs {
    /// Events are only constructed while a sink is installed.
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    seq: u64,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.sink.is_some())
            .field("events", &self.seq)
            .finish()
    }
}

impl Obs {
    /// Records one event when a sink is installed; `detail` is only
    /// rendered then.
    pub(crate) fn trace(
        &mut self,
        stage: TraceStage,
        core: Option<usize>,
        guest_pc: Option<u64>,
        tb_id: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        let Some(sink) = &mut self.sink else { return };
        let ev = TraceEvent { seq: self.seq, stage, core, guest_pc, tb_id, detail: detail() };
        self.seq += 1;
        sink.record(&ev);
    }
}
