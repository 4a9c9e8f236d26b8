//! # Observability: metrics, tracing, and hot-TB profiling
//!
//! The unified observability layer of the engine (see `docs/METRICS.md`
//! for the metric reference and `docs/ARCHITECTURE.md` for where it sits
//! in the pipeline):
//!
//! * [`MetricsSnapshot`] — typed counters / gauges / histograms covering
//!   translation, optimization, fences, TB caching and chaining,
//!   execution totals, and per-stage wall times, read off the engine by
//!   `Emulator::metrics` through the one table in `engine/metrics.rs`
//!   ([`specs`] is that table's schema) and written out as JSON.
//! * [`TraceSink`] — span-style structured events
//!   ([`TraceEvent`]) at the decode / opt / encode / install / dispatch
//!   / fault boundaries, with guest-pc + core + TB-id context. Sinks:
//!   [`NullSink`], [`RingBufferSink`].
//! * [`HotTbProfiler`] — per-TB execution and chain-miss counts with a
//!   [`HotTbProfiler::top_n`] report, fed by the engine dispatch loop
//!   and the host machine's transfer paths.
//!
//! Everything here is **zero-cost when disabled** and *passive* when
//! enabled: observability reads the authoritative execution state but
//! never writes it, so an instrumented run produces bit-identical
//! simulated cycles to an uninstrumented one (enforced by `tests/obs.rs`
//! and the `ci.sh` pipeline-bench gate).

mod profile;
mod registry;
mod trace;

pub use crate::engine::specs;
pub use profile::{HotTb, HotTbProfiler};
pub use registry::{
    doc_name, HistSummary, MetricKind, MetricSpec, MetricValue, MetricsSnapshot, SNAPSHOT_VERSION,
};
pub use trace::{NullSink, RingBufferSink, TraceEvent, TraceSink, TraceStage};

use std::fmt;

/// A translation stage under the stage clock: the index of its wall-time
/// histogram in [`Obs::stages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Template,
    Decode,
    Opt,
    Encode,
    Install,
}

impl Stage {
    const COUNT: usize = Stage::Install as usize + 1;
}

/// The engine's observability state: stage histograms + sink and the
/// enable flags. Internal to the crate; the `Emulator` exposes it
/// through accessors.
pub(crate) struct Obs {
    /// Per-stage wall times, indexed by [`Stage`]; the only metrics not
    /// read off a count kept elsewhere.
    pub(crate) stages: [HistSummary; Stage::COUNT],
    pub(crate) sink: Box<dyn TraceSink>,
    /// Events are only constructed when a sink is installed.
    pub(crate) tracing: bool,
    /// Per-stage wall-clock histograms (decode/opt/encode/install).
    pub(crate) timing: bool,
    /// Engine-side dispatch-loop profiling (the machine has its own
    /// flag, toggled in lockstep).
    pub(crate) profiling: bool,
    seq: u64,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracing)
            .field("timing", &self.timing)
            .field("profiling", &self.profiling)
            .field("events", &self.seq)
            .finish()
    }
}

impl Obs {
    pub(crate) fn new() -> Obs {
        Obs {
            stages: [HistSummary::default(); Stage::COUNT],
            sink: Box::new(NullSink),
            tracing: false,
            timing: false,
            profiling: false,
            seq: 0,
        }
    }

    /// Records one event when a sink is installed; `detail` is only
    /// rendered then.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace(
        &mut self,
        stage: TraceStage,
        core: Option<usize>,
        guest_pc: Option<u64>,
        tb_id: Option<u64>,
        dur_ns: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if !self.tracing {
            return;
        }
        let detail = detail();
        let ev = TraceEvent { seq: self.seq, stage, core, guest_pc, tb_id, dur_ns, detail };
        self.seq += 1;
        self.sink.record(&ev);
    }
}
