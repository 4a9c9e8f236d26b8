//! Structured span-style tracing: one [`TraceEvent`] per pipeline
//! boundary (decode / opt / encode / install / dispatch / fault), routed
//! through a pluggable [`TraceSink`].
//!
//! Tracing is opt-in ([`crate::Emulator::set_trace_sink`]); the default
//! engine constructs no events at all. Sinks are observational only —
//! they can never change simulated cycles.

use std::collections::VecDeque;

/// Which pipeline boundary an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Frontend decode + x86→TCG translation of one block.
    Decode,
    /// Optimizer pipeline over one block.
    Opt,
    /// Backend lowering (TCG→Arm encode) of one block.
    Encode,
    /// Code install + TB-map registration.
    Install,
    /// Engine dispatch: a core (re-)entered translated or interpreted
    /// code at a guest pc.
    Dispatch,
    /// A fault boundary: injected or real translation/lowering/syscall
    /// fault, or a TB-cache corruption discard.
    Fault,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic per-emulator sequence number.
    pub seq: u64,
    /// The pipeline boundary.
    pub stage: TraceStage,
    /// Core index, when the event is attributable to a core.
    pub core: Option<usize>,
    /// Guest pc of the block involved, when known.
    pub guest_pc: Option<u64>,
    /// Engine TB id (1-based install order), when the block has one.
    pub tb_id: Option<u64>,
    /// Stage wall time in nanoseconds, when stage timing is enabled.
    pub dur_ns: Option<u64>,
    /// Free-form detail (fault site, op counts, …).
    pub detail: String,
}

/// Receiver of trace events. Implementations must be observational:
/// recording an event may not influence the emulation.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Discards every event. A run with a `NullSink` is bit-identical to a
/// run with any other sink (and to a run with tracing disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Keeps the most recent `capacity` events in memory, overwriting the
/// oldest when full (flight-recorder style).
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    overwritten: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.max(1)),
            overwritten: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were dropped to make room for newer ones.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(event.clone());
    }
}
