//! Executions: event graphs with `po`, `rf`, `co` and dependency relations.
//!
//! An execution `X = ⟨E, po, rf, co⟩` (paper, §5.1) additionally carries the
//! `rmw` pairing and the syntactic dependency relations (`addr`, `data`,
//! `ctrl`) needed by the Arm model's `dob`. Derived relations (`fr`, the
//! external variants, `po|loc`, …) are computed on demand.

use crate::event::{AccessMode, Event, EventId, EventKind, FenceKind, Loc, RmwTag, Val};
use crate::relation::{EventSet, Relation};
use std::collections::BTreeMap;

/// An `rmw`-related read/write event pair, or a failed RMW's lone read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmwPair {
    /// The read event (`dom(rmw)`).
    pub read: EventId,
    /// The write event (`codom(rmw)`); `None` if the RMW failed.
    pub write: Option<EventId>,
    /// Which primitive produced the pair.
    pub tag: RmwTag,
}

/// A complete candidate execution of a program.
#[derive(Debug, Clone)]
pub struct Execution {
    /// All events; `events[i].id == EventId(i)`. Initialization writes come
    /// first and belong to no thread.
    pub events: Vec<Event>,
    /// Program order: a strict partial order, total per thread, empty across
    /// threads and on init events.
    pub po: Relation,
    /// Reads-from: relates each write to the reads that take its value.
    /// Reads of the initial value read from the per-location init write.
    pub rf: Relation,
    /// Coherence order: strict total order on the writes of each location,
    /// with the init write first.
    pub co: Relation,
    /// RMW pairs (successful and failed).
    pub rmw_pairs: Vec<RmwPair>,
    /// Address dependencies (read → dependent access).
    pub addr: Relation,
    /// Data dependencies (read → dependent write).
    pub data: Relation,
    /// Control dependencies (read → events po-after a dependent branch).
    pub ctrl: Relation,
}

impl Execution {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The set of read events (`R`).
    pub fn reads(&self) -> EventSet {
        self.events_where(Event::is_read)
    }

    /// The set of write events (`W`), including init writes.
    pub fn writes(&self) -> EventSet {
        self.events_where(Event::is_write)
    }

    /// The set of all memory accesses (`R ∪ W`).
    pub fn accesses(&self) -> EventSet {
        self.reads().union(self.writes())
    }

    /// The set of fence events of the given kind.
    pub fn fences(&self, kind: FenceKind) -> EventSet {
        self.events_where(|e| e.fence_kind() == Some(kind))
    }

    /// Events satisfying an arbitrary predicate.
    pub fn events_where<F: Fn(&Event) -> bool>(&self, pred: F) -> EventSet {
        self.events.iter().filter(|e| pred(e)).map(|e| e.id).collect()
    }

    /// Reads with the given mode predicate.
    pub fn reads_with_mode<F: Fn(AccessMode) -> bool>(&self, pred: F) -> EventSet {
        self.events_where(|e| e.is_read() && e.mode().is_some_and(&pred))
    }

    /// Writes with the given mode predicate.
    pub fn writes_with_mode<F: Fn(AccessMode) -> bool>(&self, pred: F) -> EventSet {
        self.events_where(|e| e.is_write() && e.mode().is_some_and(&pred))
    }

    /// The `rmw` relation as a [`Relation`] (successful pairs only).
    pub fn rmw(&self) -> Relation {
        Relation::from_pairs(
            self.len(),
            self.rmw_pairs.iter().filter_map(|p| p.write.map(|w| (p.read, w))),
        )
    }

    /// Successful `rmw` pairs with the given tag.
    pub fn rmw_tagged(&self, tag: RmwTag) -> Relation {
        Relation::from_pairs(
            self.len(),
            self.rmw_pairs
                .iter()
                .filter(|p| p.tag == tag)
                .filter_map(|p| p.write.map(|w| (p.read, w))),
        )
    }

    /// Same-location restriction of `po` (`po|loc`).
    pub fn po_loc(&self) -> Relation {
        let mut r = Relation::empty(self.len());
        for (a, b) in self.po.iter_pairs() {
            if let (Some(la), Some(lb)) = (self.events[a.0].loc(), self.events[b.0].loc()) {
                if la == lb {
                    r.insert(a, b);
                }
            }
        }
        r
    }

    /// From-read: `fr ≜ rf⁻¹ ; co`.
    pub fn fr(&self) -> Relation {
        self.rf.inverse().compose(&self.co)
    }

    /// External reads-from: `rfe ≜ rf \ po`. Init writes are external to
    /// every thread, so init-rf edges stay in `rfe`.
    pub fn rfe(&self) -> Relation {
        self.rf.minus(&self.po)
    }

    /// Internal reads-from: `rfi ≜ rf ∩ po`.
    pub fn rfi(&self) -> Relation {
        self.rf.intersect(&self.po)
    }

    /// External coherence: `coe ≜ co \ po`.
    pub fn coe(&self) -> Relation {
        self.co.minus(&self.po)
    }

    /// External from-read: `fre ≜ fr \ po`.
    pub fn fre(&self) -> Relation {
        self.fr().minus(&self.po)
    }

    /// Checks structural well-formedness: every read has exactly one `rf`
    /// source writing the same location and value; `co` totally orders the
    /// writes of each location with the init write first; `po` is a strict
    /// order total per thread.
    pub fn is_well_formed(&self) -> bool {
        let n = self.len();
        // rf: one incoming edge per read, matching loc/val; sources are writes.
        let rf_inv = self.rf.inverse();
        for ev in &self.events {
            if ev.is_read() {
                let srcs: Vec<EventId> =
                    rf_inv.iter_pairs().filter(|(r, _)| *r == ev.id).map(|(_, w)| w).collect();
                if srcs.len() != 1 {
                    return false;
                }
                let w = &self.events[srcs[0].0];
                if !w.is_write() || w.loc() != ev.loc() || w.val() != ev.val() {
                    return false;
                }
            }
        }
        for (a, b) in self.rf.iter_pairs() {
            if !self.events[a.0].is_write() || !self.events[b.0].is_read() {
                return false;
            }
        }
        // co per location.
        let mut by_loc: BTreeMap<Loc, EventSet> = BTreeMap::new();
        for ev in &self.events {
            if ev.is_write() {
                by_loc.entry(ev.loc().unwrap()).or_default().insert(ev.id);
            }
        }
        for ws in by_loc.values() {
            if !self.co.is_strict_total_order_on(*ws) {
                return false;
            }
        }
        // co pairs only relate same-location writes.
        for (a, b) in self.co.iter_pairs() {
            let (ea, eb) = (&self.events[a.0], &self.events[b.0]);
            if !ea.is_write() || !eb.is_write() || ea.loc() != eb.loc() {
                return false;
            }
            // init writes are co-minimal.
            if eb.is_init() {
                return false;
            }
        }
        // po: irreflexive, transitive, relates only same-thread events.
        if !self.po.is_irreflexive() {
            return false;
        }
        for (a, b) in self.po.iter_pairs() {
            let (ea, eb) = (&self.events[a.0], &self.events[b.0]);
            if ea.tid.is_none() || ea.tid != eb.tid {
                return false;
            }
        }
        let _ = n;
        true
    }

    /// The behavior of the execution (paper, §5.1): the final value of every
    /// location — the value of each location's co-maximal write.
    pub fn behavior(&self) -> BTreeMap<Loc, Val> {
        let mut out = BTreeMap::new();
        for ev in &self.events {
            if ev.is_write() {
                let has_successor = self.co.iter_pairs().any(|(a, _)| a == ev.id);
                if !has_successor {
                    out.insert(ev.loc().unwrap(), ev.val().unwrap());
                }
            }
        }
        out
    }

    /// Renders the execution as a compact multi-line string, useful in test
    /// failure messages.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(s, "  {e}");
        }
        let _ = writeln!(s, "  rf: {:?}", self.rf);
        let _ = writeln!(s, "  co: {:?}", self.co);
        s
    }
}

/// Builder used by enumeration code to assemble executions incrementally.
#[derive(Debug, Clone, Default)]
pub struct ExecutionBuilder {
    events: Vec<Event>,
    po_edges: Vec<(EventId, EventId)>,
    rmw_pairs: Vec<RmwPair>,
    addr_edges: Vec<(EventId, EventId)>,
    data_edges: Vec<(EventId, EventId)>,
    ctrl_edges: Vec<(EventId, EventId)>,
}

impl ExecutionBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event, returning its id.
    pub fn push_event(&mut self, tid: Option<crate::event::Tid>, kind: EventKind) -> EventId {
        let id = EventId(self.events.len());
        self.events.push(Event { id, tid, kind });
        id
    }

    /// Adds a `po` edge.
    pub fn push_po(&mut self, a: EventId, b: EventId) {
        self.po_edges.push((a, b));
    }

    /// Records an RMW pair.
    pub fn push_rmw(&mut self, pair: RmwPair) {
        self.rmw_pairs.push(pair);
    }

    /// Adds an address-dependency edge.
    pub fn push_addr(&mut self, a: EventId, b: EventId) {
        self.addr_edges.push((a, b));
    }

    /// Adds a data-dependency edge.
    pub fn push_data(&mut self, a: EventId, b: EventId) {
        self.data_edges.push((a, b));
    }

    /// Adds a control-dependency edge.
    pub fn push_ctrl(&mut self, a: EventId, b: EventId) {
        self.ctrl_edges.push((a, b));
    }

    /// Finishes the event/relation skeleton; `rf` and `co` start empty and
    /// are filled in by the enumerator.
    pub fn build(self) -> Execution {
        let n = self.events.len();
        Execution {
            events: self.events,
            po: Relation::from_pairs(n, self.po_edges).transitive_closure(),
            rf: Relation::empty(n),
            co: Relation::empty(n),
            rmw_pairs: self.rmw_pairs,
            addr: Relation::from_pairs(n, self.addr_edges),
            data: Relation::from_pairs(n, self.data_edges),
            ctrl: Relation::from_pairs(n, self.ctrl_edges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tid;

    /// Builds the classic MP skeleton:
    /// init X=0, Y=0; T0: W X=1; W Y=1 ; T1: R Y=v1; R X=v2.
    fn mp(v1: u64, v2: u64) -> Execution {
        let mut b = ExecutionBuilder::new();
        let ix = b.push_event(
            None,
            EventKind::Write { loc: Loc(0), val: Val(0), mode: AccessMode::Plain },
        );
        let iy = b.push_event(
            None,
            EventKind::Write { loc: Loc(1), val: Val(0), mode: AccessMode::Plain },
        );
        let wx = b.push_event(
            Some(Tid(0)),
            EventKind::Write { loc: Loc(0), val: Val(1), mode: AccessMode::Plain },
        );
        let wy = b.push_event(
            Some(Tid(0)),
            EventKind::Write { loc: Loc(1), val: Val(1), mode: AccessMode::Plain },
        );
        let ry = b.push_event(
            Some(Tid(1)),
            EventKind::Read { loc: Loc(1), val: Val(v1), mode: AccessMode::Plain },
        );
        let rx = b.push_event(
            Some(Tid(1)),
            EventKind::Read { loc: Loc(0), val: Val(v2), mode: AccessMode::Plain },
        );
        b.push_po(wx, wy);
        b.push_po(ry, rx);
        let mut x = b.build();
        // rf
        x.rf.insert(if v1 == 1 { wy } else { iy }, ry);
        x.rf.insert(if v2 == 1 { wx } else { ix }, rx);
        // co: init first
        x.co.insert(ix, wx);
        x.co.insert(iy, wy);
        x
    }

    #[test]
    fn well_formedness() {
        let x = mp(1, 0);
        assert!(x.is_well_formed(), "{}", x.dump());
    }

    #[test]
    fn ill_formed_rf_value_mismatch() {
        let mut x = mp(1, 0);
        // Point the R Y=1 at the init write (value 0): mismatch.
        let ry = EventId(4);
        let wy = EventId(3);
        let iy = EventId(1);
        x.rf.remove(wy, ry);
        x.rf.insert(iy, ry);
        assert!(!x.is_well_formed());
    }

    #[test]
    fn derived_relations() {
        let x = mp(1, 0);
        // R X=0 reads init; the non-init write to X is co-after, so fr holds.
        let rx = EventId(5);
        let wx = EventId(2);
        assert!(x.fr().contains(rx, wx));
        assert!(x.fre().contains(rx, wx));
        // rf of Y is cross-thread: external.
        let wy = EventId(3);
        let ry = EventId(4);
        assert!(x.rfe().contains(wy, ry));
        assert!(x.rfi().is_empty());
        assert!(x.po_loc().is_empty()); // different locations within threads
    }

    #[test]
    fn behavior_takes_co_maxima() {
        let x = mp(1, 0);
        let b = x.behavior();
        assert_eq!(b[&Loc(0)], Val(1));
        assert_eq!(b[&Loc(1)], Val(1));
    }

    #[test]
    fn event_set_queries() {
        let x = mp(1, 1);
        assert_eq!(x.reads().len(), 2);
        assert_eq!(x.writes().len(), 4);
        assert_eq!(x.accesses().len(), 6);
        assert!(x.fences(FenceKind::MFence).is_empty());
    }
}
