//! Binary relations and sets over event ids.
//!
//! Axiomatic models are phrased in the relational `cat` style (paper, §5.1):
//! relations are composed (`;`), united (`∪`), inverted (`⁻¹`), restricted
//! by sets (`[A];r;[B]`) and closed transitively (`⁺`), and axioms demand
//! acyclicity or irreflexivity. This module implements that algebra with a
//! dense bit-matrix representation: executions in this crate hold at most 64
//! events, so each row is a single `u64`.

use crate::event::EventId;
use std::fmt;

/// The maximum number of events in an execution.
pub const MAX_EVENTS: usize = 64;

/// A set of events, represented as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventSet(pub u64);

impl EventSet {
    /// The empty set.
    pub const EMPTY: EventSet = EventSet(0);

    /// The set containing exactly `id`.
    pub fn singleton(id: EventId) -> EventSet {
        EventSet(1 << id.0)
    }

    /// Builds a set from an iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = EventId>>(ids: I) -> EventSet {
        let mut s = EventSet::EMPTY;
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Inserts `id`.
    pub fn insert(&mut self, id: EventId) {
        debug_assert!(id.0 < MAX_EVENTS);
        self.0 |= 1 << id.0;
    }

    /// Membership test.
    pub fn contains(&self, id: EventId) -> bool {
        self.0 >> id.0 & 1 == 1
    }

    /// Set union.
    pub fn union(self, other: EventSet) -> EventSet {
        EventSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: EventSet) -> EventSet {
        EventSet(self.0 & other.0)
    }

    /// Set difference.
    pub fn minus(self, other: EventSet) -> EventSet {
        EventSet(self.0 & !other.0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over member ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(EventId(i))
            }
        })
    }
}

impl FromIterator<EventId> for EventSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        EventSet::from_ids(iter)
    }
}

/// A binary relation over `n` events, stored as one `u64` bit-row per
/// source event: bit `j` of `rows[i]` means `(i, j) ∈ r`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    rows: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    pub fn empty(n: usize) -> Relation {
        assert!(n <= MAX_EVENTS, "execution too large: {n} > {MAX_EVENTS} events");
        Relation { n, rows: vec![0; n] }
    }

    /// Builds a relation from explicit pairs.
    pub fn from_pairs<I: IntoIterator<Item = (EventId, EventId)>>(n: usize, pairs: I) -> Relation {
        let mut r = Relation::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The identity relation restricted to `set` — the `[A]` of cat syntax.
    pub fn identity_on(n: usize, set: EventSet) -> Relation {
        let mut r = Relation::empty(n);
        for id in set.iter() {
            if id.0 < n {
                r.insert(id, id);
            }
        }
        r
    }

    /// The full cross product `a × b`.
    pub fn cross(n: usize, a: EventSet, b: EventSet) -> Relation {
        let mut r = Relation::empty(n);
        for i in a.iter() {
            if i.0 < n {
                r.rows[i.0] |= b.0 & mask(n);
            }
        }
        r
    }

    /// Number of events the relation ranges over.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Adds the pair `(a, b)`.
    pub fn insert(&mut self, a: EventId, b: EventId) {
        debug_assert!(a.0 < self.n && b.0 < self.n);
        self.rows[a.0] |= 1 << b.0;
    }

    /// Removes the pair `(a, b)`.
    pub fn remove(&mut self, a: EventId, b: EventId) {
        self.rows[a.0] &= !(1 << b.0);
    }

    /// Membership test.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        a.0 < self.n && b.0 < self.n && self.rows[a.0] >> b.0 & 1 == 1
    }

    /// `true` if the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&r| r == 0)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Iterates over all pairs.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, &row)| {
            EventSet(row).iter().map(move |j| (EventId(i), j)).collect::<Vec<_>>()
        })
    }

    /// Relation union.
    pub fn union(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.n, other.n);
        Relation {
            n: self.n,
            rows: self.rows.iter().zip(&other.rows).map(|(a, b)| a | b).collect(),
        }
    }

    /// Relation intersection.
    pub fn intersect(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.n, other.n);
        Relation {
            n: self.n,
            rows: self.rows.iter().zip(&other.rows).map(|(a, b)| a & b).collect(),
        }
    }

    /// Relation difference (`r \ s`).
    pub fn minus(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.n, other.n);
        Relation {
            n: self.n,
            rows: self.rows.iter().zip(&other.rows).map(|(a, b)| a & !b).collect(),
        }
    }

    /// Relational composition `self ; other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        debug_assert_eq!(self.n, other.n);
        let mut out = Relation::empty(self.n);
        for i in 0..self.n {
            let mut row = 0u64;
            let mut mids = self.rows[i];
            while mids != 0 {
                let k = mids.trailing_zeros() as usize;
                mids &= mids - 1;
                row |= other.rows[k];
            }
            out.rows[i] = row;
        }
        out
    }

    /// The inverse relation `r⁻¹`.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        for (a, b) in self.iter_pairs() {
            out.insert(b, a);
        }
        out
    }

    /// Domain restriction `[set] ; self`.
    pub fn restrict_domain(&self, set: EventSet) -> Relation {
        let mut out = self.clone();
        for i in 0..self.n {
            if !set.contains(EventId(i)) {
                out.rows[i] = 0;
            }
        }
        out
    }

    /// Codomain restriction `self ; [set]`.
    pub fn restrict_codomain(&self, set: EventSet) -> Relation {
        let m = set.0 & mask(self.n);
        Relation { n: self.n, rows: self.rows.iter().map(|r| r & m).collect() }
    }

    /// The domain of the relation (`dom(r)`).
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::EMPTY;
        for (i, &row) in self.rows.iter().enumerate() {
            if row != 0 {
                s.insert(EventId(i));
            }
        }
        s
    }

    /// The codomain of the relation (`codom(r)` / range).
    pub fn codomain(&self) -> EventSet {
        EventSet(self.rows.iter().fold(0, |acc, r| acc | r))
    }

    /// Transitive closure `r⁺`, computed by iterated squaring over bit rows.
    pub fn transitive_closure(&self) -> Relation {
        let mut out = self.clone();
        loop {
            let next = out.union(&out.compose(&out));
            if next == out {
                return out;
            }
            out = next;
        }
    }

    /// `true` if no pair `(e, e)` is in the relation.
    pub fn is_irreflexive(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, &row)| row >> i & 1 == 0)
    }

    /// `true` if the transitive closure is irreflexive — the `acyclic`
    /// predicate of cat models.
    pub fn is_acyclic(&self) -> bool {
        self.transitive_closure().is_irreflexive()
    }

    /// `true` if the relation, restricted to `set`, totally orders `set`
    /// (strict total order: irreflexive, transitive, and any two distinct
    /// members are related one way).
    pub fn is_strict_total_order_on(&self, set: EventSet) -> bool {
        let r = self.restrict_domain(set).restrict_codomain(set);
        if !r.is_irreflexive() || r != r.compose(&r).union(&r) {
            // not transitive (closure adds pairs) — recompute precisely:
            let tc = r.transitive_closure();
            if tc != r {
                return false;
            }
        }
        for a in set.iter() {
            for b in set.iter() {
                if a != b && !r.contains(a, b) && !r.contains(b, a) {
                    return false;
                }
            }
        }
        r.is_irreflexive()
    }
}

fn mask(n: usize) -> u64 {
    if n == MAX_EVENTS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({} events, {{", self.n)?;
        let mut first = true;
        for (a, b) in self.iter_pairs() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "({},{})", a.0, b.0)?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EventId {
        EventId(i)
    }

    #[test]
    fn set_basics() {
        let mut s = EventSet::EMPTY;
        assert!(s.is_empty());
        s.insert(e(3));
        s.insert(e(5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(e(3)));
        assert!(!s.contains(e(4)));
        let t = EventSet::from_ids([e(5), e(7)]);
        assert_eq!(s.union(t).len(), 3);
        assert_eq!(s.intersect(t).len(), 1);
        assert_eq!(s.minus(t), EventSet::singleton(e(3)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![e(3), e(5)]);
    }

    #[test]
    fn compose_and_closure() {
        let r = Relation::from_pairs(4, [(e(0), e(1)), (e(1), e(2)), (e(2), e(3))]);
        let rr = r.compose(&r);
        assert!(rr.contains(e(0), e(2)));
        assert!(rr.contains(e(1), e(3)));
        assert!(!rr.contains(e(0), e(1)));
        let tc = r.transitive_closure();
        assert!(tc.contains(e(0), e(3)));
        assert_eq!(tc.len(), 6);
        assert!(tc.is_irreflexive());
        assert!(r.is_acyclic());
    }

    #[test]
    fn cycle_detection() {
        let r = Relation::from_pairs(3, [(e(0), e(1)), (e(1), e(2)), (e(2), e(0))]);
        assert!(!r.is_acyclic());
        assert!(r.is_irreflexive()); // no self-loop before closure
    }

    #[test]
    fn restriction_and_identity() {
        let r = Relation::from_pairs(4, [(e(0), e(1)), (e(1), e(2)), (e(2), e(3))]);
        let a = EventSet::from_ids([e(1), e(2)]);
        let restricted = r.restrict_domain(a).restrict_codomain(a);
        assert_eq!(restricted.iter_pairs().collect::<Vec<_>>(), vec![(e(1), e(2))]);
        // [A];r;[B] via identity composition agrees with direct restriction.
        let id_a = Relation::identity_on(4, a);
        let via_id = id_a.compose(&r).compose(&id_a);
        assert_eq!(via_id, restricted);
    }

    #[test]
    fn inverse_and_dom_codom() {
        let r = Relation::from_pairs(4, [(e(0), e(2)), (e(1), e(2))]);
        let inv = r.inverse();
        assert!(inv.contains(e(2), e(0)));
        assert_eq!(r.domain(), EventSet::from_ids([e(0), e(1)]));
        assert_eq!(r.codomain(), EventSet::singleton(e(2)));
        assert_eq!(inv.domain(), r.codomain());
    }

    #[test]
    fn total_order_check() {
        let set = EventSet::from_ids([e(0), e(1), e(2)]);
        let total = Relation::from_pairs(3, [(e(0), e(1)), (e(1), e(2)), (e(0), e(2))]);
        assert!(total.is_strict_total_order_on(set));
        let partial = Relation::from_pairs(3, [(e(0), e(1))]);
        assert!(!partial.is_strict_total_order_on(set));
        let cyclic = Relation::from_pairs(
            3,
            [(e(0), e(1)), (e(1), e(2)), (e(2), e(0)), (e(0), e(2)), (e(1), e(0)), (e(2), e(1))],
        );
        assert!(!cyclic.is_strict_total_order_on(set));
    }

    #[test]
    fn cross_product() {
        let r = Relation::cross(4, EventSet::from_ids([e(0), e(1)]), EventSet::from_ids([e(2)]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(e(0), e(2)));
        assert!(r.contains(e(1), e(2)));
    }

    #[test]
    fn closure_is_idempotent() {
        let r = Relation::from_pairs(5, [(e(0), e(1)), (e(3), e(4)), (e(1), e(3))]);
        let tc = r.transitive_closure();
        assert_eq!(tc.transitive_closure(), tc);
    }
}
