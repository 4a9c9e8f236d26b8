//! The dataflow framework: a generic lattice trait and a deterministic
//! worklist solver.
//!
//! One entry point, [`solve`], over a [`Transfer`] whose successor set
//! is *dynamic* (returned by the transfer function itself). The escape
//! analysis, its one client, needs this: which syscall/indirect edges
//! are realized depends on the abstract state flowing into them.
//!
//! Determinism is load-bearing: the engine's translation output must be
//! bit-identical run to run (`tests/determinism.rs`), and analysis facts
//! feed translation. The worklist is a `BTreeSet` (nodes always process
//! in ascending order) and all per-node storage is `BTreeMap`, so
//! iteration order never depends on hash seeds.

use std::collections::{BTreeMap, BTreeSet};

/// A join-semilattice of abstract states.
pub trait Lattice: Clone {
    /// In-place join; returns `true` if `self` changed (i.e. `other` was
    /// not already below `self`).
    fn join_from(&mut self, other: &Self) -> bool;

    /// Widening hook, applied by the solver after a node's input has
    /// been updated [`WIDEN_AFTER`] times: jump up the lattice far
    /// enough to guarantee termination on infinite-height domains.
    /// Defaults to a no-op (correct for finite-height lattices).
    fn widen(&mut self) {}
}

/// After how many joins at one node the solver invokes [`Lattice::widen`].
pub const WIDEN_AFTER: u32 = 8;

/// A transfer function with dynamic successors: flowing `input` through
/// `node` yields the out-state per realized successor edge.
pub trait Transfer {
    /// The abstract state.
    type State: Lattice;

    /// Flow `input` through `node`. An empty result means the node has
    /// no realized successors (exit, halt, abstract dead end).
    fn flow(&mut self, node: u64, input: &Self::State) -> Vec<(u64, Self::State)>;
}

/// A solved dataflow instance.
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// Fixpoint input state per reached node.
    pub inputs: BTreeMap<u64, S>,
    /// Fixpoint out-state per realized edge `(from, to)`.
    pub edges: BTreeMap<(u64, u64), S>,
    /// Worklist steps taken (for tests and the step-limit safety valve).
    pub steps: u64,
    /// `true` if the solver hit `max_steps` before reaching a fixpoint.
    /// The partial solution is *not* a sound over-approximation; callers
    /// must treat the analysis as failed.
    pub hit_limit: bool,
}

/// Runs the worklist solver from the given entry states to a fixpoint
/// (or until `max_steps`). Deterministic: nodes process in ascending
/// order; the transfer function is re-run whenever a node's input grows.
pub fn solve<T: Transfer>(
    transfer: &mut T,
    entries: &[(u64, T::State)],
    max_steps: u64,
) -> Solution<T::State> {
    let mut inputs: BTreeMap<u64, T::State> = BTreeMap::new();
    let mut edges: BTreeMap<(u64, u64), T::State> = BTreeMap::new();
    let mut joins: BTreeMap<u64, u32> = BTreeMap::new();
    let mut work: BTreeSet<u64> = BTreeSet::new();
    for (node, state) in entries {
        match inputs.get_mut(node) {
            Some(cur) => {
                cur.join_from(state);
            }
            None => {
                inputs.insert(*node, state.clone());
            }
        }
        work.insert(*node);
    }
    let mut steps = 0u64;
    let mut hit_limit = false;
    while let Some(&node) = work.iter().next() {
        work.remove(&node);
        steps += 1;
        if steps > max_steps {
            hit_limit = true;
            break;
        }
        let input = inputs.get(&node).expect("worklist node has an input").clone();
        for (succ, out) in transfer.flow(node, &input) {
            edges.insert((node, succ), out.clone());
            let changed = match inputs.get_mut(&succ) {
                Some(cur) => cur.join_from(&out),
                None => {
                    inputs.insert(succ, out);
                    true
                }
            };
            if changed {
                let count = joins.entry(succ).or_insert(0);
                *count += 1;
                if *count > WIDEN_AFTER {
                    inputs.get_mut(&succ).expect("just joined").widen();
                    *count = 0;
                }
                work.insert(succ);
            }
        }
    }
    Solution { inputs, edges, steps, hit_limit }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An infinite-height counter domain exercising the widening hook.
    #[derive(Debug, Clone, PartialEq)]
    struct Hull(u64, u64);

    impl Lattice for Hull {
        fn join_from(&mut self, other: &Self) -> bool {
            let next = (self.0.min(other.0), self.1.max(other.1));
            let changed = next != (self.0, self.1);
            (self.0, self.1) = next;
            changed
        }
        fn widen(&mut self) {
            self.1 = u64::MAX;
        }
    }

    /// 1 -> {2, 3} -> 4, each node stretching the hull to cover itself.
    struct Diamond;
    impl Transfer for Diamond {
        type State = Hull;
        fn flow(&mut self, node: u64, input: &Hull) -> Vec<(u64, Hull)> {
            let out = Hull(input.0.min(node), input.1.max(node));
            let succs: &[u64] = match node {
                1 => &[2, 3],
                2 | 3 => &[4],
                _ => &[],
            };
            succs.iter().map(|&s| (s, out.clone())).collect()
        }
    }

    #[test]
    fn merge_node_joins_both_paths_and_edges_keep_each() {
        let sol = solve(&mut Diamond, &[(1, Hull(1, 1))], 1000);
        assert!(!sol.hit_limit);
        assert_eq!(sol.inputs[&4], Hull(1, 3), "node 4 saw both branch paths");
        assert_eq!(sol.edges[&(2, 4)], Hull(1, 2));
        assert_eq!(sol.edges[&(3, 4)], Hull(1, 3));
        assert_eq!(sol.edges.len(), 4);
    }

    struct Loop;
    impl Transfer for Loop {
        type State = Hull;
        fn flow(&mut self, node: u64, input: &Hull) -> Vec<(u64, Hull)> {
            // Node 0 loops to itself adding 1 forever; widening must
            // terminate the climb.
            assert_eq!(node, 0);
            vec![(0, Hull(input.0, input.1.saturating_add(1)))]
        }
    }

    #[test]
    fn widening_terminates_an_unbounded_climb() {
        let sol = solve(&mut Loop, &[(0, Hull(0, 0))], 100_000);
        assert!(!sol.hit_limit, "widening should terminate well before the step limit");
        assert_eq!(sol.inputs[&0].1, u64::MAX);
        assert!(sol.steps < 100);
    }

    #[test]
    fn step_limit_reports_failure() {
        struct NoWiden;
        #[derive(Debug, Clone, PartialEq)]
        struct Count(u64);
        impl Lattice for Count {
            fn join_from(&mut self, other: &Self) -> bool {
                let changed = other.0 > self.0;
                self.0 = self.0.max(other.0);
                changed
            }
            // No widen override: the climb never terminates.
        }
        impl Transfer for NoWiden {
            type State = Count;
            fn flow(&mut self, _: u64, input: &Count) -> Vec<(u64, Count)> {
                vec![(0, Count(input.0 + 1))]
            }
        }
        let sol = solve(&mut NoWiden, &[(0, Count(0))], 50);
        assert!(sol.hit_limit);
    }
}
