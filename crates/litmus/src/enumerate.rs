//! Exhaustive candidate-execution enumeration.
//!
//! `[[P]]_M` — the set of `M`-consistent executions of a program `P`
//! (paper, §5.1) — is computed exactly: thread traces from
//! [`crate::elaborate`] are combined, every value-compatible `rf` assignment
//! and every per-location `co` permutation is materialized, and the model's
//! consistency predicate filters the candidates. On litmus-sized programs
//! this is the same exhaustive search `herd7` performs.

use crate::elaborate::{elaborate_program, ThreadTrace};
use crate::program::{Program, Reg};
use risotto_memmodel::{
    EventId, EventKind, Execution, ExecutionBuilder, Loc, MemoryModel, RmwPair, Tid, Val,
};
use std::collections::{BTreeMap, BTreeSet};

/// An observable program outcome: final memory plus per-thread registers.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Behavior {
    /// Final value of every location (from co-maximal writes).
    pub mem: BTreeMap<Loc, u64>,
    /// Final register valuation of each thread.
    pub regs: Vec<BTreeMap<Reg, u64>>,
}

impl Behavior {
    /// Convenience lookup of a register of a thread (0 if unset).
    pub fn reg(&self, thread: usize, reg: Reg) -> u64 {
        self.regs.get(thread).and_then(|m| m.get(&reg)).copied().unwrap_or(0)
    }

    /// Convenience lookup of a final memory value (panics if absent).
    ///
    /// # Panics
    ///
    /// Panics if the location never appears in the program.
    pub fn mem_at(&self, loc: Loc) -> u64 {
        self.mem[&loc]
    }
}

/// Enumerates all `model`-consistent executions, invoking `f` on each with
/// its behavior. Returns the number of consistent executions.
pub fn for_each_consistent<M, F>(prog: &Program, model: &M, mut f: F) -> usize
where
    M: MemoryModel + ?Sized,
    F: FnMut(&Execution, &Behavior),
{
    let traces = elaborate_program(prog);
    let mut count = 0;
    let mut combo = vec![0usize; traces.len()];
    loop {
        let chosen: Vec<&ThreadTrace> =
            combo.iter().enumerate().map(|(t, &i)| &traces[t][i]).collect();
        enumerate_combo(prog, &chosen, model, &mut |x, b| {
            count += 1;
            f(x, b);
        });
        // odometer
        let mut i = 0;
        loop {
            if i == combo.len() {
                return count;
            }
            combo[i] += 1;
            if combo[i] < traces[i].len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
    }
}

/// The set of behaviors of `prog` under `model`.
pub fn behaviors<M: MemoryModel + ?Sized>(prog: &Program, model: &M) -> BTreeSet<Behavior> {
    let mut out = BTreeSet::new();
    for_each_consistent(prog, model, |_, b| {
        out.insert(b.clone());
    });
    out
}

/// `true` if some behavior satisfies the predicate — the `exists` clause of
/// a litmus test.
pub fn allows<M, F>(prog: &Program, model: &M, pred: F) -> bool
where
    M: MemoryModel + ?Sized,
    F: Fn(&Behavior) -> bool,
{
    behaviors(prog, model).iter().any(pred)
}

fn enumerate_combo<M, F>(prog: &Program, chosen: &[&ThreadTrace], model: &M, f: &mut F)
where
    M: MemoryModel + ?Sized,
    F: FnMut(&Execution, &Behavior),
{
    // --- Build the event skeleton. -------------------------------------
    let mut b = ExecutionBuilder::new();
    let locs = prog.locations();
    let mut init_writer: BTreeMap<Loc, EventId> = BTreeMap::new();
    for &loc in &locs {
        let id = b.push_event(
            None,
            EventKind::Write {
                loc,
                val: prog.init_val(loc),
                mode: risotto_memmodel::AccessMode::Plain,
            },
        );
        init_writer.insert(loc, id);
    }
    let mut global_ids: Vec<Vec<EventId>> = Vec::new();
    for (tid, trace) in chosen.iter().enumerate() {
        let mut ids = Vec::new();
        let mut prev: Option<EventId> = None;
        for ev in &trace.events {
            let id = b.push_event(Some(Tid(tid as u32)), ev.kind);
            if let Some(p) = prev {
                b.push_po(p, id);
            }
            prev = Some(id);
            ids.push(id);
        }
        for (local, ev) in trace.events.iter().enumerate() {
            for &d in &ev.addr_deps {
                b.push_addr(ids[d], ids[local]);
            }
            for &d in &ev.data_deps {
                b.push_data(ids[d], ids[local]);
            }
            for &d in &ev.ctrl_deps {
                b.push_ctrl(ids[d], ids[local]);
            }
        }
        for rmw in &trace.rmws {
            b.push_rmw(RmwPair {
                read: ids[rmw.read],
                write: rmw.write.map(|w| ids[w]),
                tag: rmw.tag,
            });
        }
        global_ids.push(ids);
    }
    let skeleton = b.build();

    // --- Reads and their rf candidates. --------------------------------
    let mut reads: Vec<(EventId, Loc, Val)> = Vec::new();
    let mut writes_by_loc: BTreeMap<Loc, Vec<EventId>> = BTreeMap::new();
    for ev in &skeleton.events {
        match ev.kind {
            EventKind::Read { loc, val, .. } => reads.push((ev.id, loc, val)),
            EventKind::Write { loc, .. } => writes_by_loc.entry(loc).or_default().push(ev.id),
            EventKind::Fence(_) => {}
        }
    }
    let rf_candidates: Vec<Vec<EventId>> = reads
        .iter()
        .map(|&(_, loc, val)| {
            writes_by_loc
                .get(&loc)
                .map(|ws| {
                    ws.iter().copied().filter(|w| skeleton.events[w.0].val() == Some(val)).collect()
                })
                .unwrap_or_default()
        })
        .collect();
    if rf_candidates.iter().any(Vec::is_empty) && !reads.is_empty() {
        return; // some guessed value is not writable: no execution.
    }

    // --- co permutations per location (init write first). --------------
    let co_perms: Vec<(Loc, Vec<Vec<EventId>>)> = writes_by_loc
        .iter()
        .map(|(&loc, ws)| {
            let non_init: Vec<EventId> =
                ws.iter().copied().filter(|w| !skeleton.events[w.0].is_init()).collect();
            (loc, permutations(&non_init))
        })
        .collect();

    // --- Search the rf × co product. ------------------------------------
    let behavior_regs: Vec<BTreeMap<Reg, u64>> = chosen.iter().map(|t| t.regs.clone()).collect();
    let mut rf_choice = vec![0usize; reads.len()];
    loop {
        let mut x = skeleton.clone();
        for (i, &(r, _, _)) in reads.iter().enumerate() {
            x.rf.insert(rf_candidates[i][rf_choice[i]], r);
        }
        enumerate_co(&mut x, &init_writer, &co_perms, 0, model, &behavior_regs, f);

        let mut i = 0;
        loop {
            if i == rf_choice.len() {
                return;
            }
            rf_choice[i] += 1;
            if rf_choice[i] < rf_candidates[i].len() {
                break;
            }
            rf_choice[i] = 0;
            i += 1;
        }
        if reads.is_empty() {
            return;
        }
    }
}

fn enumerate_co<M, F>(
    x: &mut Execution,
    init_writer: &BTreeMap<Loc, EventId>,
    co_perms: &[(Loc, Vec<Vec<EventId>>)],
    depth: usize,
    model: &M,
    regs: &[BTreeMap<Reg, u64>],
    f: &mut F,
) where
    M: MemoryModel + ?Sized,
    F: FnMut(&Execution, &Behavior),
{
    if depth == co_perms.len() {
        debug_assert!(
            x.is_well_formed(),
            "enumerator produced ill-formed execution:\n{}",
            x.dump()
        );
        if model.is_consistent(x) {
            let mem = x.behavior().into_iter().map(|(l, v)| (l, v.0)).collect();
            let b = Behavior { mem, regs: regs.to_vec() };
            f(x, &b);
        }
        return;
    }
    let (loc, perms) = &co_perms[depth];
    let init = init_writer[loc];
    for perm in perms {
        let saved = x.co.clone();
        // init before everything; total order along the permutation.
        for (i, &w) in perm.iter().enumerate() {
            x.co.insert(init, w);
            for &w2 in &perm[i + 1..] {
                x.co.insert(w, w2);
            }
        }
        enumerate_co(x, init_writer, co_perms, depth + 1, model, regs, f);
        x.co = saved;
    }
}

/// All permutations of a slice (n! of them). Litmus programs have at most a
/// handful of writes per location.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_memmodel::{Sc, X86Tso};

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    fn sb() -> Program {
        Program::builder("SB")
            .thread(|t| {
                t.store(X, 1).load(R0, Y);
            })
            .thread(|t| {
                t.store(Y, 1).load(R1, X);
            })
            .build()
    }

    #[test]
    fn sb_weak_outcome_tso_only() {
        let p = sb();
        let weak = |b: &Behavior| b.reg(0, R0) == 0 && b.reg(1, R1) == 0;
        assert!(allows(&p, &X86Tso::new(), weak), "TSO must allow SB");
        assert!(!allows(&p, &Sc::new(), weak), "SC must forbid SB");
    }

    #[test]
    fn mp_weak_outcome_forbidden_on_x86() {
        let p = Program::builder("MP")
            .thread(|t| {
                t.store(X, 1).store(Y, 1);
            })
            .thread(|t| {
                t.load(R0, Y).load(R1, X);
            })
            .build();
        let weak = |b: &Behavior| b.reg(1, R0) == 1 && b.reg(1, R1) == 0;
        assert!(!allows(&p, &X86Tso::new(), weak), "x86 must forbid MP");
        // All four strong outcomes exist under SC.
        let bs = behaviors(&p, &Sc::new());
        assert!(bs.len() >= 3);
    }

    #[test]
    fn coherence_single_location() {
        // CoRR: two reads of the same location in one thread may not
        // observe writes in opposite coherence order.
        let p = Program::builder("CoRR")
            .thread(|t| {
                t.store(X, 1);
            })
            .thread(|t| {
                t.store(X, 2);
            })
            .thread(|t| {
                t.load(R0, X).load(R1, X);
            })
            .build();
        // Forbidden under any model with sc-per-loc: r0=1,r1=2 and r0=2,r1=1
        // cannot both... actually each alone is allowed; the violation needs
        // a fourth thread. Here we check basic plausibility instead: the
        // thread can never read 1 then 0 then... simply: r0=1,r1=1 allowed.
        assert!(allows(&p, &X86Tso::new(), |b| b.reg(2, R0) == 1 && b.reg(2, R1) == 1));
        // Reading X=1 then X=0 (initial) is a coherence violation: once a
        // write is observed, the init value cannot be re-observed.
        assert!(!allows(&p, &X86Tso::new(), |b| b.reg(2, R0) == 1 && b.reg(2, R1) == 0));
    }

    #[test]
    fn behavior_final_memory() {
        let p = Program::builder("final")
            .thread(|t| {
                t.store(X, 1).store(X, 2);
            })
            .build();
        let bs = behaviors(&p, &Sc::new());
        assert_eq!(bs.len(), 1);
        assert_eq!(bs.iter().next().unwrap().mem_at(X), 2);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        assert_eq!(permutations::<u32>(&[]).len(), 1);
    }
}
