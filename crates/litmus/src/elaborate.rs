//! Per-thread symbolic elaboration.
//!
//! Candidate-execution enumeration (herd-style) first *elaborates* each
//! thread in isolation: every load is given every value the location could
//! possibly hold, and every CAS succeeds or fails accordingly. The result is
//! the set of per-thread event traces; the enumerator then combines traces
//! across threads and searches for `rf`/`co` assignments that justify the
//! guessed values.
//!
//! Elaboration also records syntactic dependencies (address, data, control)
//! which the Arm model's `dob` consumes.

use crate::program::{Expr, Instr, LocSpec, Program, Reg, Thread};
use risotto_memmodel::{EventKind, Loc, RmwTag, Val};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on how many distinct values a location may take during the
/// potential-value fixpoint; litmus tests stay far below this.
const MAX_VALUES_PER_LOC: usize = 32;

/// Computes, per location, a superset of the values it can ever hold.
///
/// The set is a fixpoint over abstract register/location value sets: loads
/// propagate location values into registers, stores and RMW updates
/// propagate expression values into locations. Complete by construction
/// (every concrete run's value is covered); precision is recovered later by
/// `rf` matching.
///
/// # Panics
///
/// Panics if a location's value set exceeds an internal cap (32), which
/// indicates a program far beyond litmus size.
pub fn potential_values(prog: &Program) -> BTreeMap<Loc, BTreeSet<u64>> {
    let mut locs: BTreeMap<Loc, BTreeSet<u64>> = BTreeMap::new();
    for loc in prog.locations() {
        locs.entry(loc).or_default().insert(prog.init_val(loc).0);
    }
    // Abstract register environment per thread.
    let mut regs: Vec<BTreeMap<Reg, BTreeSet<u64>>> = vec![BTreeMap::new(); prog.threads.len()];

    fn eval_set(e: &Expr, regs: &BTreeMap<Reg, BTreeSet<u64>>) -> BTreeSet<u64> {
        match e {
            Expr::Const(c) => [*c].into(),
            Expr::Reg(r) => regs.get(r).cloned().unwrap_or_else(|| [0].into()),
            Expr::Add(a, b) | Expr::Xor(a, b) | Expr::Mul(a, b) => {
                let sa = eval_set(a, regs);
                let sb = eval_set(b, regs);
                let mut out = BTreeSet::new();
                for &x in &sa {
                    for &y in &sb {
                        out.insert(match e {
                            Expr::Add(..) => x.wrapping_add(y),
                            Expr::Xor(..) => x ^ y,
                            _ => x.wrapping_mul(y),
                        });
                    }
                }
                out
            }
        }
    }

    fn walk(
        instrs: &[Instr],
        regs: &mut BTreeMap<Reg, BTreeSet<u64>>,
        locs: &mut BTreeMap<Loc, BTreeSet<u64>>,
        changed: &mut bool,
    ) {
        for i in instrs {
            match i {
                Instr::Load { dst, loc, .. } => {
                    let vals = locs.entry(loc.loc()).or_default().clone();
                    let slot = regs.entry(*dst).or_default();
                    for v in vals {
                        *changed |= slot.insert(v);
                    }
                }
                Instr::Store { loc, val, .. } => {
                    let vals = eval_set(val, regs);
                    let slot = locs.entry(loc.loc()).or_default();
                    for v in vals {
                        *changed |= slot.insert(v);
                    }
                    assert!(slot.len() <= MAX_VALUES_PER_LOC, "value set explosion");
                }
                Instr::Rmw { dst, loc, desired, .. } => {
                    let read_vals = locs.entry(loc.loc()).or_default().clone();
                    if let Some(d) = dst {
                        let slot = regs.entry(*d).or_default();
                        for v in read_vals {
                            *changed |= slot.insert(v);
                        }
                    }
                    let vals = eval_set(desired, regs);
                    let slot = locs.entry(loc.loc()).or_default();
                    for v in vals {
                        *changed |= slot.insert(v);
                    }
                    assert!(slot.len() <= MAX_VALUES_PER_LOC, "value set explosion");
                }
                Instr::Fence(_) => {}
                Instr::Let { dst, val } => {
                    let vals = eval_set(val, regs);
                    let slot = regs.entry(*dst).or_default();
                    for v in vals {
                        *changed |= slot.insert(v);
                    }
                }
                Instr::If { then, els, .. } => {
                    // Both branches contribute to the abstraction.
                    walk(then, regs, locs, changed);
                    walk(els, regs, locs, changed);
                }
            }
        }
    }

    loop {
        let mut changed = false;
        for (tid, t) in prog.threads.iter().enumerate() {
            walk(&t.instrs, &mut regs[tid], &mut locs, &mut changed);
        }
        if !changed {
            return locs;
        }
    }
}

/// One event of a thread trace, with local (per-thread) indices.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// What the event does.
    pub kind: EventKind,
    /// Local indices of reads this event's address depends on.
    pub addr_deps: Vec<usize>,
    /// Local indices of reads this event's data depends on.
    pub data_deps: Vec<usize>,
    /// Local indices of reads this event is control-dependent on.
    pub ctrl_deps: Vec<usize>,
}

/// An RMW pairing within a trace, by local indices.
#[derive(Debug, Clone, Copy)]
pub struct TraceRmw {
    /// Local index of the read event.
    pub read: usize,
    /// Local index of the write event (`None`: failed CAS).
    pub write: Option<usize>,
    /// The rmw tag.
    pub tag: RmwTag,
}

/// A fully elaborated thread run.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// The events, in program order.
    pub events: Vec<TraceEvent>,
    /// RMW pairings.
    pub rmws: Vec<TraceRmw>,
    /// Final register valuation.
    pub regs: BTreeMap<Reg, u64>,
}

struct ElabState {
    trace: ThreadTrace,
    /// Which read events each register's current value derives from.
    reg_deps: BTreeMap<Reg, Vec<usize>>,
    /// Reads controlling everything from here on.
    ctrl: Vec<usize>,
}

impl Clone for ElabState {
    fn clone(&self) -> Self {
        ElabState {
            trace: self.trace.clone(),
            reg_deps: self.reg_deps.clone(),
            ctrl: self.ctrl.clone(),
        }
    }
}

/// Elaborates one thread into all of its possible traces.
pub fn elaborate_thread(
    thread: &Thread,
    potential: &BTreeMap<Loc, BTreeSet<u64>>,
) -> Vec<ThreadTrace> {
    let init =
        ElabState { trace: ThreadTrace::default(), reg_deps: BTreeMap::new(), ctrl: Vec::new() };
    let states = elab_instrs(&thread.instrs, vec![init], potential);
    states.into_iter().map(|s| s.trace).collect()
}

fn expr_deps(e: &Expr, reg_deps: &BTreeMap<Reg, Vec<usize>>) -> Vec<usize> {
    let mut out = Vec::new();
    for r in e.regs() {
        if let Some(d) = reg_deps.get(&r) {
            out.extend_from_slice(d);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn loc_deps(l: &LocSpec, reg_deps: &BTreeMap<Reg, Vec<usize>>) -> Vec<usize> {
    match l {
        LocSpec::Direct(_) => Vec::new(),
        LocSpec::Dep { via, .. } => reg_deps.get(via).cloned().unwrap_or_default(),
    }
}

fn elab_instrs(
    instrs: &[Instr],
    mut states: Vec<ElabState>,
    potential: &BTreeMap<Loc, BTreeSet<u64>>,
) -> Vec<ElabState> {
    for i in instrs {
        let mut next = Vec::new();
        for st in states {
            match i {
                Instr::Load { dst, loc, mode } => {
                    let l = loc.loc();
                    let vals = potential.get(&l).cloned().unwrap_or_else(|| [0].into());
                    for v in vals {
                        let mut s = st.clone();
                        let idx = s.trace.events.len();
                        s.trace.events.push(TraceEvent {
                            kind: EventKind::Read { loc: l, val: Val(v), mode: *mode },
                            addr_deps: loc_deps(loc, &s.reg_deps),
                            data_deps: Vec::new(),
                            ctrl_deps: s.ctrl.clone(),
                        });
                        s.trace.regs.insert(*dst, v);
                        s.reg_deps.insert(*dst, vec![idx]);
                        next.push(s);
                    }
                }
                Instr::Store { loc, val, mode } => {
                    let mut s = st;
                    let v = val.eval(&s.trace.regs);
                    s.trace.events.push(TraceEvent {
                        kind: EventKind::Write { loc: loc.loc(), val: Val(v), mode: *mode },
                        addr_deps: loc_deps(loc, &s.reg_deps),
                        data_deps: expr_deps(val, &s.reg_deps),
                        ctrl_deps: s.ctrl.clone(),
                    });
                    next.push(s);
                }
                Instr::Fence(kind) => {
                    let mut s = st;
                    s.trace.events.push(TraceEvent {
                        kind: EventKind::Fence(*kind),
                        addr_deps: Vec::new(),
                        data_deps: Vec::new(),
                        ctrl_deps: s.ctrl.clone(),
                    });
                    next.push(s);
                }
                Instr::Rmw { dst, loc, expected, desired, kind } => {
                    let l = loc.loc();
                    let expect_v = expected.eval(&st.trace.regs);
                    let vals = potential.get(&l).cloned().unwrap_or_else(|| [0].into());
                    for v in vals {
                        let mut s = st.clone();
                        let ridx = s.trace.events.len();
                        s.trace.events.push(TraceEvent {
                            kind: EventKind::Read { loc: l, val: Val(v), mode: kind.read_mode() },
                            addr_deps: loc_deps(loc, &s.reg_deps),
                            data_deps: Vec::new(),
                            ctrl_deps: s.ctrl.clone(),
                        });
                        let success = v == expect_v;
                        let widx = if success {
                            let wv = desired.eval(&s.trace.regs);
                            let widx = s.trace.events.len();
                            let mut data = expr_deps(desired, &s.reg_deps);
                            data.extend(expr_deps(expected, &s.reg_deps));
                            data.sort_unstable();
                            data.dedup();
                            s.trace.events.push(TraceEvent {
                                kind: EventKind::Write {
                                    loc: l,
                                    val: Val(wv),
                                    mode: kind.write_mode(),
                                },
                                addr_deps: loc_deps(loc, &s.reg_deps),
                                data_deps: data,
                                ctrl_deps: s.ctrl.clone(),
                            });
                            Some(widx)
                        } else {
                            None
                        };
                        s.trace.rmws.push(TraceRmw { read: ridx, write: widx, tag: kind.tag() });
                        if let Some(d) = dst {
                            s.trace.regs.insert(*d, v);
                            s.reg_deps.insert(*d, vec![ridx]);
                        }
                        // An exclusive-pair RMW ends with a conditional
                        // branch on the store-exclusive status / comparison,
                        // so everything after is control-dependent on the
                        // exclusive read.
                        if kind.is_lxsx() {
                            s.ctrl.push(ridx);
                        }
                        next.push(s);
                    }
                }
                Instr::Let { dst, val } => {
                    let mut s = st;
                    let v = val.eval(&s.trace.regs);
                    let deps = expr_deps(val, &s.reg_deps);
                    s.trace.regs.insert(*dst, v);
                    s.reg_deps.insert(*dst, deps);
                    next.push(s);
                }
                Instr::If { reg, eq, then, els } => {
                    let cond_deps = st.reg_deps.get(reg).cloned().unwrap_or_default();
                    let taken = st.trace.regs.get(reg).copied().unwrap_or(0) == *eq;
                    let mut s = st;
                    // ctrl extends over the branch body *and* everything
                    // after the join.
                    s.ctrl.extend(cond_deps);
                    s.ctrl.sort_unstable();
                    s.ctrl.dedup();
                    let body = if taken { then } else { els };
                    let sub = elab_instrs(body, vec![s], potential);
                    next.extend(sub);
                }
            }
        }
        states = next;
    }
    states
}

/// Elaborates every thread of a program.
pub fn elaborate_program(prog: &Program) -> Vec<Vec<ThreadTrace>> {
    let potential = potential_values(prog);
    prog.threads.iter().map(|t| elaborate_thread(t, &potential)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, RmwKind};
    use risotto_memmodel::{AccessMode, Loc};

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    #[test]
    fn potential_values_fixpoint() {
        // T0: X = 1; T1: r0 = X; Y = r0 + 1.
        let p = Program::builder("t")
            .thread(|t| {
                t.store(X, 1);
            })
            .thread(|t| {
                t.load(R0, X);
                t.store(Y, Expr::Add(Box::new(Expr::Reg(R0)), Box::new(Expr::Const(1))));
            })
            .build();
        let pv = potential_values(&p);
        assert_eq!(pv[&X], [0, 1].into());
        assert_eq!(pv[&Y], [0, 1, 2].into());
    }

    #[test]
    fn load_branches_per_value() {
        let p = Program::builder("t")
            .thread(|t| {
                t.store(X, 1);
            })
            .thread(|t| {
                t.load(R0, X).load(R1, X);
            })
            .build();
        let traces = elaborate_program(&p);
        assert_eq!(traces[0].len(), 1);
        assert_eq!(traces[1].len(), 4); // 2 values × 2 loads
    }

    #[test]
    fn cas_success_and_failure_traces() {
        let p = Program::builder("t")
            .thread(|t| {
                t.store(X, 1);
            })
            .thread(|t| {
                t.rmw_into(R0, X, 0u64, 5u64, RmwKind::ArmCasal);
            })
            .build();
        let traces = elaborate_program(&p);
        let t1 = &traces[1];
        // X ∈ {0, 1, 5}: reads 0 (success), 1, 5 (failures).
        assert_eq!(t1.len(), 3);
        let successes: Vec<_> = t1.iter().filter(|t| t.rmws[0].write.is_some()).collect();
        assert_eq!(successes.len(), 1);
        assert_eq!(successes[0].events.len(), 2);
        assert_eq!(successes[0].regs[&R0], 0);
        let failures: Vec<_> = t1.iter().filter(|t| t.rmws[0].write.is_none()).collect();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().all(|t| t.events.len() == 1));
    }

    #[test]
    fn control_dependencies_extend_past_join() {
        // r0 = X; if (r0 == 1) { Y = 1 }; Y = 2  — both stores ctrl-dep on the load.
        let p = Program::builder("t")
            .thread(|t| {
                t.store(X, 1);
            })
            .thread(|t| {
                t.load(R0, X);
                t.if_eq(R0, 1, |b| {
                    b.store(Y, 1);
                });
                t.store(Y, 2);
            })
            .build();
        let traces = elaborate_program(&p);
        let taken: Vec<_> = traces[1].iter().filter(|t| t.events.len() == 3).collect();
        assert_eq!(taken.len(), 1);
        let t = taken[0];
        assert_eq!(t.events[1].ctrl_deps, vec![0]);
        assert_eq!(t.events[2].ctrl_deps, vec![0]);
        let untaken: Vec<_> = traces[1].iter().filter(|t| t.events.len() == 2).collect();
        assert_eq!(untaken.len(), 1);
        // The post-join store is ctrl-dependent even on the untaken path.
        assert_eq!(untaken[0].events[1].ctrl_deps, vec![0]);
    }

    #[test]
    fn data_and_addr_dependencies() {
        let p = Program::builder("t")
            .thread(|t| {
                t.load(R0, X);
                t.store(LocSpec::Dep { loc: Y, via: R0 }, Expr::Reg(R0));
            })
            .build();
        let traces = elaborate_program(&p);
        for tr in &traces[0] {
            assert_eq!(tr.events[1].addr_deps, vec![0]);
            assert_eq!(tr.events[1].data_deps, vec![0]);
        }
    }

    #[test]
    fn acquire_mode_propagates() {
        let p = Program::builder("t")
            .thread(|t| {
                t.load_mode(R0, X, AccessMode::AcquirePc);
            })
            .build();
        let traces = elaborate_program(&p);
        match traces[0][0].events[0].kind {
            EventKind::Read { mode, .. } => assert_eq!(mode, AccessMode::AcquirePc),
            _ => panic!("expected read"),
        }
    }
}
