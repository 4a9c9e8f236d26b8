//! IR-level program transformations (§5.4, Fig. 10) at the litmus level.
//!
//! Each transformation rewrites a thread's instruction list the way TCG's
//! optimizer rewrites a basic block. The soundness side conditions of
//! Fig. 10 are the optimizer's own, [`OptPolicy::may_cross`]; passing
//! [`OptPolicy::QemuUnsound`] reproduces QEMU's *unsound* behavior (the
//! FMR bug), which the test-suite demonstrates via Theorem 1.
//!
//! ```text
//! R(X,v) · R(X,v')      ↝ R(X,v)            (RAR)
//! W(X,v) · R(X,v)       ↝ W(X,v)            (RAW)
//! W(X,v) · W(X,v')      ↝ W(X,v')           (WAW)
//! R(X,v) · F_o · R(X,v') ↝ R(X,v) · F_o     (F-RAR, o ∈ {rm, ww})
//! W(X,v) · F_τ · R(X,v)  ↝ W(X,v) · F_τ     (F-RAW, τ ∈ {sc, ww})
//! W(X,v) · F_o · W(X,v') ↝ F_o · W(X,v')    (F-WAW, o ∈ {rr, rw, rm})
//! ```
//!
//! F-WAW departs from Fig. 10, whose published `o ∈ {rm, ww}` admits
//! `Fww`: deleting a store across `Fww` drops the ordering that store
//! had with later writes, which `tests/opt_soundness.rs`
//! (`fww_waw_counterexample_is_real`) shows observable. A dead store may
//! cross only a fence whose predecessor class is write-free.

use risotto_litmus::{Expr, Instr, LocSpec, Program};
use risotto_memmodel::{AccessMode, ElimKind, FenceKind, OptPolicy};

/// Attempts the elimination whose *first* access sits at `idx` in thread
/// `tid`, optionally across one intermediate fence. Returns the rewritten
/// program, or `None` if the pattern does not match there.
pub fn eliminate_at(
    prog: &Program,
    tid: usize,
    idx: usize,
    elim: ElimKind,
    policy: OptPolicy,
) -> Option<Program> {
    let instrs = &prog.threads.get(tid)?.instrs;
    let first = instrs.get(idx)?;
    // Find the second access: either adjacent, or separated by one fence
    // that the policy admits.
    let (second_idx, fence_between) = match instrs.get(idx + 1)? {
        Instr::Fence(k) => {
            if !policy.may_cross(elim, *k) {
                return None;
            }
            (idx + 2, true)
        }
        _ => (idx + 1, false),
    };
    let second = instrs.get(second_idx)?;

    let replacement: Vec<Instr> = match (elim, first, second) {
        // R(X,v) · R(X,v') ↝ R(X,v); the second register becomes an alias.
        (
            ElimKind::Rar,
            Instr::Load { dst: d1, loc: l1, mode: AccessMode::Plain },
            Instr::Load { dst: d2, loc: l2, mode: AccessMode::Plain },
        ) if l1.loc() == l2.loc() => {
            let mut out = vec![Instr::Load { dst: *d1, loc: *l1, mode: AccessMode::Plain }];
            if fence_between {
                out.push(instrs[idx + 1].clone());
            }
            out.push(Instr::Let { dst: *d2, val: Expr::Reg(*d1) });
            out
        }
        // W(X,v) · R(X,v) ↝ W(X,v); the read's register takes the stored value.
        (
            ElimKind::Raw,
            Instr::Store { loc: l1, val, mode: AccessMode::Plain },
            Instr::Load { dst, loc: l2, mode: AccessMode::Plain },
        ) if l1.loc() == l2.loc() => {
            let mut out =
                vec![Instr::Store { loc: *l1, val: val.clone(), mode: AccessMode::Plain }];
            if fence_between {
                out.push(instrs[idx + 1].clone());
            }
            out.push(Instr::Let { dst: *dst, val: val.clone() });
            out
        }
        // W(X,v) · W(X,v') ↝ W(X,v') (fence, if any, moves before: F_o · W).
        (
            ElimKind::Waw,
            Instr::Store { loc: l1, mode: AccessMode::Plain, .. },
            Instr::Store { loc: l2, val: v2, mode: AccessMode::Plain },
        ) if l1.loc() == l2.loc() => {
            let mut out = Vec::new();
            if fence_between {
                out.push(instrs[idx + 1].clone());
            }
            out.push(Instr::Store { loc: *l2, val: v2.clone(), mode: AccessMode::Plain });
            out
        }
        _ => return None,
    };

    let mut out = prog.clone();
    out.name = format!("{}·{:?}@{}:{}", prog.name, elim, tid, idx);
    out.threads[tid].instrs.splice(idx..=second_idx, replacement);
    Some(out)
}

/// Merges two adjacent TCG fences at `idx`/`idx+1` into their join
/// (§6.1): the merged fence is at least as strong as both, placed where
/// the earlier fence was. `Fsc` absorbs everything.
pub fn merge_fences_at(prog: &Program, tid: usize, idx: usize) -> Option<Program> {
    let instrs = &prog.threads.get(tid)?.instrs;
    let (a, b) = match (instrs.get(idx)?, instrs.get(idx + 1)?) {
        (Instr::Fence(a), Instr::Fence(b)) if a.is_tcg() && b.is_tcg() => (*a, *b),
        _ => return None,
    };
    let merged = a.tcg_join(b);
    let mut out = prog.clone();
    out.name = format!("{}·merge@{}:{}", prog.name, tid, idx);
    out.threads[tid].instrs.splice(idx..=idx + 1, [Instr::Fence(merged)]);
    Some(out)
}

/// Strengthens the fence at `idx` to `stronger` (must dominate the current
/// fence in the TCG lattice). Always sound: more ordering, fewer behaviors.
pub fn strengthen_fence_at(
    prog: &Program,
    tid: usize,
    idx: usize,
    stronger: FenceKind,
) -> Option<Program> {
    let instrs = &prog.threads.get(tid)?.instrs;
    match instrs.get(idx)? {
        Instr::Fence(k) if k.is_tcg() && stronger.tcg_at_least(*k) => {
            let mut out = prog.clone();
            out.name = format!("{}·strengthen@{}:{}", prog.name, tid, idx);
            out.threads[tid].instrs[idx] = Instr::Fence(stronger);
            Some(out)
        }
        _ => None,
    }
}

/// Reorders the two adjacent accesses at `idx`/`idx+1` if they are
/// independent plain accesses on *different* locations with no register
/// dependency (§5.4: the TCG model orders nothing between such pairs).
pub fn reorder_at(prog: &Program, tid: usize, idx: usize) -> Option<Program> {
    let instrs = &prog.threads.get(tid)?.instrs;
    let a = instrs.get(idx)?;
    let b = instrs.get(idx + 1)?;
    if !independent_accesses(a, b) {
        return None;
    }
    let mut out = prog.clone();
    out.name = format!("{}·reorder@{}:{}", prog.name, tid, idx);
    out.threads[tid].instrs.swap(idx, idx + 1);
    Some(out)
}

fn independent_accesses(a: &Instr, b: &Instr) -> bool {
    fn parts(
        i: &Instr,
    ) -> Option<(risotto_memmodel::Loc, Vec<risotto_litmus::Reg>, Vec<risotto_litmus::Reg>)> {
        // (location, regs read, regs written) — plain non-RMW accesses only.
        match i {
            Instr::Load { dst, loc, mode: AccessMode::Plain } => {
                let mut reads = Vec::new();
                if let LocSpec::Dep { via, .. } = loc {
                    reads.push(*via);
                }
                Some((loc.loc(), reads, vec![*dst]))
            }
            Instr::Store { loc, val, mode: AccessMode::Plain } => {
                let mut reads = val.regs();
                if let LocSpec::Dep { via, .. } = loc {
                    reads.push(*via);
                }
                Some((loc.loc(), reads, Vec::new()))
            }
            _ => None,
        }
    }
    let (la, ra, wa) = match parts(a) {
        Some(p) => p,
        None => return false,
    };
    let (lb, rb, wb) = match parts(b) {
        Some(p) => p,
        None => return false,
    };
    la != lb
        && wa.iter().all(|r| !rb.contains(r) && !wb.contains(r))
        && wb.iter().all(|r| !ra.contains(r))
}

/// Eliminates *false* dependencies (§6.1): `e * 0 ↝ 0`, `r ⊕ r ↝ 0`, and
/// artificial address dependencies `X[r⊕r] ↝ X`. Trivially sound in the
/// TCG model, which derives no ordering from dependencies.
pub fn eliminate_false_deps(prog: &Program) -> Program {
    fn fix_expr(e: &Expr) -> Expr {
        match e {
            Expr::Mul(a, b) => {
                let (fa, fb) = (fix_expr(a), fix_expr(b));
                if fa == Expr::Const(0) || fb == Expr::Const(0) {
                    Expr::Const(0)
                } else {
                    Expr::Mul(Box::new(fa), Box::new(fb))
                }
            }
            Expr::Xor(a, b) => {
                let (fa, fb) = (fix_expr(a), fix_expr(b));
                if fa == fb {
                    Expr::Const(0)
                } else {
                    Expr::Xor(Box::new(fa), Box::new(fb))
                }
            }
            Expr::Add(a, b) => {
                let (fa, fb) = (fix_expr(a), fix_expr(b));
                match (&fa, &fb) {
                    (Expr::Const(0), _) => fb.clone(),
                    (_, Expr::Const(0)) => fa,
                    _ => Expr::Add(Box::new(fa), Box::new(fb)),
                }
            }
            other => other.clone(),
        }
    }
    fn fix_instrs(instrs: &[Instr]) -> Vec<Instr> {
        instrs
            .iter()
            .map(|i| match i {
                Instr::Store { loc, val, mode } => {
                    Instr::Store { loc: fix_loc(loc), val: fix_expr(val), mode: *mode }
                }
                Instr::Load { dst, loc, mode } => {
                    Instr::Load { dst: *dst, loc: fix_loc(loc), mode: *mode }
                }
                Instr::Rmw { dst, loc, expected, desired, kind } => Instr::Rmw {
                    dst: *dst,
                    loc: fix_loc(loc),
                    expected: fix_expr(expected),
                    desired: fix_expr(desired),
                    kind: *kind,
                },
                Instr::Let { dst, val } => Instr::Let { dst: *dst, val: fix_expr(val) },
                Instr::If { reg, eq, then, els } => {
                    Instr::If { reg: *reg, eq: *eq, then: fix_instrs(then), els: fix_instrs(els) }
                }
                Instr::Fence(k) => Instr::Fence(*k),
            })
            .collect()
    }
    fn fix_loc(l: &LocSpec) -> LocSpec {
        // Dropping the artificial address dependency.
        LocSpec::Direct(l.loc())
    }
    Program {
        name: format!("{}·nofalsedeps", prog.name),
        init: prog.init.clone(),
        threads: prog
            .threads
            .iter()
            .map(|t| risotto_litmus::Thread { instrs: fix_instrs(&t.instrs) })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_litmus::{corpus, Program, Reg};
    use risotto_memmodel::Loc;

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);
    const A: Reg = Reg(0);
    const B: Reg = Reg(1);

    #[test]
    fn raw_elimination_rewrites_to_let() {
        let p = Program::builder("raw")
            .thread(|t| {
                t.store(X, 2).load(A, X);
            })
            .build();
        let q = eliminate_at(&p, 0, 0, ElimKind::Raw, OptPolicy::Verified).unwrap();
        assert_eq!(q.threads[0].instrs.len(), 2);
        assert!(matches!(q.threads[0].instrs[1], Instr::Let { .. }));
    }

    #[test]
    fn raw_across_fmr_rejected_by_verified_policy() {
        let p = Program::builder("raw+fmr")
            .thread(|t| {
                t.store(X, 2).fence(FenceKind::Fmr).load(A, X);
            })
            .build();
        assert!(eliminate_at(&p, 0, 0, ElimKind::Raw, OptPolicy::Verified).is_none());
        assert!(eliminate_at(&p, 0, 0, ElimKind::Raw, OptPolicy::QemuUnsound).is_some());
    }

    #[test]
    fn raw_across_fww_allowed() {
        let p = Program::builder("raw+fww")
            .thread(|t| {
                t.store(X, 2).fence(FenceKind::Fww).load(A, X);
            })
            .build();
        let q = eliminate_at(&p, 0, 0, ElimKind::Raw, OptPolicy::Verified).unwrap();
        assert!(matches!(q.threads[0].instrs[1], Instr::Fence(FenceKind::Fww)));
    }

    #[test]
    fn waw_keeps_last_store_and_moves_fence_before() {
        let p = Program::builder("waw")
            .thread(|t| {
                t.store(X, 1).fence(FenceKind::Frm).store(X, 2);
            })
            .build();
        let q = eliminate_at(&p, 0, 0, ElimKind::Waw, OptPolicy::Verified).unwrap();
        assert!(matches!(q.threads[0].instrs[0], Instr::Fence(FenceKind::Frm)));
        assert!(matches!(q.threads[0].instrs[1], Instr::Store { val: Expr::Const(2), .. }));
    }

    #[test]
    fn rar_aliases_second_register() {
        let p = Program::builder("rar")
            .thread(|t| {
                t.load(A, X).load(B, X);
            })
            .build();
        let q = eliminate_at(&p, 0, 0, ElimKind::Rar, OptPolicy::Verified).unwrap();
        assert!(matches!(q.threads[0].instrs[1], Instr::Let { dst: B, val: Expr::Reg(A) }));
    }

    #[test]
    fn elimination_respects_location_mismatch() {
        let p = Program::builder("diff-locs")
            .thread(|t| {
                t.store(X, 1).load(A, Y);
            })
            .build();
        assert!(eliminate_at(&p, 0, 0, ElimKind::Raw, OptPolicy::Verified).is_none());
    }

    #[test]
    fn merge_produces_join_and_absorbs_fsc() {
        let p = corpus::merge_example();
        let q = merge_fences_at(&p, 0, 1).unwrap();
        // Frm · Fww → Fmm (which lowers to DMB FF, like the paper's Fsc).
        assert!(matches!(q.threads[0].instrs[1], Instr::Fence(FenceKind::Fmm)));
        let r = Program::builder("fsc")
            .thread(|t| {
                t.fence(FenceKind::Frr).fence(FenceKind::Fsc);
            })
            .build();
        let s = merge_fences_at(&r, 0, 0).unwrap();
        assert!(matches!(s.threads[0].instrs[0], Instr::Fence(FenceKind::Fsc)));
    }

    #[test]
    fn strengthen_only_upwards() {
        let p = Program::builder("st")
            .thread(|t| {
                t.fence(FenceKind::Frr);
            })
            .build();
        assert!(strengthen_fence_at(&p, 0, 0, FenceKind::Fsc).is_some());
        assert!(strengthen_fence_at(&p, 0, 0, FenceKind::Fww).is_none());
    }

    #[test]
    fn reorder_requires_independence() {
        let p = Program::builder("re")
            .thread(|t| {
                t.load(A, X).store(Y, 7);
            })
            .build();
        assert!(reorder_at(&p, 0, 0).is_some());
        // Dependent pair: store uses the loaded register.
        let q = Program::builder("re2")
            .thread(|t| {
                t.load(A, X).store(Y, Expr::Reg(A));
            })
            .build();
        assert!(reorder_at(&q, 0, 0).is_none());
        // Same location: never reordered.
        let r = Program::builder("re3")
            .thread(|t| {
                t.load(A, X).store(X, 1);
            })
            .build();
        assert!(reorder_at(&r, 0, 0).is_none());
    }

    #[test]
    fn false_dep_elimination_simplifies() {
        let p = corpus::false_dep();
        let q = eliminate_false_deps(&p);
        match &q.threads[0].instrs[1] {
            Instr::Store { val, .. } => assert_eq!(*val, Expr::Const(0)),
            other => panic!("unexpected: {other:?}"),
        }
        let d = eliminate_false_deps(&corpus::mp_addr_dep());
        assert!(matches!(d.threads[1].instrs[1], Instr::Load { loc: LocSpec::Direct(_), .. }));
    }
}
