//! Delta-debugging minimizer for divergent programs.
//!
//! Works directly on the [`ProgSpec`] IR rather than on bytes, so every
//! candidate it tries is still a well-formed, terminating program — the
//! usual fuzzer-minimizer problem of shrinking into garbage cannot
//! arise. The strategy is a greedy fixpoint over single structural
//! mutations, ordered biggest-cut-first:
//!
//! 1. drop a whole child thread,
//! 2. drop a whole routine (rewriting `call` sites),
//! 3. delete one statement (at any nesting depth),
//! 4. splice a branch arm or loop body in place of its `if`/`loop`,
//! 5. shrink scalars: trip counts toward 1, immediates toward 0,
//!    atomic increments toward 1.
//!
//! A candidate is adopted iff the caller's predicate (by default "the
//! program still diverges", [`crate::diff::diverges`]) holds for it.
//! The loop restarts from the first mutation after every adoption and
//! stops when no mutation is accepted, so the result is a local fixpoint:
//! running the minimizer on its own output changes nothing (idempotence,
//! covered by a property test).

use crate::spec::{ProgSpec, Src, Stmt};

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The minimal spec still satisfying the predicate.
    pub spec: ProgSpec,
    /// Predicate evaluations performed (feeds `fuzz.minimizer_steps`).
    pub steps: u64,
    /// Mutations adopted on the way down.
    pub accepted: u64,
}

/// Minimizes `spec` under `keep` (the divergence predicate). `max_steps`
/// bounds predicate evaluations so a pathological predicate cannot spin
/// forever; the best spec found so far is returned when it trips.
pub fn minimize<F>(spec: &ProgSpec, keep: &F, max_steps: u64) -> Minimized
where
    F: Fn(&ProgSpec) -> bool,
{
    let mut cur = spec.clone();
    let mut steps = 0u64;
    let mut accepted = 0u64;
    'outer: loop {
        for cand in candidates(&cur) {
            if cand.validate().is_err() {
                continue;
            }
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if keep(&cand) {
                cur = cand;
                accepted += 1;
                continue 'outer; // restart from the biggest cuts
            }
        }
        break;
    }
    // Deterministic (no step count): minimizing a fixpoint again must
    // reproduce it exactly, note included.
    cur.note = format!("minimized from seed {:#x}", spec.seed);
    Minimized { spec: cur, steps, accepted }
}

/// All single-mutation shrink candidates of `spec`, biggest cuts first.
fn candidates(spec: &ProgSpec) -> Vec<ProgSpec> {
    let mut out = Vec::new();

    // 1. Drop a child thread.
    for t in 0..spec.threads.len() {
        let mut c = spec.clone();
        c.threads.remove(t);
        out.push(c);
    }

    // 2. Drop a routine, rewriting every call site.
    for r in 0..spec.routines.len() {
        let mut c = spec.clone();
        c.routines.remove(r);
        let fix = |body: &mut Vec<Stmt>| drop_routine_calls(body, r as u8);
        fix(&mut c.main);
        c.threads.iter_mut().for_each(fix);
        c.routines.iter_mut().for_each(fix);
        out.push(c);
    }

    // 3..5. Structural and scalar shrinks of every body.
    for (which, body) in bodies(spec) {
        for cand_body in body_candidates(body) {
            let mut c = spec.clone();
            *body_mut(&mut c, which) = cand_body;
            out.push(c);
        }
    }
    out
}

/// Body selector: main, thread index, or routine index.
#[derive(Clone, Copy)]
enum Which {
    Main,
    Thread(usize),
    Routine(usize),
}

fn bodies(spec: &ProgSpec) -> Vec<(Which, &Vec<Stmt>)> {
    let mut v = vec![(Which::Main, &spec.main)];
    v.extend(spec.threads.iter().enumerate().map(|(i, b)| (Which::Thread(i), b)));
    v.extend(spec.routines.iter().enumerate().map(|(i, b)| (Which::Routine(i), b)));
    v
}

fn body_mut(spec: &mut ProgSpec, which: Which) -> &mut Vec<Stmt> {
    match which {
        Which::Main => &mut spec.main,
        Which::Thread(i) => &mut spec.threads[i],
        Which::Routine(i) => &mut spec.routines[i],
    }
}

/// Removes calls to routine `r` and renumbers calls above it.
fn drop_routine_calls(body: &mut Vec<Stmt>, r: u8) {
    body.retain(|s| !matches!(s, Stmt::Call { routine } if *routine == r));
    for s in body.iter_mut() {
        match s {
            Stmt::Call { routine } if *routine > r => *routine -= 1,
            Stmt::If { then_body, else_body, .. } => {
                drop_routine_calls(then_body, r);
                drop_routine_calls(else_body, r);
            }
            Stmt::Loop { body, .. } => drop_routine_calls(body, r),
            _ => {}
        }
    }
}

/// All single-mutation variants of one body: per statement, deletion,
/// splices, scalar shrinks, and recursive variants of nested bodies.
fn body_candidates(body: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        // Deletion.
        let mut del = body.to_vec();
        del.remove(i);
        out.push(del);
        // Replacements (possibly splicing several statements in place).
        for repl in stmt_variants(&body[i]) {
            let mut v = body.to_vec();
            v.splice(i..=i, repl);
            out.push(v);
        }
    }
    out
}

/// Shrink variants of a single statement. Each entry replaces the
/// statement (an empty vec would be a deletion, which `body_candidates`
/// already covers, so none is emitted here).
fn stmt_variants(s: &Stmt) -> Vec<Vec<Stmt>> {
    let mut out: Vec<Vec<Stmt>> = Vec::new();
    let mut scalar = |t: Stmt| out.push(vec![t]);
    match s {
        Stmt::If { cond, a, imm, then_body, else_body } => {
            // Splice either arm in place of the branch.
            out.push(then_body.clone());
            if !else_body.is_empty() {
                out.push(else_body.clone());
            }
            if *imm != 0 {
                out.push(vec![Stmt::If {
                    cond: *cond,
                    a: *a,
                    imm: shrink_imm(*imm),
                    then_body: then_body.clone(),
                    else_body: else_body.clone(),
                }]);
            }
            // Recurse into the arms.
            for tb in body_candidates(then_body) {
                out.push(vec![Stmt::If {
                    cond: *cond,
                    a: *a,
                    imm: *imm,
                    then_body: tb,
                    else_body: else_body.clone(),
                }]);
            }
            for eb in body_candidates(else_body) {
                out.push(vec![Stmt::If {
                    cond: *cond,
                    a: *a,
                    imm: *imm,
                    then_body: then_body.clone(),
                    else_body: eb,
                }]);
            }
        }
        Stmt::Loop { trips, body } => {
            // Unroll once in place of the loop.
            out.push(body.clone());
            if *trips > 1 {
                out.push(vec![Stmt::Loop { trips: 1, body: body.clone() }]);
            }
            if *trips > 3 {
                out.push(vec![Stmt::Loop { trips: *trips / 2, body: body.clone() }]);
            }
            for b in body_candidates(body) {
                out.push(vec![Stmt::Loop { trips: *trips, body: b }]);
            }
        }
        Stmt::MovImm { dst, imm } if *imm != 0 => {
            scalar(Stmt::MovImm { dst: *dst, imm: shrink_imm(*imm) });
        }
        Stmt::Alu { op, dst, src: Src::Imm(imm) } if *imm != 0 => {
            scalar(Stmt::Alu { op: *op, dst: *dst, src: Src::Imm(shrink_imm(*imm)) });
        }
        Stmt::Cmp { a, src: Src::Imm(imm) } if *imm != 0 => {
            scalar(Stmt::Cmp { a: *a, src: Src::Imm(shrink_imm(*imm)) });
        }
        Stmt::Spill { reg, imm } if *imm != 0 => {
            scalar(Stmt::Spill { reg: *reg, imm: shrink_imm(*imm) });
        }
        Stmt::AtomicAdd { cell, k } if *k > 1 => {
            scalar(Stmt::AtomicAdd { cell: *cell, k: 1 });
        }
        Stmt::CasAdd { cell, k } if *k > 1 => {
            scalar(Stmt::CasAdd { cell: *cell, k: 1 });
        }
        Stmt::Cmpxchg { slot, expect, newv } if *expect != 0 || *newv != 0 => {
            scalar(Stmt::Cmpxchg { slot: *slot, expect: 0, newv: 0 });
        }
        _ => {}
    }
    out
}

/// One step toward zero: 0 for small values, halving for large ones —
/// converges in O(log imm) adoptions while keeping intermediate values
/// interesting (sign bit, byte edges survive a while).
fn shrink_imm(imm: u64) -> u64 {
    if imm <= 0xff {
        0
    } else {
        imm / 2
    }
}

/// Renders a regression-test skeleton for a minimized reproducer that
/// was saved as `tests/corpus/<name>.risotto`. The emitted test replays
/// the corpus file through the differential oracle.
pub fn regression_test_skeleton(spec: &ProgSpec, name: &str) -> String {
    format!(
        "/// Regression reproducer `{name}` (minimized from seed {seed:#x}).\n\
         /// Divergence note: {note}\n\
         #[test]\n\
         fn corpus_{fn_name}() {{\n\
         \x20   let text = include_str!(\"corpus/{name}.risotto\");\n\
         \x20   let spec = risotto::fuzz::parse_corpus(text).expect(\"corpus must parse\");\n\
         \x20   let result = risotto::fuzz::differential(&spec);\n\
         \x20   assert!(\n\
         \x20       result.divergences.is_empty(),\n\
         \x20       \"reproducer {name} diverged again: {{:?}}\",\n\
         \x20       result.divergences,\n\
         \x20   );\n\
         }}\n",
        seed = spec.seed,
        note = if spec.note.is_empty() { "(none)" } else { &spec.note },
        fn_name = name.replace(['-', '.'], "_"),
    )
}
