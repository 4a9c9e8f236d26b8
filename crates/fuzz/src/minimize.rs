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
use risotto_guest_x86::Gpr;
use std::fmt;

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

/// Prints `spec` as Rust source: a `#[rustfmt::skip]` function `name`
/// that builds it, naming the IR types unqualified (`ProgSpec`, `Stmt`,
/// `Src`, `Gpr`, `AluOp`, `FpOp`, `Cond`), one statement a line. The
/// checked-in reproducers (`tests/theorem1/reproducers.rs`) are this
/// function's output.
pub fn spec_constructor(spec: &ProgSpec, name: &str) -> String {
    let mut out = format!("#[rustfmt::skip]\nfn {name}() -> ProgSpec {{\n    ProgSpec {{\n");
    out += &format!("        seed: {:#x},\n", spec.seed);
    out += &format!("        note: {:?}.into(),\n", spec.note);
    for (field, bodies) in [("routines", &spec.routines), ("threads", &spec.threads)] {
        if bodies.is_empty() {
            out += &format!("        {field}: vec![],\n");
        } else {
            out += &format!("        {field}: vec![\n");
            for body in bodies {
                out += &format!("            {},\n", Body(body, 3));
            }
            out += "        ],\n";
        }
    }
    out += &format!("        main: {},\n    }}\n}}\n", Body(&spec.main, 2));
    out
}

/// A body as `vec![..]`: its statements one a line, indented one level
/// deeper than `.1`, the closing bracket at `.1`.
struct Body<'a>(&'a [Stmt], usize);

impl fmt::Display for Body<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Body(body, depth) = *self;
        if body.is_empty() {
            return f.write_str("vec![]");
        }
        f.write_str("vec![\n")?;
        for s in body {
            writeln!(f, "{:w$}{},", "", Code(s, depth + 1), w = 4 * (depth + 1))?;
        }
        write!(f, "{:w$}]", "", w = 4 * depth)
    }
}

/// A statement as a `Stmt` expression at indent level `.1`.
struct Code<'a>(&'a Stmt, usize);

impl fmt::Display for Code<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Code(s, depth) = *self;
        let gpr = |r: &Gpr| format!("Gpr::{}", r.to_string().to_uppercase());
        let operand = |src: &Src| match src {
            Src::Reg(r) => format!("Src::Reg({})", gpr(r)),
            Src::Imm(i) => format!("Src::Imm({i:#x})"),
        };
        match s {
            Stmt::MovImm { dst, imm } => {
                write!(f, "Stmt::MovImm {{ dst: {}, imm: {imm:#x} }}", gpr(dst))
            }
            Stmt::MovReg { dst, src } => {
                write!(f, "Stmt::MovReg {{ dst: {}, src: {} }}", gpr(dst), gpr(src))
            }
            Stmt::Alu { op, dst, src } => write!(
                f,
                "Stmt::Alu {{ op: AluOp::{op:?}, dst: {}, src: {} }}",
                gpr(dst),
                operand(src)
            ),
            Stmt::Div { src } => write!(f, "Stmt::Div {{ src: {} }}", gpr(src)),
            Stmt::Fp { op, dst, src } => {
                write!(f, "Stmt::Fp {{ op: FpOp::{op:?}, dst: {}, src: {} }}", gpr(dst), gpr(src))
            }
            Stmt::Load { dst, slot } => {
                write!(f, "Stmt::Load {{ dst: {}, slot: {slot} }}", gpr(dst))
            }
            Stmt::Store { slot, src } => {
                write!(f, "Stmt::Store {{ slot: {slot}, src: {} }}", gpr(src))
            }
            Stmt::LoadB { dst, slot, byte } => {
                write!(f, "Stmt::LoadB {{ dst: {}, slot: {slot}, byte: {byte} }}", gpr(dst))
            }
            Stmt::StoreB { slot, byte, src } => {
                write!(f, "Stmt::StoreB {{ slot: {slot}, byte: {byte}, src: {} }}", gpr(src))
            }
            Stmt::LoadShared { dst, cell } => {
                write!(f, "Stmt::LoadShared {{ dst: {}, cell: {cell} }}", gpr(dst))
            }
            Stmt::Cmp { a, src } => {
                write!(f, "Stmt::Cmp {{ a: {}, src: {} }}", gpr(a), operand(src))
            }
            Stmt::Test { a, b } => write!(f, "Stmt::Test {{ a: {}, b: {} }}", gpr(a), gpr(b)),
            Stmt::Fence => f.write_str("Stmt::Fence"),
            Stmt::Spill { reg, imm } => {
                write!(f, "Stmt::Spill {{ reg: {}, imm: {imm:#x} }}", gpr(reg))
            }
            Stmt::If { cond, a, imm, then_body, else_body } => write!(
                f,
                "Stmt::If {{ cond: Cond::{cond:?}, a: {}, imm: {imm:#x}, then_body: {}, \
                 else_body: {} }}",
                gpr(a),
                Body(then_body, depth),
                Body(else_body, depth)
            ),
            Stmt::Loop { trips, body } => {
                write!(f, "Stmt::Loop {{ trips: {trips}, body: {} }}", Body(body, depth))
            }
            Stmt::Call { routine } => write!(f, "Stmt::Call {{ routine: {routine} }}"),
            Stmt::AtomicAdd { cell, k } => {
                write!(f, "Stmt::AtomicAdd {{ cell: {cell}, k: {k:#x} }}")
            }
            Stmt::CasAdd { cell, k } => write!(f, "Stmt::CasAdd {{ cell: {cell}, k: {k:#x} }}"),
            Stmt::Cmpxchg { slot, expect, newv } => {
                write!(f, "Stmt::Cmpxchg {{ slot: {slot}, expect: {expect:#x}, newv: {newv:#x} }}")
            }
            Stmt::Write { slot } => write!(f, "Stmt::Write {{ slot: {slot} }}"),
            Stmt::Gettid => f.write_str("Stmt::Gettid"),
        }
    }
}

/// Renders a ready-to-paste regression test for a minimized reproducer
/// named `name` (an identifier): a `#[test]` that runs it through the
/// differential oracle by name,
/// and the [`spec_constructor`] it calls. Pasted into `tests/fuzz.rs`
/// it runs alone; moving the constructor into
/// `tests/theorem1/reproducers.rs` and listing it in `REPRODUCERS` runs
/// it in every slice that reads the reproducers.
pub fn regression_test_skeleton(spec: &ProgSpec, name: &str) -> String {
    format!(
        "/// Regression reproducer `{name}` (minimized from seed {seed:#x}).\n\
         /// Divergence note: {note}\n\
         #[test]\n\
         fn reproducer_{name}() {{\n\
         \x20   let result = differential(&{name}());\n\
         \x20   assert!(\n\
         \x20       result.divergences.is_empty(),\n\
         \x20       \"reproducer {name} diverged again: {{:?}}\",\n\
         \x20       result.divergences,\n\
         \x20   );\n\
         }}\n\
         \n\
         {constructor}",
        seed = spec.seed,
        note = if spec.note.is_empty() { "(none)" } else { &spec.note },
        constructor = spec_constructor(spec, name),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statement kinds no checked-in reproducer uses, printed.
    #[test]
    fn constructor_prints_the_kinds_no_reproducer_uses() {
        let spec = ProgSpec {
            seed: 0x5,
            main: vec![
                Stmt::MovReg { dst: Gpr::RAX, src: Gpr::R10 },
                Stmt::LoadB { dst: Gpr::RCX, slot: 7, byte: 3 },
                Stmt::LoadShared { dst: Gpr::RDI, cell: 2 },
                Stmt::Spill { reg: Gpr::RBP, imm: 0xfeed },
            ],
            threads: vec![],
            routines: vec![],
            note: String::new(),
        };
        let want = "\
#[rustfmt::skip]
fn rare_kinds() -> ProgSpec {
    ProgSpec {
        seed: 0x5,
        note: \"\".into(),
        routines: vec![],
        threads: vec![],
        main: vec![
            Stmt::MovReg { dst: Gpr::RAX, src: Gpr::R10 },
            Stmt::LoadB { dst: Gpr::RCX, slot: 7, byte: 3 },
            Stmt::LoadShared { dst: Gpr::RDI, cell: 2 },
            Stmt::Spill { reg: Gpr::RBP, imm: 0xfeed },
        ],
    }
}
";
        assert_eq!(spec_constructor(&spec, "rare_kinds"), want);
    }
}
