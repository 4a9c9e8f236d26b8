//! Systematic litmus-program generation for the verification sweep.
//!
//! The paper's Agda development quantifies over all programs; we
//! approximate the ∀ by exhaustively generating every two-thread program
//! over a representative instruction alphabet and checking Theorem 1 on
//! each. The family contains (modulo renaming) all the shapes the paper's
//! proofs case-split on: MP, SB, LB, R, S, 2+2W and their RMW/fence
//! variants — in particular every counterexample of §3.2/§3.3.

use risotto_litmus::{Instr, Program, Reg, RmwKind, Thread};
use risotto_memmodel::{AccessMode, FenceKind, Loc};

/// The two locations the generated programs use.
pub const GX: Loc = Loc(0);
/// Second location.
pub const GY: Loc = Loc(1);

/// Abstract instruction template; registers are assigned at instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Store 1 to the location.
    W(Loc),
    /// Load into a fresh register.
    R(Loc),
    /// `MFENCE`.
    MFence,
    /// `LOCK CMPXCHG(loc, 0, 1)` with a fresh old-value register.
    Rmw(Loc),
}

/// The default x86 alphabet over `{X, Y}`.
pub fn x86_alphabet() -> Vec<Template> {
    vec![
        Template::W(GX),
        Template::W(GY),
        Template::R(GX),
        Template::R(GY),
        Template::MFence,
        Template::Rmw(GX),
        Template::Rmw(GY),
    ]
}

/// A reduced alphabet (no fences) for quicker sweeps.
pub fn x86_alphabet_small() -> Vec<Template> {
    vec![Template::W(GX), Template::W(GY), Template::R(GX), Template::R(GY), Template::Rmw(GX)]
}

fn instantiate(seq: &[Template], reg_base: u32) -> Vec<Instr> {
    let mut out = Vec::new();
    let mut next_reg = reg_base;
    for t in seq {
        match t {
            Template::W(l) => out.push(Instr::Store {
                loc: (*l).into(),
                val: risotto_litmus::Expr::Const(1),
                mode: AccessMode::Plain,
            }),
            Template::R(l) => {
                out.push(Instr::Load {
                    dst: Reg(next_reg),
                    loc: (*l).into(),
                    mode: AccessMode::Plain,
                });
                next_reg += 1;
            }
            Template::MFence => out.push(Instr::Fence(FenceKind::MFence)),
            Template::Rmw(l) => {
                out.push(Instr::Rmw {
                    dst: Some(Reg(next_reg)),
                    loc: (*l).into(),
                    expected: risotto_litmus::Expr::Const(0),
                    desired: risotto_litmus::Expr::Const(1),
                    kind: RmwKind::X86Lock,
                });
                next_reg += 1;
            }
        }
    }
    out
}

fn sequences(alphabet: &[Template], len: usize) -> Vec<Vec<Template>> {
    if len == 0 {
        return vec![Vec::new()];
    }
    let shorter = sequences(alphabet, len - 1);
    let mut out = Vec::new();
    for s in &shorter {
        for &t in alphabet {
            let mut s2 = s.clone();
            s2.push(t);
            out.push(s2);
        }
    }
    out
}

/// Generates every two-thread program whose threads are length-`len`
/// sequences over `alphabet`, deduplicated under thread swap. `stride`
/// subsamples the family (1 = all).
///
/// # Panics
///
/// Panics if `stride` is 0.
pub fn generate_two_thread(alphabet: &[Template], len: usize, stride: usize) -> Vec<Program> {
    assert!(stride > 0, "stride must be positive");
    let seqs = sequences(alphabet, len);
    let mut out = Vec::new();
    let mut n = 0usize;
    for (i, t0) in seqs.iter().enumerate() {
        for t1 in seqs.iter().skip(i) {
            n += 1;
            if !(n - 1).is_multiple_of(stride) {
                continue;
            }
            out.push(Program {
                name: format!("gen-{n}"),
                init: Default::default(),
                threads: vec![
                    Thread { instrs: instantiate(t0, 0) },
                    Thread { instrs: instantiate(t1, 8) },
                ],
            });
        }
    }
    out
}

/// Every TCG fence kind between the two accesses of each thread of a
/// two-thread MP/SB-shaped skeleton, in all four load/store orientations:
/// 12 kinds × 4 = 48 TCG programs, the exhaustive fence-pattern source of
/// the TCG→host rows of the verdict table.
pub fn tcg_fence_patterns() -> Vec<Program> {
    let mut out = Vec::new();
    for &k in &FenceKind::TCG_ALL {
        for (t0_store_first, t1_store_first) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let name = format!("tcg-fence-{k:?}-{t0_store_first}-{t1_store_first}");
            let p = Program::builder(&name)
                .thread(|t| {
                    if t0_store_first {
                        t.store(GX, 1).fence(k).load(Reg(0), GY);
                    } else {
                        t.load(Reg(0), GX).fence(k).store(GY, 1);
                    }
                })
                .thread(|t| {
                    if t1_store_first {
                        t.store(GY, 1).fence(k).load(Reg(1), GX);
                    } else {
                        t.load(Reg(1), GY).fence(k).store(GX, 1);
                    }
                })
                .build();
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_counts() {
        let a = x86_alphabet_small();
        let seqs = sequences(&a, 2);
        assert_eq!(seqs.len(), 25);
        // Unordered pairs with repetition: n(n+1)/2 = 325.
        let all = generate_two_thread(&a, 2, 1);
        assert_eq!(all.len(), 325);
        let sampled = generate_two_thread(&a, 2, 10);
        assert_eq!(sampled.len(), 33);
        assert_eq!(tcg_fence_patterns().len(), 48, "12 TCG fence kinds x 4 orientations");
    }

    #[test]
    fn generated_programs_have_fresh_registers() {
        let p = &generate_two_thread(&[Template::R(GX)], 2, 1)[0];
        match (&p.threads[0].instrs[0], &p.threads[0].instrs[1]) {
            (Instr::Load { dst: a, .. }, Instr::Load { dst: b, .. }) => assert_ne!(a, b),
            _ => panic!("expected loads"),
        }
    }
}
