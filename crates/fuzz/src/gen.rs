//! Seeded random [`ProgSpec`] generation with weighted statement classes.
//!
//! All randomness flows through the workspace-shared
//! [`SplitMix64`] stream, so `generate(cfg, seed)` is a pure function of
//! its arguments: the same seed reproduces the same program on any
//! machine, which is what makes a one-line reproducer
//! (`fuzz <seed> <iters>`) possible.
//!
//! The default weights are tuned for path coverage rather than realism:
//! loops are common (TB chaining, tier-0 → tier-1 promotion), atomics and
//! fences are over-represented relative to real code (the paper's risk
//! surface), and multi-threaded programs appear in a fixed fraction of
//! draws. Every emitted spec satisfies [`ProgSpec::validate`] by
//! construction — the generator only ever picks from the legal space.

use crate::spec::{ProgSpec, Src, Stmt, CELLS, MAX_TRIPS, SLOTS, WORKING_REGS};
use risotto_core::SplitMix64;
use risotto_guest_x86::{AluOp, Cond, FpOp, Gpr};

/// Tunable statement-class weights (relative, not normalized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weights {
    /// Plain ALU / mov / div / soft-float arithmetic.
    pub alu: u32,
    /// Private-slot loads/stores, byte-granular accesses, stack spills.
    pub mem: u32,
    /// `LOCK XADD` / `CMPXCHG` statements (plus fences).
    pub atomic: u32,
    /// Forward `if`/`else` branches.
    pub branch: u32,
    /// Counted loops (backward edges).
    pub loops: u32,
    /// Calls into shared routines.
    pub call: u32,
    /// Syscall-flavoured statements (`write`, `gettid`).
    pub sys: u32,
}

impl Default for Weights {
    fn default() -> Weights {
        Weights { alu: 30, mem: 22, atomic: 14, branch: 10, loops: 9, call: 6, sys: 4 }
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Statement-class weights.
    pub weights: Weights,
    /// Maximum statements per body (top level).
    pub max_body: usize,
    /// Probability (out of 100) that a program is multi-threaded.
    pub multicore_pct: u64,
    /// Maximum child threads of a multi-threaded program.
    pub max_children: usize,
    /// Append a counted loop of 24 to `MAX_TRIPS` trips to the main body
    /// when that body holds no `Loop` statement, at its top level or in
    /// an `if` arm. The test is syntactic, so this does not guarantee a
    /// block that crosses the ladder leg's warm threshold: a loop already
    /// there may sit in an `if` arm no run takes, or run as few as one
    /// trip, and then nothing is appended (seed `0x124f6f6f6bb7117a` of
    /// batch `0xBAC0_0000` enters each of its 14 blocks once).
    pub ensure_hot_loop: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            weights: Weights::default(),
            max_body: 12,
            multicore_pct: 35,
            max_children: 3,
            ensure_hot_loop: true,
        }
    }
}

/// Generates a random, valid, terminating [`ProgSpec`] from `seed`.
pub fn generate(cfg: &GenConfig, seed: u64) -> ProgSpec {
    let mut rng = SplitMix64::new(seed);
    let multi = rng.chance(cfg.multicore_pct, 100) && cfg.max_children > 0;
    let children = if multi { 1 + rng.usize_below(cfg.max_children) } else { 0 };

    let n_routines = rng.usize_below(3); // 0..=2
    let mut routines = Vec::new();
    for _ in 0..n_routines {
        let n = 2 + rng.usize_below(5);
        let mut g = BodyGen { cfg, multi, is_main: false, in_routine: true, n_routines };
        routines.push(g.body(&mut rng, n, 0));
    }

    let mut main_gen = BodyGen { cfg, multi, is_main: true, in_routine: false, n_routines };
    let main_len = 4 + rng.usize_below(cfg.max_body.saturating_sub(3).max(1));
    let mut main = main_gen.body(&mut rng, main_len, 0);
    if cfg.ensure_hot_loop && !has_loop(&main) {
        // A hot counted loop over private state: crosses the ladder's
        // warm threshold, so its blocks run as templates and as tier-1.
        let n = 2 + rng.usize_below(3);
        let body = main_gen.body(&mut rng, n, 1);
        let trips = 24 + rng.below(u64::from(MAX_TRIPS) - 24 + 1) as u16;
        main.push(Stmt::Loop { trips, body });
    }

    let mut threads = Vec::new();
    for _ in 0..children {
        let mut g = BodyGen { cfg, multi, is_main: false, in_routine: false, n_routines };
        let n = 3 + rng.usize_below(cfg.max_body.saturating_sub(2).max(1));
        threads.push(g.body(&mut rng, n, 0));
    }

    let spec = ProgSpec { seed, main, threads, routines, note: String::new() };
    debug_assert!(spec.validate().is_ok(), "generator produced invalid spec for seed {seed}");
    spec
}

/// `true` if `body` holds a `Loop` statement, at its top level or in an
/// `if` arm, however many trips it runs and whether or not the arm is
/// ever taken.
fn has_loop(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Loop { .. } => true,
        Stmt::If { then_body, else_body, .. } => has_loop(then_body) || has_loop(else_body),
        _ => false,
    })
}

struct BodyGen<'a> {
    cfg: &'a GenConfig,
    multi: bool,
    is_main: bool,
    in_routine: bool,
    n_routines: usize,
}

impl BodyGen<'_> {
    fn reg(&self, rng: &mut SplitMix64) -> Gpr {
        WORKING_REGS[rng.usize_below(WORKING_REGS.len())]
    }

    fn imm(&self, rng: &mut SplitMix64) -> u64 {
        // Mix of small constants, bit patterns, and full-width values —
        // shift counts, flag edges and wrap-around all get exercised.
        match rng.below(5) {
            0 => rng.below(16),
            1 => rng.below(256),
            2 => 1u64 << rng.below(64),
            3 => (1u64 << rng.below(63)).wrapping_sub(1),
            _ => rng.next_u64(),
        }
    }

    fn src(&self, rng: &mut SplitMix64) -> Src {
        if rng.chance(1, 2) {
            Src::Reg(self.reg(rng))
        } else {
            Src::Imm(self.imm(rng))
        }
    }

    fn body(&mut self, rng: &mut SplitMix64, len: usize, depth: usize) -> Vec<Stmt> {
        (0..len).map(|_| self.stmt(rng, depth)).collect()
    }

    fn stmt(&mut self, rng: &mut SplitMix64, depth: usize) -> Stmt {
        let w = &self.cfg.weights;
        // Structured statements are barred where the IR bars them.
        let loops = if self.in_routine || depth >= 2 { 0 } else { w.loops };
        let call = if self.in_routine || self.n_routines == 0 { 0 } else { w.call };
        let sys = if self.multi && !self.is_main { w.sys / 2 } else { w.sys };
        let class = rng.weighted(&[w.alu, w.mem, w.atomic, w.branch, loops, call, sys]);
        match class {
            0 => self.alu_stmt(rng),
            1 => self.mem_stmt(rng),
            2 => self.atomic_stmt(rng),
            3 => {
                let conds = [
                    Cond::E,
                    Cond::Ne,
                    Cond::L,
                    Cond::Ge,
                    Cond::Le,
                    Cond::G,
                    Cond::B,
                    Cond::Ae,
                    Cond::Be,
                    Cond::A,
                    Cond::S,
                    Cond::Ns,
                ];
                let n_then = 1 + rng.usize_below(3);
                let n_else = rng.usize_below(3);
                Stmt::If {
                    cond: conds[rng.usize_below(conds.len())],
                    a: self.reg(rng),
                    imm: self.imm(rng),
                    then_body: self.body(rng, n_then, depth),
                    else_body: self.body(rng, n_else, depth),
                }
            }
            4 => {
                // Biased toward trip counts that cross the fuzz warm
                // threshold so promotion paths run, with a short tail.
                let trips = if rng.chance(3, 5) {
                    12 + rng.below(u64::from(MAX_TRIPS) - 12 + 1) as u16
                } else {
                    1 + rng.below(8) as u16
                };
                let n = 1 + rng.usize_below(4);
                Stmt::Loop { trips, body: self.body(rng, n, depth + 1) }
            }
            5 => Stmt::Call { routine: rng.below(self.n_routines as u64) as u8 },
            _ => {
                if self.is_main || !self.multi {
                    if rng.chance(2, 3) {
                        Stmt::Write { slot: rng.below(u64::from(SLOTS)) as u16 }
                    } else {
                        Stmt::Gettid
                    }
                } else {
                    Stmt::Gettid
                }
            }
        }
    }

    fn alu_stmt(&mut self, rng: &mut SplitMix64) -> Stmt {
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Sar,
            AluOp::Mul,
        ];
        match rng.below(8) {
            0 => Stmt::MovImm { dst: self.reg(rng), imm: self.imm(rng) },
            1 => Stmt::MovReg { dst: self.reg(rng), src: self.reg(rng) },
            2 => Stmt::Div { src: self.reg(rng) },
            3 => {
                let fops = [
                    FpOp::Add,
                    FpOp::Sub,
                    FpOp::Mul,
                    FpOp::Div,
                    FpOp::Sqrt,
                    FpOp::CvtIF,
                    FpOp::CvtFI,
                ];
                Stmt::Fp {
                    op: fops[rng.usize_below(fops.len())],
                    dst: self.reg(rng),
                    src: self.reg(rng),
                }
            }
            4 => Stmt::Cmp { a: self.reg(rng), src: self.src(rng) },
            5 => Stmt::Test { a: self.reg(rng), b: self.reg(rng) },
            _ => Stmt::Alu {
                op: ops[rng.usize_below(ops.len())],
                dst: self.reg(rng),
                src: self.src(rng),
            },
        }
    }

    fn mem_stmt(&mut self, rng: &mut SplitMix64) -> Stmt {
        let slot = rng.below(u64::from(SLOTS)) as u16;
        match rng.below(7) {
            0 | 1 => Stmt::Store { slot, src: self.reg(rng) },
            2 | 3 => Stmt::Load { dst: self.reg(rng), slot },
            4 => Stmt::StoreB { slot, byte: rng.below(8) as u8, src: self.reg(rng) },
            5 => Stmt::LoadB { dst: self.reg(rng), slot, byte: rng.below(8) as u8 },
            _ => {
                if self.multi {
                    Stmt::Spill { reg: self.reg(rng), imm: self.imm(rng) }
                } else if rng.chance(1, 2) {
                    Stmt::LoadShared { dst: self.reg(rng), cell: rng.below(u64::from(CELLS)) as u8 }
                } else {
                    Stmt::Spill { reg: self.reg(rng), imm: self.imm(rng) }
                }
            }
        }
    }

    fn atomic_stmt(&mut self, rng: &mut SplitMix64) -> Stmt {
        let cell = rng.below(u64::from(CELLS)) as u8;
        let k = 1 + rng.below(255) as u32;
        match rng.below(5) {
            0 => Stmt::Fence,
            1 => Stmt::CasAdd { cell, k },
            2 => Stmt::Cmpxchg {
                slot: rng.below(u64::from(SLOTS)) as u16,
                expect: rng.below(16) as u32,
                newv: rng.below(1 << 16) as u32,
            },
            _ => Stmt::AtomicAdd { cell, k },
        }
    }
}
