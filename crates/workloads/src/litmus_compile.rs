//! Compiles litmus programs into runnable guest binaries — the bridge
//! between the formal layer and the DBT.
//!
//! An x86-flavoured [`Program`] becomes a MiniX86 binary whose threads run
//! the litmus bodies (with optional per-thread delay staggers to explore
//! interleavings) and record their final registers plus the final shared
//! memory into an observation area. The integration suite then checks
//! that every outcome *observed* through the full DBT pipeline is
//! *allowed* by the axiomatic x86 model — operational ⊆ axiomatic, the
//! soundness direction a correct translator must preserve.

use risotto_guest_x86::{syscalls, AluOp, Cond, GelfBuilder, Gpr, GuestBinary};
use risotto_litmus::{Behavior, Expr, Instr, Program, Reg};
use risotto_memmodel::{AccessMode, FenceKind, Loc};
use std::collections::BTreeMap;

/// Where compiled observations live: per thread, 8 register slots.
const REGS_PER_THREAD: u32 = 8;

/// The observation layout of a compiled litmus binary.
#[derive(Debug, Clone)]
pub struct CompiledLitmus {
    /// The binary.
    pub binary: GuestBinary,
    /// Guest address of each litmus location.
    pub loc_addrs: BTreeMap<Loc, u64>,
    /// Guest address of the register observation area
    /// (`[tid × 8 + reg] × u64`).
    pub regs_addr: u64,
    /// Number of threads.
    pub threads: usize,
}

impl CompiledLitmus {
    /// Extracts the observed [`Behavior`] from a memory reader after a run.
    pub fn observe(&self, mem: &risotto_guest_x86::SparseMem) -> Behavior {
        let mem_vals: BTreeMap<Loc, u64> =
            self.loc_addrs.iter().map(|(&l, &a)| (l, mem.read_u64(a))).collect();
        let mut regs = Vec::new();
        for tid in 0..self.threads {
            let mut r = BTreeMap::new();
            for k in 0..REGS_PER_THREAD {
                let v = mem.read_u64(self.regs_addr + (tid as u64 * 8 + k as u64) * 8);
                if v != u64::MAX {
                    r.insert(Reg(k), v);
                }
            }
            regs.push(r);
        }
        Behavior { mem: mem_vals, regs }
    }
}

/// Guest register hosting litmus register `Reg(k)` (k < 8).
fn greg(r: Reg) -> Gpr {
    assert!(r.0 < REGS_PER_THREAD, "litmus register {r:?} out of compile range");
    Gpr(8 + r.0 as u8) // R8..R15
}

/// Compiles an x86-flavoured litmus program. `delays[t]` inserts a spin of
/// that many iterations before thread `t`'s body (interleaving explorer).
///
/// # Panics
///
/// Panics on non-x86 instructions (Arm/TCG-flavoured programs are not
/// runnable guests) or on expressions beyond `Const`/`Reg`.
pub fn compile_litmus(prog: &Program, delays: &[u64]) -> CompiledLitmus {
    let threads = prog.threads.len();
    let mut b = GelfBuilder::new("main");
    // Locations: one u64 each, 64 bytes apart.
    let locs = prog.locations();
    let loc_area = b.data_zeroed(locs.len().max(1) * 64);
    let mut loc_addrs = BTreeMap::new();
    for (i, &l) in locs.iter().enumerate() {
        loc_addrs.insert(l, loc_area + i as u64 * 64);
    }
    // Observation area, initialized to MAX ("unset").
    let regs_addr = b.data_u64(&vec![u64::MAX; threads * REGS_PER_THREAD as usize]);
    // Initial values.
    let init_words: Vec<(u64, u64)> =
        locs.iter().map(|&l| (loc_addrs[&l], prog.init_val(l).0)).collect();

    // main: write init values, spawn workers, run thread 0, join, halt.
    b.asm.label("main");
    for (addr, val) in &init_words {
        b.asm.mov_ri(Gpr::RDI, *addr);
        b.asm.mov_ri(Gpr::RAX, *val);
        b.asm.store(Gpr::RDI, 0, Gpr::RAX);
    }
    b.asm.mfence();
    let tid_slots = b.data_zeroed(threads * 8);
    for t in 1..threads {
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, &format!("thread{t}"));
        b.asm.mov_ri(Gpr::RSI, 0);
        b.asm.syscall();
        b.asm.mov_ri(Gpr::RCX, tid_slots + t as u64 * 8);
        b.asm.store(Gpr::RCX, 0, Gpr::RAX);
    }
    b.asm.call_to("thread0_body");
    for t in 1..threads {
        b.asm.mov_ri(Gpr::RCX, tid_slots + t as u64 * 8);
        b.asm.load(Gpr::RDI, Gpr::RCX, 0);
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
    }
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.hlt();

    // Worker wrappers.
    for t in 1..threads {
        b.asm.label(&format!("thread{t}"));
        b.asm.call_to(&format!("thread{t}_body"));
        b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
        b.asm.mov_ri(Gpr::RDI, 0);
        b.asm.syscall();
    }

    // Thread bodies.
    for (t, thread) in prog.threads.iter().enumerate() {
        b.asm.label(&format!("thread{t}_body"));
        // Delay stagger.
        let delay = delays.get(t).copied().unwrap_or(0);
        if delay > 0 {
            b.asm.mov_ri(Gpr::RCX, delay);
            b.asm.label(&format!("t{t}_delay"));
            b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
            b.asm.cmp_ri(Gpr::RCX, 0);
            b.asm.jcc_to(Cond::Ne, &format!("t{t}_delay"));
        }
        let mut ctx = Ctx { b: &mut b, t, label_seq: 0, loc_addrs: &loc_addrs, used: Vec::new() };
        ctx.emit_instrs(&thread.instrs);
        let used = ctx.used.clone();
        // A jump here ends the translation block: otherwise the §6.1
        // fence-merging pass (faithfully) merges the litmus body's trailing
        // `Frm` with the observation stores' leading `Fww` into a full
        // fence right after the last litmus access, draining the store
        // buffer and shrinking the weak-behavior window to nothing.
        b.asm.jmp_to(&format!("t{t}_observe"));
        b.asm.label(&format!("t{t}_observe"));
        // Record used registers into the observation area. No fence needed:
        // thread exit (HLT / EXIT) drains the store buffer, and observation
        // happens after every core halted.
        for r in used {
            b.asm.mov_ri(Gpr::RDI, regs_addr + (t as u64 * 8 + r.0 as u64) * 8);
            b.asm.store(Gpr::RDI, 0, greg(r));
        }
        b.asm.ret();
    }

    CompiledLitmus { binary: b.finish().unwrap(), loc_addrs, regs_addr, threads }
}

struct Ctx<'a> {
    b: &'a mut GelfBuilder,
    t: usize,
    label_seq: u32,
    loc_addrs: &'a BTreeMap<Loc, u64>,
    used: Vec<Reg>,
}

impl Ctx<'_> {
    fn fresh(&mut self, tag: &str) -> String {
        self.label_seq += 1;
        format!("t{}_{}_{}", self.t, tag, self.label_seq)
    }

    fn mark_used(&mut self, r: Reg) {
        if !self.used.contains(&r) {
            self.used.push(r);
        }
    }

    /// Materializes an expression into `dst` (Const/Reg only).
    fn eval(&mut self, e: &Expr, dst: Gpr) {
        match e {
            Expr::Const(c) => {
                self.b.asm.mov_ri(dst, *c);
            }
            Expr::Reg(r) => {
                self.b.asm.mov_rr(dst, greg(*r));
            }
            other => panic!("compile_litmus: unsupported expression {other:?}"),
        }
    }

    fn emit_instrs(&mut self, instrs: &[Instr]) {
        for i in instrs {
            match i {
                Instr::Load { dst, loc, mode: AccessMode::Plain } => {
                    let addr = self.loc_addrs[&loc.loc()];
                    self.b.asm.mov_ri(Gpr::RSI, addr);
                    self.b.asm.load(greg(*dst), Gpr::RSI, 0);
                    self.mark_used(*dst);
                }
                Instr::Store { loc, val, mode: AccessMode::Plain } => {
                    let addr = self.loc_addrs[&loc.loc()];
                    self.eval(val, Gpr::RDX);
                    self.b.asm.mov_ri(Gpr::RSI, addr);
                    self.b.asm.store(Gpr::RSI, 0, Gpr::RDX);
                }
                Instr::Rmw { dst, loc, expected, desired, kind } => {
                    assert!(
                        matches!(kind, risotto_litmus::RmwKind::X86Lock),
                        "compile_litmus: only x86 RMWs are runnable"
                    );
                    let addr = self.loc_addrs[&loc.loc()];
                    self.eval(expected, Gpr::RAX);
                    self.eval(desired, Gpr::RCX);
                    self.b.asm.mov_ri(Gpr::RSI, addr);
                    self.b.asm.cmpxchg(Gpr::RSI, 0, Gpr::RCX);
                    if let Some(d) = dst {
                        self.b.asm.mov_rr(greg(*d), Gpr::RAX);
                        self.mark_used(*d);
                    }
                }
                Instr::Fence(FenceKind::MFence) => {
                    self.b.asm.mfence();
                }
                Instr::Fence(other) => panic!("compile_litmus: non-x86 fence {other:?}"),
                Instr::Let { dst, val } => {
                    self.eval(val, Gpr::RDX);
                    self.b.asm.mov_rr(greg(*dst), Gpr::RDX);
                    self.mark_used(*dst);
                }
                Instr::If { reg, eq, then, els } => {
                    let l_else = self.fresh("else");
                    let l_end = self.fresh("end");
                    self.b.asm.cmp_ri(greg(*reg), *eq);
                    self.b.asm.jcc_to(Cond::Ne, &l_else);
                    self.emit_instrs(then);
                    self.b.asm.jmp_to(&l_end);
                    self.b.asm.label(&l_else);
                    self.emit_instrs(els);
                    self.b.asm.label(&l_end);
                }
                other => panic!("compile_litmus: unsupported instruction {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_guest_x86::Interp;
    use risotto_litmus::corpus;

    #[test]
    fn compiled_mp_observes_a_valid_outcome() {
        let p = corpus::mp();
        let c = compile_litmus(&p, &[0, 0]);
        let mut i = Interp::new(&c.binary);
        i.run(10_000_000).unwrap();
        let obs = c.observe(&i.mem);
        // The interpreter is SC; its outcome must be x86-allowed.
        let allowed = risotto_litmus::behaviors(&p, &risotto_memmodel::X86Tso::new());
        assert!(allowed.contains(&obs), "observed {obs:?} not in the allowed set");
    }

    #[test]
    fn compiled_rmw_and_conditionals_work() {
        let p = corpus::mpq_x86();
        let c = compile_litmus(&p, &[0, 3]);
        let mut i = Interp::new(&c.binary);
        i.run(10_000_000).unwrap();
        let obs = c.observe(&i.mem);
        let allowed = risotto_litmus::behaviors(&p, &risotto_memmodel::X86Tso::new());
        assert!(allowed.iter().any(|b| b.mem == obs.mem));
    }
}
