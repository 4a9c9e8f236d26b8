//! A direct evaluator for TCG blocks.
//!
//! Used by the test-suite (and the optimizer's differential tests) to run
//! a block against an env + memory without involving the host backend:
//! `translate → eval` must agree with the guest reference interpreter,
//! and `optimize` must preserve `eval`'s results.

use crate::ir::{env, Helper, TbExit, TcgBlock, TcgOp};
use risotto_guest_x86::{softfloat, SparseMem};

/// The resolved outcome of evaluating one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalExit {
    /// Continue at this guest pc.
    Jump(u64),
    /// Guest halted.
    Halt,
    /// Guest syscall; resume at the pc after servicing.
    Syscall {
        /// Resume pc.
        next: u64,
    },
}

/// Evaluates `block` against guest state and memory.
///
/// # Panics
///
/// Panics on use of an undefined temp (indicates an optimizer bug) —
/// temps are zero-initialized only for robustness in release builds.
pub fn eval_block(block: &TcgBlock, envr: &mut [u64; env::COUNT], mem: &mut SparseMem) -> EvalExit {
    let mut temps = vec![0u64; block.n_temps as usize];
    for op in &block.ops {
        match op {
            TcgOp::MovI { dst, val } => temps[dst.0 as usize] = *val,
            TcgOp::Mov { dst, src } => temps[dst.0 as usize] = temps[src.0 as usize],
            TcgOp::GetReg { dst, reg } => temps[dst.0 as usize] = envr[*reg as usize],
            TcgOp::SetReg { reg, src } => envr[*reg as usize] = temps[src.0 as usize],
            TcgOp::Ld { dst, addr } => {
                temps[dst.0 as usize] = mem.read_u64(temps[addr.0 as usize]);
            }
            TcgOp::St { addr, src } => {
                mem.write_u64(temps[addr.0 as usize], temps[src.0 as usize]);
            }
            TcgOp::Ld8 { dst, addr } => {
                temps[dst.0 as usize] = mem.read_u8(temps[addr.0 as usize]) as u64;
            }
            TcgOp::St8 { addr, src } => {
                mem.write_u8(temps[addr.0 as usize], temps[src.0 as usize] as u8);
            }
            TcgOp::Bin { op, dst, a, b } => {
                temps[dst.0 as usize] = op.apply(temps[a.0 as usize], temps[b.0 as usize]);
            }
            TcgOp::Setcond { cond, dst, a, b } => {
                temps[dst.0 as usize] = cond.apply(temps[a.0 as usize], temps[b.0 as usize]);
            }
            TcgOp::Fence(_) => {}
            TcgOp::Cas { dst, addr, expect, new } => {
                let a = temps[addr.0 as usize];
                let old = mem.read_u64(a);
                if old == temps[expect.0 as usize] {
                    mem.write_u64(a, temps[new.0 as usize]);
                }
                temps[dst.0 as usize] = old;
            }
            TcgOp::AtomicAdd { dst, addr, val } => {
                let a = temps[addr.0 as usize];
                let old = mem.read_u64(a);
                mem.write_u64(a, old.wrapping_add(temps[val.0 as usize]));
                temps[dst.0 as usize] = old;
            }
            TcgOp::CallHelper { helper, args, ret } => {
                let arg = |i: usize| temps[args[i].0 as usize];
                let result = match helper {
                    Helper::CmpxchgSc => {
                        let a = arg(0);
                        let old = mem.read_u64(a);
                        if old == arg(1) {
                            mem.write_u64(a, arg(2));
                        }
                        old
                    }
                    Helper::XaddSc => {
                        let a = arg(0);
                        let old = mem.read_u64(a);
                        mem.write_u64(a, old.wrapping_add(arg(1)));
                        old
                    }
                    // Shared deterministic f64 semantics — must match
                    // the interpreter and both host FP paths exactly.
                    Helper::FpAdd => softfloat::add(arg(0), arg(1)),
                    Helper::FpSub => softfloat::sub(arg(0), arg(1)),
                    Helper::FpMul => softfloat::mul(arg(0), arg(1)),
                    Helper::FpDiv => softfloat::div(arg(0), arg(1)),
                    Helper::FpSqrt => softfloat::sqrt(arg(1)),
                    Helper::FpCvtIF => softfloat::cvt_if(arg(1)),
                    Helper::FpCvtFI => softfloat::cvt_fi(arg(1)),
                };
                if let Some(r) = ret {
                    temps[r.0 as usize] = result;
                }
            }
        }
    }
    match &block.exit {
        TbExit::Jump(t) => EvalExit::Jump(*t),
        TbExit::JumpReg(t) => EvalExit::Jump(temps[t.0 as usize]),
        TbExit::CondJump { flag, taken, fallthrough } => {
            if temps[flag.0 as usize] != 0 {
                EvalExit::Jump(*taken)
            } else {
                EvalExit::Jump(*fallthrough)
            }
        }
        TbExit::Halt => EvalExit::Halt,
        TbExit::Syscall { next } => EvalExit::Syscall { next: *next },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{translate_block, FrontendConfig};
    use risotto_guest_x86::{Assembler, Gpr};

    /// Translate + eval a straight-line snippet and compare the env with
    /// the reference interpreter.
    #[test]
    fn eval_matches_reference_interpreter() {
        use risotto_guest_x86::{AluOp, GelfBuilder};
        let mut b = GelfBuilder::new("main");
        let cell = b.data_u64(&[11]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, cell);
        b.asm.load(Gpr::RAX, Gpr::RDI, 0);
        b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 3);
        b.asm.store(Gpr::RDI, 8, Gpr::RAX);
        b.asm.alu_ri(AluOp::Sub, Gpr::RAX, 33);
        b.asm.hlt();
        let bin = b.finish().unwrap();

        // Reference run.
        let mut interp = risotto_guest_x86::Interp::new(&bin);
        interp.run(1000).unwrap();

        // TCG run (single block, since the code is straight-line + hlt).
        let mut mem = SparseMem::new();
        mem.load_binary(&bin);
        let text = bin.text.clone();
        let fetch = move |addr: u64| {
            let mut out = [0u8; 16];
            let off = (addr - risotto_guest_x86::TEXT_BASE) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = text.get(off + i).copied().unwrap_or(0);
            }
            out
        };
        for cfg in [FrontendConfig::qemu(), FrontendConfig::risotto(), FrontendConfig::no_fences()]
        {
            let block = translate_block(bin.entry, cfg, &fetch).unwrap();
            let mut envr = [0u64; env::COUNT];
            let mut m = mem.clone();
            let exit = eval_block(&block, &mut envr, &mut m);
            assert_eq!(exit, EvalExit::Halt);
            assert_eq!(envr[Gpr::RAX.index()], interp.reg(0, Gpr::RAX));
            assert_eq!(m.read_u64(risotto_guest_x86::DATA_BASE + 8), 33);
            // ZF must reflect the final sub (33 - 33 == 0).
            assert_eq!(envr[env::ZF as usize], 1);
        }
    }

    #[test]
    fn condjump_resolution() {
        let mut a = Assembler::new(0x1000);
        a.cmp_ri(Gpr::RAX, 7);
        a.jcc_to(risotto_guest_x86::Cond::E, "yes");
        a.hlt();
        a.label("yes");
        a.nop();
        a.hlt();
        let (bytes, syms) = a.finish().unwrap();
        let fetch = move |addr: u64| {
            let mut out = [0u8; 16];
            let off = (addr - 0x1000) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            out
        };
        let block = translate_block(0x1000, FrontendConfig::risotto(), &fetch).unwrap();
        let mut mem = SparseMem::new();

        let mut envr = [0u64; env::COUNT];
        envr[Gpr::RAX.index()] = 7;
        assert_eq!(eval_block(&block, &mut envr, &mut mem), EvalExit::Jump(syms["yes"]));

        let mut envr = [0u64; env::COUNT];
        envr[Gpr::RAX.index()] = 8;
        match eval_block(&block, &mut envr, &mut mem) {
            EvalExit::Jump(t) => assert_ne!(t, syms["yes"]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
