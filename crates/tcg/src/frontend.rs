//! The guest (MiniX86) frontend: decodes one basic block and emits TCG IR.
//!
//! The frontend is where the x86→TCG mapping scheme of the paper is
//! applied: every guest load, store and `MFENCE` gets the fences the
//! shared [`FencePlacement::fences`] table gives for the configured
//! scheme — QEMU's Fig. 2, the verified Fig. 7a or the `no-fences`
//! oracle. RMW instructions go through a helper call (QEMU) or the
//! direct `Cas`/`AtomicAdd` ops (Risotto, §6.3). Guest flags live in env
//! registers; since each flag writer writes all four and only a
//! block-ending `Jcc` reads them, a block computes only its last flag
//! writer's flags, in place — the earlier writers' would be overwritten
//! unread.

use crate::ir::{env, BinOp, CondOp, Helper, TbExit, TcgBlock, TcgOp, Temp};
use risotto_guest_x86::{AluOp, Cond, DecodeError, FpOp, Gpr, Insn, Operand};
use risotto_memmodel::{FencePlacement, GuestAccess};

/// How CAS-style guest RMWs are translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasStrategy {
    /// Call a runtime helper (QEMU's scheme, §2.3).
    Helper,
    /// Emit the dedicated TCG `Cas`/`AtomicAdd` op (Risotto, §6.3).
    TcgOp,
}

/// Frontend configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Fence-placement scheme.
    pub fences: FencePlacement,
    /// RMW translation strategy.
    pub cas: CasStrategy,
}

impl FrontendConfig {
    /// QEMU 6.1 behavior.
    pub fn qemu() -> FrontendConfig {
        FrontendConfig { fences: FencePlacement::QemuLeading, cas: CasStrategy::Helper }
    }

    /// Risotto: verified mappings + direct CAS.
    pub fn risotto() -> FrontendConfig {
        FrontendConfig { fences: FencePlacement::VerifiedTrailing, cas: CasStrategy::TcgOp }
    }

    /// Verified mappings but QEMU's helper-based CAS (`tcg-ver` setup).
    pub fn tcg_ver() -> FrontendConfig {
        FrontendConfig { fences: FencePlacement::VerifiedTrailing, cas: CasStrategy::Helper }
    }

    /// The incorrect fence-free oracle (`no-fences` setup).
    pub fn no_fences() -> FrontendConfig {
        FrontendConfig { fences: FencePlacement::None, cas: CasStrategy::TcgOp }
    }
}

/// Frontend errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    /// Faulting guest pc.
    pub pc: u64,
    /// Underlying decode error.
    pub cause: DecodeError,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "translation fault at {:#x}: {}", self.pc, self.cause)
    }
}

impl std::error::Error for TranslateError {}

/// Maximum guest instructions per translation block.
pub const MAX_TB_INSNS: usize = 64;

/// Width of a guest memory access: all eight bytes, or the low one.
#[derive(Clone, Copy)]
enum Width {
    Quad,
    Byte,
}

struct Ctx {
    block: TcgBlock,
    cfg: FrontendConfig,
}

impl Ctx {
    fn temp(&mut self) -> Temp {
        self.block.new_temp()
    }

    fn emit(&mut self, op: TcgOp) {
        self.block.ops.push(op);
    }

    fn movi(&mut self, val: u64) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::MovI { dst: t, val });
        t
    }

    fn get_reg(&mut self, r: Gpr) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::GetReg { dst: t, reg: r.0 });
        t
    }

    fn set_reg(&mut self, r: Gpr, src: Temp) {
        self.emit(TcgOp::SetReg { reg: r.0, src });
    }

    fn bin(&mut self, op: BinOp, a: Temp, b: Temp) -> Temp {
        let dst = self.temp();
        self.emit(TcgOp::Bin { op, dst, a, b });
        dst
    }

    fn setcond(&mut self, cond: CondOp, a: Temp, b: Temp) -> Temp {
        let dst = self.temp();
        self.emit(TcgOp::Setcond { cond, dst, a, b });
        dst
    }

    fn operand(&mut self, o: Operand) -> Temp {
        match o {
            Operand::Reg(r) => self.get_reg(r),
            Operand::Imm(i) => self.movi(i),
        }
    }

    fn address(&mut self, base: Gpr, disp: i32) -> Temp {
        let b = self.get_reg(base);
        if disp == 0 {
            return b;
        }
        let d = self.movi(disp as i64 as u64);
        self.bin(BinOp::Add, b, d)
    }

    /// Emits `op` — `None` for `MFENCE`, which is its fence alone — with
    /// the table's fences for `access` around it.
    fn fenced(&mut self, access: GuestAccess, op: Option<TcgOp>) {
        let (lead, trail) = self.cfg.fences.fences(access);
        for op in [lead.map(TcgOp::Fence), op, trail.map(TcgOp::Fence)].into_iter().flatten() {
            self.emit(op);
        }
    }

    /// Emits a guest load with the configured fence placement.
    fn guest_load(&mut self, addr: Temp, width: Width) -> Temp {
        let dst = self.temp();
        let op = match width {
            Width::Quad => TcgOp::Ld { dst, addr },
            Width::Byte => TcgOp::Ld8 { dst, addr },
        };
        self.fenced(GuestAccess::Load, Some(op));
        dst
    }

    /// Emits a guest store with the configured fence placement.
    fn guest_store(&mut self, addr: Temp, src: Temp, width: Width) {
        let op = match width {
            Width::Quad => TcgOp::St { addr, src },
            Width::Byte => TcgOp::St8 { addr, src },
        };
        self.fenced(GuestAccess::Store, Some(op));
    }

    /// Flags for `a - b` with result `res`.
    fn flags_sub(&mut self, a: Temp, b: Temp, res: Temp) {
        let zero = self.movi(0);
        let zf = self.setcond(CondOp::Eq, res, zero);
        self.emit(TcgOp::SetReg { reg: env::ZF, src: zf });
        let sixty3 = self.movi(63);
        let sf = self.bin(BinOp::Shr, res, sixty3);
        self.emit(TcgOp::SetReg { reg: env::SF, src: sf });
        let cf = self.setcond(CondOp::LtU, a, b);
        self.emit(TcgOp::SetReg { reg: env::CF, src: cf });
        // of = ((a ^ b) & (a ^ res)) >> 63
        let axb = self.bin(BinOp::Xor, a, b);
        let axr = self.bin(BinOp::Xor, a, res);
        let both = self.bin(BinOp::And, axb, axr);
        let of = self.bin(BinOp::Shr, both, sixty3);
        self.emit(TcgOp::SetReg { reg: env::OF, src: of });
    }

    /// Flags for `a + b` with result `res`.
    fn flags_add(&mut self, a: Temp, b: Temp, res: Temp) {
        let zero = self.movi(0);
        let zf = self.setcond(CondOp::Eq, res, zero);
        self.emit(TcgOp::SetReg { reg: env::ZF, src: zf });
        let sixty3 = self.movi(63);
        let sf = self.bin(BinOp::Shr, res, sixty3);
        self.emit(TcgOp::SetReg { reg: env::SF, src: sf });
        let cf = self.setcond(CondOp::LtU, res, a);
        self.emit(TcgOp::SetReg { reg: env::CF, src: cf });
        // of = (~(a ^ b) & (a ^ res)) >> 63
        let axb = self.bin(BinOp::Xor, a, b);
        let ones = self.movi(u64::MAX);
        let naxb = self.bin(BinOp::Xor, axb, ones);
        let axr = self.bin(BinOp::Xor, a, res);
        let both = self.bin(BinOp::And, naxb, axr);
        let of = self.bin(BinOp::Shr, both, sixty3);
        self.emit(TcgOp::SetReg { reg: env::OF, src: of });
    }

    /// Flags for logical result `res` (CF = OF = 0).
    fn flags_logic(&mut self, res: Temp) {
        let zero = self.movi(0);
        let zf = self.setcond(CondOp::Eq, res, zero);
        self.emit(TcgOp::SetReg { reg: env::ZF, src: zf });
        let sixty3 = self.movi(63);
        let sf = self.bin(BinOp::Shr, res, sixty3);
        self.emit(TcgOp::SetReg { reg: env::SF, src: sf });
        let z2 = self.movi(0);
        self.emit(TcgOp::SetReg { reg: env::CF, src: z2 });
        self.emit(TcgOp::SetReg { reg: env::OF, src: z2 });
    }

    /// Computes a branch-condition temp (0/1) from the flag env regs.
    fn cond_temp(&mut self, cond: Cond) -> Temp {
        let getf = |c: &mut Ctx, reg: u8| {
            let t = c.temp();
            c.emit(TcgOp::GetReg { dst: t, reg });
            t
        };
        let one = self.movi(1);
        match cond {
            Cond::E => getf(self, env::ZF),
            Cond::Ne => {
                let zf = getf(self, env::ZF);
                self.bin(BinOp::Xor, zf, one)
            }
            Cond::L => {
                let sf = getf(self, env::SF);
                let of = getf(self, env::OF);
                self.bin(BinOp::Xor, sf, of)
            }
            Cond::Ge => {
                let sf = getf(self, env::SF);
                let of = getf(self, env::OF);
                let l = self.bin(BinOp::Xor, sf, of);
                self.bin(BinOp::Xor, l, one)
            }
            Cond::Le => {
                let zf = getf(self, env::ZF);
                let sf = getf(self, env::SF);
                let of = getf(self, env::OF);
                let l = self.bin(BinOp::Xor, sf, of);
                self.bin(BinOp::Or, zf, l)
            }
            Cond::G => {
                let zf = getf(self, env::ZF);
                let sf = getf(self, env::SF);
                let of = getf(self, env::OF);
                let l = self.bin(BinOp::Xor, sf, of);
                let le = self.bin(BinOp::Or, zf, l);
                self.bin(BinOp::Xor, le, one)
            }
            Cond::B => getf(self, env::CF),
            Cond::Ae => {
                let cf = getf(self, env::CF);
                self.bin(BinOp::Xor, cf, one)
            }
            Cond::Be => {
                let cf = getf(self, env::CF);
                let zf = getf(self, env::ZF);
                self.bin(BinOp::Or, cf, zf)
            }
            Cond::A => {
                let cf = getf(self, env::CF);
                let zf = getf(self, env::ZF);
                let be = self.bin(BinOp::Or, cf, zf);
                self.bin(BinOp::Xor, be, one)
            }
            Cond::S => getf(self, env::SF),
            Cond::Ns => {
                let sf = getf(self, env::SF);
                self.bin(BinOp::Xor, sf, one)
            }
        }
    }

    fn push_ra(&mut self, ra: u64) {
        let sp = self.get_reg(Gpr::RSP);
        let eight = self.movi(8);
        let nsp = self.bin(BinOp::Sub, sp, eight);
        self.set_reg(Gpr::RSP, nsp);
        let rat = self.movi(ra);
        // Stack traffic is thread-private: emitted as plain accesses, and
        // like QEMU we still apply the configured ordering fences.
        self.guest_store(nsp, rat, Width::Quad);
    }
}

/// Does `insn` write the guest flags? Each writer writes all four
/// (ZF/SF/CF/OF).
fn writes_flags(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Alu { .. } | Insn::Cmp { .. } | Insn::Test { .. } | Insn::LockCmpxchg { .. }
    )
}

/// Translates one basic block starting at `pc` from `fetch` (a callback
/// returning up to 16 bytes at a guest address).
///
/// # Errors
///
/// Returns [`TranslateError`] if instruction decoding fails.
pub fn translate_block<F>(
    pc: u64,
    cfg: FrontendConfig,
    fetch: F,
) -> Result<TcgBlock, TranslateError>
where
    F: Fn(u64) -> [u8; 16],
{
    translate_block_counted(pc, cfg, fetch).map(|(block, _)| block)
}

/// [`translate_block`], also returning how many guest instructions the
/// block covers — the frontend has just decoded them, so nobody needs
/// to decode the block a second time to count.
///
/// # Errors
///
/// Returns [`TranslateError`] if instruction decoding fails.
pub fn translate_block_counted<F>(
    pc: u64,
    cfg: FrontendConfig,
    fetch: F,
) -> Result<(TcgBlock, usize), TranslateError>
where
    F: Fn(u64) -> [u8; 16],
{
    // Decode the whole block first: each instruction with the pc after
    // it, up to the first terminator or the size limit.
    let mut insns = [(Insn::Nop, 0u64); MAX_TB_INSNS];
    let mut count = 0;
    let mut cur = pc;
    while count < MAX_TB_INSNS {
        let (insn, len) =
            Insn::decode(&fetch(cur)).map_err(|cause| TranslateError { pc: cur, cause })?;
        cur += len as u64;
        insns[count] = (insn, cur);
        count += 1;
        if insn.is_terminator() {
            break;
        }
    }
    let insns = &insns[..count];
    // Every flag writer writes all four flags and only a terminating
    // `Jcc` reads them, so the last writer's flags are the only ones
    // anything observes: the earlier writers compute none.
    let live_flags = insns.iter().rposition(|(insn, _)| writes_flags(insn));
    let mut ctx = Ctx {
        block: TcgBlock {
            guest_pc: pc,
            guest_len: (cur - pc) as usize,
            // A block averages 38 ops over the 16 kernels (median 32,
            // 90th percentile 79) and 39 over generated cold code — half
            // what it was while every flag writer set flags. 128 holds
            // all but about 2 % of blocks in one allocation, not the
            // several a growing vector makes on the way there.
            ops: Vec::with_capacity(128),
            // A terminator sets the exit; a block cut at the size limit
            // falls through.
            exit: TbExit::Jump(cur),
            n_temps: 0,
        },
        cfg,
    };
    for (n, &(insn, next)) in insns.iter().enumerate() {
        let flags = live_flags == Some(n);
        match insn {
            Insn::MovRI { dst, imm } => {
                let t = ctx.movi(imm);
                ctx.set_reg(dst, t);
            }
            Insn::MovRR { dst, src } => {
                let t = ctx.get_reg(src);
                ctx.set_reg(dst, t);
            }
            Insn::Load { dst, base, disp } => {
                let addr = ctx.address(base, disp);
                let v = ctx.guest_load(addr, Width::Quad);
                ctx.set_reg(dst, v);
            }
            Insn::Store { base, disp, src } => {
                let addr = ctx.address(base, disp);
                let v = ctx.get_reg(src);
                ctx.guest_store(addr, v, Width::Quad);
            }
            Insn::LoadB { dst, base, disp } => {
                let addr = ctx.address(base, disp);
                let v = ctx.guest_load(addr, Width::Byte);
                ctx.set_reg(dst, v);
            }
            Insn::StoreB { base, disp, src } => {
                let addr = ctx.address(base, disp);
                let v = ctx.get_reg(src);
                ctx.guest_store(addr, v, Width::Byte);
            }
            Insn::MulWide { src } => {
                let a = ctx.get_reg(Gpr::RAX);
                let b = ctx.get_reg(src);
                let lo = ctx.bin(BinOp::Mul, a, b);
                let hi = ctx.bin(BinOp::MulHi, a, b);
                ctx.set_reg(Gpr::RAX, lo);
                ctx.set_reg(Gpr::RDX, hi);
            }
            Insn::Lea { dst, base, disp } => {
                let addr = ctx.address(base, disp);
                ctx.set_reg(dst, addr);
            }
            Insn::Alu { op, dst, src } => {
                let a = ctx.get_reg(dst);
                let b = ctx.operand(src);
                let bop = match op {
                    AluOp::Add => BinOp::Add,
                    AluOp::Sub => BinOp::Sub,
                    AluOp::And => BinOp::And,
                    AluOp::Or => BinOp::Or,
                    AluOp::Xor => BinOp::Xor,
                    AluOp::Shl => BinOp::Shl,
                    AluOp::Shr => BinOp::Shr,
                    AluOp::Sar => BinOp::Sar,
                    AluOp::Mul => BinOp::Mul,
                };
                let res = ctx.bin(bop, a, b);
                ctx.set_reg(dst, res);
                if flags {
                    match op {
                        AluOp::Add => ctx.flags_add(a, b, res),
                        AluOp::Sub => ctx.flags_sub(a, b, res),
                        _ => ctx.flags_logic(res),
                    }
                }
            }
            Insn::Div { src } => {
                let a = ctx.get_reg(Gpr::RAX);
                let d = ctx.get_reg(src);
                let q = ctx.bin(BinOp::Divu, a, d);
                let r = ctx.bin(BinOp::Remu, a, d);
                ctx.set_reg(Gpr::RAX, q);
                ctx.set_reg(Gpr::RDX, r);
            }
            Insn::Fp { op, dst, src } => {
                let a = ctx.get_reg(dst);
                let b = ctx.get_reg(src);
                let helper = match op {
                    FpOp::Add => Helper::FpAdd,
                    FpOp::Sub => Helper::FpSub,
                    FpOp::Mul => Helper::FpMul,
                    FpOp::Div => Helper::FpDiv,
                    FpOp::Sqrt => Helper::FpSqrt,
                    FpOp::CvtIF => Helper::FpCvtIF,
                    FpOp::CvtFI => Helper::FpCvtFI,
                };
                let ret = ctx.temp();
                ctx.emit(TcgOp::CallHelper { helper, args: vec![a, b], ret: Some(ret) });
                ctx.set_reg(dst, ret);
            }
            Insn::Cmp { a, b } => {
                let ta = ctx.get_reg(a);
                let tb = ctx.operand(b);
                let res = ctx.bin(BinOp::Sub, ta, tb);
                if flags {
                    ctx.flags_sub(ta, tb, res);
                }
            }
            Insn::Test { a, b } => {
                let ta = ctx.get_reg(a);
                let tb = ctx.operand(b);
                let res = ctx.bin(BinOp::And, ta, tb);
                if flags {
                    ctx.flags_logic(res);
                }
            }
            Insn::Jcc { cond, rel } => {
                let flag = ctx.cond_temp(cond);
                ctx.block.exit = TbExit::CondJump {
                    flag,
                    taken: next.wrapping_add(rel as i64 as u64),
                    fallthrough: next,
                };
            }
            Insn::Jmp { rel } => {
                ctx.block.exit = TbExit::Jump(next.wrapping_add(rel as i64 as u64));
            }
            Insn::JmpReg { reg } => {
                let t = ctx.get_reg(reg);
                ctx.block.exit = TbExit::JumpReg(t);
            }
            Insn::Call { rel } => {
                ctx.push_ra(next);
                ctx.block.exit = TbExit::Jump(next.wrapping_add(rel as i64 as u64));
            }
            Insn::CallReg { reg } => {
                let target = ctx.get_reg(reg);
                ctx.push_ra(next);
                ctx.block.exit = TbExit::JumpReg(target);
            }
            Insn::Ret => {
                let sp = ctx.get_reg(Gpr::RSP);
                let ra = ctx.guest_load(sp, Width::Quad);
                let eight = ctx.movi(8);
                let nsp = ctx.bin(BinOp::Add, sp, eight);
                ctx.set_reg(Gpr::RSP, nsp);
                ctx.block.exit = TbExit::JumpReg(ra);
            }
            Insn::Push { src } => {
                let v = ctx.get_reg(src);
                let sp = ctx.get_reg(Gpr::RSP);
                let eight = ctx.movi(8);
                let nsp = ctx.bin(BinOp::Sub, sp, eight);
                ctx.set_reg(Gpr::RSP, nsp);
                ctx.guest_store(nsp, v, Width::Quad);
            }
            Insn::Pop { dst } => {
                let sp = ctx.get_reg(Gpr::RSP);
                let v = ctx.guest_load(sp, Width::Quad);
                let eight = ctx.movi(8);
                let nsp = ctx.bin(BinOp::Add, sp, eight);
                ctx.set_reg(Gpr::RSP, nsp);
                ctx.set_reg(dst, v);
            }
            Insn::LockCmpxchg { base, disp, src } => {
                let addr = ctx.address(base, disp);
                let expect = ctx.get_reg(Gpr::RAX);
                let newv = ctx.get_reg(src);
                let old = match cfg.cas {
                    CasStrategy::TcgOp => {
                        let old = ctx.temp();
                        ctx.emit(TcgOp::Cas { dst: old, addr, expect, new: newv });
                        old
                    }
                    CasStrategy::Helper => {
                        let old = ctx.temp();
                        ctx.emit(TcgOp::CallHelper {
                            helper: Helper::CmpxchgSc,
                            args: vec![addr, expect, newv],
                            ret: Some(old),
                        });
                        old
                    }
                };
                // RAX = old (on success old == expected, so this is a
                // no-op there); ZF = (old == expected).
                ctx.set_reg(Gpr::RAX, old);
                if flags {
                    let zf = ctx.setcond(CondOp::Eq, old, expect);
                    ctx.emit(TcgOp::SetReg { reg: env::ZF, src: zf });
                    let zero = ctx.movi(0);
                    ctx.emit(TcgOp::SetReg { reg: env::SF, src: zero });
                    ctx.emit(TcgOp::SetReg { reg: env::CF, src: zero });
                    ctx.emit(TcgOp::SetReg { reg: env::OF, src: zero });
                }
            }
            Insn::LockXadd { base, disp, src } => {
                let addr = ctx.address(base, disp);
                let add = ctx.get_reg(src);
                let old = match cfg.cas {
                    CasStrategy::TcgOp => {
                        let old = ctx.temp();
                        ctx.emit(TcgOp::AtomicAdd { dst: old, addr, val: add });
                        old
                    }
                    CasStrategy::Helper => {
                        let old = ctx.temp();
                        ctx.emit(TcgOp::CallHelper {
                            helper: Helper::XaddSc,
                            args: vec![addr, add],
                            ret: Some(old),
                        });
                        old
                    }
                };
                ctx.set_reg(src, old);
            }
            Insn::Mfence => ctx.fenced(GuestAccess::Mfence, None),
            Insn::Nop => {}
            Insn::Hlt => ctx.block.exit = TbExit::Halt,
            Insn::Syscall => ctx.block.exit = TbExit::Syscall { next },
        }
    }
    Ok((ctx.block, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_block, EvalExit};
    use risotto_guest_x86::{exec_insn, Assembler, Flags, GuestState, SparseMem, Step};
    use risotto_memmodel::FenceKind;

    fn assemble(f: impl FnOnce(&mut Assembler)) -> Vec<u8> {
        let mut a = Assembler::new(0x1000);
        f(&mut a);
        a.finish().expect("assembles").0
    }

    fn fetcher(bytes: Vec<u8>) -> impl Fn(u64) -> [u8; 16] {
        move |addr| {
            let mut out = [0u8; 16];
            let off = (addr - 0x1000) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            out
        }
    }

    #[test]
    fn qemu_fences_lead_verified_fences_trail() {
        let bytes = assemble(|a| {
            a.load(Gpr::RAX, Gpr::RDI, 0);
            a.store(Gpr::RSI, 0, Gpr::RAX);
            a.hlt();
        });
        let q = translate_block(0x1000, FrontendConfig::qemu(), fetcher(bytes.clone()))
            .expect("translates");
        assert_eq!(q.count_fences(FenceKind::Frr), 1, "Fmr demoted to Frr for x86 guests");
        assert_eq!(q.count_fences(FenceKind::Fmw), 1);
        // The (demoted) leading fence precedes the Ld.
        let frr = q
            .ops
            .iter()
            .position(|o| matches!(o, TcgOp::Fence(FenceKind::Frr)))
            .expect("op present");
        let ld = q.ops.iter().position(|o| matches!(o, TcgOp::Ld { .. })).expect("op present");
        assert!(frr < ld);

        let v = translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
            .expect("translates");
        assert_eq!(v.count_fences(FenceKind::Frm), 1);
        assert_eq!(v.count_fences(FenceKind::Fww), 1);
        let frm = v
            .ops
            .iter()
            .position(|o| matches!(o, TcgOp::Fence(FenceKind::Frm)))
            .expect("op present");
        let ld = v.ops.iter().position(|o| matches!(o, TcgOp::Ld { .. })).expect("op present");
        assert!(ld < frm);

        let n = translate_block(0x1000, FrontendConfig::no_fences(), fetcher(bytes))
            .expect("translates");
        assert_eq!(n.count_ops(|o| matches!(o, TcgOp::Fence(_))), 0);
    }

    #[test]
    fn cas_strategy_selects_op_or_helper() {
        let bytes = assemble(|a| {
            a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
            a.hlt();
        });
        let r = translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
            .expect("translates");
        assert_eq!(r.count_ops(|o| matches!(o, TcgOp::Cas { .. })), 1);
        assert_eq!(r.count_ops(|o| matches!(o, TcgOp::CallHelper { .. })), 0);
        let q =
            translate_block(0x1000, FrontendConfig::qemu(), fetcher(bytes)).expect("translates");
        assert_eq!(q.count_ops(|o| matches!(o, TcgOp::Cas { .. })), 0);
        assert_eq!(
            q.count_ops(|o| matches!(o, TcgOp::CallHelper { helper: Helper::CmpxchgSc, .. })),
            1
        );
    }

    #[test]
    fn block_ends_at_terminator() {
        let bytes = assemble(|a| {
            a.mov_ri(Gpr::RAX, 1);
            a.mov_ri(Gpr::RBX, 2);
            a.jmp_to("next");
            a.label("next");
            a.hlt();
        });
        let b =
            translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes)).expect("translates");
        match b.exit {
            TbExit::Jump(t) => assert_eq!(t, 0x1000 + 10 + 10 + 5),
            ref e => unreachable!("unexpected exit {e:?}"),
        }
        assert_eq!(b.guest_len, 25);
    }

    #[test]
    fn mfence_becomes_fsc() {
        let bytes = assemble(|a| {
            a.mfence();
            a.hlt();
        });
        let b =
            translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes)).expect("translates");
        assert_eq!(b.count_fences(FenceKind::Fsc), 1);
    }

    #[test]
    fn fp_goes_through_soft_float_helpers() {
        let bytes = assemble(|a| {
            a.fp(FpOp::Mul, Gpr::RAX, Gpr::RBX);
            a.hlt();
        });
        let b =
            translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes)).expect("translates");
        assert_eq!(
            b.count_ops(|o| matches!(o, TcgOp::CallHelper { helper: Helper::FpMul, .. })),
            1
        );
    }

    /// Op index and register of every `SetReg` of ZF/SF/CF/OF.
    fn flag_writes(b: &TcgBlock) -> Vec<(usize, u8)> {
        let flag = |reg: u8| (env::ZF..=env::OF).contains(&reg);
        b.ops
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match *o {
                TcgOp::SetReg { reg, .. } if flag(reg) => Some((i, reg)),
                _ => None,
            })
            .collect()
    }

    /// Asserts exactly one write of each flag, every one after op `after`.
    fn assert_one_flag_set_after(b: &TcgBlock, after: usize) {
        let writes = flag_writes(b);
        let regs: Vec<u8> = writes.iter().map(|&(_, r)| r).collect();
        assert_eq!(regs, [env::ZF, env::SF, env::CF, env::OF], "{:?}", b.ops);
        assert!(writes.iter().all(|&(i, _)| i > after), "flags set before op {after}: {writes:?}");
    }

    /// Guest state laid out the way the IR sees it: one env array.
    struct EnvState {
        env: [u64; env::COUNT],
        mem: SparseMem,
    }

    impl GuestState for EnvState {
        fn reg(&self, r: Gpr) -> u64 {
            self.env[r.index()]
        }
        fn set_reg(&mut self, r: Gpr, v: u64) {
            self.env[r.index()] = v;
        }
        fn flags(&self) -> Flags {
            let f = |reg: u8| self.env[reg as usize] != 0;
            Flags { zf: f(env::ZF), sf: f(env::SF), cf: f(env::CF), of: f(env::OF) }
        }
        fn set_flags(&mut self, f: Flags) {
            for (reg, v) in [(env::ZF, f.zf), (env::SF, f.sf), (env::CF, f.cf), (env::OF, f.of)] {
                self.env[reg as usize] = u64::from(v);
            }
        }
        fn load_u64(&self, addr: u64) -> u64 {
            self.mem.read_u64(addr)
        }
        fn store_u64(&mut self, addr: u64, v: u64) {
            self.mem.write_u64(addr, v);
        }
        fn load_u8(&self, addr: u64) -> u8 {
            self.mem.read_u8(addr)
        }
        fn store_u8(&mut self, addr: u64, v: u8) {
            self.mem.write_u8(addr, v);
        }
    }

    /// Runs the block's guest instructions through the interpreter's
    /// semantics and its IR through `eval_block` from the same states:
    /// registers, flags, memory and exit must agree.
    fn assert_matches_interpreter(bytes: &[u8], block: &TcgBlock) {
        for seed in 0..8u64 {
            let mut regs = [0u64; env::COUNT];
            for (i, r) in regs.iter_mut().enumerate() {
                *r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64 * 13) % 8;
            }
            for reg in env::ZF..=env::OF {
                regs[reg as usize] = (seed >> (reg - env::ZF)) & 1;
            }
            regs[Gpr::RDI.index()] = 0x4000;
            let mut mem = SparseMem::new();
            mem.write_u64(0x4000, seed % 3);
            let mut guest = EnvState { env: regs, mem: mem.clone() };
            let (mut pc, end) = (block.guest_pc, block.guest_pc + block.guest_len as u64);
            let mut want = EvalExit::Jump(end);
            while pc < end {
                let (insn, len) = Insn::decode(&bytes[(pc - 0x1000) as usize..]).unwrap();
                pc += len as u64;
                want = match exec_insn(&mut guest, insn, pc) {
                    Step::Next | Step::Fence => EvalExit::Jump(pc),
                    Step::Branch(t) => EvalExit::Jump(t),
                    Step::Halt => EvalExit::Halt,
                    Step::Syscall => EvalExit::Syscall { next: pc },
                };
            }
            let got = eval_block(block, &mut regs, &mut mem);
            assert_eq!(got, want, "exit (seed {seed})");
            assert_eq!(regs, guest.env, "registers or flags (seed {seed})");
            assert_eq!(mem.read_u64(0x4000), guest.mem.read_u64(0x4000), "memory (seed {seed})");
        }
    }

    #[test]
    fn only_the_last_flag_writer_sets_flags() {
        let bytes = assemble(|a| {
            a.alu_ri(AluOp::Add, Gpr::RAX, 1);
            a.alu_rr(AluOp::Sub, Gpr::RBX, Gpr::RCX);
            a.alu_ri(AluOp::And, Gpr::RDX, 3);
            a.cmp_ri(Gpr::RSI, 5);
            a.test_rr(Gpr::RAX, Gpr::RBX);
            a.hlt();
        });
        let b = translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
            .expect("translates");
        let test = b.ops.iter().rposition(|o| matches!(o, TcgOp::Bin { op: BinOp::And, .. }));
        assert_one_flag_set_after(&b, test.expect("the test's and"));
        assert_matches_interpreter(&bytes, &b);
    }

    #[test]
    fn cmpxchg_as_the_last_flag_writer_sets_flags() {
        let bytes = assemble(|a| {
            a.cmp_ri(Gpr::RAX, 1);
            a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
            a.hlt();
        });
        for cfg in [FrontendConfig::risotto(), FrontendConfig::qemu()] {
            let b = translate_block(0x1000, cfg, fetcher(bytes.clone())).expect("translates");
            let cas = b
                .ops
                .iter()
                .position(|o| matches!(o, TcgOp::Cas { .. } | TcgOp::CallHelper { .. }));
            assert_one_flag_set_after(&b, cas.expect("the compare-exchange"));
            assert_matches_interpreter(&bytes, &b);
        }
    }

    #[test]
    fn jcc_reads_the_flags_the_last_writer_kept() {
        let bytes = assemble(|a| {
            a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
            a.alu_ri(AluOp::Sub, Gpr::RAX, 2);
            a.cmp_rr(Gpr::RAX, Gpr::RBX);
            a.jcc_to(Cond::Le, "out");
            a.nop();
            a.label("out");
            a.hlt();
        });
        let b = translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
            .expect("translates");
        let cmp = b.ops.iter().rposition(|o| matches!(o, TcgOp::Bin { op: BinOp::Sub, .. }));
        assert_one_flag_set_after(&b, cmp.expect("the cmp's sub"));
        // `le` reads ZF, SF and OF — each after the writes it reads.
        let last_write = flag_writes(&b).last().expect("flags are written").0;
        let reads: Vec<usize> = (b.ops.iter().enumerate())
            .filter(|(_, o)| matches!(o, TcgOp::GetReg { reg, .. } if *reg >= env::ZF))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reads.len(), 3);
        assert!(reads.iter().all(|&i| i > last_write), "{reads:?} vs {last_write}");
        assert_matches_interpreter(&bytes, &b);
    }

    #[test]
    fn block_without_a_flag_writer_emits_no_flag_ops() {
        let bytes = assemble(|a| {
            a.mov_ri(Gpr::RAX, 1);
            a.load(Gpr::RBX, Gpr::RDI, 0);
            a.xadd(Gpr::RDI, 0, Gpr::RAX);
            a.hlt();
        });
        let b = translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
            .expect("translates");
        assert_eq!(flag_writes(&b), []);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Setcond { .. })), 0);
        assert_matches_interpreter(&bytes, &b);
    }

    #[test]
    fn full_fallthrough_block_keeps_its_last_writers_flags() {
        let bytes = assemble(|a| {
            for i in 0..MAX_TB_INSNS as u64 + 6 {
                a.alu_ri(AluOp::Add, Gpr::RAX, i);
            }
            a.hlt();
        });
        let (b, count) =
            translate_block_counted(0x1000, FrontendConfig::risotto(), fetcher(bytes.clone()))
                .expect("translates");
        assert_eq!(count, MAX_TB_INSNS);
        assert_eq!(b.exit, TbExit::Jump(0x1000 + b.guest_len as u64), "falls through");
        let last = b.ops.iter().rposition(|o| matches!(o, TcgOp::Bin { op: BinOp::Add, .. }));
        // `flags_add` emits no `Add`: the last one is the last `add`'s.
        assert_one_flag_set_after(&b, last.expect("the last add"));
        assert_matches_interpreter(&bytes, &b);
    }

    #[test]
    fn syscall_and_condjump_exits() {
        let bytes = assemble(|a| {
            a.syscall();
        });
        let b =
            translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes)).expect("translates");
        assert_eq!(b.exit, TbExit::Syscall { next: 0x1001 });

        let bytes = assemble(|a| {
            a.cmp_ri(Gpr::RAX, 5);
            a.jcc_to(risotto_guest_x86::Cond::E, "target");
            a.label("target");
            a.hlt();
        });
        let b =
            translate_block(0x1000, FrontendConfig::risotto(), fetcher(bytes)).expect("translates");
        match b.exit {
            TbExit::CondJump { taken, fallthrough, .. } => {
                assert_eq!(taken, fallthrough, "branch to fallthrough label");
            }
            ref e => unreachable!("unexpected exit {e:?}"),
        }
    }
}
