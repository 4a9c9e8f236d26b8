//! # Tier-0 IR-less template translation
//!
//! The tier-1 pipeline (`risotto-tcg` frontend → optimizer → regalloc →
//! backend) pays decode→IR→optimize→allocate→encode for every block,
//! even code executed once. Per Parker 2025 ("Boosting
//! Cross-Architectural Emulation Performance by Foregoing the
//! Intermediate Representation Model"), cold code does not need an IR:
//! this crate maps each MiniX86 instruction **directly** to a canned
//! host-instruction sequence — a *template* — with only operand patching
//! at translation time. No [`risotto_tcg::TcgOp`] is built, no optimizer
//! or register allocator runs, and no per-block verifier passes are
//! needed at runtime.
//!
//! ## Template ABI
//!
//! Templates are instantiated per instruction and concatenated. To make
//! every template independently correct regardless of context, the ABI
//! is "guest state lives in env memory":
//!
//! * every guest register and flag is read from / written to its env
//!   slot (`[ENV_BASE + 8*slot]`) within the template that uses it;
//! * scratch registers are fixed at `X9..X13` ([`T0`]..[`T4`]), inside
//!   the allocatable pool but clear of the helper-call argument
//!   registers (`X0..X3`), the ordering dialects' private RMW scratch
//!   (`X7`/`X8`), and the `ENV_BASE`/`SPILL_BASE` anchors (`X27`/`X28`);
//! * the env is therefore *always* flushed at helper calls, atomic
//!   sequences, and block exits — the flush obligations the tier-1
//!   verifier checks per block hold here by construction.
//!
//! ## Ordering and verification
//!
//! Memory-ordering decisions are **not** re-derived: guest fences are
//! read off the same x86→TCG table the frontend reads
//! ([`FencePlacement::fences`](risotto_memmodel::FencePlacement::fences)),
//! then lowered through the same per-backend
//! [`HostBackend`] hooks tier-1 uses (`fence`/`cas`/`atomic_add`).
//! The template set is finite, so the memory-model argument is made
//! *once, statically*: the repository test-suite enumerates every
//! template per backend, projects it to litmus events, and runs the
//! Theorem-1 check against the axiomatic models — the same way the
//! Fig. 7/8 mapping schemes are verified. The per-block Pass 1/2
//! verifier passes are thereby unnecessary for tier-0 blocks; the
//! Pass 3 encoding read-back still applies at install time.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use risotto_guest_x86::{AluOp, Cond, Gpr, Insn, Operand};
use risotto_host_arm::{
    helper_index, BackendConfig, BackendError, HostAsm, HostBackend, HostInsn, TbExitKind, Xreg,
};
use risotto_memmodel::{FenceKind, GuestAccess};
use risotto_tcg::{env, CasStrategy, FrontendConfig, Helper, TranslateError, MAX_TB_INSNS};

/// Template scratch register 0 (`X9`).
pub const T0: Xreg = Xreg(9);
/// Template scratch register 1 (`X10`).
pub const T1: Xreg = Xreg(10);
/// Template scratch register 2 (`X11`).
pub const T2: Xreg = Xreg(11);
/// Template scratch register 3 (`X12`).
pub const T3: Xreg = Xreg(12);
/// Template scratch register 4 (`X13`).
pub const T4: Xreg = Xreg(13);

/// A tier-0 translated block: concatenated instruction templates plus
/// the standard TB exit, ready for `install_code`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateBlock {
    /// Guest pc of the first instruction.
    pub guest_pc: u64,
    /// Number of guest bytes consumed.
    pub guest_len: usize,
    /// Number of guest instructions translated.
    pub insns: usize,
    /// The host code.
    pub code: Vec<HostInsn>,
}

/// Tier-0 translation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// Guest instruction decoding failed.
    Decode(TranslateError),
    /// Template assembly failed (structurally unreachable: templates
    /// bind every label they branch to).
    Lower(BackendError),
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateError::Decode(e) => write!(f, "tier-0 decode: {e}"),
            TemplateError::Lower(e) => write!(f, "tier-0 assembly: {e}"),
        }
    }
}

impl std::error::Error for TemplateError {}

/// One template instantiation context: the output assembler plus the
/// frontend/backend configuration the templates are parameterized on.
struct Emit<'a, B: HostBackend + ?Sized> {
    asm: &'a mut HostAsm,
    cfg: FrontendConfig,
    bcfg: BackendConfig,
    host: &'a B,
}

fn env_off(slot: u8) -> i32 {
    i32::from(slot) * 8
}

fn aop_of(op: AluOp) -> risotto_host_arm::AOp {
    use risotto_host_arm::AOp;
    match op {
        AluOp::Add => AOp::Add,
        AluOp::Sub => AOp::Sub,
        AluOp::And => AOp::And,
        AluOp::Or => AOp::Orr,
        AluOp::Xor => AOp::Eor,
        AluOp::Shl => AOp::Lsl,
        AluOp::Shr => AOp::Lsr,
        AluOp::Sar => AOp::Asr,
        AluOp::Mul => AOp::Mul,
    }
}

fn fp_helper_of(op: risotto_guest_x86::FpOp) -> Helper {
    use risotto_guest_x86::FpOp;
    match op {
        FpOp::Add => Helper::FpAdd,
        FpOp::Sub => Helper::FpSub,
        FpOp::Mul => Helper::FpMul,
        FpOp::Div => Helper::FpDiv,
        FpOp::Sqrt => Helper::FpSqrt,
        FpOp::CvtIF => Helper::FpCvtIF,
        FpOp::CvtFI => Helper::FpCvtFI,
    }
}

impl<B: HostBackend + ?Sized> Emit<'_, B> {
    fn push(&mut self, i: HostInsn) {
        self.asm.push(i);
    }

    /// `dst ← env[slot]`.
    fn ld_env(&mut self, dst: Xreg, slot: u8) {
        self.push(HostInsn::Ldr {
            dst,
            base: risotto_host_arm::ENV_BASE,
            off: env_off(slot),
            order: risotto_host_arm::MemOrder::Plain,
        });
    }

    /// `env[slot] ← src`.
    fn st_env(&mut self, src: Xreg, slot: u8) {
        self.push(HostInsn::Str {
            src,
            base: risotto_host_arm::ENV_BASE,
            off: env_off(slot),
            order: risotto_host_arm::MemOrder::Plain,
        });
    }

    fn ld_gpr(&mut self, dst: Xreg, r: Gpr) {
        self.ld_env(dst, r.0);
    }

    fn st_gpr(&mut self, src: Xreg, r: Gpr) {
        self.st_env(src, r.0);
    }

    /// Emits `access` — `None` for `MFENCE`, which is its fence alone —
    /// with the frontend mapping's table fences around it, each lowered
    /// through the backend dialect (no-op fences vanish, exactly as in
    /// tier-1 lowering).
    fn fenced(&mut self, access: GuestAccess, insn: Option<HostInsn>) {
        let (lead, trail) = self.cfg.fences.fences(access);
        let lower = |k: Option<FenceKind>| k.and_then(|k| self.host.fence(k));
        let (lead, trail) = (lower(lead), lower(trail));
        for i in [lead, insn, trail].into_iter().flatten() {
            self.push(i);
        }
    }

    /// `t ← guest address (base + disp)`.
    fn addr(&mut self, t: Xreg, base: Gpr, disp: i32) {
        self.ld_gpr(t, base);
        if disp != 0 {
            self.push(HostInsn::AluImm {
                op: risotto_host_arm::AOp::Add,
                dst: t,
                a: t,
                imm: disp as i64 as u64,
            });
        }
    }

    /// `t ← operand` (env read or immediate).
    fn operand(&mut self, t: Xreg, op: Operand) {
        match op {
            Operand::Reg(r) => self.ld_gpr(t, r),
            Operand::Imm(i) => self.push(HostInsn::MovImm { dst: t, imm: i }),
        }
    }

    /// Guest 64-bit load: fences per the mapping scheme around a plain
    /// `Ldr` with the displacement folded into the addressing mode.
    fn guest_load(&mut self, dst: Xreg, base: Xreg, disp: i32) {
        let order = risotto_host_arm::MemOrder::Plain;
        self.fenced(GuestAccess::Load, Some(HostInsn::Ldr { dst, base, off: disp, order }));
    }

    /// Guest 64-bit store: mapping-scheme fences around a plain `Str`.
    fn guest_store(&mut self, src: Xreg, base: Xreg, disp: i32) {
        let order = risotto_host_arm::MemOrder::Plain;
        self.fenced(GuestAccess::Store, Some(HostInsn::Str { src, base, off: disp, order }));
    }

    /// `ZF ← (res == 0)`, `SF ← res >> 63` via `scratch`.
    fn flags_zs(&mut self, res: Xreg, scratch: Xreg) {
        self.push(HostInsn::CmpImm { a: res, imm: 0 });
        self.push(HostInsn::Cset { dst: scratch, cond: risotto_host_arm::ACond::Eq });
        self.st_env(scratch, env::ZF);
        self.push(HostInsn::AluImm {
            op: risotto_host_arm::AOp::Lsr,
            dst: scratch,
            a: res,
            imm: 63,
        });
        self.st_env(scratch, env::SF);
    }

    /// The frontend's `flags_sub(a, b, res)` formulas, bit-exact:
    /// `CF = a <u b`, `OF = ((a ^ b) & (a ^ res)) >> 63`.
    fn flags_sub(&mut self, a: Xreg, b: Xreg, res: Xreg, s1: Xreg, s2: Xreg) {
        use risotto_host_arm::{ACond, AOp};
        self.flags_zs(res, s1);
        self.push(HostInsn::Cmp { a, b });
        self.push(HostInsn::Cset { dst: s1, cond: ACond::Lo });
        self.st_env(s1, env::CF);
        self.push(HostInsn::Alu { op: AOp::Eor, dst: s1, a, b });
        self.push(HostInsn::Alu { op: AOp::Eor, dst: s2, a, b: res });
        self.push(HostInsn::Alu { op: AOp::And, dst: s1, a: s1, b: s2 });
        self.push(HostInsn::AluImm { op: AOp::Lsr, dst: s1, a: s1, imm: 63 });
        self.st_env(s1, env::OF);
    }

    /// The frontend's `flags_add(a, b, res)` formulas, bit-exact:
    /// `CF = res <u a`, `OF = (~(a ^ b) & (a ^ res)) >> 63`.
    fn flags_add(&mut self, a: Xreg, b: Xreg, res: Xreg, s1: Xreg, s2: Xreg) {
        use risotto_host_arm::{ACond, AOp};
        self.flags_zs(res, s1);
        self.push(HostInsn::Cmp { a: res, b: a });
        self.push(HostInsn::Cset { dst: s1, cond: ACond::Lo });
        self.st_env(s1, env::CF);
        self.push(HostInsn::Alu { op: AOp::Eor, dst: s1, a, b });
        self.push(HostInsn::AluImm { op: AOp::Eor, dst: s1, a: s1, imm: u64::MAX });
        self.push(HostInsn::Alu { op: AOp::Eor, dst: s2, a, b: res });
        self.push(HostInsn::Alu { op: AOp::And, dst: s1, a: s1, b: s2 });
        self.push(HostInsn::AluImm { op: AOp::Lsr, dst: s1, a: s1, imm: 63 });
        self.st_env(s1, env::OF);
    }

    /// The frontend's `flags_logic(res)`: `CF = OF = 0`.
    fn flags_logic(&mut self, res: Xreg, scratch: Xreg) {
        self.flags_zs(res, scratch);
        self.push(HostInsn::MovImm { dst: scratch, imm: 0 });
        self.st_env(scratch, env::CF);
        self.st_env(scratch, env::OF);
    }

    /// Computes the 0/1 branch condition from the flag env slots into
    /// `T0`, replicating the frontend's `cond_temp` formulas.
    fn cond_flag(&mut self, cond: Cond) {
        use risotto_host_arm::AOp;
        let not = |e: &mut Self, r: Xreg| {
            e.push(HostInsn::AluImm { op: AOp::Eor, dst: r, a: r, imm: 1 });
        };
        match cond {
            Cond::E => self.ld_env(T0, env::ZF),
            Cond::Ne => {
                self.ld_env(T0, env::ZF);
                not(self, T0);
            }
            Cond::L | Cond::Ge => {
                self.ld_env(T0, env::SF);
                self.ld_env(T1, env::OF);
                self.push(HostInsn::Alu { op: AOp::Eor, dst: T0, a: T0, b: T1 });
                if cond == Cond::Ge {
                    not(self, T0);
                }
            }
            Cond::Le | Cond::G => {
                self.ld_env(T0, env::SF);
                self.ld_env(T1, env::OF);
                self.push(HostInsn::Alu { op: AOp::Eor, dst: T0, a: T0, b: T1 });
                self.ld_env(T1, env::ZF);
                self.push(HostInsn::Alu { op: AOp::Orr, dst: T0, a: T1, b: T0 });
                if cond == Cond::G {
                    not(self, T0);
                }
            }
            Cond::B => self.ld_env(T0, env::CF),
            Cond::Ae => {
                self.ld_env(T0, env::CF);
                not(self, T0);
            }
            Cond::Be | Cond::A => {
                self.ld_env(T0, env::CF);
                self.ld_env(T1, env::ZF);
                self.push(HostInsn::Alu { op: AOp::Orr, dst: T0, a: T0, b: T1 });
                if cond == Cond::A {
                    not(self, T0);
                }
            }
            Cond::S => self.ld_env(T0, env::SF),
            Cond::Ns => {
                self.ld_env(T0, env::SF);
                not(self, T0);
            }
        }
    }

    /// The frontend's `push_ra(ra)`: `RSP -= 8; [RSP] ← ra` with the
    /// configured store ordering.
    fn push_ra(&mut self, ra: u64) {
        use risotto_host_arm::AOp;
        self.ld_gpr(T0, Gpr::RSP);
        self.push(HostInsn::AluImm { op: AOp::Sub, dst: T0, a: T0, imm: 8 });
        self.st_gpr(T0, Gpr::RSP);
        self.push(HostInsn::MovImm { dst: T1, imm: ra });
        self.guest_store(T1, T0, 0);
    }

    /// Marshals `args` (≤4) into `X0..`, calls helper `h`, moves the
    /// result from `X0` into `dst`.
    fn hcall(&mut self, h: Helper, args: &[Xreg], dst: Xreg) {
        for (i, &a) in args.iter().enumerate() {
            self.push(HostInsn::MovReg { dst: Xreg(i as u8), src: a });
        }
        self.push(HostInsn::Hcall { helper: helper_index(h) });
        self.push(HostInsn::MovReg { dst, src: Xreg(0) });
    }

    fn exit(&mut self, kind: TbExitKind) {
        self.push(HostInsn::ExitTb(kind));
    }

    /// Emits the template for `insn` (with `next` the fall-through pc).
    /// Returns `true` when the instruction ended the block.
    fn insn(&mut self, insn: &Insn, next: u64) -> bool {
        use risotto_host_arm::{ACond, AOp};
        match *insn {
            Insn::MovRI { dst, imm } => {
                self.push(HostInsn::MovImm { dst: T0, imm });
                self.st_gpr(T0, dst);
            }
            Insn::MovRR { dst, src } => {
                self.ld_gpr(T0, src);
                self.st_gpr(T0, dst);
            }
            Insn::Load { dst, base, disp } => {
                self.ld_gpr(T0, base);
                self.guest_load(T1, T0, disp);
                self.st_gpr(T1, dst);
            }
            Insn::Store { base, disp, src } => {
                self.ld_gpr(T1, src);
                self.ld_gpr(T0, base);
                self.guest_store(T1, T0, disp);
            }
            Insn::LoadB { dst, base, disp } => {
                self.ld_gpr(T0, base);
                self.fenced(
                    GuestAccess::Load,
                    Some(HostInsn::LdrB { dst: T1, base: T0, off: disp }),
                );
                self.st_gpr(T1, dst);
            }
            Insn::StoreB { base, disp, src } => {
                self.ld_gpr(T1, src);
                self.ld_gpr(T0, base);
                self.fenced(
                    GuestAccess::Store,
                    Some(HostInsn::StrB { src: T1, base: T0, off: disp }),
                );
            }
            Insn::Lea { dst, base, disp } => {
                self.addr(T0, base, disp);
                self.st_gpr(T0, dst);
            }
            Insn::Alu { op, dst, src } => {
                self.ld_gpr(T0, dst);
                self.operand(T1, src);
                self.push(HostInsn::Alu { op: aop_of(op), dst: T2, a: T0, b: T1 });
                self.st_gpr(T2, dst);
                match op {
                    AluOp::Add => self.flags_add(T0, T1, T2, T3, T4),
                    AluOp::Sub => self.flags_sub(T0, T1, T2, T3, T4),
                    _ => self.flags_logic(T2, T3),
                }
            }
            Insn::MulWide { src } => {
                self.ld_gpr(T0, Gpr::RAX);
                self.ld_gpr(T1, src);
                self.push(HostInsn::Alu { op: AOp::Mul, dst: T2, a: T0, b: T1 });
                self.push(HostInsn::Alu { op: AOp::Umulh, dst: T3, a: T0, b: T1 });
                self.st_gpr(T2, Gpr::RAX);
                self.st_gpr(T3, Gpr::RDX);
            }
            Insn::Div { src } => {
                self.ld_gpr(T0, Gpr::RAX);
                self.ld_gpr(T1, src);
                self.push(HostInsn::Alu { op: AOp::Udiv, dst: T2, a: T0, b: T1 });
                self.push(HostInsn::Alu { op: AOp::Urem, dst: T3, a: T0, b: T1 });
                self.st_gpr(T2, Gpr::RAX);
                self.st_gpr(T3, Gpr::RDX);
            }
            Insn::Fp { op, dst, src } => {
                self.ld_gpr(T0, dst);
                self.ld_gpr(T1, src);
                self.hcall(fp_helper_of(op), &[T0, T1], T2);
                self.st_gpr(T2, dst);
            }
            Insn::Cmp { a, b } => {
                self.ld_gpr(T0, a);
                self.operand(T1, b);
                self.push(HostInsn::Alu { op: AOp::Sub, dst: T2, a: T0, b: T1 });
                self.flags_sub(T0, T1, T2, T3, T4);
            }
            Insn::Test { a, b } => {
                self.ld_gpr(T0, a);
                self.operand(T1, b);
                self.push(HostInsn::Alu { op: AOp::And, dst: T2, a: T0, b: T1 });
                self.flags_logic(T2, T3);
            }
            Insn::LockCmpxchg { base, disp, src } => {
                self.addr(T0, base, disp);
                self.ld_gpr(T1, Gpr::RAX);
                self.ld_gpr(T2, src);
                match self.cfg.cas {
                    CasStrategy::TcgOp => {
                        self.host.cas(self.asm, T3, T0, T1, T2, self.bcfg);
                    }
                    CasStrategy::Helper => self.hcall(Helper::CmpxchgSc, &[T0, T1, T2], T3),
                }
                self.st_gpr(T3, Gpr::RAX);
                self.push(HostInsn::Cmp { a: T3, b: T1 });
                self.push(HostInsn::Cset { dst: T4, cond: ACond::Eq });
                self.st_env(T4, env::ZF);
                self.push(HostInsn::MovImm { dst: T4, imm: 0 });
                self.st_env(T4, env::SF);
                self.st_env(T4, env::CF);
                self.st_env(T4, env::OF);
            }
            Insn::LockXadd { base, disp, src } => {
                self.addr(T0, base, disp);
                self.ld_gpr(T1, src);
                match self.cfg.cas {
                    CasStrategy::TcgOp => {
                        self.host.atomic_add(self.asm, T2, T0, T1, self.bcfg);
                    }
                    CasStrategy::Helper => self.hcall(Helper::XaddSc, &[T0, T1], T2),
                }
                self.st_gpr(T2, src);
            }
            Insn::Mfence => self.fenced(GuestAccess::Mfence, None),
            Insn::Nop => {}
            Insn::Jcc { cond, rel } => {
                self.cond_flag(cond);
                let l_taken = self.asm.fresh_label();
                self.push(HostInsn::CmpImm { a: T0, imm: 0 });
                self.asm.bcond_to(ACond::Ne, l_taken);
                self.exit(TbExitKind::Jump { guest_pc: next, chain: 0 });
                self.asm.bind(l_taken);
                self.exit(TbExitKind::Jump {
                    guest_pc: next.wrapping_add(rel as i64 as u64),
                    chain: 0,
                });
                return true;
            }
            Insn::Jmp { rel } => {
                self.exit(TbExitKind::Jump {
                    guest_pc: next.wrapping_add(rel as i64 as u64),
                    chain: 0,
                });
                return true;
            }
            Insn::JmpReg { reg } => {
                self.ld_gpr(T0, reg);
                self.exit(TbExitKind::JumpReg { reg: T0 });
                return true;
            }
            Insn::Call { rel } => {
                self.push_ra(next);
                self.exit(TbExitKind::Jump {
                    guest_pc: next.wrapping_add(rel as i64 as u64),
                    chain: 0,
                });
                return true;
            }
            Insn::CallReg { reg } => {
                // Target is read before the stack push so `call [rsp]`
                // uses the pre-push value, as in the frontend.
                self.ld_gpr(T2, reg);
                self.push_ra(next);
                self.exit(TbExitKind::JumpReg { reg: T2 });
                return true;
            }
            Insn::Ret => {
                self.ld_gpr(T0, Gpr::RSP);
                self.guest_load(T1, T0, 0);
                self.push(HostInsn::AluImm { op: AOp::Add, dst: T2, a: T0, imm: 8 });
                self.st_gpr(T2, Gpr::RSP);
                self.exit(TbExitKind::JumpReg { reg: T1 });
                return true;
            }
            Insn::Push { src } => {
                self.ld_gpr(T1, src);
                self.ld_gpr(T0, Gpr::RSP);
                self.push(HostInsn::AluImm { op: AOp::Sub, dst: T0, a: T0, imm: 8 });
                self.st_gpr(T0, Gpr::RSP);
                self.guest_store(T1, T0, 0);
            }
            Insn::Pop { dst } => {
                self.ld_gpr(T0, Gpr::RSP);
                self.guest_load(T1, T0, 0);
                self.push(HostInsn::AluImm { op: AOp::Add, dst: T2, a: T0, imm: 8 });
                self.st_gpr(T2, Gpr::RSP);
                self.st_gpr(T1, dst);
            }
            Insn::Hlt => {
                self.exit(TbExitKind::Halt);
                return true;
            }
            Insn::Syscall => {
                self.exit(TbExitKind::Syscall { next });
                return true;
            }
        }
        false
    }
}

/// Instantiates the template for a single instruction, for the static
/// verification suite (the per-template Theorem-1 projection) and the
/// template-table documentation. `pc` is the instruction's address
/// (used only by terminators to compute exit targets).
///
/// # Errors
///
/// Returns [`BackendError`] only on an internal label bug (templates
/// bind every label they emit).
pub fn insn_template<B: HostBackend + ?Sized>(
    insn: &Insn,
    pc: u64,
    cfg: FrontendConfig,
    bcfg: BackendConfig,
    host: &B,
) -> Result<Vec<HostInsn>, BackendError> {
    let mut asm = HostAsm::new();
    let mut e = Emit { asm: &mut asm, cfg, bcfg, host };
    let next = pc + insn.encoded_len() as u64;
    e.insn(insn, next);
    e.asm.finish()
}

/// Translates one basic block starting at `pc` by template
/// instantiation: decode each instruction and append its canned host
/// sequence, with no IR, optimizer or register-allocator stage. The
/// block ends at the first terminator or after
/// [`MAX_TB_INSNS`] instructions (falling off with a `Jump` to the
/// next pc, like the tier-1 frontend).
///
/// # Errors
///
/// Returns [`TemplateError::Decode`] when instruction decoding fails at
/// some pc, [`TemplateError::Lower`] on an internal label bug.
pub fn translate_block_template<B, F>(
    pc: u64,
    cfg: FrontendConfig,
    bcfg: BackendConfig,
    host: &B,
    fetch: F,
) -> Result<TemplateBlock, TemplateError>
where
    B: HostBackend + ?Sized,
    F: Fn(u64) -> [u8; 16],
{
    let mut asm = HostAsm::new();
    // Typical templates expand to ~10 host insns per guest insn; one
    // up-front reservation keeps the emit loop reallocation-free.
    asm.reserve(MAX_TB_INSNS * 12);
    let mut blk = translate_block_template_in(pc, cfg, bcfg, host, fetch, &mut asm)?;
    // Give back the reservation's unused tail.
    blk.code.shrink_to_fit();
    Ok(blk)
}

/// [`translate_block_template`] into a caller-owned assembler, cleared
/// on entry: the engine passes the one its tier-1 lowerings assemble
/// into, so a template block reuses the instruction buffer the code
/// cache's last install handed back instead of allocating its own.
///
/// # Errors
///
/// As [`translate_block_template`].
pub fn translate_block_template_in<B, F>(
    pc: u64,
    cfg: FrontendConfig,
    bcfg: BackendConfig,
    host: &B,
    fetch: F,
    asm: &mut HostAsm,
) -> Result<TemplateBlock, TemplateError>
where
    B: HostBackend + ?Sized,
    F: Fn(u64) -> [u8; 16],
{
    asm.clear();
    let mut e = Emit { asm, cfg, bcfg, host };
    let mut cur = pc;
    let mut insns = 0usize;
    let mut ended = false;
    for _ in 0..MAX_TB_INSNS {
        let window = fetch(cur);
        let (insn, len) = Insn::decode(&window)
            .map_err(|cause| TemplateError::Decode(TranslateError { pc: cur, cause }))?;
        let next = cur + len as u64;
        insns += 1;
        if e.insn(&insn, next) {
            cur = next;
            ended = true;
            break;
        }
        cur = next;
    }
    if !ended {
        // Size cap reached: continue at the next pc, like the frontend.
        e.exit(TbExitKind::Jump { guest_pc: cur, chain: 0 });
    }
    let code = e.asm.finish().map_err(TemplateError::Lower)?;
    Ok(TemplateBlock { guest_pc: pc, guest_len: (cur - pc) as usize, insns, code })
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_host_arm::ArmBackend;

    fn fetch_of(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
        move |pc| {
            let mut w = [0u8; 16];
            let off = (pc - base) as usize;
            for (i, s) in w.iter_mut().enumerate() {
                if off + i < bytes.len() {
                    *s = bytes[off + i];
                }
            }
            w
        }
    }

    #[test]
    fn straight_line_block_translates() {
        let mut a = risotto_guest_x86::Assembler::new(0x1000);
        a.mov_ri(Gpr::RAX, 7);
        a.alu_ri(AluOp::Add, Gpr::RAX, 5);
        a.hlt();
        let (bytes, _) = a.finish().unwrap();
        let blk = translate_block_template(
            0x1000,
            FrontendConfig::risotto(),
            BackendConfig::dbt(risotto_host_arm::RmwStyle::Casal),
            &ArmBackend,
            fetch_of(bytes.clone(), 0x1000),
        )
        .unwrap();
        assert_eq!(blk.guest_pc, 0x1000);
        assert_eq!(blk.guest_len, bytes.len());
        assert_eq!(blk.insns, 3);
        assert!(matches!(blk.code.last(), Some(HostInsn::ExitTb(TbExitKind::Halt))));
    }

    #[test]
    fn decode_error_surfaces_pc() {
        let err = translate_block_template(
            0x2000,
            FrontendConfig::risotto(),
            BackendConfig::dbt(risotto_host_arm::RmwStyle::Casal),
            &ArmBackend,
            |_| [0xFFu8; 16],
        )
        .unwrap_err();
        match err {
            TemplateError::Decode(e) => assert_eq!(e.pc, 0x2000),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn size_cap_falls_through_with_jump() {
        // MAX_TB_INSNS straight-line instructions, no terminator.
        let mut a = risotto_guest_x86::Assembler::new(0x1000);
        for _ in 0..MAX_TB_INSNS + 4 {
            a.mov_ri(Gpr::RBX, 1);
        }
        let (bytes, _) = a.finish().unwrap();
        let blk = translate_block_template(
            0x1000,
            FrontendConfig::risotto(),
            BackendConfig::dbt(risotto_host_arm::RmwStyle::Casal),
            &ArmBackend,
            fetch_of(bytes, 0x1000),
        )
        .unwrap();
        assert_eq!(blk.insns, MAX_TB_INSNS);
        let expect_pc = 0x1000 + (blk.guest_len as u64);
        assert!(matches!(
            blk.code.last(),
            Some(HostInsn::ExitTb(TbExitKind::Jump { guest_pc, .. })) if *guest_pc == expect_pc
        ));
    }

    #[test]
    fn fence_free_config_emits_no_barriers() {
        let mut a = risotto_guest_x86::Assembler::new(0x1000);
        a.load(Gpr::RAX, Gpr::RBX, 0);
        a.store(Gpr::RBX, 8, Gpr::RAX);
        a.hlt();
        let (bytes, _) = a.finish().unwrap();
        let blk = translate_block_template(
            0x1000,
            FrontendConfig::no_fences(),
            BackendConfig::dbt(risotto_host_arm::RmwStyle::Casal),
            &ArmBackend,
            fetch_of(bytes, 0x1000),
        )
        .unwrap();
        assert!(!blk.code.iter().any(|i| matches!(i, HostInsn::Barrier(_))));
    }
}
