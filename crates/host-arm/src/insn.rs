//! MiniArm — the weakly-ordered host ISA.
//!
//! MiniArm stands in for AArch64 (ARMv8.1 with LSE atomics, like the
//! paper's ThunderX2 testbed): plain and synchronizing loads/stores
//! (`LDR`/`STR`, `LDAR`/`STLR`, `LDAPR`), exclusive pairs
//! (`LDXR`/`STXR` with acquire/release variants), single-instruction
//! atomics (`CAS`/`CASAL`, `LDADDAL`), the three `DMB` barriers, ALU and
//! branch instructions, and hardware floating point.
//!
//! Three simulator-specific instructions model the DBT runtime boundary:
//! `Hcall` (a QEMU-style helper call: leave JIT code, run a runtime
//! helper, return), `NativeCall` (invoke a registered native host library
//! function — Risotto's dynamic linker target, §6.2) and `ExitTb` (leave
//! the code cache back to the execution loop).

use std::fmt;

/// A MiniArm general-purpose register (64-bit). `X31` reads as zero and
/// ignores writes (`XZR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xreg(pub u8);

impl Xreg {
    /// First argument / return value.
    pub const X0: Xreg = Xreg(0);
    /// Second argument.
    pub const X1: Xreg = Xreg(1);
    /// Third argument.
    pub const X2: Xreg = Xreg(2);
    /// Fourth argument.
    pub const X3: Xreg = Xreg(3);
    /// Zero register.
    pub const XZR: Xreg = Xreg(31);
    /// Number of addressable registers (including XZR).
    pub const COUNT: usize = 32;

    /// Array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Xreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 31 {
            write!(f, "xzr")
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Bitwise and.
    And = 2,
    /// Bitwise or.
    Orr = 3,
    /// Bitwise exclusive-or.
    Eor = 4,
    /// Logical shift left.
    Lsl = 5,
    /// Logical shift right.
    Lsr = 6,
    /// Arithmetic shift right.
    Asr = 7,
    /// Multiplication (low 64 bits).
    Mul = 8,
    /// High 64 bits of the unsigned product (`umulh`).
    Umulh = 11,
    /// Unsigned division (÷0 = 0, as on real AArch64).
    Udiv = 9,
    /// Unsigned remainder (simulator convenience for `msub`; mod 0 = x).
    Urem = 10,
}

impl AOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AOp::Add => a.wrapping_add(b),
            AOp::Sub => a.wrapping_sub(b),
            AOp::And => a & b,
            AOp::Orr => a | b,
            AOp::Eor => a ^ b,
            AOp::Lsl => a.wrapping_shl((b & 63) as u32),
            AOp::Lsr => a.wrapping_shr((b & 63) as u32),
            AOp::Asr => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AOp::Mul => a.wrapping_mul(b),
            AOp::Umulh => ((a as u128 * b as u128) >> 64) as u64,
            AOp::Udiv => a.checked_div(b).unwrap_or(0),
            AOp::Urem => a.checked_rem(b).unwrap_or(a),
        }
    }

    fn from_u8(v: u8) -> Option<AOp> {
        use AOp::*;
        Some(match v {
            0 => Add,
            1 => Sub,
            2 => And,
            3 => Orr,
            4 => Eor,
            5 => Lsl,
            6 => Lsr,
            7 => Asr,
            8 => Mul,
            9 => Udiv,
            10 => Urem,
            11 => Umulh,
            _ => return None,
        })
    }
}

/// Branch conditions over NZCV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ACond {
    /// Equal (Z).
    Eq = 0,
    /// Not equal (!Z).
    Ne = 1,
    /// Unsigned lower (!C).
    Lo = 2,
    /// Unsigned higher-or-same (C).
    Hs = 3,
    /// Signed less-than (N≠V).
    Lt = 4,
    /// Signed greater-or-equal (N=V).
    Ge = 5,
    /// Signed less-or-equal (Z ∨ N≠V).
    Le = 6,
    /// Signed greater-than (!Z ∧ N=V).
    Gt = 7,
    /// Unsigned lower-or-same (!C ∨ Z).
    Ls = 8,
    /// Unsigned higher (C ∧ !Z).
    Hi = 9,
    /// Negative (N).
    Mi = 10,
    /// Non-negative (!N).
    Pl = 11,
}

impl ACond {
    /// Evaluates against NZCV.
    pub fn eval(self, f: Nzcv) -> bool {
        match self {
            ACond::Eq => f.z,
            ACond::Ne => !f.z,
            ACond::Lo => !f.c,
            ACond::Hs => f.c,
            ACond::Lt => f.n != f.v,
            ACond::Ge => f.n == f.v,
            ACond::Le => f.z || f.n != f.v,
            ACond::Gt => !f.z && f.n == f.v,
            ACond::Ls => !f.c || f.z,
            ACond::Hi => f.c && !f.z,
            ACond::Mi => f.n,
            ACond::Pl => !f.n,
        }
    }

    fn from_u8(v: u8) -> Option<ACond> {
        use ACond::*;
        Some(match v {
            0 => Eq,
            1 => Ne,
            2 => Lo,
            3 => Hs,
            4 => Lt,
            5 => Ge,
            6 => Le,
            7 => Gt,
            8 => Ls,
            9 => Hi,
            10 => Mi,
            11 => Pl,
            _ => return None,
        })
    }
}

/// NZCV condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Nzcv {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry (AArch64 convention: subtraction sets C on *no* borrow).
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Nzcv {
    /// Flags of `a - b` (the `CMP` semantics; C set when no borrow).
    pub fn from_cmp(a: u64, b: u64) -> Nzcv {
        let (res, borrow) = a.overflowing_sub(b);
        let (_, sover) = (a as i64).overflowing_sub(b as i64);
        Nzcv { n: (res as i64) < 0, z: res == 0, c: !borrow, v: sover }
    }
}

/// Barrier domains of `DMB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Dmb {
    /// `DMB ISHLD`: orders prior loads with all later accesses.
    Ld = 0,
    /// `DMB ISHST`: orders prior stores with later stores.
    St = 1,
    /// `DMB ISH`: full barrier.
    Ff = 2,
}

impl Dmb {
    fn from_u8(v: u8) -> Option<Dmb> {
        Some(match v {
            0 => Dmb::Ld,
            1 => Dmb::St,
            2 => Dmb::Ff,
            _ => return None,
        })
    }
}

/// Memory-access ordering annotations on loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemOrder {
    /// Plain access.
    Plain = 0,
    /// Acquire (`LDAR`) / release (`STLR`).
    AcqRel = 1,
    /// Acquire-PC (`LDAPR`; loads only).
    AcqPc = 2,
}

impl MemOrder {
    fn from_u8(v: u8) -> Option<MemOrder> {
        Some(match v {
            0 => MemOrder::Plain,
            1 => MemOrder::AcqRel,
            2 => MemOrder::AcqPc,
            _ => return None,
        })
    }
}

/// Floating-point operations (hardware FP on f64 bit patterns in X regs —
/// the same register-file simplification as the guest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AFpOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Multiplication.
    Mul = 2,
    /// Division.
    Div = 3,
    /// Square root of the second operand.
    Sqrt = 4,
    /// Int → f64 of the second operand.
    CvtIF = 5,
    /// f64 → int of the second operand.
    CvtFI = 6,
}

impl AFpOp {
    /// Applies the operation on bit patterns. Delegates to the shared
    /// deterministic soft-float (`risotto_guest_x86::softfloat`) so the
    /// hardware-FP fast path, the soft-float helpers, the TCG constant
    /// evaluator, and the reference interpreter all agree bit-for-bit —
    /// NaN payload propagation included.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        use risotto_guest_x86::softfloat as sf;
        match self {
            AFpOp::Add => sf::add(a, b),
            AFpOp::Sub => sf::sub(a, b),
            AFpOp::Mul => sf::mul(a, b),
            AFpOp::Div => sf::div(a, b),
            AFpOp::Sqrt => sf::sqrt(b),
            AFpOp::CvtIF => sf::cvt_if(b),
            AFpOp::CvtFI => sf::cvt_fi(b),
        }
    }

    fn from_u8(v: u8) -> Option<AFpOp> {
        use AFpOp::*;
        Some(match v {
            0 => Add,
            1 => Sub,
            2 => Mul,
            3 => Div,
            4 => Sqrt,
            5 => CvtIF,
            6 => CvtFI,
            _ => return None,
        })
    }
}

/// Byte offset of the chain word inside an encoded `ExitTb(Jump)`
/// instruction: opcode (1) + exit kind (1) + guest pc (8).
pub const JUMP_CHAIN_OFFSET: usize = 10;

/// Why a translation block exited (payload of [`HostInsn::ExitTb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TbExitKind {
    /// Continue at a known guest pc (the engine chains or translates).
    Jump {
        /// Guest target pc.
        guest_pc: u64,
        /// Patchable chain slot: the host pc of the target block once the
        /// exit has been chained, or 0 while unresolved (host code lives at
        /// [`crate::CODE_BASE`], so 0 is never a valid host pc). The word
        /// lives in the encoded instruction at byte offset
        /// [`JUMP_CHAIN_OFFSET`] and is patched in place by the machine.
        chain: u64,
    },
    /// Continue at the guest pc held in a register.
    JumpReg {
        /// Register holding the guest pc.
        reg: Xreg,
    },
    /// The guest halted.
    Halt,
    /// Guest syscall; the engine services it then resumes at `next`.
    Syscall {
        /// Guest pc after the syscall instruction.
        next: u64,
    },
}

/// A MiniArm instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostInsn {
    /// `mov dst, #imm64` (stands for a `MOVZ`/`MOVK` sequence).
    MovImm {
        /// Destination.
        dst: Xreg,
        /// Immediate.
        imm: u64,
    },
    /// `mov dst, src`.
    MovReg {
        /// Destination.
        dst: Xreg,
        /// Source.
        src: Xreg,
    },
    /// Load: `ldr dst, [base, #off]` (or `ldar`/`ldapr` per `order`).
    Ldr {
        /// Destination.
        dst: Xreg,
        /// Base register.
        base: Xreg,
        /// Byte offset.
        off: i32,
        /// Ordering annotation.
        order: MemOrder,
    },
    /// Store: `str src, [base, #off]` (or `stlr`).
    Str {
        /// Source.
        src: Xreg,
        /// Base register.
        base: Xreg,
        /// Byte offset.
        off: i32,
        /// Ordering annotation.
        order: MemOrder,
    },
    /// Byte load, zero-extended (`ldrb`).
    LdrB {
        /// Destination.
        dst: Xreg,
        /// Base register.
        base: Xreg,
        /// Byte offset.
        off: i32,
    },
    /// Byte store (`strb`, low 8 bits).
    StrB {
        /// Source.
        src: Xreg,
        /// Base register.
        base: Xreg,
        /// Byte offset.
        off: i32,
    },
    /// Load-exclusive (`ldxr`/`ldaxr` when `acquire`).
    Ldxr {
        /// Destination.
        dst: Xreg,
        /// Address register.
        addr: Xreg,
        /// `true` for `ldaxr`.
        acquire: bool,
    },
    /// Store-exclusive (`stxr`/`stlxr`): `status` gets 0 on success, 1 on
    /// failure.
    Stxr {
        /// Status destination.
        status: Xreg,
        /// Value to store.
        src: Xreg,
        /// Address register.
        addr: Xreg,
        /// `true` for `stlxr`.
        release: bool,
    },
    /// Compare-and-swap: `cmp_old` holds the comparison value and receives
    /// the old memory value; `new` is swapped in on match. `acq_rel`
    /// selects `casal` (full acquire-release) vs plain `cas`.
    Cas {
        /// Compare value in, old value out.
        cmp_old: Xreg,
        /// Replacement value.
        new: Xreg,
        /// Address register.
        addr: Xreg,
        /// `casal` when true.
        acq_rel: bool,
    },
    /// `ldaddal old, addend, [addr]` — atomic fetch-add (LSE).
    LdaddAl {
        /// Receives the old value.
        old: Xreg,
        /// Addend.
        addend: Xreg,
        /// Address register.
        addr: Xreg,
    },
    /// Memory barrier.
    Barrier(Dmb),
    /// `op dst, a, b`.
    Alu {
        /// Operation.
        op: AOp,
        /// Destination.
        dst: Xreg,
        /// Left operand.
        a: Xreg,
        /// Right operand.
        b: Xreg,
    },
    /// `op dst, a, #imm`.
    AluImm {
        /// Operation.
        op: AOp,
        /// Destination.
        dst: Xreg,
        /// Left operand.
        a: Xreg,
        /// Immediate right operand.
        imm: u64,
    },
    /// `cmp a, b` → NZCV.
    Cmp {
        /// Left operand.
        a: Xreg,
        /// Right operand.
        b: Xreg,
    },
    /// `cmp a, #imm`.
    CmpImm {
        /// Left operand.
        a: Xreg,
        /// Immediate.
        imm: u64,
    },
    /// `cset dst, cond`.
    Cset {
        /// Destination (1 if cond else 0).
        dst: Xreg,
        /// Condition.
        cond: ACond,
    },
    /// Hardware floating point.
    Fp {
        /// Operation.
        op: AFpOp,
        /// Destination.
        dst: Xreg,
        /// Left operand.
        a: Xreg,
        /// Right operand.
        b: Xreg,
    },
    /// `b.cond rel` (relative to the next instruction).
    BCond {
        /// Condition.
        cond: ACond,
        /// Relative target.
        rel: i32,
    },
    /// `b rel`.
    B {
        /// Relative target.
        rel: i32,
    },
    /// Runtime helper call (QEMU-style out-of-line code): args in X0–X3,
    /// result in X0. Carries the DBT-runtime round-trip cost.
    Hcall {
        /// Helper index (mirrors `risotto_tcg::Helper`).
        helper: u8,
    },
    /// Native host library call through the dynamic linker's table: args
    /// in X0–X5, result in X0.
    NativeCall {
        /// Index into the machine's native-function registry.
        func: u16,
    },
    /// Leave the code cache back to the DBT execution loop.
    ExitTb(TbExitKind),
    /// Stop this core.
    Hlt,
    /// No operation.
    Nop,
}

impl HostInsn {
    /// Bytes [`encode`](Self::encode) appends for this instruction — the
    /// encoding's length table, for sizing code without producing it.
    pub fn encoded_len(&self) -> usize {
        use HostInsn::*;
        match self {
            Hlt | Nop => 1,
            Barrier(_) | Hcall { .. } => 2,
            MovReg { .. } | Cmp { .. } | Cset { .. } | NativeCall { .. } => 3,
            Ldxr { .. } | LdaddAl { .. } => 4,
            Stxr { .. } | Cas { .. } | Alu { .. } | Fp { .. } | B { .. } => 5,
            BCond { .. } => 6,
            LdrB { .. } | StrB { .. } => 7,
            Ldr { .. } | Str { .. } => 8,
            MovImm { .. } | CmpImm { .. } => 10,
            AluImm { .. } => 12,
            ExitTb(TbExitKind::Halt) => 2,
            ExitTb(TbExitKind::JumpReg { .. }) => 3,
            ExitTb(TbExitKind::Syscall { .. }) => 10,
            ExitTb(TbExitKind::Jump { .. }) => JUMP_CHAIN_OFFSET + 8,
        }
    }

    /// Appends the encoding to `out`; returns the encoded length.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        use HostInsn::*;
        match *self {
            MovImm { dst, imm } => {
                out.extend_from_slice(&[0x01, dst.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            MovReg { dst, src } => out.extend_from_slice(&[0x02, dst.0, src.0]),
            Ldr { dst, base, off, order } => {
                out.extend_from_slice(&[0x03, dst.0, base.0, order as u8]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            Str { src, base, off, order } => {
                out.extend_from_slice(&[0x04, src.0, base.0, order as u8]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            LdrB { dst, base, off } => {
                out.extend_from_slice(&[0x1b, dst.0, base.0]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            StrB { src, base, off } => {
                out.extend_from_slice(&[0x1c, src.0, base.0]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            Ldxr { dst, addr, acquire } => {
                out.extend_from_slice(&[0x05, dst.0, addr.0, acquire as u8]);
            }
            Stxr { status, src, addr, release } => {
                out.extend_from_slice(&[0x06, status.0, src.0, addr.0, release as u8]);
            }
            Cas { cmp_old, new, addr, acq_rel } => {
                out.extend_from_slice(&[0x07, cmp_old.0, new.0, addr.0, acq_rel as u8]);
            }
            LdaddAl { old, addend, addr } => {
                out.extend_from_slice(&[0x08, old.0, addend.0, addr.0]);
            }
            Barrier(d) => out.extend_from_slice(&[0x09, d as u8]),
            Alu { op, dst, a, b } => out.extend_from_slice(&[0x0a, op as u8, dst.0, a.0, b.0]),
            AluImm { op, dst, a, imm } => {
                out.extend_from_slice(&[0x0b, op as u8, dst.0, a.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Cmp { a, b } => out.extend_from_slice(&[0x0c, a.0, b.0]),
            CmpImm { a, imm } => {
                out.extend_from_slice(&[0x0d, a.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Cset { dst, cond } => out.extend_from_slice(&[0x0e, dst.0, cond as u8]),
            Fp { op, dst, a, b } => out.extend_from_slice(&[0x0f, op as u8, dst.0, a.0, b.0]),
            BCond { cond, rel } => {
                out.extend_from_slice(&[0x10, cond as u8]);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            B { rel } => {
                out.push(0x11);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            // 0x12–0x15 are unassigned.
            Hcall { helper } => out.extend_from_slice(&[0x16, helper]),
            NativeCall { func } => {
                out.push(0x17);
                out.extend_from_slice(&func.to_le_bytes());
            }
            ExitTb(kind) => {
                out.push(0x18);
                match kind {
                    TbExitKind::Jump { guest_pc, chain } => {
                        out.push(0);
                        out.extend_from_slice(&guest_pc.to_le_bytes());
                        out.extend_from_slice(&chain.to_le_bytes());
                    }
                    TbExitKind::JumpReg { reg } => out.extend_from_slice(&[1, reg.0]),
                    TbExitKind::Halt => out.push(2),
                    TbExitKind::Syscall { next } => {
                        out.push(3);
                        out.extend_from_slice(&next.to_le_bytes());
                    }
                }
            }
            Hlt => out.push(0x19),
            Nop => out.push(0x1a),
        }
        out.len() - start
    }

    /// Decodes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a message for truncated or malformed encodings.
    pub fn decode(bytes: &[u8]) -> Result<(HostInsn, usize), String> {
        use HostInsn::*;
        fn xr(b: &[u8], i: usize) -> Result<Xreg, String> {
            let v = *b.get(i).ok_or("truncated")?;
            if (v as usize) < Xreg::COUNT {
                Ok(Xreg(v))
            } else {
                Err(format!("bad register {v}"))
            }
        }
        fn u64_at(b: &[u8], i: usize) -> Result<u64, String> {
            Ok(u64::from_le_bytes(b.get(i..i + 8).ok_or("truncated")?.try_into().unwrap()))
        }
        fn i32_at(b: &[u8], i: usize) -> Result<i32, String> {
            Ok(i32::from_le_bytes(b.get(i..i + 4).ok_or("truncated")?.try_into().unwrap()))
        }
        let op = *bytes.first().ok_or("empty")?;
        let insn = match op {
            0x01 => MovImm { dst: xr(bytes, 1)?, imm: u64_at(bytes, 2)? },
            0x02 => MovReg { dst: xr(bytes, 1)?, src: xr(bytes, 2)? },
            0x03 => Ldr {
                dst: xr(bytes, 1)?,
                base: xr(bytes, 2)?,
                order: MemOrder::from_u8(*bytes.get(3).ok_or("truncated")?).ok_or("bad order")?,
                off: i32_at(bytes, 4)?,
            },
            0x04 => Str {
                src: xr(bytes, 1)?,
                base: xr(bytes, 2)?,
                order: MemOrder::from_u8(*bytes.get(3).ok_or("truncated")?).ok_or("bad order")?,
                off: i32_at(bytes, 4)?,
            },
            0x05 => Ldxr {
                dst: xr(bytes, 1)?,
                addr: xr(bytes, 2)?,
                acquire: *bytes.get(3).ok_or("truncated")? != 0,
            },
            0x06 => Stxr {
                status: xr(bytes, 1)?,
                src: xr(bytes, 2)?,
                addr: xr(bytes, 3)?,
                release: *bytes.get(4).ok_or("truncated")? != 0,
            },
            0x07 => Cas {
                cmp_old: xr(bytes, 1)?,
                new: xr(bytes, 2)?,
                addr: xr(bytes, 3)?,
                acq_rel: *bytes.get(4).ok_or("truncated")? != 0,
            },
            0x08 => LdaddAl { old: xr(bytes, 1)?, addend: xr(bytes, 2)?, addr: xr(bytes, 3)? },
            0x09 => Barrier(Dmb::from_u8(*bytes.get(1).ok_or("truncated")?).ok_or("bad dmb")?),
            0x0a => Alu {
                op: AOp::from_u8(*bytes.get(1).ok_or("truncated")?).ok_or("bad op")?,
                dst: xr(bytes, 2)?,
                a: xr(bytes, 3)?,
                b: xr(bytes, 4)?,
            },
            0x0b => AluImm {
                op: AOp::from_u8(*bytes.get(1).ok_or("truncated")?).ok_or("bad op")?,
                dst: xr(bytes, 2)?,
                a: xr(bytes, 3)?,
                imm: u64_at(bytes, 4)?,
            },
            0x0c => Cmp { a: xr(bytes, 1)?, b: xr(bytes, 2)? },
            0x0d => CmpImm { a: xr(bytes, 1)?, imm: u64_at(bytes, 2)? },
            0x0e => Cset {
                dst: xr(bytes, 1)?,
                cond: ACond::from_u8(*bytes.get(2).ok_or("truncated")?).ok_or("bad cond")?,
            },
            0x0f => Fp {
                op: AFpOp::from_u8(*bytes.get(1).ok_or("truncated")?).ok_or("bad fp")?,
                dst: xr(bytes, 2)?,
                a: xr(bytes, 3)?,
                b: xr(bytes, 4)?,
            },
            0x10 => BCond {
                cond: ACond::from_u8(*bytes.get(1).ok_or("truncated")?).ok_or("bad cond")?,
                rel: i32_at(bytes, 2)?,
            },
            0x11 => B { rel: i32_at(bytes, 1)? },
            0x16 => Hcall { helper: *bytes.get(1).ok_or("truncated")? },
            0x17 => NativeCall {
                func: u16::from_le_bytes(bytes.get(1..3).ok_or("truncated")?.try_into().unwrap()),
            },
            0x18 => {
                let kind = *bytes.get(1).ok_or("truncated")?;
                match kind {
                    0 => ExitTb(TbExitKind::Jump {
                        guest_pc: u64_at(bytes, 2)?,
                        chain: u64_at(bytes, JUMP_CHAIN_OFFSET)?,
                    }),
                    1 => ExitTb(TbExitKind::JumpReg { reg: xr(bytes, 2)? }),
                    2 => ExitTb(TbExitKind::Halt),
                    3 => ExitTb(TbExitKind::Syscall { next: u64_at(bytes, 2)? }),
                    other => return Err(format!("bad exittb kind {other}")),
                }
            }
            0x19 => Hlt,
            0x1a => Nop,
            0x1b => LdrB { dst: xr(bytes, 1)?, base: xr(bytes, 2)?, off: i32_at(bytes, 3)? },
            0x1c => StrB { src: xr(bytes, 1)?, base: xr(bytes, 2)?, off: i32_at(bytes, 3)? },
            other => return Err(format!("unknown host opcode {other:#x}")),
        };
        let len = insn.encoded_len();
        if bytes.len() < len {
            return Err("truncated".into());
        }
        Ok((insn, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        use HostInsn::*;
        let x = Xreg;
        for i in [
            MovImm { dst: x(0), imm: u64::MAX },
            MovReg { dst: x(30), src: x(31) },
            Ldr { dst: x(1), base: x(2), off: -16, order: MemOrder::Plain },
            Ldr { dst: x(1), base: x(2), off: 0, order: MemOrder::AcqPc },
            Str { src: x(3), base: x(4), off: 8, order: MemOrder::AcqRel },
            LdrB { dst: x(2), base: x(3), off: 5 },
            StrB { src: x(2), base: x(3), off: -5 },
            Alu { op: AOp::Umulh, dst: x(0), a: x(1), b: x(2) },
            Ldxr { dst: x(5), addr: x(6), acquire: true },
            Stxr { status: x(7), src: x(8), addr: x(9), release: false },
            Cas { cmp_old: x(0), new: x(1), addr: x(2), acq_rel: true },
            LdaddAl { old: x(0), addend: x(1), addr: x(2) },
            Barrier(Dmb::Ld),
            Barrier(Dmb::Ff),
            Alu { op: AOp::Udiv, dst: x(0), a: x(1), b: x(2) },
            AluImm { op: AOp::Eor, dst: x(0), a: x(1), imm: 42 },
            Cmp { a: x(0), b: x(1) },
            CmpImm { a: x(0), imm: 7 },
            Cset { dst: x(0), cond: ACond::Hi },
            Fp { op: AFpOp::Sqrt, dst: x(0), a: x(1), b: x(2) },
            BCond { cond: ACond::Ne, rel: -40 },
            B { rel: 1000 },
            Hcall { helper: 3 },
            NativeCall { func: 258 },
            ExitTb(TbExitKind::Jump { guest_pc: 0xdead, chain: 0 }),
            ExitTb(TbExitKind::Jump { guest_pc: 0xdead, chain: 0x4000_1234 }),
            ExitTb(TbExitKind::JumpReg { reg: x(4) }),
            ExitTb(TbExitKind::Halt),
            ExitTb(TbExitKind::Syscall { next: 0x1234 }),
            Hlt,
            Nop,
        ] {
            let mut buf = Vec::new();
            let n = i.encode(&mut buf);
            let (d, len) = HostInsn::decode(&buf).unwrap();
            assert_eq!(d, i);
            assert_eq!(len, n);
            assert_eq!(i.encoded_len(), n, "length table disagrees with the encoder on {i:?}");
        }
    }

    #[test]
    fn jump_chain_word_is_at_the_documented_offset() {
        let mut buf = Vec::new();
        HostInsn::ExitTb(TbExitKind::Jump { guest_pc: 0xaabb, chain: 0x4000_0042 })
            .encode(&mut buf);
        assert_eq!(buf.len(), JUMP_CHAIN_OFFSET + 8);
        let word = u64::from_le_bytes(buf[JUMP_CHAIN_OFFSET..].try_into().unwrap());
        assert_eq!(word, 0x4000_0042);
        // Patching the word in place must round-trip through decode.
        buf[JUMP_CHAIN_OFFSET..].copy_from_slice(&0u64.to_le_bytes());
        let (d, _) = HostInsn::decode(&buf).unwrap();
        assert_eq!(d, HostInsn::ExitTb(TbExitKind::Jump { guest_pc: 0xaabb, chain: 0 }));
    }

    #[test]
    fn nzcv_cmp_semantics() {
        let f = Nzcv::from_cmp(5, 5);
        assert!(f.z && f.c);
        assert!(ACond::Eq.eval(f) && ACond::Hs.eval(f) && ACond::Ge.eval(f));
        let f = Nzcv::from_cmp(3, 5);
        assert!(!f.c, "borrow clears C on AArch64");
        assert!(ACond::Lo.eval(f) && ACond::Lt.eval(f));
        let f = Nzcv::from_cmp(u64::MAX, 1);
        assert!(ACond::Hi.eval(f), "unsigned: MAX > 1");
        assert!(ACond::Lt.eval(f), "signed: -1 < 1");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(HostInsn::decode(&[]).is_err());
        assert!(HostInsn::decode(&[0xff]).is_err());
        for unassigned in 0x12..=0x15 {
            assert!(HostInsn::decode(&[unassigned, 1, 0, 0, 0]).is_err());
        }
        assert!(HostInsn::decode(&[0x03, 1, 2]).is_err());
        assert!(HostInsn::decode(&[0x0a, 99, 0, 0, 0]).is_err());
    }

    #[test]
    fn udiv_matches_aarch64() {
        assert_eq!(AOp::Udiv.apply(10, 0), 0);
        assert_eq!(AOp::Urem.apply(10, 0), 10);
    }
}
