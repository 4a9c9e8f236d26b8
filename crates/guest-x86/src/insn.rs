//! MiniX86 instructions and their binary encoding.
//!
//! MiniX86 is the strongly-ordered guest ISA of this reproduction: a
//! compact x86-64 stand-in with the same memory-model-relevant primitive
//! set as the paper's Fig. 1 — plain loads/stores (`RMOV`/`WMOV`),
//! `LOCK CMPXCHG` / `LOCK XADD` RMWs, and `MFENCE` — plus the ALU, branch,
//! call/stack and (bit-pattern) floating-point operations the evaluation
//! workloads need. Instructions encode to a variable-length byte stream
//! (opcode byte + operand bytes); the DBT's frontend decodes this stream,
//! never the `Insn` enum directly.

use crate::regs::{Cond, Gpr};
use std::fmt;

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Bitwise and.
    And = 2,
    /// Bitwise or.
    Or = 3,
    /// Bitwise xor.
    Xor = 4,
    /// Logical shift left (count masked to 63).
    Shl = 5,
    /// Logical shift right.
    Shr = 6,
    /// Arithmetic shift right.
    Sar = 7,
    /// Low 64 bits of the product.
    Mul = 8,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
        }
    }

    fn from_u8(v: u8) -> Option<AluOp> {
        Some(match v {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::And,
            3 => AluOp::Or,
            4 => AluOp::Xor,
            5 => AluOp::Shl,
            6 => AluOp::Shr,
            7 => AluOp::Sar,
            8 => AluOp::Mul,
            _ => return None,
        })
    }
}

/// Floating-point operations on f64 bit patterns held in GPRs.
///
/// Real x86 uses SSE registers; MiniX86 keeps f64 values as bit patterns
/// in the integer file (a documented ABI simplification). Like QEMU, the
/// DBT lowers these to soft-float helper calls on the host; native runs
/// use hardware FP — reproducing the paper's §7.3 floating-point story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpOp {
    /// f64 addition.
    Add = 0,
    /// f64 subtraction.
    Sub = 1,
    /// f64 multiplication.
    Mul = 2,
    /// f64 division.
    Div = 3,
    /// f64 square root of the source operand (unary).
    Sqrt = 4,
    /// Convert signed integer to f64.
    CvtIF = 5,
    /// Convert f64 to signed integer (truncating).
    CvtFI = 6,
}

impl FpOp {
    /// Applies the operation to bit-pattern operands, with the
    /// deterministic NaN discipline of [`crate::softfloat`] — every
    /// layer of the pipeline (interpreter, TCG evaluator, host helpers,
    /// hardware FP) must produce these exact bits.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        use crate::softfloat as sf;
        match self {
            FpOp::Add => sf::add(a, b),
            FpOp::Sub => sf::sub(a, b),
            FpOp::Mul => sf::mul(a, b),
            FpOp::Div => sf::div(a, b),
            FpOp::Sqrt => sf::sqrt(b),
            FpOp::CvtIF => sf::cvt_if(b),
            FpOp::CvtFI => sf::cvt_fi(b),
        }
    }

    fn from_u8(v: u8) -> Option<FpOp> {
        Some(match v {
            0 => FpOp::Add,
            1 => FpOp::Sub,
            2 => FpOp::Mul,
            3 => FpOp::Div,
            4 => FpOp::Sqrt,
            5 => FpOp::CvtIF,
            6 => FpOp::CvtFI,
            _ => return None,
        })
    }
}

/// A register-or-immediate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Gpr),
    /// 64-bit immediate.
    Imm(u64),
}

/// A MiniX86 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `mov dst, imm64`.
    MovRI {
        /// Destination.
        dst: Gpr,
        /// Immediate.
        imm: u64,
    },
    /// `mov dst, src`.
    MovRR {
        /// Destination.
        dst: Gpr,
        /// Source.
        src: Gpr,
    },
    /// `mov dst, [base + disp]` — the paper's `RMOV`.
    Load {
        /// Destination.
        dst: Gpr,
        /// Base address register.
        base: Gpr,
        /// Signed displacement.
        disp: i32,
    },
    /// `movzx dst, byte [base + disp]` — byte load, zero-extended.
    LoadB {
        /// Destination.
        dst: Gpr,
        /// Base address register.
        base: Gpr,
        /// Signed displacement.
        disp: i32,
    },
    /// `mov byte [base + disp], src` — byte store (low 8 bits of `src`).
    StoreB {
        /// Base address register.
        base: Gpr,
        /// Signed displacement.
        disp: i32,
        /// Source.
        src: Gpr,
    },
    /// Widening multiply (x86 `MUL src`): `RDX:RAX = RAX × src`.
    MulWide {
        /// Multiplier.
        src: Gpr,
    },
    /// `mov [base + disp], src` — the paper's `WMOV`.
    Store {
        /// Base address register.
        base: Gpr,
        /// Signed displacement.
        disp: i32,
        /// Source.
        src: Gpr,
    },
    /// `lea dst, [base + disp]`.
    Lea {
        /// Destination.
        dst: Gpr,
        /// Base.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// `op dst, src` (dst = dst op src); sets flags.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination and left operand.
        dst: Gpr,
        /// Right operand.
        src: Operand,
    },
    /// Unsigned division: `RAX = RAX / src`, `RDX = RAX % src`.
    Div {
        /// Divisor.
        src: Gpr,
    },
    /// Floating point: `dst = dst op src` (f64 bit patterns).
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination (and left operand for binary ops).
        dst: Gpr,
        /// Right operand.
        src: Gpr,
    },
    /// `cmp a, b`: sets flags from `a - b`.
    Cmp {
        /// Left operand.
        a: Gpr,
        /// Right operand.
        b: Operand,
    },
    /// `test a, b`: sets flags from `a & b`.
    Test {
        /// Left operand.
        a: Gpr,
        /// Right operand.
        b: Operand,
    },
    /// Conditional branch; `rel` is relative to the *next* instruction.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Relative target.
        rel: i32,
    },
    /// Unconditional branch.
    Jmp {
        /// Relative target.
        rel: i32,
    },
    /// Indirect branch through a register.
    JmpReg {
        /// Target address register.
        reg: Gpr,
    },
    /// Call; pushes the return address.
    Call {
        /// Relative target.
        rel: i32,
    },
    /// Indirect call through a register.
    CallReg {
        /// Target address register.
        reg: Gpr,
    },
    /// Return (pops the return address).
    Ret,
    /// `push src`.
    Push {
        /// Source.
        src: Gpr,
    },
    /// `pop dst`.
    Pop {
        /// Destination.
        dst: Gpr,
    },
    /// `lock cmpxchg [base + disp], src`: if `RAX == [m]` then `[m] = src`,
    /// `ZF = 1`; else `RAX = [m]`, `ZF = 0`. A full fence either way.
    LockCmpxchg {
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
        /// Value to swap in.
        src: Gpr,
    },
    /// `lock xadd [base + disp], src`: atomically `tmp = [m]; [m] += src;
    /// src = tmp`. A full fence.
    LockXadd {
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
        /// Addend in, old value out.
        src: Gpr,
    },
    /// `mfence`.
    Mfence,
    /// No operation.
    Nop,
    /// Stops the executing thread.
    Hlt,
    /// Virtual system call: number in `RAX`, args in `RDI`/`RSI`/`RDX`,
    /// result in `RAX`. Executed natively by the DBT (user mode, §2.2).
    Syscall,
}

/// Errors from [`Insn::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended inside an instruction.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Invalid operand field.
    BadOperand {
        /// The opcode whose operand was invalid.
        opcode: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated instruction"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadOperand { opcode } => {
                write!(f, "invalid operand for opcode {opcode:#04x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// Opcode space.
const OP_MOV_RI: u8 = 0x01;
const OP_MOV_RR: u8 = 0x02;
const OP_LOAD: u8 = 0x03;
const OP_STORE: u8 = 0x04;
const OP_LEA: u8 = 0x05;
const OP_ALU_RR: u8 = 0x06;
const OP_ALU_RI: u8 = 0x07;
const OP_DIV: u8 = 0x08;
const OP_FP: u8 = 0x09;
const OP_CMP_RR: u8 = 0x0a;
const OP_CMP_RI: u8 = 0x0b;
const OP_TEST_RR: u8 = 0x0c;
const OP_TEST_RI: u8 = 0x0d;
const OP_JCC: u8 = 0x0e;
const OP_JMP: u8 = 0x0f;
const OP_JMP_REG: u8 = 0x10;
const OP_CALL: u8 = 0x11;
const OP_CALL_REG: u8 = 0x12;
const OP_RET: u8 = 0x13;
const OP_PUSH: u8 = 0x14;
const OP_POP: u8 = 0x15;
const OP_CMPXCHG: u8 = 0x16;
const OP_XADD: u8 = 0x17;
const OP_MFENCE: u8 = 0x18;
const OP_NOP: u8 = 0x19;
const OP_HLT: u8 = 0x1a;
const OP_SYSCALL: u8 = 0x1b;
const OP_LOADB: u8 = 0x1c;
const OP_STOREB: u8 = 0x1d;
const OP_MULWIDE: u8 = 0x1e;

impl Insn {
    /// Appends the encoding of `self` to `out`; returns the encoded length.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        match *self {
            Insn::MovRI { dst, imm } => {
                out.push(OP_MOV_RI);
                out.push(dst.0);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Insn::MovRR { dst, src } => {
                out.extend_from_slice(&[OP_MOV_RR, dst.0, src.0]);
            }
            Insn::Load { dst, base, disp } => {
                out.extend_from_slice(&[OP_LOAD, dst.0, base.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::Store { base, disp, src } => {
                out.extend_from_slice(&[OP_STORE, base.0, src.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::LoadB { dst, base, disp } => {
                out.extend_from_slice(&[OP_LOADB, dst.0, base.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::StoreB { base, disp, src } => {
                out.extend_from_slice(&[OP_STOREB, base.0, src.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::MulWide { src } => out.extend_from_slice(&[OP_MULWIDE, src.0]),
            Insn::Lea { dst, base, disp } => {
                out.extend_from_slice(&[OP_LEA, dst.0, base.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::Alu { op, dst, src: Operand::Reg(s) } => {
                out.extend_from_slice(&[OP_ALU_RR, op as u8, dst.0, s.0]);
            }
            Insn::Alu { op, dst, src: Operand::Imm(i) } => {
                out.extend_from_slice(&[OP_ALU_RI, op as u8, dst.0]);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Insn::Div { src } => out.extend_from_slice(&[OP_DIV, src.0]),
            Insn::Fp { op, dst, src } => {
                out.extend_from_slice(&[OP_FP, op as u8, dst.0, src.0]);
            }
            Insn::Cmp { a, b: Operand::Reg(r) } => {
                out.extend_from_slice(&[OP_CMP_RR, a.0, r.0]);
            }
            Insn::Cmp { a, b: Operand::Imm(i) } => {
                out.extend_from_slice(&[OP_CMP_RI, a.0]);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Insn::Test { a, b: Operand::Reg(r) } => {
                out.extend_from_slice(&[OP_TEST_RR, a.0, r.0]);
            }
            Insn::Test { a, b: Operand::Imm(i) } => {
                out.extend_from_slice(&[OP_TEST_RI, a.0]);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Insn::Jcc { cond, rel } => {
                out.extend_from_slice(&[OP_JCC, cond as u8]);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Insn::Jmp { rel } => {
                out.push(OP_JMP);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Insn::JmpReg { reg } => out.extend_from_slice(&[OP_JMP_REG, reg.0]),
            Insn::Call { rel } => {
                out.push(OP_CALL);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Insn::CallReg { reg } => out.extend_from_slice(&[OP_CALL_REG, reg.0]),
            Insn::Ret => out.push(OP_RET),
            Insn::Push { src } => out.extend_from_slice(&[OP_PUSH, src.0]),
            Insn::Pop { dst } => out.extend_from_slice(&[OP_POP, dst.0]),
            Insn::LockCmpxchg { base, disp, src } => {
                out.extend_from_slice(&[OP_CMPXCHG, base.0, src.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::LockXadd { base, disp, src } => {
                out.extend_from_slice(&[OP_XADD, base.0, src.0]);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Insn::Mfence => out.push(OP_MFENCE),
            Insn::Nop => out.push(OP_NOP),
            Insn::Hlt => out.push(OP_HLT),
            Insn::Syscall => out.push(OP_SYSCALL),
        }
        out.len() - start
    }

    /// Bytes [`encode`](Self::encode) appends for this instruction — the
    /// encoding's length table, for sizing code without producing it.
    pub fn encoded_len(&self) -> usize {
        use Insn::*;
        match self {
            Ret | Mfence | Nop | Hlt | Syscall => 1,
            MulWide { .. }
            | Div { .. }
            | JmpReg { .. }
            | CallReg { .. }
            | Push { .. }
            | Pop { .. } => 2,
            MovRR { .. } | Cmp { b: Operand::Reg(_), .. } | Test { b: Operand::Reg(_), .. } => 3,
            Alu { src: Operand::Reg(_), .. } | Fp { .. } => 4,
            Jmp { .. } | Call { .. } => 5,
            Jcc { .. } => 6,
            Load { .. }
            | Store { .. }
            | LoadB { .. }
            | StoreB { .. }
            | Lea { .. }
            | LockCmpxchg { .. }
            | LockXadd { .. } => 7,
            MovRI { .. } | Cmp { b: Operand::Imm(_), .. } | Test { b: Operand::Imm(_), .. } => 10,
            Alu { src: Operand::Imm(_), .. } => 11,
        }
    }

    /// Decodes one instruction from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, unknown opcodes, or invalid
    /// operand fields.
    pub fn decode(bytes: &[u8]) -> Result<(Insn, usize), DecodeError> {
        fn reg(bytes: &[u8], i: usize, opcode: u8) -> Result<Gpr, DecodeError> {
            let b = *bytes.get(i).ok_or(DecodeError::Truncated)?;
            if (b as usize) < Gpr::COUNT {
                Ok(Gpr(b))
            } else {
                Err(DecodeError::BadOperand { opcode })
            }
        }
        fn imm64(bytes: &[u8], i: usize) -> Result<u64, DecodeError> {
            let s = bytes.get(i..i + 8).ok_or(DecodeError::Truncated)?;
            Ok(u64::from_le_bytes(s.try_into().unwrap()))
        }
        fn imm32(bytes: &[u8], i: usize) -> Result<i32, DecodeError> {
            let s = bytes.get(i..i + 4).ok_or(DecodeError::Truncated)?;
            Ok(i32::from_le_bytes(s.try_into().unwrap()))
        }

        let op = *bytes.first().ok_or(DecodeError::Truncated)?;
        let insn = match op {
            OP_MOV_RI => Insn::MovRI { dst: reg(bytes, 1, op)?, imm: imm64(bytes, 2)? },
            OP_MOV_RR => Insn::MovRR { dst: reg(bytes, 1, op)?, src: reg(bytes, 2, op)? },
            OP_LOAD => Insn::Load {
                dst: reg(bytes, 1, op)?,
                base: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_STORE => Insn::Store {
                base: reg(bytes, 1, op)?,
                src: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_LEA => Insn::Lea {
                dst: reg(bytes, 1, op)?,
                base: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_ALU_RR => {
                let o = AluOp::from_u8(*bytes.get(1).ok_or(DecodeError::Truncated)?)
                    .ok_or(DecodeError::BadOperand { opcode: op })?;
                Insn::Alu { op: o, dst: reg(bytes, 2, op)?, src: Operand::Reg(reg(bytes, 3, op)?) }
            }
            OP_ALU_RI => {
                let o = AluOp::from_u8(*bytes.get(1).ok_or(DecodeError::Truncated)?)
                    .ok_or(DecodeError::BadOperand { opcode: op })?;
                Insn::Alu { op: o, dst: reg(bytes, 2, op)?, src: Operand::Imm(imm64(bytes, 3)?) }
            }
            OP_DIV => Insn::Div { src: reg(bytes, 1, op)? },
            OP_FP => {
                let o = FpOp::from_u8(*bytes.get(1).ok_or(DecodeError::Truncated)?)
                    .ok_or(DecodeError::BadOperand { opcode: op })?;
                Insn::Fp { op: o, dst: reg(bytes, 2, op)?, src: reg(bytes, 3, op)? }
            }
            OP_CMP_RR => Insn::Cmp { a: reg(bytes, 1, op)?, b: Operand::Reg(reg(bytes, 2, op)?) },
            OP_CMP_RI => Insn::Cmp { a: reg(bytes, 1, op)?, b: Operand::Imm(imm64(bytes, 2)?) },
            OP_TEST_RR => Insn::Test { a: reg(bytes, 1, op)?, b: Operand::Reg(reg(bytes, 2, op)?) },
            OP_TEST_RI => Insn::Test { a: reg(bytes, 1, op)?, b: Operand::Imm(imm64(bytes, 2)?) },
            OP_JCC => {
                let c = Cond::from_u8(*bytes.get(1).ok_or(DecodeError::Truncated)?)
                    .ok_or(DecodeError::BadOperand { opcode: op })?;
                Insn::Jcc { cond: c, rel: imm32(bytes, 2)? }
            }
            OP_JMP => Insn::Jmp { rel: imm32(bytes, 1)? },
            OP_JMP_REG => Insn::JmpReg { reg: reg(bytes, 1, op)? },
            OP_CALL => Insn::Call { rel: imm32(bytes, 1)? },
            OP_CALL_REG => Insn::CallReg { reg: reg(bytes, 1, op)? },
            OP_RET => Insn::Ret,
            OP_PUSH => Insn::Push { src: reg(bytes, 1, op)? },
            OP_POP => Insn::Pop { dst: reg(bytes, 1, op)? },
            OP_CMPXCHG => Insn::LockCmpxchg {
                base: reg(bytes, 1, op)?,
                src: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_XADD => Insn::LockXadd {
                base: reg(bytes, 1, op)?,
                src: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_LOADB => Insn::LoadB {
                dst: reg(bytes, 1, op)?,
                base: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_STOREB => Insn::StoreB {
                base: reg(bytes, 1, op)?,
                src: reg(bytes, 2, op)?,
                disp: imm32(bytes, 3)?,
            },
            OP_MULWIDE => Insn::MulWide { src: reg(bytes, 1, op)? },
            OP_MFENCE => Insn::Mfence,
            OP_NOP => Insn::Nop,
            OP_HLT => Insn::Hlt,
            OP_SYSCALL => Insn::Syscall,
            other => return Err(DecodeError::BadOpcode(other)),
        };
        let len = insn.encoded_len();
        if bytes.len() < len {
            return Err(DecodeError::Truncated);
        }
        Ok((insn, len))
    }

    /// `true` if the instruction ends a basic block (branch, call, return,
    /// halt or syscall).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Jcc { .. }
                | Insn::Jmp { .. }
                | Insn::JmpReg { .. }
                | Insn::Call { .. }
                | Insn::CallReg { .. }
                | Insn::Ret
                | Insn::Hlt
                | Insn::Syscall
        )
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn op(o: &Operand) -> String {
            match o {
                Operand::Reg(r) => r.to_string(),
                Operand::Imm(i) => format!("{i:#x}"),
            }
        }
        match self {
            Insn::MovRI { dst, imm } => write!(f, "mov   {dst}, {imm:#x}"),
            Insn::MovRR { dst, src } => write!(f, "mov   {dst}, {src}"),
            Insn::Load { dst, base, disp } => write!(f, "mov   {dst}, [{base}{disp:+}]"),
            Insn::Store { base, disp, src } => write!(f, "mov   [{base}{disp:+}], {src}"),
            Insn::LoadB { dst, base, disp } => write!(f, "movzx {dst}, byte [{base}{disp:+}]"),
            Insn::StoreB { base, disp, src } => write!(f, "mov   byte [{base}{disp:+}], {src}"),
            Insn::MulWide { src } => write!(f, "mul   {src}"),
            Insn::Lea { dst, base, disp } => write!(f, "lea   {dst}, [{base}{disp:+}]"),
            Insn::Alu { op: o, dst, src } => {
                let name = format!("{o:?}").to_lowercase();
                write!(f, "{name:<5} {dst}, {}", op(src))
            }
            Insn::Div { src } => write!(f, "div   {src}"),
            Insn::Fp { op: o, dst, src } => {
                let name = format!("f{:?}", o).to_lowercase();
                write!(f, "{name:<5} {dst}, {src}")
            }
            Insn::Cmp { a, b } => write!(f, "cmp   {a}, {}", op(b)),
            Insn::Test { a, b } => write!(f, "test  {a}, {}", op(b)),
            Insn::Jcc { cond, rel } => {
                write!(f, "j{:<4} {rel:+}", format!("{cond:?}").to_lowercase())
            }
            Insn::Jmp { rel } => write!(f, "jmp   {rel:+}"),
            Insn::JmpReg { reg } => write!(f, "jmp   {reg}"),
            Insn::Call { rel } => write!(f, "call  {rel:+}"),
            Insn::CallReg { reg } => write!(f, "call  {reg}"),
            Insn::Ret => write!(f, "ret"),
            Insn::Push { src } => write!(f, "push  {src}"),
            Insn::Pop { dst } => write!(f, "pop   {dst}"),
            Insn::LockCmpxchg { base, disp, src } => {
                write!(f, "lock cmpxchg [{base}{disp:+}], {src}")
            }
            Insn::LockXadd { base, disp, src } => write!(f, "lock xadd [{base}{disp:+}], {src}"),
            Insn::Mfence => write!(f, "mfence"),
            Insn::Nop => write!(f, "nop"),
            Insn::Hlt => write!(f, "hlt"),
            Insn::Syscall => write!(f, "syscall"),
        }
    }
}

/// Disassembles a byte stream starting at virtual address `base`.
///
/// Stops at the first undecodable byte; returns `(vaddr, insn, len)`
/// triples.
pub fn disassemble(bytes: &[u8], base: u64) -> Vec<(u64, Insn, usize)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        match Insn::decode(&bytes[off..]) {
            Ok((insn, len)) => {
                out.push((base + off as u64, insn, len));
                off += len;
            }
            Err(_) => break,
        }
    }
    out
}

/// Virtual syscall numbers (see [`Insn::Syscall`]).
pub mod syscalls {
    /// Terminate the calling thread; `RDI` = exit value.
    pub const EXIT: u64 = 0;
    /// Write bytes: `RDI` = fd, `RSI` = buffer vaddr, `RDX` = length.
    pub const WRITE: u64 = 1;
    /// Longest `WRITE` the virtual OS accepts. The length is a guest
    /// register; every layer rejects a longer one as a bad syscall
    /// before allocating for it.
    pub const WRITE_MAX: u64 = 1 << 20;
    /// Spawn a thread: `RDI` = entry vaddr, `RSI` = argument, returns tid.
    pub const SPAWN: u64 = 2;
    /// Join a thread: `RDI` = tid; returns its exit value.
    pub const JOIN: u64 = 3;
    /// Current thread id.
    pub const GETTID: u64 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Insn) {
        let mut buf = Vec::new();
        let n = i.encode(&mut buf);
        assert_eq!(n, buf.len());
        let (d, len) = Insn::decode(&buf).unwrap();
        assert_eq!(d, i);
        assert_eq!(len, n);
        assert_eq!(i.encoded_len(), n);
    }

    #[test]
    fn encode_decode_roundtrip_all_shapes() {
        use Gpr as G;
        for i in [
            Insn::MovRI { dst: G::RAX, imm: u64::MAX },
            Insn::MovRR { dst: G::R8, src: G::RSP },
            Insn::Load { dst: G::RBX, base: G::RDI, disp: -8 },
            Insn::Store { base: G::RSI, disp: 1 << 20, src: G::R15 },
            Insn::Lea { dst: G::RAX, base: G::RSP, disp: 16 },
            Insn::Alu { op: AluOp::Add, dst: G::RCX, src: Operand::Reg(G::RDX) },
            Insn::Alu { op: AluOp::Mul, dst: G::RCX, src: Operand::Imm(42) },
            Insn::Div { src: G::R9 },
            Insn::Fp { op: FpOp::Mul, dst: G::RAX, src: G::RBX },
            Insn::Cmp { a: G::RAX, b: Operand::Imm(7) },
            Insn::Cmp { a: G::RAX, b: Operand::Reg(G::RBX) },
            Insn::Test { a: G::RDI, b: Operand::Reg(G::RDI) },
            Insn::Test { a: G::RDI, b: Operand::Imm(1) },
            Insn::Jcc { cond: Cond::Ne, rel: -100 },
            Insn::Jmp { rel: 1234 },
            Insn::JmpReg { reg: G::R11 },
            Insn::Call { rel: -5 },
            Insn::CallReg { reg: G::RAX },
            Insn::Ret,
            Insn::Push { src: G::RBP },
            Insn::Pop { dst: G::RBP },
            Insn::LoadB { dst: G::RAX, base: G::RSI, disp: 3 },
            Insn::StoreB { base: G::RSI, disp: -1, src: G::RAX },
            Insn::MulWide { src: G::RBX },
            Insn::LockCmpxchg { base: G::RDI, disp: 0, src: G::RSI },
            Insn::LockXadd { base: G::RDI, disp: 8, src: G::RAX },
            Insn::Mfence,
            Insn::Nop,
            Insn::Hlt,
            Insn::Syscall,
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Insn::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Insn::decode(&[0xff]), Err(DecodeError::BadOpcode(0xff)));
        assert_eq!(Insn::decode(&[OP_MOV_RI, 0]), Err(DecodeError::Truncated));
        assert!(matches!(Insn::decode(&[OP_MOV_RR, 99, 0]), Err(DecodeError::BadOperand { .. })));
        assert!(matches!(
            Insn::decode(&[OP_ALU_RR, 200, 0, 0]),
            Err(DecodeError::BadOperand { .. })
        ));
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Shl.apply(1, 65), 2, "shift count masked");
        assert_eq!(AluOp::Sar.apply(u64::MAX, 5), u64::MAX);
        assert_eq!(AluOp::Shr.apply(u64::MAX, 63), 1);
        assert_eq!(AluOp::Mul.apply(1 << 32, 1 << 32), 0);
    }

    #[test]
    fn fp_semantics_via_bit_patterns() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Add.apply(a, b)), 3.5);
        assert_eq!(f64::from_bits(FpOp::Sqrt.apply(0, 16.0f64.to_bits())), 4.0);
        assert_eq!(FpOp::CvtFI.apply(0, 3.99f64.to_bits()), 3);
        assert_eq!(f64::from_bits(FpOp::CvtIF.apply(0, (-2i64) as u64)), -2.0);
    }

    #[test]
    fn terminators() {
        assert!(Insn::Ret.is_terminator());
        assert!(Insn::Hlt.is_terminator());
        assert!(Insn::Jcc { cond: Cond::E, rel: 0 }.is_terminator());
        assert!(!Insn::Mfence.is_terminator());
        assert!(!Insn::Nop.is_terminator());
    }
}
