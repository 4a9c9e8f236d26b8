//! A two-pass label-resolving assembler for MiniX86.
//!
//! The workloads and guest libraries of the evaluation are written against
//! this assembler; it produces the raw `.text` bytes plus a symbol table,
//! which [`crate::gelf`] packages into a guest binary.

use crate::insn::{AluOp, FpOp, Insn, Operand};
use crate::regs::{Cond, Gpr};
use std::collections::HashMap;
use std::fmt;

/// An assembler item: either a concrete instruction or a control-flow
/// instruction whose target is a named label.
#[derive(Debug, Clone)]
enum Item {
    Insn(Insn),
    JccTo(Cond, String),
    JmpTo(String),
    CallTo(String),
    /// `mov dst, &label` — materializes a label's virtual address.
    MovLabel(Gpr, String),
}

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for AsmError {}

/// The MiniX86 assembler.
///
/// # Example
///
/// ```
/// use risotto_guest_x86::{Assembler, Gpr};
///
/// # fn main() -> Result<(), risotto_guest_x86::AsmError> {
/// let mut a = Assembler::new(0x10000);
/// a.label("loop");
/// a.alu_ri(risotto_guest_x86::AluOp::Sub, Gpr::RDI, 1);
/// a.cmp_ri(Gpr::RDI, 0);
/// a.jcc_to(risotto_guest_x86::Cond::Ne, "loop");
/// a.ret();
/// let (bytes, symbols) = a.finish()?;
/// assert_eq!(symbols["loop"], 0x10000);
/// assert!(!bytes.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Assembler {
    base: u64,
    items: Vec<Item>,
    /// label → item index
    labels: HashMap<String, usize>,
    errors: Vec<AsmError>,
}

impl Assembler {
    /// Creates an assembler whose output is loaded at virtual address
    /// `base`.
    pub fn new(base: u64) -> Assembler {
        Assembler { base, items: Vec::new(), labels: HashMap::new(), errors: Vec::new() }
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_owned(), self.items.len()).is_some() {
            self.errors.push(AsmError::DuplicateLabel(name.to_owned()));
        }
        self
    }

    /// Emits a raw instruction.
    pub fn insn(&mut self, i: Insn) -> &mut Self {
        self.items.push(Item::Insn(i));
        self
    }

    // --- ergonomic emitters ------------------------------------------

    /// `mov dst, imm`.
    pub fn mov_ri(&mut self, dst: Gpr, imm: u64) -> &mut Self {
        self.insn(Insn::MovRI { dst, imm })
    }

    /// `mov dst, src`.
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) -> &mut Self {
        self.insn(Insn::MovRR { dst, src })
    }

    /// `mov dst, &label`.
    pub fn mov_label(&mut self, dst: Gpr, label: &str) -> &mut Self {
        self.items.push(Item::MovLabel(dst, label.to_owned()));
        self
    }

    /// `mov dst, [base+disp]`.
    pub fn load(&mut self, dst: Gpr, base: Gpr, disp: i32) -> &mut Self {
        self.insn(Insn::Load { dst, base, disp })
    }

    /// `mov [base+disp], src`.
    pub fn store(&mut self, base: Gpr, disp: i32, src: Gpr) -> &mut Self {
        self.insn(Insn::Store { base, disp, src })
    }

    /// `movzx dst, byte [base+disp]`.
    pub fn load_b(&mut self, dst: Gpr, base: Gpr, disp: i32) -> &mut Self {
        self.insn(Insn::LoadB { dst, base, disp })
    }

    /// `mov byte [base+disp], src`.
    pub fn store_b(&mut self, base: Gpr, disp: i32, src: Gpr) -> &mut Self {
        self.insn(Insn::StoreB { base, disp, src })
    }

    /// `mul src` (RDX:RAX = RAX × src).
    pub fn mul_wide(&mut self, src: Gpr) -> &mut Self {
        self.insn(Insn::MulWide { src })
    }

    /// `lea dst, [base+disp]`.
    pub fn lea(&mut self, dst: Gpr, base: Gpr, disp: i32) -> &mut Self {
        self.insn(Insn::Lea { dst, base, disp })
    }

    /// `op dst, src`.
    pub fn alu_rr(&mut self, op: AluOp, dst: Gpr, src: Gpr) -> &mut Self {
        self.insn(Insn::Alu { op, dst, src: Operand::Reg(src) })
    }

    /// `op dst, imm`.
    pub fn alu_ri(&mut self, op: AluOp, dst: Gpr, imm: u64) -> &mut Self {
        self.insn(Insn::Alu { op, dst, src: Operand::Imm(imm) })
    }

    /// `div src` (RAX ÷= src, RDX = remainder).
    pub fn div(&mut self, src: Gpr) -> &mut Self {
        self.insn(Insn::Div { src })
    }

    /// Floating-point `op dst, src`.
    pub fn fp(&mut self, op: FpOp, dst: Gpr, src: Gpr) -> &mut Self {
        self.insn(Insn::Fp { op, dst, src })
    }

    /// `cmp a, b`.
    pub fn cmp_rr(&mut self, a: Gpr, b: Gpr) -> &mut Self {
        self.insn(Insn::Cmp { a, b: Operand::Reg(b) })
    }

    /// `cmp a, imm`.
    pub fn cmp_ri(&mut self, a: Gpr, imm: u64) -> &mut Self {
        self.insn(Insn::Cmp { a, b: Operand::Imm(imm) })
    }

    /// `test a, b`.
    pub fn test_rr(&mut self, a: Gpr, b: Gpr) -> &mut Self {
        self.insn(Insn::Test { a, b: Operand::Reg(b) })
    }

    /// Conditional jump to a label.
    pub fn jcc_to(&mut self, cond: Cond, label: &str) -> &mut Self {
        self.items.push(Item::JccTo(cond, label.to_owned()));
        self
    }

    /// Unconditional jump to a label.
    pub fn jmp_to(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::JmpTo(label.to_owned()));
        self
    }

    /// Call a label.
    pub fn call_to(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::CallTo(label.to_owned()));
        self
    }

    /// `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.insn(Insn::Ret)
    }

    /// `push src`.
    pub fn push(&mut self, src: Gpr) -> &mut Self {
        self.insn(Insn::Push { src })
    }

    /// `pop dst`.
    pub fn pop(&mut self, dst: Gpr) -> &mut Self {
        self.insn(Insn::Pop { dst })
    }

    /// `lock cmpxchg [base+disp], src`.
    pub fn cmpxchg(&mut self, base: Gpr, disp: i32, src: Gpr) -> &mut Self {
        self.insn(Insn::LockCmpxchg { base, disp, src })
    }

    /// `lock xadd [base+disp], src`.
    pub fn xadd(&mut self, base: Gpr, disp: i32, src: Gpr) -> &mut Self {
        self.insn(Insn::LockXadd { base, disp, src })
    }

    /// `mfence`.
    pub fn mfence(&mut self) -> &mut Self {
        self.insn(Insn::Mfence)
    }

    /// `hlt`.
    pub fn hlt(&mut self) -> &mut Self {
        self.insn(Insn::Hlt)
    }

    /// `syscall`.
    pub fn syscall(&mut self) -> &mut Self {
        self.insn(Insn::Syscall)
    }

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.insn(Insn::Nop)
    }

    /// Current number of items (for size heuristics in tests).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Assembles into `(text bytes, symbol table of label → vaddr)`.
    ///
    /// # Errors
    ///
    /// Returns the first [`AsmError`] encountered (duplicate or undefined
    /// labels).
    pub fn finish(self) -> Result<(Vec<u8>, HashMap<String, u64>), AsmError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // Pass 1: item sizes (label-targeting items have fixed sizes).
        let sizes: Vec<usize> = self
            .items
            .iter()
            .map(|it| match it {
                Item::Insn(i) => i.encoded_len(),
                Item::JccTo(..) => Insn::Jcc { cond: Cond::E, rel: 0 }.encoded_len(),
                Item::JmpTo(_) => Insn::Jmp { rel: 0 }.encoded_len(),
                Item::CallTo(_) => Insn::Call { rel: 0 }.encoded_len(),
                Item::MovLabel(r, _) => Insn::MovRI { dst: *r, imm: 0 }.encoded_len(),
            })
            .collect();
        let mut offsets = Vec::with_capacity(self.items.len() + 1);
        let mut off = 0usize;
        for s in &sizes {
            offsets.push(off);
            off += s;
        }
        offsets.push(off);
        let label_vaddr = |name: &str| -> Result<u64, AsmError> {
            let idx =
                *self.labels.get(name).ok_or_else(|| AsmError::UndefinedLabel(name.to_owned()))?;
            Ok(self.base + offsets[idx] as u64)
        };
        // Pass 2: encode with resolved relatives.
        let mut out = Vec::with_capacity(off);
        for (idx, it) in self.items.iter().enumerate() {
            let next = self.base + offsets[idx + 1] as u64;
            match it {
                Item::Insn(i) => {
                    i.encode(&mut out);
                }
                Item::JccTo(c, l) => {
                    let rel = label_vaddr(l)? as i64 - next as i64;
                    Insn::Jcc { cond: *c, rel: rel as i32 }.encode(&mut out);
                }
                Item::JmpTo(l) => {
                    let rel = label_vaddr(l)? as i64 - next as i64;
                    Insn::Jmp { rel: rel as i32 }.encode(&mut out);
                }
                Item::CallTo(l) => {
                    let rel = label_vaddr(l)? as i64 - next as i64;
                    Insn::Call { rel: rel as i32 }.encode(&mut out);
                }
                Item::MovLabel(r, l) => {
                    Insn::MovRI { dst: *r, imm: label_vaddr(l)? }.encode(&mut out);
                }
            }
        }
        let symbols = self
            .labels
            .iter()
            .map(|(name, &idx)| (name.clone(), self.base + offsets[idx] as u64))
            .collect();
        Ok((out, symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new(0x1000);
        a.mov_ri(Gpr::RCX, 3);
        a.label("loop");
        a.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        a.cmp_ri(Gpr::RCX, 0);
        a.jcc_to(Cond::Ne, "loop");
        a.jmp_to("end");
        a.nop(); // skipped
        a.label("end");
        a.ret();
        let (bytes, syms) = a.finish().unwrap();
        // Decode the whole stream and re-find the loop target.
        let mut pc = 0x1000u64;
        let mut i = 0usize;
        let mut decoded = Vec::new();
        while i < bytes.len() {
            let (insn, n) = Insn::decode(&bytes[i..]).unwrap();
            decoded.push((pc, insn, n));
            pc += n as u64;
            i += n;
        }
        let (jcc_pc, jcc, jcc_len) =
            decoded.iter().find(|(_, i, _)| matches!(i, Insn::Jcc { .. })).copied().unwrap();
        if let Insn::Jcc { rel, .. } = jcc {
            assert_eq!((jcc_pc + jcc_len as u64).wrapping_add(rel as i64 as u64), syms["loop"]);
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.jmp_to("nowhere");
        assert_eq!(a.finish().unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        a.ret();
        assert_eq!(a.finish().unwrap_err(), AsmError::DuplicateLabel("x".into()));
    }

    #[test]
    fn mov_label_materializes_vaddr() {
        let mut a = Assembler::new(0x2000);
        a.mov_label(Gpr::RAX, "target");
        a.ret();
        a.label("target");
        a.hlt();
        let (bytes, syms) = a.finish().unwrap();
        let (insn, _) = Insn::decode(&bytes).unwrap();
        assert_eq!(insn, Insn::MovRI { dst: Gpr::RAX, imm: syms["target"] });
    }
}
