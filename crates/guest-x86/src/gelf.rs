//! GELF — the guest executable format.
//!
//! GELF is a deliberately small stand-in for ELF that keeps exactly the
//! mechanics Risotto's dynamic host linker needs (§6.2): a `.text`
//! section, a `.data` section, and a `.dynsym`-like import table whose
//! entries point at PLT stubs inside `.text`. When the program is run
//! without host linking, each PLT stub simply jumps to the guest library
//! implementation (which the DBT translates); with host linking, the DBT
//! intercepts translation at the PLT address and calls the native host
//! function instead.

use crate::asm::{AsmError, Assembler};
use crate::regs::Gpr;
use std::collections::HashMap;

/// Load address of `.text`.
pub const TEXT_BASE: u64 = 0x0001_0000;
/// Load address of `.data`.
pub const DATA_BASE: u64 = 0x0040_0000;
/// Start of the guest heap.
pub const HEAP_BASE: u64 = 0x0080_0000;
/// Top of thread 0's stack; thread `i` gets `STACK_TOP - i * STACK_SIZE`.
pub const STACK_TOP: u64 = 0x07F0_0000;
/// Per-thread stack size.
pub const STACK_SIZE: u64 = 0x0002_0000;

/// An imported dynamic symbol: the name the IDL refers to, and the virtual
/// address of its PLT stub in `.text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynSym {
    /// Function name (e.g. `"sin"`).
    pub name: String,
    /// Address of the PLT entry.
    pub plt_vaddr: u64,
}

/// A guest binary, as [`GelfBuilder::finish`] builds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestBinary {
    /// Entry point virtual address.
    pub entry: u64,
    /// `.text` bytes, loaded at [`TEXT_BASE`].
    pub text: Vec<u8>,
    /// `.data` bytes, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Imported symbols.
    pub dynsyms: Vec<DynSym>,
    /// Defined symbols (label → vaddr), for debugging and tests.
    pub symbols: HashMap<String, u64>,
}

impl GuestBinary {
    /// Looks up a defined symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// The 16-byte instruction window at `pc`, zero-padded outside
    /// `.text` — the `fetch` every decoder over a loaded image reads
    /// through.
    pub fn window(&self, pc: u64) -> [u8; 16] {
        let mut w = [0u8; 16];
        let off = pc.checked_sub(TEXT_BASE).and_then(|off| usize::try_from(off).ok());
        if let Some(tail) = off.and_then(|off| self.text.get(off..)) {
            for (slot, byte) in w.iter_mut().zip(tail) {
                *slot = *byte;
            }
        }
        w
    }
}

/// Builds a [`GuestBinary`] from assembly plus data and imports.
///
/// PLT stubs are emitted through [`GelfBuilder::plt_stub`]: a stub is a
/// plain `jmp` to the guest implementation, and its address is recorded in
/// `.dynsym` so the host linker can intercept it.
#[derive(Debug)]
pub struct GelfBuilder {
    /// The text assembler (exposed for direct emission).
    pub asm: Assembler,
    data: Vec<u8>,
    imports: Vec<String>,
    entry_label: String,
}

impl GelfBuilder {
    /// Creates a builder; execution starts at `entry_label`.
    pub fn new(entry_label: &str) -> GelfBuilder {
        GelfBuilder {
            asm: Assembler::new(TEXT_BASE),
            data: Vec::new(),
            imports: Vec::new(),
            entry_label: entry_label.to_owned(),
        }
    }

    /// Emits the PLT stub for imported function `name`, jumping to the
    /// guest implementation label `guest_impl` (which must be defined
    /// elsewhere in the text). Call sites use `call_plt(name)`.
    pub fn plt_stub(&mut self, name: &str, guest_impl: &str) -> &mut Self {
        self.asm.label(&plt_label(name));
        self.asm.jmp_to(guest_impl);
        self.imports.push(name.to_owned());
        self
    }

    /// Calls an imported function through its PLT entry.
    pub fn call_plt(&mut self, name: &str) -> &mut Self {
        self.asm.call_to(&plt_label(name));
        self
    }

    /// Appends little-endian `u64` words to `.data`; returns their vaddr.
    pub fn data_u64(&mut self, words: &[u64]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Appends raw bytes to `.data` (8-byte aligned); returns their vaddr.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        addr
    }

    /// Reserves `n` zero bytes in `.data`; returns their vaddr.
    pub fn data_zeroed(&mut self, n: usize) -> u64 {
        let addr = DATA_BASE + self.data.len() as u64;
        self.data.resize(self.data.len() + n, 0);
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        addr
    }

    /// Assembles everything into a [`GuestBinary`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for label problems (including an undefined
    /// entry label).
    pub fn finish(self) -> Result<GuestBinary, AsmError> {
        let entry_label = self.entry_label;
        let (text, symbols) = self.asm.finish()?;
        let entry = *symbols
            .get(&entry_label)
            .ok_or_else(|| AsmError::UndefinedLabel(entry_label.clone()))?;
        let dynsyms = self
            .imports
            .iter()
            .map(|name| {
                let plt_vaddr = symbols[&plt_label(name)];
                DynSym { name: name.clone(), plt_vaddr }
            })
            .collect();
        Ok(GuestBinary { entry, text, data: self.data, dynsyms, symbols })
    }
}

fn plt_label(name: &str) -> String {
    format!("{name}@plt")
}

/// Convenience: the address register conventionally used to reach `.data`.
pub const DATA_REG: Gpr = Gpr::R15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    #[test]
    fn builder_records_entry_imports_and_data() {
        let mut b = GelfBuilder::new("main");
        let buf = b.data_u64(&[1, 2, 3]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, buf);
        b.call_plt("sin");
        b.asm.hlt();
        b.plt_stub("sin", "guest_sin");
        b.asm.label("guest_sin");
        b.asm.ret();
        let bin = b.finish().expect("builder");
        assert_eq!(bin.entry, TEXT_BASE);
        assert_eq!(bin.dynsyms.len(), 1);
        assert_eq!(bin.dynsyms[0].name, "sin");
        assert_eq!(bin.symbols["sin@plt"], bin.dynsyms[0].plt_vaddr);
        assert_eq!(bin.data.len(), 24);
    }

    #[test]
    fn plt_stub_is_a_jmp_to_the_guest_impl() {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.hlt();
        b.plt_stub("f", "impl_f");
        b.asm.label("impl_f");
        b.asm.ret();
        let bin = b.finish().expect("builder");
        let off = (bin.dynsyms[0].plt_vaddr - TEXT_BASE) as usize;
        let (insn, n) = Insn::decode(&bin.text[off..]).expect("decode stub");
        match insn {
            Insn::Jmp { rel } => {
                let target = bin.dynsyms[0].plt_vaddr + n as u64 + rel as i64 as u64;
                assert_eq!(target, bin.symbols["impl_f"]);
            }
            other => unreachable!("PLT stub is {other:?}, expected jmp"),
        }
    }

    #[test]
    fn window_is_zero_padded_outside_text() {
        let mut b = GelfBuilder::new("m");
        b.asm.label("m");
        b.asm.mov_ri(Gpr::RAX, 7);
        b.asm.hlt();
        let bin = b.finish().expect("builder");
        let n = bin.text.len();
        assert!(n < 16, "the image is shorter than one window");
        let w = bin.window(TEXT_BASE);
        assert_eq!(w[..n], bin.text[..]);
        assert_eq!(w[n..], [0u8; 16][n..]);
        assert_eq!(bin.window(TEXT_BASE + n as u64 - 1)[0], bin.text[n - 1]);
        for outside in [0, TEXT_BASE - 1, TEXT_BASE + n as u64, u64::MAX] {
            assert_eq!(bin.window(outside), [0u8; 16], "{outside:#x}");
        }
    }

    #[test]
    fn entry_label_must_exist() {
        let mut b = GelfBuilder::new("missing");
        b.asm.label("other");
        b.asm.hlt();
        assert!(matches!(b.finish(), Err(AsmError::UndefinedLabel(_))));
    }
}
