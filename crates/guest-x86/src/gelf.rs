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
use std::fmt;

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

/// A loaded (or built) guest binary.
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

const MAGIC: &[u8; 5] = b"GELF1";

/// Errors from [`GuestBinary::from_bytes`] / [`GuestBinary::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GelfError {
    /// Bad magic number.
    BadMagic,
    /// The byte stream ended early or a length field is inconsistent.
    Truncated,
    /// A symbol name is not valid UTF-8.
    BadString,
    /// A section is too large for its address-space slot and would
    /// overlap the next region (`.text` reaching into [`DATA_BASE`], or
    /// `.data` reaching into [`HEAP_BASE`]).
    SectionOverlap {
        /// The offending section (`".text"` or `".data"`).
        section: &'static str,
        /// The section's end virtual address (exclusive).
        end: u64,
        /// The start of the region it collides with.
        limit: u64,
    },
    /// The entry point lies outside `.text`.
    EntryOutOfRange {
        /// The declared entry vaddr.
        entry: u64,
    },
    /// A `.dynsym` entry's PLT address lies outside `.text`.
    SymbolOutOfRange {
        /// The symbol's name.
        name: String,
        /// Its declared PLT vaddr.
        plt_vaddr: u64,
    },
}

impl fmt::Display for GelfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GelfError::BadMagic => write!(f, "not a GELF binary"),
            GelfError::Truncated => write!(f, "truncated GELF binary"),
            GelfError::BadString => write!(f, "invalid symbol name encoding"),
            GelfError::SectionOverlap { section, end, limit } => {
                write!(f, "{section} ends at {end:#x}, overlapping the region at {limit:#x}")
            }
            GelfError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry:#x} is outside .text")
            }
            GelfError::SymbolOutOfRange { name, plt_vaddr } => {
                write!(f, "dynsym `{name}` points at {plt_vaddr:#x}, outside .text")
            }
        }
    }
}

impl std::error::Error for GelfError {}

impl GuestBinary {
    /// Serializes to the on-disk GELF format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.entry.to_le_bytes());
        let put_bytes = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            out.extend_from_slice(b);
        };
        put_bytes(&mut out, &self.text);
        put_bytes(&mut out, &self.data);
        out.extend_from_slice(&(self.dynsyms.len() as u64).to_le_bytes());
        for s in &self.dynsyms {
            put_bytes(&mut out, s.name.as_bytes());
            out.extend_from_slice(&s.plt_vaddr.to_le_bytes());
        }
        // Symbol table (informational).
        let mut syms: Vec<_> = self.symbols.iter().collect();
        syms.sort();
        out.extend_from_slice(&(syms.len() as u64).to_le_bytes());
        for (name, &addr) in syms {
            put_bytes(&mut out, name.as_bytes());
            out.extend_from_slice(&addr.to_le_bytes());
        }
        out
    }

    /// Parses the on-disk GELF format.
    ///
    /// # Errors
    ///
    /// Returns [`GelfError`] for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<GuestBinary, GelfError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], GelfError> {
            let s = bytes.get(*pos..*pos + n).ok_or(GelfError::Truncated)?;
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 5)? != MAGIC {
            return Err(GelfError::BadMagic);
        }
        let u64_at = |pos: &mut usize| -> Result<u64, GelfError> {
            let arr: [u8; 8] = take(pos, 8)?.try_into().map_err(|_| GelfError::Truncated)?;
            Ok(u64::from_le_bytes(arr))
        };
        let entry = u64_at(&mut pos)?;
        // Length fields claiming more bytes than the stream holds are
        // rejected up front: `usize` casts of huge u64s must not be
        // allowed to wrap or trigger giant allocations.
        let len_field = |pos: &mut usize| -> Result<usize, GelfError> {
            let n = u64_at(pos)?;
            let n = usize::try_from(n).map_err(|_| GelfError::Truncated)?;
            if n > bytes.len() {
                return Err(GelfError::Truncated);
            }
            Ok(n)
        };
        let tlen = len_field(&mut pos)?;
        let text = take(&mut pos, tlen)?.to_vec();
        let dlen = len_field(&mut pos)?;
        let data = take(&mut pos, dlen)?.to_vec();
        let nsyms = len_field(&mut pos)?;
        let mut dynsyms = Vec::with_capacity(nsyms.min(1024));
        for _ in 0..nsyms {
            let nlen = u64_at(&mut pos)? as usize;
            let name = std::str::from_utf8(take(&mut pos, nlen)?)
                .map_err(|_| GelfError::BadString)?
                .to_owned();
            let plt_vaddr = u64_at(&mut pos)?;
            dynsyms.push(DynSym { name, plt_vaddr });
        }
        let nlocal = len_field(&mut pos)?;
        let mut symbols = HashMap::with_capacity(nlocal.min(4096));
        for _ in 0..nlocal {
            let nlen = u64_at(&mut pos)? as usize;
            let name = std::str::from_utf8(take(&mut pos, nlen)?)
                .map_err(|_| GelfError::BadString)?
                .to_owned();
            let addr = u64_at(&mut pos)?;
            symbols.insert(name, addr);
        }
        let bin = GuestBinary { entry, text, data, dynsyms, symbols };
        bin.validate()?;
        Ok(bin)
    }

    /// Checks the layout invariants every loaded binary must satisfy:
    /// sections fit their address-space slots, the entry point and every
    /// `.dynsym` PLT address lie inside `.text`.
    /// [`from_bytes`](Self::from_bytes) applies this automatically; loaders with other
    /// sources (e.g. a builder bypass) can call it directly.
    pub fn validate(&self) -> Result<(), GelfError> {
        let text_end = TEXT_BASE + self.text.len() as u64;
        if text_end > DATA_BASE {
            return Err(GelfError::SectionOverlap {
                section: ".text",
                end: text_end,
                limit: DATA_BASE,
            });
        }
        let data_end = DATA_BASE + self.data.len() as u64;
        if data_end > HEAP_BASE {
            return Err(GelfError::SectionOverlap {
                section: ".data",
                end: data_end,
                limit: HEAP_BASE,
            });
        }
        if self.entry < TEXT_BASE || self.entry >= text_end {
            return Err(GelfError::EntryOutOfRange { entry: self.entry });
        }
        for s in &self.dynsyms {
            if s.plt_vaddr < TEXT_BASE || s.plt_vaddr >= text_end {
                return Err(GelfError::SymbolOutOfRange {
                    name: s.name.clone(),
                    plt_vaddr: s.plt_vaddr,
                });
            }
        }
        Ok(())
    }

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
                DynSym { name: clean_name(name), plt_vaddr }
            })
            .collect();
        Ok(GuestBinary { entry, text, data: self.data, dynsyms, symbols })
    }
}

fn plt_label(name: &str) -> String {
    format!("{name}@plt")
}

fn clean_name(name: &str) -> String {
    name.to_owned()
}

/// Convenience: the address register conventionally used to reach `.data`.
pub const DATA_REG: Gpr = Gpr::R15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    #[test]
    fn build_serialize_parse_roundtrip() {
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

        let bytes = bin.to_bytes();
        let parsed = GuestBinary::from_bytes(&bytes).expect("parse");
        assert_eq!(parsed, bin);
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
    fn parse_rejects_garbage() {
        assert_eq!(GuestBinary::from_bytes(b"nope"), Err(GelfError::Truncated));
        assert_eq!(GuestBinary::from_bytes(b"XXXXX____"), Err(GelfError::BadMagic));
        let mut b = GelfBuilder::new("m");
        b.asm.label("m");
        b.asm.hlt();
        let bytes = b.finish().expect("builder").to_bytes();
        assert_eq!(GuestBinary::from_bytes(&bytes[..bytes.len() - 1]), Err(GelfError::Truncated));
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
