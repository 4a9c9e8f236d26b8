//! A reference interpreter for MiniX86.
//!
//! The interpreter executes guest binaries directly (no translation) under
//! sequentially consistent interleaving. It is the *functional oracle* of
//! the DBT test-suite: for data-race-free programs its results must match
//! the translated program running on the weak host simulator, whatever the
//! schedule. (Weak-memory behaviors are covered by the axiomatic layer,
//! not by this interpreter.)

use crate::gelf::{GuestBinary, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use crate::insn::{syscalls, AluOp, Insn, Operand};
use crate::regs::{Flags, Gpr};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE: usize = 4096;

/// Hasher for page numbers: one multiply and a fold. The keys are the
/// simulator's own page indices (small, dense integers), which is
/// what SipHash's collision resistance is wasted on.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // The map takes its bucket from the low bits and its tag from
        // the high ones: fold the well-mixed top half down.
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Sparse byte-addressed guest memory (zero-filled on first touch).
#[derive(Debug, Clone, Default)]
pub struct SparseMem {
    pages: HashMap<u64, Box<[u8; PAGE]>, BuildHasherDefault<PageHasher>>,
}

/// Splits an address into its page number and the offset inside it.
fn split(addr: u64) -> (u64, usize) {
    (addr / PAGE as u64, (addr % PAGE as u64) as usize)
}

impl SparseMem {
    /// Creates empty memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE] {
        self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = val;
    }

    /// Reads a little-endian u64 (unaligned allowed). Like every
    /// multi-byte access here, it wraps around the top of the address
    /// space: the address is a guest value.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, off) = split(addr);
        let mut b = [0u8; 8];
        if off <= PAGE - 8 {
            // Inside one page, as all but seven offsets in a page are:
            // one probe and one eight-byte copy.
            if let Some(p) = self.pages.get(&page) {
                b.copy_from_slice(&p[off..off + 8]);
            }
        } else {
            self.read_into(addr, &mut b);
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        let (page, off) = split(addr);
        if off <= PAGE - 8 {
            self.page_mut(page)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            self.write_bytes(addr, &val.to_le_bytes());
        }
    }

    /// Copies a byte slice in, one page probe per page touched. The top
    /// of the address space is a page boundary, so a wrapping access is
    /// a page-straddling one.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (page, off) = split(addr);
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE - off));
            self.page_mut(page)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            bytes = rest;
        }
    }

    /// Fills `out` from memory; an untouched page reads as zeros and is
    /// not allocated.
    fn read_into(&self, mut addr: u64, mut out: &mut [u8]) {
        while !out.is_empty() {
            let (page, off) = split(addr);
            let (chunk, rest) = out.split_at_mut(out.len().min(PAGE - off));
            match self.pages.get(&page) {
                Some(p) => chunk.copy_from_slice(&p[off..off + chunk.len()]),
                None => chunk.fill(0),
            }
            addr = addr.wrapping_add(chunk.len() as u64);
            out = rest;
        }
    }

    /// Copies `len` bytes out.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Loads a guest binary's sections.
    pub fn load_binary(&mut self, bin: &GuestBinary) {
        self.write_bytes(TEXT_BASE, &bin.text);
        self.write_bytes(DATA_BASE, &bin.data);
    }
}

/// The architectural state one MiniX86 instruction executes against:
/// a register file, the condition flags and byte-addressed memory.
/// Whoever owns the state implements this — [`Interp`] over its thread
/// table, the DBT engine's fallback over the env block of a simulated
/// core — and [`exec_insn`] is the one instruction semantics both run.
pub trait GuestState {
    /// Reads a general-purpose register.
    fn reg(&self, r: Gpr) -> u64;
    /// Writes a general-purpose register.
    fn set_reg(&mut self, r: Gpr, v: u64);
    /// Reads the condition flags.
    fn flags(&self) -> Flags;
    /// Writes the condition flags.
    fn set_flags(&mut self, f: Flags);
    /// Loads a little-endian u64 (unaligned allowed).
    fn load_u64(&self, addr: u64) -> u64;
    /// Stores a little-endian u64.
    fn store_u64(&mut self, addr: u64, v: u64);
    /// Loads one byte.
    fn load_u8(&self, addr: u64) -> u8;
    /// Stores one byte.
    fn store_u8(&mut self, addr: u64, v: u8);
}

/// What [`exec_insn`] left for its caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Fall through to the next instruction.
    Next,
    /// Control transfers to this pc. Every branch reports one — a
    /// not-taken `Jcc` reports the fall-through pc — so a caller that
    /// works in basic blocks sees each block end.
    Branch(u64),
    /// `MFENCE`: order the caller's memory system, then fall through.
    Fence,
    /// `HLT`: the thread stops; its exit value is `RAX`.
    Halt,
    /// `SYSCALL`: the caller services it (arguments are in the registers).
    Syscall,
}

/// Executes `insn` against `s`; `next` is the pc of the instruction
/// after it. Register, flag and memory effects are applied here;
/// what the instruction means for control flow, the memory system or
/// the OS interface is returned as a [`Step`].
pub fn exec_insn<S: GuestState>(s: &mut S, insn: Insn, next: u64) -> Step {
    let operand = |s: &S, o: Operand| match o {
        Operand::Reg(r) => s.reg(r),
        Operand::Imm(i) => i,
    };
    let ea = |s: &S, base: Gpr, disp: i32| s.reg(base).wrapping_add(disp as i64 as u64);
    let push = |s: &mut S, v: u64| {
        let sp = s.reg(Gpr::RSP).wrapping_sub(8);
        s.set_reg(Gpr::RSP, sp);
        s.store_u64(sp, v);
    };
    let rel_target = |rel: i32| next.wrapping_add(rel as i64 as u64);

    match insn {
        Insn::MovRI { dst, imm } => s.set_reg(dst, imm),
        Insn::MovRR { dst, src } => s.set_reg(dst, s.reg(src)),
        Insn::Load { dst, base, disp } => s.set_reg(dst, s.load_u64(ea(s, base, disp))),
        Insn::Store { base, disp, src } => s.store_u64(ea(s, base, disp), s.reg(src)),
        Insn::LoadB { dst, base, disp } => s.set_reg(dst, s.load_u8(ea(s, base, disp)) as u64),
        Insn::StoreB { base, disp, src } => s.store_u8(ea(s, base, disp), s.reg(src) as u8),
        Insn::MulWide { src } => {
            let p = s.reg(Gpr::RAX) as u128 * s.reg(src) as u128;
            s.set_reg(Gpr::RAX, p as u64);
            s.set_reg(Gpr::RDX, (p >> 64) as u64);
        }
        Insn::Lea { dst, base, disp } => s.set_reg(dst, ea(s, base, disp)),
        Insn::Alu { op, dst, src } => {
            let a = s.reg(dst);
            let b = operand(s, src);
            let r = op.apply(a, b);
            s.set_reg(dst, r);
            s.set_flags(match op {
                AluOp::Add => Flags::from_add(a, b),
                AluOp::Sub => Flags::from_sub(a, b),
                _ => Flags::from_logic(r),
            });
        }
        Insn::Div { src } => {
            let d = s.reg(src);
            let a = s.reg(Gpr::RAX);
            // Div-by-zero yields (0, a) uniformly across all layers of
            // this project (Arm-style), documented in DESIGN.md.
            s.set_reg(Gpr::RAX, a.checked_div(d).unwrap_or(0));
            s.set_reg(Gpr::RDX, a.checked_rem(d).unwrap_or(a));
        }
        Insn::Fp { op, dst, src } => s.set_reg(dst, op.apply(s.reg(dst), s.reg(src))),
        Insn::Cmp { a, b } => s.set_flags(Flags::from_sub(s.reg(a), operand(s, b))),
        Insn::Test { a, b } => s.set_flags(Flags::from_logic(s.reg(a) & operand(s, b))),
        Insn::Jcc { cond, rel } => {
            return Step::Branch(if cond.eval(s.flags()) { rel_target(rel) } else { next });
        }
        Insn::Jmp { rel } => return Step::Branch(rel_target(rel)),
        Insn::JmpReg { reg } => return Step::Branch(s.reg(reg)),
        Insn::Call { rel } => {
            push(s, next);
            return Step::Branch(rel_target(rel));
        }
        Insn::CallReg { reg } => {
            let target = s.reg(reg);
            push(s, next);
            return Step::Branch(target);
        }
        Insn::Ret => {
            let sp = s.reg(Gpr::RSP);
            let ra = s.load_u64(sp);
            s.set_reg(Gpr::RSP, sp.wrapping_add(8));
            return Step::Branch(ra);
        }
        Insn::Push { src } => push(s, s.reg(src)),
        Insn::Pop { dst } => {
            let sp = s.reg(Gpr::RSP);
            s.set_reg(dst, s.load_u64(sp));
            s.set_reg(Gpr::RSP, sp.wrapping_add(8));
        }
        Insn::LockCmpxchg { base, disp, src } => {
            let addr = ea(s, base, disp);
            let cur = s.load_u64(addr);
            if cur == s.reg(Gpr::RAX) {
                s.store_u64(addr, s.reg(src));
                s.set_flags(Flags::from_sub(0, 0)); // ZF=1
            } else {
                s.set_reg(Gpr::RAX, cur);
                s.set_flags(Flags::from_sub(1, 0)); // ZF=0
            }
        }
        Insn::LockXadd { base, disp, src } => {
            let addr = ea(s, base, disp);
            let cur = s.load_u64(addr);
            s.store_u64(addr, cur.wrapping_add(s.reg(src)));
            s.set_reg(src, cur);
        }
        Insn::Nop => {}
        Insn::Mfence => return Step::Fence,
        Insn::Hlt => return Step::Halt,
        Insn::Syscall => return Step::Syscall,
    }
    Step::Next
}

/// One guest thread.
#[derive(Debug, Clone)]
struct ThreadState {
    regs: [u64; Gpr::COUNT],
    flags: Flags,
    pc: u64,
    halted: bool,
    exit_val: u64,
    /// Set while blocked in `join(tid)`.
    joining: Option<usize>,
}

impl ThreadState {
    fn new(entry: u64, stack_top: u64) -> ThreadState {
        let mut regs = [0u64; Gpr::COUNT];
        regs[Gpr::RSP.index()] = stack_top;
        ThreadState {
            regs,
            flags: Flags::default(),
            pc: entry,
            halted: false,
            exit_val: 0,
            joining: None,
        }
    }
}

/// [`Interp`]'s [`GuestState`]: one thread's registers over the shared
/// sequentially consistent memory.
struct ThreadView<'a> {
    th: &'a mut ThreadState,
    mem: &'a mut SparseMem,
}

impl GuestState for ThreadView<'_> {
    fn reg(&self, r: Gpr) -> u64 {
        self.th.regs[r.index()]
    }
    fn set_reg(&mut self, r: Gpr, v: u64) {
        self.th.regs[r.index()] = v;
    }
    fn flags(&self) -> Flags {
        self.th.flags
    }
    fn set_flags(&mut self, f: Flags) {
        self.th.flags = f;
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

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Instruction decoding failed at the given pc.
    Decode {
        /// Faulting program counter.
        pc: u64,
        /// Underlying decode error.
        cause: crate::insn::DecodeError,
    },
    /// The step budget was exhausted (runaway program).
    OutOfFuel,
    /// All live threads are blocked in `join`.
    Deadlock,
    /// Unknown syscall number.
    BadSyscall(u64),
    /// `join` on an invalid thread id.
    BadJoin(u64),
    /// `step` was asked to run a thread that is out of range or halted.
    NotRunnable {
        /// The offending thread id.
        tid: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Decode { pc, cause } => write!(f, "decode fault at {pc:#x}: {cause}"),
            InterpError::OutOfFuel => write!(f, "step budget exhausted"),
            InterpError::Deadlock => write!(f, "all threads blocked in join"),
            InterpError::BadSyscall(n) => write!(f, "unknown syscall {n}"),
            InterpError::BadJoin(t) => write!(f, "join on invalid thread {t}"),
            InterpError::NotRunnable { tid } => {
                write!(f, "thread {tid} is not runnable (halted or out of range)")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The reference interpreter.
#[derive(Debug)]
pub struct Interp {
    /// Guest memory (public so tests can inspect results).
    pub mem: SparseMem,
    threads: Vec<ThreadState>,
    /// Bytes written via the `WRITE` syscall.
    pub output: Vec<u8>,
    steps_executed: u64,
}

impl Interp {
    /// Loads a binary and prepares thread 0 at its entry point.
    pub fn new(bin: &GuestBinary) -> Interp {
        let mut mem = SparseMem::new();
        mem.load_binary(bin);
        Interp {
            mem,
            threads: vec![ThreadState::new(bin.entry, STACK_TOP)],
            output: Vec::new(),
            steps_executed: 0,
        }
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps_executed
    }

    /// Register of a thread (for assertions).
    pub fn reg(&self, tid: usize, r: Gpr) -> u64 {
        self.threads[tid].regs[r.index()]
    }

    /// Flags of a thread (for assertions).
    pub fn flags(&self, tid: usize) -> Flags {
        self.threads[tid].flags
    }

    /// Threads spawned so far, the initial one included.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Exit value of a halted thread.
    pub fn exit_val(&self, tid: usize) -> u64 {
        self.threads[tid].exit_val
    }

    /// `true` if every thread has halted.
    pub fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Runs round-robin (quantum 1) until all threads halt or `fuel`
    /// instructions have executed.
    ///
    /// # Errors
    ///
    /// Propagates decode faults, bad syscalls, deadlock, or fuel
    /// exhaustion.
    pub fn run(&mut self, fuel: u64) -> Result<(), InterpError> {
        self.run_with_schedule(fuel, |step, n| (step as usize) % n)
    }

    /// Runs with a seeded pseudo-random schedule (for interleaving
    /// robustness tests).
    ///
    /// # Errors
    ///
    /// Same as [`Interp::run`].
    pub fn run_seeded(&mut self, fuel: u64, seed: u64) -> Result<(), InterpError> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        self.run_with_schedule(fuel, move |_, n| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % n
        })
    }

    fn run_with_schedule<F>(&mut self, fuel: u64, mut pick: F) -> Result<(), InterpError>
    where
        F: FnMut(u64, usize) -> usize,
    {
        let mut budget = fuel;
        loop {
            if self.finished() {
                return Ok(());
            }
            if budget == 0 {
                return Err(InterpError::OutOfFuel);
            }
            let runnable: Vec<usize> =
                (0..self.threads.len()).filter(|&t| !self.threads[t].halted).collect();
            // Resolve joins (a join on a halted thread unblocks).
            let mut progressed = false;
            for &t in &runnable {
                if let Some(target) = self.threads[t].joining {
                    if self.threads[target].halted {
                        let val = self.threads[target].exit_val;
                        self.threads[t].joining = None;
                        self.threads[t].regs[Gpr::RAX.index()] = val;
                        progressed = true;
                    }
                }
            }
            let ready: Vec<usize> =
                runnable.iter().copied().filter(|&t| self.threads[t].joining.is_none()).collect();
            if ready.is_empty() {
                if progressed {
                    continue;
                }
                return Err(InterpError::Deadlock);
            }
            let choice = pick(self.steps_executed, ready.len()) % ready.len();
            let t = ready[choice];
            self.step(t)?;
            budget -= 1;
        }
    }

    /// Executes one instruction of thread `tid`.
    ///
    /// # Errors
    ///
    /// Decode faults, bad syscalls, and [`InterpError::NotRunnable`] if
    /// `tid` is out of range or the thread has already halted.
    pub fn step(&mut self, tid: usize) -> Result<(), InterpError> {
        match self.threads.get(tid) {
            Some(th) if !th.halted => {}
            _ => return Err(InterpError::NotRunnable { tid }),
        }
        let pc = self.threads[tid].pc;
        let mut window = [0u8; 16];
        self.mem.read_into(pc, &mut window);
        let (insn, len) =
            Insn::decode(&window).map_err(|cause| InterpError::Decode { pc, cause })?;
        let next = pc.wrapping_add(len as u64);
        self.steps_executed += 1;

        let th = &mut self.threads[tid];
        th.pc = next;
        match exec_insn(&mut ThreadView { th, mem: &mut self.mem }, insn, next) {
            // Sequentially consistent memory: a fence has nothing to order.
            Step::Next | Step::Fence => {}
            Step::Branch(target) => th.pc = target,
            Step::Halt => {
                th.halted = true;
                th.exit_val = th.regs[Gpr::RAX.index()];
            }
            Step::Syscall => self.syscall(tid)?,
        }
        Ok(())
    }

    /// Services the syscall thread `tid` just executed (the virtual OS
    /// interface: exit / write / spawn / join / gettid).
    fn syscall(&mut self, tid: usize) -> Result<(), InterpError> {
        let th = &mut self.threads[tid];
        let n = th.regs[Gpr::RAX.index()];
        let a1 = th.regs[Gpr::RDI.index()];
        let a2 = th.regs[Gpr::RSI.index()];
        let a3 = th.regs[Gpr::RDX.index()];
        match n {
            syscalls::EXIT => {
                th.halted = true;
                th.exit_val = a1;
            }
            syscalls::WRITE => {
                let _fd = a1;
                if a3 > syscalls::WRITE_MAX {
                    return Err(InterpError::BadSyscall(n));
                }
                let buf = self.mem.read_bytes(a2, a3 as usize);
                self.output.extend_from_slice(&buf);
                th.regs[Gpr::RAX.index()] = a3;
            }
            syscalls::SPAWN => {
                let new_tid = self.threads.len();
                let stack_top = STACK_TOP - new_tid as u64 * STACK_SIZE;
                let mut t = ThreadState::new(a1, stack_top);
                t.regs[Gpr::RDI.index()] = a2;
                self.threads.push(t);
                self.threads[tid].regs[Gpr::RAX.index()] = new_tid as u64;
            }
            syscalls::JOIN => {
                let target = a1 as usize;
                if target >= self.threads.len() || target == tid {
                    return Err(InterpError::BadJoin(a1));
                }
                if self.threads[target].halted {
                    let v = self.threads[target].exit_val;
                    self.threads[tid].regs[Gpr::RAX.index()] = v;
                } else {
                    self.threads[tid].joining = Some(target);
                    // Stay on the syscall… no: block at the *next*
                    // pc; the scheduler delivers the result.
                }
            }
            syscalls::GETTID => {
                self.threads[tid].regs[Gpr::RAX.index()] = tid as u64;
            }
            other => return Err(InterpError::BadSyscall(other)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gelf::GelfBuilder;
    use crate::insn::AluOp;

    fn run(bin: &GuestBinary) -> Interp {
        let mut i = Interp::new(bin);
        i.run(1_000_000).unwrap();
        i
    }

    /// Byte-at-a-time definitions of the multi-byte accessors.
    fn read_bytewise(m: &SparseMem, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| m.read_u8(addr.wrapping_add(i as u64))).collect()
    }

    #[test]
    fn wide_accesses_agree_with_the_bytewise_definition() {
        let page = PAGE as u64;
        // In-page, page-straddling (every split of the 8 bytes) and
        // wrapping around the top of the address space.
        let mut addrs = vec![0, 8, page - 8, 5 * page + 123];
        addrs.extend((1..8).map(|k| 3 * page - k));
        addrs.extend((0..8).map(|k| u64::MAX - k));
        for &addr in &addrs {
            let val = 0x0102_0304_0506_0708u64.wrapping_mul(addr | 1);
            let mut wide = SparseMem::new();
            wide.write_u64(addr, val);
            let mut bytewise = SparseMem::new();
            for (i, b) in val.to_le_bytes().iter().enumerate() {
                bytewise.write_u8(addr.wrapping_add(i as u64), *b);
            }
            assert_eq!(wide.read_u64(addr), val, "{addr:#x}");
            assert_eq!(read_bytewise(&wide, addr, 8), val.to_le_bytes(), "{addr:#x}");
            let window = addr.wrapping_sub(16);
            assert_eq!(wide.read_bytes(window, 40), read_bytewise(&bytewise, window, 40));
            assert_eq!(wide.pages.len(), bytewise.pages.len(), "{addr:#x}: pages touched");
            // Unaligned reads across what was written.
            for k in 0..16 {
                let a = window.wrapping_add(k);
                let expect = u64::from_le_bytes(read_bytewise(&bytewise, a, 8).try_into().unwrap());
                assert_eq!(wide.read_u64(a), expect, "{a:#x}");
            }
        }

        // A buffer spanning three pages and the wrap.
        let data: Vec<u8> = (0..2 * PAGE + 100).map(|i| (i * 7 + 1) as u8).collect();
        for addr in [page - 50, u64::MAX - (PAGE as u64 + 20)] {
            let mut m = SparseMem::new();
            m.write_bytes(addr, &data);
            assert_eq!(m.read_bytes(addr, data.len()), data);
            assert_eq!(read_bytewise(&m, addr, data.len()), data);
            assert_eq!(m.read_u8(addr.wrapping_sub(1)), 0);
            assert_eq!(m.read_u8(addr.wrapping_add(data.len() as u64)), 0);
        }
    }

    #[test]
    fn reading_untouched_memory_allocates_nothing() {
        let m = SparseMem::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_u64(PAGE as u64 - 3), 0);
        assert_eq!(m.read_u64(u64::MAX - 2), 0);
        assert_eq!(m.read_u8(77), 0);
        assert_eq!(m.read_bytes(PAGE as u64 - 10, 3 * PAGE), vec![0; 3 * PAGE]);
        assert!(m.pages.is_empty());
    }

    #[test]
    fn loop_and_arithmetic() {
        // Sum 1..=10 into RAX.
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, 0);
        b.asm.mov_ri(Gpr::RCX, 10);
        b.asm.label("loop");
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX);
        b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        b.asm.cmp_ri(Gpr::RCX, 0);
        b.asm.jcc_to(crate::regs::Cond::Ne, "loop");
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 55);
    }

    #[test]
    fn call_ret_and_stack() {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, 20);
        b.asm.call_to("double");
        b.asm.hlt();
        b.asm.label("double");
        b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RDI);
        b.asm.ret();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 40);
    }

    #[test]
    fn memory_and_data_section() {
        let mut b = GelfBuilder::new("main");
        let tbl = b.data_u64(&[7, 8, 9]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RSI, tbl);
        b.asm.load(Gpr::RAX, Gpr::RSI, 8); // 8
        b.asm.load(Gpr::RBX, Gpr::RSI, 16); // 9
        b.asm.alu_rr(AluOp::Mul, Gpr::RAX, Gpr::RBX);
        b.asm.store(Gpr::RSI, 0, Gpr::RAX);
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 72);
        assert_eq!(i.mem.read_u64(DATA_BASE), 72);
    }

    #[test]
    fn cmpxchg_success_and_failure() {
        let mut b = GelfBuilder::new("main");
        let cell = b.data_u64(&[5]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, cell);
        b.asm.mov_ri(Gpr::RAX, 5); // expected — matches
        b.asm.mov_ri(Gpr::RSI, 6);
        b.asm.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
        b.asm.jcc_to(crate::regs::Cond::Ne, "fail");
        b.asm.mov_ri(Gpr::RAX, 100); // success path
        b.asm.hlt();
        b.asm.label("fail");
        b.asm.mov_ri(Gpr::RAX, 200);
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 100);
        assert_eq!(i.mem.read_u64(DATA_BASE), 6);
    }

    #[test]
    fn spawn_join_threads() {
        // Child doubles its argument; parent joins and returns it.
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "child");
        b.asm.mov_ri(Gpr::RSI, 21);
        b.asm.syscall();
        b.asm.mov_rr(Gpr::RDI, Gpr::RAX); // tid
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
        b.asm.hlt(); // RAX = child's exit value
        b.asm.label("child");
        b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RDI);
        b.asm.mov_rr(Gpr::RDI, Gpr::RAX);
        b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
        b.asm.syscall();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 42);
    }

    #[test]
    fn write_syscall_collects_output() {
        let mut b = GelfBuilder::new("main");
        let msg = b.data_bytes(b"hello");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
        b.asm.mov_ri(Gpr::RDI, 1);
        b.asm.mov_ri(Gpr::RSI, msg);
        b.asm.mov_ri(Gpr::RDX, 5);
        b.asm.syscall();
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.output, b"hello");
    }

    #[test]
    fn seeded_schedules_agree_on_synchronized_counter() {
        // Two threads xadd a shared counter 100 times each; any schedule
        // must end with 200.
        let mut b = GelfBuilder::new("main");
        let counter = b.data_u64(&[0]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "worker");
        b.asm.mov_ri(Gpr::RSI, 0);
        b.asm.syscall();
        b.asm.mov_rr(Gpr::RBX, Gpr::RAX);
        b.asm.call_to("worker_body");
        b.asm.mov_rr(Gpr::RDI, Gpr::RBX);
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
        b.asm.mov_ri(Gpr::RDI, counter);
        b.asm.load(Gpr::RAX, Gpr::RDI, 0);
        b.asm.hlt();
        b.asm.label("worker");
        b.asm.call_to("worker_body");
        b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
        b.asm.syscall();
        b.asm.label("worker_body");
        b.asm.mov_ri(Gpr::RDI, counter);
        b.asm.mov_ri(Gpr::RCX, 100);
        b.asm.label("loop");
        b.asm.mov_ri(Gpr::RDX, 1);
        b.asm.xadd(Gpr::RDI, 0, Gpr::RDX);
        b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        b.asm.cmp_ri(Gpr::RCX, 0);
        b.asm.jcc_to(crate::regs::Cond::Ne, "loop");
        b.asm.ret();
        let bin = b.finish().unwrap();
        for seed in 0..5 {
            let mut i = Interp::new(&bin);
            i.run_seeded(1_000_000, seed).unwrap();
            assert_eq!(i.exit_val(0), 200, "seed {seed}");
        }
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.jmp_to("main");
        let bin = b.finish().unwrap();
        let mut i = Interp::new(&bin);
        assert_eq!(i.run(100), Err(InterpError::OutOfFuel));
    }
}
