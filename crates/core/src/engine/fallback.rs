//! The interpreter fallback: blocks the translator cannot (or may not)
//! produce run through the reference instruction semantics of
//! `risotto-guest-x86`, against the core's guest state in the machine.

use super::syscall::SyscallOutcome;
use super::{EmuError, Emulator};
use risotto_guest_x86::{exec_insn, Flags, Gpr, GuestState, Insn, Step};
use risotto_tcg::{TranslateError, MAX_TB_INSNS};

/// Cycle cost charged per interpreted guest instruction (interpretation
/// is roughly an order of magnitude slower than translated code).
const INTERP_CYCLES_PER_INSN: u64 = 12;

impl Emulator {
    /// Interprets one guest basic block on `core`'s behalf, against the
    /// shared machine memory and the core's guest register state. Returns
    /// the next guest pc, or `None` if the core halted.
    ///
    /// The instruction semantics are the reference interpreter's own
    /// ([`exec_insn`], over [`CoreState`]); this loop only adds what the
    /// engine owes the machine: interpretation cycles, fuel, and the
    /// store-buffer drains. The core's buffer is drained first — the
    /// same synchronization a helper or native call performs at its ABI
    /// boundary — and interpreted accesses are sequentially consistent,
    /// which is a legal (stricter) execution under both memory models.
    pub(super) fn interpret_block(
        &mut self,
        core: usize,
        start_pc: u64,
    ) -> Result<Option<u64>, EmuError> {
        self.machine.drain_store_buffer(core);
        let mut pc = start_pc;
        // Interpreted blocks are capped like translated ones.
        for _ in 0..MAX_TB_INSNS {
            if self.fuel_left() == 0 {
                return Err(EmuError::OutOfFuel);
            }
            self.counts.interp_steps += 1;
            let (insn, len) =
                Insn::decode(&self.fetch(pc)).map_err(|cause| EmuError::Translate {
                    source: TranslateError { pc, cause },
                    core: Some(core),
                    tb_count: self.counts.tb_count,
                })?;
            let next = pc.wrapping_add(len as u64);
            self.machine.add_cycles(core, INTERP_CYCLES_PER_INSN);
            match exec_insn(&mut CoreState { emu: self, core }, insn, next) {
                Step::Next => {}
                Step::Fence => self.machine.drain_store_buffer(core),
                Step::Branch(target) => return Ok(Some(target)),
                Step::Halt => {
                    self.machine.halt_core(core);
                    return Ok(None);
                }
                Step::Syscall => {
                    return match self.do_syscall(core, next)? {
                        SyscallOutcome::Resume => Ok(Some(next)),
                        SyscallOutcome::Halted => Ok(None),
                        // Busy-wait: retry the syscall instruction itself.
                        SyscallOutcome::Retry => Ok(Some(pc)),
                    };
                }
            }
            pc = next;
        }
        // Block cap reached (same limit as translated TBs): hand the next
        // pc back so the resume loop can retry translation there.
        Ok(Some(pc))
    }
}

/// One simulated core's guest state as the reference semantics sees
/// it: the register file and flags live in the core's env block in
/// machine memory (pinned host registers in the native setup), memory
/// is the machine's.
struct CoreState<'a> {
    emu: &'a mut Emulator,
    core: usize,
}

impl GuestState for CoreState<'_> {
    fn reg(&self, r: Gpr) -> u64 {
        self.emu.guest_reg(self.core, r)
    }
    fn set_reg(&mut self, r: Gpr, v: u64) {
        self.emu.write_guest_reg(self.core, r, v);
    }
    fn flags(&self) -> Flags {
        self.emu.guest_flags(self.core)
    }
    fn set_flags(&mut self, f: Flags) {
        self.emu.write_guest_flags(self.core, f);
    }
    fn load_u64(&self, addr: u64) -> u64 {
        self.emu.machine.mem.read_u64(addr)
    }
    fn store_u64(&mut self, addr: u64, v: u64) {
        self.emu.machine.store_u64(self.core, addr, v);
    }
    fn load_u8(&self, addr: u64) -> u8 {
        self.emu.machine.mem.read_u8(addr)
    }
    fn store_u8(&mut self, addr: u64, v: u8) {
        self.emu.machine.store_u8(self.core, addr, v);
    }
    fn rmw(&mut self, addr: u64, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        self.emu.machine.rmw(self.core, addr, f)
    }
}
