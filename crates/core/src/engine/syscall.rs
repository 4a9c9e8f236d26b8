//! The virtual OS interface: exit / write / spawn / join / gettid.

use super::{EmuError, Emulator};
use crate::faults::FaultSite;
use crate::obs::TraceStage;
use risotto_guest_x86::{syscalls, Gpr};

/// What the core should do after a serviced syscall.
pub(super) enum SyscallOutcome {
    /// Continue at the pc following the syscall.
    Resume,
    /// The core halted (guest exit).
    Halted,
    /// Re-execute the syscall later (join busy-wait).
    Retry,
}

impl Emulator {
    /// Services one guest syscall; `next` is the guest pc following it.
    pub(super) fn do_syscall(
        &mut self,
        core: usize,
        next: u64,
    ) -> Result<SyscallOutcome, EmuError> {
        let nth = self.counts.syscall_attempts;
        self.counts.syscall_attempts += 1;
        if self.plan.syscall_fails(nth) {
            self.counts.faults_injected += 1;
            self.obs.trace(TraceStage::Fault, Some(core), Some(next), None, None, || {
                "injected syscall fault (unrecoverable)".to_owned()
            });
            return Err(EmuError::Injected { site: FaultSite::Syscall, core, pc: next });
        }
        let n = self.guest_reg(core, Gpr::RAX);
        let a1 = self.guest_reg(core, Gpr::RDI);
        let a2 = self.guest_reg(core, Gpr::RSI);
        let a3 = self.guest_reg(core, Gpr::RDX);
        match n {
            syscalls::EXIT => {
                self.exit_vals[core] = Some(a1);
                self.machine.halt_core(core);
                self.counts.syscalls_completed += 1;
                return Ok(SyscallOutcome::Halted);
            }
            syscalls::WRITE => {
                if a3 > syscalls::WRITE_MAX {
                    return Err(EmuError::BadSyscall { n, core, pc: next });
                }
                let bytes = self.machine.mem.read_bytes(a2, a3 as usize);
                self.output.extend_from_slice(&bytes);
                self.write_guest_reg(core, Gpr::RAX, a3);
            }
            syscalls::SPAWN => {
                // Pick the child by the engine-side started flag; the
                // machine cannot tell. A core whose entry block fell back
                // to the interpreter is busy without ever having been
                // `start_core`'d, and going by the machine's cores alone
                // would hand it out again (a spawn could then stomp the
                // spawning core).
                let child = (0..self.machine.n_cores())
                    .find(|&c| !self.core_started[c])
                    .ok_or(EmuError::TooManyThreads { core, pc: next })?;
                self.init_core(child, Some(a2));
                self.resume_at(child, a1)?;
                // The child begins *now*, not at machine time zero — it
                // inherits the spawning core's clock (plus a small fork
                // cost), so the discrete-event scheduler interleaves it
                // realistically.
                self.machine.add_cycles(child, self.machine.core_cycles(core) + 50);
                self.write_guest_reg(core, Gpr::RAX, child as u64);
            }
            syscalls::JOIN => {
                let target = a1 as usize;
                if target >= self.machine.n_cores() || target == core {
                    return Err(EmuError::BadJoin { tid: a1, core, pc: next });
                }
                if self.machine.core_halted(target) && self.core_started[target] {
                    let v = self.exit_vals[target].unwrap_or(0);
                    self.write_guest_reg(core, Gpr::RAX, v);
                } else {
                    // Busy-wait: charge some cycles and retry the syscall.
                    self.machine.add_cycles(core, 64);
                    return Ok(SyscallOutcome::Retry);
                }
            }
            syscalls::GETTID => {
                self.write_guest_reg(core, Gpr::RAX, core as u64);
            }
            other => return Err(EmuError::BadSyscall { n: other, core, pc: next }),
        }
        self.counts.syscalls_completed += 1;
        Ok(SyscallOutcome::Resume)
    }
}
