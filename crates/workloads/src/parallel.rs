//! The fork-join harness shared by all multi-threaded workloads.
//!
//! `emit_parallel_main` builds a `main` that spawns `threads − 1` workers
//! running the kernel body, runs the body itself as thread 0, joins
//! everyone, then loads a result word and halts. The kernel must define a
//! `body` label taking the thread index in `RDI`.

use risotto_guest_x86::{syscalls, AluOp, Cond, GelfBuilder, Gpr};

/// Emits `main` for a `threads`-way parallel kernel.
///
/// After the join, the value at `result_addr` is loaded into `RAX` and the
/// program halts (so the result shows up as thread 0's exit value).
pub fn emit_parallel_main(b: &mut GelfBuilder, threads: usize, result_addr: u64) {
    assert!(threads >= 1);
    let tid_slots = b.data_zeroed(threads * 8);
    b.asm.label("main");
    // Spawn workers 1..threads, stashing their core ids.
    for i in 1..threads {
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "worker");
        b.asm.mov_ri(Gpr::RSI, i as u64);
        b.asm.syscall();
        b.asm.mov_ri(Gpr::RCX, tid_slots + (i as u64) * 8);
        b.asm.store(Gpr::RCX, 0, Gpr::RAX);
    }
    // Thread 0 runs the body too.
    b.asm.mov_ri(Gpr::RDI, 0);
    b.asm.call_to("body");
    // Join the workers.
    for i in 1..threads {
        b.asm.mov_ri(Gpr::RCX, tid_slots + (i as u64) * 8);
        b.asm.load(Gpr::RDI, Gpr::RCX, 0);
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
    }
    b.asm.mov_ri(Gpr::RCX, result_addr);
    b.asm.load(Gpr::RAX, Gpr::RCX, 0);
    b.asm.hlt();
    // Worker wrapper: body(tid), then exit(0).
    b.asm.label("worker");
    b.asm.call_to("body");
    b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
    b.asm.mov_ri(Gpr::RDI, 0);
    b.asm.syscall();
}

/// Emits an atomic accumulate of `src` into the u64 at `addr` via
/// `LOCK XADD` (the standard end-of-kernel reduction).
pub fn emit_atomic_accumulate(b: &mut GelfBuilder, addr: u64, src: Gpr) {
    b.asm.mov_ri(Gpr::R11, addr);
    b.asm.mov_rr(Gpr::R10, src);
    b.asm.xadd(Gpr::R11, 0, Gpr::R10);
}

/// Emits a bounded counted loop skeleton: label `"{name}_loop"`, decrement
/// of the counter register, and the back-branch. The caller emits the loop
/// body between `begin` and `end`.
#[derive(Debug)]
pub struct CountedLoop {
    label: String,
    counter: Gpr,
}

impl CountedLoop {
    /// Starts a loop running `count` times with `counter` as the register.
    pub fn begin(b: &mut GelfBuilder, name: &str, counter: Gpr, count_from: Option<u64>) -> Self {
        if let Some(c) = count_from {
            b.asm.mov_ri(counter, c);
        }
        let label = format!("{name}_loop");
        b.asm.label(&label);
        CountedLoop { label, counter }
    }

    /// Closes the loop.
    pub fn end(self, b: &mut GelfBuilder) {
        b.asm.alu_ri(AluOp::Sub, self.counter, 1);
        b.asm.cmp_ri(self.counter, 0);
        b.asm.jcc_to(Cond::Ne, &self.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_guest_x86::Interp;

    #[test]
    fn parallel_harness_runs_body_on_every_thread() {
        // Each body atomically adds (tid + 1) to the result.
        let threads = 4;
        let mut b = GelfBuilder::new("main");
        let result = b.data_u64(&[0]);
        emit_parallel_main(&mut b, threads, result);
        b.asm.label("body");
        b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
        b.asm.alu_ri(AluOp::Add, Gpr::RAX, 1);
        emit_atomic_accumulate(&mut b, result, Gpr::RAX);
        b.asm.ret();
        let bin = b.finish().unwrap();
        let mut i = Interp::new(&bin);
        i.run(1_000_000).unwrap();
        assert_eq!(i.exit_val(0), 1 + 2 + 3 + 4);
    }

    #[test]
    fn counted_loop_iterates_exactly() {
        let mut b = GelfBuilder::new("main");
        let result = b.data_u64(&[0]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, 0);
        let l = CountedLoop::begin(&mut b, "k", Gpr::RCX, Some(37));
        b.asm.alu_ri(AluOp::Add, Gpr::RAX, 2);
        l.end(&mut b);
        b.asm.mov_ri(Gpr::RDX, result);
        b.asm.store(Gpr::RDX, 0, Gpr::RAX);
        b.asm.hlt();
        let bin = b.finish().unwrap();
        let mut i = Interp::new(&bin);
        i.run(100_000).unwrap();
        assert_eq!(i.exit_val(0), 74);
    }
}
