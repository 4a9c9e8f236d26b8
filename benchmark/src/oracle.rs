//! The correctness oracle: every program's expected result comes from
//! `risotto_guest_x86::Interp`, which shares no code with any DBT layer.
//!
//! Multi-core programs are compared the way `risotto_fuzz::diff` compares
//! them — exit values, `WRITE` output and final `.data` words — which are
//! schedule-invariant by construction for every program the workloads
//! build (disjoint slices, commutative atomic reductions).

use risotto_core::{EmuError, Emulator, Report};
use risotto_guest_x86::{Interp, DATA_BASE};

use crate::workloads::Program;

/// What a correct run of one program must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Exit value per core.
    pub exit_vals: Vec<Option<u64>>,
    /// Bytes written through the `WRITE` syscall.
    pub output: Vec<u8>,
    /// The program's final `.data` words.
    pub data: Vec<u64>,
    /// Instructions the interpreter executed: the program's nominal
    /// guest-instruction count, the numerator of `guest_mips`.
    pub guest_insns: u64,
}

/// Runs `p` on the reference interpreter.
///
/// # Errors
///
/// The interpreter's error, if the program does not run to completion —
/// a broken workload, not a failed operation.
pub fn reference(p: &Program) -> Result<Expected, String> {
    let mut interp = Interp::new(&p.bin);
    interp.run(u64::MAX / 4).map_err(|e| format!("{}: reference interpreter: {e:?}", p.name))?;
    Ok(Expected {
        exit_vals: (0..p.cores).map(|t| Some(interp.exit_val(t))).collect(),
        output: std::mem::take(&mut interp.output),
        data: (0..p.data_words).map(|i| interp.mem.read_u64(DATA_BASE + i as u64 * 8)).collect(),
        guest_insns: interp.steps(),
    })
}

/// Compares one finished emulator run against `expected`. `Err` names
/// the first thing that differs; the operation then counts as failed.
pub fn check(
    expected: &Expected,
    run: &Result<Report, EmuError>,
    emu: &Emulator,
) -> Result<(), String> {
    let report = run.as_ref().map_err(|e| format!("run failed: {e}"))?;
    if report.exit_vals != expected.exit_vals {
        return Err(format!("exit values {:?} != {:?}", report.exit_vals, expected.exit_vals));
    }
    if report.output != expected.output {
        return Err(format!(
            "WRITE output differs ({} bytes, expected {})",
            report.output.len(),
            expected.output.len()
        ));
    }
    let mem = emu.mem();
    for (i, &want) in expected.data.iter().enumerate() {
        let got = mem.read_u64(DATA_BASE + i as u64 * 8);
        if got != want {
            return Err(format!(".data word {i}: {got:#x} != {want:#x}"));
        }
    }
    Ok(())
}
