//! One pass over a workload: for every program, in order,
//! `Emulator::new` → configure → `run`, on one host thread (closed loop,
//! one client). Only that region is on the clock; the oracle comparison
//! and the count extraction happen with the clock stopped.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use risotto_core::{Report, TraceEvent, TraceSink, TraceStage};

use crate::calibrate::{CalibratedClock, Calibrator};
use crate::oracle::{self, Expected};
use crate::trace::SpanLog;
use crate::workloads::{self, Program, Workload};

/// Registry counters (docs/METRICS.md) read after every run. Together
/// with cycles, code bytes and the TB count they are the simulated side
/// of a run: all of them must repeat exactly from pass to pass.
pub const COUNTERS: [&str; 26] = [
    "translate.blocks",
    "translate.retranslations",
    "translate.fallback_blocks",
    "translate.insns",
    "template.blocks",
    "template.insns",
    "template.promotions",
    "opt.folded",
    "opt.loads_forwarded",
    "opt.fences_merged",
    "opt.dce_removed",
    "chain.hits",
    "chain.links",
    "jcache.hits",
    "jcache.misses",
    "exec.insns",
    "exec.atomics",
    "fence.exec.cycles",
    "engine.syscalls",
    "sb.promotions",
    "sb.fences_merged_cross",
    "verify.violations",
    "analysis.relaxed",
    "analysis.poisons",
    "regalloc.spills",
    "regalloc.env_loads_eliminated",
];

/// Slots of a [`Counts`] vector ahead of the [`COUNTERS`].
const FROM_REPORT: [&str; 3] = ["sim_cycles", "code_bytes", "tb_count"];

/// The deterministic counts of one run (or their sum over a pass):
/// `Report.cycles`, `Report.code_bytes`, `Report.tb_count`, then every
/// registry counter of [`COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; FROM_REPORT.len() + COUNTERS.len()]);

impl Counts {
    fn zero() -> Counts {
        Counts([0; FROM_REPORT.len() + COUNTERS.len()])
    }

    /// The count called `name` (a [`COUNTERS`] entry, `sim_cycles`,
    /// `code_bytes` or `tb_count`).
    pub fn get(&self, name: &str) -> u64 {
        let i = FROM_REPORT.iter().chain(&COUNTERS).position(|n| *n == name);
        self.0[i.unwrap_or_else(|| panic!("`{name}` is not a recorded count"))]
    }

    /// Name of the first slot in which `self` and `other` differ.
    fn first_difference(&self, other: &Counts) -> Option<&'static str> {
        let i = self.0.iter().zip(&other.0).position(|(a, b)| a != b)?;
        FROM_REPORT.iter().chain(&COUNTERS).nth(i).copied()
    }
}

/// What one pass produced.
#[derive(Debug)]
pub struct PassResult {
    /// Host wall time of the timed regions, summed over the programs.
    pub wall: Duration,
    /// The timed region of each program in calibrated seconds (see
    /// [`CalibratedClock`]), in program order.
    pub calibrated: Vec<f64>,
    /// Counts summed over the programs.
    pub total: Counts,
    /// Counts of each program, in program order.
    pub per_program: Vec<Counts>,
    /// Failed operations: program name and what differed.
    pub failures: Vec<String>,
}

/// Collects the guest pc of every translation the engine performs,
/// split by the tier that performed it.
#[derive(Debug, Default)]
pub struct DecodedPcs {
    /// Blocks that went through the tier-1 IR pipeline, in order.
    pub tier1: Vec<u64>,
    /// Blocks instantiated from tier-0 templates, in order.
    pub tier0: Vec<u64>,
}

/// The benchmark's own [`TraceSink`]: keeps `Decode` events, drops the
/// rest.
struct PcSink(Rc<RefCell<DecodedPcs>>);

impl TraceSink for PcSink {
    fn record(&mut self, event: &TraceEvent) {
        if event.stage != TraceStage::Decode {
            return;
        }
        let Some(pc) = event.guest_pc else { return };
        let mut pcs = self.0.borrow_mut();
        // Both tiers announce a block as `Decode`; the template tier
        // says so in the event's detail.
        if event.detail.starts_with("tier-0") {
            pcs.tier0.push(pc);
        } else {
            pcs.tier1.push(pc);
        }
    }
}

/// The traced pass's extras: spans around each phase and the decoded
/// pcs of every program, for the replay.
#[derive(Debug)]
pub struct PassTrace {
    /// Spans of the live run: `program` ⊃ `core.emu_new`,
    /// `core.configure`, `core.run`.
    pub spans: SpanLog,
    /// Per program, what the engine translated.
    pub decoded: Vec<DecodedPcs>,
}

/// Runs one pass. With `trace`, every program additionally gets the
/// benchmark's sink installed and its phases recorded as spans.
pub fn run_pass(
    workload: Workload,
    programs: &[Program],
    expected: &[Expected],
    calibrator: &mut Calibrator,
    mut trace: Option<&mut PassTrace>,
) -> PassResult {
    let mut clock = CalibratedClock::start(calibrator);
    let mut result = PassResult {
        wall: Duration::ZERO,
        calibrated: Vec::new(),
        total: Counts::zero(),
        per_program: Vec::with_capacity(programs.len()),
        failures: Vec::new(),
    };
    for (i, (p, want)) in programs.iter().zip(expected).enumerate() {
        let pcs = trace.is_some().then(|| Rc::new(RefCell::new(DecodedPcs::default())));

        let t0 = Instant::now();
        let mut emu = workloads::new_emulator(p);
        let t1 = Instant::now();
        workloads::configure(workload, &mut emu);
        if let Some(pcs) = &pcs {
            emu.set_trace_sink(Box::new(PcSink(Rc::clone(pcs))));
        }
        let t2 = Instant::now();
        let run = emu.run(u64::MAX / 4);
        let t3 = Instant::now();

        if let Err(why) = oracle::check(want, &run, &emu) {
            result.failures.push(format!("{}: {why}", p.name));
        }
        let counts = counts_of(run.as_ref().ok(), &mut emu);
        for (sum, c) in result.total.0.iter_mut().zip(counts.0) {
            *sum += c;
        }
        result.per_program.push(counts);

        // Freeing the emulator is part of what a run costs.
        let t4 = Instant::now();
        drop(emu);
        let timed = (t3 - t0) + t4.elapsed();
        result.wall += timed;
        clock.add(timed);

        if let (Some(tr), Some(pcs)) = (trace.as_deref_mut(), pcs) {
            let program = tr.spans.record("program", i, None, t0, t3);
            tr.spans.record("core.emu_new", i, Some(program), t0, t1);
            tr.spans.record("core.configure", i, Some(program), t1, t2);
            tr.spans.record("core.run", i, Some(program), t2, t3);
            tr.decoded.push(std::mem::take(&mut pcs.borrow_mut()));
        }
    }
    result.calibrated = clock.finish();
    result
}

fn counts_of(report: Option<&Report>, emu: &mut risotto_core::Emulator) -> Counts {
    let mut c = Counts::zero();
    if let Some(r) = report {
        c.0[0] = r.cycles;
        c.0[1] = r.code_bytes as u64;
        c.0[2] = r.tb_count as u64;
    }
    let snap = emu.metrics();
    for (slot, name) in c.0[FROM_REPORT.len()..].iter_mut().zip(COUNTERS) {
        *slot = snap.counter(name);
    }
    c
}

/// The determinism self-check: `pass` must reproduce `first` count for
/// count, program by program.
///
/// # Errors
///
/// The first program that differs, and in which count.
pub fn check_deterministic(
    programs: &[Program],
    first: &PassResult,
    pass: &PassResult,
    which: &str,
) -> Result<(), String> {
    for ((p, a), b) in programs.iter().zip(&first.per_program).zip(&pass.per_program) {
        if let Some(name) = a.first_difference(b) {
            return Err(format!(
                "determinism self-check failed: program `{}` differs in `{name}` between the \
                 warm-up pass ({}) and {which} ({})",
                p.name,
                a.get(name),
                b.get(name)
            ));
        }
    }
    Ok(())
}
