//! The traced run's per-layer side: spans, the block replay, and the
//! synthetic machine loops.
//!
//! Everything is measured from outside, through the crates' public
//! functions. The replay feeds every block the live run translated
//! through the same functions the engine calls, with the same
//! configuration, one stage at a time; a stage's inputs are prepared
//! before its span opens (blocks are cloned before the optimizer is
//! timed, bytes are encoded before the encoding check is timed).

use std::hint::black_box;
use std::time::Instant;

use risotto_analysis::{analyze_image, ir_hints};
use risotto_core::{BackendKind, PassConfig, RmwStyle};
use risotto_guest_x86::{Insn, TEXT_BASE};
use risotto_host_arm::{ACond, AOp, BackendConfig, Dmb, Event, HostInsn, Machine, MemOrder, Xreg};
use risotto_tcg::verify::{check_obligations_masked, lint, relax_block};
use risotto_tcg::{
    apply_hints, optimize_with, translate_block, FrontendConfig, OptPolicy, OptStats, TcgBlock,
};
use risotto_template::translate_block_template;

use crate::json::Json;
use crate::pass::DecodedPcs;
use crate::workloads::{Program, Workload};

/// One span: what ran, for which program, caused by which span, when.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    program: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the benchmark ends. A span's id is its
/// index; the spans of one guest program share its program number.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        program: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, program, parent, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    /// Opens a span that [`SpanLog::close`] ends.
    fn open(&mut self, name: &'static str, program: usize) -> usize {
        let now = Instant::now();
        self.record(name, program, None, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` and records it as a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        program: usize,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, program, Some(parent), start, Instant::now());
        r
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// The trace file: one row per span, `[name, program, parent,
    /// start_ns, end_ns]`, row index = span id.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_owned()),
                    Json::Num(s.program as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        let columns = ["name", "program", "parent", "start_ns", "end_ns"];
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(workload.to_owned())),
            ("seed".to_owned(), Json::Num(seed as f64)),
            (
                "columns".to_owned(),
                Json::Arr(columns.iter().map(|c| Json::Str((*c).to_owned())).collect()),
            ),
            ("spans".to_owned(), Json::Arr(rows)),
        ])
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// Names of the replay's stage spans, `<crate>.<stage>`.
pub mod stage {
    /// `Insn::decode` over each block's bytes.
    pub const DECODE: &str = "guest_x86.decode";
    /// `translate_block`.
    pub const FRONTEND: &str = "tcg.frontend";
    /// `optimize_with`.
    pub const OPT: &str = "tcg.opt";
    /// `lint` + `check_obligations_masked`.
    pub const VERIFY: &str = "tcg.verify";
    /// `lower_block_with_stats` on the Arm backend.
    pub const LOWER_ARM: &str = "host_arm.lower";
    /// `check_encoding` on the Arm backend.
    pub const VERIFY_ENCODING: &str = "host_arm.verify_encoding";
    /// `Machine::install_code` + `map_tb`.
    pub const INSTALL: &str = "host_arm.install";
    /// `lower_block_with_stats` on the TSO backend.
    pub const LOWER_TSO: &str = "host_tso.lower";
    /// `translate_block_template`.
    pub const TEMPLATE: &str = "template.translate";
    /// `analyze_image`.
    pub const ANALYZE: &str = "analysis.analyze";
}

/// Counts the replay takes at the stage boundaries.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Blocks replayed through the tier-1 stages.
    pub blocks: u64,
    /// Guest instructions in those blocks.
    pub insns: u64,
    /// IR ops the frontend emitted.
    pub frontend_ops: u64,
    /// IR ops left after the optimizer.
    pub opt_ops: u64,
    /// What the optimizer did.
    pub opt: OptStats,
    /// Host instructions the Arm backend emitted.
    pub host_insns: u64,
    /// Temp values spilled by the Arm register allocator.
    pub spills: u64,
    /// Env loads the Arm register allocator avoided.
    pub env_loads_eliminated: u64,
    /// Bytes installed into the scratch machines.
    pub code_bytes: u64,
    /// Blocks replayed through the template translator.
    pub template_blocks: u64,
    /// Guest instructions in those blocks.
    pub template_insns: u64,
    /// Host instructions the template translator emitted.
    pub template_host_insns: u64,
    /// Images analysed.
    pub images: u64,
}

/// The engine's instruction window: 16 bytes at `addr`, zero-padded
/// outside `.text`.
fn fetcher(text: &[u8]) -> impl Fn(u64) -> [u8; 16] + '_ {
    move |addr| {
        let mut w = [0u8; 16];
        let off = addr.checked_sub(TEXT_BASE).and_then(|o| usize::try_from(o).ok());
        if let Some(tail) = off.and_then(|o| text.get(o..)) {
            for (slot, byte) in w.iter_mut().zip(tail) {
                *slot = *byte;
            }
        }
        w
    }
}

/// Replays every block the live run of `workload` translated, stage by
/// stage, into `spans` (one `replay` span per program, one child per
/// stage).
///
/// # Errors
///
/// A block the live run translated that a stage now rejects — the
/// replay is then not timing the work the engine did.
pub fn replay(
    workload: Workload,
    programs: &[Program],
    decoded: &[DecodedPcs],
    spans: &mut SpanLog,
) -> Result<ReplayCounts, String> {
    let frontend = FrontendConfig::risotto();
    let policy = OptPolicy::Verified;
    let backend = BackendConfig::dbt(RmwStyle::Casal);
    let arm = BackendKind::Arm;
    let tso = BackendKind::Tso;
    let analysis = workload == Workload::MixedTiered;
    let mut counts = ReplayCounts::default();

    for (i, (p, pcs)) in programs.iter().zip(decoded).enumerate() {
        let fail = |stage: &str, what: String| format!("replay of `{}`: {stage}: {what}", p.name);
        let fetch = fetcher(&p.bin.text);
        let replay = spans.open("replay", i);

        let mut blocks = spans
            .time(stage::FRONTEND, i, replay, || {
                pcs.tier1.iter().map(|&pc| translate_block(pc, frontend, &fetch)).collect::<Result<
                    Vec<TcgBlock>,
                    _,
                >>(
                )
            })
            .map_err(|e| fail(stage::FRONTEND, format!("{e:?}")))?;
        counts.blocks += blocks.len() as u64;
        counts.frontend_ops += blocks.iter().map(|b| b.ops.len() as u64).sum::<u64>();

        counts.insns += spans.time(stage::DECODE, i, replay, || {
            let mut n = 0u64;
            for b in &blocks {
                let end = b.guest_pc + b.guest_len as u64;
                let mut pc = b.guest_pc;
                while pc < end {
                    let Ok((insn, len)) = Insn::decode(&fetch(pc)) else { break };
                    black_box(insn);
                    n += 1;
                    pc += len as u64;
                }
            }
            n
        });

        // What the engine does between frontend and optimizer when
        // analysis is on: relax the block by the facts' mask, then fold
        // the known-bits hints. The unrelaxed block stays behind as the
        // verifier's reference.
        let reference = blocks.clone();
        let mut masks: Vec<Vec<bool>> = vec![Vec::new(); blocks.len()];
        if analysis {
            let facts = spans.time(stage::ANALYZE, i, replay, || analyze_image(&p.bin));
            counts.images += 1;
            for (b, mask) in blocks.iter_mut().zip(&mut masks) {
                *mask = facts.relax_mask(b.guest_pc, b.guest_len as u64, &fetch);
                relax_block(b, frontend.fences, mask);
                let hints = ir_hints(b);
                apply_hints(b, &hints);
            }
        }

        spans.time(stage::OPT, i, replay, || {
            for b in &mut blocks {
                counts.opt += optimize_with(b, policy, PassConfig::all());
            }
        });
        counts.opt_ops += blocks.iter().map(|b| b.ops.len() as u64).sum::<u64>();

        let lowered = spans
            .time(stage::LOWER_ARM, i, replay, || {
                blocks
                    .iter()
                    .map(|b| arm.host().lower_block_with_stats(b, backend))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| fail(stage::LOWER_ARM, format!("{e:?}")))?;
        for out in &lowered {
            counts.host_insns += out.insns.len() as u64;
            counts.spills += out.alloc.spills;
            counts.env_loads_eliminated += out.alloc.env_loads_eliminated;
        }

        spans
            .time(stage::LOWER_TSO, i, replay, || {
                blocks.iter().try_for_each(|b| {
                    tso.host().lower_block_with_stats(b, backend).map(|out| {
                        black_box(out);
                    })
                })
            })
            .map_err(|e| fail(stage::LOWER_TSO, format!("{e:?}")))?;

        spans
            .time(stage::VERIFY, i, replay, || {
                reference.iter().zip(&blocks).zip(&masks).try_for_each(|((r, b), mask)| {
                    lint(b, false)?;
                    check_obligations_masked(r, b, frontend.fences, policy, mask)
                })
            })
            .map_err(|e| fail(stage::VERIFY, e.to_string()))?;

        let bytes: Vec<Vec<u8>> = lowered
            .iter()
            .map(|out| {
                let mut bytes = Vec::new();
                for insn in &out.insns {
                    insn.encode(&mut bytes);
                }
                bytes
            })
            .collect();
        counts.code_bytes += bytes.iter().map(|b| b.len() as u64).sum::<u64>();

        spans
            .time(stage::VERIFY_ENCODING, i, replay, || {
                blocks.iter().zip(&lowered).zip(&bytes).try_for_each(|((b, out), bytes)| {
                    arm.host().check_encoding(b, &out.insns, bytes, backend)
                })
            })
            .map_err(|e| fail(stage::VERIFY_ENCODING, e.to_string()))?;

        let mut machine = Machine::new(1, arm.cost_model());
        spans.time(stage::INSTALL, i, replay, || {
            for (b, out) in blocks.iter().zip(&lowered) {
                let host = machine.install_code(&out.insns);
                machine.map_tb(b.guest_pc, host);
            }
        });

        // Where the template tier ran, replay what it translated;
        // elsewhere replay it over the tier-1 blocks, which is what
        // `core.ir_overhead_ratio` compares.
        let template_pcs = if pcs.tier0.is_empty() { &pcs.tier1 } else { &pcs.tier0 };
        let templates = spans
            .time(stage::TEMPLATE, i, replay, || {
                template_pcs
                    .iter()
                    .map(|&pc| {
                        translate_block_template(pc, frontend, backend, arm.ordering(), &fetch)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| fail(stage::TEMPLATE, format!("{e:?}")))?;
        for t in &templates {
            counts.template_blocks += 1;
            counts.template_insns += t.insns as u64;
            counts.template_host_insns += t.code.len() as u64;
        }

        spans.close(replay);
    }
    Ok(counts)
}

/// The synthetic machine loops: metric name, simulated cores, loop body.
/// Every loop counts `X0` down around its body, the `machine_100k_steps`
/// shape of `crates/bench/benches/pipeline.rs`.
fn machine_loops() -> [(&'static str, usize, Vec<HostInsn>); 5] {
    let (x1, x2, x3) = (Xreg(1), Xreg(2), Xreg(3));
    let alu = vec![HostInsn::Alu { op: AOp::Add, dst: x2, a: x2, b: x3 }];
    [
        ("host_arm.machine_step_ns.alu", 1, alu.clone()),
        (
            "host_arm.machine_step_ns.mem",
            1,
            vec![
                HostInsn::Ldr { dst: x2, base: x1, off: 0, order: MemOrder::Plain },
                HostInsn::Str { src: x2, base: x1, off: 8, order: MemOrder::Plain },
            ],
        ),
        (
            "host_arm.machine_step_ns.fence",
            1,
            vec![
                HostInsn::Str { src: x2, base: x1, off: 0, order: MemOrder::Plain },
                HostInsn::Barrier(Dmb::Ff),
            ],
        ),
        (
            "host_arm.machine_step_ns.rmw",
            1,
            vec![
                HostInsn::Ldr { dst: x2, base: x1, off: 0, order: MemOrder::Plain },
                HostInsn::AluImm { op: AOp::Add, dst: x3, a: x2, imm: 1 },
                HostInsn::Cas { cmp_old: x2, new: x3, addr: x1, acq_rel: true },
            ],
        ),
        ("host_arm.machine_step_ns.alu_cores4", 4, alu),
    ]
}

/// Steps each synthetic loop directly on `Machine::run` and returns
/// `(metric name, ns per simulated host instruction)`.
pub fn machine_step_ns(steps_per_loop: u64) -> Vec<(&'static str, f64)> {
    machine_loops()
        .into_iter()
        .map(|(name, cores, body)| {
            let tail = [
                HostInsn::AluImm { op: AOp::Sub, dst: Xreg(0), a: Xreg(0), imm: 1 },
                HostInsn::CmpImm { a: Xreg(0), imm: 0 },
            ];
            let per_iter = (body.len() + tail.len() + 1) as u64;
            let iters = steps_per_loop / (per_iter * cores as u64) + 1;
            // The back edge is relative to the next instruction, in
            // encoded bytes.
            let mut scratch = Vec::new();
            let back: usize =
                body.iter().chain(&tail).map(|i| i.encode(&mut scratch)).sum::<usize>()
                    + HostInsn::BCond { cond: ACond::Ne, rel: 0 }.encode(&mut scratch);
            let mut code = vec![HostInsn::MovImm { dst: Xreg(0), imm: iters }];
            code.extend(body);
            code.extend(tail);
            code.push(HostInsn::BCond { cond: ACond::Ne, rel: -(back as i32) });
            code.push(HostInsn::Hlt);

            let mut m = Machine::new(cores, BackendKind::Arm.cost_model());
            let entry = m.install_code(&code);
            for core in 0..cores {
                m.set_reg(core, Xreg(1), 0x10_0000 + core as u64 * 4096);
                m.start_core(core, entry);
            }
            let t0 = Instant::now();
            let event = m.run(u64::MAX / 4);
            let wall = t0.elapsed();
            assert_eq!(event, Event::AllHalted, "machine loop `{name}` did not halt");
            (name, wall.as_nanos() as f64 / m.total_steps() as f64)
        })
        .collect()
}
