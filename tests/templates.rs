//! Acceptance tests for the tier-0 IR-less template translator (the
//! PR's tentpole).
//!
//! The contract comes in three layers, mirroring how the Fig. 7/8
//! mapping schemes are verified:
//!
//! 1. **Stream equivalence** — for every guest instruction kind, every
//!    frontend fence scheme, both RMW styles and both host backends, the
//!    template's ordering-relevant instruction stream (fences, guest
//!    memory accesses, exclusives, CAS/LDADD, helper calls) is identical
//!    to what the tier-1 frontend + unoptimized backend lowering emits;
//!    and every template instantiated for the TSO backend stays inside
//!    the MiniTSO dialect (tier-0 code has no IR, so Pass 3's dialect
//!    restriction never sees it at runtime).
//! 2. **Theorem 1 per template** — the templates themselves, projected
//!    to litmus instructions, form a mapping scheme; that scheme is run
//!    through the executable Theorem-1 checker against the axiomatic
//!    models, per backend, exactly like the Fig. 7 schemes. This is the
//!    *static* verification that lets tier-0 skip the per-block
//!    Pass 1/2 verifier at runtime.
//! 3. **End-to-end equivalence** — every kernel, CAS-grid and reproducer
//!    program ends as the reference interpreter ends under tier-0 alone
//!    and under the two-tier ladder, on every setup and both backends,
//!    with the Pass 3 install read-back at Full level (the tier-0 and
//!    ladder legs of the functional matrix, `theorem1/functional.rs`);
//!    plus a promotion/demotion churn test across both tiers. Litmus programs run through tier-0 alone
//!    stay within the x86-allowed behavior set on both backends (the
//!    tier-0 legs of the `theorem1` litmus matrix).

mod theorem1;

use risotto::core::{BackendKind, EmuConfig, Emulator, FaultPlan, FaultSite, Setup};
use risotto::guest::{AluOp, Cond, FpOp, GelfBuilder, Gpr, Insn, Operand};
use risotto::host::{
    ArmBackend, BackendConfig, Dmb, HostBackend, HostInsn, MemOrder, RmwStyle, ENV_BASE, SPILL_BASE,
};
use risotto::host_tso::TsoBackend;
use risotto::litmus::{corpus, Instr, Program, RmwKind};
use risotto::mappings::check::check_mapping;
use risotto::mappings::scheme::MappingScheme;
use risotto::memmodel::{Arm, FenceKind, X86Tso};
use risotto::tcg::{translate_block, FrontendConfig};
use risotto::template::insn_template;
use risotto::template::translate_block_template;

const FUEL: u64 = 2_000_000_000;

/// Serves `bytes` as guest text at `base` (decode windows zero-padded).
fn fetch_of(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
    move |pc| {
        let mut w = [0u8; 16];
        if let Some(off) = pc.checked_sub(base).and_then(|o| usize::try_from(o).ok()) {
            for (i, slot) in w.iter_mut().enumerate() {
                if let Some(&b) = bytes.get(off + i) {
                    *slot = b;
                }
            }
        }
        w
    }
}

// ---------------------------------------------------------------------
// 1. Stream equivalence: templates vs tier-1, per instruction kind
// ---------------------------------------------------------------------

/// One representative of every guest instruction kind (and of every
/// sub-case that changes the emitted template: each ALU op, each FP op,
/// each condition, reg vs imm operands, zero vs non-zero displacement).
fn insn_matrix() -> Vec<Insn> {
    let mut m = vec![
        Insn::MovRI { dst: Gpr::RAX, imm: 0x1234_5678_9abc_def0 },
        Insn::MovRR { dst: Gpr::RBX, src: Gpr::RCX },
        Insn::Load { dst: Gpr::RAX, base: Gpr::RBX, disp: 0 },
        Insn::Load { dst: Gpr::RAX, base: Gpr::RBX, disp: 24 },
        Insn::Store { base: Gpr::RBX, disp: 0, src: Gpr::RAX },
        Insn::Store { base: Gpr::RBX, disp: -8, src: Gpr::RAX },
        Insn::LoadB { dst: Gpr::RCX, base: Gpr::RDX, disp: 3 },
        Insn::StoreB { base: Gpr::RDX, disp: 5, src: Gpr::RCX },
        Insn::Lea { dst: Gpr::RSI, base: Gpr::RDI, disp: 40 },
        Insn::MulWide { src: Gpr::RBX },
        Insn::Div { src: Gpr::RCX },
        Insn::Cmp { a: Gpr::RAX, b: Operand::Reg(Gpr::RBX) },
        Insn::Cmp { a: Gpr::RAX, b: Operand::Imm(7) },
        Insn::Test { a: Gpr::RAX, b: Operand::Reg(Gpr::RBX) },
        Insn::LockCmpxchg { base: Gpr::RBX, disp: 0, src: Gpr::RCX },
        Insn::LockCmpxchg { base: Gpr::RBX, disp: 16, src: Gpr::RCX },
        Insn::LockXadd { base: Gpr::RBX, disp: 0, src: Gpr::RCX },
        Insn::Mfence,
        Insn::Nop,
        Insn::Jmp { rel: 32 },
        Insn::JmpReg { reg: Gpr::RAX },
        Insn::Call { rel: -16 },
        Insn::CallReg { reg: Gpr::RBX },
        Insn::Ret,
        Insn::Push { src: Gpr::RBP },
        Insn::Pop { dst: Gpr::RBP },
        Insn::Hlt,
        Insn::Syscall,
    ];
    for op in [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Mul,
    ] {
        m.push(Insn::Alu { op, dst: Gpr::RAX, src: Operand::Reg(Gpr::RBX) });
        m.push(Insn::Alu { op, dst: Gpr::RAX, src: Operand::Imm(13) });
    }
    for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div, FpOp::Sqrt, FpOp::CvtIF, FpOp::CvtFI] {
        m.push(Insn::Fp { op, dst: Gpr::RAX, src: Gpr::RBX });
    }
    for cond in [
        Cond::E,
        Cond::Ne,
        Cond::L,
        Cond::Ge,
        Cond::Le,
        Cond::G,
        Cond::B,
        Cond::Ae,
        Cond::Be,
        Cond::A,
        Cond::S,
        Cond::Ns,
    ] {
        m.push(Insn::Jcc { cond, rel: 8 });
    }
    m
}

fn is_terminator(i: &Insn) -> bool {
    matches!(
        i,
        Insn::Jcc { .. }
            | Insn::Jmp { .. }
            | Insn::JmpReg { .. }
            | Insn::Call { .. }
            | Insn::CallReg { .. }
            | Insn::Ret
            | Insn::Hlt
            | Insn::Syscall
    )
}

/// An ordering-relevant event in a host instruction stream. Env/spill
/// traffic (`[ENV_BASE + …]`, `[SPILL_BASE + …]`) is private to the
/// translation and filtered out; everything the memory model can see is
/// kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Fence(Dmb),
    Access { load: bool, byte: bool, order: MemOrder },
    Ldxr { acquire: bool },
    Stxr { release: bool },
    Cas { acq_rel: bool },
    Ldadd,
    Hcall(u8),
}

fn project(insns: &[HostInsn]) -> Vec<Ev> {
    let mut out = Vec::new();
    for i in insns {
        match *i {
            HostInsn::Barrier(d) => out.push(Ev::Fence(d)),
            HostInsn::Ldr { base, order, .. } if base != ENV_BASE && base != SPILL_BASE => {
                out.push(Ev::Access { load: true, byte: false, order });
            }
            HostInsn::Str { base, order, .. } if base != ENV_BASE && base != SPILL_BASE => {
                out.push(Ev::Access { load: false, byte: false, order });
            }
            HostInsn::LdrB { base, .. } if base != ENV_BASE && base != SPILL_BASE => {
                out.push(Ev::Access { load: true, byte: true, order: MemOrder::Plain });
            }
            HostInsn::StrB { base, .. } if base != ENV_BASE && base != SPILL_BASE => {
                out.push(Ev::Access { load: false, byte: true, order: MemOrder::Plain });
            }
            HostInsn::Ldxr { acquire, .. } => out.push(Ev::Ldxr { acquire }),
            HostInsn::Stxr { release, .. } => out.push(Ev::Stxr { release }),
            HostInsn::Cas { acq_rel, .. } => out.push(Ev::Cas { acq_rel }),
            HostInsn::LdaddAl { .. } => out.push(Ev::Ldadd),
            HostInsn::Hcall { helper } => out.push(Ev::Hcall(helper)),
            _ => {}
        }
    }
    out
}

/// The four frontend fence schemes a template can be instantiated under.
fn frontend_schemes() -> [(&'static str, FrontendConfig); 4] {
    [
        ("qemu", FrontendConfig::qemu()),
        ("risotto", FrontendConfig::risotto()),
        ("tcg-ver", FrontendConfig::tcg_ver()),
        ("no-fences", FrontendConfig::no_fences()),
    ]
}

/// Every template's ordering-relevant stream equals tier-1's, across
/// all four frontend fence schemes, both RMW styles and both backends.
/// This pins the templates to the *same* verified mapping placement the
/// IR pipeline implements — including the deliberately erroneous QEMU
/// and no-fences schemes, which tier-0 must reproduce, bugs and all.
#[test]
fn template_streams_match_tier1_ordering_projection() {
    let hosts: [&dyn HostBackend; 2] = [&ArmBackend, &TsoBackend];
    let mut checked = 0usize;
    for host in hosts {
        for (cname, cfg) in frontend_schemes() {
            for rmw in [RmwStyle::Casal, RmwStyle::Rmw2Fenced] {
                let bcfg = BackendConfig::dbt(rmw);
                for insn in insn_matrix() {
                    let mut bytes = Vec::new();
                    insn.encode(&mut bytes);
                    if !is_terminator(&insn) {
                        Insn::Hlt.encode(&mut bytes);
                    }
                    let fetch = fetch_of(bytes, 0x4000);
                    let block = translate_block(0x4000, cfg, &fetch)
                        .unwrap_or_else(|e| panic!("{insn:?}: tier-1 frontend: {e}"));
                    let tier1 = host
                        .lower_block_with_stats(&block, bcfg)
                        .unwrap_or_else(|e| panic!("{insn:?}: tier-1 lowering: {e}"))
                        .insns;
                    let tier0 = translate_block_template(0x4000, cfg, bcfg, host, &fetch)
                        .unwrap_or_else(|e| panic!("{insn:?}: template: {e}"))
                        .code;
                    assert_eq!(
                        project(&tier0),
                        project(&tier1),
                        "{insn:?} under {cname}/{}/{rmw:?}: \
                         template ordering stream diverges from tier-1",
                        host.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    // 28 singleton kinds + 18 ALU + 7 FP + 12 Jcc = 65 per combination.
    assert_eq!(checked, 65 * 2 * 4 * 2, "matrix did not cover the full template table");
}

/// Tier-0 code has no IR, so the engine never runs Pass 3's dialect
/// restriction on it; the template table is finite, so it is checked
/// here instead, once. Every template instantiated for the TSO backend
/// stays inside the MiniTSO instruction subset, under every frontend
/// scheme and both RMW styles. Negative control: the RMW templates
/// instantiated for Arm under `Rmw2Fenced` are exclusive-pair loops and
/// must fail the same check.
#[test]
fn tso_templates_stay_inside_the_tso_dialect() {
    for (cname, cfg) in frontend_schemes() {
        for rmw in [RmwStyle::Casal, RmwStyle::Rmw2Fenced] {
            for insn in insn_matrix() {
                let code = insn_template(&insn, 0x4000, cfg, BackendConfig::dbt(rmw), &TsoBackend)
                    .unwrap_or_else(|e| panic!("{insn:?}: template: {e}"));
                assert_eq!(
                    TsoBackend.check_dialect(&code),
                    Ok(()),
                    "{insn:?} under {cname}/{rmw:?}: TSO template leaves the TSO dialect"
                );
            }
        }
    }
    let rmws = [
        Insn::LockCmpxchg { base: Gpr::RBX, disp: 0, src: Gpr::RCX },
        Insn::LockXadd { base: Gpr::RBX, disp: 0, src: Gpr::RCX },
    ];
    for insn in rmws {
        let bcfg = BackendConfig::dbt(RmwStyle::Rmw2Fenced);
        let code = insn_template(&insn, 0x4000, FrontendConfig::risotto(), bcfg, &ArmBackend)
            .unwrap_or_else(|e| panic!("{insn:?}: template: {e}"));
        let (at, what) = TsoBackend.check_dialect(&code).expect_err("exclusive pair accepted");
        assert!(matches!(code[at], HostInsn::Ldxr { .. }), "{insn:?}: flagged {:?}", code[at]);
        assert!(what.contains("exclusive-pair"), "{insn:?}: {what}");
    }
}

/// The shared x86→TCG table is the one oracle for three emitters: under
/// every frontend scheme and for every guest access form, the frontend's
/// IR, the tier-0 template (its fences lowered through
/// `HostBackend::fence`, on both backends) and the litmus scheme
/// `X86ToTcg::map_instr` place exactly the table's leading and trailing
/// fences around the access.
#[test]
fn emitters_place_the_tables_fences_around_every_access() {
    use risotto::litmus::Reg;
    use risotto::mappings::scheme::X86ToTcg;
    use risotto::memmodel::{GuestAccess, Loc};
    use risotto::tcg::TcgOp;
    let forms = [
        (Insn::Load { dst: Gpr::RAX, base: Gpr::RBX, disp: 24 }, GuestAccess::Load),
        (Insn::Store { base: Gpr::RBX, disp: -8, src: Gpr::RAX }, GuestAccess::Store),
        (Insn::LoadB { dst: Gpr::RCX, base: Gpr::RDX, disp: 3 }, GuestAccess::Load),
        (Insn::StoreB { base: Gpr::RDX, disp: 5, src: Gpr::RCX }, GuestAccess::Store),
        (Insn::Push { src: Gpr::RBP }, GuestAccess::Store),
        (Insn::Pop { dst: Gpr::RBP }, GuestAccess::Load),
        (Insn::Call { rel: -16 }, GuestAccess::Store),
        (Insn::Ret, GuestAccess::Load),
        (Insn::Mfence, GuestAccess::Mfence),
    ];
    // Each emitter's stream as fences in order, `None` standing for the
    // guest access itself.
    for (cname, cfg) in frontend_schemes() {
        for (insn, access) in forms {
            let (lead, trail) = cfg.fences.fences(access);
            let body = (access != GuestAccess::Mfence).then_some(None);
            let want: Vec<_> =
                [lead.map(Some), body, trail.map(Some)].into_iter().flatten().collect();

            let mut bytes = Vec::new();
            insn.encode(&mut bytes);
            if !is_terminator(&insn) {
                Insn::Hlt.encode(&mut bytes);
            }
            let block = translate_block(0x4000, cfg, fetch_of(bytes, 0x4000))
                .unwrap_or_else(|e| panic!("{insn:?}: tier-1 frontend: {e}"));
            let ir: Vec<_> = (block.ops.iter())
                .filter_map(|op| match op {
                    TcgOp::Fence(k) => Some(Some(*k)),
                    op => op.is_memory_access().then_some(None),
                })
                .collect();
            assert_eq!(ir, want, "{insn:?} under {cname}: frontend IR");

            let litmus = Program::builder("access").thread(|t| {
                match access {
                    GuestAccess::Load => t.load(Reg(0), Loc(0)),
                    GuestAccess::Store => t.store(Loc(0), 1),
                    GuestAccess::Mfence => t.fence(FenceKind::MFence),
                };
            });
            let mapped = X86ToTcg(cfg.fences).map_program(&litmus.build());
            let scheme: Vec<_> = (mapped.threads[0].instrs.iter())
                .map(|i| match i {
                    Instr::Fence(k) => Some(*k),
                    Instr::Load { .. } | Instr::Store { .. } => None,
                    other => panic!("{insn:?} under {cname}: X86ToTcg emitted {other:?}"),
                })
                .collect();
            assert_eq!(scheme, want, "{insn:?} under {cname}: X86ToTcg::map_instr");

            let hosts: [&dyn HostBackend; 2] = [&ArmBackend, &TsoBackend];
            for host in hosts {
                let lowered: Vec<_> = (want.iter())
                    .filter_map(|step| match step {
                        Some(k) => host.fence(*k).map(Some),
                        None => Some(None),
                    })
                    .collect();
                let bcfg = BackendConfig::dbt(RmwStyle::Casal);
                let code = insn_template(&insn, 0x4000, cfg, bcfg, host)
                    .unwrap_or_else(|e| panic!("{insn:?}: template: {e}"));
                let template: Vec<_> = (project(&code).into_iter())
                    .map(|ev| match ev {
                        Ev::Fence(d) => Some(HostInsn::Barrier(d)),
                        Ev::Access { .. } => None,
                        other => panic!("{insn:?} under {cname}: template emitted {other:?}"),
                    })
                    .collect();
                assert_eq!(template, lowered, "{insn:?} under {cname}/{}: template", host.name());
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Theorem 1 per template, per backend
// ---------------------------------------------------------------------

/// The templates as a litmus mapping scheme: each x86-level litmus
/// instruction is mapped by instantiating the *actual* template for a
/// representative guest instruction and projecting the host stream onto
/// the litmus alphabet of the target model.
struct TemplateScheme<'a> {
    nm: String,
    cfg: FrontendConfig,
    bcfg: BackendConfig,
    host: &'a dyn HostBackend,
    /// Projection alphabet: `true` targets the x86-TSO model (`MFENCE`,
    /// `X86Lock`), `false` the Arm model (`DMB*`, `casal`, exclusives).
    tso_host: bool,
}

impl TemplateScheme<'_> {
    fn fence_of(&self, d: Dmb) -> FenceKind {
        if self.tso_host {
            // The TSO dialect only ever emits the full barrier.
            assert_eq!(d, Dmb::Ff, "TSO templates must not emit partial barriers");
            FenceKind::MFence
        } else {
            match d {
                Dmb::Ld => FenceKind::DmbLd,
                Dmb::St => FenceKind::DmbSt,
                Dmb::Ff => FenceKind::DmbFf,
            }
        }
    }

    /// Instantiates the template for `g` and projects it around the
    /// litmus payload `body(out)` invoked once per guest memory event.
    fn walk(&self, g: &Insn, mut body: impl FnMut(&HostInsn, &mut Vec<Instr>)) -> Vec<Instr> {
        let host = insn_template(g, 0x4000, self.cfg, self.bcfg, self.host)
            .unwrap_or_else(|e| panic!("{}: template for {g:?}: {e}", self.nm));
        let mut out = Vec::new();
        let mut pending_acq = false;
        for i in &host {
            match *i {
                HostInsn::Barrier(d) => out.push(Instr::Fence(self.fence_of(d))),
                HostInsn::Ldxr { acquire, .. } => pending_acq = acquire,
                _ => body(i, &mut out),
            }
        }
        let _ = pending_acq;
        out
    }
}

impl MappingScheme for TemplateScheme<'_> {
    fn name(&self) -> &str {
        &self.nm
    }

    fn map_instr(&self, instr: &Instr) -> Vec<Instr> {
        use risotto::memmodel::AccessMode;
        match instr {
            Instr::Load { dst, loc, mode: AccessMode::Plain } => {
                let g = Insn::Load { dst: Gpr::RAX, base: Gpr::RBX, disp: 0 };
                self.walk(&g, |i, out| {
                    if let HostInsn::Ldr { base, .. } = *i {
                        if base != ENV_BASE && base != SPILL_BASE {
                            out.push(Instr::Load { dst: *dst, loc: *loc, mode: AccessMode::Plain });
                        }
                    }
                })
            }
            Instr::Store { loc, val, mode: AccessMode::Plain } => {
                let g = Insn::Store { base: Gpr::RBX, disp: 0, src: Gpr::RAX };
                self.walk(&g, |i, out| {
                    if let HostInsn::Str { base, .. } = *i {
                        if base != ENV_BASE && base != SPILL_BASE {
                            out.push(Instr::Store {
                                loc: *loc,
                                val: val.clone(),
                                mode: AccessMode::Plain,
                            });
                        }
                    }
                })
            }
            Instr::Rmw { dst, loc, expected, desired, kind: RmwKind::X86Lock } => {
                let g = Insn::LockCmpxchg { base: Gpr::RBX, disp: 0, src: Gpr::RCX };
                let rmw = |kind: RmwKind| Instr::Rmw {
                    dst: *dst,
                    loc: *loc,
                    expected: expected.clone(),
                    desired: desired.clone(),
                    kind,
                };
                let host = insn_template(&g, 0x4000, self.cfg, self.bcfg, self.host)
                    .unwrap_or_else(|e| panic!("{}: template for {g:?}: {e}", self.nm));
                let mut out = Vec::new();
                let mut pending_acq = false;
                for i in &host {
                    match *i {
                        HostInsn::Barrier(d) => out.push(Instr::Fence(self.fence_of(d))),
                        HostInsn::Cas { acq_rel, .. } => {
                            assert!(acq_rel, "{}: plain CAS in an RMW template", self.nm);
                            out.push(rmw(if self.tso_host {
                                RmwKind::X86Lock
                            } else {
                                RmwKind::ArmCasal
                            }));
                        }
                        HostInsn::Ldxr { acquire, .. } => pending_acq = acquire,
                        HostInsn::Stxr { release, .. } => {
                            out.push(rmw(RmwKind::ArmLxsx { acq: pending_acq, rel: release }));
                        }
                        HostInsn::Hcall { .. } => {
                            // The RMW helpers execute atomically with SC
                            // semantics on the simulated machine.
                            if self.tso_host {
                                out.push(rmw(RmwKind::X86Lock));
                            } else {
                                out.push(Instr::Fence(FenceKind::DmbFf));
                                out.push(rmw(RmwKind::ArmLxsx { acq: true, rel: true }));
                                out.push(Instr::Fence(FenceKind::DmbFf));
                            }
                        }
                        _ => {}
                    }
                }
                out
            }
            Instr::Fence(FenceKind::MFence) => self.walk(&Insn::Mfence, |_, _| {}),
            Instr::Let { .. } => vec![instr.clone()],
            other => panic!("{}: not an x86 instruction: {other:?}", self.nm),
        }
    }
}

fn theorem1_suite() -> Vec<Program> {
    vec![
        corpus::mp(),
        corpus::sb(),
        corpus::sb_fenced(),
        corpus::lb(),
        corpus::s_test(),
        corpus::mpq_x86(),
        corpus::sbq_x86(),
        corpus::sbal_x86(),
    ]
}

/// Every template of the verified configurations passes the executable
/// Theorem-1 check per backend: projected to litmus instructions, the
/// template translation of each corpus program (including the paper's
/// RMW counterexamples) introduces no new behavior under the corrected
/// Arm model, and none under x86-TSO for the TSO backend. This is the
/// static verification that replaces the per-block Pass 1/2 runs for
/// tier-0 code.
#[test]
fn verified_templates_satisfy_theorem1_per_backend() {
    let x86 = X86Tso::new();
    let arm = Arm::corrected();
    let cfgs = [("risotto", FrontendConfig::risotto()), ("tcg-ver", FrontendConfig::tcg_ver())];
    for prog in theorem1_suite() {
        for (cname, cfg) in cfgs {
            for rmw in [RmwStyle::Casal, RmwStyle::Rmw2Fenced] {
                let s = TemplateScheme {
                    nm: format!("tier0-templates({cname}/arm/{rmw:?})"),
                    cfg,
                    bcfg: BackendConfig::dbt(rmw),
                    host: &ArmBackend,
                    tso_host: false,
                };
                check_mapping(&s, &prog, &x86, &arm)
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", s.nm, prog.name));
            }
            let s = TemplateScheme {
                nm: format!("tier0-templates({cname}/tso)"),
                cfg,
                bcfg: BackendConfig::dbt(RmwStyle::Casal),
                host: &TsoBackend,
                tso_host: true,
            };
            check_mapping(&s, &prog, &x86, &x86)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", s.nm, prog.name));
        }
    }
}

/// Negative control: the fence-free template configuration must FAIL
/// Theorem 1 on MP under the Arm model — if it passed, the checker
/// would be vacuous for template schemes.
#[test]
fn fence_free_templates_fail_theorem1_on_arm() {
    let s = TemplateScheme {
        nm: "tier0-templates(no-fences/arm)".into(),
        cfg: FrontendConfig::no_fences(),
        bcfg: BackendConfig::dbt(RmwStyle::Casal),
        host: &ArmBackend,
        tso_host: false,
    };
    assert!(
        check_mapping(&s, &corpus::mp(), &X86Tso::new(), &Arm::corrected()).is_err(),
        "fence-free templates must introduce behaviors on MP"
    );
}

// ---------------------------------------------------------------------
// 3. End-to-end equivalence and tier churn
// ---------------------------------------------------------------------

/// The tier-0-only legs, analysis off, on every program of the
/// functional table: each run ends as the reference interpreter ends,
/// every block was served by a template, and the Pass 3 install
/// read-back (active at `VerifyLevel::Full`) flagged nothing.
#[test]
fn kernels_are_bit_identical_with_tier0_on_both_backends() {
    theorem1::functional::sweep(theorem1::functional::Slice::Tier0);
}

/// Litmus programs executed through tier-0 templates alone stay within
/// the x86-allowed behavior set under every DBT setup on both backends,
/// with no block translated by tier-1 — the dynamic counterpart of the
/// Theorem-1 check above.
#[test]
fn litmus_through_tier0_stays_within_x86_behaviors() {
    theorem1::sweep(theorem1::Slice::Tier0);
}

/// Tier churn on a single hot pc: the loop head starts as a tier-0
/// template, warms into tier-1, and TB-cache strikes keep demoting it
/// back to a cold tier-0 refill. The run stays bit-identical to an
/// untiered one and every transition leaves the chain graph clean (no
/// chain word into freed code).
#[test]
fn tier_churn_on_same_pc_is_clean_and_bit_identical() {
    // Two-block hot loop: the head exits conditionally (taken only on
    // the final iteration), the body jumps back to it.
    let mut b = GelfBuilder::new("main");
    b.asm.label("main");
    b.asm.mov_ri(Gpr::RCX, 60_000);
    b.asm.mov_ri(Gpr::RAX, 0);
    b.asm.label("loop");
    b.asm.alu_ri(AluOp::Add, Gpr::RAX, 3);
    b.asm.cmp_ri(Gpr::RCX, 1);
    b.asm.jcc_to(Cond::E, "last");
    b.asm.alu_ri(AluOp::Xor, Gpr::RAX, 0x5a);
    b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
    b.asm.jmp_to("loop");
    b.asm.label("last");
    b.asm.hlt();
    let bin = b.finish().expect("churn binary");

    let mut reference = Emulator::new(&bin, Setup::Risotto, 1, BackendKind::Arm.cost_model());
    let r1 = reference.run(FUEL).expect("reference run");

    let config = EmuConfig {
        warm_threshold: Some(2),
        // Background TB-cache strikes evict translations — including the
        // promoted tier-1 head — forcing cold tier-0 refills of the same
        // pc and another climb up the tier ladder.
        fault_plan: FaultPlan::seeded(11).rate(FaultSite::TbCache, 400),
        ..EmuConfig::default()
    };
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, config);
    let r = emu.run(FUEL).expect("churned run completes");

    assert_eq!(r.exit_vals, r1.exit_vals, "tier churn changed the architectural result");
    assert_eq!(r.output, r1.output);
    let m = emu.metrics();
    let (blocks, promotions) = (m.counter("template.blocks"), m.counter("template.promotions"));
    assert!(blocks > 0, "loop never entered through a template");
    assert!(promotions > 0, "no tier-0 → tier-1 promotion happened");
    assert!(
        blocks > promotions,
        "every template promoted exactly once: eviction churn never refilled tier-0"
    );
    let bad = emu.validate_chains();
    assert!(bad.is_empty(), "dangling chain words after tier churn: {bad:x?}");
}

/// The ladder legs, analysis off, on every program of the functional
/// table: each run ends as the reference interpreter ends with a clean
/// chain graph, and every leg promotes tier-0 blocks to tier-1.
#[test]
fn two_tier_runs_match_tier1_on_all_kernels() {
    theorem1::functional::sweep(theorem1::functional::Slice::Ladder);
}
