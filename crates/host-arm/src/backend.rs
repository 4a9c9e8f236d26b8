//! The TCG→MiniArm backend.
//!
//! Lowers optimized [`TcgBlock`]s to host code per the TCG→Arm mapping
//! scheme (Fig. 7b): plain `ld`/`st` → `LDR`/`STR`, fences via the minimal
//! `DMB` lowering, TCG `Cas` either as `casal` (Risotto's §6.3 fast path)
//! or as a `DMBFF`-bracketed `LDXR`/`STXR` loop, helper calls as `Hcall`.
//!
//! Register convention (normal mode):
//!
//! * `X27` — guest env base (GPRs + flags, 8 bytes each),
//! * `X28` — per-core spill area base,
//! * `X9`–`X26` — allocatable temps (linear scan, spill on pressure),
//! * `X0`–`X5` — helper/native call arguments.
//!
//! The *native oracle* mode (`BackendConfig::native()`) models natively
//! compiled code for the evaluation's `native` bars: guest registers map
//! directly onto host registers (`X6`–`X21`, flags `X22`–`X25`) with no
//! env traffic, floating point uses hardware instructions, no guest-
//! ordering fences are present (the native frontend never inserts them;
//! the programmer's own `MFENCE`s still lower to `DMB FF`), and RMWs use
//! `casal`.

use crate::cost::CostModel;
use crate::insn::{ACond, AFpOp, AOp, Dmb, HostInsn, MemOrder, TbExitKind, Xreg};
use crate::regalloc::{AllocScratch, AllocStats, Allocator};
use crate::verify::{EncodingScratch, Point};
use risotto_memmodel::{FenceKind, RmwStyle};
use risotto_tcg::{
    with_thread_scratch, BinOp, CondOp, Helper, TbExit, TcgBlock, TcgOp, VerifyError,
};
use std::cell::RefCell;

/// Errors surfaced by the TCG→MiniArm backend.
///
/// Historically these conditions aborted the process; they are surfaced
/// as typed errors so the engine can fall back to interpretation (or
/// report a diagnostic) instead of crashing the whole emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendError {
    /// A branch referenced a label that was never bound.
    UnboundLabel {
        /// The unresolved label id.
        label: u32,
    },
    /// Register allocation found no usable register: every pool register
    /// was forbidden for the current operand combination.
    RegisterPressure {
        /// Index of the TCG op being lowered when allocation failed.
        at_op: usize,
    },
    /// A temp was read before any op defined it. The verifier's Pass 1
    /// lint rejects such IR, but the backend must not depend on the lint
    /// having run: without this error a never-defined temp would
    /// silently reload garbage from its uninitialized spill slot.
    UndefinedTemp {
        /// The temp index that was read before definition.
        temp: u32,
        /// Index of the TCG op doing the read (`ops.len()` means the
        /// block exit).
        at_op: usize,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnboundLabel { label } => {
                write!(f, "backend: branch to unbound label L{label}")
            }
            BackendError::RegisterPressure { at_op } => {
                write!(f, "backend: register pool exhausted at op #{at_op}")
            }
            BackendError::UndefinedTemp { temp, at_op } => {
                write!(f, "backend: temp t{temp} read before definition at op #{at_op}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Env base register.
pub const ENV_BASE: Xreg = Xreg(27);
/// Spill area base register.
pub const SPILL_BASE: Xreg = Xreg(28);

/// Backend configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// RMW lowering for TCG `Cas`/`AtomicAdd` ops.
    pub rmw: RmwStyle,
    /// The native oracle (see module docs): guest registers map
    /// directly to host registers (no env traffic, no fences), and FP
    /// helpers lower to hardware FP instead of `Hcall` soft-float.
    pub native: bool,
}

impl BackendConfig {
    /// The DBT backend used by the `qemu`, `tcg-ver` and `no-fences`
    /// setups (helper-based RMWs arrive as `CallHelper`, so `rmw` is
    /// irrelevant there) and by `risotto` (whose frontend emits `Cas`).
    pub fn dbt(rmw: RmwStyle) -> BackendConfig {
        BackendConfig { rmw, native: false }
    }

    /// The native-oracle backend (see module docs).
    pub fn native() -> BackendConfig {
        BackendConfig { rmw: RmwStyle::Casal, native: true }
    }
}

// ---------------------------------------------------------------------
// Host mini-assembler with labels.
// ---------------------------------------------------------------------

/// A small label-resolving assembler over [`HostInsn`]. Reusable:
/// [`HostAsm::clear`] empties it and keeps its buffers.
///
/// Instructions go straight into the output stream; a branch to a label
/// is emitted with a zero displacement and patched by
/// [`finish`](HostAsm::finish), from byte offsets tracked through
/// [`HostInsn::encoded_len`] as the stream grows — nothing is encoded
/// to be sized. [`finish`](HostAsm::finish) hands the stream over, so
/// the next block assembles into a fresh buffer sized for the last one
/// (or into one handed back through [`LowerScratch::recycle`]).
#[derive(Debug, Default)]
pub struct HostAsm {
    insns: Vec<HostInsn>,
    /// Length of the last stream handed out: what a fresh buffer is
    /// sized for.
    last_len: usize,
    /// Encoded size of `insns`.
    len: usize,
    /// label id → byte offset it is bound at ([`UNBOUND`] until then).
    label_at: Vec<usize>,
    fixups: Vec<Fixup>,
}

/// A label not yet [`bind`](HostAsm::bind)-ed.
const UNBOUND: usize = usize::MAX;

/// A label branch awaiting its displacement.
#[derive(Debug, Clone, Copy)]
struct Fixup {
    /// Index of the branch in the instruction stream.
    at: usize,
    /// `b.cond` on this condition, or a plain `b`.
    cond: Option<ACond>,
    label: u32,
    /// Byte offset of the branch's end, which its `rel` counts from.
    end: usize,
}

impl HostAsm {
    /// Creates an empty assembler.
    pub fn new() -> HostAsm {
        HostAsm::default()
    }

    /// Forgets every instruction and label, keeping the buffers for the
    /// next block (an instruction buffer [`finish`](Self::finish) handed
    /// over is replaced by one sized for the stream it held).
    pub fn clear(&mut self) {
        self.insns.clear();
        self.insns.reserve(self.last_len);
        self.len = 0;
        self.label_at.clear();
        self.fixups.clear();
    }

    /// Allocates a fresh label id.
    pub fn fresh_label(&mut self) -> u32 {
        self.label_at.push(UNBOUND);
        (self.label_at.len() - 1) as u32
    }

    /// Reserves room for `n` more instructions ahead of a burst of
    /// pushes.
    pub fn reserve(&mut self, n: usize) {
        self.insns.reserve(n);
    }

    /// Emits an instruction.
    pub fn push(&mut self, i: HostInsn) {
        self.len += i.encoded_len();
        self.insns.push(i);
    }

    /// Binds a label (one [`fresh_label`](Self::fresh_label) handed
    /// out) here.
    pub fn bind(&mut self, label: u32) {
        if let Some(at) = self.label_at.get_mut(label as usize) {
            *at = self.len;
        }
    }

    /// Conditional branch to a label.
    pub fn bcond_to(&mut self, cond: ACond, label: u32) {
        self.branch(Some(cond), label);
    }

    fn branch(&mut self, cond: Option<ACond>, label: u32) {
        self.push(Self::branch_insn(cond, 0));
        self.fixups.push(Fixup { at: self.insns.len() - 1, cond, label, end: self.len });
    }

    fn branch_insn(cond: Option<ACond>, rel: i32) -> HostInsn {
        match cond {
            Some(cond) => HostInsn::BCond { cond, rel },
            None => HostInsn::B { rel },
        }
    }

    /// Resolves labels into relative branches and hands the instruction
    /// stream over; [`clear`](Self::clear) the assembler before
    /// assembling another block.
    ///
    /// Returns [`BackendError::UnboundLabel`] if a branch targets a
    /// label that was never [`bind`](Self::bind)-ed.
    pub fn finish(&mut self) -> Result<Vec<HostInsn>, BackendError> {
        for &Fixup { at, cond, label, end } in &self.fixups {
            let target = match self.label_at.get(label as usize) {
                Some(&bound) if bound != UNBOUND => bound,
                _ => return Err(BackendError::UnboundLabel { label }),
            };
            self.insns[at] = Self::branch_insn(cond, target as i32 - end as i32);
        }
        self.last_len = self.insns.len();
        Ok(std::mem::take(&mut self.insns))
    }
}

// ---------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------
//
// Register allocation lives in `crate::regalloc`: a liveness prepass
// plus a deterministic block-scoped allocator that pins guest env
// registers in host registers (loads once on first use, write-back
// deferred to the flush points below) and spills temps Belady-style.

/// The runtime-helper table: a helper's position here is its stable
/// index in every backend's `Hcall` encoding.
const HELPERS: [Helper; 9] = [
    Helper::CmpxchgSc,
    Helper::XaddSc,
    Helper::FpAdd,
    Helper::FpSub,
    Helper::FpMul,
    Helper::FpDiv,
    Helper::FpSqrt,
    Helper::FpCvtIF,
    Helper::FpCvtFI,
];

/// The stable runtime-helper table index of a TCG [`Helper`], shared by
/// every backend's `Hcall` lowering and the verifier's read-back.
pub fn helper_index(h: Helper) -> u8 {
    // invariant: `HELPERS` lists every `Helper` (unit-tested below).
    HELPERS.iter().position(|&listed| listed == h).expect("helper is in the table") as u8
}

/// The [`Helper`] an `Hcall` index names — the inverse of
/// [`helper_index`]; `None` past the end of the table.
pub fn helper_at(index: u8) -> Option<Helper> {
    HELPERS.get(usize::from(index)).copied()
}

/// The hardware-FP instruction behind a float [`Helper`], or `None` for
/// the helpers that always stay out-of-line (`CmpxchgSc`/`XaddSc`).
pub fn fp_op_of(h: Helper) -> Option<AFpOp> {
    Some(match h {
        Helper::FpAdd => AFpOp::Add,
        Helper::FpSub => AFpOp::Sub,
        Helper::FpMul => AFpOp::Mul,
        Helper::FpDiv => AFpOp::Div,
        Helper::FpSqrt => AFpOp::Sqrt,
        Helper::FpCvtIF => AFpOp::CvtIF,
        Helper::FpCvtFI => AFpOp::CvtFI,
        _ => return None,
    })
}

fn bin_op_of(b: BinOp) -> AOp {
    match b {
        BinOp::Add => AOp::Add,
        BinOp::Sub => AOp::Sub,
        BinOp::And => AOp::And,
        BinOp::Or => AOp::Orr,
        BinOp::Xor => AOp::Eor,
        BinOp::Shl => AOp::Lsl,
        BinOp::Shr => AOp::Lsr,
        BinOp::Sar => AOp::Asr,
        BinOp::Mul => AOp::Mul,
        BinOp::MulHi => AOp::Umulh,
        BinOp::Divu => AOp::Udiv,
        BinOp::Remu => AOp::Urem,
    }
}

fn cond_of(c: CondOp) -> ACond {
    match c {
        CondOp::Eq => ACond::Eq,
        CondOp::Ne => ACond::Ne,
        CondOp::LtU => ACond::Lo,
        CondOp::LtS => ACond::Lt,
    }
}

/// Env register location in native (direct-mapped) mode.
fn direct_reg(env_reg: u8) -> Xreg {
    if env_reg < 16 {
        Xreg(6 + env_reg) // guest GPRs → X6..X21
    } else {
        Xreg(22 + (env_reg - 16)) // flags → X22..X25
    }
}

/// The MiniArm `Barrier` operand implementing a TCG fence, through the
/// shared [`FenceKind::arm_dmb`] table: `None` for the no-op fences
/// (`Facq`/`Frel`). This is the *single* FenceKind→[`Dmb`] conversion —
/// the lowering and the Pass 3 read-back both call it, instead of each
/// keeping a private copy of the match.
pub fn arm_dmb_of(k: FenceKind) -> Option<Dmb> {
    Some(match k.arm_dmb()? {
        FenceKind::DmbLd => Dmb::Ld,
        FenceKind::DmbSt => Dmb::St,
        _ => Dmb::Ff,
    })
}

// ---------------------------------------------------------------------
// The pluggable backend abstraction.
// ---------------------------------------------------------------------

/// A pluggable host backend: one table per host saying how each TCG
/// **fence** and each **atomic RMW** materializes (Fig. 7b), what Pass 3
/// of the translation validator must find in the encoded result, and
/// what the instructions cost.
///
/// [`HostInsn`] is the shared ISA-neutral *container*: ALU work, moves,
/// env pinning, helper calls, spills and TB exits lower identically on
/// every backend, in the driver behind
/// [`lower_block_in`](Self::lower_block_in). The required methods are
/// exactly what distinguishes a host architecture; the provided ones run
/// the shared lowering driver and the shared Pass 3 checker over them,
/// compiled once per implementing type.
///
/// [`ArmBackend`] (this crate) emits `DMB`s per the Fig. 7b table and
/// `casal`/exclusive-pair RMWs; `TsoBackend` in `risotto-host-tso` emits
/// `MFENCE` (a full [`HostInsn::Barrier`]) only for store→load
/// obligations and `LOCK`-prefixed RMW forms. The engine holds a
/// `&'static dyn HostBackend` and routes every lowering, cost and Pass 3
/// decision through it; Passes 1–2 stay backend-independent in
/// `risotto-tcg`.
pub trait HostBackend: std::fmt::Debug + Sync {
    /// Short stable name (`"arm"`, `"tso"`), used by `--backend` flags
    /// and artifact keys.
    fn name(&self) -> &'static str;

    /// The backend's calibrated cycle cost model (what
    /// `Machine::new` should be fed when simulating this host).
    fn cost_model(&self) -> CostModel;

    /// The host instruction implementing a TCG fence, or `None` when the
    /// fence is a no-op on this host. This is the per-backend
    /// fence-lowering table documented in docs/BACKENDS.md.
    fn fence(&self, k: FenceKind) -> Option<HostInsn>;

    /// Lowers a TCG `Cas`: `dst` receives the old value, `addr` the
    /// location, `expect`/`new` the comparands. Dirty env registers are
    /// already flushed; the emitted sequence must be atomic on this host.
    fn cas(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        expect: Xreg,
        new: Xreg,
        cfg: BackendConfig,
    );

    /// Lowers a TCG `AtomicAdd`: `dst` receives the old value.
    fn atomic_add(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        addend: Xreg,
        cfg: BackendConfig,
    );

    /// The ordering points ([`Point`]) Pass 3 must find in the encoded
    /// stream for one IR op. Must be derived from the IR and the shared
    /// fence tables, never by consulting [`fence`](Self::fence),
    /// [`cas`](Self::cas) or [`atomic_add`](Self::atomic_add): Pass 3
    /// may not vouch for itself, so a bug in the lowering has to
    /// disagree with this table to be caught.
    fn expected_points(&self, op: &TcgOp, cfg: BackendConfig, out: &mut Vec<Point>);

    /// The dialect restriction over a decoded stream: the position and
    /// reason of the first instruction this host has no equivalent for
    /// (MiniTSO rejects exclusive pairs, load/store-only barriers,
    /// acquire/release accesses and a CAS without its `LOCK`-equivalent
    /// `acq_rel` flag; MiniArm owns the whole container ISA).
    fn check_dialect(&self, decoded: &[HostInsn]) -> Result<(), (usize, &'static str)>;

    /// Lowers an optimized TCG block to host instructions with
    /// allocation statistics, over a caller-owned [`LowerScratch`].
    ///
    /// Guest env registers are pinned in host registers for the whole
    /// block (loaded once on first use); dirty env registers are written
    /// back at every point where execution can leave the block or an
    /// external observer could look at the env: the block exit, helper
    /// calls, and `Cas`/`AtomicAdd` sequences.
    ///
    /// Returns a [`BackendError`] instead of panicking when lowering
    /// cannot proceed (unbound label, unallocatable register
    /// combination, temp read before definition).
    fn lower_block_in(
        &self,
        block: &TcgBlock,
        cfg: BackendConfig,
        scratch: &mut LowerScratch,
    ) -> Result<LowerOutput, BackendError> {
        lower(self, block, cfg, scratch)
    }

    /// [`lower_block_in`](Self::lower_block_in) over the calling
    /// thread's spare scratch.
    fn lower_block_with_stats(
        &self,
        block: &TcgBlock,
        cfg: BackendConfig,
    ) -> Result<LowerOutput, BackendError> {
        with_thread_scratch(&SPARE, |scratch| self.lower_block_in(block, cfg, scratch))
    }

    /// Pass 3 of the translation validator, over a caller-owned
    /// [`EncodingScratch`]: `bytes` are the canonical encoding of
    /// `insns` and decode back to them, the decoded stream passes
    /// [`check_dialect`](Self::check_dialect), its ordering points
    /// interleave as [`expected_points`](Self::expected_points) demands
    /// of `block`, every env register the IR wrote is written back
    /// before each exit, and direct-jump exits carry a zeroed chain
    /// word and the IR's targets. `insns` must be the direct output of
    /// lowering `block` under `cfg`; `bytes` the (possibly corrupted)
    /// encoding under test. The engine runs this pass once per
    /// translation, on the fresh encoding, before installing it; what
    /// it reads back from the code cache after the install is compared
    /// byte for byte with that encoding, not checked again here.
    fn check_encoding_in(
        &self,
        block: &TcgBlock,
        insns: &[HostInsn],
        bytes: &[u8],
        cfg: BackendConfig,
        scratch: &mut EncodingScratch,
    ) -> Result<(), VerifyError> {
        crate::verify::check(self, block, insns, bytes, cfg, scratch)
    }

    /// [`check_encoding_in`](Self::check_encoding_in) over the calling
    /// thread's spare scratch.
    fn check_encoding(
        &self,
        block: &TcgBlock,
        insns: &[HostInsn],
        bytes: &[u8],
        cfg: BackendConfig,
    ) -> Result<(), VerifyError> {
        with_thread_scratch(&crate::verify::SPARE, |scratch| {
            self.check_encoding_in(block, insns, bytes, cfg, scratch)
        })
    }
}

/// The MiniArm host backend (Fig. 7b): minimal `DMB`s via
/// [`arm_dmb_of`], RMWs as `casal`/`ldaddal` or the `DMBFF`-bracketed
/// exclusive-pair loop per [`BackendConfig::rmw`], the ThunderX2 cost
/// calibration, and no dialect restriction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmBackend;

impl HostBackend for ArmBackend {
    fn name(&self) -> &'static str {
        "arm"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::thunderx2_like()
    }

    fn fence(&self, k: FenceKind) -> Option<HostInsn> {
        arm_dmb_of(k).map(HostInsn::Barrier)
    }

    fn cas(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        expect: Xreg,
        new: Xreg,
        cfg: BackendConfig,
    ) {
        match cfg.rmw {
            RmwStyle::Casal => {
                // casal dst, new, [addr] with dst preloaded with expect.
                asm.push(HostInsn::MovReg { dst, src: expect });
                asm.push(HostInsn::Cas { cmp_old: dst, new, addr, acq_rel: true });
            }
            RmwStyle::Rmw2Fenced => {
                // DMBFF; loop: ldxr dst; cmp dst, expect; b.ne done;
                // stxr status, new; cbnz loop; done: DMBFF.
                let status = Xreg(8); // outside the allocatable pool
                let l_loop = asm.fresh_label();
                let l_done = asm.fresh_label();
                asm.push(HostInsn::Barrier(Dmb::Ff));
                asm.bind(l_loop);
                asm.push(HostInsn::Ldxr { dst, addr, acquire: false });
                asm.push(HostInsn::Cmp { a: dst, b: expect });
                asm.bcond_to(ACond::Ne, l_done);
                asm.push(HostInsn::Stxr { status, src: new, addr, release: false });
                asm.push(HostInsn::CmpImm { a: status, imm: 0 });
                asm.bcond_to(ACond::Ne, l_loop);
                asm.bind(l_done);
                asm.push(HostInsn::Barrier(Dmb::Ff));
            }
        }
    }

    fn atomic_add(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        addend: Xreg,
        cfg: BackendConfig,
    ) {
        match cfg.rmw {
            RmwStyle::Casal => {
                asm.push(HostInsn::LdaddAl { old: dst, addend, addr });
            }
            RmwStyle::Rmw2Fenced => {
                let status = Xreg(8);
                let tmp = Xreg(7);
                let l_loop = asm.fresh_label();
                asm.push(HostInsn::Barrier(Dmb::Ff));
                asm.bind(l_loop);
                asm.push(HostInsn::Ldxr { dst, addr, acquire: false });
                asm.push(HostInsn::Alu { op: AOp::Add, dst: tmp, a: dst, b: addend });
                asm.push(HostInsn::Stxr { status, src: tmp, addr, release: false });
                asm.push(HostInsn::CmpImm { a: status, imm: 0 });
                asm.bcond_to(ACond::Ne, l_loop);
                asm.push(HostInsn::Barrier(Dmb::Ff));
            }
        }
    }

    fn expected_points(&self, op: &TcgOp, cfg: BackendConfig, out: &mut Vec<Point>) {
        /// `DMBFF; LDXR; STXR; DMBFF`, the shape of both `Rmw2Fenced` RMWs.
        const FENCED_PAIR: [Point; 4] = [
            Point::Dmb(Dmb::Ff),
            Point::ExclLoad { acquire: false },
            Point::ExclStore { release: false },
            Point::Dmb(Dmb::Ff),
        ];
        let plain = MemOrder::Plain;
        match op {
            TcgOp::Ld { .. } => out.push(Point::Access { load: true, byte: false, order: plain }),
            TcgOp::Ld8 { .. } => out.push(Point::Access { load: true, byte: true, order: plain }),
            TcgOp::St { .. } => out.push(Point::Access { load: false, byte: false, order: plain }),
            TcgOp::St8 { .. } => out.push(Point::Access { load: false, byte: true, order: plain }),
            TcgOp::Fence(k) => {
                if let Some(d) = arm_dmb_of(*k) {
                    out.push(Point::Dmb(d));
                }
            }
            TcgOp::Cas { .. } => match cfg.rmw {
                RmwStyle::Casal => out.push(Point::Cas { acq_rel: true }),
                RmwStyle::Rmw2Fenced => out.extend(FENCED_PAIR),
            },
            TcgOp::AtomicAdd { .. } => match cfg.rmw {
                RmwStyle::Casal => out.push(Point::Ldadd),
                RmwStyle::Rmw2Fenced => out.extend(FENCED_PAIR),
            },
            // Hardware-FP float helpers lower to an in-line `Fp` insn (or
            // nothing without a result); everything else is an
            // out-of-line `Hcall`.
            TcgOp::CallHelper { helper, .. } if !(cfg.native && fp_op_of(*helper).is_some()) => {
                out.push(Point::Helper(helper_index(*helper)));
            }
            _ => {}
        }
    }

    fn check_dialect(&self, _decoded: &[HostInsn]) -> Result<(), (usize, &'static str)> {
        Ok(())
    }
}

/// The backend's lowering product: the host instruction stream plus the
/// register-allocation statistics behind it (mirrored into the
/// `regalloc.*` metrics by the engine).
#[derive(Debug, Clone)]
pub struct LowerOutput {
    /// Lowered host instructions, labels resolved.
    pub insns: Vec<HostInsn>,
    /// Allocation statistics for this block.
    pub alloc: AllocStats,
}

thread_local!(static SPARE: RefCell<LowerScratch> = RefCell::default());

/// The lowering's reusable working memory — the register allocator's
/// liveness and per-value tables and the label-resolving assembler —
/// kept between blocks so a steady-state lowering allocates only the
/// instruction stream it returns. Each lowering re-initializes all of
/// it on entry, so a block abandoned on a [`BackendError`] leaves
/// nothing the next one can see.
#[derive(Debug, Default)]
pub struct LowerScratch {
    alloc: AllocScratch,
    asm: HostAsm,
}

impl LowerScratch {
    /// The assembler lowerings assemble into, for a producer that emits
    /// host code without lowering IR (tier-0 templates); what it hands
    /// out is recycled like a lowering's output.
    pub fn asm(&mut self) -> &mut HostAsm {
        &mut self.asm
    }

    /// Hands back a [`LowerOutput::insns`] its consumer is done with:
    /// the next lowering assembles into it instead of a new buffer
    /// (whichever of the two is larger is kept).
    pub fn recycle(&mut self, insns: Vec<HostInsn>) {
        if insns.capacity() > self.asm.insns.capacity() {
            self.asm.insns = insns;
        }
    }
}

/// The allocatable host-register pool under `cfg`: X9–X26 for DBT mode,
/// the scratch set in native direct-mapped mode.
fn register_pool(cfg: BackendConfig) -> &'static [Xreg] {
    const DIRECT: &[Xreg] =
        &[Xreg(0), Xreg(1), Xreg(2), Xreg(3), Xreg(4), Xreg(5), Xreg(26), Xreg(29)];
    #[rustfmt::skip]
    const DBT: &[Xreg] = &[
        Xreg(9), Xreg(10), Xreg(11), Xreg(12), Xreg(13), Xreg(14), Xreg(15), Xreg(16), Xreg(17),
        Xreg(18), Xreg(19), Xreg(20), Xreg(21), Xreg(22), Xreg(23), Xreg(24), Xreg(25), Xreg(26),
    ];
    if cfg.native {
        DIRECT
    } else {
        DBT
    }
}

/// The shared lowering driver: register allocation, env
/// pinning/write-back, ALU/branch/helper lowering and TB-exit shapes are
/// identical for every host; `host` decides what fences and atomic RMWs
/// become.
fn lower<B: HostBackend + ?Sized>(
    host: &B,
    block: &TcgBlock,
    cfg: BackendConfig,
    scratch: &mut LowerScratch,
) -> Result<LowerOutput, BackendError> {
    let pool = register_pool(cfg);
    let mut alloc = Allocator::new(block, pool, !cfg.native, &mut scratch.alloc);
    let asm = &mut scratch.asm;
    asm.clear();
    let (mut get_regs, mut set_regs) = (0u64, 0u64);

    for (idx, op) in block.ops.iter().enumerate() {
        alloc.free_dead(idx);
        match op {
            TcgOp::MovI { dst, val } => {
                // Zero-cost: the constant is recorded and materialized
                // (`MovImm`) only at the first read; equal constants in
                // one block share a single host register.
                alloc.def_const(*dst, *val);
            }
            TcgOp::Mov { dst, src } => {
                if let Some(c) = alloc.const_of(*src) {
                    alloc.def_const(*dst, c);
                } else {
                    let rs = alloc.read_temp(asm, idx, idx, *src, &[])?;
                    let rd = alloc.def_temp(asm, idx, idx, *dst, &[rs])?;
                    asm.push(HostInsn::MovReg { dst: rd, src: rs });
                }
            }
            TcgOp::GetReg { dst, reg } => {
                if cfg.native {
                    let rd = alloc.def_temp(asm, idx, idx, *dst, &[])?;
                    asm.push(HostInsn::MovReg { dst: rd, src: direct_reg(*reg) });
                } else {
                    // Zero-cost alias: the env value is pinned (loaded
                    // lazily at its first read) and `dst` reads from it.
                    get_regs += 1;
                    alloc.alias_env(*dst, *reg);
                }
            }
            TcgOp::SetReg { reg, src } => {
                let rs = alloc.read_temp(asm, idx, idx, *src, &[])?;
                if cfg.native {
                    asm.push(HostInsn::MovReg { dst: direct_reg(*reg), src: rs });
                } else {
                    set_regs += 1;
                    alloc.write_env(asm, idx, idx, *reg, *src, rs)?;
                }
            }
            TcgOp::Ld { dst, addr } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra])?;
                asm.push(HostInsn::Ldr { dst: rd, base: ra, off: 0, order: MemOrder::Plain });
            }
            TcgOp::St { addr, src } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let rs = alloc.read_temp(asm, idx, idx, *src, &[ra])?;
                asm.push(HostInsn::Str { src: rs, base: ra, off: 0, order: MemOrder::Plain });
            }
            TcgOp::Ld8 { dst, addr } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra])?;
                asm.push(HostInsn::LdrB { dst: rd, base: ra, off: 0 });
            }
            TcgOp::St8 { addr, src } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let rs = alloc.read_temp(asm, idx, idx, *src, &[ra])?;
                asm.push(HostInsn::StrB { src: rs, base: ra, off: 0 });
            }
            TcgOp::Bin { op, dst, a, b } => {
                let ra = alloc.read_temp(asm, idx, idx, *a, &[])?;
                let rb = alloc.read_temp(asm, idx, idx, *b, &[ra])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra, rb])?;
                asm.push(HostInsn::Alu { op: bin_op_of(*op), dst: rd, a: ra, b: rb });
            }
            TcgOp::Setcond { cond, dst, a, b } => {
                let ra = alloc.read_temp(asm, idx, idx, *a, &[])?;
                let rb = alloc.read_temp(asm, idx, idx, *b, &[ra])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra, rb])?;
                asm.push(HostInsn::Cmp { a: ra, b: rb });
                asm.push(HostInsn::Cset { dst: rd, cond: cond_of(*cond) });
            }
            TcgOp::Fence(k) => {
                // Note: the native oracle reaches here too — its frontend
                // emits no guest-*ordering* fences, so any fence left in
                // the IR is the programmer's own (MFENCE → Fsc) and must
                // be honoured.
                if let Some(barrier) = host.fence(*k) {
                    asm.push(barrier);
                }
            }
            TcgOp::Cas { dst, addr, expect, new } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let re = alloc.read_temp(asm, idx, idx, *expect, &[ra])?;
                let rn = alloc.read_temp(asm, idx, idx, *new, &[ra, re])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra, re, rn])?;
                // Atomic sequences are env flush points: an exclusive
                // monitor/contention path must never race a stale env.
                // The stores land before the sequence begins, so nothing
                // intrudes between LDXR and STXR.
                alloc.flush_env(asm);
                host.cas(asm, rd, ra, re, rn, cfg);
            }
            TcgOp::AtomicAdd { dst, addr, val } => {
                let ra = alloc.read_temp(asm, idx, idx, *addr, &[])?;
                let rv = alloc.read_temp(asm, idx, idx, *val, &[ra])?;
                let rd = alloc.def_temp(asm, idx, idx, *dst, &[ra, rv])?;
                alloc.flush_env(asm);
                host.atomic_add(asm, rd, ra, rv, cfg);
            }
            TcgOp::CallHelper { helper, args, ret } => {
                if cfg.native {
                    if let Some(fp) = fp_op_of(*helper) {
                        let ra = alloc.read_temp(asm, idx, idx, args[0], &[])?;
                        let rb = alloc.read_temp(asm, idx, idx, args[1], &[ra])?;
                        if let Some(r) = ret {
                            let rd = alloc.def_temp(asm, idx, idx, *r, &[ra, rb])?;
                            asm.push(HostInsn::Fp { op: fp, dst: rd, a: ra, b: rb });
                        }
                        continue;
                    }
                }
                // Out-of-line call: flush the env first (helpers model
                // runtime code that may inspect guest state), then
                // marshal args into X0.. and move the result out.
                alloc.flush_env(asm);
                for (i, a) in args.iter().enumerate() {
                    let ra = alloc.read_temp(asm, idx, idx, *a, &[])?;
                    asm.push(HostInsn::MovReg { dst: Xreg(i as u8), src: ra });
                }
                asm.push(HostInsn::Hcall { helper: helper_index(*helper) });
                if let Some(r) = ret {
                    let rd = alloc.def_temp(asm, idx, idx, *r, &[])?;
                    asm.push(HostInsn::MovReg { dst: rd, src: Xreg(0) });
                }
            }
        }
    }

    // Exit: every path out of the block writes the dirty env back
    // first, so the engine (dispatch, syscalls, interpreter fallback,
    // final register read-out) always sees a coherent env.
    let exit_idx = block.ops.len();
    alloc.free_dead(exit_idx);
    match &block.exit {
        TbExit::Jump(pc) => {
            alloc.flush_env(asm);
            asm.push(HostInsn::ExitTb(TbExitKind::Jump { guest_pc: *pc, chain: 0 }));
        }
        TbExit::JumpReg(t) => {
            let r = alloc.read_temp(asm, exit_idx, exit_idx, *t, &[])?;
            alloc.flush_env(asm);
            asm.push(HostInsn::ExitTb(TbExitKind::JumpReg { reg: r }));
        }
        TbExit::CondJump { flag, taken, fallthrough } => {
            let r = alloc.read_temp(asm, exit_idx, exit_idx, *flag, &[])?;
            // Both arms leave the block, so one flush before the compare
            // serves them both.
            alloc.flush_env(asm);
            let l_taken = asm.fresh_label();
            asm.push(HostInsn::CmpImm { a: r, imm: 0 });
            asm.bcond_to(ACond::Ne, l_taken);
            asm.push(HostInsn::ExitTb(TbExitKind::Jump { guest_pc: *fallthrough, chain: 0 }));
            asm.bind(l_taken);
            asm.push(HostInsn::ExitTb(TbExitKind::Jump { guest_pc: *taken, chain: 0 }));
        }
        TbExit::Halt => {
            alloc.flush_env(asm);
            asm.push(HostInsn::ExitTb(TbExitKind::Halt));
        }
        TbExit::Syscall { next } => {
            alloc.flush_env(asm);
            asm.push(HostInsn::ExitTb(TbExitKind::Syscall { next: *next }));
        }
    }
    let insns = asm.finish()?;
    let mut stats = alloc.into_stats();
    stats.env_loads_eliminated = get_regs.saturating_sub(stats.env_loads);
    stats.env_stores_eliminated = set_regs.saturating_sub(stats.env_stores);
    Ok(LowerOutput { insns, alloc: stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_tcg::{FrontendConfig, OptPolicy};

    #[test]
    fn helper_numbering_round_trips() {
        for (index, &h) in HELPERS.iter().enumerate() {
            assert_eq!((helper_index(h), helper_at(index as u8)), (index as u8, Some(h)));
            // Exhaustive on purpose: a tenth `Helper` stops compiling
            // here until it has a row in `HELPERS`.
            match h {
                Helper::CmpxchgSc | Helper::XaddSc => {}
                Helper::FpAdd | Helper::FpSub | Helper::FpMul | Helper::FpDiv => {}
                Helper::FpSqrt | Helper::FpCvtIF | Helper::FpCvtFI => {}
            }
        }
        assert_eq!((HELPERS.len(), helper_at(9), helper_at(u8::MAX)), (9, None, None));
    }

    fn lower_snippet(
        f: impl FnOnce(&mut risotto_guest_x86::Assembler),
        fe: FrontendConfig,
        be: BackendConfig,
        opt: bool,
    ) -> Vec<HostInsn> {
        let mut a = risotto_guest_x86::Assembler::new(0x1000);
        f(&mut a);
        let (bytes, _) = a.finish().expect("assembles");
        let fetch = move |addr: u64| {
            let mut w = [0u8; 16];
            let off = (addr - 0x1000) as usize;
            for (i, slot) in w.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            w
        };
        let mut block = risotto_tcg::translate_block(0x1000, fe, fetch).expect("translates");
        if opt {
            risotto_tcg::optimize(&mut block, OptPolicy::Verified);
        }
        ArmBackend.lower_block_with_stats(&block, be).expect("lowering the snippet").insns
    }

    #[test]
    fn load_store_lowering_matches_fig7c() {
        use risotto_guest_x86::Gpr;
        // Verified: LDR; DMBLD … DMBST; STR.
        let code = lower_snippet(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::tcg_ver(),
            BackendConfig::dbt(RmwStyle::Rmw2Fenced),
            false,
        );
        let dmb_ld = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ld))).count();
        let dmb_st = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::St))).count();
        assert_eq!(dmb_ld, 1);
        assert_eq!(dmb_st, 1);
    }

    #[test]
    fn qemu_lowering_matches_fig2() {
        use risotto_guest_x86::Gpr;
        // Qemu (Fig. 2): RMOV → DMBLD; LDR and WMOV → DMBFF; STR.
        let code = lower_snippet(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::qemu(),
            BackendConfig::dbt(RmwStyle::Rmw2Fenced),
            false,
        );
        let dmb_ff = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ff))).count();
        let dmb_ld = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ld))).count();
        assert_eq!(dmb_ff, 1);
        assert_eq!(dmb_ld, 1);
    }

    #[test]
    fn cas_lowers_to_casal_or_fenced_loop() {
        use risotto_guest_x86::Gpr;
        let snippet = |a: &mut risotto_guest_x86::Assembler| {
            a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
            a.hlt();
        };
        let casal = lower_snippet(
            snippet,
            FrontendConfig::risotto(),
            BackendConfig::dbt(RmwStyle::Casal),
            false,
        );
        assert!(casal.iter().any(|i| matches!(i, HostInsn::Cas { acq_rel: true, .. })));
        assert!(!casal.iter().any(|i| matches!(i, HostInsn::Ldxr { .. })));

        let loop_ = lower_snippet(
            snippet,
            FrontendConfig::risotto(),
            BackendConfig::dbt(RmwStyle::Rmw2Fenced),
            false,
        );
        assert!(loop_.iter().any(|i| matches!(i, HostInsn::Ldxr { .. })));
        let ffs = loop_.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ff))).count();
        assert!(ffs >= 2, "RMW2 lowering needs bracketing DMBFFs");
    }

    #[test]
    fn helper_cas_becomes_hcall() {
        use risotto_guest_x86::Gpr;
        let code = lower_snippet(
            |a| {
                a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
                a.hlt();
            },
            FrontendConfig::qemu(),
            BackendConfig::dbt(RmwStyle::Casal),
            false,
        );
        assert!(code.iter().any(|i| matches!(i, HostInsn::Hcall { helper: 0 })));
        assert!(!code.iter().any(|i| matches!(i, HostInsn::Cas { .. })));
    }

    #[test]
    fn native_mode_uses_hardware_fp_and_no_fences() {
        use risotto_guest_x86::{FpOp, Gpr};
        let code = lower_snippet(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.fp(FpOp::Mul, Gpr::RAX, Gpr::RBX);
                a.store(Gpr::RDI, 0, Gpr::RAX);
                a.hlt();
            },
            // The engine pairs the native backend with the fence-free
            // frontend: ordering comes from the programmer's own fences.
            FrontendConfig::no_fences(),
            BackendConfig::native(),
            false,
        );
        assert!(code.iter().any(|i| matches!(i, HostInsn::Fp { .. })));
        assert!(!code.iter().any(|i| matches!(i, HostInsn::Hcall { .. })));
        assert!(
            !code.iter().any(|i| matches!(i, HostInsn::Barrier(_))),
            "no mapping-inserted fences in native mode"
        );
        // No env traffic either: loads/stores only for guest data.
        assert!(!code.iter().any(|i| matches!(i, HostInsn::Ldr { base, .. } if *base == ENV_BASE)));
    }

    #[test]
    fn label_fixups_resolve() {
        let mut asm = HostAsm::new();
        let l = asm.fresh_label();
        asm.push(HostInsn::MovImm { dst: Xreg(0), imm: 1 });
        asm.bcond_to(ACond::Eq, l);
        asm.push(HostInsn::Nop);
        asm.push(HostInsn::Nop);
        asm.bind(l);
        asm.push(HostInsn::Hlt);
        let code = asm.finish().expect("all labels bound");
        match code[1] {
            HostInsn::BCond { rel, .. } => assert_eq!(rel, 2, "skip two 1-byte nops"),
            ref other => unreachable!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_pressure_spills_and_reloads() {
        // A block with >18 simultaneously live *computed* temps: force
        // spilling (MovI temps alone are rematerializable constants and
        // never spill).
        let mut block =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let seed = block.new_temp();
        block.ops.push(TcgOp::MovI { dst: seed, val: 3 });
        let mut temps = Vec::new();
        let mut prev = seed;
        for _ in 0..24 {
            let t = block.new_temp();
            block.ops.push(TcgOp::Bin { op: BinOp::Mul, dst: t, a: prev, b: seed });
            temps.push(t);
            prev = t;
        }
        // Use them all afterwards so they stay live.
        for pair in temps.chunks(2) {
            if let [a, b] = pair {
                let d = block.new_temp();
                block.ops.push(TcgOp::Bin { op: BinOp::Add, dst: d, a: *a, b: *b });
                block.ops.push(TcgOp::SetReg { reg: 0, src: d });
            }
        }
        let code = ArmBackend
            .lower_block_with_stats(&block, BackendConfig::dbt(RmwStyle::Casal))
            .expect("spilling lowering")
            .insns;
        let spls = code
            .iter()
            .filter(|i| matches!(i, HostInsn::Str { base, .. } if *base == SPILL_BASE))
            .count();
        let rlds = code
            .iter()
            .filter(|i| matches!(i, HostInsn::Ldr { base, .. } if *base == SPILL_BASE))
            .count();
        assert!(spls > 0 && rlds > 0, "expected spill traffic ({spls} spills, {rlds} reloads)");
    }
}
