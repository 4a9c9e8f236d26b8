//! The Risotto DBT engine: execution loop, translation-block cache,
//! setup presets, syscall layer and the dynamic host linker (§4.2, §6).
//!
//! The engine owns a [`Machine`] and drives it through events: on a
//! translation miss it decodes the guest basic block, applies the
//! configured x86→TCG mapping and optimizer, lowers it per the TCG→Arm
//! scheme and installs the host code; on a guest syscall it services the
//! virtual OS interface (write / spawn / join / exit). When host linking
//! is enabled, translating a PLT address instead emits a marshaling thunk
//! that calls the registered native host function directly (§6.2).
//!
//! ## Failure model
//!
//! The pipeline is panic-free: every layer failure — decoder, optimizer
//! backend, TB cache, host linker, syscall layer — is either *recovered*
//! or surfaced as a typed [`EmuError`]. Translation and lowering failures
//! (real or injected via [`FaultPlan`]) quarantine the guest pc and fall
//! back to direct interpretation of that block, with a bounded number of
//! re-translation retries; detected TB-cache corruption discards the
//! entry and re-translates; failed host-library links fall back to the
//! translated guest implementation behind the PLT stub. Under any fault
//! plan a run either completes with the same observable output as the
//! fault-free run, or returns a typed error — never a silently wrong
//! result. See DESIGN.md §11.

use crate::faults::{FaultPlan, FaultSite};
use crate::idl::Idl;
use crate::obs::{HotTb, MetricsSnapshot, NullSink, Obs, TraceSink, TraceStage};
use risotto_analysis::{analyze_image, content_hash, event_sites, ir_hints, ImageFacts};
use risotto_guest_x86::{
    exec_insn, syscalls, Flags, Gpr, GuestBinary, GuestState, Insn, Step, DATA_BASE, STACK_SIZE,
    STACK_TOP, TEXT_BASE,
};
use risotto_host_arm::{
    AOp, AllocStats, ArmBackend, AtomicEvent, BackendConfig, ChainStats, CoreStats, CostModel,
    Event, HostBackend, HostFaultKind, HostInsn, Machine, MemOrder, NativeFn, OrderingLowering,
    RmwStyle, SchedPolicy, TbExitKind, Xreg, ENV_BASE, SPILL_BASE,
};
use risotto_host_tso::TsoBackend;
use risotto_memmodel::FenceKind;
use risotto_tcg::{
    apply_hints, env, optimize_with, superblock, translate_block, verify as tcg_verify,
    FrontendConfig, HintStats, OptPolicy, OptStats, PassConfig, TbExit, TcgBlock, TcgOp,
    TranslateError, VerifyError, VerifyPass,
};
use risotto_template::{translate_block_template, TemplateError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-core guest env block base (20 regs × 8 bytes, padded to 0x100).
pub const ENV_REGION: u64 = 0xF000_0000;
/// Per-core spill area base (temp index × 8).
pub const SPILL_REGION: u64 = 0xF800_0000;
const ENV_STRIDE: u64 = 0x100;
const SPILL_STRIDE: u64 = 0x10000;

/// How many times a failing block is re-offered to the translator before
/// it is permanently interpreted.
const QUARANTINE_RETRY_LIMIT: u32 = 3;
/// Upper bound on tracked quarantined pcs; beyond it the
/// least-recently-touched entry is evicted (see [`Quarantine`]).
const QUARANTINE_CAPACITY: usize = 1024;
/// Cycle cost charged per interpreted guest instruction (interpretation
/// is roughly an order of magnitude slower than translated code).
const INTERP_CYCLES_PER_INSN: u64 = 12;
/// Interpreted basic blocks are capped like translated ones.
const MAX_INTERP_BLOCK: usize = 64;
/// Bound on the process-wide analysis cache; reaching it clears the
/// cache (simple and safe — facts are recomputable).
const ANALYSIS_CACHE_CAPACITY: usize = 256;

/// Process-wide whole-program-analysis cache keyed by image content
/// hash, shared across emulator instances so a bench pipeline or fuzz
/// campaign analyses each distinct image once (docs/ANALYSIS.md).
static ANALYSIS_CACHE: OnceLock<Mutex<HashMap<u64, Arc<ImageFacts>>>> = OnceLock::new();

/// Cache lookup; returns the facts plus whether the lookup hit.
fn cached_analysis(bin: &GuestBinary) -> (Arc<ImageFacts>, bool) {
    let hash = content_hash(bin);
    let cache = ANALYSIS_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(f) = map.get(&hash) {
        return (Arc::clone(f), true);
    }
    if map.len() >= ANALYSIS_CACHE_CAPACITY {
        map.clear();
    }
    let facts = Arc::new(analyze_image(bin));
    map.insert(hash, Arc::clone(&facts));
    (facts, false)
}

/// The evaluation setups of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setup {
    /// Vanilla QEMU 6.1: leading fences (Fig. 2), fence-oblivious
    /// optimizer, helper-call RMWs.
    Qemu,
    /// QEMU with all guest-ordering fences removed — incorrect, used only
    /// as the performance oracle.
    NoFences,
    /// QEMU with the verified mappings (Fig. 7) and sound optimizations,
    /// but still helper-call RMWs.
    TcgVer,
    /// Full Risotto: verified mappings, fence merging, direct `casal`
    /// CAS (§6.3), dynamic host linker (§6.2).
    Risotto,
    /// Native-oracle execution of the same program (see
    /// [`BackendConfig::native`]).
    Native,
}

impl Setup {
    /// All five setups, in the paper's presentation order.
    pub const ALL: [Setup; 5] =
        [Setup::Qemu, Setup::NoFences, Setup::TcgVer, Setup::Risotto, Setup::Native];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Setup::Qemu => "qemu",
            Setup::NoFences => "no-fences",
            Setup::TcgVer => "tcg-ver",
            Setup::Risotto => "risotto",
            Setup::Native => "native",
        }
    }

    fn frontend(self) -> FrontendConfig {
        match self {
            Setup::Qemu => FrontendConfig::qemu(),
            Setup::NoFences => FrontendConfig::no_fences(),
            Setup::TcgVer => FrontendConfig::tcg_ver(),
            Setup::Risotto => FrontendConfig::risotto(),
            // The native oracle compiles from the same source; ordering
            // comes from its own (Arm) primitives, not inserted fences.
            Setup::Native => FrontendConfig::no_fences(),
        }
    }

    fn opt_policy(self) -> OptPolicy {
        match self {
            Setup::Qemu | Setup::NoFences => OptPolicy::QemuUnsound,
            _ => OptPolicy::Verified,
        }
    }

    /// Whether the dynamic host linker is active (§6.2).
    pub fn host_linking(self) -> bool {
        matches!(self, Setup::Risotto | Setup::Native)
    }
}

/// Which [`HostBackend`] translates, verifies and costs the host code
/// (docs/BACKENDS.md). Selected via [`Emulator::set_backend`] and the
/// bench bins' `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The MiniArm weak-memory host (`risotto-host-arm`) — the paper's
    /// ThunderX2 stand-in and the default.
    #[default]
    Arm,
    /// The MiniTSO (x86-TSO) host (`risotto-host-tso`): most fences are
    /// free, only store→load obligations emit `MFENCE`.
    Tso,
}

impl BackendKind {
    /// Both backends, Arm first (the cross-backend differential oracle
    /// iterates this).
    pub const ALL: [BackendKind; 2] = [BackendKind::Arm, BackendKind::Tso];

    /// The flag/artifact name (`"arm"` / `"tso"`).
    pub fn name(self) -> &'static str {
        self.host().name()
    }

    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "arm" => Some(BackendKind::Arm),
            "tso" => Some(BackendKind::Tso),
            _ => None,
        }
    }

    /// The backend implementation behind this kind.
    pub fn host(self) -> &'static dyn HostBackend {
        match self {
            BackendKind::Arm => &ArmBackend,
            BackendKind::Tso => &TsoBackend,
        }
    }

    /// The ordering dialect behind this kind — the fence/RMW lowering
    /// hooks shared by the tier-1 lowering driver and the tier-0
    /// template translator.
    pub fn ordering(self) -> &'static dyn OrderingLowering {
        match self {
            BackendKind::Arm => &ArmBackend,
            BackendKind::Tso => &TsoBackend,
        }
    }

    /// This backend's calibrated cycle model (feed it to
    /// [`Emulator::new`] so the simulated machine prices instructions
    /// as this host would).
    pub fn cost_model(self) -> CostModel {
        self.host().cost_model()
    }
}

/// One exported function of a [`HostLibrary`].
pub struct HostExport {
    /// Exported name, as imported by guest `.dynsym` entries.
    pub name: String,
    /// Number of parameters the native function expects. Checked against
    /// the IDL declaration at link time.
    pub arity: usize,
    /// The native implementation.
    pub func: NativeFn,
}

impl fmt::Debug for HostExport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostExport").field("name", &self.name).field("arity", &self.arity).finish()
    }
}

/// A native host shared library: named functions over machine memory.
pub struct HostLibrary {
    /// Library name (diagnostic only).
    pub name: String,
    /// Exported functions.
    pub funcs: Vec<HostExport>,
}

impl HostLibrary {
    /// An empty library named `name`.
    pub fn new(name: &str) -> HostLibrary {
        HostLibrary { name: name.to_owned(), funcs: Vec::new() }
    }

    /// Adds an export (builder style).
    #[must_use]
    pub fn export(mut self, name: &str, arity: usize, func: NativeFn) -> Self {
        self.funcs.push(HostExport { name: name.to_owned(), arity, func });
        self
    }
}

impl fmt::Debug for HostLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostLibrary")
            .field("name", &self.name)
            .field("funcs", &self.funcs.iter().map(|e| e.name.clone()).collect::<Vec<_>>())
            .finish()
    }
}

/// Errors from [`Emulator::link_library`]. Linking is atomic: on error,
/// nothing from the offending library is linked.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The library exports a symbol the IDL does not describe; without a
    /// signature the linker cannot marshal its arguments.
    NotInIdl {
        /// Offending library.
        library: String,
        /// The undescribed symbol.
        symbol: String,
    },
    /// The library exports the same name twice.
    DuplicateExport {
        /// Offending library.
        library: String,
        /// The duplicated symbol.
        symbol: String,
    },
    /// The export's parameter count disagrees with the IDL declaration.
    ArityMismatch {
        /// Offending library.
        library: String,
        /// The mismatched symbol.
        symbol: String,
        /// Parameter count per the IDL.
        idl: usize,
        /// Parameter count per the export.
        export: usize,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NotInIdl { library, symbol } => {
                write!(f, "{library}: export `{symbol}` is not described by the IDL")
            }
            LinkError::DuplicateExport { library, symbol } => {
                write!(f, "{library}: export `{symbol}` appears more than once")
            }
            LinkError::ArityMismatch { library, symbol, idl, export } => write!(
                f,
                "{library}: export `{symbol}` takes {export} argument(s) but the IDL declares {idl}"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// One core's state at the moment of a stall (see [`EmuError::Stalled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreDump {
    /// Core index.
    pub core: usize,
    /// Host pc the core was executing.
    pub host_pc: u64,
    /// The core's local clock.
    pub cycles: u64,
    /// Whether the core had halted.
    pub halted: bool,
}

impl fmt::Display for CoreDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} at host pc {:#x}, {} cycles{}",
            self.core,
            self.host_pc,
            self.cycles,
            if self.halted { ", halted" } else { "" }
        )
    }
}

/// Engine errors. Every variant carries enough context to locate the
/// failure: guest pc, core, and the failing layer.
#[non_exhaustive]
#[derive(Debug)]
pub enum EmuError {
    /// Guest instruction decoding failed during translation *and* the
    /// interpreter fallback could not execute the block either (the guest
    /// bytes themselves are undecodable).
    Translate {
        /// The underlying frontend fault (also via
        /// [`std::error::Error::source`]).
        source: TranslateError,
        /// Core that needed the block, if known.
        core: Option<usize>,
        /// Translation-block count at the time of failure.
        tb_count: usize,
    },
    /// The step budget was exhausted.
    OutOfFuel,
    /// `spawn` with no idle core left.
    TooManyThreads {
        /// Core performing the spawn.
        core: usize,
        /// Guest pc following the spawn syscall.
        pc: u64,
    },
    /// Unknown guest syscall.
    BadSyscall {
        /// The unknown syscall number.
        n: u64,
        /// Core performing the syscall.
        core: usize,
        /// Guest pc following the syscall.
        pc: u64,
    },
    /// `join` on an invalid thread.
    BadJoin {
        /// The invalid target thread id.
        tid: u64,
        /// Core performing the join.
        core: usize,
        /// Guest pc following the syscall.
        pc: u64,
    },
    /// The livelock watchdog fired: no observable progress (new
    /// translation, completed syscall, output, or core exit) for the
    /// configured number of machine steps. Carries a per-core state dump.
    Stalled {
        /// Machine steps executed since the last observable progress.
        steps: u64,
        /// Per-core state at detection time.
        cores: Vec<CoreDump>,
    },
    /// An injected, non-recoverable fault (see [`FaultPlan`]); only the
    /// syscall layer produces these — translation-side injections are
    /// absorbed by the interpreter fallback.
    Injected {
        /// The faulting pipeline layer.
        site: FaultSite,
        /// Core that hit the fault.
        core: usize,
        /// Guest pc at (or just after) the fault.
        pc: u64,
    },
    /// The host machine hit unexecutable state (undecodable host bytes,
    /// an unknown helper or native index). The generated code itself is
    /// broken, so there is no safe re-execution point.
    HostFault {
        /// What kind of host fault.
        kind: HostFaultKind,
        /// The faulting core.
        core: usize,
        /// Host pc of the faulting instruction.
        host_pc: u64,
        /// Guest pc of the containing translation block, if it could be
        /// recovered from the TB map.
        guest_pc: Option<u64>,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Translate { source, core, tb_count } => {
                write!(f, "translation failed: {source}")?;
                if let Some(c) = core {
                    write!(f, " (core {c})")?;
                }
                write!(f, " after {tb_count} TBs")
            }
            EmuError::OutOfFuel => write!(f, "execution budget exhausted"),
            EmuError::TooManyThreads { core, pc } => {
                write!(f, "spawn on core {core} near guest pc {pc:#x}: no idle core")
            }
            EmuError::BadSyscall { n, core, pc } => {
                write!(f, "unknown syscall {n} on core {core} near guest pc {pc:#x}")
            }
            EmuError::BadJoin { tid, core, pc } => {
                write!(f, "join on invalid thread {tid} (core {core}, near guest pc {pc:#x})")
            }
            EmuError::Stalled { steps, cores } => {
                write!(f, "no progress for {steps} steps:")?;
                for d in cores {
                    write!(f, " [{d}]")?;
                }
                Ok(())
            }
            EmuError::Injected { site, core, pc } => {
                write!(f, "injected {site} fault on core {core} near guest pc {pc:#x}")
            }
            EmuError::HostFault { kind, core, host_pc, guest_pc } => {
                write!(f, "host fault {kind:?} on core {core} at host pc {host_pc:#x}")?;
                match guest_pc {
                    Some(g) => write!(f, " (TB for guest pc {g:#x})"),
                    None => write!(f, " (unmapped host code)"),
                }
            }
        }
    }
}

impl std::error::Error for EmuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmuError::Translate { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The result of a completed emulation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Parallel runtime in simulated cycles (max core clock).
    pub cycles: u64,
    /// Translated blocks.
    pub tb_count: usize,
    /// Bytes of generated host code.
    pub code_bytes: usize,
    /// Aggregated core statistics.
    pub stats: CoreStats,
    /// Exit value per core (`None` if the core never ran).
    pub exit_vals: Vec<Option<u64>>,
    /// Bytes written via the `WRITE` syscall.
    pub output: Vec<u8>,
    /// Blocks that entered interpreter fallback after a translation or
    /// lowering failure (quarantine episodes).
    pub fallback_blocks: usize,
    /// Translations performed beyond a block's first: cache-eviction /
    /// corruption refills plus bounded retries of quarantined blocks.
    pub retranslations: usize,
    /// TB-chaining and dispatcher counters from the host machine.
    pub chain: ChainStats,
    /// Aggregated optimizer statistics over every translated block.
    /// Tier-1 only — region passes over superblocks report under
    /// [`Report::sb`] so non-tiered totals are unaffected by tiering.
    pub opt: OptStats,
    /// Tier-2 superblock statistics (all zero unless
    /// [`Emulator::set_tiering`] enabled promotion).
    pub sb: SbStats,
    /// Tier-0 template-translation statistics (all zero unless
    /// [`TierConfig::warm_threshold`] enabled the template tier).
    pub template: TemplateStats,
}

/// Tier-2 promotion policy, enabled via [`Emulator::set_tiering`].
///
/// A profiled block whose entry count crosses `hot_threshold` becomes a
/// promotion candidate: the engine walks its dominant successor chain
/// (direct jumps always, conditional exits only when the profile is
/// decisively biased), stitches up to `max_tbs` tier-1 blocks into one
/// superblock, re-runs the full optimizer over the region — fence
/// merging and memory-access eliminations now firing *across* former TB
/// boundaries — and installs the result over the head, evicting the
/// subsumed tier-1 bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Entry count at which a block becomes a candidate. Every multiple
    /// re-fires the event, so a declined candidate that stays hot is
    /// re-offered later.
    pub hot_threshold: u64,
    /// Maximum tier-1 blocks merged into one superblock.
    pub max_tbs: usize,
    /// Minimum trace length worth promoting (clamped to ≥ 2: a
    /// one-block "superblock" is just the tier-1 body again).
    pub min_tbs: usize,
    /// `Some(w)` enables the tier-0 template tier: cold blocks are first
    /// translated by IR-less template instantiation (`risotto-template`)
    /// and re-translated through the full tier-1 pipeline once their
    /// entry count crosses `w`. `None` (the default) keeps the two-tier
    /// engine: every block goes straight through tier-1.
    pub warm_threshold: Option<u64>,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig { hot_threshold: 512, max_tbs: 8, min_tbs: 2, warm_threshold: None }
    }
}

impl TierConfig {
    /// The machine-side profiler threshold: the smallest entry count at
    /// which any promotion decision (tier-0→1 at
    /// [`TierConfig::warm_threshold`], tier-1→2 at
    /// [`TierConfig::hot_threshold`]) can fire. The profile event
    /// re-fires at every multiple, so the engine re-checks the larger
    /// threshold on later crossings.
    fn machine_threshold(&self) -> u64 {
        match self.warm_threshold {
            Some(w) => w.min(self.hot_threshold),
            None => self.hot_threshold,
        }
    }
}

/// Tier-2 superblock counters (see `docs/METRICS.md`, `sb.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbStats {
    /// Superblocks successfully installed.
    pub promotions: u64,
    /// Promotions abandoned mid-pipeline (stitch or lowering failure);
    /// the tier-1 translations stay untouched.
    pub failures: u64,
    /// Hot-TB events declined before stitching: trace shorter than
    /// `min_tbs`, PLT thunk, quarantined or untranslated head.
    pub declined: u64,
    /// Tier-1 blocks merged into superblocks (sum of trace lengths).
    pub tbs_merged: u64,
    /// `SideExit` guards emitted across all installed superblocks.
    pub side_exits: u64,
    /// Fence merges that crossed a former TB boundary — the cross-block
    /// wins tier-1 cannot see (subset of the region passes' merges).
    pub fences_merged_cross: u64,
    /// Tier-1 translations evicted because a superblock subsumed them.
    pub subsumed: u64,
    /// Machine transfers that entered a superblock head.
    pub entries: u64,
}

/// Tier-0 template-translation counters (see `docs/METRICS.md`,
/// `template.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Blocks translated by template instantiation.
    pub blocks: u64,
    /// Guest instructions covered by template translations.
    pub insns: u64,
    /// Template blocks re-translated through the tier-1 IR pipeline
    /// after crossing [`TierConfig::warm_threshold`].
    pub promotions: u64,
    /// Tier-0→1 promotions that failed (injected fault or pipeline
    /// error); the template translation stays installed.
    pub promotion_failures: u64,
}

impl Report {
    /// Fraction of direct-jump exits resolved through a patched chain
    /// slot rather than the dispatcher (0.0 when no direct exits ran).
    pub fn chain_hit_rate(&self) -> f64 {
        let total = self.chain.chain_hits + self.chain.chain_links;
        if total == 0 {
            0.0
        } else {
            self.chain.chain_hits as f64 / total as f64
        }
    }
}

/// Why a translation could not be produced right now. All variants are
/// recoverable through the interpreter fallback; genuinely undecodable
/// guest bytes resurface there as [`EmuError::Translate`].
enum TbFault {
    /// A [`FaultPlan`] injection at the frontend or backend boundary.
    Injected,
    /// The frontend failed to decode the guest block.
    Frontend,
    /// The backend failed to lower the block.
    Backend,
    /// The translation verifier rejected the produced translation (IR
    /// lint, fence-obligation check, or encoding read-back) and the
    /// block was discarded before it could be dispatched.
    Verify,
    /// The pc exhausted its re-translation retries and is permanently
    /// interpreted.
    Quarantined,
}

/// How much of the static translation validator runs (docs/VERIFIER.md).
///
/// The validator is a pure observer: no level changes cycle counts,
/// output, or exit values of a run whose translations all verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// No verification: the pipeline is trusted.
    Off,
    /// Install-time read-back only: every installed code region is read
    /// back from the code cache and compared against the canonical
    /// encoding of the lowered instructions *before* the translation
    /// becomes dispatchable. Catches cache corruption, never executes
    /// damaged code.
    Install,
    /// Full static validation on top of [`VerifyLevel::Install`]: the
    /// IR lint, the fence-obligation translation validation against the
    /// unoptimized reference block, and the host decode-back encoding
    /// check run on every translated block and superblock.
    Full,
}

impl Default for VerifyLevel {
    /// [`VerifyLevel::Full`] under `debug_assertions`, otherwise
    /// [`VerifyLevel::Off`].
    fn default() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Full
        } else {
            VerifyLevel::Off
        }
    }
}

/// Bounded fallback bookkeeping: guest pc → failed translation attempts,
/// with least-recently-touched eviction at [`QUARANTINE_CAPACITY`] so a
/// guest sweeping an unbounded set of failing pcs cannot grow the map
/// without limit. Eviction may forget a pc's retry count; the evicted
/// block simply earns a fresh (still bounded) retry budget, which is
/// safe — quarantine only ever trades translation attempts for
/// interpreter time, never correctness.
#[derive(Debug, Default)]
struct Quarantine {
    /// pc → (failed attempts, last-touch stamp).
    map: HashMap<u64, (u32, u64)>,
    /// Monotonic touch stamp; unique per touch, so LRU victims are
    /// deterministic even over `HashMap` iteration.
    stamp: u64,
}

impl Quarantine {
    /// Failed attempts recorded for `pc` (0 if untracked); refreshes
    /// the entry's LRU stamp.
    fn attempts(&mut self, pc: u64) -> u32 {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.map.get_mut(&pc) {
            Some(e) => {
                e.1 = stamp;
                e.0
            }
            None => 0,
        }
    }

    /// Whether `pc` is currently quarantined (no LRU refresh).
    fn contains(&self, pc: u64) -> bool {
        self.map.contains_key(&pc)
    }

    /// Records one more failed attempt for `pc`, evicting the
    /// least-recently-touched entry if the map is full.
    fn note_failure(&mut self, pc: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.map.get_mut(&pc) {
            e.0 += 1;
            e.1 = stamp;
            return;
        }
        if self.map.len() >= QUARANTINE_CAPACITY {
            // Tie-break equal stamps on the guest pc: iteration order of
            // the map is hash-seeded, and fault-sweep runs must be
            // reproducible.
            if let Some(victim) =
                self.map.iter().min_by_key(|(&pc, &(_, s))| (s, pc)).map(|(&pc, _)| pc)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(pc, (1, stamp));
    }

    /// Clears `pc` (a successful translation ends its quarantine).
    fn clear(&mut self, pc: u64) {
        self.map.remove(&pc);
    }

    /// Number of tracked pcs (always ≤ [`QUARANTINE_CAPACITY`]).
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// What the [`VerifyLevel::Full`] static passes compare
/// (docs/VERIFIER.md): the unoptimized block the fence obligations are
/// derived from, the optimized block that was lowered, and the
/// verifier's own relaxation mask (empty = nothing relaxed).
struct FullCheck {
    reference: TcgBlock,
    optimized: TcgBlock,
    relax_mask: Vec<bool>,
}

/// Host code a tier's producer offers to [`Emulator::commit`]. The
/// producers differ only in how `code` came to be; everything that makes
/// it dispatchable is `commit`'s.
struct Candidate {
    head_pc: u64,
    code: Vec<HostInsn>,
    /// Guest pcs a superblock install evicts, head first; empty for a
    /// single-block install.
    relinks: Vec<u64>,
    /// `Some` at [`VerifyLevel::Full`] from the producers that build IR
    /// (tier-1, tier-2); templates and thunks have no per-block IR.
    full: Option<FullCheck>,
    /// The `Install` event's detail where it is not the plain host
    /// instruction count (superblocks describe their shape).
    detail: Option<String>,
}

impl Candidate {
    /// A single-block candidate with nothing for the static passes.
    fn block(head_pc: u64, code: Vec<HostInsn>) -> Candidate {
        Candidate { head_pc, code, relinks: Vec::new(), full: None, detail: None }
    }
}

/// What the core should do after a serviced syscall.
enum SyscallOutcome {
    /// Continue at the pc following the syscall.
    Resume,
    /// The core halted (guest exit).
    Halted,
    /// Re-execute the syscall later (join busy-wait).
    Retry,
}

/// The DBT engine.
#[derive(Debug)]
pub struct Emulator {
    setup: Setup,
    machine: Machine,
    text: Vec<u8>,
    entry: u64,
    /// PLT vaddr → (native function id, arity) for host-linked imports.
    plt_natives: HashMap<u64, (u16, usize)>,
    exit_vals: Vec<Option<u64>>,
    output: Vec<u8>,
    tb_count: usize,
    core_started: Vec<bool>,
    passes: PassConfig,
    rmw_style: RmwStyle,
    /// Host backend lowering/verifying every translation
    /// (docs/BACKENDS.md); [`Setup::Native`] is pinned to Arm.
    backend_kind: BackendKind,
    plan: FaultPlan,
    /// Bounded guest pc → failed-translation-attempt map (fallback
    /// bookkeeping, satellite of the translation verifier).
    quarantine: Quarantine,
    /// Guest pcs that have ever had a successful translation installed.
    ever_translated: HashSet<u64>,
    fallback_blocks: usize,
    retranslations: usize,
    /// Instructions executed by the fallback interpreter (counts against
    /// the run's fuel).
    interp_steps: u64,
    fuel_limit: u64,
    watchdog: Option<u64>,
    /// Syscall service attempts (drives [`FaultPlan::fail_syscall_at`]).
    syscall_attempts: u64,
    /// Completed (non-busy-wait) syscalls — a watchdog progress marker.
    syscalls_completed: u64,
    /// Observability: metrics registry, trace sink, hot-TB profiler.
    obs: Obs,
    /// Optimizer statistics aggregated over every translated block.
    opt_totals: OptStats,
    /// Tier-2 promotion policy (`None` = tier-1 only).
    tiering: Option<TierConfig>,
    /// Guest pcs whose current translation is a tier-0 template block
    /// (promotion candidates for the tier-1 re-translate).
    tier0_pcs: HashSet<u64>,
    /// Tier-0 template-translation counters.
    template_stats: TemplateStats,
    /// Engine-side superblock counters (`subsumed`/`entries` live on the
    /// machine and are merged in at snapshot time).
    sb_stats: SbStats,
    /// Region-pass optimizer statistics over every installed superblock,
    /// kept out of [`Emulator::opt_totals`] so tier-1 reporting is
    /// unchanged by tiering.
    sb_opt: OptStats,
    /// Backend register-allocation statistics summed over every lowered
    /// block (tier-1 and tier-2), mirrored into `regalloc.*` metrics.
    regalloc_totals: AllocStats,
    /// Frontend-emitted fences counted pre-optimization, indexed per
    /// [`FenceKind::tcg_index`].
    fence_inserted: [u64; 12],
    /// Guest pc → stable engine TB id (1-based first-install order).
    tb_ids: HashMap<u64, u64>,
    /// Engine-side dispatch-loop profile: guest pc → (entries, misses);
    /// only filled while profiling is enabled.
    resume_profile: HashMap<u64, (u64, u64)>,
    /// Engine-side TB-map lookups that found an existing translation.
    tbcache_hits: u64,
    /// Injected faults encountered (translate / lower / syscall).
    faults_injected: u64,
    /// Guest instructions covered by tier-1 translations (denominator
    /// of the per-tier translation-cost comparison).
    tier1_insns: u64,
    /// Active translation-verifier level (docs/VERIFIER.md).
    verify: VerifyLevel,
    /// Verification checks executed (each level-applicable check on a
    /// TB or superblock counts once; a Full-level TB counts twice —
    /// translate-time static passes plus install-time read-back).
    verify_checked: u64,
    /// IR-lint violations (pass 1).
    verify_ir: u64,
    /// Fence-obligation violations (pass 2).
    verify_fence: u64,
    /// Encoding / read-back violations (pass 3 and install checks).
    verify_encoding: u64,
    /// Code installs so far (ordinal for
    /// [`FaultPlan::corrupt_install_at`]).
    installs_done: u64,
    /// The loaded image, kept so analysis can run on demand.
    binary: GuestBinary,
    /// Whole-program analysis facts driving fence relaxation
    /// (docs/ANALYSIS.md); `None` = analysis disabled (the default).
    analysis: Option<Arc<ImageFacts>>,
    /// Test hook: guest pcs the relaxer pretends are private (mutant
    /// injection for verifier kill tests; see `force_private_for_test`).
    forced_private: HashSet<u64>,
    /// Analysis-cache lookups that found existing facts.
    analysis_cache_hits: u64,
    /// Analysis-cache lookups that ran the full analysis.
    analysis_cache_misses: u64,
    /// Fences removed by analysis-driven relaxation at translate time.
    analysis_relaxed: u64,
    /// Tier-1 translations with at least one relaxed event.
    analysis_relaxed_blocks: u64,
    /// Known-bits hint statistics summed over tier-1 translations.
    hint_totals: HintStats,
}

impl Emulator {
    /// Loads a guest binary under the given setup.
    pub fn new(binary: &GuestBinary, setup: Setup, n_cores: usize, cost: CostModel) -> Emulator {
        let mut machine = Machine::new(n_cores, cost);
        machine.mem.write_bytes(TEXT_BASE, &binary.text);
        machine.mem.write_bytes(DATA_BASE, &binary.data);
        Emulator {
            setup,
            machine,
            text: binary.text.clone(),
            entry: binary.entry,
            plt_natives: HashMap::new(),
            exit_vals: vec![None; n_cores],
            output: Vec::new(),
            tb_count: 0,
            core_started: vec![false; n_cores],
            passes: PassConfig::all(),
            rmw_style: RmwStyle::Casal,
            backend_kind: BackendKind::Arm,
            plan: FaultPlan::default(),
            quarantine: Quarantine::default(),
            ever_translated: HashSet::new(),
            fallback_blocks: 0,
            retranslations: 0,
            interp_steps: 0,
            fuel_limit: u64::MAX,
            watchdog: None,
            syscall_attempts: 0,
            syscalls_completed: 0,
            obs: Obs::new(),
            opt_totals: OptStats::default(),
            tiering: None,
            tier0_pcs: HashSet::new(),
            template_stats: TemplateStats::default(),
            sb_stats: SbStats::default(),
            sb_opt: OptStats::default(),
            regalloc_totals: AllocStats::default(),
            fence_inserted: [0; 12],
            tb_ids: HashMap::new(),
            resume_profile: HashMap::new(),
            tbcache_hits: 0,
            faults_injected: 0,
            tier1_insns: 0,
            verify: VerifyLevel::default(),
            verify_checked: 0,
            verify_ir: 0,
            verify_fence: 0,
            verify_encoding: 0,
            installs_done: 0,
            binary: binary.clone(),
            analysis: None,
            forced_private: HashSet::new(),
            analysis_cache_hits: 0,
            analysis_cache_misses: 0,
            analysis_relaxed: 0,
            analysis_relaxed_blocks: 0,
            hint_totals: HintStats::default(),
        }
    }

    /// Overrides how direct TCG `Cas`/`AtomicAdd` ops are lowered (§6.3
    /// ablation): `casal` vs the `DMBFF; RMW2; DMBFF` exclusive loop. Only
    /// affects setups whose frontend emits direct RMW ops (risotto,
    /// no-fences).
    pub fn set_rmw_style(&mut self, style: RmwStyle) {
        self.rmw_style = style;
    }

    /// Selects the host backend (docs/BACKENDS.md). Call it before the
    /// first translation: installed code is not retranslated. The
    /// native-oracle setup models Arm-compiled binaries and stays on
    /// the Arm backend.
    ///
    /// # Panics
    ///
    /// If a non-Arm backend is requested under [`Setup::Native`].
    pub fn set_backend(&mut self, kind: BackendKind) {
        assert!(
            self.setup != Setup::Native || kind == BackendKind::Arm,
            "the native oracle is Arm-compiled code; it has no {} rendition",
            kind.name()
        );
        self.backend_kind = kind;
    }

    /// The active host backend.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// Overrides the optimizer pass configuration (ablation studies).
    pub fn set_passes(&mut self, passes: PassConfig) {
        self.passes = passes;
    }

    /// Installs a fault-injection plan (see [`FaultPlan`]). Set it before
    /// [`Emulator::link_library`] for host-call faults to apply.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Selects the translation-verifier level (see [`VerifyLevel`];
    /// defaults to [`VerifyLevel::Full`] in debug builds,
    /// [`VerifyLevel::Off`] in release builds). Verification is purely
    /// observational on clean translations: cycles, output and exit
    /// values are bit-identical across levels.
    pub fn set_verify(&mut self, level: VerifyLevel) {
        self.verify = level;
    }

    /// The active translation-verifier level.
    pub fn verify_level(&self) -> VerifyLevel {
        self.verify
    }

    /// Enables or disables whole-program analysis-driven fence
    /// relaxation (docs/ANALYSIS.md). Facts are computed once per
    /// distinct image and cached process-wide keyed by [`content_hash`];
    /// already-installed translations are not retroactively changed, so
    /// flip this before running. Relaxation never weakens verification:
    /// the Full-level verifier re-derives its own mask from the pristine
    /// facts and rejects any translation that relaxed more.
    pub fn set_analysis(&mut self, on: bool) {
        if !on {
            self.analysis = None;
            return;
        }
        if self.analysis.is_some() {
            return;
        }
        let (facts, hit) = cached_analysis(&self.binary);
        if hit {
            self.analysis_cache_hits += 1;
        } else {
            self.analysis_cache_misses += 1;
        }
        self.analysis = Some(facts);
    }

    /// Whether analysis-driven relaxation is enabled.
    pub fn analysis_enabled(&self) -> bool {
        self.analysis.is_some()
    }

    /// The analysis facts for the loaded image (None while disabled).
    pub fn analysis_facts(&self) -> Option<&ImageFacts> {
        self.analysis.as_deref()
    }

    /// Test hook (mutant injection): forces the relaxer to treat the
    /// access at `pc` as private regardless of what the analysis
    /// proved. The verifier mask is still derived from the pristine
    /// facts, so a wrong claim surfaces as a structured
    /// fence-obligation [`VerifyError`] at install time.
    #[doc(hidden)]
    pub fn force_private_for_test(&mut self, pc: u64) {
        self.forced_private.insert(pc);
    }

    /// Number of guest pcs currently quarantined (bounded by the
    /// engine's fixed quarantine capacity).
    pub fn quarantined_pcs(&self) -> usize {
        self.quarantine.len()
    }

    /// Selects the host scheduling policy (see [`SchedPolicy`]).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.machine.set_sched_policy(policy);
    }

    /// Enables or disables TB chaining and the indirect jump cache on the
    /// host machine (on by default). The disabled configuration resolves
    /// every exit through the dispatcher and is the reference that chained
    /// runs are differentially checked against.
    pub fn set_chaining(&mut self, on: bool) {
        self.machine.set_chaining(on);
    }

    /// Installs a trace sink and enables structured event emission at the
    /// decode / opt / encode / install / dispatch / fault boundaries.
    /// Tracing is purely observational: a traced run is bit-identical
    /// (cycles, output, exit values) to an untraced one.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.sink = sink;
        self.obs.tracing = true;
    }

    /// Removes the installed trace sink (replacing it with a
    /// [`NullSink`] and disabling event emission) and returns it — the
    /// way to inspect a [`crate::obs::RingBufferSink`] after a run.
    pub fn take_trace_sink(&mut self) -> Box<dyn TraceSink> {
        self.obs.tracing = false;
        std::mem::replace(&mut self.obs.sink, Box::new(NullSink))
    }

    /// Enables per-stage wall-clock histograms (`stage.*_ns` metrics).
    /// Off by default: the untimed pipeline takes no clock readings.
    pub fn set_stage_timing(&mut self, on: bool) {
        self.obs.timing = on;
    }

    /// Enables the hot-TB profiler on both the engine dispatch loop and
    /// the host machine's transfer paths (off by default; observational
    /// only). Disabling discards collected counts.
    pub fn set_profiling(&mut self, on: bool) {
        self.obs.profiling = on;
        // The tier-2 promoter owns the machine-side profile while
        // tiering is enabled; it must survive observability toggles.
        self.machine.set_profiling(on || self.tiering.is_some());
        if !on {
            self.resume_profile.clear();
            self.obs.profiler.clear();
        }
    }

    /// Enables (or, with `None`, disables) tier-2 superblock promotion.
    /// Tiering turns on the machine's transfer profile — the trace
    /// selector needs branch-bias counts — but not the engine's
    /// observational profiler ([`Emulator::set_profiling`]).
    ///
    /// Tiering never changes architectural results: superblocks are the
    /// same guest instructions under the same (sound) optimizer, with
    /// side-exit guards where the trace commits to a profiled direction.
    /// Cycle counts *do* change — that is the point.
    pub fn set_tiering(&mut self, cfg: Option<TierConfig>) {
        self.tiering = cfg;
        self.machine.set_hot_threshold(cfg.map(|c| c.machine_threshold()));
        self.machine.set_profiling(self.obs.profiling || cfg.is_some());
    }

    /// Tier-0 template statistics so far (also in [`Report::template`]
    /// after a run).
    pub fn template_stats(&self) -> TemplateStats {
        self.template_stats
    }

    /// `true` while the tier-0 template tier serves cold translations:
    /// tiering must be on with a [`TierConfig::warm_threshold`], and the
    /// setup must be a DBT one (the native oracle has no guest decode).
    fn tier0_active(&self) -> bool {
        self.setup != Setup::Native && self.tiering.is_some_and(|c| c.warm_threshold.is_some())
    }

    /// Tier-2 statistics so far (also in [`Report::sb`] after a run).
    pub fn sb_stats(&self) -> SbStats {
        let cache = self.machine.cache_stats();
        SbStats {
            subsumed: cache.sb_subsumed,
            entries: self.machine.chain_stats().sb_entries,
            fences_merged_cross: self.sb_opt.fences_merged_cross as u64,
            ..self.sb_stats
        }
    }

    /// `true` if `guest_pc` currently executes as a tier-2 superblock.
    pub fn is_superblock(&self, guest_pc: u64) -> bool {
        self.machine.is_sb_head(guest_pc)
    }

    /// Audits the machine's chain graph; empty means every patched chain
    /// word points at a live translation (see `Machine::validate_chains`).
    pub fn validate_chains(&self) -> Vec<(u64, u64, u64)> {
        self.machine.validate_chains()
    }

    /// A versioned snapshot of every registry metric, refreshed from the
    /// engine and machine state. Valid at any point — typically read
    /// after [`Emulator::run`] returns. See `docs/METRICS.md`.
    pub fn metrics(&mut self) -> MetricsSnapshot {
        self.refresh_metrics();
        self.obs.registry.snapshot()
    }

    /// The `n` hottest translation blocks by execution count (requires
    /// [`Emulator::set_profiling`]; empty otherwise).
    pub fn hot_tbs(&mut self, n: usize) -> Vec<HotTb> {
        self.rebuild_profiler();
        self.obs.profiler.top_n(n)
    }

    /// Arms the livelock watchdog: a run that makes no observable
    /// progress (new translation, completed syscall, output bytes, core
    /// exit) for `steps` machine steps fails with [`EmuError::Stalled`].
    pub fn set_watchdog(&mut self, steps: u64) {
        self.watchdog = Some(steps.max(1));
    }

    /// The active setup.
    pub fn setup(&self) -> Setup {
        self.setup
    }

    /// Read access to guest/machine memory (for assertions).
    pub fn mem(&self) -> &risotto_guest_x86::SparseMem {
        &self.machine.mem
    }

    /// The architectural value of guest register `reg` on `core`.
    ///
    /// Valid once the core has been initialized (and after
    /// [`run`](Emulator::run) returns): differential harnesses use this
    /// to compare final register files against the reference interpreter.
    /// Reads the env-slot block in the DBT setups and the pinned host
    /// registers in the native setup, so it is setup-agnostic.
    pub fn guest_reg(&self, core: usize, reg: Gpr) -> u64 {
        self.read_env(core, reg.0)
    }

    /// The full 16-register guest file of `core`
    /// (see [`Emulator::guest_reg`]).
    pub fn guest_regs(&self, core: usize) -> [u64; Gpr::COUNT] {
        std::array::from_fn(|i| self.read_env(core, i as u8))
    }

    /// The architectural condition flags of `core`
    /// (see [`Emulator::guest_reg`]).
    pub fn guest_flags(&self, core: usize) -> Flags {
        let set = |slot: u8| self.read_env(core, slot) != 0;
        Flags { zf: set(env::ZF), sf: set(env::SF), cf: set(env::CF), of: set(env::OF) }
    }

    /// Enables or disables the host machine's ordered atomic-access
    /// event log (off by default; purely observational). The fuzzer's
    /// per-access ordering oracle drains it with
    /// [`Emulator::take_atomic_log`] after a run.
    pub fn set_atomic_log(&mut self, on: bool) {
        self.machine.set_atomic_log(on);
    }

    /// Drains and returns the recorded [`AtomicEvent`]s in execution
    /// order (empty when the log is disabled).
    pub fn take_atomic_log(&mut self) -> Vec<AtomicEvent> {
        self.machine.take_atomic_log()
    }

    /// Links a host library against the binary's imports (§6.2): every
    /// export whose name appears in the binary's `.dynsym` gets its PLT
    /// entry redirected to the native function. The whole library is
    /// validated against `idl` first — unknown symbols, duplicate exports
    /// and arity mismatches are typed errors and link nothing. No-op
    /// (after validation) unless the setup enables host linking.
    ///
    /// Returns the names actually linked.
    ///
    /// # Errors
    ///
    /// [`LinkError`] on a library/IDL mismatch.
    pub fn link_library(
        &mut self,
        binary: &GuestBinary,
        idl: &Idl,
        lib: HostLibrary,
    ) -> Result<Vec<String>, LinkError> {
        let mut seen: HashSet<&str> = HashSet::new();
        for e in &lib.funcs {
            if !seen.insert(&e.name) {
                return Err(LinkError::DuplicateExport {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                });
            }
            let Some(decl) = idl.lookup(&e.name) else {
                return Err(LinkError::NotInIdl {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                });
            };
            if decl.params.len() != e.arity {
                return Err(LinkError::ArityMismatch {
                    library: lib.name.clone(),
                    symbol: e.name.clone(),
                    idl: decl.params.len(),
                    export: e.arity,
                });
            }
        }
        if !self.setup.host_linking() {
            return Ok(Vec::new());
        }
        let mut linked = Vec::new();
        for HostExport { name, arity, func } in lib.funcs {
            let Some(sym) = binary.dynsyms.iter().find(|d| d.name == name) else { continue };
            if self.plan.host_call_fails(&name) {
                // Injected link failure: leave the import on its
                // translated guest implementation (the PLT stub jumps
                // there) — the run still produces the same output.
                continue;
            }
            let id = self.machine.register_native(func);
            self.plt_natives.insert(sym.plt_vaddr, (id, arity));
            // Re-binding (last wins): discard any already-installed thunk.
            self.machine.unmap_tb(sym.plt_vaddr);
            linked.push(name);
        }
        Ok(linked)
    }

    fn env_base(core: usize) -> u64 {
        ENV_REGION + core as u64 * ENV_STRIDE
    }

    fn env_addr(core: usize, reg: u8) -> u64 {
        Self::env_base(core) + reg as u64 * 8
    }

    /// Guest env slot `slot` of `core` — registers 0–15, then the four
    /// condition flags: the env block in machine memory in the DBT
    /// setups, host register `X(6 + slot)` in the native convention.
    fn read_env(&self, core: usize, slot: u8) -> u64 {
        if self.setup == Setup::Native {
            self.machine.reg(core, Xreg(6 + slot))
        } else {
            self.machine.mem.read_u64(Self::env_addr(core, slot))
        }
    }

    fn write_env(&mut self, core: usize, slot: u8, val: u64) {
        if self.setup == Setup::Native {
            self.machine.set_reg(core, Xreg(6 + slot), val);
        } else {
            self.machine.mem.write_u64(Self::env_addr(core, slot), val);
        }
    }

    fn write_guest_reg(&mut self, core: usize, reg: Gpr, val: u64) {
        self.write_env(core, reg.0, val);
    }

    fn write_guest_flags(&mut self, core: usize, f: Flags) {
        for (slot, b) in [(env::ZF, f.zf), (env::SF, f.sf), (env::CF, f.cf), (env::OF, f.of)] {
            self.write_env(core, slot, b as u64);
        }
    }

    fn init_core(&mut self, core: usize, arg: Option<u64>) {
        let stack_top = STACK_TOP - core as u64 * STACK_SIZE;
        for slot in 0..env::COUNT as u8 {
            self.write_env(core, slot, 0);
        }
        if self.setup != Setup::Native {
            self.machine.set_reg(core, ENV_BASE, Self::env_base(core));
        }
        self.machine.set_reg(core, SPILL_BASE, SPILL_REGION + core as u64 * SPILL_STRIDE);
        self.write_guest_reg(core, Gpr::RSP, stack_top);
        if let Some(a) = arg {
            self.write_guest_reg(core, Gpr::RDI, a);
        }
        self.core_started[core] = true;
    }

    /// The 16-byte instruction window at `pc` (zero-padded outside
    /// `.text`) — what every decoder in the engine reads through.
    fn fetch(&self, pc: u64) -> [u8; 16] {
        let mut w = [0u8; 16];
        let off = pc.checked_sub(TEXT_BASE).and_then(|off| usize::try_from(off).ok());
        if let Some(tail) = off.and_then(|off| self.text.get(off..)) {
            for (slot, byte) in w.iter_mut().zip(tail) {
                *slot = *byte;
            }
        }
        w
    }

    /// The backend configuration every producer lowers with and the
    /// encoding check decodes against.
    fn backend_config(&self) -> BackendConfig {
        match self.setup {
            Setup::Native => BackendConfig::native(),
            // QEMU's helpers use casal with GCC ≥ 10 (§3.1); the RMW
            // style (§6.3 ablation) only affects direct `Cas` ops, which
            // exist in the Risotto/NoFences frontends.
            _ => BackendConfig::dbt(self.rmw_style),
        }
    }

    /// Runs one pipeline stage under the stage clock. With stage timing
    /// on, a stage that succeeds leaves its wall time in the `metric`
    /// histogram and hands it back for the stage's trace event; a
    /// failed stage leaves no sample.
    fn timed<R>(
        &mut self,
        metric: &str,
        stage: impl FnOnce(&mut Self) -> Result<R, TbFault>,
    ) -> Result<(R, Option<u64>), TbFault> {
        let t0 = self.obs.timing.then(Instant::now);
        let out = stage(self)?;
        let dur = t0.map(|t| t.elapsed().as_nanos() as u64);
        if let Some(ns) = dur {
            self.obs.registry.observe(metric, ns);
        }
        Ok((out, dur))
    }

    /// Fires a planned install-time corruption ([`FaultPlan::corrupt_install_at`])
    /// against the freshly installed region at `host`, if one is due.
    fn maybe_corrupt_install(&mut self, host: u64) {
        let nth = self.installs_done;
        self.installs_done += 1;
        if !self.plan.take_install_corruption(nth) {
            return;
        }
        let len = self.machine.code_bytes(host).map_or(0, <[u8]>::len);
        if len > 0 {
            let off = self.plan.pick(len);
            if self.machine.corrupt_code_byte(host, off) {
                self.faults_injected += 1;
            }
        }
    }

    /// Install-time read-back check: the bytes resident in the code
    /// cache at `host` must be exactly `expect`, the canonical encoding
    /// of the instructions that were installed.
    fn check_install_bytes(
        &self,
        guest_pc: u64,
        host: u64,
        expect: &[u8],
    ) -> Result<(), VerifyError> {
        let got = self.machine.code_bytes(host).unwrap_or(&[]);
        if got != expect {
            let off = expect
                .iter()
                .zip(got)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expect.len().min(got.len()));
            return Err(VerifyError {
                pass: VerifyPass::Encoding,
                guest_pc,
                op_index: None,
                obligation: format!(
                    "installed bytes differ from canonical encoding at code offset {off}"
                ),
            });
        }
        Ok(())
    }

    /// Counts a verifier violation into the per-pass counters and emits
    /// a fault trace event.
    fn record_verify_violation(&mut self, core: Option<usize>, e: &VerifyError) {
        match e.pass {
            VerifyPass::IrLint => self.verify_ir += 1,
            VerifyPass::FenceObligations => self.verify_fence += 1,
            VerifyPass::Encoding => self.verify_encoding += 1,
        }
        let tb_id = self.tb_ids.get(&e.guest_pc).copied();
        self.obs.trace(TraceStage::Fault, core, Some(e.guest_pc), tb_id, None, || e.to_string());
    }

    /// The static validation of [`VerifyLevel::Full`], run on a
    /// candidate before it is installed: superblock relink structure,
    /// IR lint, fence-obligation check of the optimized block against
    /// the unoptimized reference, and the host decode-back encoding
    /// check of the code's `canonical` bytes.
    fn verify_translation(
        &self,
        cand: &Candidate,
        full: &FullCheck,
        canonical: &[u8],
    ) -> Result<(), VerifyError> {
        let in_superblock = !cand.relinks.is_empty();
        if in_superblock {
            Self::check_superblock_relinks(&full.optimized, &cand.relinks)?;
        }
        tcg_verify::lint(&full.optimized, in_superblock)?;
        tcg_verify::check_obligations_masked(
            &full.reference,
            &full.optimized,
            self.setup.frontend().fences,
            self.setup.opt_policy(),
            &full.relax_mask,
        )?;
        self.backend_kind.host().check_encoding(
            &full.optimized,
            &cand.code,
            canonical,
            self.backend_config(),
        )
    }

    /// Full-level superblock structural check: the relink list the
    /// machine will evict on install must be exactly the head plus the
    /// stitched `TbBoundary` seams, so no unrelated tier-1 translation
    /// is unmapped.
    fn check_superblock_relinks(sb: &TcgBlock, pcs: &[u64]) -> Result<(), VerifyError> {
        let err = |obligation: String| VerifyError {
            pass: VerifyPass::Encoding,
            guest_pc: sb.guest_pc,
            op_index: None,
            obligation,
        };
        if pcs.first() != Some(&sb.guest_pc) {
            return Err(err(format!(
                "superblock head {:#x} is not the first relink target",
                sb.guest_pc
            )));
        }
        let seams: HashSet<u64> = sb
            .ops
            .iter()
            .filter_map(|op| match op {
                TcgOp::TbBoundary { pc } => Some(*pc),
                _ => None,
            })
            .collect();
        for &pc in &pcs[1..] {
            if !seams.contains(&pc) {
                return Err(err(format!(
                    "relink target {pc:#x} has no TbBoundary seam in the stitched region"
                )));
            }
        }
        Ok(())
    }

    /// The one path by which host code becomes dispatchable, whatever
    /// tier produced it: Full-level static passes, install, the planned
    /// corruption hook, read-back, then mapping and bookkeeping — or
    /// rollback. At any level above [`VerifyLevel::Off`] the installed
    /// bytes are read back and checked *before* a block is mapped; a
    /// mismatch discards the region, so corrupt code is never
    /// dispatchable. A superblock is mapped over its head by the install
    /// itself, so its rollback evicts the head instead: the head and the
    /// subsumed pcs refill as fresh tier-1 translations on miss.
    fn commit(&mut self, core: Option<usize>, cand: Candidate) -> Result<u64, TbFault> {
        // The canonical encoding both verifier levels compare against.
        let mut canonical = Vec::new();
        if self.verify != VerifyLevel::Off {
            for i in &cand.code {
                i.encode(&mut canonical);
            }
        }
        if let Some(full) = &cand.full {
            self.verify_checked += 1;
            if let Err(e) = self.verify_translation(&cand, full, &canonical) {
                self.record_verify_violation(core, &e);
                return Err(TbFault::Verify);
            }
        }
        let Candidate { head_pc, code, relinks, detail, .. } = cand;
        let superblock = !relinks.is_empty();
        let (host, dur) = self.timed("stage.install_ns", |e| {
            let host = if superblock {
                e.machine.install_superblock(head_pc, &code, &relinks)
            } else {
                e.machine.install_code(&code)
            };
            e.maybe_corrupt_install(host);
            if e.verify != VerifyLevel::Off {
                e.verify_checked += 1;
                if let Err(err) = e.check_install_bytes(head_pc, host, &canonical) {
                    e.record_verify_violation(core, &err);
                    if superblock {
                        e.machine.unmap_tb(head_pc);
                    } else {
                        e.machine.discard_region(host);
                    }
                    return Err(TbFault::Verify);
                }
            }
            if !superblock {
                e.machine.map_tb(head_pc, host);
                e.tb_count += 1;
                e.tb_ids.entry(head_pc).or_insert(e.tb_count as u64);
                if !e.ever_translated.insert(head_pc) {
                    e.retranslations += 1;
                }
            }
            Ok(host)
        })?;
        let tb_id = self.tb_ids.get(&head_pc).copied();
        self.obs.trace(TraceStage::Install, core, Some(head_pc), tb_id, dur, || {
            detail.unwrap_or_else(|| format!("{} host insns", code.len()))
        });
        Ok(host)
    }

    /// Total observed entries into `guest_pc` — machine fast-path
    /// transfers plus engine dispatch-loop entries.
    fn entry_count(&self, guest_pc: u64) -> u64 {
        let machine =
            self.machine.tb_profile().and_then(|p| p.get(&guest_pc)).map_or(0, |e| e.execs);
        let resume = self.resume_profile.get(&guest_pc).map_or(0, |e| e.0);
        machine + resume
    }

    /// The profiled direction of a conditional exit, if decisive: the
    /// hotter successor must have real weight (≥ 8 entries) and dominate
    /// the colder one 4:1, else the trace ends rather than gamble on a
    /// side exit that would fire often.
    fn biased_successor(&self, taken: u64, fallthrough: u64) -> Option<u64> {
        let t = self.entry_count(taken);
        let f = self.entry_count(fallthrough);
        let (hot_pc, hi, lo) = if t >= f { (taken, t, f) } else { (fallthrough, f, t) };
        (hi >= 8 && hi >= 4 * lo).then_some(hot_pc)
    }

    /// Walks the dominant chain from `head`: direct jumps are followed
    /// unconditionally, conditional exits only when decisively biased,
    /// and the trace stops at indirect/terminal exits, revisits (loop
    /// back-edges), PLT thunks, quarantined pcs, and `max_tbs`. A
    /// *cyclic* trace — one whose last block's on-trace successor is the
    /// head itself, i.e. a whole hot loop — comes back rotated to its
    /// best head.
    ///
    /// Frontend-only, and never consults the [`FaultPlan`]: promotion is
    /// opportunistic and must not advance the plan's deterministic fault
    /// sequence — a tiered run sees exactly the injected faults a tier-1
    /// run does.
    fn select_trace(&self, head: u64, cfg: TierConfig) -> Vec<TcgBlock> {
        let mut parts: Vec<TcgBlock> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut pc = head;
        loop {
            if !parts.is_empty() && pc == head {
                // The trace is a whole loop: any rotation executes the
                // same code, so re-head it where the region optimizer
                // can merge the most cross-seam fences. The triggering
                // block stays in the (subsumed) trace; a tier-1 refill
                // covers the one transfer already in flight.
                let r = superblock::best_rotation(&parts);
                if r != 0 && !self.machine.is_sb_head(parts[r].guest_pc) {
                    parts.rotate_left(r);
                }
                break;
            }
            if parts.len() >= cfg.max_tbs
                || !visited.insert(pc)
                || self.plt_natives.contains_key(&pc)
                || self.quarantine.contains(pc)
            {
                break;
            }
            let Ok(block) = translate_block(pc, self.setup.frontend(), |a| self.fetch(a)) else {
                break;
            };
            let exit = block.exit.clone();
            parts.push(block);
            pc = match exit {
                TbExit::Jump(t) => t,
                TbExit::CondJump { taken, fallthrough, .. } => {
                    match self.biased_successor(taken, fallthrough) {
                        Some(t) => t,
                        None => break,
                    }
                }
                TbExit::JumpReg(_) | TbExit::Halt | TbExit::Syscall { .. } => break,
            };
        }
        parts
    }

    /// Routes [`Event::HotTb`] per the tier ladder: a tier-0 template
    /// block crossing [`TierConfig::warm_threshold`] re-translates
    /// through the tier-1 IR pipeline; a tier-1 block crossing
    /// [`TierConfig::hot_threshold`] becomes a tier-2 superblock
    /// candidate. The machine profile fires at every multiple of the
    /// smaller threshold, so the larger one is re-checked on later
    /// crossings rather than missed.
    fn on_hot_tb(&mut self, core: usize, guest_pc: u64) {
        let Some(cfg) = self.tiering else { return };
        let Some(warm) = cfg.warm_threshold else {
            self.try_promote(core, guest_pc);
            return;
        };
        if self.tier0_pcs.contains(&guest_pc) {
            if self.entry_count(guest_pc) >= warm {
                self.promote_template(core, guest_pc);
            }
        } else if self.entry_count(guest_pc) >= cfg.hot_threshold {
            self.try_promote(core, guest_pc);
        }
    }

    /// Whether the translation at `guest_pc` can move up a tier: it must
    /// still be installed as a plain block — not a superblock head, not
    /// a PLT thunk — and not quarantined.
    fn promotable(&self, guest_pc: u64) -> bool {
        self.machine.lookup_tb(guest_pc).is_some()
            && !self.machine.is_sb_head(guest_pc)
            && !self.plt_natives.contains_key(&guest_pc)
            && !self.quarantine.contains(guest_pc)
    }

    /// Promotes a warm tier-0 pc: the block re-translates through the
    /// full tier-1 pipeline (optimizer, register allocator, Full-level
    /// verifier passes when enabled) and the result is installed over
    /// the template body — the rebind unlinks chain words into the old
    /// code. Failure (injected or real) keeps the template translation:
    /// correctness never depends on promotion.
    fn promote_template(&mut self, core: usize, guest_pc: u64) {
        if !self.promotable(guest_pc) {
            // Stale candidate: evicted, subsumed by a superblock, or
            // quarantined since it was marked.
            self.tier0_pcs.remove(&guest_pc);
            return;
        }
        let produced = self
            .produce(Some(core), guest_pc, false)
            .and_then(|cand| self.commit(Some(core), cand));
        match produced {
            Ok(_) => {
                self.tier0_pcs.remove(&guest_pc);
                self.template_stats.promotions += 1;
            }
            Err(_) => self.template_stats.promotion_failures += 1,
        }
    }

    /// Services a tier-2 candidate: produce the superblock, commit it.
    /// Failures at any stage leave the tier-1 world untouched (counted,
    /// never fatal); the triggering core needs no resume — its transfer
    /// completed before the event fired.
    fn try_promote(&mut self, core: usize, guest_pc: u64) {
        let Some(cfg) = self.tiering else { return };
        if !self.promotable(guest_pc) {
            self.sb_stats.declined += 1;
            return;
        }
        let committed = match self.produce_superblock(guest_pc, cfg) {
            Ok(None) => {
                self.sb_stats.declined += 1;
                return;
            }
            Ok(Some((cand, shape))) => self.commit(Some(core), cand).map(|_| shape),
            Err(fault) => Err(fault),
        };
        match committed {
            Ok(shape) => {
                self.sb_stats.promotions += 1;
                self.sb_stats.tbs_merged += shape.tbs as u64;
                self.sb_stats.side_exits += shape.side_exits as u64;
            }
            Err(_) => self.sb_stats.failures += 1,
        }
    }

    /// Tier-2 producer: select → stitch → region-optimize → lower.
    /// `Ok(None)` declines a trace shorter than the policy's minimum.
    fn produce_superblock(
        &mut self,
        head: u64,
        cfg: TierConfig,
    ) -> Result<Option<(Candidate, superblock::SuperblockShape)>, TbFault> {
        let (parts, _) = self.timed("sb.stage.select_ns", |e| Ok(e.select_trace(head, cfg)))?;
        if parts.len() < cfg.min_tbs.max(2) {
            return Ok(None);
        }
        let relinks: Vec<u64> = parts.iter().map(|b| b.guest_pc).collect();
        let mut sb = superblock::stitch(parts).map_err(|_| TbFault::Frontend)?;
        // The unoptimized stitched region is the fence-obligation
        // reference the Full-level verifier validates against.
        let reference = (self.verify == VerifyLevel::Full).then(|| sb.clone());
        let policy = self.setup.opt_policy();
        let (stats, _) = self.timed("sb.stage.opt_ns", |e| {
            Ok(superblock::optimize_region(&mut sb, policy, e.passes))
        })?;
        self.sb_opt += stats;
        let (code, _) = self.lower(&sb, "sb.stage.encode_ns")?;
        let (head_pc, shape) = (sb.guest_pc, superblock::shape_of(&sb));
        let detail = self.obs.tracing.then(|| {
            format!(
                "superblock: {} tbs, {} side exits, {} cross-boundary fence merges",
                shape.tbs, shape.side_exits, stats.fences_merged_cross
            )
        });
        let full = reference.map(|reference| FullCheck {
            reference,
            optimized: sb,
            relax_mask: Vec::new(),
        });
        Ok(Some((Candidate { head_pc, code, relinks, full, detail }, shape)))
    }

    /// Produces the candidate for one guest block: the marshaling thunk
    /// behind a host-linked PLT entry, else a tier-0 template
    /// instantiation (`tier0`) or the tier-1 IR pipeline. The two
    /// translating tiers share the [`FaultPlan`]'s injection sites: the
    /// frontend boundary here, before any decode, and the backend
    /// boundary in [`Emulator::lower_fault`].
    fn produce(
        &mut self,
        core: Option<usize>,
        guest_pc: u64,
        tier0: bool,
    ) -> Result<Candidate, TbFault> {
        if let Some(&(func, nargs)) = self.plt_natives.get(&guest_pc) {
            return Ok(Candidate::block(guest_pc, self.build_native_thunk(func, nargs)));
        }
        if self.plan.translate_fails(guest_pc) {
            self.faults_injected += 1;
            return Err(TbFault::Injected);
        }
        if tier0 {
            self.produce_template(core, guest_pc)
        } else {
            self.produce_tier1(core, guest_pc)
        }
    }

    /// The [`FaultPlan`]'s backend-boundary injection site: after the
    /// tier-1 optimizer, after a tier-0 template instantiation.
    fn lower_fault(&mut self, guest_pc: u64) -> Result<(), TbFault> {
        if self.plan.lower_fails(guest_pc) {
            self.faults_injected += 1;
            return Err(TbFault::Injected);
        }
        Ok(())
    }

    /// Lowers `block` through the active backend under the `metric`
    /// stage clock, folding the allocator statistics into the run's.
    fn lower(
        &mut self,
        block: &TcgBlock,
        metric: &str,
    ) -> Result<(Vec<HostInsn>, Option<u64>), TbFault> {
        let backend = self.backend_config();
        self.timed(metric, |e| {
            let out = e
                .backend_kind
                .host()
                .lower_block_with_stats(block, backend)
                .map_err(|_| TbFault::Backend)?;
            e.regalloc_totals += out.alloc;
            Ok(out.insns)
        })
    }

    /// Tier-1 producer: frontend → analysis relaxation and hints →
    /// optimizer → backend lowering, one trace event per stage.
    fn produce_tier1(&mut self, core: Option<usize>, guest_pc: u64) -> Result<Candidate, TbFault> {
        let frontend = self.setup.frontend();
        let (mut block, dur) = self.timed("stage.decode_ns", |e| {
            let block = translate_block(guest_pc, frontend, |a| e.fetch(a))
                .map_err(|_| TbFault::Frontend)?;
            for op in &block.ops {
                if let TcgOp::Fence(k) = op {
                    if let Some(i) = k.tcg_index() {
                        e.fence_inserted[i] += 1;
                    }
                }
            }
            Ok(block)
        })?;
        self.obs.trace(TraceStage::Decode, core, Some(guest_pc), None, dur, || {
            format!("{} ops", block.ops.len())
        });
        // Guest-instruction count for the per-tier translation-cost
        // metrics (`translate.insns`), re-decoded outside the timed
        // stages; decoding already succeeded above.
        let mut p = guest_pc;
        let end = guest_pc + block.guest_len as u64;
        while p < end {
            match Insn::decode(&self.fetch(p)) {
                Ok((_, len)) => {
                    self.tier1_insns += 1;
                    p += len as u64;
                }
                Err(_) => break,
            }
        }
        // Analysis-driven relaxation (docs/ANALYSIS.md): the engine
        // mask relaxes the frontend block before optimization; the
        // verifier mask is re-derived from the pristine facts, so a
        // wrong "private" claim (e.g. an injected mutant) is rejected
        // by Pass 2 at install time.
        let masks = self.analysis.as_ref().map(|facts| {
            let sites = event_sites(guest_pc, block.guest_len as u64, |a| self.fetch(a));
            let verifier: Vec<bool> =
                sites.iter().map(|&(p, plain)| plain && facts.relaxable(p)).collect();
            let engine: Vec<bool> = sites
                .iter()
                .zip(&verifier)
                .map(|(&(p, plain), &v)| v || (plain && self.forced_private.contains(&p)))
                .collect();
            (engine, verifier)
        });
        // The unoptimized block is the fence-obligation reference the
        // Full-level verifier validates the optimized result against.
        let reference = (self.verify == VerifyLevel::Full).then(|| block.clone());
        if let Some((engine_mask, _)) = &masks {
            let removed = tcg_verify::relax_block(&mut block, frontend.fences, engine_mask);
            if removed > 0 {
                self.analysis_relaxed += removed as u64;
                self.analysis_relaxed_blocks += 1;
            }
            // Known-bits hints (docs/ANALYSIS.md): IR-level value-range
            // facts fold pure ops and prune statically-decided branches
            // before the regular pass pipeline. Events and fences are
            // never touched, so the verifier reference stays valid.
            let hints = ir_hints(&block);
            let hs = apply_hints(&mut block, &hints);
            self.hint_totals.folded += hs.folded;
            self.hint_totals.branches_pruned += hs.branches_pruned;
        }
        let policy = self.setup.opt_policy();
        let (stats, dur) =
            self.timed("stage.opt_ns", |e| Ok(optimize_with(&mut block, policy, e.passes)))?;
        self.opt_totals += stats;
        self.obs.trace(TraceStage::Opt, core, Some(guest_pc), None, dur, || {
            format!(
                "folded {}, forwarded {}, fences merged {}, dce {}",
                stats.folded, stats.loads_forwarded, stats.fences_merged, stats.dce_removed
            )
        });
        self.lower_fault(guest_pc)?;
        let (code, dur) = self.lower(&block, "stage.encode_ns")?;
        self.obs.trace(TraceStage::Encode, core, Some(guest_pc), None, dur, || {
            format!("{} host insns", code.len())
        });
        let full = reference.map(|reference| FullCheck {
            reference,
            optimized: block,
            relax_mask: masks.map(|(_, verifier)| verifier).unwrap_or_default(),
        });
        Ok(Candidate { full, ..Candidate::block(guest_pc, code) })
    }

    /// Tier-0 producer: translates one block by IR-less template
    /// instantiation — no `TcgOp` block is built and no optimizer,
    /// register allocator or per-block static verifier pass runs. The
    /// template set is verified once, statically, by the test suite
    /// (Theorem-1 per template per backend); only the install-time
    /// encoding read-back remains on this path.
    fn produce_template(
        &mut self,
        core: Option<usize>,
        guest_pc: u64,
    ) -> Result<Candidate, TbFault> {
        let (frontend, backend) = (self.setup.frontend(), self.backend_config());
        let ordering = self.backend_kind.ordering();
        let (blk, dur) = self.timed("stage.template_ns", |e| {
            translate_block_template(guest_pc, frontend, backend, ordering, |a| e.fetch(a)).map_err(
                |err| match err {
                    TemplateError::Decode(_) => TbFault::Frontend,
                    TemplateError::Lower(_) => TbFault::Backend,
                },
            )
        })?;
        self.lower_fault(guest_pc)?;
        self.template_stats.blocks += 1;
        self.template_stats.insns += blk.insns as u64;
        self.obs.trace(TraceStage::Decode, core, Some(guest_pc), None, dur, || {
            format!("tier-0 template: {} guest insns", blk.insns)
        });
        Ok(Candidate::block(guest_pc, blk.code))
    }

    /// Ensures a translation exists for `guest_pc`; returns its host pc,
    /// or the (recoverable) reason none could be produced. Verifier
    /// rejections take the same quarantine path as pipeline failures:
    /// bounded re-translation, interpreter fallback in between.
    fn ensure_translated(&mut self, core: Option<usize>, guest_pc: u64) -> Result<u64, TbFault> {
        if let Some(host) = self.machine.lookup_tb(guest_pc) {
            self.tbcache_hits += 1;
            return Ok(host);
        }
        let prior = self.quarantine.attempts(guest_pc);
        if prior > QUARANTINE_RETRY_LIMIT {
            return Err(TbFault::Quarantined);
        }
        if prior > 0 {
            // A bounded re-translate retry of a previously failing block.
            self.retranslations += 1;
        }
        // Cold code gets the near-zero-latency template tier; the
        // profiler re-translates it through tier-1 when it warms up.
        let tier0 = self.tier0_active() && !self.plt_natives.contains_key(&guest_pc);
        let produced = self.produce(core, guest_pc, tier0).and_then(|cand| self.commit(core, cand));
        match produced {
            Ok(host) => {
                if tier0 {
                    self.tier0_pcs.insert(guest_pc);
                }
                self.quarantine.clear(guest_pc);
                Ok(host)
            }
            Err(fault) => {
                if prior == 0 {
                    self.fallback_blocks += 1;
                }
                self.quarantine.note_failure(guest_pc);
                self.obs.trace(TraceStage::Fault, core, Some(guest_pc), None, None, || {
                    let what = match fault {
                        TbFault::Injected => "injected fault",
                        TbFault::Frontend => "frontend decode failure",
                        TbFault::Backend => "backend lowering failure",
                        TbFault::Verify => "translation verification failure",
                        TbFault::Quarantined => "quarantined",
                    };
                    format!("{what}; interpreter fallback (attempt {})", prior + 1)
                });
                Err(fault)
            }
        }
    }

    /// Puts `core` back into execution at `guest_pc`: translated code
    /// when the pipeline can produce it, interpreted blocks otherwise,
    /// until a translatable pc is reached or the core halts.
    fn resume_at(&mut self, core: usize, guest_pc: u64) -> Result<(), EmuError> {
        let tb_id = self.tb_ids.get(&guest_pc).copied();
        self.obs.trace(TraceStage::Dispatch, Some(core), Some(guest_pc), tb_id, None, String::new);
        let mut pc = guest_pc;
        loop {
            match self.ensure_translated(Some(core), pc) {
                Ok(host) => {
                    if self.obs.profiling {
                        // Every dispatch-loop entry missed the machine's
                        // fast paths by definition.
                        let e = self.resume_profile.entry(pc).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += 1;
                    }
                    self.machine.start_core(core, host);
                    return Ok(());
                }
                Err(_fault) => match self.interpret_block(core, pc)? {
                    Some(next) => pc = next,
                    None => return Ok(()),
                },
            }
        }
    }

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
    fn interpret_block(&mut self, core: usize, start_pc: u64) -> Result<Option<u64>, EmuError> {
        self.machine.drain_store_buffer(core);
        let mut pc = start_pc;
        for _ in 0..MAX_INTERP_BLOCK {
            if self.interp_steps >= self.fuel_limit {
                return Err(EmuError::OutOfFuel);
            }
            self.interp_steps += 1;
            let (insn, len) =
                Insn::decode(&self.fetch(pc)).map_err(|cause| EmuError::Translate {
                    source: TranslateError { pc, cause },
                    core: Some(core),
                    tb_count: self.tb_count,
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

    /// Builds the marshaling thunk that calls a native host function from
    /// guest code (§6.2): copy guest argument registers into the host
    /// ABI's, call, write the result back, and perform the guest `ret`.
    fn build_native_thunk(&self, func: u16, nargs: usize) -> Vec<HostInsn> {
        let ldr = |dst, base, off| HostInsn::Ldr { dst, base, off, order: MemOrder::Plain };
        let str = |src, base, off| HostInsn::Str { src, base, off, order: MemOrder::Plain };
        let pop = |sp| HostInsn::AluImm { op: AOp::Add, dst: sp, a: sp, imm: 8 };
        let env = |g: Gpr| g.0 as i32 * 8;
        let args = Gpr::ARGS.iter().take(nargs).enumerate();
        let mut code = Vec::new();
        if self.setup == Setup::Native {
            // Native ABI: direct register moves, no memory marshaling.
            code.extend(
                args.map(|(i, g)| HostInsn::MovReg { dst: Xreg(i as u8), src: Xreg(6 + g.0) }),
            );
            code.push(HostInsn::NativeCall { func });
            code.push(HostInsn::MovReg { dst: Xreg(6 + Gpr::RAX.0), src: Xreg(0) });
            // ret: pop the return address from the guest stack (RSP = X10).
            let (sp, ra) = (Xreg(6 + Gpr::RSP.0), Xreg(29));
            code.extend([
                ldr(ra, sp, 0),
                pop(sp),
                HostInsn::ExitTb(TbExitKind::JumpReg { reg: ra }),
            ]);
        } else {
            // DBT ABI: marshal through the env block — this load/store
            // traffic *is* the marshaling overhead visible in Fig. 14.
            code.extend(args.map(|(i, g)| ldr(Xreg(i as u8), ENV_BASE, env(*g))));
            code.push(HostInsn::NativeCall { func });
            code.push(str(Xreg(0), ENV_BASE, env(Gpr::RAX)));
            // Guest ret through the env'd RSP.
            let (sp, ra) = (Xreg(25), Xreg(26));
            code.extend([
                ldr(sp, ENV_BASE, env(Gpr::RSP)),
                ldr(ra, sp, 0),
                pop(sp),
                str(sp, ENV_BASE, env(Gpr::RSP)),
                HostInsn::ExitTb(TbExitKind::JumpReg { reg: ra }),
            ]);
        }
        code
    }

    /// Services one guest syscall; `next` is the guest pc following it.
    fn do_syscall(&mut self, core: usize, next: u64) -> Result<SyscallOutcome, EmuError> {
        let nth = self.syscall_attempts;
        self.syscall_attempts += 1;
        if self.plan.syscall_fails(nth) {
            self.faults_injected += 1;
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
                self.syscalls_completed += 1;
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
                // Pick the child by the engine-side started flag, not
                // `Machine::idle_core`: a core whose entry block fell back
                // to the interpreter is busy without ever having been
                // `start_core`'d, and the machine alone would hand it out
                // again (a spawn could then stomp the spawning core).
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
        self.syscalls_completed += 1;
        Ok(SyscallOutcome::Resume)
    }

    /// Applies the plan's TB-cache faults: explicit one-shot corruptions
    /// (detected at the cache-entry checksum, so the entry is discarded
    /// and later re-translated — corrupted code never executes) and
    /// background eviction pressure.
    fn inject_tb_cache_faults(&mut self) {
        if self.plan.is_empty() {
            return;
        }
        for pc in self.plan.pending_corruptions() {
            if self.machine.lookup_tb(pc).is_some() && self.plan.take_corrupt_tb(pc) {
                self.machine.unmap_tb(pc);
                let tb_id = self.tb_ids.get(&pc).copied();
                self.obs.trace(TraceStage::Fault, None, Some(pc), tb_id, None, || {
                    "TB-cache corruption detected; entry discarded".to_owned()
                });
            }
        }
        if self.plan.tb_cache_strikes() {
            let mut tbs = self.machine.mapped_tbs();
            if !tbs.is_empty() {
                tbs.sort_unstable();
                let victim = tbs[self.plan.pick(tbs.len())];
                self.machine.unmap_tb(victim);
            }
        }
    }

    /// The guest pc whose translation contains `host_pc`, if recoverable.
    fn guest_pc_of_host(&self, host_pc: u64) -> Option<u64> {
        self.machine
            .mapped_tbs()
            .into_iter()
            .filter_map(|g| self.machine.lookup_tb(g).map(|h| (g, h)))
            .filter(|&(_, h)| h <= host_pc)
            // `mapped_tbs` order is map-internal; tie-break equal host
            // bases on the lowest guest pc so the answer is stable.
            .max_by_key(|&(g, h)| (h, std::cmp::Reverse(g)))
            .map(|(g, _)| g)
    }

    /// Observable-progress marker for the watchdog.
    fn progress_marker(&self) -> (usize, usize, usize, u64, usize, usize, u64) {
        let halted = (0..self.machine.n_cores()).filter(|&c| self.machine.core_halted(c)).count();
        let exited = self.exit_vals.iter().filter(|v| v.is_some()).count();
        (
            self.tb_count,
            self.retranslations,
            self.output.len(),
            self.syscalls_completed,
            halted,
            exited,
            self.sb_stats.promotions,
        )
    }

    fn dump_cores(&self) -> Vec<CoreDump> {
        (0..self.machine.n_cores())
            .map(|c| CoreDump {
                core: c,
                host_pc: self.machine.core_pc(c),
                cycles: self.machine.core_cycles(c),
                halted: self.machine.core_halted(c),
            })
            .collect()
    }

    /// Runs the program to completion (all threads halted).
    ///
    /// # Errors
    ///
    /// Unrecoverable translation faults, runaway execution (`fuel` steps,
    /// counting both machine steps and fallback-interpreted guest
    /// instructions), syscall misuse, injected syscall faults, host-code
    /// faults, and — with [`Emulator::set_watchdog`] armed — stalls.
    pub fn run(&mut self, fuel: u64) -> Result<Report, EmuError> {
        self.fuel_limit = fuel;
        let base_steps = self.machine.total_steps();
        self.init_core(0, None);
        let entry = self.entry;
        self.resume_at(0, entry)?;
        let mut last_marker = self.progress_marker();
        let mut no_progress: u64 = 0;
        loop {
            let used = (self.machine.total_steps() - base_steps) + self.interp_steps;
            let remaining = fuel.saturating_sub(used);
            let slice = match self.watchdog {
                Some(w) => remaining.min(w),
                None => remaining,
            };
            let before = self.machine.total_steps();
            let ev = self.machine.run(slice);
            self.inject_tb_cache_faults();
            match ev {
                Event::AllHalted => break,
                Event::TranslationMiss { core, guest_pc } => {
                    self.resume_at(core, guest_pc)?;
                }
                Event::GuestSyscall { core, next } => {
                    if let SyscallOutcome::Resume = self.do_syscall(core, next)? {
                        self.resume_at(core, next)?;
                    }
                }
                Event::OutOfFuel => {
                    let used = (self.machine.total_steps() - base_steps) + self.interp_steps;
                    if used >= fuel {
                        return Err(EmuError::OutOfFuel);
                    }
                    // Otherwise just a watchdog slice boundary: fall
                    // through to the progress check.
                }
                Event::HotTb { core, guest_pc } => {
                    // The transfer already completed: promotion (or a
                    // decline) needs no resume and cannot perturb the
                    // core's execution.
                    self.on_hot_tb(core, guest_pc);
                }
                Event::HostFault { core, host_pc, kind } => {
                    return Err(EmuError::HostFault {
                        kind,
                        core,
                        host_pc,
                        guest_pc: self.guest_pc_of_host(host_pc),
                    });
                }
            }
            let marker = self.progress_marker();
            if marker != last_marker {
                last_marker = marker;
                no_progress = 0;
            } else {
                no_progress += (self.machine.total_steps() - before).max(1);
                if let Some(w) = self.watchdog {
                    if no_progress >= w {
                        return Err(EmuError::Stalled {
                            steps: no_progress,
                            cores: self.dump_cores(),
                        });
                    }
                }
            }
        }
        // HLT'd threads report guest RAX as their exit value.
        for core in 0..self.machine.n_cores() {
            if self.core_started[core] && self.exit_vals[core].is_none() {
                self.exit_vals[core] = Some(self.guest_reg(core, Gpr::RAX));
            }
        }
        self.obs.sink.flush();
        Ok(Report {
            cycles: self.machine.clock(),
            tb_count: self.tb_count,
            code_bytes: self.machine.code_size(),
            stats: self.machine.total_stats(),
            exit_vals: self.exit_vals.clone(),
            output: self.output.clone(),
            fallback_blocks: self.fallback_blocks,
            retranslations: self.retranslations,
            chain: self.machine.chain_stats(),
            opt: self.opt_totals,
            sb: self.sb_stats(),
            template: self.template_stats,
        })
    }

    /// Mirrors every engine/machine counter into the metrics registry
    /// (the stage histograms are observed live during translation).
    fn refresh_metrics(&mut self) {
        let chain = self.machine.chain_stats();
        let cache = self.machine.cache_stats();
        let stats = self.machine.total_stats();
        let r = &mut self.obs.registry;
        r.set_counter("translate.blocks", self.tb_count as u64);
        r.set_counter("translate.retranslations", self.retranslations as u64);
        r.set_counter("translate.fallback_blocks", self.fallback_blocks as u64);
        r.set_counter("translate.interp_steps", self.interp_steps);
        r.set_counter("translate.tbcache_hits", self.tbcache_hits);
        r.set_counter("translate.insns", self.tier1_insns);
        r.set_counter("fault.injected", self.faults_injected);
        r.set_counter("template.blocks", self.template_stats.blocks);
        r.set_counter("template.insns", self.template_stats.insns);
        r.set_counter("template.promotions", self.template_stats.promotions);
        r.set_counter("template.promotion_failures", self.template_stats.promotion_failures);
        r.set_counter("opt.folded", self.opt_totals.folded as u64);
        r.set_counter("opt.loads_forwarded", self.opt_totals.loads_forwarded as u64);
        r.set_counter("opt.stores_eliminated", self.opt_totals.stores_eliminated as u64);
        r.set_counter("opt.fences_merged", self.opt_totals.fences_merged as u64);
        r.set_counter("opt.dce_removed", self.opt_totals.dce_removed as u64);
        for (i, k) in FenceKind::TCG_ALL.iter().enumerate() {
            let n = k.tcg_name().expect("TCG fence has a short name");
            r.set_counter(&format!("fence.inserted.{n}"), self.fence_inserted[i]);
            r.set_counter(
                &format!("fence.merged.{n}"),
                self.opt_totals.fences_merged_by_kind[i] as u64,
            );
        }
        r.set_counter("chain.hits", chain.chain_hits);
        r.set_counter("chain.links", chain.chain_links);
        r.set_counter("chain.flushes", chain.chain_flushes);
        r.set_counter("jcache.hits", chain.dispatch_hits);
        r.set_counter("jcache.misses", chain.dispatch_misses);
        r.set_counter("tbcache.installs", cache.installs);
        r.set_counter("tbcache.region_reuses", cache.region_reuses);
        r.set_counter("tbcache.evictions", cache.evictions);
        r.set_counter("exec.insns", stats.insns);
        r.set_counter("exec.atomics", stats.atomics);
        r.set_counter("exec.helper_calls", stats.helper_calls);
        r.set_counter("exec.native_calls", stats.native_calls);
        r.set_counter("fence.exec.dmb_ld", stats.dmb[0]);
        r.set_counter("fence.exec.dmb_st", stats.dmb[1]);
        r.set_counter("fence.exec.dmb_ff", stats.dmb[2]);
        r.set_counter("fence.exec.cycles", stats.fence_cycles);
        r.set_counter("engine.syscalls", self.syscalls_completed);
        r.set_counter("sb.promotions", self.sb_stats.promotions);
        r.set_counter("sb.promotion_failures", self.sb_stats.failures);
        r.set_counter("sb.declined", self.sb_stats.declined);
        r.set_counter("sb.installs", cache.sb_installs);
        r.set_counter("sb.subsumed_tbs", cache.sb_subsumed);
        r.set_counter("sb.entries", chain.sb_entries);
        r.set_counter("sb.tbs_merged", self.sb_stats.tbs_merged);
        r.set_counter("sb.side_exits", self.sb_stats.side_exits);
        r.set_counter("sb.fences_merged_cross", self.sb_opt.fences_merged_cross as u64);
        let violations = self.verify_ir + self.verify_fence + self.verify_encoding;
        r.set_counter("verify.checked", self.verify_checked);
        r.set_counter("verify.violations", violations);
        r.set_counter("verify.ir_violations", self.verify_ir);
        r.set_counter("verify.fence_violations", self.verify_fence);
        r.set_counter("verify.encoding_violations", self.verify_encoding);
        let asum = self.analysis.as_ref().map(|f| f.summary()).unwrap_or_default();
        r.set_gauge("analysis.enabled", self.analysis.is_some() as u64);
        r.set_counter("analysis.sites", asum.sites);
        r.set_counter("analysis.private", asum.private);
        r.set_counter("analysis.readonly", asum.readonly);
        r.set_counter("analysis.shared", asum.shared);
        r.set_counter("analysis.atomics", asum.atomics);
        r.set_counter("analysis.relaxable", asum.relaxable);
        r.set_counter("analysis.poisons", asum.poisons);
        r.set_counter("analysis.lints", asum.lints);
        r.set_counter("analysis.instances", asum.instances);
        r.set_counter("analysis.refined_loops", asum.refined_loops);
        r.set_counter("analysis.relaxed", self.analysis_relaxed);
        r.set_counter("analysis.relaxed_blocks", self.analysis_relaxed_blocks);
        r.set_counter("analysis.cache_hits", self.analysis_cache_hits);
        r.set_counter("analysis.cache_misses", self.analysis_cache_misses);
        r.set_counter("analysis.hint_folded", self.hint_totals.folded as u64);
        r.set_counter("analysis.branches_pruned", self.hint_totals.branches_pruned as u64);
        let ra = self.regalloc_totals;
        r.set_counter("regalloc.env_loads", ra.env_loads);
        r.set_counter("regalloc.env_stores", ra.env_stores);
        r.set_counter("regalloc.env_loads_eliminated", ra.env_loads_eliminated);
        r.set_counter("regalloc.env_stores_eliminated", ra.env_stores_eliminated);
        r.set_counter("regalloc.spills", ra.spills);
        r.set_counter("regalloc.reloads", ra.reloads);
        r.set_counter("regalloc.pinned_regs", ra.pinned_regs);
        r.set_gauge("exec.cycles", self.machine.clock());
        r.set_gauge("exec.cores", self.machine.n_cores() as u64);
        r.set_gauge("tbcache.resident", self.machine.mapped_tbs().len() as u64);
        r.set_gauge("code.bytes", self.machine.code_size() as u64);
        for c in 0..self.machine.n_cores() {
            let s = self.machine.stats(c);
            r.set_gauge(&format!("core.{c}.insns"), s.insns);
            r.set_gauge(&format!("core.{c}.cycles"), self.machine.core_cycles(c));
        }
    }

    /// Rebuilds the hot-TB profiler from the machine's transfer profile
    /// plus the engine's dispatch-loop entries.
    fn rebuild_profiler(&mut self) {
        self.obs.profiler.clear();
        let resume: Vec<(u64, u64, u64)> =
            self.resume_profile.iter().map(|(&pc, &(e, m))| (pc, e, m)).collect();
        let machine: Vec<(u64, u64, u64)> = self
            .machine
            .tb_profile()
            .map(|p| p.iter().map(|(&pc, t)| (pc, t.execs, t.chain_misses)).collect())
            .unwrap_or_default();
        for (pc, execs, misses) in resume.into_iter().chain(machine) {
            let tb_id = self.tb_ids.get(&pc).copied().unwrap_or(0);
            self.obs.profiler.record(tb_id, pc, execs, misses);
        }
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
        self.emu.machine.mem.write_u64(addr, v);
    }
    fn load_u8(&self, addr: u64) -> u8 {
        self.emu.machine.mem.read_u8(addr)
    }
    fn store_u8(&mut self, addr: u64, v: u8) {
        self.emu.machine.mem.write_u8(addr, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_counts_clears_and_bounds() {
        let mut q = Quarantine::default();
        assert_eq!(q.attempts(0x1000), 0);
        q.note_failure(0x1000);
        q.note_failure(0x1000);
        assert_eq!(q.attempts(0x1000), 2);
        assert!(q.contains(0x1000));
        q.clear(0x1000);
        assert!(!q.contains(0x1000));
        assert_eq!(q.attempts(0x1000), 0);
    }

    #[test]
    fn quarantine_capacity_is_enforced_with_lru_eviction() {
        let mut q = Quarantine::default();
        for pc in 0..QUARANTINE_CAPACITY as u64 {
            q.note_failure(pc);
        }
        assert_eq!(q.len(), QUARANTINE_CAPACITY);
        // Touch pc 0 so it is no longer the LRU victim.
        assert_eq!(q.attempts(0), 1);
        q.note_failure(0xDEAD_0000);
        assert_eq!(q.len(), QUARANTINE_CAPACITY, "insertion beyond capacity must evict");
        assert!(q.contains(0xDEAD_0000));
        assert!(q.contains(0), "recently touched entry must survive eviction");
        assert!(!q.contains(1), "least-recently-touched entry is the victim");
        // A sweep of fresh failing pcs can never grow the map.
        for pc in 0..10 * QUARANTINE_CAPACITY as u64 {
            q.note_failure(0x4000_0000 + pc);
            assert!(q.len() <= QUARANTINE_CAPACITY);
        }
    }

    #[test]
    fn quarantine_retry_counts_survive_unrelated_churn() {
        let mut q = Quarantine::default();
        q.note_failure(0x42);
        q.note_failure(0x42);
        q.note_failure(0x42);
        for pc in 0..(QUARANTINE_CAPACITY / 2) as u64 {
            q.note_failure(0x9000_0000 + pc);
        }
        assert_eq!(q.attempts(0x42), 3, "below capacity, counts are exact");
    }
}
