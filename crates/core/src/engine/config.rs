//! The engine's configuration and result vocabulary: evaluation setups,
//! the one [`EmuConfig`], host-library linking types, errors, and the
//! end-of-run report.

#[cfg(doc)]
use super::Emulator;
use crate::faults::{FaultPlan, FaultSite};
use risotto_host_arm::{
    ArmBackend, BackendConfig, CostModel, HostBackend, HostFaultKind, NativeFn, RmwStyle,
};
use risotto_host_tso::TsoBackend;
use risotto_tcg::{FrontendConfig, OptPolicy, PassConfig, TranslateError};
use std::fmt;

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

    /// The frontend mapping scheme this setup translates with.
    pub fn frontend(self) -> FrontendConfig {
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

    /// The optimizer policy this setup runs.
    pub fn opt_policy(self) -> OptPolicy {
        match self {
            Setup::Qemu | Setup::NoFences => OptPolicy::QemuUnsound,
            _ => OptPolicy::Verified,
        }
    }

    /// The backend configuration this setup lowers with and the encoding
    /// check decodes against, under the given RMW style.
    pub fn backend_config(self, rmw: RmwStyle) -> BackendConfig {
        match self {
            Setup::Native => BackendConfig::native(),
            // QEMU's helpers use casal with GCC ≥ 10 (§3.1); the RMW
            // style (§6.3 ablation) only affects direct `Cas` ops, which
            // exist in the Risotto/NoFences frontends.
            _ => BackendConfig::dbt(rmw),
        }
    }

    /// Whether the dynamic host linker is active (§6.2).
    pub fn host_linking(self) -> bool {
        matches!(self, Setup::Risotto | Setup::Native)
    }
}

/// Which [`HostBackend`] translates, verifies and costs the host code
/// (docs/BACKENDS.md). Selected by [`EmuConfig::backend`].
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
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The backend implementation behind this kind.
    pub fn host(self) -> &'static dyn HostBackend {
        match self {
            BackendKind::Arm => &ArmBackend,
            BackendKind::Tso => &TsoBackend,
        }
    }

    /// Alias of [`host`](Self::host), kept for the frozen `benchmark/`
    /// package (ROADMAP item 6(c)).
    pub fn ordering(self) -> &'static dyn HostBackend {
        self.host()
    }

    /// This backend's calibrated cycle model: the one
    /// [`Emulator::with_config`] prices the simulated machine with.
    pub fn cost_model(self) -> CostModel {
        self.host().cost_model()
    }
}

/// Everything that configures an [`Emulator`], fixed when
/// [`Emulator::with_config`] builds it. `Default` is what
/// [`Emulator::new`] runs: Arm, `casal`, every pass, tier-1 only, no
/// analysis, no faults, deterministic scheduling, chaining, no observers.
///
/// ```
/// use risotto_core::{EmuConfig, Emulator, FaultPlan, FaultSite, Setup};
/// use risotto_guest_x86::{AluOp, Cond, GelfBuilder, Gpr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GelfBuilder::new("main");
/// b.asm.label("main");
/// b.asm.mov_ri(Gpr::RCX, 500);
/// b.asm.label("loop");
/// b.asm.alu_ri(AluOp::Add, Gpr::RAX, 2);
/// b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
/// b.asm.cmp_ri(Gpr::RCX, 0);
/// b.asm.jcc_to(Cond::Ne, "loop");
/// b.asm.hlt();
/// let bin = b.finish()?;
///
/// let config = EmuConfig {
///     fault_plan: FaultPlan::seeded(7)
///         .fail_translate_at(bin.symbols["loop"]) // this block is interpreted
///         .rate(FaultSite::TbCache, 2000), // ~3% eviction pressure
///     watchdog: Some(1_000_000), // livelock → EmuError::Stalled
///     ..EmuConfig::default()
/// };
/// let mut emu = Emulator::with_config(&bin, Setup::Risotto, 1, config);
/// let report = emu.run(100_000_000)?; // same result, or a typed error
/// assert_eq!(report.exit_vals[0], Some(1000));
/// assert!(emu.metrics().counter("translate.fallback_blocks") >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmuConfig {
    /// Host backend lowering, verifying and pricing every translation
    /// (docs/BACKENDS.md); [`Setup::Native`] takes only Arm.
    pub backend: BackendKind,
    /// How direct TCG `Cas`/`AtomicAdd` ops are lowered (§6.3 ablation).
    pub rmw_style: RmwStyle,
    /// Optimizer passes (ablation studies).
    pub passes: PassConfig,
    /// Translation-verifier level; observational on clean translations.
    pub verify: VerifyLevel,
    /// `Some(w)`: cold blocks start as tier-0 templates and re-translate
    /// through tier-1 at `w` entries. `None`: every block is tier-1.
    pub warm_threshold: Option<u64>,
    /// Analysis-driven fence relaxation (docs/ANALYSIS.md): the image is
    /// analysed once, at construction.
    pub analysis: bool,
    /// Fault-injection plan (DESIGN.md §11).
    pub fault_plan: FaultPlan,
    /// TB chaining and the jump cache; off, every exit goes through the
    /// dispatcher (the reference chained runs are checked against).
    pub chaining: bool,
    /// Machine steps without observable progress after which a run fails
    /// with [`EmuError::Stalled`] (at least 1).
    pub watchdog: Option<u64>,
    /// The atomic-access event log [`Emulator::take_atomic_log`] drains.
    pub atomic_log: bool,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            backend: BackendKind::Arm,
            rmw_style: RmwStyle::Casal,
            passes: PassConfig::all(),
            verify: VerifyLevel::default(),
            warm_threshold: None,
            analysis: false,
            fault_plan: FaultPlan::default(),
            chaining: true,
            watchdog: None,
            atomic_log: false,
        }
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

/// The result of a completed emulation. Counts are rows of
/// [`Emulator::metrics`] (docs/METRICS.md).
#[derive(Debug, Clone)]
pub struct Report {
    /// Parallel runtime in simulated cycles (max core clock).
    pub cycles: u64,
    /// Translated blocks.
    pub tb_count: usize,
    /// Bytes of generated host code.
    pub code_bytes: usize,
    /// Exit value per core (`None` if the core never ran).
    pub exit_vals: Vec<Option<u64>>,
    /// Bytes written via the `WRITE` syscall.
    pub output: Vec<u8>,
}

/// The argument of the `#[doc(hidden)]` `Emulator::set_tiering` shim the
/// frozen `benchmark/` replay calls, and nothing else: everyone else sets
/// [`EmuConfig::warm_threshold`]. ROADMAP item 6(b) deletes both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierConfig {
    /// [`EmuConfig::warm_threshold`].
    pub warm_threshold: Option<u64>,
}

/// How much of the static translation validator runs (docs/VERIFIER.md).
///
/// The validator is a pure observer: no level changes cycle counts,
/// output, or exit values of a run whose translations all verify. There
/// is no level without the install-time read-back, so no fault plan can
/// make corrupted code dispatchable (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// Install-time read-back only: every installed code region is read
    /// back from the code cache and compared against the canonical
    /// encoding of the lowered instructions *before* the translation
    /// becomes dispatchable. Catches cache corruption, never executes
    /// damaged code.
    Install,
    /// Full static validation on top of [`VerifyLevel::Install`]: the
    /// IR lint, the fence-obligation translation validation against the
    /// unoptimized reference block, and the host decode-back encoding
    /// check run on every tier-1 block.
    Full,
}

impl Default for VerifyLevel {
    /// [`VerifyLevel::Full`] under `debug_assertions`, otherwise
    /// [`VerifyLevel::Install`].
    fn default() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Full
        } else {
            VerifyLevel::Install
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BackendKind;

    #[test]
    fn backend_names_round_trip_through_parse() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("riscv"), None);
        assert_eq!(BackendKind::parse(""), None);
    }
}
