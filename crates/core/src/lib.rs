//! # risotto-core
//!
//! The Risotto dynamic binary translator (§4.2, §6): the end-to-end
//! engine that decodes MiniX86 guest binaries, translates them through
//! the TCG IR with the formally verified mapping schemes, executes the
//! generated MiniArm code on the weak-memory host machine, and — in the
//! `risotto` setup — links guest shared-library calls to native host
//! libraries through the IDL-driven dynamic linker.
//!
//! The five [`Setup`]s mirror the paper's evaluation (§7.1): `qemu`,
//! `no-fences`, `tcg-ver`, `risotto` and `native`.
//!
//! ## Example
//!
//! ```
//! use risotto_core::{Emulator, Setup};
//! use risotto_guest_x86::{AluOp, GelfBuilder, Gpr};
//! use risotto_host_arm::CostModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GelfBuilder::new("main");
//! b.asm.label("main");
//! b.asm.mov_ri(Gpr::RAX, 6);
//! b.asm.alu_ri(AluOp::Mul, Gpr::RAX, 7);
//! b.asm.hlt();
//! let bin = b.finish()?;
//!
//! let mut emu = Emulator::new(&bin, Setup::Risotto, 1, CostModel::thunderx2_like());
//! let report = emu.run(1_000_000)?;
//! assert_eq!(report.exit_vals[0], Some(42));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod faults;
mod idl;
pub mod obs;
mod rng;

pub use engine::{
    BackendKind, CoreDump, EmuConfig, EmuError, Emulator, HostExport, HostLibrary, LinkError,
    Report, Setup, TierConfig, VerifyLevel, ENV_REGION, SPILL_REGION,
};
pub use faults::{FaultPlan, FaultSite};
pub use idl::{Idl, IdlError, IdlFunc, IdlType};
pub use obs::{MetricsSnapshot, RingBufferSink, TraceEvent, TraceSink, TraceStage};
pub use risotto_host_arm::{AtomicEvent, RmwStyle};
pub use risotto_tcg::{PassConfig, VerifyError, VerifyPass};
pub use rng::SplitMix64;
