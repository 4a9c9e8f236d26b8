//! # risotto-host-arm
//!
//! The Arm host substrate: the MiniArm ISA, the TCG→Arm backend, a
//! multi-core weak-memory machine simulator, and the calibrated cycle
//! cost model that drives the evaluation figures.
//!
//! The machine stands in for the paper's ThunderX2 testbed (see DESIGN.md
//! for the substitution rationale): translated code really executes —
//! store buffers, exclusive monitors, `casal` contention and `DMB` costs
//! included — and the engine in `risotto-core` drives it through
//! translation-miss and syscall events.
//!
//! ## Example
//!
//! ```
//! use risotto_host_arm::{CostModel, Event, HostInsn, Machine, Xreg};
//!
//! let mut m = Machine::new(1, CostModel::thunderx2_like());
//! let code = m.install_code(&[
//!     HostInsn::MovImm { dst: Xreg::X0, imm: 40 },
//!     HostInsn::AluImm { op: risotto_host_arm::AOp::Add, dst: Xreg::X0, a: Xreg::X0, imm: 2 },
//!     HostInsn::Hlt,
//! ]);
//! m.start_core(0, code);
//! assert_eq!(m.run(100), Event::AllHalted);
//! assert_eq!(m.reg(0, Xreg::X0), 42);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod code_cache;
mod contention;
mod cost;
mod insn;
mod machine;
mod regalloc;
mod sched;
mod store_buffer;
mod verify;

pub use backend::{
    arm_dmb_of, fp_op_of, helper_at, helper_index, ArmBackend, BackendConfig, BackendError,
    HostAsm, HostBackend, LowerOutput, LowerScratch, ENV_BASE, SPILL_BASE,
};
pub use code_cache::{ChainStats, CODE_BASE};
pub use cost::CostModel;
pub use insn::{
    ACond, AFpOp, AOp, Dmb, HostInsn, MemOrder, Nzcv, TbExitKind, Xreg, JUMP_CHAIN_OFFSET,
};
pub use machine::{AtomicEvent, CoreStats, Event, HostFaultKind, Machine, NativeFn, NativeResult};
pub use regalloc::AllocStats;
pub use risotto_memmodel::RmwStyle;
pub use verify::{EncodingScratch, Point};
