//! # risotto-tcg
//!
//! The TCG-style intermediate representation, the MiniX86 frontend, and
//! the optimizer of the Risotto reproduction.
//!
//! The pipeline mirrors QEMU's (§2.3): guest basic blocks decode into
//! [`TcgBlock`]s of [`TcgOp`]s, fences are inserted per the selected
//! x86→TCG mapping scheme ([`FrontendConfig`], read off the shared
//! [`FencePlacement::fences`] table), the optimizer
//! ([`optimize`]) applies constant folding, the Fig. 10 memory-access
//! eliminations (with either the verified fence side conditions or QEMU's
//! unsound fence-oblivious ones), fence merging (§6.1) and DCE, and the
//! host backend (in `risotto-host-arm`) lowers the result per the TCG→Arm
//! scheme.
//!
//! ## Example
//!
//! ```
//! use risotto_guest_x86::{Assembler, Gpr};
//! use risotto_tcg::{optimize, translate_block, FrontendConfig, OptPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new(0x1000);
//! a.load(Gpr::RAX, Gpr::RDI, 0);
//! a.store(Gpr::RSI, 0, Gpr::RAX);
//! a.hlt();
//! let (bytes, _) = a.finish()?;
//! let fetch = |addr: u64| {
//!     let mut w = [0u8; 16];
//!     let off = (addr - 0x1000) as usize;
//!     for i in 0..16 { w[i] = bytes.get(off + i).copied().unwrap_or(0); }
//!     w
//! };
//! let mut block = translate_block(0x1000, FrontendConfig::risotto(), fetch)?;
//! let stats = optimize(&mut block, OptPolicy::Verified);
//! assert!(stats.fences_merged > 0); // the §6.1 Frm·Fww merge
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod eval;
mod frontend;
mod ir;
mod opt;
pub mod verify;

pub use eval::{eval_block, EvalExit};
pub use frontend::{
    translate_block, translate_block_counted, CasStrategy, FrontendConfig, TranslateError,
    MAX_TB_INSNS,
};
pub use ir::{env, BinOp, CondOp, Helper, TbExit, TcgBlock, TcgOp, Temp};
pub use opt::{
    apply_hints, merge_fences, merge_fences_counted, optimize, optimize_in, optimize_with, IrHints,
    OptScratch, OptStats, PassConfig,
};
// The shared mapping tables (x86→TCG fence placement, Fig. 10
// elimination rule) live in `risotto-memmodel`.
pub use risotto_memmodel::{elim_may_cross, ElimKind, FencePlacement, OptPolicy};
pub use verify::{VerifyError, VerifyPass, VerifyScratch};

use std::cell::RefCell;
use std::thread::LocalKey;

/// Re-initializes a scratch table to `n` copies of `fill`, keeping its
/// allocation — how every stage clears what it is about to read.
pub fn reset<T: Clone>(table: &mut Vec<T>, n: usize, fill: T) {
    table.clear();
    table.resize(n, fill);
}

/// Runs `f` over the calling thread's spare scratch `S` — how the
/// one-shot entry points (`optimize_with`, `verify::lint`, the
/// backends' `lower_block_with_stats`, …) get the same reusable working
/// memory the engine threads through their `_in` forms explicitly. A
/// scratch carries no information between calls (every user
/// re-initializes what it reads), so which thread's spare a call lands
/// on is unobservable; a re-entrant call, whose spare is taken, works
/// over a fresh one.
pub fn with_thread_scratch<S: Default + 'static, R>(
    spare: &'static LocalKey<RefCell<S>>,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    spare.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut S::default()),
    })
}
