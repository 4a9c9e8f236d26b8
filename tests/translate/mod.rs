//! Translate-path helpers shared by the verifier and determinism suites.

// Each test binary that includes this module uses some of it.
#![allow(dead_code)]

use risotto::core::Setup;
use risotto::guest::GuestBinary;
use risotto::tcg::{translate_block, FrontendConfig, OptPolicy, TbExit, TcgBlock};

/// The frontend/optimizer pairing of each DBT setup, in the order the
/// checked-in hashes fold them.
pub fn configs() -> [(FrontendConfig, OptPolicy); 4] {
    [Setup::Risotto, Setup::TcgVer, Setup::Qemu, Setup::NoFences]
        .map(|s| (s.frontend(), s.opt_policy()))
}

/// BFS over the static control flow from the entry point: every block
/// the tier-1 pipeline would translate, up to `cap` blocks.
pub fn discover_blocks(bin: &GuestBinary, cfg: FrontendConfig, cap: usize) -> Vec<TcgBlock> {
    let fetch = |pc: u64| bin.window(pc);
    let mut seen = std::collections::HashSet::new();
    let mut queue = vec![bin.entry];
    let mut blocks = Vec::new();
    while let Some(pc) = queue.pop() {
        if blocks.len() >= cap || !seen.insert(pc) {
            continue;
        }
        let Ok(block) = translate_block(pc, cfg, fetch) else {
            continue; // PLT stubs / data — the engine quarantines these too
        };
        match block.exit {
            TbExit::Jump(t) => queue.push(t),
            TbExit::CondJump { taken, fallthrough, .. } => {
                queue.push(taken);
                queue.push(fallthrough);
            }
            TbExit::Syscall { next } => queue.push(next),
            TbExit::JumpReg(_) | TbExit::Halt => {}
        }
        blocks.push(block);
    }
    blocks
}
