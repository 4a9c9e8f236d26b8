//! Static CFG recovery over a loaded MiniX86 image.
//!
//! A worklist decoder explores from the entry point, following direct
//! branches, calls and fallthroughs. Two kinds of statically-resolvable
//! indirection are chased with a block-local constant-register scan
//! (reset at every leader/terminator, so it needs no dataflow):
//!
//! * `SPAWN` syscalls under the repo's schedule-invariant spawn
//!   discipline (`mov rax, SPAWN; mov rdi, <target>; … syscall`) — the
//!   target becomes a new root (spawn-target identification);
//! * `jmp reg`/`call reg` where the register provably holds a constant
//!   at the terminator.
//!
//! The result is a partition of the reached text into [`Block`]s with
//! typed terminators, plus the spawn-site list and an `unresolved` flag
//! for indirection the scan could not chase (the block set is then a
//! lower bound, and the escape analysis poisons the image). The escape
//! analysis re-resolves all control flow with its full abstract domain
//! but uses these blocks as its node universe.

use risotto_guest_x86::{syscalls, Gpr, GuestBinary, Insn, TEXT_BASE};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One decoded instruction with its location.
#[derive(Debug, Clone, Copy)]
pub struct CfgInsn {
    /// Guest pc.
    pub pc: u64,
    /// Encoded length in bytes.
    pub len: usize,
    /// The instruction.
    pub insn: Insn,
}

/// How a recovered block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Unconditional direct jump.
    Jump(u64),
    /// Conditional branch.
    Cond {
        /// Target when the condition holds.
        taken: u64,
        /// Fallthrough pc.
        fall: u64,
    },
    /// Direct call (target + return pc) or an indirect call whose target
    /// the constant scan resolved.
    Call {
        /// Callee entry.
        target: u64,
        /// Return pc (pushed on the guest stack).
        ret: u64,
    },
    /// `jmp reg` resolved to a constant target by the local scan.
    ResolvedJump(u64),
    /// `jmp reg` / `call reg` the scan could not resolve (register, and
    /// the return pc for calls).
    Indirect {
        /// The target register.
        reg: Gpr,
        /// `Some(return pc)` for `call reg`, `None` for `jmp reg`.
        ret: Option<u64>,
    },
    /// `ret` — the escape analysis resolves targets via its tracked
    /// stack.
    Ret,
    /// `hlt`.
    Halt,
    /// `syscall`; execution resumes at `next` unless the syscall is
    /// `EXIT`.
    Syscall {
        /// Resume pc.
        next: u64,
    },
    /// Fallthrough into the next leader (the block was split).
    Fall(u64),
    /// Decoding failed at the end of this block (dead end).
    Bad,
}

/// A recovered basic block: straight-line instructions + terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Pc of the first instruction.
    pub start: u64,
    /// The instructions, including the terminator instruction (if the
    /// block ends in one rather than falling through).
    pub insns: Vec<CfgInsn>,
    /// Typed terminator.
    pub term: Term,
}

/// A statically discovered `SPAWN` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnSite {
    /// Pc of the `syscall` instruction.
    pub pc: u64,
    /// Spawn target (child entry pc).
    pub target: u64,
    /// `RSI` (the child's argument) if constant at the site.
    pub arg: Option<u64>,
}

/// The recovered control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Image entry point.
    pub entry: u64,
    /// Blocks by start pc.
    pub blocks: BTreeMap<u64, Block>,
    /// Statically discovered spawn sites.
    pub spawns: Vec<SpawnSite>,
    /// `true` when some indirect jump/call target (or a syscall number)
    /// could not be resolved by the local constant scan: the block set
    /// is then a lower bound, not exact.
    pub unresolved: bool,
}

/// Result of the block-local constant-register scan at a terminator.
#[derive(Default, Clone, Copy)]
struct RegConsts {
    vals: [Option<u64>; 16],
}

impl RegConsts {
    fn get(&self, r: Gpr) -> Option<u64> {
        self.vals[r.index()]
    }
    fn step(&mut self, insn: &Insn) {
        // Only `mov reg, imm` produces a tracked constant; any other
        // write to a register kills it. This is exactly the discipline
        // `workloads::parallel` emits at spawn sites.
        match insn {
            Insn::MovRI { dst, imm } => self.vals[dst.index()] = Some(*imm),
            Insn::MovRR { dst, .. }
            | Insn::Load { dst, .. }
            | Insn::LoadB { dst, .. }
            | Insn::Lea { dst, .. }
            | Insn::Pop { dst } => self.vals[dst.index()] = None,
            Insn::Alu { dst, .. } | Insn::Fp { dst, .. } => self.vals[dst.index()] = None,
            Insn::MulWide { .. } | Insn::Div { .. } => {
                self.vals[Gpr::RAX.index()] = None;
                self.vals[Gpr::RDX.index()] = None;
            }
            Insn::LockCmpxchg { .. } => self.vals[Gpr::RAX.index()] = None,
            Insn::LockXadd { src, .. } => self.vals[src.index()] = None,
            Insn::Syscall => self.vals[Gpr::RAX.index()] = None,
            _ => {}
        }
    }
}

/// Recovers the CFG of a loaded image.
pub fn recover(bin: &GuestBinary) -> Cfg {
    let text_end = TEXT_BASE + bin.text.len() as u64;
    let in_text = |pc: u64| pc >= TEXT_BASE && pc < text_end;
    let decode_at = |pc: u64| -> Option<(Insn, usize)> {
        if !in_text(pc) {
            return None;
        }
        let off = (pc - TEXT_BASE) as usize;
        Insn::decode(&bin.text[off..]).ok()
    };

    // Pass 1: worklist decode from the entry, tracking leaders, spawn
    // sites and resolved indirect targets. `consts` is reset at every
    // root so runs never inherit stale constants.
    let mut decoded: BTreeMap<u64, (Insn, usize)> = BTreeMap::new();
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    let mut spawns: BTreeMap<u64, SpawnSite> = BTreeMap::new();
    let mut unresolved = false;
    let mut roots: VecDeque<u64> = VecDeque::from([bin.entry]);
    let mut seen_roots: BTreeSet<u64> = BTreeSet::new();
    while let Some(root) = roots.pop_front() {
        if !seen_roots.insert(root) {
            continue;
        }
        if !in_text(root) {
            unresolved = true;
            continue;
        }
        leaders.insert(root);
        let mut pc = root;
        let mut consts = RegConsts::default();
        loop {
            if decoded.contains_key(&pc) {
                // Converged with an already-decoded run.
                leaders.insert(pc);
                break;
            }
            let Some((insn, len)) = decode_at(pc) else {
                break;
            };
            decoded.insert(pc, (insn, len));
            let next = pc + len as u64;
            let mut push = |t: u64| roots.push_back(t);
            match insn {
                Insn::Jmp { rel } => {
                    push(next.wrapping_add_signed(rel as i64));
                    break;
                }
                Insn::Jcc { rel, .. } => {
                    push(next.wrapping_add_signed(rel as i64));
                    push(next);
                    break;
                }
                Insn::Call { rel } => {
                    push(next.wrapping_add_signed(rel as i64));
                    push(next);
                    break;
                }
                Insn::JmpReg { reg } => {
                    match consts.get(reg) {
                        Some(t) => push(t),
                        None => unresolved = true,
                    }
                    break;
                }
                Insn::CallReg { reg } => {
                    match consts.get(reg) {
                        Some(t) => push(t),
                        None => unresolved = true,
                    }
                    push(next);
                    break;
                }
                Insn::Ret | Insn::Hlt => break,
                Insn::Syscall => {
                    match consts.get(Gpr::RAX) {
                        Some(syscalls::EXIT) => {}
                        Some(syscalls::SPAWN) => {
                            match consts.get(Gpr::RDI) {
                                Some(target) => {
                                    spawns.insert(
                                        pc,
                                        SpawnSite { pc, target, arg: consts.get(Gpr::RSI) },
                                    );
                                    push(target);
                                }
                                None => unresolved = true,
                            }
                            push(next);
                        }
                        Some(_) => push(next),
                        None => {
                            unresolved = true;
                            push(next);
                        }
                    }
                    break;
                }
                other => {
                    consts.step(&other);
                    pc = next;
                }
            }
        }
    }

    // Pass 2: split the decoded runs at leaders into blocks.
    let mut blocks: BTreeMap<u64, Block> = BTreeMap::new();
    for &start in &leaders {
        if blocks.contains_key(&start) || !decoded.contains_key(&start) {
            continue;
        }
        let mut insns = Vec::new();
        let mut pc = start;
        let term = loop {
            let Some(&(insn, len)) = decoded.get(&pc) else {
                break Term::Bad;
            };
            insns.push(CfgInsn { pc, len, insn });
            let next = pc + len as u64;
            match insn {
                Insn::Jmp { rel } => break Term::Jump(next.wrapping_add_signed(rel as i64)),
                Insn::Jcc { rel, .. } => {
                    break Term::Cond { taken: next.wrapping_add_signed(rel as i64), fall: next }
                }
                Insn::Call { rel } => {
                    break Term::Call { target: next.wrapping_add_signed(rel as i64), ret: next }
                }
                Insn::JmpReg { reg } => {
                    // Re-derive the resolved target exactly as pass 1 did.
                    let mut consts = RegConsts::default();
                    for ci in &insns[..insns.len() - 1] {
                        consts.step(&ci.insn);
                    }
                    break match consts.get(reg) {
                        Some(t) => Term::ResolvedJump(t),
                        None => Term::Indirect { reg, ret: None },
                    };
                }
                Insn::CallReg { reg } => {
                    let mut consts = RegConsts::default();
                    for ci in &insns[..insns.len() - 1] {
                        consts.step(&ci.insn);
                    }
                    break match consts.get(reg) {
                        Some(t) => Term::Call { target: t, ret: next },
                        None => Term::Indirect { reg, ret: Some(next) },
                    };
                }
                Insn::Ret => break Term::Ret,
                Insn::Hlt => break Term::Halt,
                Insn::Syscall => break Term::Syscall { next },
                _ => {
                    if leaders.contains(&next) {
                        break Term::Fall(next);
                    }
                    pc = next;
                }
            }
        };
        blocks.insert(start, Block { start, insns, term });
    }

    // The per-block constant scans in pass 2 start at the *leader*, which
    // may sit mid-run (a jump into the middle of a spawn preamble would
    // lose the RAX constant). Pass 1's scan is per-root and strictly more
    // precise, so its spawn list stands; pass 2's terminator resolution is
    // only ever *less* resolved, which is the conservative direction.

    Cfg { entry: bin.entry, blocks, spawns: spawns.into_values().collect(), unresolved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_guest_x86::{Assembler, Cond, GelfBuilder};

    fn build(f: impl FnOnce(&mut Assembler)) -> GuestBinary {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        f(&mut b.asm);
        b.finish().expect("valid image")
    }

    #[test]
    fn straight_line_recovers_one_block() {
        let bin = build(|a| {
            a.mov_ri(Gpr::RAX, 7);
            a.hlt();
        });
        let cfg = recover(&bin);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[&cfg.entry].term, Term::Halt);
        assert!(!cfg.unresolved);
        assert!(cfg.spawns.is_empty());
    }

    #[test]
    fn branches_split_blocks_and_both_arms_are_found() {
        let bin = build(|a| {
            a.cmp_ri(Gpr::RDI, 0);
            a.jcc_to(Cond::E, "zero");
            a.mov_ri(Gpr::RAX, 1);
            a.hlt();
            a.label("zero");
            a.mov_ri(Gpr::RAX, 2);
            a.hlt();
        });
        let cfg = recover(&bin);
        assert_eq!(cfg.blocks.len(), 3);
        let Term::Cond { taken, fall } = cfg.blocks[&cfg.entry].term else {
            panic!("entry ends in {:?}", cfg.blocks[&cfg.entry].term);
        };
        // Both arms were explored into blocks of their own.
        assert_ne!(taken, fall);
        assert_eq!(cfg.blocks[&taken].term, Term::Halt);
        assert_eq!(cfg.blocks[&fall].term, Term::Halt);
    }

    #[test]
    fn spawn_discipline_is_identified() {
        let bin = build(|a| {
            a.mov_ri(Gpr::RAX, syscalls::SPAWN);
            a.mov_label(Gpr::RDI, "worker");
            a.mov_ri(Gpr::RSI, 1);
            a.syscall();
            a.hlt();
            a.label("worker");
            a.mov_ri(Gpr::RAX, syscalls::EXIT);
            a.mov_ri(Gpr::RDI, 0);
            a.syscall();
        });
        let cfg = recover(&bin);
        assert_eq!(cfg.spawns.len(), 1);
        let s = cfg.spawns[0];
        assert_eq!(s.arg, Some(1));
        assert!(cfg.blocks.contains_key(&s.target), "spawn target explored");
        assert!(!cfg.unresolved);
        // The worker body is found only through the spawn edge: it is
        // a block of its own, ending in its `EXIT` syscall.
        assert!(matches!(cfg.blocks[&s.target].term, Term::Syscall { .. }));
        assert_eq!(cfg.blocks.len(), 3);
    }

    #[test]
    fn unresolvable_indirection_is_flagged() {
        let bin = build(|a| {
            a.insn(Insn::JmpReg { reg: Gpr::R11 });
        });
        let cfg = recover(&bin);
        assert!(cfg.unresolved);
    }

    #[test]
    fn resolved_indirect_jump_is_chased() {
        let bin = build(|a| {
            a.mov_label(Gpr::R11, "tgt");
            a.insn(Insn::JmpReg { reg: Gpr::R11 });
            a.label("tgt");
            a.hlt();
        });
        let cfg = recover(&bin);
        assert!(!cfg.unresolved);
        let Term::ResolvedJump(tgt) = cfg.blocks[&cfg.entry].term else {
            panic!("entry ends in {:?}", cfg.blocks[&cfg.entry].term);
        };
        assert_eq!(cfg.blocks[&tgt].term, Term::Halt);
    }
}
