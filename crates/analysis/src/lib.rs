//! Whole-program static analysis over loaded MiniX86 guest images.
//!
//! This crate runs the escape analysis over the guest text, decoding
//! its nodes as control reaches them ([`dataflow`] is its solver), and
//! distils the result into [`ImageFacts`]: a per-site
//! classification of every static memory access — exactly what the
//! translator reads. The engine consumes the facts to *relax*
//! fence/ordering obligations on provably core-private or read-only
//! accesses before lowering; the translation verifier re-derives the
//! relaxation mask from the same facts, so an engine (or a mutant)
//! claiming a wrong "private" produces a structured verification error
//! at install time. Removing fences is the facts' only use.
//!
//! [`escape`] is the shared-memory escape analysis: it classifies every
//! static access as core-private / read-only-shared / shared / atomic
//! across all spawned-core instances.

#![deny(missing_docs)]

pub mod dataflow;
pub mod escape;

pub use escape::{AccessKind, InstanceInfo, Poison, Site, SiteClass};

use risotto_guest_x86::{GuestBinary, Insn};
use risotto_tcg::{IrHints, TcgBlock};
use std::collections::BTreeMap;

/// Aggregate summary of an image's analysis (the `analyze` bench bin
/// serialises this; `analysis.*` metrics mirror the counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisSummary {
    /// Static memory-access sites discovered.
    pub sites: u64,
    /// Sites proven core-private.
    pub private: u64,
    /// Sites proven read-only-shared.
    pub readonly: u64,
    /// Sites that may be written by more than one core.
    pub shared: u64,
    /// Atomic RMW sites (never relaxable).
    pub atomics: u64,
    /// Sites whose ordering obligation may be relaxed
    /// (private + read-only, zero whenever the image is poisoned).
    pub relaxable: u64,
    /// Soundness poisons (unresolved indirection, solver limits, …).
    pub poisons: u64,
    /// Core instances analysed (root + spawned).
    pub instances: u64,
    /// Counted loops refined by the bounded-unrolling pass.
    pub refined_loops: u64,
}

/// Everything the whole-program analysis learned about one image.
///
/// Produced by [`analyze_image`]; each `Emulator` with analysis on owns
/// one. The struct is immutable after construction — the engine's
/// relaxation mask and the verifier's re-derived mask both come from
/// the same pristine facts.
#[derive(Debug, Clone)]
pub struct ImageFacts {
    /// Per-pc classification of every static memory access.
    pub sites: BTreeMap<u64, Site>,
    /// Soundness poisons; non-empty ⇒ nothing is relaxable.
    pub poisons: Vec<Poison>,
    /// Core instances analysed.
    pub instances: Vec<InstanceInfo>,
    /// Counted loops the escape analysis refined.
    pub refined_loops: u32,
}

impl ImageFacts {
    /// Whether any soundness poison forbids relaxation image-wide.
    pub fn poisoned(&self) -> bool {
        !self.poisons.is_empty()
    }

    /// Whether the access at guest `pc` may have its ordering
    /// obligation relaxed: the image is poison-free and the site is
    /// proven core-private or read-only-shared. Unknown pcs are never
    /// relaxable.
    pub fn relaxable(&self, pc: u64) -> bool {
        !self.poisoned() && self.sites.get(&pc).map(|s| s.class.relaxable()).unwrap_or(false)
    }

    /// Builds the per-memory-event relaxation mask for the translation
    /// block at `[pc, pc + guest_len)`, in the exact event order the
    /// frontend emits (and the verifier's `check_obligations_masked`
    /// consumes): one entry per `Ld`/`Ld8`/`St`/`St8`/`Cas`/
    /// `AtomicAdd`/`CallHelper` op. RMW and helper events always get
    /// `false` — their ordering lives inside the op. A decode failure
    /// yields an empty (all-conservative) mask.
    pub fn relax_mask(
        &self,
        pc: u64,
        guest_len: u64,
        fetch: impl Fn(u64) -> [u8; 16],
    ) -> Vec<bool> {
        event_sites(pc, guest_len, fetch)
            .into_iter()
            .map(|(p, plain)| plain && self.relaxable(p))
            .collect()
    }

    /// Aggregate counters for metrics and the bench JSON report.
    pub fn summary(&self) -> AnalysisSummary {
        let mut s = AnalysisSummary {
            sites: self.sites.len() as u64,
            poisons: self.poisons.len() as u64,
            instances: self.instances.len() as u64,
            refined_loops: self.refined_loops as u64,
            ..AnalysisSummary::default()
        };
        for site in self.sites.values() {
            match site.class {
                SiteClass::Private => s.private += 1,
                SiteClass::ReadOnly => s.readonly += 1,
                SiteClass::Shared => s.shared += 1,
                SiteClass::Atomic => s.atomics += 1,
            }
            if !self.poisoned() && site.class.relaxable() {
                s.relaxable += 1;
            }
        }
        s
    }
}

/// Guest pc and kind of every frontend memory event emitted for the
/// translation block at `[pc, pc + guest_len)`, in emission order —
/// index-parallel to the masks [`ImageFacts::relax_mask`] builds and
/// `relax_block`/`check_obligations_masked` consume. The flag is `true`
/// for plain load/store events (whose scheme fence can be relaxed) and
/// `false` for RMW/helper events (ordering intrinsic to the op). An
/// undecodable byte ends the walk with an empty vector: the frontend
/// would have rejected the block too, so there are no events to map.
pub fn event_sites(pc: u64, guest_len: u64, fetch: impl Fn(u64) -> [u8; 16]) -> Vec<(u64, bool)> {
    let mut events = Vec::new();
    let mut p = pc;
    let end = pc.saturating_add(guest_len);
    while p < end {
        let Ok((insn, len)) = Insn::decode(&fetch(p)) else {
            return Vec::new();
        };
        match insn {
            // One plain load/store event each (Call pushes the return
            // address; Ret pops it).
            Insn::Load { .. }
            | Insn::LoadB { .. }
            | Insn::Store { .. }
            | Insn::StoreB { .. }
            | Insn::Push { .. }
            | Insn::Pop { .. }
            | Insn::Ret
            | Insn::Call { .. }
            | Insn::CallReg { .. } => events.push((p, true)),
            // One event whose ordering is intrinsic to the op.
            Insn::Fp { .. } | Insn::LockCmpxchg { .. } | Insn::LockXadd { .. } => {
                events.push((p, false))
            }
            _ => {}
        }
        p += len as u64;
    }
    events
}

/// Runs the whole-program pipeline over one image: the multi-instance
/// escape analysis.
pub fn analyze_image(bin: &GuestBinary) -> ImageFacts {
    escape::analyze(bin)
}

/// No hints: the known-bits IR pass is gone. Kept only because the
/// frozen `benchmark/` replay still calls it; ROADMAP item 6(g) deletes it.
#[doc(hidden)]
pub fn ir_hints(_block: &TcgBlock) -> IrHints {
    IrHints
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_guest_x86::{syscalls, GelfBuilder, Gpr};

    fn image(build: impl FnOnce(&mut GelfBuilder, &mut Vec<u64>)) -> GuestBinary {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        let mut addrs = Vec::new();
        build(&mut b, &mut addrs);
        b.finish().expect("image assembles")
    }

    #[test]
    fn analyze_image_classifies_and_summarises() {
        let bin = image(|b, addrs| {
            let cell = b.data_u64(&[7]);
            addrs.push(cell);
            b.asm.mov_ri(Gpr::RBX, cell);
            b.asm.load(Gpr::RCX, Gpr::RBX, 0);
            b.asm.store(Gpr::RBX, 0, Gpr::RCX);
            b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
            b.asm.syscall();
        });
        let facts = analyze_image(&bin);
        assert!(!facts.poisoned());
        assert_eq!(facts.instances.len(), 1);
        let s = facts.summary();
        assert_eq!(s.sites, 2);
        assert_eq!(s.private, 2, "single-core accesses are all private");
        assert_eq!(s.relaxable, 2);
    }

    #[test]
    fn relax_mask_follows_frontend_event_order() {
        let bin = image(|b, addrs| {
            let cell = b.data_u64(&[1]);
            addrs.push(cell);
            b.asm.mov_ri(Gpr::RBX, cell);
            b.asm.load(Gpr::RCX, Gpr::RBX, 0); // event 0: relaxable load
            b.asm.mov_ri(Gpr::RAX, 1);
            b.asm.insn(risotto_guest_x86::Insn::LockXadd {
                base: Gpr::RBX,
                disp: 0,
                src: Gpr::RAX,
            }); // event 1: atomic
            b.asm.store(Gpr::RBX, 0, Gpr::RCX); // event 2: relaxable store
            b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
            b.asm.syscall();
        });
        let facts = analyze_image(&bin);
        assert!(!facts.poisoned());
        let mask = facts
            .relax_mask(risotto_guest_x86::TEXT_BASE, bin.text.len() as u64, |pc| bin.window(pc));
        // Atomic sites are classified Atomic (not relaxable); the two
        // plain accesses are private in a single-core program. But the
        // atomic makes the *cell* contended? No other core exists, so
        // both plain accesses stay private.
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn poisoned_image_relaxes_nothing() {
        let bin = image(|b, _| {
            b.asm.mov_ri(Gpr::RBX, 0x12345);
            b.asm.insn(risotto_guest_x86::Insn::JmpReg { reg: Gpr::RBX });
        });
        let facts = analyze_image(&bin);
        // The register holds a constant, but not a text address.
        assert!(facts.poisoned());
        assert_eq!(facts.summary().relaxable, 0);
        assert!(!facts.relaxable(risotto_guest_x86::TEXT_BASE));
    }
}
