//! # risotto-host-tso
//!
//! The MiniTSO (x86-TSO) host backend: a second [`HostBackend`]
//! implementation behind the trait introduced for the Arm backend,
//! exercising the *other* direction of the architecture-to-architecture
//! mapping question (Chakraborty 2020): translating onto a host whose
//! memory model is **stronger** than the TCG IR's ordering vocabulary.
//!
//! Under x86-TSO every ld→ld, st→st and ld→st ordering is free — the
//! only reordering the hardware performs is store→load through the
//! store buffer. The TCG fence lowering therefore collapses (see
//! [`FenceKind::tso_fence`], verified exhaustively against
//! `risotto-memmodel::models::x86::X86Tso` in the Theorem-1 sweep):
//!
//! * fences whose ordering covers **write→read** (`Fwr`, `Fwm`, `Fmr`,
//!   `Fmm`, `Fsc`) lower to `MFENCE`;
//! * every other TCG fence (`Frr`, `Frw`, `Frm`, `Fww`, `Fmw`, `Facq`,
//!   `Frel`) lowers to **nothing**;
//! * acquire loads and release stores lower to plain `MOV`s;
//! * RMWs use `LOCK`-prefixed forms (`LOCK CMPXCHG`, `LOCK XADD`),
//!   which carry full-fence semantics on both sides.
//!
//! ## The container encoding
//!
//! MiniTSO code is expressed in the shared [`HostInsn`] container ISA
//! (the simulated machine executes one instruction vocabulary), using a
//! restricted dialect with a fixed x86 reading:
//!
//! | dialect instruction | x86 meaning |
//! |---|---|
//! | `Ldr`/`Str` (`MemOrder::Plain`) | `MOV` load/store |
//! | `Barrier(Dmb::Ff)` | `MFENCE` |
//! | `Cas { acq_rel: true }` | `LOCK CMPXCHG` |
//! | `LdaddAl` | `LOCK XADD` |
//!
//! Exclusive pairs (`Ldxr`/`Stxr`), partial barriers (`Dmb::Ld`/`St`)
//! and acquire/release access orderings have no x86 equivalent and are
//! **forbidden**; the TSO Pass 3 dialect check rejects them, and a
//! `Cas { acq_rel: false }` (a dropped `LOCK` prefix) is likewise
//! rejected. The simulated machine is operationally exact for this
//! dialect: its only weakness is FIFO store buffering with own-store
//! forwarding — precisely x86-TSO — and `Barrier(Dmb::Ff)` drains the
//! buffer exactly as `MFENCE` does.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use risotto_host_arm::{
    fp_op_of, helper_index, BackendConfig, CostModel, Dmb, HostAsm, HostBackend, HostInsn,
    MemOrder, Point, Xreg,
};
use risotto_memmodel::FenceKind;
use risotto_tcg::TcgOp;

/// The MiniTSO host backend: `MFENCE` only for store→load obligations
/// (the shared [`FenceKind::tso_fence`] table, so the lowering and the
/// verifier consult one source of truth), `LOCK`-prefixed RMWs, the
/// x86-server cost calibration, and a Pass 3 that restricts the decoded
/// stream to the MiniTSO instruction subset.
///
/// Unlike Arm's [`risotto_host_arm::RmwStyle`] choice, x86 has a single
/// RMW idiom — `BackendConfig::rmw` is ignored (`LOCK` already carries
/// the bracketing-fence semantics `Rmw2Fenced` emulates on Arm).
#[derive(Debug, Clone, Copy, Default)]
pub struct TsoBackend;

impl HostBackend for TsoBackend {
    fn name(&self) -> &'static str {
        "tso"
    }

    fn cost_model(&self) -> CostModel {
        x86_server_like()
    }

    fn fence(&self, k: FenceKind) -> Option<HostInsn> {
        k.tso_fence().map(|_| HostInsn::Barrier(Dmb::Ff)) // MFENCE
    }

    fn cas(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        expect: Xreg,
        new: Xreg,
        _cfg: BackendConfig,
    ) {
        // LOCK CMPXCHG: dst preloaded with the expected value, the
        // acq_rel flag is the dialect's LOCK prefix (full-fence RMW).
        asm.push(HostInsn::MovReg { dst, src: expect });
        asm.push(HostInsn::Cas { cmp_old: dst, new, addr, acq_rel: true });
    }

    fn atomic_add(
        &self,
        asm: &mut HostAsm,
        dst: Xreg,
        addr: Xreg,
        addend: Xreg,
        _cfg: BackendConfig,
    ) {
        // LOCK XADD.
        asm.push(HostInsn::LdaddAl { old: dst, addend, addr });
    }

    fn expected_points(&self, op: &TcgOp, cfg: BackendConfig, out: &mut Vec<Point>) {
        let plain = MemOrder::Plain;
        match op {
            TcgOp::Ld { .. } => out.push(Point::Access { load: true, byte: false, order: plain }),
            TcgOp::Ld8 { .. } => out.push(Point::Access { load: true, byte: true, order: plain }),
            TcgOp::St { .. } => out.push(Point::Access { load: false, byte: false, order: plain }),
            TcgOp::St8 { .. } => out.push(Point::Access { load: false, byte: true, order: plain }),
            TcgOp::Fence(k) if k.tso_fence().is_some() => out.push(Point::Dmb(Dmb::Ff)), // MFENCE
            TcgOp::Fence(_) => {}
            // One RMW idiom regardless of `cfg.rmw`: the LOCK forms.
            TcgOp::Cas { .. } => out.push(Point::Cas { acq_rel: true }),
            TcgOp::AtomicAdd { .. } => out.push(Point::Ldadd),
            TcgOp::CallHelper { helper, .. } if !(cfg.native && fp_op_of(*helper).is_some()) => {
                out.push(Point::Helper(helper_index(*helper)));
            }
            _ => {}
        }
    }

    fn check_dialect(&self, decoded: &[HostInsn]) -> Result<(), (usize, &'static str)> {
        for (pos, insn) in decoded.iter().enumerate() {
            let what = match insn {
                HostInsn::Ldxr { .. } | HostInsn::Stxr { .. } => {
                    "exclusive-pair instruction (no x86 equivalent)"
                }
                HostInsn::Barrier(Dmb::Ld) | HostInsn::Barrier(Dmb::St) => {
                    "partial barrier (x86 has only MFENCE)"
                }
                HostInsn::Ldr { order, .. } | HostInsn::Str { order, .. }
                    if !matches!(order, MemOrder::Plain) =>
                {
                    "acquire/release access ordering (TSO uses plain MOVs)"
                }
                HostInsn::Cas { acq_rel: false, .. } => {
                    "CAS without the LOCK-equivalent acq_rel flag"
                }
                _ => continue,
            };
            return Err((pos, what));
        }
        Ok(())
    }
}

/// The calibrated cycle model of the simulated x86 server host.
///
/// Shape constraints mirrored from the Arm calibration where the class
/// exists, with the TSO-specific differences: `MFENCE` (`dmb_ff`) is
/// cheaper than an Arm `DMB FF` (store-buffer drain only, no remote
/// invalidation wait), the partial-barrier classes are unreachable
/// (this backend never emits them — kept at the full-fence cost so a
/// dialect bug would surface in cycle counts, not vanish), and `LOCK`
/// RMWs are slightly cheaper than Arm's `casal` path.
pub fn x86_server_like() -> CostModel {
    CostModel {
        dmb_ff: 33,
        dmb_ld: 33,
        dmb_st: 33,
        atomic: 20,
        acq_rel_extra: 0,
        ..CostModel::thunderx2_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_host_arm::{ArmBackend, RmwStyle};
    use risotto_tcg::{FrontendConfig, OptPolicy, TcgBlock, VerifyPass};

    fn tso_cfg() -> BackendConfig {
        BackendConfig::dbt(RmwStyle::Casal)
    }

    /// Serves `bytes` as guest text at `base` (decode windows
    /// zero-padded).
    fn fetcher(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
        move |addr| {
            let mut w = [0u8; 16];
            let off = (addr - base) as usize;
            for (i, slot) in w.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            w
        }
    }

    fn translate(
        f: impl FnOnce(&mut risotto_guest_x86::Assembler),
        fe: FrontendConfig,
        opt: bool,
    ) -> TcgBlock {
        let mut a = risotto_guest_x86::Assembler::new(0x1000);
        f(&mut a);
        let (bytes, _) = a.finish().expect("assembles");
        let mut block =
            risotto_tcg::translate_block(0x1000, fe, fetcher(bytes, 0x1000)).expect("translates");
        if opt {
            risotto_tcg::optimize(&mut block, OptPolicy::Verified);
        }
        block
    }

    fn lower_snippet(
        f: impl FnOnce(&mut risotto_guest_x86::Assembler),
        fe: FrontendConfig,
    ) -> (TcgBlock, Vec<HostInsn>) {
        let block = translate(f, fe, true);
        let insns =
            TsoBackend.lower_block_with_stats(&block, tso_cfg()).expect("tso lowering").insns;
        (block, insns)
    }

    fn encode(insns: &[HostInsn]) -> Vec<u8> {
        let mut enc = Vec::new();
        for i in insns {
            i.encode(&mut enc);
        }
        enc
    }

    #[test]
    fn fence_hook_matches_shared_tso_table() {
        for k in FenceKind::TCG_ALL {
            let lowered = TsoBackend.fence(k);
            match k.tso_fence() {
                Some(FenceKind::MFence) => {
                    assert_eq!(lowered, Some(HostInsn::Barrier(Dmb::Ff)), "{k:?}");
                }
                Some(other) => unreachable!("tso_fence returned {other:?}"),
                None => assert_eq!(lowered, None, "{k:?}"),
            }
        }
    }

    #[test]
    fn message_passing_lowers_fence_free() {
        use risotto_guest_x86::Gpr;
        // The Arm backend turns this verified-frontend snippet into
        // LDR; DMBLD … DMBST; STR. On TSO both fences (Frm, Fww) are
        // free. Unoptimized on purpose: the §6.1 fence-merging pass
        // combines the adjacent Frm·Fww into one Fmm, which covers
        // write→read and so *does* cost an MFENCE — Arm-profitable,
        // TSO-pessimal (see the companion test below).
        let block = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::tcg_ver(),
            false,
        );
        let code = TsoBackend.lower_block_with_stats(&block, tso_cfg()).unwrap().insns;
        assert!(
            !code.iter().any(|i| matches!(i, HostInsn::Barrier(_))),
            "ld→ld/st→st orderings must cost nothing on TSO"
        );
    }

    #[test]
    fn fence_merging_is_sound_but_pessimal_on_tso() {
        use risotto_guest_x86::Gpr;
        // The merged Fmm strengthens Frm·Fww (sound per Theorem 1), and
        // its write→read coverage makes the TSO lowering emit an MFENCE
        // where the unmerged fences were both free.
        let (_, code) = lower_snippet(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::tcg_ver(),
        );
        let ff = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ff))).count();
        assert_eq!(ff, 1, "the merged Fmm costs exactly one MFENCE");
    }

    #[test]
    fn store_load_fence_becomes_mfence() {
        use risotto_guest_x86::Gpr;
        let (_, code) = lower_snippet(
            |a| {
                a.store(Gpr::RDI, 0, Gpr::RAX);
                a.mfence();
                a.load(Gpr::RAX, Gpr::RSI, 0);
                a.hlt();
            },
            FrontendConfig::tcg_ver(),
        );
        let ff = code.iter().filter(|i| matches!(i, HostInsn::Barrier(Dmb::Ff))).count();
        assert_eq!(ff, 1, "the programmer's MFENCE must survive as one full barrier");
        assert!(!code.iter().any(|i| matches!(i, HostInsn::Barrier(Dmb::Ld | Dmb::St))));
    }

    #[test]
    fn rmws_lower_to_lock_forms_regardless_of_rmw_style() {
        use risotto_guest_x86::Gpr;
        for rmw in [RmwStyle::Casal, RmwStyle::Rmw2Fenced] {
            let block = translate(
                |a| {
                    a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
                    a.hlt();
                },
                FrontendConfig::risotto(),
                false,
            );
            let code =
                TsoBackend.lower_block_with_stats(&block, BackendConfig::dbt(rmw)).unwrap().insns;
            assert!(
                code.iter().any(|i| matches!(i, HostInsn::Cas { acq_rel: true, .. })),
                "LOCK CMPXCHG under {rmw:?}"
            );
            assert!(
                !code.iter().any(|i| matches!(i, HostInsn::Ldxr { .. } | HostInsn::Stxr { .. })),
                "no exclusive pairs on x86 under {rmw:?}"
            );
        }
    }

    #[test]
    fn clean_tso_encoding_verifies() {
        use risotto_guest_x86::Gpr;
        let (block, insns) = lower_snippet(
            |a| {
                a.store(Gpr::RDI, 0, Gpr::RAX);
                a.mfence();
                a.cmpxchg(Gpr::RDI, 8, Gpr::RSI);
                a.load(Gpr::RAX, Gpr::RSI, 0);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        TsoBackend.check_encoding(&block, &insns, &encode(&insns), tso_cfg()).unwrap();
    }

    #[test]
    fn dropped_mfence_is_flagged() {
        use risotto_guest_x86::Gpr;
        let (block, mut insns) = lower_snippet(
            |a| {
                a.store(Gpr::RDI, 0, Gpr::RAX);
                a.mfence();
                a.load(Gpr::RAX, Gpr::RSI, 0);
                a.hlt();
            },
            FrontendConfig::tcg_ver(),
        );
        let at = insns.iter().position(|i| matches!(i, HostInsn::Barrier(_))).unwrap();
        insns.remove(at);
        let e = TsoBackend.check_encoding(&block, &insns, &encode(&insns), tso_cfg()).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Encoding);
    }

    #[test]
    fn dropped_lock_prefix_is_flagged() {
        use risotto_guest_x86::Gpr;
        let (block, mut insns) = lower_snippet(
            |a| {
                a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let at = insns.iter().position(|i| matches!(i, HostInsn::Cas { .. })).unwrap();
        if let HostInsn::Cas { acq_rel, .. } = &mut insns[at] {
            *acq_rel = false; // strip the LOCK prefix
        }
        let e = TsoBackend.check_encoding(&block, &insns, &encode(&insns), tso_cfg()).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Encoding);
    }

    #[test]
    fn arm_dialect_instructions_are_rejected() {
        use risotto_guest_x86::Gpr;
        // Lower the same verified block with the *Arm* dialect under
        // Rmw2Fenced (exclusive pairs + partial barriers) and present
        // it to the TSO checker: every foreign instruction must fail
        // the dialect restriction.
        let block = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
                a.hlt();
            },
            FrontendConfig::risotto(),
            true,
        );
        let cfg = BackendConfig::dbt(RmwStyle::Rmw2Fenced);
        let arm = ArmBackend.lower_block_with_stats(&block, cfg).unwrap().insns;
        let e = TsoBackend.check_encoding(&block, &arm, &encode(&arm), cfg).unwrap_err();
        assert!(e.obligation.contains("TSO dialect violation"), "{}", e.obligation);
    }

    #[test]
    fn corrupted_byte_is_flagged() {
        use risotto_guest_x86::Gpr;
        let (block, insns) = lower_snippet(
            |a| {
                a.store(Gpr::RDI, 0, Gpr::RAX);
                a.mfence();
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let enc = encode(&insns);
        for off in 0..enc.len() {
            let mut bad = enc.clone();
            bad[off] ^= 0xff;
            assert!(
                TsoBackend.check_encoding(&block, &insns, &bad, tso_cfg()).is_err(),
                "corruption at byte {off} not flagged"
            );
        }
    }

    #[test]
    fn cost_calibration_orderings_hold() {
        let tso = x86_server_like();
        let arm = CostModel::thunderx2_like();
        assert!(tso.dmb_ff < arm.dmb_ff, "MFENCE drains locally, no remote wait");
        assert!(tso.atomic < arm.atomic, "LOCK RMW beats casal on its home ISA");
        assert_eq!(tso.acq_rel_extra, 0, "acquire/release are plain MOVs on TSO");
        assert_eq!(TsoBackend.cost_model(), tso);
        assert_eq!(TsoBackend.name(), "tso");
    }
}
