//! Pass 3 of the translation validator: the host-encoding checker.
//!
//! After the backend lowers a verified TCG block and the engine encodes
//! it, [`HostBackend::check_encoding_in`] decodes the host bytes back
//! (via [`HostInsn::decode`]) and proves three things:
//!
//! 1. **byte fidelity** — the bytes are exactly the canonical encoding
//!    of the lowered instructions, and they decode back to the same
//!    instruction sequence (any corrupted byte either changes a decoded
//!    field, changes the framing, or fails to decode);
//! 2. **ordering placement** — the decoded stream stays inside the
//!    backend's instruction subset ([`HostBackend::check_dialect`]), and
//!    its interleaving of `DMB` barriers, `casal`/`ldaddal`/
//!    exclusive-pair atomics, helper calls and guest loads/stores
//!    matches what the verified IR demands under the given
//!    [`BackendConfig`] and that backend's
//!    [`HostBackend::expected_points`] (env and spill traffic through
//!    [`ENV_BASE`]/[`SPILL_BASE`] is host-private and ignored);
//! 3. **exit integrity** — every direct-jump exit carries a zeroed
//!    chain word at [`JUMP_CHAIN_OFFSET`] and the exit targets match the
//!    IR's block exit.
//!
//! Violations are reported as [`VerifyError`]s with
//! [`VerifyPass::Encoding`], feeding the engine's quarantine path.

use crate::backend::{BackendConfig, HostBackend, ENV_BASE, SPILL_BASE};
use crate::insn::{Dmb, HostInsn, MemOrder, TbExitKind};
use risotto_tcg::{TbExit, TcgBlock, TcgOp, VerifyError, VerifyPass};
use std::cell::RefCell;

/// An ordering-relevant point in a host instruction stream.
///
/// Public so each backend's [`HostBackend::expected_points`] can state
/// its expected ordering stream in these terms; the shared checker
/// matches them against the decoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A `DMB` barrier.
    Dmb(Dmb),
    /// A guest memory access.
    Access {
        /// Load (`true`) or store (`false`).
        load: bool,
        /// Byte-sized `LdrB`/`StrB` rather than word-sized.
        byte: bool,
        /// Ordering annotation ([`MemOrder::Plain`] for byte accesses).
        order: MemOrder,
    },
    /// `CAS`/`CASAL`.
    Cas {
        /// Acquire-release (`casal`, ≙ `LOCK CMPXCHG` on TSO).
        acq_rel: bool,
    },
    /// `LDADDAL`.
    Ldadd,
    /// `LDXR`.
    ExclLoad {
        /// Load-acquire variant.
        acquire: bool,
    },
    /// `STXR`.
    ExclStore {
        /// Store-release variant.
        release: bool,
    },
    /// A runtime helper call (QEMU-style out-of-line memory op).
    Helper(u8),
    /// A TB exit (`ExitTb` of any kind). The first one anchors the
    /// allocation-map check: every env register the IR wrote must have
    /// its deferred write-back land before it.
    Exit,
}

impl Point {
    /// Human-readable name used in [`VerifyError`] obligations.
    pub fn name(self) -> String {
        match self {
            Point::Dmb(d) => format!("dmb {d:?}"),
            Point::Access { load: true, byte, .. } => {
                format!("{}load", if byte { "byte " } else { "" })
            }
            Point::Access { load: false, byte, .. } => {
                format!("{}store", if byte { "byte " } else { "" })
            }
            Point::Cas { acq_rel: true } => "casal".into(),
            Point::Cas { acq_rel: false } => "cas".into(),
            Point::Ldadd => "ldaddal".into(),
            Point::ExclLoad { .. } => "ldxr".into(),
            Point::ExclStore { .. } => "stxr".into(),
            Point::Helper(h) => format!("hcall {h}"),
            Point::Exit => "exit".into(),
        }
    }
}

/// Builds an Encoding-pass [`VerifyError`] anchored at `block`.
fn err(block: &TcgBlock, op_index: Option<usize>, obligation: String) -> VerifyError {
    VerifyError { pass: VerifyPass::Encoding, guest_pc: block.guest_pc, op_index, obligation }
}

/// The exit anchors the block's terminator must have produced.
fn exit_points(exit: &TbExit, out: &mut Vec<Point>) {
    match exit {
        TbExit::CondJump { .. } => out.extend([Point::Exit, Point::Exit]),
        _ => out.push(Point::Exit),
    }
}

/// The ordering points actually present in a decoded host stream.
/// `None` for host-private instructions (ALU, env/spill traffic,
/// branches, moves).
fn actual_point(insn: &HostInsn) -> Option<Point> {
    match insn {
        HostInsn::Barrier(d) => Some(Point::Dmb(*d)),
        HostInsn::Ldr { base, order, .. } if *base != ENV_BASE && *base != SPILL_BASE => {
            Some(Point::Access { load: true, byte: false, order: *order })
        }
        HostInsn::Str { base, order, .. } if *base != ENV_BASE && *base != SPILL_BASE => {
            Some(Point::Access { load: false, byte: false, order: *order })
        }
        HostInsn::LdrB { base, .. } if *base != ENV_BASE && *base != SPILL_BASE => {
            Some(Point::Access { load: true, byte: true, order: MemOrder::Plain })
        }
        HostInsn::StrB { base, .. } if *base != ENV_BASE && *base != SPILL_BASE => {
            Some(Point::Access { load: false, byte: true, order: MemOrder::Plain })
        }
        HostInsn::Cas { acq_rel, .. } => Some(Point::Cas { acq_rel: *acq_rel }),
        HostInsn::LdaddAl { .. } => Some(Point::Ldadd),
        HostInsn::Ldxr { acquire, .. } => Some(Point::ExclLoad { acquire: *acquire }),
        HostInsn::Stxr { release, .. } => Some(Point::ExclStore { release: *release }),
        HostInsn::Hcall { helper } => Some(Point::Helper(*helper)),
        HostInsn::ExitTb(_) => Some(Point::Exit),
        _ => None,
    }
}

thread_local!(pub(crate) static SPARE: RefCell<EncodingScratch> = RefCell::default());

/// Pass 3's reusable working memory: the canonical re-encoding and the
/// expected/actual ordering-point lists, kept between blocks so a
/// steady-state check allocates nothing. Every list is cleared before it
/// is filled, so a check that returned early with an error leaves
/// nothing a later one can observe.
#[derive(Debug, Default)]
pub struct EncodingScratch {
    canonical: Vec<u8>,
    expected: Vec<Point>,
    /// The decoded stream's ordering points.
    actual: Vec<Point>,
    expected_jumps: Vec<u64>,
    actual_jumps: Vec<u64>,
}

/// Pass 3 for `host`, behind [`HostBackend::check_encoding_in`]: the
/// shared checks (byte fidelity + decode-back, ordering-point
/// interleaving against `host.expected_points`, env write-back coverage
/// before the first exit, chain-word/exit-target integrity) and the
/// backend's own `check_dialect` restriction.
pub(crate) fn check<B: HostBackend + ?Sized>(
    host: &B,
    block: &TcgBlock,
    insns: &[HostInsn],
    bytes: &[u8],
    cfg: BackendConfig,
    scratch: &mut EncodingScratch,
) -> Result<(), VerifyError> {
    let EncodingScratch { canonical: expect, expected, actual, expected_jumps, actual_jumps } =
        scratch;
    // 1. Byte fidelity: canonical re-encoding matches...
    expect.clear();
    for i in insns {
        i.encode(expect);
    }
    if expect.as_slice() != bytes {
        let at = expect.iter().zip(bytes).position(|(a, b)| a != b);
        return Err(err(
            block,
            None,
            match at {
                Some(o) => format!(
                    "encoded bytes differ from canonical encoding at offset {o} (expected {:#04x}, found {:#04x})",
                    expect[o], bytes[o]
                ),
                None => format!(
                    "encoded length {} differs from canonical encoding length {}",
                    bytes.len(),
                    expect.len()
                ),
            },
        ));
    }
    // ...and the bytes decode back to the same instruction stream, each
    // instruction compared as it is decoded, with no bytes left over.
    // From here on `insns` *is* the decoded stream.
    let differs = || {
        err(block, None, "decoded instruction stream differs from the lowered instructions".into())
    };
    let mut off = 0usize;
    for want in insns {
        if off == bytes.len() {
            return Err(differs());
        }
        let (insn, len) = HostInsn::decode(&bytes[off..]).map_err(|e| {
            err(block, None, format!("decode-back failed at byte offset {off}: {e}"))
        })?;
        if insn != *want {
            return Err(differs());
        }
        off += len;
    }
    if off != bytes.len() {
        return Err(differs());
    }

    // 1b. Dialect restriction: the decoded stream must stay inside the
    // backend's instruction subset (a no-op for Arm, which owns the
    // whole container ISA).
    host.check_dialect(insns).map_err(|(pos, what)| {
        let name = host.name().to_ascii_uppercase();
        err(block, None, format!("{name} dialect violation at host instruction {pos}: {what}"))
    })?;

    // 2. Ordering placement: barrier/atomic/access/exit interleaving
    // matches the IR.
    expected.clear();
    for op in &block.ops {
        host.expected_points(op, cfg, expected);
    }
    exit_points(&block.exit, expected);
    actual.clear();
    actual.extend(insns.iter().filter_map(actual_point));
    if expected != actual {
        let at = expected
            .iter()
            .zip(actual.iter())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        let have = actual.get(at).map(|p| p.name()).unwrap_or_else(|| "nothing".into());
        let want = expected.get(at).map(|p| p.name()).unwrap_or_else(|| "nothing".into());
        return Err(err(
            block,
            None,
            format!(
                "host ordering point {at} mismatches the IR: expected {want}, encoded stream has {have}"
            ),
        ));
    }

    // 2b. Allocation map: deferred env write-backs cover the exit. The
    // backend pins guest env registers in host registers and defers the
    // env `STR` to flush points, so the verifier proves that every env
    // register the IR wrote (`SetReg`) has a `STR` to its home slot
    // before the first exit of the host stream (flush-point stores and
    // dirty evictions both count); a `CondJump`'s second exit follows
    // no further IR. Skipped in direct-regs (native-oracle) mode, where
    // there is no env to write back.
    if !cfg.direct_regs {
        // The point streams matched, so the block exit put one here.
        let first_exit =
            insns.iter().position(|i| matches!(i, HostInsn::ExitTb(_))).unwrap_or(insns.len());
        // Env slot index (any `u8` register number) → stored to.
        let mut written_back = [false; 256];
        for insn in &insns[..first_exit] {
            if let HostInsn::Str { base, off, .. } = insn {
                if *base == ENV_BASE && *off % 8 == 0 {
                    if let Some(slot) = written_back.get_mut((*off / 8) as usize) {
                        *slot = true;
                    }
                }
            }
        }
        for (i, op) in block.ops.iter().enumerate() {
            let TcgOp::SetReg { reg, .. } = op else { continue };
            if !written_back[*reg as usize] {
                return Err(err(
                    block,
                    Some(i),
                    format!(
                        "env register {reg} is written by the IR but has no write-back to its env slot before the exit at host instruction {first_exit}"
                    ),
                ));
            }
        }
    }

    // 3. Exit integrity: chain words are zeroed, exit targets match.
    expected_jumps.clear();
    match &block.exit {
        TbExit::Jump(pc) => expected_jumps.push(*pc),
        TbExit::CondJump { taken, fallthrough, .. } => {
            expected_jumps.push(*fallthrough);
            expected_jumps.push(*taken);
        }
        _ => {}
    }
    actual_jumps.clear();
    for insn in insns {
        if let HostInsn::ExitTb(TbExitKind::Jump { guest_pc, chain }) = insn {
            if *chain != 0 {
                return Err(err(
                    block,
                    None,
                    format!(
                        "direct-jump exit to {guest_pc:#x} installed with a non-zero chain word"
                    ),
                ));
            }
            actual_jumps.push(*guest_pc);
        }
    }
    expected_jumps.sort_unstable();
    actual_jumps.sort_unstable();
    if expected_jumps != actual_jumps {
        return Err(err(
            block,
            None,
            format!(
                "direct-jump exit targets {actual_jumps:x?} do not match the IR's {expected_jumps:x?}"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ArmBackend, RmwStyle};
    use risotto_guest_x86::{Assembler, Gpr};
    use risotto_tcg::{optimize, FrontendConfig, OptPolicy};

    fn pipeline(cfg: FrontendConfig, be: BackendConfig) -> (TcgBlock, Vec<HostInsn>, Vec<u8>) {
        let mut a = Assembler::new(0x1000);
        a.load(Gpr::RAX, Gpr::RDI, 0);
        a.store(Gpr::RSI, 0, Gpr::RAX);
        a.hlt();
        let (bytes, _) = a.finish().unwrap();
        let fetch = move |addr: u64| {
            let mut w = [0u8; 16];
            let off = (addr - 0x1000) as usize;
            for (i, b) in w.iter_mut().enumerate() {
                *b = bytes.get(off + i).copied().unwrap_or(0);
            }
            w
        };
        let mut block = risotto_tcg::translate_block(0x1000, cfg, fetch).unwrap();
        optimize(&mut block, OptPolicy::Verified);
        let insns = ArmBackend.lower_block_with_stats(&block, be).unwrap().insns;
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        (block, insns, enc)
    }

    #[test]
    fn clean_encoding_verifies() {
        for be in [BackendConfig::dbt(RmwStyle::Casal), BackendConfig::dbt(RmwStyle::Rmw2Fenced)] {
            let (block, insns, enc) = pipeline(FrontendConfig::risotto(), be);
            ArmBackend.check_encoding(&block, &insns, &enc, be).unwrap();
        }
    }

    #[test]
    fn corrupted_byte_is_flagged() {
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, insns, enc) = pipeline(FrontendConfig::risotto(), be);
        for off in 0..enc.len() {
            let mut bad = enc.clone();
            bad[off] ^= 0xff;
            assert!(
                ArmBackend.check_encoding(&block, &insns, &bad, be).is_err(),
                "corruption at byte {off} not flagged"
            );
        }
    }

    #[test]
    fn dropped_barrier_is_flagged() {
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, mut insns, _) = pipeline(FrontendConfig::risotto(), be);
        let at = insns.iter().position(|i| matches!(i, HostInsn::Barrier(_))).unwrap();
        insns.remove(at);
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        let e = ArmBackend.check_encoding(&block, &insns, &enc, be).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Encoding);
    }

    #[test]
    fn weakened_barrier_is_flagged() {
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, mut insns, _) = pipeline(FrontendConfig::risotto(), be);
        let at = insns.iter().position(|i| matches!(i, HostInsn::Barrier(Dmb::Ff))).unwrap();
        insns[at] = HostInsn::Barrier(Dmb::St);
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        assert!(ArmBackend.check_encoding(&block, &insns, &enc, be).is_err());
    }

    #[test]
    fn dropped_env_writeback_is_flagged() {
        // A store into a guest register whose deferred env write-back is
        // stripped from the host stream must fail the allocation-map
        // check even though no ordering point changes.
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, mut insns, _) = pipeline(FrontendConfig::risotto(), be);
        assert!(
            block.ops.iter().any(|op| matches!(op, TcgOp::SetReg { .. })),
            "pipeline block must write a guest register"
        );
        let at = insns
            .iter()
            .position(|i| matches!(i, HostInsn::Str { base, .. } if *base == ENV_BASE))
            .expect("lowered stream must contain an env write-back");
        insns.remove(at);
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        let e = ArmBackend.check_encoding(&block, &insns, &enc, be).unwrap_err();
        assert_eq!(e.pass, VerifyPass::Encoding);
        assert!(e.obligation.contains("write-back"), "unexpected obligation: {}", e.obligation);
    }

    #[test]
    fn misplaced_env_writeback_is_flagged() {
        // Moving the write-back past its exit anchor (here: after the
        // final ExitTb) leaves the ordering stream intact but breaks the
        // per-segment coverage.
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, mut insns, _) = pipeline(FrontendConfig::risotto(), be);
        let at = insns
            .iter()
            .position(|i| matches!(i, HostInsn::Str { base, .. } if *base == ENV_BASE))
            .expect("lowered stream must contain an env write-back");
        let wb = insns.remove(at);
        insns.push(wb);
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        assert!(ArmBackend.check_encoding(&block, &insns, &enc, be).is_err());
    }

    #[test]
    fn nonzero_chain_word_is_flagged() {
        let be = BackendConfig::dbt(RmwStyle::Casal);
        let (block, mut insns, _) = pipeline(FrontendConfig::risotto(), be);
        let at = insns
            .iter()
            .position(|i| matches!(i, HostInsn::ExitTb(TbExitKind::Jump { .. })))
            .unwrap_or_else(|| {
                insns.push(HostInsn::ExitTb(TbExitKind::Jump { guest_pc: 0, chain: 0 }));
                insns.len() - 1
            });
        if let HostInsn::ExitTb(TbExitKind::Jump { chain, .. }) = &mut insns[at] {
            *chain = 0xdead;
        }
        let mut enc = Vec::new();
        for i in &insns {
            i.encode(&mut enc);
        }
        assert!(ArmBackend.check_encoding(&block, &insns, &enc, be).is_err());
    }
}
