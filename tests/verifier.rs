//! The translation-verifier gate (docs/VERIFIER.md).
//!
//! Three claims are tested over the full Fig. 12 kernel corpus:
//!
//! 1. **Zero false positives** — every block the real pipeline produces,
//!    under every setup's frontend/optimizer pairing, passes all three
//!    verifier passes; and litmus programs run clean at
//!    `VerifyLevel::Full` while their blocks tier up (the ladder legs of
//!    the `theorem1` litmus matrix, whose every run checks the verifier).
//! 2. **Mutation kill rate** — seeded mutants of the optimized IR
//!    (drop one fence, swap one fence across an adjacent access,
//!    downgrade one fence) and of the encoded bytes (flip one byte) are
//!    each flagged by the verifier. 100% of generated mutants must die.
//! 3. **Fault containment** — an injected install-time corruption
//!    ([`FaultPlan::corrupt_install_at`]) is caught at every
//!    `VerifyLevel`, the default included, before the damaged code can
//!    dispatch, and the run still produces the fault-free result.
//!
//! `RISOTTO_VERIFY_SMOKE=1` bounds the sweep for CI (fewer blocks per
//! kernel, smaller kernels).

mod theorem1;
mod translate;

use risotto::core::{EmuConfig, Emulator, FaultPlan, Setup, VerifyLevel};
use risotto::guest::GuestBinary;
use risotto::host::{ArmBackend, BackendConfig, HostBackend, HostInsn, RmwStyle};
use risotto::memmodel::FenceKind;
use risotto::tcg::{optimize_with, verify, FrontendConfig, OptPolicy, PassConfig, TcgBlock, TcgOp};
use risotto::workloads::kernels;
use translate::{configs, discover_blocks, smoke};

/// Runs the three verifier passes on an optimized block exactly as the
/// engine's `VerifyLevel::Full` hook does.
fn full_verify(
    reference: &TcgBlock,
    optimized: &TcgBlock,
    cfg: FrontendConfig,
    policy: OptPolicy,
    code: &[HostInsn],
    bytes: &[u8],
) -> Result<(), risotto::tcg::VerifyError> {
    verify::lint(optimized, false)?;
    verify::check_obligations(reference, optimized, cfg.fences, policy)?;
    ArmBackend.check_encoding(optimized, code, bytes, BackendConfig::dbt(RmwStyle::Casal))
}

fn encode_all(code: &[HostInsn]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in code {
        i.encode(&mut bytes);
    }
    bytes
}

/// The translated + optimized + lowered corpus for one kernel/config.
struct Translated {
    reference: TcgBlock,
    optimized: TcgBlock,
    code: Vec<HostInsn>,
    bytes: Vec<u8>,
}

fn translate_corpus(bin: &GuestBinary, cfg: FrontendConfig, policy: OptPolicy) -> Vec<Translated> {
    let cap = if smoke() { 12 } else { 64 };
    discover_blocks(bin, cfg, cap)
        .into_iter()
        .map(|reference| {
            let mut optimized = reference.clone();
            optimize_with(&mut optimized, policy, PassConfig::all());
            let code = ArmBackend
                .lower_block_with_stats(&optimized, BackendConfig::dbt(RmwStyle::Casal))
                .expect("pipeline blocks lower")
                .insns;
            let bytes = encode_all(&code);
            Translated { reference, optimized, code, bytes }
        })
        .collect()
}

#[test]
fn clean_kernel_corpus_has_zero_violations() {
    let scale = if smoke() { 16 } else { 64 };
    let mut checked = 0usize;
    for w in kernels::all() {
        let bin = (w.build)(scale, 2);
        for (cfg, policy) in configs() {
            for t in translate_corpus(&bin, cfg, policy) {
                full_verify(&t.reference, &t.optimized, cfg, policy, &t.code, &t.bytes)
                    .unwrap_or_else(|e| {
                        panic!("false positive in {} ({:?}): {e}", w.name, cfg.fences)
                    });
                checked += 1;
            }
        }
    }
    assert!(checked >= 100, "corpus too small to be meaningful: {checked} blocks");
}

/// Positions of `Fence` ops in a block.
fn fence_positions(block: &TcgBlock) -> Vec<usize> {
    block
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| matches!(op, TcgOp::Fence(_)).then_some(i))
        .collect()
}

/// A fence strictly weaker than `k` under `tcg_at_least`, if one exists
/// (none for `Facq`/`Frel`, which every TCG fence already covers).
fn weaker_than(k: FenceKind) -> Option<FenceKind> {
    FenceKind::TCG_ALL.iter().copied().find(|w| !w.tcg_at_least(k))
}

#[test]
fn verifier_kills_every_fence_and_encoding_mutant() {
    let scale = if smoke() { 16 } else { 64 };
    let (cfg, policy) = (FrontendConfig::risotto(), OptPolicy::Verified);
    let (mut drops, mut swaps, mut downgrades, mut corruptions) = (0usize, 0usize, 0usize, 0usize);
    for w in kernels::all() {
        let bin = (w.build)(scale, 2);
        for t in translate_corpus(&bin, cfg, policy) {
            for i in fence_positions(&t.optimized) {
                // Mutant 1: drop the fence.
                let mut m = t.optimized.clone();
                m.ops.remove(i);
                assert!(
                    verify::check_obligations(&t.reference, &m, cfg.fences, policy).is_err(),
                    "{}: dropped fence at op {i} survived",
                    w.name
                );
                drops += 1;
                // Mutant 2: swap the fence across an adjacent memory
                // access (reorder); only meaningful when one is adjacent.
                if i + 1 < t.optimized.ops.len() && t.optimized.ops[i + 1].is_memory_access() {
                    let mut m = t.optimized.clone();
                    m.ops.swap(i, i + 1);
                    assert!(
                        verify::check_obligations(&t.reference, &m, cfg.fences, policy).is_err(),
                        "{}: fence reordered across access at op {i} survived",
                        w.name
                    );
                    swaps += 1;
                }
                // Mutant 3: downgrade to a strictly weaker fence.
                let TcgOp::Fence(k) = t.optimized.ops[i] else { unreachable!() };
                if let Some(weaker) = weaker_than(k) {
                    let mut m = t.optimized.clone();
                    m.ops[i] = TcgOp::Fence(weaker);
                    assert!(
                        verify::check_obligations(&t.reference, &m, cfg.fences, policy).is_err(),
                        "{}: fence {k:?} downgraded to {weaker:?} at op {i} survived",
                        w.name
                    );
                    downgrades += 1;
                }
            }
            // Mutant 4: corrupt one encoded byte (first, middle, last).
            for off in [0, t.bytes.len() / 2, t.bytes.len() - 1] {
                let mut bad = t.bytes.clone();
                bad[off] ^= 0xff;
                assert!(
                    ArmBackend
                        .check_encoding(
                            &t.optimized,
                            &t.code,
                            &bad,
                            BackendConfig::dbt(RmwStyle::Casal)
                        )
                        .is_err(),
                    "{}: corrupted byte {off} survived",
                    w.name
                );
                corruptions += 1;
            }
        }
    }
    assert!(drops >= 20, "too few fence-drop mutants: {drops}");
    assert!(swaps >= 5, "too few reorder mutants: {swaps}");
    assert!(downgrades >= 20, "too few downgrade mutants: {downgrades}");
    assert!(corruptions >= 50, "too few byte mutants: {corruptions}");
}

/// Litmus programs on the tier-0→1 ladder, under every DBT setup on both
/// backends: every run reports `verify.checked > 0` and no violation at
/// `VerifyLevel::Full` while its spin loops are promoted, and its outcome
/// is x86-allowed.
#[test]
fn litmus_corpus_runs_clean_at_full_verification() {
    theorem1::sweep(theorem1::Slice::Ladder);
}

/// At every level, the default included, a corrupted install is read
/// back and discarded before it can run.
#[test]
fn injected_install_corruption_is_caught_before_dispatch() {
    let w = kernels::all().into_iter().find(|w| w.name == "histogram").expect("histogram kernel");
    let bin = (w.build)(64, 2);
    let fuel = 2_000_000_000;

    let clean = EmuConfig { verify: VerifyLevel::Install, ..EmuConfig::default() };
    let reference =
        Emulator::with_config(&bin, Setup::Risotto, 2, clean).run(fuel).expect("clean run");

    for level in [None, Some(VerifyLevel::Install), Some(VerifyLevel::Full)] {
        let fault_plan = FaultPlan::seeded(7).corrupt_install_at(0).corrupt_install_at(3);
        let default = EmuConfig { fault_plan, ..EmuConfig::default() };
        let config = match level {
            Some(verify) => EmuConfig { verify, ..default },
            None => default,
        };
        let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, config);
        let report = emu.run(fuel).unwrap_or_else(|e| panic!("{level:?}: run must recover: {e}"));

        // The damaged installs were discarded before dispatch: results
        // match the fault-free reference exactly.
        assert_eq!(report.exit_vals, reference.exit_vals, "{level:?}");
        assert_eq!(report.output, reference.output, "{level:?}");

        let m = emu.metrics();
        assert_eq!(m.counter("verify.violations"), 2, "{level:?}: both corruptions flagged");
        assert_eq!(m.counter("verify.encoding_violations"), 2, "{level:?}");
        assert!(m.counter("verify.checked") > 0, "{level:?}");
        assert!(m.counter("fault.injected") >= 2, "{level:?}");
        let fallbacks = m.counter("translate.fallback_blocks");
        assert!(fallbacks >= 1, "{level:?}: rejected installs are interpreted");
        // Ordinal 0 corrupts `main`'s entry block, which executes exactly
        // once (interpreted, never revisited); only the re-reached loop
        // block is re-translated after its quarantine entry.
        let retranslations = m.counter("translate.retranslations");
        assert!(retranslations >= 1, "{level:?}: quarantined pcs are re-translated");
    }
}
