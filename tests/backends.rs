//! Cross-backend acceptance tests (docs/BACKENDS.md): the Arm and
//! MiniTSO host backends must be observationally equivalent for
//! guest-visible state.
//!
//! * every kernel, CAS-grid and reproducer program ends as the reference
//!   interpreter ends on the TSO tier-1 legs of the functional matrix
//!   (`theorem1/functional.rs`; the Arm legs run in `end_to_end.rs`), at
//!   `VerifyLevel::Full`, and a TSO run never executes a partial barrier
//!   (x86 has only `MFENCE`);
//! * a batch of generated programs passes the shared run check under
//!   every leg of the functional matrix, the TSO legs included;
//! * install-time corruption of TSO-lowered code is caught by the
//!   per-backend Pass 3 read-back before dispatch (mutant kill);
//! * `docs/BACKENDS.md` documents every TCG fence kind and every
//!   backend-trait method — and names nothing that does not exist;
//! * litmus programs run through the TSO backend stay within the
//!   x86-allowed behavior set (the TSO tier-1 legs of the `theorem1`
//!   litmus matrix).

mod theorem1;

use risotto::core::{BackendKind, EmuConfig, Emulator, FaultPlan, Setup, VerifyLevel};
use risotto::host::{ArmBackend, HostBackend};
use risotto::memmodel::FenceKind;
use risotto::workloads::kernels;

const FUEL: u64 = 2_000_000_000;

/// `backend` with the translation verifier at `verify`.
fn config(backend: BackendKind, verify: VerifyLevel) -> EmuConfig {
    EmuConfig { backend, verify, ..EmuConfig::default() }
}

/// The TSO tier-1 legs, analysis off, on every program of the
/// functional table: each run ends as the reference interpreter ends,
/// verifier clean, and never executes a partial barrier.
#[test]
fn kernels_are_bit_identical_across_backends() {
    theorem1::functional::sweep(theorem1::functional::Slice::Tier1Tso);
}

/// The RMW-free litmus programs under {qemu, tcg-ver, risotto} on the TSO
/// backend, tier-1 only, analysis off: every observed behavior is
/// x86-allowed. (Observed *sets* may legitimately differ between
/// backends — TSO emits fewer fences, so store buffers drain on a
/// different schedule — but containment in the axiomatic x86 set is the
/// correctness bar for both.)
#[test]
fn litmus_under_tso_backend_stays_within_x86_behaviors() {
    theorem1::sweep(theorem1::Slice::Tier1Tso);
}

/// The LOCK-prefixed RMW programs (MPQ, SBQ, SBAL) under the same legs.
#[test]
fn rmw_litmus_under_tso_backend() {
    theorem1::sweep(theorem1::Slice::Tier1TsoRmw);
}

/// The second generated batch (`program_seed(0xBAC0_0000, 0..40)`) under
/// every leg of the functional matrix: each run, on either backend, ends
/// as the interpreter ends and agrees with the risotto/Arm run on
/// atomics.
#[test]
fn seeded_fuzz_batch_has_no_cross_backend_divergence() {
    use theorem1::functional::{sweep, Slice, BATCHES};
    sweep(Slice::Generated { salt: BATCHES[1] });
}

/// Mutant kill through the engine: corrupting installed TSO code is
/// caught by the per-backend Pass 3 encoding read-back before dispatch,
/// and the run still matches a fault-free TSO reference exactly.
#[test]
fn tso_install_corruption_is_caught_by_pass3() {
    let w = kernels::all().into_iter().find(|w| w.name == "histogram").expect("histogram kernel");
    let bin = (w.build)(64, 2);

    let clean = config(BackendKind::Tso, VerifyLevel::Install);
    let reference = Emulator::with_config(&bin, Setup::Risotto, 2, clean.clone())
        .run(FUEL)
        .expect("clean tso run");

    let fault_plan = FaultPlan::seeded(7).corrupt_install_at(0).corrupt_install_at(3);
    let mut emu = Emulator::with_config(&bin, Setup::Risotto, 2, EmuConfig { fault_plan, ..clean });
    let report = emu.run(FUEL).expect("verified tso run recovers");

    assert_eq!(report.exit_vals, reference.exit_vals);
    assert_eq!(report.output, reference.output);

    let m = emu.metrics();
    assert_eq!(m.counter("verify.violations"), 2, "both corruptions must be flagged");
    assert_eq!(m.counter("verify.encoding_violations"), 2);
    assert!(
        m.counter("translate.fallback_blocks") >= 1,
        "rejected installs fall back to the interpreter"
    );
}

/// The native oracle is Arm-compiled code; it has no TSO rendition, and
/// an emulator that asks for one is never built.
#[test]
#[should_panic(expected = "native oracle")]
fn native_setup_rejects_tso_backend() {
    let bin = (kernels::all()[0].build)(4, 1);
    let tso = EmuConfig { backend: BackendKind::Tso, ..EmuConfig::default() };
    Emulator::with_config(&bin, Setup::Native, 1, tso);
}

/// The last path segment of each item. Every path must resolve, so a
/// renamed or deleted item stops this file compiling before the doc
/// checks below can silently rot.
macro_rules! item_names {
    ($($item:expr),* $(,)?) => {
        vec![$({
            let _ = $item;
            stringify!($item).rsplit("::").next().unwrap_or_default().trim()
        }),*]
    };
}

/// Every method of the one backend trait.
fn trait_method_names() -> Vec<&'static str> {
    item_names![
        <ArmBackend as HostBackend>::name,
        <ArmBackend as HostBackend>::cost_model,
        <ArmBackend as HostBackend>::fence,
        <ArmBackend as HostBackend>::cas,
        <ArmBackend as HostBackend>::atomic_add,
        <ArmBackend as HostBackend>::expected_points,
        <ArmBackend as HostBackend>::check_dialect,
        <ArmBackend as HostBackend>::lower_block_in,
        <ArmBackend as HostBackend>::lower_block_with_stats,
        <ArmBackend as HostBackend>::check_encoding_in,
        <ArmBackend as HostBackend>::check_encoding,
    ]
}

/// The free functions and inherent methods `docs/BACKENDS.md` may name.
fn known_free() -> Vec<&'static str> {
    item_names![
        risotto::host::arm_dmb_of,
        FenceKind::arm_dmb,
        FenceKind::tso_fence,
        Emulator::with_config,
        risotto::host::CostModel::thunderx2_like,
        risotto::host_tso::x86_server_like,
        risotto::mappings::scheme::verified_x86_to_tso,
    ]
}

/// Forward direction: `docs/BACKENDS.md` names every TCG fence kind (in
/// both backends' lowering tables) and every backend-trait method.
#[test]
fn backends_md_documents_every_fence_kind_and_trait_method() {
    let doc = include_str!("../docs/BACKENDS.md");
    for k in FenceKind::TCG_ALL {
        let token = format!("`{k:?}`");
        assert!(
            doc.contains(&token),
            "docs/BACKENDS.md is missing fence kind {token} — both lowering tables must cover it"
        );
    }
    for method in trait_method_names() {
        let token = format!("`{method}`");
        assert!(
            doc.contains(&token),
            "docs/BACKENDS.md is missing trait method {token} — document the contract"
        );
    }
}

/// Reverse direction: every fence-kind-shaped and method-shaped token the
/// document names actually exists. The doc may not describe a fence kind
/// or trait method that the code does not have.
#[test]
fn backends_md_names_nothing_that_does_not_exist() {
    let doc = include_str!("../docs/BACKENDS.md");
    let fence_names: Vec<String> = FenceKind::TCG_ALL
        .iter()
        .map(|k| format!("{k:?}"))
        .chain(["MFence", "DmbLd", "DmbSt", "DmbFf"].map(String::from))
        .collect();
    let methods = trait_method_names();
    for token in doc.split('`').skip(1).step_by(2) {
        // Fence-kind-shaped tokens: `F…` camel-case or the machine-level
        // kinds. Anything shaped like one must be a real variant.
        let fence_shaped = (token.starts_with('F')
            && token.len() <= 4
            && token.chars().skip(1).all(|c| c.is_ascii_lowercase()))
            || token.starts_with("Dmb")
            || token == "MFence";
        if fence_shaped {
            assert!(
                fence_names.iter().any(|n| n == token),
                "docs/BACKENDS.md names `{token}` which is not a FenceKind variant"
            );
        }
        // Method-shaped tokens: `foo()` with a known-method prefix rule —
        // every parenthesised lowercase token must be a real trait
        // method, a real free function, or a real inherent method.
        if let Some(name) = token.strip_suffix("()") {
            let name = name.rsplit("::").next().unwrap_or(name);
            if methods.contains(&name) {
                continue; // trait method, exists by construction above
            }
            assert!(
                known_free().contains(&name),
                "docs/BACKENDS.md names `{name}()` which this test does not know; \
                 add it to `known_free` with a compile-time tie if it is real"
            );
        }
    }
}

/// The shared fence tables are the single source of truth: the Arm
/// lowering hook and the TSO lowering hook agree with
/// `FenceKind::arm_dmb`/`FenceKind::tso_fence` on every TCG kind.
#[test]
fn lowering_hooks_agree_with_shared_fence_tables() {
    use risotto::host::{Dmb, HostInsn};
    for k in FenceKind::TCG_ALL {
        let arm = ArmBackend.fence(k);
        assert_eq!(arm.is_some(), k.arm_dmb().is_some(), "{k:?}: Arm hook vs shared table");
        let tso = risotto::host_tso::TsoBackend.fence(k);
        assert_eq!(tso.is_some(), k.tso_fence().is_some(), "{k:?}: TSO hook vs shared table");
        if let Some(insn) = tso {
            assert_eq!(insn, HostInsn::Barrier(Dmb::Ff), "{k:?}: TSO fences are MFENCE only");
        }
    }
}
