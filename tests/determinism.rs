//! Codegen determinism suite.
//!
//! The backend's register allocator makes every decision over dense
//! arrays in a fixed order (no hash-seeded iteration), so the same IR
//! must always lower to bit-identical host bytes — a property that
//! byte-identity verification, reproducible fault sweeps, and any
//! future content-hash TB sharing all rely on. This suite lowers every
//! block the real pipeline produces — the Fig. 12 kernel corpus, the
//! litmus programs and the checked-in fuzz corpus — **twice from fresh
//! allocator state**, under both `RmwStyle`s, and asserts the two
//! encodings and the reported allocation statistics are identical.
//!
//! `RISOTTO_VERIFY_SMOKE=1` bounds the sweep for CI.
//!
//! Determinism across *versions* is pinned too: [`PIPELINE_HASH`] is a
//! checked-in hash of every host byte and every optimizer / allocator
//! statistic the same corpora produce on both backends, so a change to
//! the translate path that claims "same output, less host time" has to
//! reproduce it; [`HOST_HASH`] is the same sweep without the optimizer
//! statistics, for a change that feeds the optimizer less IR on purpose
//! but must not move a host byte. And since that translate path works
//! over reusable scratch tables, [`reused_scratch_matches_fresh_scratch`]
//! holds it to the property that makes reuse invisible: whatever went
//! through a scratch before — including a block that failed half-way —
//! the next block comes out as it does from a fresh one.

mod theorem1;
mod translate;

use risotto::fuzz::parse_corpus;
use risotto::guest::GuestBinary;
use risotto::host::{
    AllocStats, ArmBackend, BackendConfig, EncodingScratch, HostBackend, HostInsn, LowerScratch,
    RmwStyle,
};
use risotto::host_tso::TsoBackend;
use risotto::litmus::corpus;
use risotto::tcg::verify::{check_captured, check_obligations_in, lint_in};
use risotto::tcg::{
    optimize_in, optimize_with, BinOp, FrontendConfig, OptPolicy, OptScratch, OptStats, PassConfig,
    TbExit, TcgBlock, TcgOp, Temp, VerifyScratch,
};
use risotto::workloads::kernels;
use risotto::workloads::litmus_compile::compile_litmus;
use theorem1::functional::REPRODUCERS;
use translate::{configs, discover_blocks, smoke};

fn backends() -> [BackendConfig; 2] {
    [BackendConfig::dbt(RmwStyle::Casal), BackendConfig::dbt(RmwStyle::Rmw2Fenced)]
}

fn encode_all(code: &[HostInsn]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in code {
        i.encode(&mut bytes);
    }
    bytes
}

/// Lowers `block` twice from fresh allocator state and asserts the
/// encodings and allocation statistics agree bit-for-bit.
fn assert_deterministic(block: &TcgBlock, be: BackendConfig, what: &str) {
    let a = ArmBackend
        .lower_block_with_stats(block, be)
        .unwrap_or_else(|e| panic!("{what}: first lowering failed: {e}"));
    let b = ArmBackend
        .lower_block_with_stats(block, be)
        .unwrap_or_else(|e| panic!("{what}: second lowering failed: {e}"));
    assert_eq!(
        encode_all(&a.insns),
        encode_all(&b.insns),
        "{what}: two lowerings of the same IR produced different bytes"
    );
    assert_eq!(a.alloc, b.alloc, "{what}: allocation statistics diverged");
}

/// Every optimized tier-1 block of every kernel, under all four
/// frontend/policy pairings and both RMW styles, lowers to the same
/// bytes twice.
#[test]
fn kernel_corpus_lowers_bit_identically() {
    let scale = if smoke() { 16 } else { 64 };
    let cap = if smoke() { 10 } else { 48 };
    let mut checked = 0usize;
    for w in kernels::all() {
        let bin = (w.build)(scale, 2);
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&bin, cfg, cap) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, w.name);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "the sweep must cover at least one block");
}

/// The litmus corpus — fence-dense, atomic-dense blocks — lowers
/// deterministically too.
#[test]
fn litmus_corpus_lowers_bit_identically() {
    for prog in [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb(), corpus::iriw()] {
        let compiled = compile_litmus(&prog, &[0, 0]);
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&compiled.binary, cfg, 32) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, &prog.name);
                }
            }
        }
    }
}

/// The fuzz reproducers lower deterministically.
#[test]
fn fuzz_corpus_lowers_bit_identically() {
    for (name, text) in REPRODUCERS {
        let spec = parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
        let bin = spec.lower().unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&bin, cfg, 32) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, name);
                }
            }
        }
    }
}

/// FNV-1a over a byte string, continuing from `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_words(h: &mut u64, words: &[u64]) {
    for w in words {
        fnv(h, &w.to_le_bytes());
    }
}

fn hash_opt_stats(h: &mut u64, s: &OptStats) {
    let scalars = [s.folded, s.loads_forwarded, s.stores_eliminated, s.fences_merged];
    for v in scalars.into_iter().chain(s.fences_merged_by_kind).chain([s.dce_removed]) {
        fnv_words(h, &[v as u64]);
    }
}

fn hash_alloc_stats(h: &mut u64, s: &AllocStats) {
    fnv_words(
        h,
        &[
            s.env_loads,
            s.env_stores,
            s.env_loads_eliminated,
            s.env_stores_eliminated,
            s.spills,
            s.reloads,
            s.pinned_regs,
        ],
    );
}

/// Folds what the pipeline makes of one already-optimized block into
/// `h`: its host bytes and allocation statistics on both backends under
/// both RMW styles.
fn hash_lowerings(h: &mut u64, block: &TcgBlock, what: &str) {
    let hosts: [&dyn HostBackend; 2] = [&ArmBackend, &TsoBackend];
    for host in hosts {
        for be in backends() {
            let out = host
                .lower_block_with_stats(block, be)
                .unwrap_or_else(|e| panic!("{what}: {} lowering failed: {e}", host.name()));
            fnv(h, &encode_all(&out.insns));
            hash_alloc_stats(h, &out.alloc);
        }
    }
}

/// Every image of the suite — the 16 kernels at a small scale, the
/// litmus programs, the fuzz reproducers — by name.
fn images() -> Vec<(String, GuestBinary)> {
    let mut images: Vec<(String, GuestBinary)> =
        kernels::all().iter().map(|w| (w.name.to_owned(), (w.build)(16, 2))).collect();
    for prog in [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb(), corpus::iriw()] {
        images.push((prog.name.clone(), compile_litmus(&prog, &[0, 0]).binary));
    }
    for (name, text) in REPRODUCERS {
        let spec = parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
        images.push((name.to_owned(), spec.lower().unwrap_or_else(|e| panic!("`{name}`: {e}"))));
    }
    images
}

/// FNV-1a hash of everything [`pipeline_hash`] folds: host bytes,
/// `OptStats` and `AllocStats` must not move.
const PIPELINE_HASH: u64 = 0x6234_2239_e668_45d1;

/// FNV-1a hash of the same sweep without `OptStats` — host bytes and
/// `AllocStats` only. How much IR reaches the optimizer may change;
/// what it lowers to may not.
const HOST_HASH: u64 = 0x0771_89e9_c6f3_68d9;

/// Hashes host bytes + `AllocStats` (+ `OptStats` when `opt_stats`)
/// over every tier-1 block of the kernel, litmus and fuzz corpora. The
/// sweep bounds are fixed (not `RISOTTO_VERIFY_SMOKE`-dependent) so one
/// constant serves the debug and the release gate.
fn pipeline_hash(opt_stats: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let fold_stats = |h: &mut u64, s: OptStats| {
        if opt_stats {
            hash_opt_stats(h, &s);
        }
    };
    for (name, bin) in &images() {
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(bin, cfg, 12) {
                fold_stats(&mut h, optimize_with(&mut block, policy, PassConfig::all()));
                hash_lowerings(&mut h, &block, name);
            }
        }
    }
    h
}

#[test]
fn pipeline_output_matches_the_checked_in_hash() {
    let got = pipeline_hash(true);
    assert_eq!(got, PIPELINE_HASH, "host bytes, OptStats or AllocStats changed (got {got:#018x})");
}

#[test]
fn host_output_matches_the_checked_in_hash() {
    let got = pipeline_hash(false);
    assert_eq!(got, HOST_HASH, "host bytes or AllocStats changed (got {got:#018x})");
}

/// One scratch of each kind the translate path threads through its
/// stages.
#[derive(Default)]
struct Scratches {
    opt: OptScratch,
    lower: LowerScratch,
    verify: VerifyScratch,
    encoding: EncodingScratch,
}

/// What one block comes to: optimized ops and exit, optimizer
/// statistics, and per backend and RMW style the host bytes and
/// allocation statistics.
type Translation = (TcgBlock, OptStats, Vec<(Vec<u8>, AllocStats)>);

/// Takes `block` through optimizer, Passes 1–2, both lowerings and
/// Pass 3 over `s`, as the engine's tier-1 producer and commit do.
fn translate_over(
    s: &mut Scratches,
    block: &TcgBlock,
    cfg: FrontendConfig,
    policy: OptPolicy,
) -> Translation {
    let mut optimized = block.clone();
    s.verify.capture_reference(block, cfg.fences, &[]);
    let stats = optimize_in(&mut optimized, policy, PassConfig::all(), &mut s.opt);
    lint_in(&optimized, &mut s.verify).expect("clean block lints");
    check_captured(&optimized, cfg.fences, policy, &[], &mut s.verify)
        .expect("clean block keeps its obligations");
    let mut lowered = Vec::new();
    let hosts: [&dyn HostBackend; 2] = [&ArmBackend, &TsoBackend];
    for host in hosts {
        for be in backends() {
            let out =
                host.lower_block_in(&optimized, be, &mut s.lower).expect("clean block lowers");
            let bytes = encode_all(&out.insns);
            host.check_encoding_in(&optimized, &out.insns, &bytes, be, &mut s.encoding)
                .expect("clean encoding verifies");
            lowered.push((bytes, out.alloc));
        }
    }
    (optimized, stats, lowered)
}

/// Drives every stage into an early error return over `s`: a block that
/// lowers a few ops and then reads a temp nothing defined (the lint and
/// both backends reject it half-way), a dropped fence (Pass 2), and a
/// flipped host byte (Pass 3).
fn fail_over(s: &mut Scratches, good: &TcgBlock, cfg: FrontendConfig, policy: OptPolicy) {
    let (t0, t1, undefined) = (Temp(0), Temp(1), Temp(9));
    let mut bad = TcgBlock {
        guest_pc: 0x1000,
        guest_len: 4,
        ops: vec![
            TcgOp::GetReg { dst: t0, reg: 1 },
            TcgOp::Bin { op: BinOp::Add, dst: t1, a: t0, b: t0 },
            TcgOp::SetReg { reg: 2, src: t1 },
            TcgOp::SetReg { reg: 3, src: undefined },
        ],
        exit: TbExit::JumpReg(t1),
        n_temps: 10,
    };
    optimize_in(&mut bad, policy, PassConfig::all(), &mut s.opt);
    lint_in(&bad, &mut s.verify).expect_err("use of an undefined temp");
    let be = backends()[0];
    ArmBackend.lower_block_in(&bad, be, &mut s.lower).expect_err("read of an undefined temp");
    TsoBackend.lower_block_in(&bad, be, &mut s.lower).expect_err("read of an undefined temp");

    let mut optimized = good.clone();
    optimize_in(&mut optimized, policy, PassConfig::all(), &mut s.opt);
    let out = ArmBackend.lower_block_in(&optimized, be, &mut s.lower).expect("lowers");
    let mut bytes = encode_all(&out.insns);
    bytes[0] ^= 0xff;
    ArmBackend
        .check_encoding_in(&optimized, &out.insns, &bytes, be, &mut s.encoding)
        .expect_err("a flipped byte");
    if let Some(at) = optimized.ops.iter().position(|o| matches!(o, TcgOp::Fence(_))) {
        optimized.ops.remove(at);
        check_obligations_in(good, &optimized, cfg.fences, policy, &[], &mut s.verify)
            .expect_err("a dropped fence");
    }
}

/// Reuse is invisible: a block translated over scratches that have seen
/// the whole corpus — in either order, with failed translations in
/// between — comes out exactly as it does over fresh ones.
#[test]
fn reused_scratch_matches_fresh_scratch() {
    let mut corpus: Vec<(TcgBlock, FrontendConfig, OptPolicy)> = Vec::new();
    for (_, bin) in &images() {
        for (cfg, policy) in configs() {
            corpus.extend(discover_blocks(bin, cfg, 12).into_iter().map(|b| (b, cfg, policy)));
        }
    }
    let fresh: Vec<Translation> = corpus
        .iter()
        .map(|(b, cfg, policy)| translate_over(&mut Scratches::default(), b, *cfg, *policy))
        .collect();

    let mut reused = Scratches::default();
    let forward = 0..corpus.len();
    for (n, i) in forward.clone().chain(forward.rev()).enumerate() {
        let (block, cfg, policy) = &corpus[i];
        if n % 7 == 3 {
            fail_over(&mut reused, block, *cfg, *policy);
        }
        let got = translate_over(&mut reused, block, *cfg, *policy);
        assert!(
            got == fresh[i],
            "block {i} at {:#x} (translation {n} over the reused scratch) differs from its \
             fresh-scratch translation",
            block.guest_pc
        );
    }
}
