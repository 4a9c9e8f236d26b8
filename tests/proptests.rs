//! Property-based tests across the workspace, driven by a small
//! self-contained seeded PRNG (no external crates, so the suite runs in
//! offline build environments).
//!
//! * codecs: MiniX86 and MiniArm encode/decode round-trips,
//! * optimizer: every pass pipeline preserves block semantics on random
//!   straight-line TCG blocks,
//! * relation algebra: closure/composition laws,
//! * fence lattice: join is an upper bound, `arm_dmb` is monotone,
//! * backend: register pressure spills and reloads deterministically and
//!   the lowered code passes the encoding verifier.
//!
//! Generated guest programs against the interpreter under every leg are
//! the functional matrix's (`tests/theorem1/functional.rs`); generated
//! litmus programs under every mapping scheme are the verdict table's
//! (`risotto_mappings::check`).

use risotto::guest::{AluOp, Cond, Gpr, Insn, Operand};
use risotto::host::{HostInsn, Xreg};
use risotto::memmodel::{EventId, FenceKind, Relation};
use risotto::tcg::{
    env, eval_block, optimize, optimize_with, BinOp, CondOp, OptPolicy, PassConfig, TbExit,
    TcgBlock, TcgOp,
};

// ---------------------------------------------------------------------
// Deterministic generator: the workspace-shared SplitMix64 stream (the
// same one behind FaultPlan and the fuzzer), wrapped with the width
// helpers these properties want.
// ---------------------------------------------------------------------

struct Rng(risotto::core::SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(risotto::core::SplitMix64::new(seed))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn usize_below(&mut self, n: usize) -> usize {
        self.0.usize_below(n)
    }

    fn u8_below(&mut self, n: u8) -> u8 {
        self.0.below(u64::from(n)) as u8
    }

    fn i32(&mut self) -> i32 {
        self.u64() as i32
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.usize_below(max_len + 1);
        (0..len).map(|_| self.u64() as u8).collect()
    }
}

/// Runs `cases` seeded iterations of a property body, reporting the seed
/// on failure so a case can be replayed in isolation.
fn check(name: &str, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = 0x5eed_0000 ^ case;
        let mut rng = Rng::new(seed);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = res {
            eprintln!("property `{name}` failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

// ---------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------

fn arb_gpr(rng: &mut Rng) -> Gpr {
    Gpr(rng.u8_below(16))
}

fn arb_operand(rng: &mut Rng) -> Operand {
    if rng.below(2) == 0 {
        Operand::Reg(arb_gpr(rng))
    } else {
        Operand::Imm(rng.u64())
    }
}

fn arb_cond(rng: &mut Rng) -> Cond {
    Cond::from_u8(rng.u8_below(12)).expect("condition codes 0..12 are valid")
}

const ALU_OPS: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::Mul,
];

fn arb_guest_insn(rng: &mut Rng) -> Insn {
    match rng.below(15) {
        0 => Insn::MovRI { dst: arb_gpr(rng), imm: rng.u64() },
        1 => Insn::MovRR { dst: arb_gpr(rng), src: arb_gpr(rng) },
        2 => Insn::Load { dst: arb_gpr(rng), base: arb_gpr(rng), disp: rng.i32() },
        3 => Insn::Store { base: arb_gpr(rng), disp: rng.i32(), src: arb_gpr(rng) },
        4 => Insn::LoadB { dst: arb_gpr(rng), base: arb_gpr(rng), disp: rng.i32() },
        5 => Insn::StoreB { base: arb_gpr(rng), disp: rng.i32(), src: arb_gpr(rng) },
        6 => Insn::Alu {
            op: ALU_OPS[rng.usize_below(ALU_OPS.len())],
            dst: arb_gpr(rng),
            src: arb_operand(rng),
        },
        7 => Insn::Cmp { a: arb_gpr(rng), b: arb_operand(rng) },
        8 => Insn::Jcc { cond: arb_cond(rng), rel: rng.i32() },
        9 => Insn::MulWide { src: arb_gpr(rng) },
        10 => Insn::LockCmpxchg { base: arb_gpr(rng), disp: rng.i32(), src: arb_gpr(rng) },
        11 => Insn::Mfence,
        12 => Insn::Ret,
        13 => Insn::Hlt,
        _ => Insn::Syscall,
    }
}

#[test]
fn guest_insn_roundtrips() {
    check("guest_insn_roundtrips", 512, |rng| {
        let insn = arb_guest_insn(rng);
        let mut buf = Vec::new();
        let n = insn.encode(&mut buf);
        let (decoded, len) = Insn::decode(&buf).expect("round-trip decode");
        assert_eq!(decoded, insn);
        assert_eq!(len, n);
    });
}

#[test]
fn guest_decode_never_panics() {
    check("guest_decode_never_panics", 2048, |rng| {
        let bytes = rng.bytes(24);
        let _ = Insn::decode(&bytes); // must not panic, errors are fine
    });
}

#[test]
fn host_insn_roundtrips() {
    use risotto::host::{ACond, AOp, Dmb, MemOrder};
    check("host_insn_roundtrips", 256, |rng| {
        let op = rng.u8_below(12);
        let r1 = rng.u8_below(32);
        let r2 = rng.u8_below(32);
        let imm = rng.u64();
        let rel = rng.i32();
        let insns = vec![
            HostInsn::MovImm { dst: Xreg(r1), imm },
            HostInsn::Ldr { dst: Xreg(r1), base: Xreg(r2), off: rel, order: MemOrder::Plain },
            HostInsn::Str { src: Xreg(r1), base: Xreg(r2), off: rel, order: MemOrder::AcqRel },
            HostInsn::LdrB { dst: Xreg(r1), base: Xreg(r2), off: rel },
            HostInsn::Cas {
                cmp_old: Xreg(r1),
                new: Xreg(r2),
                addr: Xreg(r1),
                acq_rel: op % 2 == 0,
            },
            HostInsn::Barrier(match op % 3 {
                0 => Dmb::Ld,
                1 => Dmb::St,
                _ => Dmb::Ff,
            }),
            HostInsn::BCond { cond: if op % 2 == 0 { ACond::Eq } else { ACond::Hi }, rel },
            HostInsn::AluImm { op: AOp::Eor, dst: Xreg(r1), a: Xreg(r2), imm },
        ];
        for insn in insns {
            let mut buf = Vec::new();
            let n = insn.encode(&mut buf);
            let (decoded, len) = HostInsn::decode(&buf).expect("round-trip decode");
            assert_eq!(decoded, insn);
            assert_eq!(len, n);
        }
    });
}

#[test]
fn host_decode_never_panics() {
    check("host_decode_never_panics", 2048, |rng| {
        let bytes = rng.bytes(24);
        let _ = HostInsn::decode(&bytes);
    });
}

// ---------------------------------------------------------------------
// Relation algebra.
// ---------------------------------------------------------------------

fn arb_relation(rng: &mut Rng, n: usize) -> Relation {
    let pairs = rng.usize_below(20);
    Relation::from_pairs(
        n,
        (0..pairs).map(|_| (EventId(rng.usize_below(n)), EventId(rng.usize_below(n)))),
    )
}

#[test]
fn closure_laws() {
    check("closure_laws", 256, |rng| {
        let r = arb_relation(rng, 8);
        let s = arb_relation(rng, 8);
        let tc = r.transitive_closure();
        // Idempotent, monotone, contains the base.
        assert_eq!(tc.transitive_closure(), tc.clone());
        for (a, b) in r.iter_pairs() {
            assert!(tc.contains(a, b));
        }
        // Composition distributes over union on the left.
        let lhs = r.union(&s).compose(&r);
        let rhs = r.compose(&r).union(&s.compose(&r));
        assert_eq!(lhs, rhs);
        // Inverse is involutive.
        assert_eq!(r.inverse().inverse(), r.clone());
        // acyclic(r) ⇔ irreflexive(r⁺).
        assert_eq!(r.is_acyclic(), tc.is_irreflexive());
    });
}

// ---------------------------------------------------------------------
// Fence lattice.
// ---------------------------------------------------------------------

#[test]
fn fence_join_is_upper_bound() {
    // The lattice is small: check every pair exhaustively.
    for a in FenceKind::TCG_ALL {
        for b in FenceKind::TCG_ALL {
            let j = a.tcg_join(b);
            assert!(j.tcg_at_least(a), "{j:?} not ≥ {a:?}");
            assert!(j.tcg_at_least(b), "{j:?} not ≥ {b:?}");
            // arm_dmb is monotone: the join's lowering orders at least as much.
            let rank = |f: Option<FenceKind>| match f {
                None => 0,
                Some(FenceKind::DmbLd) | Some(FenceKind::DmbSt) => 1,
                _ => 2,
            };
            assert!(rank(j.arm_dmb()) >= rank(a.arm_dmb()).min(rank(b.arm_dmb())));
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer semantic preservation on random blocks.
// ---------------------------------------------------------------------

/// Generates a random straight-line SSA block over a handful of env regs
/// and memory addresses in a private scratch range.
fn arb_tcg_block(rng: &mut Rng) -> TcgBlock {
    let mut block = TcgBlock {
        guest_pc: 0x1000,
        guest_len: 0,
        ops: Vec::new(),
        exit: TbExit::Halt,
        n_temps: 0,
    };
    let scratch = 0x9000u64;
    let steps = 1 + rng.usize_below(23);
    for _ in 0..steps {
        let kind = rng.u8_below(7);
        let x = rng.u8_below(6);
        let y = rng.u64();
        match kind {
            0 => {
                let t = block.new_temp();
                block.ops.push(TcgOp::MovI { dst: t, val: u64::from(y as u16) });
                block.ops.push(TcgOp::SetReg { reg: x % 6, src: t });
            }
            1 | 2 => {
                let a = block.new_temp();
                let b = block.new_temp();
                let d = block.new_temp();
                block.ops.push(TcgOp::GetReg { dst: a, reg: x % 6 });
                block.ops.push(TcgOp::GetReg { dst: b, reg: (y % 6) as u8 });
                let op = if kind == 1 { BinOp::Add } else { BinOp::Mul };
                block.ops.push(TcgOp::Bin { op, dst: d, a, b });
                block.ops.push(TcgOp::SetReg { reg: x % 6, src: d });
            }
            3 => {
                let a = block.new_temp();
                let v = block.new_temp();
                block.ops.push(TcgOp::MovI { dst: a, val: scratch + (y % 4) * 8 });
                block.ops.push(TcgOp::GetReg { dst: v, reg: x % 6 });
                block.ops.push(TcgOp::St { addr: a, src: v });
            }
            4 => {
                let a = block.new_temp();
                let v = block.new_temp();
                block.ops.push(TcgOp::MovI { dst: a, val: scratch + (y % 4) * 8 });
                block.ops.push(TcgOp::Ld { dst: v, addr: a });
                block.ops.push(TcgOp::SetReg { reg: x % 6, src: v });
            }
            5 => {
                let f = match x % 3 {
                    0 => FenceKind::Frm,
                    1 => FenceKind::Fww,
                    _ => FenceKind::Fsc,
                };
                block.ops.push(TcgOp::Fence(f));
            }
            _ => {
                let a = block.new_temp();
                let b = block.new_temp();
                let d = block.new_temp();
                block.ops.push(TcgOp::GetReg { dst: a, reg: x % 6 });
                block.ops.push(TcgOp::GetReg { dst: b, reg: (y % 6) as u8 });
                block.ops.push(TcgOp::Setcond { cond: CondOp::LtU, dst: d, a, b });
                block.ops.push(TcgOp::SetReg { reg: x % 6, src: d });
            }
        }
    }
    block
}

#[test]
fn optimizer_preserves_block_semantics() {
    check("optimizer_preserves_block_semantics", 64, |rng| {
        let block = arb_tcg_block(rng);
        let seed = rng.u64();
        let mut optimized = block.clone();
        optimize(&mut optimized, OptPolicy::Verified);
        // Evaluate both against the same initial env/memory.
        let mut env1 = [0u64; env::COUNT];
        for (i, slot) in env1.iter_mut().enumerate() {
            *slot = seed.wrapping_mul(i as u64 + 1) % 97;
        }
        let mut env2 = env1;
        let mut m1 = risotto::guest::SparseMem::new();
        m1.write_u64(0x9000, seed % 1000);
        m1.write_u64(0x9008, seed % 7);
        let mut m2 = m1.clone();
        let e1 = eval_block(&block, &mut env1, &mut m1);
        let e2 = eval_block(&optimized, &mut env2, &mut m2);
        assert_eq!(e1, e2);
        assert_eq!(env1, env2);
        for slot in 0..4u64 {
            assert_eq!(
                m1.read_u64(0x9000 + slot * 8),
                m2.read_u64(0x9000 + slot * 8),
                "memory slot {slot} diverged"
            );
        }
    });
}

/// The optimizer never *adds* fences and never weakens one.
#[test]
fn optimizer_never_strengthens_fence_count() {
    check("optimizer_never_strengthens_fence_count", 128, |rng| {
        let block = arb_tcg_block(rng);
        let before = block.count_ops(|o| matches!(o, TcgOp::Fence(_)));
        let mut optimized = block.clone();
        optimize(&mut optimized, OptPolicy::Verified);
        let after = optimized.count_ops(|o| matches!(o, TcgOp::Fence(_)));
        assert!(after <= before);
    });
}

/// The optimizer's fold + DCE clean-up round runs only after a forward:
/// without one, folding or eliminating dead code once more over its
/// output finds nothing.
#[test]
fn cleanup_round_finds_nothing_without_a_forward() {
    let only = |constant_fold, dce| PassConfig { constant_fold, dce, ..PassConfig::none() };
    check("cleanup_round_finds_nothing_without_a_forward", 256, |rng| {
        let mut block = arb_tcg_block(rng);
        let stats = optimize(&mut block, OptPolicy::Verified);
        if stats.loads_forwarded + stats.stores_eliminated > 0 {
            return;
        }
        let before = block.clone();
        let folded = optimize_with(&mut block, OptPolicy::Verified, only(true, false)).folded;
        let removed = optimize_with(&mut block, OptPolicy::Verified, only(false, true)).dce_removed;
        assert_eq!((folded, removed), (0, 0));
        assert_eq!(block, before);
    });
}

// ---------------------------------------------------------------------
// Backend register pressure: spill/reload and env write-back paths.
// ---------------------------------------------------------------------

/// Drives the backend allocator past its 18-register pool: more than 18
/// simultaneously-live values (temps plus pinned/dirty guest registers),
/// a mid-block helper call (an env flush point), and a fold that keeps
/// every temp live to its distant use. Checks that the spill/reload and
/// deferred write-back machinery engages, that lowering is
/// bit-deterministic, and that the encoding verifier (including its env
/// write-back coverage check before the exit) accepts the result under
/// both RMW styles.
#[test]
fn register_pressure_spills_deterministically_and_verifies() {
    use risotto::host::{ArmBackend, BackendConfig, HostBackend, RmwStyle};
    use risotto::tcg::Helper;

    check("register_pressure_spills_deterministically_and_verifies", 48, |rng| {
        let mut block = TcgBlock {
            guest_pc: 0x4000,
            guest_len: 8,
            ops: Vec::new(),
            exit: TbExit::Halt,
            n_temps: 0,
        };
        // More register-resident values than the 18-register pool can
        // hold. Each pressure temp is *computed* (MovI alone records a
        // rematerializable constant and never spills; GetReg results
        // alias their pinned env value), so every one claims and holds
        // a register until the distant fold below.
        let n_live = 20 + rng.usize_below(6);
        let seed = block.new_temp();
        block.ops.push(TcgOp::MovI { dst: seed, val: rng.u64() >> 32 });
        let mut temps = Vec::with_capacity(n_live + 4);
        let mut prev = seed;
        for _ in 0..n_live {
            let t = block.new_temp();
            block.ops.push(TcgOp::Bin { op: BinOp::Add, dst: t, a: prev, b: seed });
            temps.push(t);
            prev = t;
        }
        // Pin a few guest registers into the value set too.
        for _ in 0..(2 + rng.usize_below(3)) {
            let t = block.new_temp();
            block.ops.push(TcgOp::GetReg { dst: t, reg: rng.u8_below(16) });
            temps.push(t);
        }
        // Dirty a few guest registers so the flush point owes write-backs.
        for _ in 0..(1 + rng.usize_below(4)) {
            let src = temps[rng.usize_below(temps.len())];
            block.ops.push(TcgOp::SetReg { reg: rng.u8_below(16), src });
        }
        // Mid-block helper call: the runtime it models must see a
        // coherent env.
        let args = vec![temps[0], temps[1]];
        block.ops.push(TcgOp::CallHelper { helper: Helper::FpAdd, args, ret: None });
        // Fold every temp into an accumulator — each one stays live
        // until this distant use, forcing spill/reload traffic.
        let mut acc = temps[0];
        for &t in &temps[1..] {
            let next = block.new_temp();
            block.ops.push(TcgOp::Bin { op: BinOp::Add, dst: next, a: acc, b: t });
            acc = next;
        }
        block.ops.push(TcgOp::SetReg { reg: 0, src: acc });
        block.exit = if rng.below(2) == 0 {
            TbExit::Jump(0x5000)
        } else {
            TbExit::CondJump { flag: acc, taken: 0x5000, fallthrough: 0x5008 }
        };

        for rmw in [RmwStyle::Casal, RmwStyle::Rmw2Fenced] {
            let be = BackendConfig::dbt(rmw);
            let a = ArmBackend.lower_block_with_stats(&block, be).expect("pressure block lowers");
            let b =
                ArmBackend.lower_block_with_stats(&block, be).expect("pressure block lowers again");
            assert_eq!(a.insns, b.insns, "nondeterministic lowering under pressure");
            assert_eq!(a.alloc, b.alloc, "nondeterministic allocation stats");
            assert!(a.alloc.spills > 0, "pressure block must spill");
            assert!(a.alloc.reloads > 0, "pressure block must reload");
            assert!(a.alloc.env_stores > 0, "dirty guest registers must write back");
            let mut bytes = Vec::new();
            for i in &a.insns {
                i.encode(&mut bytes);
            }
            ArmBackend
                .check_encoding(&block, &a.insns, &bytes, be)
                .expect("pressure block passes the encoding verifier");
        }
    });
}
