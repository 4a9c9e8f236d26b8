//! Every Fig. 12 kernel must produce the same checksum under the
//! reference interpreter and under every emulator setup — each benchmark
//! run doubles as a whole-pipeline correctness check.

use risotto_core::{Emulator, Setup};
use risotto_guest_x86::Interp;
use risotto_host_arm::CostModel;
use risotto_workloads::kernels;

#[test]
fn all_kernels_agree_across_setups() {
    let threads = 2;
    for w in kernels::all() {
        let scale = if w.name == "matrixmultiply" { 8 } else { 64 };
        let bin = (w.build)(scale, threads);
        let mut interp = Interp::new(&bin);
        interp.run(200_000_000).unwrap_or_else(|e| panic!("{}: interp {e}", w.name));
        let expect = interp.exit_val(0);
        for setup in Setup::ALL {
            let mut emu = Emulator::new(&bin, setup, threads, CostModel::thunderx2_like());
            let r = emu
                .run(500_000_000)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, setup.name()));
            assert_eq!(
                r.exit_vals[0],
                Some(expect),
                "{} under {} disagrees with the interpreter",
                w.name,
                setup.name()
            );
        }
    }
}

#[test]
fn cas_bench_agrees_across_setups() {
    for (threads, vars) in [(1usize, 1usize), (4, 2), (4, 4)] {
        let bin = risotto_workloads::cas::cas_bench(100, threads, vars);
        for setup in Setup::ALL {
            let mut emu = Emulator::new(&bin, setup, threads, CostModel::thunderx2_like());
            let r = emu.run(500_000_000).unwrap();
            assert_eq!(
                r.exit_vals[0],
                Some(100 * threads as u64),
                "cas({threads},{vars}) under {}",
                setup.name()
            );
        }
    }
}

/// The simulator is fully deterministic: identical builds and setups give
/// bit-identical reports (the reproducibility claim of EXPERIMENTS.md).
#[test]
fn reports_are_bit_reproducible() {
    let w = &kernels::all()[5]; // freqmine
    let bin = (w.build)(128, 2);
    for setup in [Setup::Qemu, Setup::Risotto] {
        let mut a = Emulator::new(&bin, setup, 2, CostModel::thunderx2_like());
        let ra = a.run(100_000_000).unwrap();
        let mut b = Emulator::new(&bin, setup, 2, CostModel::thunderx2_like());
        let rb = b.run(100_000_000).unwrap();
        assert_eq!(ra.cycles, rb.cycles, "{}", setup.name());
        assert_eq!(ra.exit_vals, rb.exit_vals);
        assert_eq!(ra.tb_count, rb.tb_count);
        assert_eq!(a.metrics(), b.metrics(), "{}", setup.name());
    }
}

/// Rebuilding the same workload gives an identical binary (the builders
/// are deterministic, so benchmarks are comparable across processes).
#[test]
fn workload_builders_are_deterministic() {
    for w in kernels::all() {
        let a = (w.build)(32, 2);
        let b = (w.build)(32, 2);
        assert_eq!(a, b, "{}", w.name);
    }
}
