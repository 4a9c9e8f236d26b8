//! The workload builders and the simulator are deterministic: the same
//! build and setup give the same binary and a bit-identical report.
//! (Each kernel's agreement with the reference interpreter under every
//! setup is the functional oracle's, in the root `tests/theorem1`.)

use risotto_core::{Emulator, Setup};
use risotto_host_arm::CostModel;
use risotto_workloads::kernels;

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
