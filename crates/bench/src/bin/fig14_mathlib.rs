//! Regenerates Figure 14: math-library function throughput — speedup of
//! risotto (host-linked libm) and native execution over QEMU (translated
//! guest polynomial kernels). The marshaling overhead of §6.2 is why
//! risotto trails native here. `--smoke` shrinks the iteration count to
//! a CI-sized configuration.

use risotto_bench::{chain_hit_ratio, ops_per_sec, print_table, speedup, BenchCli};
use risotto_core::Setup;
use risotto_nativelib::mathfn::MathFn;
use risotto_workloads::libbench::math_bench;

fn main() {
    println!("Figure 14 — math library speedup over QEMU (higher is better)\n");
    let cli = BenchCli::parse("fig14_mathlib", &["--smoke", "--metrics-json"]);
    let mut metrics = Vec::new();
    let iters = if cli.smoke { 8 } else { 60 };
    let mut rows = Vec::new();
    for f in MathFn::ALL {
        let x = match f {
            MathFn::Log => 1.5,
            MathFn::Exp => 1.2,
            MathFn::Asin | MathFn::Acos | MathFn::Atan => 0.4,
            _ => 0.8,
        };
        let bin = math_bench(f.name(), x, iters);
        let (qemu, _) = cli.run(&bin, Setup::Qemu, 1, false, None);
        let (ris, ris_snap) =
            cli.run(&bin, Setup::Risotto, 1, true, Some((f.name(), &mut metrics)));
        let (nat, _) = cli.run(&bin, Setup::Native, 1, true, None);
        rows.push(vec![
            f.name().to_string(),
            speedup(qemu.cycles, ris.cycles),
            speedup(qemu.cycles, nat.cycles),
            format!("{:.1} ops/ms", ops_per_sec(iters, qemu.cycles) / 1000.0),
            format!("{:.1}%", 100.0 * chain_hit_ratio(&ris_snap)),
        ]);
    }
    print_table(&["function", "risotto", "native", "qemu raw", "ris chain"], &rows);
    if let Some(path) = &cli.metrics_json {
        risotto_bench::write_metrics_json(path, "fig14_mathlib", &metrics);
    }
}
