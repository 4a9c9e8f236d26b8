//! Regenerates Figure 15: compare-and-swap throughput across contention
//! levels — QEMU's helper-call CAS vs Risotto's direct casal translation
//! (§6.3) vs native execution. `--smoke` shrinks the per-thread CAS
//! count to a CI-sized configuration.

use risotto_bench::{chain_hit_ratio, ops_per_sec, print_table, BenchCli};
use risotto_core::Setup;
use risotto_workloads::cas::{cas_bench, FIG15_CONFIGS};

fn main() {
    println!("Figure 15 — CAS throughput (Mops/s) by (threads-vars) configuration\n");
    let cli = BenchCli::parse("fig15_cas", &["--smoke", "--metrics-json"]);
    let mut metrics = Vec::new();
    let iters = if cli.smoke { 200u64 } else { 2000u64 };
    let mut rows = Vec::new();
    for (threads, vars) in FIG15_CONFIGS {
        let bin = cas_bench(iters, threads, vars);
        let total_ops = iters * threads as u64;
        let mut cells = vec![format!("{threads}-{vars}")];
        let name = format!("cas-{threads}-{vars}");
        let mut chain = String::new();
        for setup in [Setup::Qemu, Setup::Risotto, Setup::Native] {
            let collect = (setup == Setup::Risotto).then_some((name.as_str(), &mut metrics));
            let (r, snap) = cli.run(&bin, setup, threads, false, collect);
            assert_eq!(r.exit_vals[0], Some(total_ops), "{setup:?} lost CAS increments");
            cells.push(format!("{:.1}", ops_per_sec(total_ops, r.cycles) / 1e6));
            if setup == Setup::Risotto {
                chain = format!("{:.1}%", 100.0 * chain_hit_ratio(&snap));
            }
        }
        cells.push(chain);
        // risotto-vs-qemu gain for the summary.
        rows.push(cells);
    }
    print_table(&["config", "qemu", "risotto", "native", "ris chain"], &rows);
    println!("\n(expected shape: risotto > qemu when threads == vars — no contention —");
    println!(" and parity under contention, where the casal itself dominates; §7.4)");
    if let Some(path) = &cli.metrics_json {
        risotto_bench::write_metrics_json(path, "fig15_cas", &metrics);
    }
}
