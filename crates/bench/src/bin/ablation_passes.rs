//! Ablation study: how much each optimizer pass contributes to the
//! `tcg-ver` setup's performance (the design choices DESIGN.md calls out —
//! notably the §6.1 fence-merging pass that the verified trailing/leading
//! fence placement makes possible).

use risotto_bench::{print_table, usage_error, BenchCli};
use risotto_core::Setup;
use risotto_tcg::PassConfig;
use risotto_workloads::kernels;

fn main() {
    let cli = BenchCli::parse("ablation_passes");
    cli.require_ir_pipeline("templates never run the optimizer passes being ablated")
        .unwrap_or_else(|e| usage_error("ablation_passes", &e));
    let threads = 2;
    let scale = if cli.smoke { 256 } else { 1024 };
    println!("Optimizer-pass ablation (tcg-ver, % slowdown when the pass is disabled)\n");
    let variants: [(&str, PassConfig); 5] = [
        ("all", PassConfig::all()),
        ("-merge_fences", PassConfig::all_except("merge_fences")),
        ("-forward_memory", PassConfig::all_except("forward_memory")),
        ("-constant_fold", PassConfig::all_except("constant_fold")),
        ("-dce", PassConfig::all_except("dce")),
    ];
    let mut rows = Vec::new();
    for w in kernels::all() {
        let s = if w.name == "matrixmultiply" { 16 } else { scale };
        let bin = (w.build)(s, threads);
        let mut cells = vec![w.name.to_string()];
        let mut base = 0u64;
        let mut expect = None;
        for (i, (_, passes)) in variants.iter().enumerate() {
            let mut emu = cli.emulator(&bin, Setup::TcgVer, threads);
            emu.set_passes(*passes);
            let r = emu.run(10_000_000_000).unwrap();
            match expect {
                None => expect = Some(r.exit_vals[0]),
                Some(e) => {
                    assert_eq!(r.exit_vals[0], e, "{}: ablation changed the result!", w.name)
                }
            }
            if i == 0 {
                base = r.cycles;
                cells.push(format!("{}", r.cycles));
            } else {
                cells.push(format!("+{:.1}%", 100.0 * (r.cycles as f64 / base as f64 - 1.0)));
            }
        }
        rows.push(cells);
    }
    print_table(&["benchmark", "all (cycles)", "-merge", "-forward", "-fold", "-dce"], &rows);
    println!("\nDisabling any pass must never change program results (asserted).");
}
