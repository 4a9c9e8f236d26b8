//! Ablation of the §6.3 CAS translation choices on the Fig. 15 workload:
//!
//! * `helper`  — QEMU's scheme: jump out to a runtime helper (Fig. 2),
//! * `rmw2+ff` — direct translation to `DMBFF; LDXR/STXR; DMBFF`
//!   (the Fig. 7b lowering that is correct under the *original* Arm model),
//! * `casal`   — Risotto's single-instruction translation (needs the
//!   corrected Arm model of §3.3).

use risotto_bench::{ops_per_sec, print_table, usage_error, BenchCli};
use risotto_core::{RmwStyle, Setup};
use risotto_workloads::cas::{cas_bench, FIG15_CONFIGS};

fn main() {
    let cli = BenchCli::parse("ablation_cas");
    // The rmw2+ff column is an exclusive-pair lowering; the MiniTSO
    // dialect has no exclusives, so this ablation is Arm-only.
    cli.require_arm("the ablation compares Arm CAS lowerings")
        .unwrap_or_else(|e| usage_error("ablation_cas", &e));
    println!("CAS-translation ablation (Mops/s; §6.3)\n");
    let iters = if cli.smoke { 200u64 } else { 2000u64 };
    let mut rows = Vec::new();
    for (threads, vars) in FIG15_CONFIGS {
        let bin = cas_bench(iters, threads, vars);
        let total = iters * threads as u64;
        // helper: the qemu setup (helper-call CAS).
        let helper = cli.run(&bin, Setup::Qemu, threads, false, None);
        // direct, rmw2-fenced.
        let mut emu = cli.emulator(&bin, Setup::Risotto, threads);
        emu.set_rmw_style(RmwStyle::Rmw2Fenced);
        let rmw2 = emu.run(20_000_000_000).unwrap();
        // direct, casal.
        let casal = cli.run(&bin, Setup::Risotto, threads, false, None);
        for r in [&helper, &rmw2, &casal] {
            assert_eq!(r.exit_vals[0], Some(total));
        }
        rows.push(vec![
            format!("{threads}-{vars}"),
            format!("{:.1}", ops_per_sec(total, helper.cycles) / 1e6),
            format!("{:.1}", ops_per_sec(total, rmw2.cycles) / 1e6),
            format!("{:.1}", ops_per_sec(total, casal.cycles) / 1e6),
        ]);
    }
    print_table(&["config", "helper", "rmw2+ff", "casal"], &rows);
    println!("\ncasal wins uncontended (no helper round-trip, no fence bracket);");
    println!("under contention all three converge on the line transfer cost.");
}
