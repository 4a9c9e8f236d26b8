//! Fault-injection sweep over the Fig. 12 workloads: seeded fault plans
//! hammer every pipeline layer while the run is checked against the
//! fault-free reference interpreter (DESIGN.md §11).
//!
//! ```sh
//! cargo run --release -p risotto-bench --bin fault_sweep -- \
//!     [seeds] [--metrics-json <path>]
//! ```
//!
//! With `--metrics-json`, each workload additionally runs once under the
//! risotto setup with a fault plan covering every site, and the metrics
//! snapshot + hot-TB profile of that faulted-but-recovered run (nonzero
//! `translate.fallback_blocks` / `fault.injected`) land in the artifact.

use risotto_bench::{print_table, BenchCli, MetricsEntry};
use risotto_core::{FaultPlan, FaultSite, Setup};
use risotto_guest_x86::Interp;
use risotto_workloads::kernels;

const FUEL: u64 = 2_000_000_000;

fn plan_for(seed: u64) -> FaultPlan {
    let mut p = FaultPlan::seeded(seed);
    match seed % 4 {
        0 => p = p.rate(FaultSite::Translate, 2000),
        1 => p = p.rate(FaultSite::Lower, 2000),
        2 => p = p.rate(FaultSite::TbCache, 4000),
        _ => {
            p = p
                .rate(FaultSite::Translate, 900)
                .rate(FaultSite::Lower, 900)
                .rate(FaultSite::TbCache, 2000);
        }
    }
    if seed % 10 == 9 {
        p = p.fail_syscall_at(seed % 7);
    }
    p
}

fn main() {
    let cli = BenchCli::parse("fault_sweep");
    let seeds: u64 = cli.positional.first().and_then(|a| a.parse().ok()).unwrap_or(200);
    let metrics_path = &cli.metrics_json;
    let mut metrics: Vec<MetricsEntry> = Vec::new();
    let setups = [Setup::Qemu, Setup::TcgVer, Setup::Risotto, Setup::Native];
    println!("Fault sweep: {seeds} seeded plans per workload, rotating setups\n");
    let mut rows = Vec::new();
    let mut divergences = 0u64;
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        let mut interp = Interp::new(&bin);
        interp.run(FUEL).expect("reference interpreter");
        let (ref_exit, ref_out) = (interp.exit_val(0), interp.output.clone());

        let (mut ok, mut errs, mut fallbacks, mut retrans) = (0u64, 0u64, 0usize, 0usize);
        let (mut links, mut flushes) = (0u64, 0u64);
        for seed in 0..seeds {
            let setup = setups[(seed % setups.len() as u64) as usize];
            let mut emu = cli.emulator(&bin, setup, 2);
            emu.set_fault_plan(plan_for(seed));
            match emu.run(FUEL) {
                Ok(r) => {
                    if r.exit_vals[0] != Some(ref_exit) || r.output != ref_out {
                        divergences += 1;
                    }
                    ok += 1;
                    fallbacks += r.fallback_blocks;
                    retrans += r.retranslations;
                    links += r.chain.chain_links;
                    flushes += r.chain.chain_flushes;
                }
                Err(_) => errs += 1,
            }
        }
        if metrics_path.is_some() {
            // One extra instrumented risotto run under an aggressive
            // all-sites plan (~12% per decision — the sweep's background
            // rates rarely fire on these small blocks), so the artifact
            // shows the recovery counters moving.
            let plan = FaultPlan::seeded(3)
                .rate(FaultSite::Translate, 8000)
                .rate(FaultSite::Lower, 8000)
                .rate(FaultSite::TbCache, 8000);
            let mut emu = cli.emulator(&bin, Setup::Risotto, 2);
            emu.set_fault_plan(plan);
            emu.set_stage_timing(true);
            emu.set_profiling(true);
            let r = emu.run(FUEL).expect("instrumented risotto run completes");
            assert_eq!(r.exit_vals[0], Some(ref_exit), "{} instrumented run diverged", w.name);
            metrics.push(MetricsEntry::of(w.name, &mut emu));
        }
        rows.push(vec![
            w.name.to_string(),
            ok.to_string(),
            errs.to_string(),
            fallbacks.to_string(),
            retrans.to_string(),
            links.to_string(),
            flushes.to_string(),
        ]);
    }
    print_table(
        &[
            "workload",
            "completed",
            "typed errors",
            "fallback TBs",
            "retranslations",
            "chain links",
            "chain flushes",
        ],
        &rows,
    );
    if let Some(path) = metrics_path {
        risotto_bench::write_metrics_json(path, "fault_sweep", &metrics);
    }
    println!();
    if divergences == 0 {
        println!("zero silent divergences: every completed run matched the reference.");
    } else {
        println!("!! {divergences} run(s) diverged from the fault-free reference");
        std::process::exit(1);
    }
}
