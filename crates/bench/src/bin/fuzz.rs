//! Differential fuzzing driver: seeded random MiniX86 programs through
//! the interpreter and the five legs of `risotto_fuzz::FUZZ_LEGS`
//! (risotto/Arm/tier-1, the same with the optimizer off, on the tier-0→1
//! ladder, on MiniTSO and with analysis on), each run checked by the one
//! run check the functional matrix shares, the translation verifier
//! included (DESIGN.md §13, docs/FUZZING.md). Every eighth program
//! also runs under one fault plan (`risotto_fuzz::fault_plan`), the site
//! and the leg rotating, through the same check.
//!
//! ```sh
//! cargo run --release -p risotto-bench --bin fuzz -- \
//!     [--seed <n>] [--iters <n>] [--smoke] [--metrics-json <path>]
//! ```
//!
//! Every iteration is reproducible from the run seed alone; a single
//! iteration replays as `--seed <run_seed> --iters <i+1>` (the driver
//! derives per-iteration program seeds, it does not consume the RNG
//! stream incrementally). Any divergent program is delta-debugged to a
//! minimal reproducer: the `.risotto` corpus file and a ready-to-paste
//! regression test land under `fuzz-failures/`, and the process exits 1.

use risotto_bench::{print_table, BenchCli, MetricsEntry};
use risotto_core::obs::{MetricValue, MetricsSnapshot, SNAPSHOT_VERSION};
use risotto_core::FaultPlan;
use risotto_fuzz::{
    differential, diverges, fault_plan, generate, minimize, program_seed, regression_test_skeleton,
    run_checked, to_corpus_string, Fault, GenConfig, Leg, ProgSpec, Subject, FUZZ_LEGS, RISOTTO,
};

/// Default iteration counts: the full run satisfies the "≥10k seeded
/// iterations" acceptance bar; smoke is the CI gate.
const FULL_ITERS: u64 = 10_000;
const SMOKE_ITERS: u64 = 300;

/// Every Nth iteration also runs under a fault plan.
const FAULT_EVERY: u64 = 8;

/// Minimizer budget per divergent program.
const MINIMIZE_STEPS: u64 = 20_000;

/// Default run seed (arbitrary fixed constant — reruns are comparable).
const DEFAULT_SEED: u64 = 0xD1FF_F022_2026_0808;

fn main() {
    // The five legs fix backend, tier and analysis. Every setup ×
    // backend × tier × analysis leg runs on generated programs in the
    // functional matrix (`tests/theorem1/functional.rs`).
    let cli = BenchCli::parse("fuzz", &["--smoke", "--metrics-json", "--seed", "--iters"]);
    let seed = cli.u64_value("--seed", DEFAULT_SEED).unwrap_or_else(die);
    let default_iters = if cli.smoke { SMOKE_ITERS } else { FULL_ITERS };
    let iters = cli.u64_value("--iters", default_iters).unwrap_or_else(die);
    let cfg = GenConfig::default();

    println!("Differential fuzz: seed {seed:#x}, {iters} iterations\n");

    let mut divergent: Vec<(u64, risotto_fuzz::ProgSpec, Vec<String>)> = Vec::new();
    let (mut fault_completed, mut fault_degraded) = (0u64, 0u64);
    let mut multicore = 0u64;
    // The driver's own counters (docs/FUZZING.md § Metrics), with `iters`.
    let (mut configs_run, mut divergences, mut fault_runs, mut minimizer_steps) = (0u64, 0, 0, 0);

    for i in 0..iters {
        let pseed = program_seed(seed, i);
        let spec = generate(&cfg, pseed);
        if !spec.threads.is_empty() {
            multicore += 1;
        }
        let result = differential(&spec);
        configs_run += result.configs_run;
        if !result.divergences.is_empty() {
            divergences += 1;
            let msgs = result.divergences.iter().map(|d| d.to_string()).collect();
            divergent.push((pseed, spec.clone(), msgs));
        }

        if i % FAULT_EVERY == 0 {
            fault_runs += 1;
            let k = (i / FAULT_EVERY) as usize;
            let (fault, leg) = (Fault::ALL[k % Fault::ALL.len()], FUZZ_LEGS[k % FUZZ_LEGS.len()]);
            match fault_run(&spec, fault, leg, pseed) {
                Ok(true) => fault_completed += 1,
                Ok(false) => fault_degraded += 1,
                Err(bad) => {
                    divergences += 1;
                    let what = format!("[{leg:?}, {fault:?} plan] {}", bad.join("; "));
                    divergent.push((pseed, spec, vec![what]));
                }
            }
        }

        if (i + 1) % 1000 == 0 {
            println!("  {}/{iters} programs, {} divergent", i + 1, divergent.len());
        }
    }

    print_table(
        &["programs", "multicore", "fault runs", "fault degraded", "divergent"],
        &[vec![
            iters.to_string(),
            multicore.to_string(),
            (fault_completed + fault_degraded).to_string(),
            fault_degraded.to_string(),
            divergent.len().to_string(),
        ]],
    );

    // Delta-debug every divergent program to a minimal reproducer and
    // write the corpus file + regression-test skeleton.
    for (pseed, spec, msgs) in &divergent {
        println!("\n!! seed {pseed:#x} diverged:");
        for m in msgs {
            println!("   {m}");
        }
        let min = minimize(spec, &diverges, MINIMIZE_STEPS);
        minimizer_steps += min.steps;
        let name = format!("divergent_{pseed:016x}");
        let dir = std::path::Path::new("fuzz-failures");
        std::fs::create_dir_all(dir).expect("create fuzz-failures/");
        let corpus_path = dir.join(format!("{name}.risotto"));
        std::fs::write(&corpus_path, to_corpus_string(&min.spec))
            .unwrap_or_else(|e| panic!("writing {}: {e}", corpus_path.display()));
        let test_path = dir.join(format!("{name}.rs"));
        std::fs::write(&test_path, regression_test_skeleton(&min.spec, &name))
            .unwrap_or_else(|e| panic!("writing {}: {e}", test_path.display()));
        println!(
            "   minimized in {} steps ({} reductions) -> {}",
            min.steps,
            min.accepted,
            corpus_path.display()
        );
        println!("   regression test skeleton -> {}", test_path.display());
    }

    if let Some(path) = &cli.metrics_json {
        // The standard artifact, holding the driver's five counters: no
        // emulator ran under this name, so no engine metric belongs here.
        let metrics = [
            ("fuzz.programs", iters),
            ("fuzz.configs_run", configs_run),
            ("fuzz.divergences", divergences),
            ("fuzz.minimizer_steps", minimizer_steps),
            ("fuzz.fault_runs", fault_runs),
        ]
        .into_iter()
        .map(|(name, total)| (name.to_owned(), MetricValue::Counter(total)))
        .collect();
        let snapshot = MetricsSnapshot { version: SNAPSHOT_VERSION, metrics };
        let entries = [MetricsEntry { name: "fuzz".to_string(), setup: "differential", snapshot }];
        risotto_bench::write_metrics_json(path, "fuzz", &entries);
    }

    println!();
    if divergent.is_empty() {
        println!("zero divergences: every leg agreed with the interpreter on every program.");
    } else {
        println!("!! {} divergent program(s); reproducers in fuzz-failures/", divergent.len());
        std::process::exit(1);
    }
}

/// Runs `spec` under `leg` and `fault`'s plan seeded with `seed`
/// through the one run check, against its fault-free risotto run.
/// `Ok(false)`: the run ended in its plan's injected syscall error.
fn fault_run(spec: &ProgSpec, fault: Fault, leg: Leg, seed: u64) -> Result<bool, Vec<String>> {
    let p = Subject::of_spec(spec).map_err(|e| vec![e])?;
    let reference = run_checked(&p, RISOTTO, &FaultPlan::default(), None)?;
    let plan = fault_plan(fault, seed, &p.bin);
    Ok(run_checked(&p, leg, &plan, reference.as_ref())?.is_some())
}

fn die(msg: String) -> u64 {
    eprintln!("fuzz: {msg}");
    std::process::exit(2);
}
