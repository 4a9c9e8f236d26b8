//! `risotto-benchmark --workload <name> [--seed N] [--seconds S]
//! [--trace [0|1]] [--smoke] [--out FILE]` runs one workload and prints
//! every metric by name with its unit; the last line of standard output
//! is the result object. `risotto-benchmark compare <a> <b>` compares
//! two result files.

use std::io::Write as _;
use std::process::ExitCode;

use risotto_benchmark::compare::compare;
use risotto_benchmark::run::{run_workload, Options, Outcome};
use risotto_benchmark::workloads::Workload;

/// Where result lines and trace files go, relative to the directory the
/// benchmark is run from (the repo root).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: risotto-benchmark --workload <exec_steady|translate_cold|mixed_tiered|\
contended_sync> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]\n       \
risotto-benchmark compare <a> <b>";

fn parse(args: &[String]) -> Result<(Options, String), String> {
    let mut workload = None;
    let mut o = Options {
        workload: Workload::ExecSteady,
        seed: 1,
        seconds: 8.0,
        trace: false,
        smoke: false,
    };
    let mut out = format!("{OUT_DIR}/results.jsonl");
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("--seed `{v}`: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds `{v}`: not a duration"))?;
            }
            "--out" => out = value("--out")?,
            "--smoke" => o.smoke = true,
            // `--trace` alone switches the traced run on; the driver's
            // form is `--trace 0` / `--trace 1`.
            "--trace" => {
                o.trace = it.next_if(|v| matches!(v.as_str(), "0" | "1")).is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    if o.smoke {
        o.seconds = 0.0;
    }
    Ok((o, out))
}

fn report(o: &Options, outcome: &Outcome) {
    println!(
        "workload {}  seed {}  {}{}",
        outcome.workload,
        o.seed,
        if o.trace { "traced run: per-layer metrics" } else { "end-to-end metrics" },
        if o.smoke { "  (smoke sizes)" } else { "" }
    );
    for m in &outcome.metrics {
        println!("  {:<42} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let s = &outcome.guest_mips_samples;
    println!(
        "  guest_mips over {} timed passes: min {:.4}  max {:.4}  (per wall second, uncalibrated: {:.4})",
        s.len(),
        s.iter().copied().fold(f64::INFINITY, f64::min),
        s.iter().copied().fold(0.0, f64::max),
        outcome.guest_mips_wall
    );
    println!("  operations: {} attempted, {} failed", outcome.attempted, outcome.failed);
    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
}

fn persist(o: &Options, outcome: &Outcome, out: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(out)?;
    writeln!(f, "{}", outcome.ledger_json())?;
    if let Some(spans) = &outcome.spans {
        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/{}.trace.json", outcome.workload);
        std::fs::write(path, spans.to_json(outcome.workload, o.seed).to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(a, b) {
            Ok((text, regressed)) => {
                print!("{text}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("risotto-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (o, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("risotto-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&o) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("risotto-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&o, &outcome);
    if let Err(e) = persist(&o, &outcome, &out) {
        eprintln!("risotto-benchmark: writing results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
