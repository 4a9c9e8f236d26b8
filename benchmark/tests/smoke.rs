//! Runs every workload at smoke size, both untraced and traced, and
//! checks what the benchmark promises: names, agreement with
//! `BENCHMARK.json`, an oracle that can fail, self-checks that can
//! fire, and a `compare` that agrees with itself.

use risotto_benchmark::calibrate::Calibrator;
use risotto_benchmark::compare::compare;
use risotto_benchmark::json::Json;
use risotto_benchmark::oracle;
use risotto_benchmark::pass::{check_deterministic, run_pass};
use risotto_benchmark::run::{run_workload, Options, Outcome, END_TO_END, PER_LAYER};
use risotto_benchmark::workloads::{self, Workload};

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let o = Options { workload, seed: 1, seconds: 0.0, trace, smoke: true };
    run_workload(&o).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// The `name` of every entry of the array `key` of `BENCHMARK.json`.
fn declared<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no `{key}`")).iter().collect()
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("entry without `{key}`"))
}

#[test]
fn smoke_prints_exactly_the_metrics_benchmark_json_declares() {
    let doc = benchmark_json();
    let workloads: Vec<&str> =
        declared(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    for w in Workload::ALL {
        assert!(well_formed(w.name()));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = smoke(w, trace);
            assert_eq!(outcome.failed, 0, "{}: {:?}", w.name(), outcome.failures);
            assert!(outcome.attempted >= 1);
            let printed: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let wanted: Vec<(&str, &str)> =
                declared(&doc, key).iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
            assert_eq!(printed, wanted, "{} --trace {trace}", w.name());
            for m in &outcome.metrics {
                assert!(well_formed(m.name), "metric name `{}`", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                assert!(trace || m.value > 0.0, "end-to-end {} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn metric_tables_agree_with_benchmark_json() {
    let doc = benchmark_json();
    for (m, d) in END_TO_END.iter().zip(declared(&doc, "end_to_end")) {
        assert_eq!(m.name, text(d, "name"));
        assert_eq!(if m.higher_is_better { "higher" } else { "lower" }, text(d, "better"));
        assert_eq!(Some(m.bound), d.get("bound").and_then(Json::as_f64), "{}", m.name);
    }
    assert_eq!(END_TO_END.len(), declared(&doc, "end_to_end").len());
    assert_eq!(PER_LAYER.len(), declared(&doc, "per_layer").len());
}

#[test]
fn oracle_fails_on_a_corrupted_expected_value() {
    let w = Workload::TranslateCold;
    let programs = workloads::build(w, 1, true);
    let p = &programs[0];
    let good = oracle::reference(p).expect("reference run");
    let mut emu = workloads::new_emulator(p);
    workloads::configure(w, &mut emu);
    let run = emu.run(u64::MAX / 4);
    assert_eq!(oracle::check(&good, &run, &emu), Ok(()));

    let mut bad = good.clone();
    bad.data[0] ^= 1;
    assert!(oracle::check(&bad, &run, &emu).unwrap_err().contains(".data word 0"));
    let mut bad = good.clone();
    bad.exit_vals[0] = Some(good.exit_vals[0].unwrap_or(0) ^ 1);
    assert!(oracle::check(&bad, &run, &emu).unwrap_err().contains("exit values"));
    let mut bad = good.clone();
    bad.output.push(0);
    assert!(oracle::check(&bad, &run, &emu).unwrap_err().contains("WRITE output"));

    // A failed operation is counted, not fatal.
    let mut expected: Vec<_> =
        programs.iter().map(|p| oracle::reference(p).expect("reference run")).collect();
    expected[3].data[0] ^= 1;
    let pass = run_pass(w, &programs, &expected, &mut Calibrator::new(), None);
    assert_eq!(pass.failures.len(), 1);
    assert!(pass.failures[0].starts_with("gen-3:"), "{:?}", pass.failures);
}

#[test]
fn determinism_check_names_the_first_program_that_differs() {
    let w = Workload::ContendedSync;
    let programs = workloads::build(w, 1, true);
    let expected: Vec<_> =
        programs.iter().map(|p| oracle::reference(p).expect("reference run")).collect();
    let first = run_pass(w, &programs, &expected, &mut Calibrator::new(), None);
    let mut second = run_pass(w, &programs, &expected, &mut Calibrator::new(), None);
    assert_eq!(check_deterministic(&programs, &first, &second, "pass 2"), Ok(()));
    // Another program's counts stand in for a run that went differently.
    second.per_program[2] = first.per_program[3];
    let err = check_deterministic(&programs, &first, &second, "pass 2").unwrap_err();
    assert!(err.contains("`cas-2-2`") && err.contains("sim_cycles"), "{err}");
}

#[test]
fn binary_prints_the_result_object_last_and_compare_agrees_with_itself() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-binary");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let ledger = dir.join("a.jsonl");
    for seed in ["1", "2", "3"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_risotto-benchmark"))
            .args(["--workload", "contended_sync", "--seed", seed, "--seconds", "0"])
            .args(["--trace", "0", "--smoke", "--out"])
            .arg(&ledger)
            .current_dir(&dir)
            .output()
            .expect("the benchmark binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let last = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
        let keys: Vec<&str> =
            last.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    }
    let ledger = ledger.to_str().expect("UTF-8 path");
    let (report, regressed) = compare(ledger, ledger).expect("compare reads its own output");
    assert!(!regressed && !report.contains("regressed"), "{report}");
    for m in END_TO_END {
        assert!(report.contains(m.name), "{report}");
    }
}
