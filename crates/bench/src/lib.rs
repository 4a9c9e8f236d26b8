//! # risotto-bench
//!
//! The evaluation harness: the one configuration ([`harness_config`])
//! and the one runner every figure and ablation binary goes through, the
//! shared command line (`--smoke`, `--metrics-json`), table formatting
//! for the figure-regenerating binaries (`fig12_parsec_phoenix`,
//! `fig13_openssl_sqlite`, `fig14_mathlib`, `fig15_cas`,
//! `verify_mappings`), and the kernel suite behind `BENCH_pipeline.json`
//! ([`suite`]), which runs the TSO, analysis and tier-0 legs the figures
//! do not. Everything here reports the simulated clock; host wall time
//! is measured by the `benchmark/` package alone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod suite;

use risotto_core::obs::MetricsSnapshot;
use risotto_core::{EmuConfig, Emulator, HostLibrary, Idl, Report, Setup, VerifyLevel};
use risotto_guest_x86::GuestBinary;

/// Simulated host clock (the paper's testbed runs at 2.0 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;

/// Simulated-cycle budget of one harness run.
pub(crate) const FUEL: u64 = 20_000_000_000;

/// The warm threshold that pins every block to the tier-0 template
/// translator: `u64::MAX` entries never arrive, so nothing is ever
/// re-translated through the IR pipeline.
pub const TEMPLATES_ONLY: Option<u64> = Some(u64::MAX);

/// One workload's entry in a `--metrics-json` artifact.
#[derive(Debug)]
pub struct MetricsEntry {
    /// Workload name.
    pub name: String,
    /// Setup the metrics were collected under.
    pub setup: &'static str,
    /// The metrics snapshot.
    pub snapshot: MetricsSnapshot,
}

/// Fraction of direct-jump exits resolved through a patched chain slot
/// rather than the dispatcher: `chain.hits / (chain.hits + chain.links)`
/// of `snap` (0.0 when no direct exits ran).
pub fn chain_hit_ratio(snap: &MetricsSnapshot) -> f64 {
    let (hits, links) = (snap.counter("chain.hits"), snap.counter("chain.links"));
    let total = hits + links;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Prints `msg` under `tool` and exits with status 2 — how every binary
/// reports a command line it cannot honour.
pub fn usage_error(tool: &str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(2)
}

/// The configuration every figure and ablation emulator is built from,
/// whatever its setup: the engine's default (Arm backend, tier-1 only,
/// no whole-program analysis), the paper's §7.1 setups as they stand.
/// [`Emulator::with_config`] prices the machine with the backend's cost
/// model. Install-time read-back is free (no simulated cycles), so every
/// harness run keeps it on: `verify.violations` must be zero in any
/// artifact the harness produces. An ablation overrides the one field
/// it ablates by struct update.
pub fn harness_config() -> EmuConfig {
    EmuConfig { verify: VerifyLevel::Install, ..EmuConfig::default() }
}

/// The common command line of the `risotto-bench` binaries: the shared
/// flags (`--smoke`, `--metrics-json <path>`), the value-carrying flags
/// of a binary's own (e.g. the fuzzer's `--seed` / `--iters`), plus
/// whatever positional arguments the binary itself defines. Every binary
/// names the flags it reads; any other flag, shared or not, is a usage
/// error, so no flag is accepted and then silently ignored.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BenchCli {
    /// `--smoke` was passed (bounded quick mode).
    pub smoke: bool,
    /// Path from `--metrics-json`, when requested.
    pub metrics_json: Option<String>,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// Values of the binary's own flags, in the order given (last
    /// occurrence wins via [`BenchCli::value`]).
    pub values: Vec<(String, String)>,
}

impl BenchCli {
    /// Parses the process arguments against `reads`, the flags `tool`
    /// reads (each named with its leading `--`; a name that is not a
    /// shared flag is one of the binary's own, value-carrying flags,
    /// accepted as `--flag v` or `--flag=v`). Prints an error naming
    /// `tool` and exits with status 2 on any other flag or a bad value.
    pub fn parse(tool: &str, reads: &[&str]) -> BenchCli {
        Self::try_parse(std::env::args().skip(1), reads).unwrap_or_else(|msg| {
            let usage = if reads.is_empty() { "none".to_owned() } else { reads.join(", ") };
            usage_error(tool, &format!("{msg}\n{tool}: flags it reads: {usage}"))
        })
    }

    /// Flag parsing behind [`BenchCli::parse`], separated for testing.
    pub fn try_parse(
        mut args: impl Iterator<Item = String>,
        reads: &[&str],
    ) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                cli.positional.push(a);
                continue;
            }
            let (flag, inline) = match a.split_once('=') {
                Some((flag, v)) => (flag, Some(v.to_owned())),
                None => (a.as_str(), None),
            };
            if !reads.contains(&flag) {
                return Err(format!("unknown flag `{a}`"));
            }
            if flag == "--smoke" {
                if inline.is_some() {
                    return Err("--smoke takes no value".to_owned());
                }
                cli.smoke = true;
                continue;
            }
            let v = match inline {
                Some(v) => v,
                None => args.next().ok_or(format!("{flag} requires a value"))?,
            };
            match flag {
                "--metrics-json" => cli.metrics_json = Some(v),
                _ => cli.values.push((flag.to_owned(), v)),
            }
        }
        Ok(cli)
    }

    /// Runs `bin` to completion under [`harness_config`], optionally
    /// linking the standard host libraries (libm + libcrypto + libkv),
    /// and returns its result with the metrics snapshot taken after it.
    ///
    /// `collect` names the run as a workload of the `--metrics-json`
    /// artifact and is ignored unless that flag was passed: then the run
    /// appends its [`MetricsEntry`], built from the same snapshot.
    ///
    /// # Panics
    ///
    /// Panics on any emulation error — benchmarks must run clean.
    pub fn run(
        &self,
        bin: &GuestBinary,
        setup: Setup,
        cores: usize,
        link: bool,
        collect: Option<(&str, &mut Vec<MetricsEntry>)>,
    ) -> (Report, MetricsSnapshot) {
        let collect = collect.filter(|_| self.metrics_json.is_some());
        let mut emu = Emulator::with_config(bin, setup, cores, harness_config());
        if link {
            let idl = Idl::parse(risotto_nativelib::hostlibs::IDL_TEXT).expect("IDL parses");
            for lib in [
                risotto_nativelib::hostlibs::libm(),
                risotto_nativelib::hostlibs::libcrypto(),
                risotto_nativelib::hostlibs::libkv(),
            ] {
                let lib: HostLibrary = lib;
                emu.link_library(bin, &idl, lib).expect("standard libraries match the IDL");
            }
        }
        let report = emu.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", setup.name()));
        let snapshot = emu.metrics();
        if let Some((name, entries)) = collect {
            entries.push(MetricsEntry {
                name: name.to_string(),
                setup: setup.name(),
                snapshot: snapshot.clone(),
            });
        }
        (report, snapshot)
    }

    /// The value of a declared flag (last occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// Parses a declared flag's value as an integer, with a default when
    /// the flag was not passed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn u64_value(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => {
                let (src, radix) = match v.strip_prefix("0x") {
                    Some(hex) => (hex, 16),
                    None => (v, 10),
                };
                u64::from_str_radix(src, radix).map_err(|e| format!("{flag} `{v}`: {e}"))
            }
        }
    }
}

/// Writes the versioned metrics artifact shared by every `fig*` binary
/// and `fuzz`:
/// `{"version":2,"tool":…,"workloads":[{name,setup,metrics},…]}`.
///
/// # Panics
///
/// Panics if the file cannot be written — a requested artifact that
/// silently fails to appear would be worse.
pub fn write_metrics_json(path: &str, tool: &str, entries: &[MetricsEntry]) {
    let workloads: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"setup\": \"{}\",\n     \"metrics\": {}}}",
                e.name,
                e.setup,
                e.snapshot.to_json()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"version\": 2,\n  \"tool\": \"{tool}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n")
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote metrics artifact: {path}");
}

/// Converts simulated cycles to operations per second for `ops`
/// operations.
pub fn ops_per_sec(ops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    ops as f64 * CLOCK_HZ / cycles as f64
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a speedup.
pub fn speedup(base: u64, new: u64) -> String {
    format!("{:.2}x", base as f64 / new as f64)
}

#[cfg(test)]
mod tests {
    use super::BenchCli;

    /// Every shared flag.
    const SHARED: [&str; 2] = ["--smoke", "--metrics-json"];

    fn parse_reading(args: &[&str], reads: &[&str]) -> Result<BenchCli, String> {
        BenchCli::try_parse(args.iter().map(|s| s.to_string()), reads)
    }

    /// A binary that reads every shared flag.
    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        parse_reading(args, &SHARED)
    }

    #[test]
    fn shared_flags_and_positionals_parse_in_any_order() {
        let cli = parse(&["120", "--smoke", "--metrics-json", "out.json", "extra"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.metrics_json.as_deref(), Some("out.json"));
        assert_eq!(cli.positional, vec!["120", "extra"]);
        let cli = parse(&["--metrics-json=m.json"]).unwrap();
        assert_eq!(cli.metrics_json.as_deref(), Some("m.json"));
        assert_eq!(parse(&[]).unwrap(), BenchCli::default());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--smokey"]).is_err());
        assert!(parse(&["--smoke=1"]).is_err(), "--smoke takes no value");
        assert!(parse(&["--metrics-json"]).is_err());
    }

    /// A shared flag a binary does not read is as unknown to it as any
    /// other, and so is another binary's own flag.
    #[test]
    fn shared_flags_a_binary_does_not_read_are_rejected() {
        let fuzz = ["--smoke", "--metrics-json", "--seed", "--iters"];
        assert!(parse_reading(&["--smoke", "--metrics-json", "m.json"], &fuzz).is_ok());
        assert!(parse_reading(&["--metrics-json", "out.json"], &["--smoke", "--json"]).is_err());
        assert!(parse_reading(&["--metrics-json=x"], &["--smoke"]).is_err());
        assert!(parse_reading(&["--smoke"], &[]).is_err());
        // The check is by flag, not by value: a bad value of a flag the
        // binary does not read is still reported as the flag.
        let err = parse_reading(&["--seed", "zz"], &SHARED).unwrap_err();
        assert!(err.contains("unknown flag `--seed`"), "{err}");
        // Positionals are the binary's own business.
        assert_eq!(parse_reading(&["all"], &[]).unwrap().positional, ["all"]);
    }

    #[test]
    fn declared_flags_parse_in_both_spellings_and_last_wins() {
        let parse_with = |args: &[&str]| parse_reading(args, &["--smoke", "--seed", "--iters"]);
        let cli =
            parse_with(&["--seed", "7", "--iters=100", "--smoke", "--seed=0x2a", "pos"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.value("--seed"), Some("0x2a"));
        assert_eq!(cli.u64_value("--seed", 1).unwrap(), 0x2a);
        assert_eq!(cli.u64_value("--iters", 1).unwrap(), 100);
        assert_eq!(cli.u64_value("--unset", 9).unwrap(), 9);
        assert_eq!(cli.positional, vec!["pos"]);
        assert!(parse_with(&["--seed"]).is_err(), "declared flag with no value");
        assert!(parse_with(&["--seeds=1"]).is_err(), "near-miss flag still unknown");
        assert!(parse_with(&["--seed=zz"]).unwrap().u64_value("--seed", 0).is_err());
    }
}
