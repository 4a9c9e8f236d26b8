//! # risotto-bench
//!
//! The evaluation harness: the one emulator constructor and runner every
//! binary goes through, table formatting for the figure-regenerating
//! binaries (`fig12_parsec_phoenix`, `fig13_openssl_sqlite`,
//! `fig14_mathlib`, `fig15_cas`, `verify_mappings`), and the kernel suite
//! behind `BENCH_pipeline.json` ([`suite`]). Everything here reports the
//! simulated clock; host wall time is measured by the `benchmark/`
//! package alone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod suite;

use risotto_core::obs::{HotTb, MetricsSnapshot};
use risotto_core::{
    BackendKind, EmuConfig, Emulator, HostLibrary, Idl, Report, Setup, VerifyLevel,
};
use risotto_guest_x86::GuestBinary;

/// Simulated host clock (the paper's testbed runs at 2.0 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;

/// How many hot TBs each workload records in the metrics artifact.
pub const HOT_TB_TOP_N: usize = 10;

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
    /// The hottest TBs ([`HOT_TB_TOP_N`]), hottest first.
    pub hot_tbs: Vec<HotTb>,
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

/// The common command line of the `risotto-bench` binaries: the shared
/// flags (`--smoke`, `--metrics-json <path>`, `--backend arm|tso`,
/// `--tiers 0|1|2`, `--analysis on|off`), the value-carrying flags of a
/// binary's own (e.g. the fuzzer's `--seed` / `--iters`), plus whatever
/// positional arguments the binary itself defines. Every binary names
/// the flags it reads; any other flag, shared or not, is a usage error,
/// so no flag is accepted and then silently ignored.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BenchCli {
    /// `--smoke` was passed (bounded quick mode).
    pub smoke: bool,
    /// Path from `--metrics-json`, when requested.
    pub metrics_json: Option<String>,
    /// Host backend from `--backend` (docs/BACKENDS.md); Arm when the
    /// flag is absent. The native-oracle setup always stays on Arm
    /// (see [`BenchCli::config`]).
    pub backend: BackendKind,
    /// Tier selection from `--tiers` (docs/ARCHITECTURE.md): `0` pins
    /// every block to the tier-0 template translator, `1` is today's
    /// tier-1-only default, `2` enables the two-tier ladder (templates,
    /// then the IR pipeline once warm). `None` when absent.
    pub tiers: Option<u8>,
    /// Whole-program analysis toggle from `--analysis on|off`
    /// (docs/ANALYSIS.md). `None` when absent — [`BenchCli::config`]
    /// defaults to on (the flag exists to measure the unrelaxed baseline).
    pub analysis: Option<bool>,
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
                "--backend" => {
                    cli.backend = BackendKind::parse(&v)
                        .ok_or(format!("--backend `{v}`: expected `arm` or `tso`"))?;
                }
                "--tiers" => cli.tiers = Some(Self::parse_tiers(&v)?),
                "--analysis" => cli.analysis = Some(Self::parse_analysis(&v)?),
                _ => cli.values.push((flag.to_owned(), v)),
            }
        }
        Ok(cli)
    }

    fn parse_tiers(v: &str) -> Result<u8, String> {
        match v {
            "0" => Ok(0),
            "1" => Ok(1),
            "2" => Ok(2),
            _ => Err(format!("--tiers `{v}`: expected `0`, `1` or `2`")),
        }
    }

    fn parse_analysis(v: &str) -> Result<bool, String> {
        match v {
            "on" => Ok(true),
            "off" => Ok(false),
            _ => Err(format!("--analysis `{v}`: expected `on` or `off`")),
        }
    }

    /// The configuration every binary runs `setup` under — the one place
    /// the shared flags are applied. [`Emulator::with_config`] prices the
    /// machine with the backend's cost model, so cycle numbers are
    /// comparable only within one backend. Install-time read-back is free
    /// (no simulated cycles), so every harness run keeps it on:
    /// `verify.violations` must be zero in any artifact the harness
    /// produces. The native oracle runs precompiled Arm code whatever
    /// `--backend` says, and has neither translation tiers nor fence
    /// obligations to relax; every DBT setup gets the `--analysis` toggle
    /// (on unless `off`) and the `--tiers` selection:
    ///
    /// * `--tiers 0` — [`TEMPLATES_ONLY`]: every block stays tier-0
    ///   forever.
    /// * `--tiers 1` (or no flag) — the IR pipeline translates
    ///   everything, no tiering at all.
    /// * `--tiers 2` — the two-tier ladder: cold blocks via templates,
    ///   re-translated through the IR pipeline at 32 entries.
    pub fn config(&self, setup: Setup) -> EmuConfig {
        let verify = VerifyLevel::Install;
        if setup == Setup::Native {
            return EmuConfig { verify, ..EmuConfig::default() };
        }
        let warm_threshold = match self.tiers {
            Some(0) => TEMPLATES_ONLY,
            Some(2) => Some(32),
            _ => None,
        };
        EmuConfig {
            backend: self.backend,
            verify,
            warm_threshold,
            analysis: self.analysis.unwrap_or(true),
            ..EmuConfig::default()
        }
    }

    /// Runs `bin` to completion under [`BenchCli::config`], optionally
    /// linking the standard host libraries (libm + libcrypto + libkv),
    /// and returns its result with the metrics snapshot taken after it.
    ///
    /// `collect` names the run as a workload of the `--metrics-json`
    /// artifact and is ignored unless that flag was passed: then the run
    /// has hot-TB profiling on and appends its [`MetricsEntry`], built
    /// from the same snapshot.
    /// (On the TSO backend `fence.exec.dmb_ff` counts executed `MFENCE`s,
    /// the only barrier MiniTSO emits; `dmb_ld`/`dmb_st` stay 0.)
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
        let config = EmuConfig { profiling: collect.is_some(), ..self.config(setup) };
        let mut emu = Emulator::with_config(bin, setup, cores, config);
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
                hot_tbs: emu.hot_tbs(HOT_TB_TOP_N),
            });
        }
        (report, snapshot)
    }

    /// `Err` unless the run is on the Arm backend — for a binary whose
    /// subject (`what`) exists only in the Arm dialect.
    pub fn require_arm(&self, what: &str) -> Result<(), String> {
        match self.backend {
            BackendKind::Arm => Ok(()),
            other => Err(format!("--backend {} is not applicable: {what}", other.name())),
        }
    }

    /// `Err` under `--tiers 0` — for a binary whose subject (`what`)
    /// lives in the IR pipeline, which a templates-only run never enters.
    pub fn require_ir_pipeline(&self, what: &str) -> Result<(), String> {
        match self.tiers {
            Some(0) => Err(format!("--tiers 0 is not applicable: {what}")),
            _ => Ok(()),
        }
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
/// `{"version":1,"tool":…,"workloads":[{name,setup,hot_tbs,metrics},…]}`.
///
/// # Panics
///
/// Panics if the file cannot be written — a requested artifact that
/// silently fails to appear would be worse.
pub fn write_metrics_json(path: &str, tool: &str, entries: &[MetricsEntry]) {
    let mut workloads = Vec::with_capacity(entries.len());
    for e in entries {
        let hot: Vec<String> = e
            .hot_tbs
            .iter()
            .map(|t| {
                format!(
                    "{{\"tb_id\": {}, \"guest_pc\": {}, \"execs\": {}, \"chain_misses\": {}}}",
                    t.tb_id, t.guest_pc, t.execs, t.chain_misses
                )
            })
            .collect();
        workloads.push(format!(
            "    {{\"name\": \"{}\", \"setup\": \"{}\", \"hot_tbs\": [{}],\n     \"metrics\": {}}}",
            e.name,
            e.setup,
            hot.join(", "),
            e.snapshot.to_json()
        ));
    }
    let json = format!(
        "{{\n  \"version\": 1,\n  \"tool\": \"{tool}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
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
    use risotto_core::Setup;

    /// Every shared flag.
    const SHARED: [&str; 5] = ["--smoke", "--metrics-json", "--backend", "--tiers", "--analysis"];

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
    /// other: each case is a flag some binary once accepted and ignored.
    #[test]
    fn shared_flags_a_binary_does_not_read_are_rejected() {
        let fuzz = ["--smoke", "--metrics-json", "--seed", "--iters"];
        assert!(parse_reading(&["--smoke", "--metrics-json", "m.json"], &fuzz).is_ok());
        for args in [&["--backend", "tso"][..], &["--tiers", "1"], &["--analysis=off"]] {
            let err = parse_reading(args, &fuzz).unwrap_err();
            assert!(err.contains(args[0].split('=').next().unwrap()), "{args:?}: {err}");
        }
        assert!(parse_reading(&["--metrics-json", "out.json"], &["--smoke", "--json"]).is_err());
        assert!(parse_reading(&["--smoke"], &["--backend", "--tiers", "--analysis"]).is_err());
        assert!(parse_reading(&["--tiers", "0"], &[]).is_err());
        let ablation = ["--smoke", "--backend", "--tiers", "--analysis"];
        assert!(parse_reading(&["--metrics-json=x"], &ablation).is_err());
        // The check is by flag, not by value: a bad value of a flag the
        // binary does not read is still reported as the flag.
        let err = parse_reading(&["--backend", "riscv"], &fuzz).unwrap_err();
        assert!(err.contains("unknown flag `--backend`"), "{err}");
        // Positionals are the binary's own business.
        assert_eq!(parse_reading(&["all"], &[]).unwrap().positional, ["all"]);
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown_hosts() {
        use risotto_core::BackendKind;
        assert_eq!(parse(&[]).unwrap().backend, BackendKind::Arm);
        assert_eq!(parse(&["--backend", "tso"]).unwrap().backend, BackendKind::Tso);
        assert_eq!(parse(&["--backend=arm"]).unwrap().backend, BackendKind::Arm);
        assert!(parse(&["--backend"]).is_err());
        assert!(parse(&["--backend", "riscv"]).is_err());
        assert!(parse(&["--backend=x86"]).is_err());
    }

    #[test]
    fn tiers_flag_parses_and_rejects_invalid_combinations() {
        assert_eq!(parse(&[]).unwrap().tiers, None);
        assert_eq!(parse(&["--tiers", "0"]).unwrap().tiers, Some(0));
        assert_eq!(parse(&["--tiers=2"]).unwrap().tiers, Some(2));
        assert!(parse(&["--tiers"]).is_err(), "missing value");
        assert!(parse(&["--tiers", "3"]).is_err(), "out-of-range tier");
        assert!(parse(&["--tiers=templates"]).is_err(), "non-numeric tier");
        assert!(parse(&["--tiers=01"]).is_err(), "non-canonical spelling");

        // Tier 1 (and the flag's absence) keep the engine default; 0
        // pins templates forever; 2 opens the ladder.
        let warm = |args: &[&str]| parse(args).unwrap().config(Setup::Risotto).warm_threshold;
        assert_eq!(warm(&[]), None);
        assert_eq!(warm(&["--tiers", "1"]), None);
        assert_eq!(warm(&["--tiers", "0"]), Some(u64::MAX));
        assert_eq!(warm(&["--tiers", "2"]), Some(32));
    }

    #[test]
    fn analysis_flag_parses_and_rejects_invalid_values() {
        assert_eq!(parse(&[]).unwrap().analysis, None);
        assert_eq!(parse(&["--analysis", "on"]).unwrap().analysis, Some(true));
        assert_eq!(parse(&["--analysis=off"]).unwrap().analysis, Some(false));
        assert!(parse(&["--analysis"]).is_err(), "missing value");
        assert!(parse(&["--analysis", "maybe"]).is_err(), "invalid value");
        assert!(parse(&["--analysis=1"]).is_err(), "numeric spelling rejected");
    }

    #[test]
    fn every_emulator_gets_the_shared_flags_and_the_native_oracle_stays_on_arm() {
        use risotto_core::{BackendKind, EmuConfig, Emulator, Setup, VerifyLevel};
        let bin = (risotto_workloads::kernels::all()[0].build)(4, 2);
        let base = EmuConfig { verify: VerifyLevel::Install, ..EmuConfig::default() };
        let flag_sets = [
            (&[][..], EmuConfig { analysis: true, ..base.clone() }),
            (
                &["--backend", "tso", "--analysis", "off", "--tiers", "0"],
                EmuConfig {
                    backend: BackendKind::Tso,
                    warm_threshold: Some(u64::MAX),
                    ..base.clone()
                },
            ),
            (
                &["--tiers", "2"],
                EmuConfig { analysis: true, warm_threshold: Some(32), ..base.clone() },
            ),
        ];
        for (args, dbt) in flag_sets {
            let cli = parse(args).unwrap();
            for setup in Setup::ALL {
                // Native code is Arm-compiled, has no tiers and no fence
                // obligations to relax.
                let want = if setup == Setup::Native { &base } else { &dbt };
                let emu = Emulator::with_config(&bin, setup, 2, cli.config(setup));
                assert_eq!(emu.config(), want, "{args:?} under {setup:?}");
            }
        }
    }

    #[test]
    fn inapplicable_flags_are_errors_not_silently_ignored() {
        assert!(parse(&[]).unwrap().require_arm("x").is_ok());
        assert!(parse(&["--backend=arm"]).unwrap().require_arm("x").is_ok());
        let err = parse(&["--backend", "tso"]).unwrap().require_arm("Arm-only").unwrap_err();
        assert!(err.contains("--backend tso") && err.contains("Arm-only"), "{err}");

        for ok in [&[][..], &["--tiers", "1"], &["--tiers", "2"]] {
            assert!(parse(ok).unwrap().require_ir_pipeline("x").is_ok(), "{ok:?}");
        }
        let err = parse(&["--tiers=0"]).unwrap().require_ir_pipeline("no IR").unwrap_err();
        assert!(err.contains("--tiers 0") && err.contains("no IR"), "{err}");
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
