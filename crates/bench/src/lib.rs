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
    BackendKind, Emulator, HostLibrary, Idl, Report, Setup, TierConfig, VerifyLevel,
};
use risotto_guest_x86::GuestBinary;

/// Simulated host clock (the paper's testbed runs at 2.0 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;

/// How many hot TBs each workload records in the metrics artifact.
pub const HOT_TB_TOP_N: usize = 10;

/// Simulated-cycle budget of one harness run.
pub(crate) const FUEL: u64 = 20_000_000_000;

/// The tier policy that pins every block to the tier-0 template
/// translator: a warm threshold of `u64::MAX` never fires, so nothing is
/// ever re-translated through the IR pipeline.
pub fn templates_only() -> TierConfig {
    TierConfig { warm_threshold: Some(u64::MAX) }
}

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

impl MetricsEntry {
    /// The entry for the workload `name` that `emu` has just run.
    pub fn of(name: &str, emu: &mut Emulator) -> MetricsEntry {
        MetricsEntry {
            name: name.to_string(),
            setup: emu.setup().name(),
            snapshot: emu.metrics(),
            hot_tbs: emu.hot_tbs(HOT_TB_TOP_N),
        }
    }

    /// Panics unless every snapshot counter that has a legacy [`Report`]
    /// source equals it.
    fn assert_matches(&self, report: &Report) {
        let snap = &self.snapshot;
        for (metric, legacy) in [
            ("translate.blocks", report.tb_count as u64),
            ("translate.retranslations", report.retranslations as u64),
            ("translate.fallback_blocks", report.fallback_blocks as u64),
            ("opt.fences_merged", report.opt.fences_merged as u64),
            ("opt.loads_forwarded", report.opt.loads_forwarded as u64),
            ("opt.stores_eliminated", report.opt.stores_eliminated as u64),
            ("chain.hits", report.chain.chain_hits),
            ("chain.links", report.chain.chain_links),
            ("chain.flushes", report.chain.chain_flushes),
            ("jcache.hits", report.chain.dispatch_hits),
            ("jcache.misses", report.chain.dispatch_misses),
            ("fence.exec.dmb_ld", report.stats.dmb[0]),
            ("fence.exec.dmb_st", report.stats.dmb[1]),
            ("fence.exec.dmb_ff", report.stats.dmb[2]),
            ("fence.exec.cycles", report.stats.fence_cycles),
            ("exec.insns", report.stats.insns),
        ] {
            assert_eq!(
                snap.counter(metric),
                legacy,
                "metric `{metric}` diverged from its legacy Report source"
            );
        }
        assert_eq!(snap.gauge("exec.cycles"), report.cycles, "exec.cycles gauge diverged");
    }
}

/// Prints `msg` under `tool` and exits with status 2 — how every binary
/// reports a command line it cannot honour.
pub fn usage_error(tool: &str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(2)
}

/// The common command line every `risotto-bench` binary accepts: the
/// shared flags (`--smoke`, `--metrics-json <path>` /
/// `--metrics-json=<path>`, `--backend arm|tso`, `--tiers 0|1|2`), any
/// value-carrying flags the binary declares up front (e.g. the fuzzer's
/// `--seed` / `--iters`), plus whatever positional arguments the binary
/// itself defines. Unknown `--flags` are rejected uniformly.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BenchCli {
    /// `--smoke` was passed (bounded quick mode).
    pub smoke: bool,
    /// Path from `--metrics-json`, when requested.
    pub metrics_json: Option<String>,
    /// Host backend from `--backend` (docs/BACKENDS.md); Arm when the
    /// flag is absent. The native-oracle setup always stays on Arm
    /// (see [`BenchCli::emulator`]).
    pub backend: BackendKind,
    /// Tier selection from `--tiers` (docs/ARCHITECTURE.md): `0` pins
    /// every block to the tier-0 template translator, `1` is today's
    /// tier-1-only default, `2` enables the two-tier ladder (templates,
    /// then the IR pipeline once warm). `None` when absent.
    pub tiers: Option<u8>,
    /// Whole-program analysis toggle from `--analysis on|off`
    /// (docs/ANALYSIS.md). `None` when absent — [`BenchCli::emulator`]
    /// defaults to on (the flag exists to measure the unrelaxed baseline).
    pub analysis: Option<bool>,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// Values of the declared extra flags, in the order given
    /// (last occurrence wins via [`BenchCli::value`]).
    pub values: Vec<(String, String)>,
}

impl BenchCli {
    /// Parses the process arguments; prints an error naming `tool` and
    /// exits with status 2 on an unknown flag or a missing flag value.
    pub fn parse(tool: &str) -> BenchCli {
        Self::parse_with(tool, &[])
    }

    /// Like [`BenchCli::parse`], but additionally accepting the declared
    /// value-carrying flags (each named with its leading `--`, accepted
    /// as `--flag v` or `--flag=v`).
    pub fn parse_with(tool: &str, declared: &[&str]) -> BenchCli {
        Self::try_parse_with(std::env::args().skip(1), declared).unwrap_or_else(|msg| {
            let extra: String = declared.iter().map(|f| format!(", {f} <value>")).collect();
            usage_error(
                tool,
                &format!(
                    "{msg}\n{tool}: supported flags: --smoke, --metrics-json <path>, --backend arm|tso, --tiers 0|1|2, --analysis on|off{extra}"
                ),
            )
        })
    }

    /// Flag parsing behind [`BenchCli::parse_with`], separated for
    /// testing.
    pub fn try_parse_with(
        args: impl Iterator<Item = String>,
        declared: &[&str],
    ) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        let mut args = args;
        'arg: while let Some(a) = args.next() {
            if a == "--smoke" {
                cli.smoke = true;
            } else if a == "--metrics-json" {
                cli.metrics_json =
                    Some(args.next().ok_or("--metrics-json requires a path".to_owned())?);
            } else if let Some(p) = a.strip_prefix("--metrics-json=") {
                cli.metrics_json = Some(p.to_owned());
            } else if a == "--backend" {
                let v = args.next().ok_or("--backend requires `arm` or `tso`".to_owned())?;
                cli.backend = BackendKind::parse(&v)
                    .ok_or(format!("--backend `{v}`: expected `arm` or `tso`"))?;
            } else if let Some(v) = a.strip_prefix("--backend=") {
                cli.backend = BackendKind::parse(v)
                    .ok_or(format!("--backend `{v}`: expected `arm` or `tso`"))?;
            } else if a == "--tiers" {
                let v = args.next().ok_or("--tiers requires `0`, `1` or `2`".to_owned())?;
                cli.tiers = Some(Self::parse_tiers(&v)?);
            } else if let Some(v) = a.strip_prefix("--tiers=") {
                cli.tiers = Some(Self::parse_tiers(v)?);
            } else if a == "--analysis" {
                let v = args.next().ok_or("--analysis requires `on` or `off`".to_owned())?;
                cli.analysis = Some(Self::parse_analysis(&v)?);
            } else if let Some(v) = a.strip_prefix("--analysis=") {
                cli.analysis = Some(Self::parse_analysis(v)?);
            } else if a.starts_with("--") {
                for f in declared {
                    if a == *f {
                        let v = args.next().ok_or(format!("{f} requires a value"))?;
                        cli.values.push((f.to_string(), v));
                        continue 'arg;
                    }
                    if let Some(v) = a.strip_prefix(&format!("{f}=")) {
                        cli.values.push((f.to_string(), v.to_owned()));
                        continue 'arg;
                    }
                }
                return Err(format!("unknown flag `{a}`"));
            } else {
                cli.positional.push(a);
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

    /// The tier policy the `--tiers` selection pins on every DBT
    /// emulator [`BenchCli::emulator`] builds:
    ///
    /// * `--tiers 0` — [`templates_only`]: every block stays tier-0
    ///   forever.
    /// * `--tiers 1` (or no flag) — today's default: the IR pipeline
    ///   translates everything, no tiering at all (`None`).
    /// * `--tiers 2` — the two-tier ladder: cold blocks via templates,
    ///   re-translated through the IR pipeline at 32 entries.
    pub fn tier_config(&self) -> Option<TierConfig> {
        match self.tiers {
            Some(0) => Some(templates_only()),
            Some(2) => Some(TierConfig { warm_threshold: Some(32) }),
            _ => None,
        }
    }

    /// The emulator every binary runs `bin` on — the one place the shared
    /// flags are applied. The machine is priced with the backend's cost
    /// model, so cycle numbers are comparable only within one backend.
    /// Install-time read-back is free (no simulated cycles), so every
    /// harness run keeps it on: `verify.violations` must be zero in any
    /// artifact the harness produces. A `--tiers` pin and the
    /// `--analysis` toggle apply to every DBT setup; the native oracle
    /// runs precompiled Arm code whatever `--backend` says, and has
    /// neither translation tiers nor fence obligations to relax.
    pub fn emulator(&self, bin: &GuestBinary, setup: Setup, cores: usize) -> Emulator {
        let dbt = setup != Setup::Native;
        let backend = if dbt { self.backend } else { BackendKind::Arm };
        let mut emu = Emulator::new(bin, setup, cores, backend.cost_model());
        emu.set_backend(backend);
        emu.set_verify(VerifyLevel::Install);
        if dbt {
            if let Some(cfg) = self.tier_config() {
                emu.set_tiering(Some(cfg));
            }
            emu.set_analysis(self.analysis.unwrap_or(true));
        }
        emu
    }

    /// Runs `bin` to completion on [`BenchCli::emulator`], optionally
    /// linking the standard host libraries (libm + libcrypto + libkv).
    ///
    /// `collect` names the run as a workload of the `--metrics-json`
    /// artifact and is ignored unless that flag was passed: then the run
    /// has stage timing and hot-TB profiling on and appends its
    /// [`MetricsEntry`], cross-checked first — every fence / chain /
    /// fallback counter in the snapshot must equal its legacy [`Report`]
    /// source, so the artifact is self-verifying.
    /// (On the TSO backend `fence.exec.dmb_ff` counts executed `MFENCE`s,
    /// the only barrier MiniTSO emits; `dmb_ld`/`dmb_st` stay 0.)
    ///
    /// # Panics
    ///
    /// Panics on any emulation error — benchmarks must run clean — or on
    /// a snapshot/`Report` mismatch.
    pub fn run(
        &self,
        bin: &GuestBinary,
        setup: Setup,
        cores: usize,
        link: bool,
        collect: Option<(&str, &mut Vec<MetricsEntry>)>,
    ) -> Report {
        let collect = collect.filter(|_| self.metrics_json.is_some());
        let mut emu = self.emulator(bin, setup, cores);
        if collect.is_some() {
            emu.set_stage_timing(true);
            emu.set_profiling(true);
        }
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
        if let Some((name, entries)) = collect {
            let entry = MetricsEntry::of(name, &mut emu);
            entry.assert_matches(&report);
            entries.push(entry);
        }
        report
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

/// Writes the versioned metrics artifact shared by every `fig*` binary,
/// `fault_sweep` and `fuzz`:
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

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::try_parse_with(args.iter().map(|s| s.to_string()), &[])
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
        assert!(parse(&["--metrics-json"]).is_err());
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
        assert_eq!(parse(&[]).unwrap().tier_config(), None);
        assert_eq!(parse(&["--tiers", "1"]).unwrap().tier_config(), None);
        let t0 = parse(&["--tiers", "0"]).unwrap().tier_config().unwrap();
        assert_eq!(t0.warm_threshold, Some(u64::MAX));
        let t2 = parse(&["--tiers", "2"]).unwrap().tier_config().unwrap();
        assert_eq!(t2.warm_threshold, Some(32));
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
        use risotto_core::{BackendKind, Setup, VerifyLevel};
        let bin = (risotto_workloads::kernels::all()[0].build)(4, 2);
        let default = parse(&[]).unwrap();
        let flagged = parse(&["--backend", "tso", "--analysis", "off"]).unwrap();
        for setup in [Setup::Qemu, Setup::TcgVer, Setup::Risotto] {
            let emu = default.emulator(&bin, setup, 2);
            assert_eq!(emu.backend_kind(), BackendKind::Arm);
            assert_eq!(emu.verify_level(), VerifyLevel::Install);
            assert!(emu.analysis_enabled(), "{setup:?}: harness runs default to analysis on");
            let emu = flagged.emulator(&bin, setup, 2);
            assert_eq!(emu.backend_kind(), BackendKind::Tso);
            assert_eq!(emu.verify_level(), VerifyLevel::Install);
            assert!(!emu.analysis_enabled(), "{setup:?}: --analysis off ignored");
        }
        for cli in [&default, &flagged] {
            let emu = cli.emulator(&bin, Setup::Native, 2);
            assert_eq!(emu.backend_kind(), BackendKind::Arm);
            assert!(!emu.analysis_enabled(), "native code has no fence obligations to relax");
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
        let parse_with = |args: &[&str]| {
            BenchCli::try_parse_with(args.iter().map(|s| s.to_string()), &["--seed", "--iters"])
        };
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
