//! Regenerates Figure 13: OpenSSL digests, RSA sign/verify, and the
//! sqlite speedtest — speedup of risotto (host-linked native libraries)
//! and native execution over QEMU (translated guest libraries).
//!
//! Pass `--metrics-json <path>` to also write the observability artifact
//! (one metrics snapshot per workload, risotto setup);
//! `--smoke` shrinks buffers/iterations to a CI-sized configuration.

use risotto_bench::{chain_hit_ratio, ops_per_sec, print_table, speedup, BenchCli};
use risotto_core::Setup;
use risotto_workloads::libbench::{digest_bench, rsa_bench, sqlite_bench, DigestAlgo};

fn main() {
    println!("Figure 13 — OpenSSL & sqlite speedup over QEMU (higher is better)\n");
    let cli = BenchCli::parse("fig13_openssl_sqlite", &["--smoke", "--metrics-json"]);
    let smoke = cli.smoke;
    let mut metrics = Vec::new();
    let mut rows = Vec::new();

    // Digests: md5/sha1/sha256 × {1024, 8192}-byte buffers (smoke: just
    // the small buffer, one iteration).
    let lens: &[usize] = if smoke { &[1024] } else { &[1024, 8192] };
    for (algo, name) in
        [(DigestAlgo::Md5, "md5"), (DigestAlgo::Sha1, "sha1"), (DigestAlgo::Sha256, "sha256")]
    {
        for &len in lens {
            let iters = if smoke {
                1
            } else if len == 1024 {
                6
            } else {
                2
            };
            let bin = digest_bench(algo, len, iters);
            let label = format!("{name}-{len}");
            let (qemu, _) = cli.run(&bin, Setup::Qemu, 1, false, None);
            let (ris, ris_snap) =
                cli.run(&bin, Setup::Risotto, 1, true, Some((&label, &mut metrics)));
            let (nat, _) = cli.run(&bin, Setup::Native, 1, true, None);
            assert_eq!(qemu.exit_vals[0], ris.exit_vals[0], "{label} digest mismatch");
            assert_eq!(qemu.exit_vals[0], nat.exit_vals[0]);
            rows.push(vec![
                label,
                speedup(qemu.cycles, ris.cycles),
                speedup(qemu.cycles, nat.cycles),
                format!("{:.0} ops/s", ops_per_sec(iters, qemu.cycles)),
                format!("{:.1}%", 100.0 * chain_hit_ratio(&ris_snap)),
            ]);
        }
    }

    // RSA 1024/2048 sign/verify (modulus 2^(64·n) − 159; smoke: 1024
    // only).
    let rsa: &[(usize, &str)] =
        if smoke { &[(16, "rsa1024")] } else { &[(16, "rsa1024"), (32, "rsa2048")] };
    for &(nlimbs, label) in rsa {
        for (sign, op) in [(true, "sign"), (false, "verify")] {
            let bin = rsa_bench(nlimbs, sign, 1);
            let name = format!("{label}-{op}");
            let (qemu, _) = cli.run(&bin, Setup::Qemu, 1, false, None);
            let (ris, ris_snap) =
                cli.run(&bin, Setup::Risotto, 1, true, Some((&name, &mut metrics)));
            let (nat, _) = cli.run(&bin, Setup::Native, 1, true, None);
            assert_eq!(qemu.exit_vals[0], ris.exit_vals[0], "{name} result mismatch");
            rows.push(vec![
                name,
                speedup(qemu.cycles, ris.cycles),
                speedup(qemu.cycles, nat.cycles),
                format!("{:.0} ops/s", ops_per_sec(1, qemu.cycles)),
                format!("{:.1}%", 100.0 * chain_hit_ratio(&ris_snap)),
            ]);
        }
    }

    // sqlite speedtest.
    {
        let rows_n: u64 = if smoke { 4 } else { 20 };
        let bin = sqlite_bench(rows_n);
        let (qemu, _) = cli.run(&bin, Setup::Qemu, 1, false, None);
        let (ris, ris_snap) =
            cli.run(&bin, Setup::Risotto, 1, true, Some(("sqlite", &mut metrics)));
        let (nat, _) = cli.run(&bin, Setup::Native, 1, true, None);
        assert_eq!(qemu.exit_vals[0], ris.exit_vals[0], "sqlite checksum mismatch");
        rows.push(vec![
            "sqlite".into(),
            speedup(qemu.cycles, ris.cycles),
            speedup(qemu.cycles, nat.cycles),
            format!("{:.0} ops/s", ops_per_sec(rows_n, qemu.cycles)),
            format!("{:.1}%", 100.0 * chain_hit_ratio(&ris_snap)),
        ]);
    }

    print_table(&["benchmark", "risotto", "native", "qemu raw", "ris chain"], &rows);
    if let Some(path) = &cli.metrics_json {
        risotto_bench::write_metrics_json(path, "fig13_openssl_sqlite", &metrics);
    }
}
