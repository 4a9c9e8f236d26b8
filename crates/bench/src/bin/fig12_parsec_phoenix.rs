//! Regenerates Figure 12: PARSEC + Phoenix run time under each setup,
//! relative to QEMU (lower is better), plus the fence share of QEMU's
//! execution time (the §7.2 "cost of memory ordering" analysis).
//!
//! ```sh
//! cargo run --release -p risotto-bench --bin fig12_parsec_phoenix -- \
//!     [--smoke] [--metrics-json <path>]
//! ```
//!
//! `--smoke` shrinks every workload to a CI-sized scale; `--metrics-json`
//! writes the versioned observability artifact (one metrics snapshot +
//! hot-TB profile per kernel, collected under the risotto setup).

use risotto_bench::{chain_hit_ratio, print_table, BenchCli};
use risotto_core::Setup;
use risotto_workloads::kernels;

fn main() {
    let cli = BenchCli::parse("fig12_parsec_phoenix", &["--smoke", "--metrics-json"]);
    let smoke = cli.smoke;
    let mut metrics = Vec::new();
    let threads = if smoke { 2 } else { 4 };
    println!("Figure 12 — PARSEC & Phoenix run time relative to QEMU ({threads} threads)");
    println!("(columns are % of qemu's runtime; lower is better)\n");
    let mut rows = Vec::new();
    let mut avgs = [0f64; 4]; // no-fences, tcg-ver, risotto, native
    let mut fence_shares: Vec<(String, f64)> = Vec::new();
    let mut chain_rows: Vec<Vec<String>> = Vec::new();
    let (mut tot_hits, mut tot_links) = (0u64, 0u64);
    let workloads = kernels::all();
    for w in &workloads {
        let scale: u64 = if smoke {
            8
        } else {
            match w.name {
                "matrixmultiply" => 24,
                "canneal" | "freqmine" | "histogram" | "vips" | "wordcount" | "stringmatch" => 4096,
                _ => 2048,
            }
        };
        let bin = (w.build)(scale, threads);
        let (qemu, qemu_snap) = cli.run(&bin, Setup::Qemu, threads, false, None);
        let mut cells = vec![w.name.to_string()];
        for (i, s) in
            [Setup::NoFences, Setup::TcgVer, Setup::Risotto, Setup::Native].iter().enumerate()
        {
            // The risotto run carries the observability payload.
            let collect = (*s == Setup::Risotto).then_some((w.name, &mut metrics));
            let (r, snap) = cli.run(&bin, *s, threads, false, collect);
            assert_eq!(r.exit_vals[0], qemu.exit_vals[0], "{} checksum mismatch", w.name);
            let rel = 100.0 * r.cycles as f64 / qemu.cycles as f64;
            avgs[i] += rel;
            cells.push(format!("{rel:.1}%"));
            if *s == Setup::Risotto {
                tot_hits += snap.counter("chain.hits");
                tot_links += snap.counter("chain.links");
                chain_rows.push(vec![
                    w.name.to_string(),
                    snap.counter("chain.hits").to_string(),
                    snap.counter("chain.links").to_string(),
                    snap.counter("jcache.hits").to_string(),
                    snap.counter("jcache.misses").to_string(),
                    format!("{:.1}%", 100.0 * chain_hit_ratio(&snap)),
                ]);
            }
        }
        let fence_share = qemu_snap.counter("fence.exec.cycles") as f64
            / (qemu.cycles.max(1) * threads as u64) as f64;
        fence_shares.push((w.name.to_string(), fence_share));
        cells.push(format!("{}", qemu.cycles));
        rows.push(cells);
    }
    let n = workloads.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        format!("{:.1}%", avgs[0] / n),
        format!("{:.1}%", avgs[1] / n),
        format!("{:.1}%", avgs[2] / n),
        format!("{:.1}%", avgs[3] / n),
        String::new(),
    ]);
    print_table(&["benchmark", "no-fences", "tcg-ver", "risotto", "native", "qemu cycles"], &rows);
    println!("\nFence share of qemu execution time (per core, §7.2):");
    let mut fr: Vec<Vec<String>> =
        fence_shares.iter().map(|(n, f)| vec![n.clone(), format!("{:.1}%", f * 100.0)]).collect();
    let avg = fence_shares.iter().map(|(_, f)| f).sum::<f64>() / fence_shares.len() as f64;
    let max =
        fence_shares
            .iter()
            .cloned()
            .fold(("".to_string(), 0.0), |a, b| if b.1 > a.1 { b } else { a });
    fr.push(vec!["AVERAGE".into(), format!("{:.1}%", avg * 100.0)]);
    fr.push(vec![format!("MAX ({})", max.0), format!("{:.1}%", max.1 * 100.0)]);
    print_table(&["benchmark", "fence share"], &fr);

    println!("\nTB chaining under the risotto setup (direct exits: patched-chain");
    println!("hits vs one-time links; indirect exits: jump-cache hits vs misses):");
    let agg = 100.0 * tot_hits as f64 / (tot_hits + tot_links).max(1) as f64;
    chain_rows.push(vec![
        "AGGREGATE".into(),
        tot_hits.to_string(),
        tot_links.to_string(),
        String::new(),
        String::new(),
        format!("{agg:.1}%"),
    ]);
    print_table(
        &["benchmark", "chain hits", "links", "jcache hits", "jcache miss", "hit rate"],
        &chain_rows,
    );

    if let Some(path) = &cli.metrics_json {
        risotto_bench::write_metrics_json(path, "fig12_parsec_phoenix", &metrics);
    }
}
