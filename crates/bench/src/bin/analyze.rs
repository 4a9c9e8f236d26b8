//! Whole-program static analysis over the benchmark corpora
//! (docs/ANALYSIS.md): runs `risotto_analysis::analyze_image` on the 16
//! Fig. 12 kernels and the x86 litmus corpus and reports per-image site
//! classifications and poisons.
//!
//! ```sh
//! cargo run --release -p risotto-bench --bin analyze -- \
//!     [--smoke] [kernels|litmus|all] [--json <path>]
//! ```
//!
//! `--json <path>` writes a machine-readable artifact; ci.sh gates it:
//! the kernels with relaxable accesses must be exactly the known six,
//! or the analysis got weaker (or suspiciously stronger).

use risotto_analysis::{analyze_image, AnalysisSummary, ImageFacts};
use risotto_bench::BenchCli;
use risotto_guest_x86::GuestBinary;
use risotto_litmus::corpus;
use risotto_workloads::{kernels, litmus_compile::compile_litmus};

/// One analyzed image, ready for both the console table and the JSON
/// artifact.
struct Row {
    name: String,
    facts: ImageFacts,
    summary: AnalysisSummary,
}

fn analyze_named(name: &str, bin: &GuestBinary) -> Row {
    let facts = analyze_image(bin);
    let summary = facts.summary();
    Row { name: name.to_owned(), facts, summary }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Row {
    fn to_json(&self) -> String {
        let s = &self.summary;
        let poisons: Vec<String> =
            self.facts.poisons.iter().map(|p| format!("\"{}\"", json_escape(p.tag()))).collect();
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"sites\": {}, ",
                "\"private\": {}, \"readonly\": {}, \"shared\": {}, \"atomics\": {}, ",
                "\"relaxable\": {}, \"instances\": {}, \"refined_loops\": {}, ",
                "\"poisons\": [{}]}}"
            ),
            json_escape(&self.name),
            s.sites,
            s.private,
            s.readonly,
            s.shared,
            s.atomics,
            s.relaxable,
            s.instances,
            s.refined_loops,
            poisons.join(", ")
        )
    }

    fn print(&self) {
        let s = &self.summary;
        println!(
            "{:28} {:>4} sites  {:>3} priv  {:>3} ro  {:>3} shared  {:>3} atomic  {:>4} relaxable  {:>2} cores  {:>2} poisons",
            self.name,
            s.sites,
            s.private,
            s.readonly,
            s.shared,
            s.atomics,
            s.relaxable,
            s.instances,
            s.poisons
        );
        for p in &self.facts.poisons {
            println!("{:28}   poison: {}", "", p.tag());
        }
    }
}

fn main() {
    let cli = BenchCli::parse("analyze", &["--smoke", "--json"]);
    let which = cli.positional.first().map(String::as_str).unwrap_or("all");
    let (scale, threads) = if cli.smoke { (4, 2) } else { (64, 2) };

    let mut kernel_rows = Vec::new();
    if which == "kernels" || which == "all" {
        println!("=== kernel corpus (scale {scale}, {threads} threads) ===");
        for w in kernels::all() {
            let row = analyze_named(w.name, &(w.build)(scale, threads));
            row.print();
            kernel_rows.push(row);
        }
    }

    let mut litmus_rows = Vec::new();
    if which == "litmus" || which == "all" {
        println!("\n=== litmus corpus (x86-flavoured) ===");
        for prog in [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb(), corpus::iriw()]
        {
            let compiled = compile_litmus(&prog, &vec![0; prog.threads.len()]);
            let row = analyze_named(&prog.name, &compiled.binary);
            row.print();
            litmus_rows.push(row);
        }
    }

    if !(which == "kernels" || which == "litmus" || which == "all") {
        eprintln!("analyze: unknown corpus `{which}` (try kernels/litmus/all)");
        std::process::exit(2);
    }

    let relaxable: u64 = kernel_rows.iter().map(|r| r.summary.relaxable).sum();
    println!(
        "\ntotal: {} images, {} relaxable kernel accesses",
        kernel_rows.len() + litmus_rows.len(),
        relaxable
    );

    if let Some(path) = cli.value("--json") {
        let section = |rows: &[Row]| rows.iter().map(Row::to_json).collect::<Vec<_>>().join(",\n");
        let json = format!(
            "{{\n  \"version\": 2,\n  \"kernels\": [\n{}\n  ],\n  \"litmus\": [\n{}\n  ]\n}}\n",
            section(&kernel_rows),
            section(&litmus_rows)
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
