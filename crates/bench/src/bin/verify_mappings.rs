//! The full Theorem-1 verification sweep — the systems counterpart of
//! checking the paper's 14k-line Agda development.
//!
//! Prints the verdict table (`risotto_mappings::check::table`) over the
//! x86 corpus and the exhaustively generated two-thread family, and
//! panics unless every row fails exactly on its corpus programs and on
//! its number of family programs. `results/verify.txt` is its output.

use risotto_bench::{print_table, BenchCli};
use risotto_mappings::check::{check_row, table, Model, Sources};

fn main() {
    // It reads no flag; parsing rejects every one.
    let _ = BenchCli::parse("verify_mappings", &[]);
    let sources = Sources::full();
    let [corpus, family] = sources.of(Model::X86Tso);
    let tcg_family = sources.of(Model::TcgIr)[1].len();
    println!("Theorem-1 verdict table over the full two-thread family");
    println!("  x86 rows: {} corpus programs + {} generated programs", corpus.len(), family.len());
    println!(
        "  TCG rows: the same through verified x86->tcg + {} TCG fence patterns\n",
        tcg_family - family.len()
    );

    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for row in table() {
        let v = check_row(&row, &sources);
        let fails = if v.corpus_fails.is_empty() { "-".into() } else { v.corpus_fails.join(", ") };
        let sound = v.corpus_fails.is_empty() && v.family_fails == 0;
        rows.push(vec![
            row.name.clone(),
            format!("{} -> {}", row.from.name(), row.to.name()),
            fails,
            v.family_fails.to_string(),
            (if sound { "sound" } else { "UNSOUND" }).into(),
        ]);
        bad.extend(v.mismatch.map(|m| format!("{}: {m}", row.name)));
    }
    print_table(&["scheme", "models", "corpus fails", "family fails", "verdict"], &rows);
    assert!(bad.is_empty(), "verdicts differ from the table:\n  {}", bad.join("\n  "));
    println!("\nEvery row fails exactly where the table says (§3.2, §3.3, §5.4).");
}
