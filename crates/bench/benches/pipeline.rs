//! Regenerates `BENCH_pipeline.json` at the workspace root from
//! [`risotto_bench::suite`]: per-kernel simulated cycles, TB-chain
//! counters, the MiniTSO / analysis / tier-0 legs and the base
//! run's metrics snapshot. No wall time — host-time rows live in the
//! `benchmark/` package. Pass `smoke` for the CI-sized configuration
//! `ci.sh` gates on:
//!
//! ```sh
//! cargo bench -p risotto-bench --bench pipeline -- smoke
//! ```

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke");
    let json = risotto_bench::suite::pipeline_json(smoke);
    // Cargo runs benches with the package dir as CWD; anchor the artifact
    // at the workspace root instead.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}
