#!/usr/bin/env sh
# Local CI gate: build, full test suite, and lint-clean clippy.
# Run from the repository root before sending a change.
set -eu

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The repo benchmark (BENCHMARK.json) is a package of its own outside
# the workspace, built against ../crates/*: run its tests here so an
# engine change that breaks it fails locally, not in the pipeline.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Documentation gate: rustdoc must build warning-free (missing-docs are
# hard errors in core/tcg/host-arm/host-tso via #![deny(missing_docs)]).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Cross-backend gate (docs/BACKENDS.md): the MiniTSO backend's unit
# suite (lowering, dialect verifier, mutant kill), then the standing
# Arm-vs-TSO differential — kernels bit-identical at VerifyLevel::Full,
# litmus containment, seeded fuzz matrix, engine-level Pass-3 mutant
# kill, and the BACKENDS.md completeness test in both directions.
cargo test -q --release -p risotto-host-tso
cargo test -q --release --test backends

# Verifier gate: the translation-validator suite (mutation tests over
# the 16-kernel corpus + litmus at VerifyLevel::Full) in bounded smoke
# mode. Any clean-corpus violation or surviving mutant fails CI.
RISOTTO_VERIFY_SMOKE=1 cargo test -q --release --test verifier

# Determinism gate: the same IR must lower to bit-identical host bytes
# and allocation statistics twice, across the kernel/litmus/fuzz corpora
# and stitched tier-2 superblocks, under both RMW styles — and across
# versions: host bytes, OptStats and AllocStats over the same corpora on
# both backends must reproduce the checked-in hash, and a block must come
# out of scratch tables that have seen the whole corpus (failed
# translations included) exactly as it does out of fresh ones.
RISOTTO_VERIFY_SMOKE=1 cargo test -q --release --test determinism

# Allocation-budget gate, in the build the benchmark measures: heap
# allocations per translated block (VerifyLevel::Full and Install) and
# per Emulator::new stay under their ceilings (tests/alloc_budget.rs
# prints the measured figures).
cargo test -q --release --test alloc_budget

# Machine-loop gate, in the build the benchmark measures: a run cut into
# single steps (a scheduler scan before every step) must leave the same
# clocks, counters, memory and atomic order as one cut into run quanta,
# under all three policies — hand-built multi-core programs in the
# machine's unit suite, the CAS grid and five kernels through the engine
# — and the pre-decoded code table must never serve an instruction from
# bytes that were patched, corrupted, freed or reused (same unit suite;
# `SparseMem`'s word-wide accessors against their byte-wise definition
# ride along in guest-x86's).
cargo test -q --release -p risotto-host-arm -p risotto-guest-x86
cargo test -q --release --test slice_invariance

# End-to-end pipeline bench in smoke mode: runs the 16-kernel suite at a
# CI-sized scale and emits BENCH_pipeline.json (per-kernel cycles +
# TB-chain hit rate + registry snapshot + tier-2 superblock delta).
cargo bench -q -p risotto-bench --bench pipeline -- smoke
test -s BENCH_pipeline.json

# Schema assert: every kernel entry must carry the tier-2 "superblock"
# key with its cycle delta and cross-boundary fence-merge count, the
# cross-backend "tso" key with its cycles and MFENCE count, the tier-0
# "tier0" key with its template counters, and the whole-program
# "analysis" key (docs/ANALYSIS.md) with its relaxed-fence count and
# cycle delta — the delta must never be negative (analysis-on can only
# remove ordering cost) and at least one kernel must actually relax
# fences, or the analysis subsystem went dead. The top-level
# "cold_start" object must show tier-0 template translation strictly
# cheaper per guest instruction than the tier-1 IR pipeline (the
# simulator's only wall-time gate; the measured gap is 5.0–5.7× — about
# 0.2 vs 1.2 µs per guest instruction at smoke scale, both sides having
# gained from the shared assembler — so a strict < holds with wide
# margin on any machine). The top-level "layers" object — the
# translate-path micro-benches over one hot block, the perf ledger's
# rows — must carry all four stages with a positive time; like the
# machine loop's, the times are recorded, not gated.
python3 - BENCH_pipeline.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["kernels"]) == 16, len(doc["kernels"])
for k in doc["kernels"]:
    sb = k["superblock"]
    assert "cycle_delta" in sb and "fences_merged_cross" in sb, k["kernel"]
    tso = k["tso"]
    assert "cycles" in tso and "mfences" in tso, k["kernel"]
    t0 = k["tier0"]
    assert "cycles" in t0 and "ns_per_insn" in t0, k["kernel"]
    assert t0["blocks"] > 0, k["kernel"]
    an = k["analysis"]
    assert "relaxed" in an, k["kernel"]
    assert an["cycle_delta_vs_off"] >= 0, k["kernel"]
assert any(k["analysis"]["relaxed"] > 0 for k in doc["kernels"]), \
    "no kernel relaxed any fences"
cold = doc["cold_start"]
assert cold["tier0_insns"] > 0, cold
assert cold["tier0_ns_per_insn"] < cold["tier1_ns_per_insn"], cold
# The machine loop's wall time is recorded, not gated: an absolute
# threshold would only measure the machine CI runs on.
assert doc["machine_100k_steps_ns"] > 0, doc["machine_100k_steps_ns"]
for stage in ("template_ns", "frontend_ns", "optimizer_ns", "lower_ns"):
    assert doc["layers"][stage] > 0, (stage, doc["layers"])
EOF

# Codegen-performance gate: per-kernel simulated cycles must not exceed
# the checked-in ceilings (BENCH_baseline.json) on either tier. The
# simulator is deterministic, so any increase is a genuine codegen or
# engine regression, not noise.
python3 - BENCH_pipeline.json BENCH_baseline.json <<'EOF'
import json, sys
new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))["kernels"]
bad = []
for k in new["kernels"]:
    b = base[k["kernel"]]
    if k["cycles"] > b["cycles"]:
        bad.append(f'{k["kernel"]}: tier-1 {k["cycles"]} > baseline {b["cycles"]}')
    if k["superblock"]["tier2_cycles"] > b["tier2_cycles"]:
        bad.append(
            f'{k["kernel"]}: tier-2 {k["superblock"]["tier2_cycles"]}'
            f' > baseline {b["tier2_cycles"]}'
        )
assert not bad, "cycle regression vs BENCH_baseline.json:\n  " + "\n  ".join(bad)
EOF

# Static-analysis gate (docs/ANALYSIS.md): the analyzer over the
# 16-kernel and litmus corpora must report zero lint findings (the
# corpora are known-clean; any finding is a false positive) and at
# least one kernel with relaxable accesses.
analysis_json="$(mktemp /tmp/analysis.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin analyze -- \
    --smoke --json "$analysis_json" > /dev/null
python3 - "$analysis_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 1
assert len(doc["kernels"]) == 16, len(doc["kernels"])
for img in doc["kernels"] + doc["litmus"]:
    assert img["lints"] == [], f'{img["name"]}: false-positive lints {img["lints"]}'
assert any(k["relaxable"] > 0 for k in doc["kernels"]), "no relaxable kernel accesses"
EOF
rm -f "$analysis_json"

# Metrics-artifact smoke: fig12 at CI scale must emit a parseable,
# versioned JSON artifact with one workload entry per kernel.
metrics_json="$(mktemp /tmp/fig12_metrics.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin fig12_parsec_phoenix -- \
    --smoke --metrics-json "$metrics_json" > /dev/null
python3 - "$metrics_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 1, doc["version"]
assert len(doc["workloads"]) == 16, len(doc["workloads"])
for w in doc["workloads"]:
    assert w["metrics"]["version"] == 1
    m = w["metrics"]["metrics"]
    # The harness runs at VerifyLevel::Install: every install must have
    # been read back, with zero violations.
    assert m["verify.violations"]["value"] == 0, w["name"]
    assert m["verify.checked"]["value"] > 0, w["name"]
EOF
rm -f "$metrics_json"

# Differential-fuzz gate (docs/FUZZING.md): a seeded smoke run across
# the full oracle matrix. The binary exits nonzero on any divergence,
# validator violation, or fault-contract breach, and asserts the tier-2
# promotion-rate floor; the corpus replay itself runs inside
# `cargo test --test fuzz` above. Fixed seed: failures are replayable.
fuzz_json="$(mktemp /tmp/fuzz_metrics.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin fuzz -- \
    --smoke --seed 0xC1 --metrics-json "$fuzz_json" > /dev/null
python3 - "$fuzz_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 1, doc["version"]
m = doc["workloads"][0]["metrics"]["metrics"]
assert m["fuzz.divergences"]["value"] == 0, m["fuzz.divergences"]
assert m["fuzz.programs"]["value"] >= 300, m["fuzz.programs"]
assert m["fuzz.fault_runs"]["value"] > 0, m["fuzz.fault_runs"]
# The full oracle matrix is interp + tier0 + tier1 + tier1-noopt +
# tier2 + tier1-tso + tier1-analysis: exactly seven configurations
# per program.
assert m["fuzz.configs_run"]["value"] == 7 * m["fuzz.programs"]["value"], m
EOF
rm -f "$fuzz_json"

# Remaining figure binaries, CI-sized: every figure in the paper's
# evaluation gets exercised, not just fig12.
cargo run -q --release -p risotto-bench --bin fig13_openssl_sqlite -- --smoke > /dev/null
cargo run -q --release -p risotto-bench --bin fig14_mathlib -- --smoke > /dev/null
cargo run -q --release -p risotto-bench --bin fig15_cas -- --smoke > /dev/null

echo "ci: all green"
