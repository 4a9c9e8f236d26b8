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
# suite (lowering, dialect verifier, mutant kill), then the engine-level
# Pass-3 mutant kill and the BACKENDS.md completeness test in both
# directions, the tier-0 template suite (which holds the static check
# that TSO templates stay inside the TSO dialect), and both oracles over
# the one leg table (risotto_fuzz::legs: native, every setup × backend ×
# tier × analysis, risotto with chaining off and with the optimizer
# off; all at VerifyLevel::Full). The functional matrix: every kernel,
# CAS-grid, fuzz-reproducer, generated and hand-assembled program (one
# that halts with CF and OF set) must pass the run
# check the fuzzer shares (risotto_fuzz::run_checked: exit values,
# output, .data and single-core registers and flags as the reference
# interpreter ends them, a clean verifier and chain graph, the leg's
# counters, and atomics as the program's risotto/Arm/tier-1 run), and
# analysis-on runs must match their analysis-off twins. Its slices run
# in end_to_end (native and Arm tier-1), backends (TSO tier-1, and the
# generated batch 0xBAC0_0000 on every leg), templates (tier-0, ladder),
# chaining (chaining off), analysis (analysis on) and fuzz (the
# generated batch 0xD1F on every leg); in this release build the two
# generated batches run their whole programs × legs product (a debug
# build runs every 19th case). The litmus matrix: every x86 litmus
# program × stagger on every leg but no-fences must stay within the
# x86-allowed behaviors and keep the run check's leg-counter rules
# (risotto_fuzz::check_leg_counters: a clean verifier and chain graph,
# the rung's templates, no partial barrier on TSO, no chain with
# chaining off). Its slices run in
# litmus_through_dbt (Arm tier-1), backends (TSO tier-1), templates
# (tier-0), analysis (analysis on) and the verifier gate below (the
# tier-0→1 ladder). The fault sweep: the functional matrix's programs ×
# legs again, each case under one fault plan (risotto_fuzz::fault_plan,
# the site rotating), through the same run check with its per-site
# contract; its slices run in fault_sweep (kernels, CAS grid,
# reproducers, hand-assembled program; forced fallback) and fuzz (the
# generated batches), and in this release build cover all 6 222 cases.
cargo test -q --release -p risotto-host-tso
cargo test -q --release --test backends --test templates --test litmus_through_dbt --test analysis \
    --test chaining --test end_to_end --test fuzz --test fault_sweep
# `dump_translation --backend tso` must show MiniTSO code on every leg:
# no partial barrier, no exclusive pair, no Arm heading.
tso_dump="$(mktemp /tmp/dump_tso.XXXXXX.txt)"
cargo run -q --release -p risotto-bench --bin dump_translation -- all --backend tso > "$tso_dump"
if grep -E 'Barrier\((Ld|St)\)|Ldxr|MiniArm' "$tso_dump"; then
    echo "ci: dump_translation --backend tso printed Arm code" >&2
    exit 1
fi
rm -f "$tso_dump"
# The tool's two other modes: the tier-0 template dump and the
# whole-program analysis walk-through must run clean too.
cargo run -q --release -p risotto-bench --bin dump_translation -- --tiers 0 > /dev/null
cargo run -q --release -p risotto-bench --bin dump_translation -- --analysis on > /dev/null

# Mapping-table gate. The x86→TCG fence placement and the Fig. 10
# elimination rule each live once, in risotto-memmodel
# (`FencePlacement::fences`, `OptPolicy::may_cross`), next to the
# TCG→host tables (`FenceKind::arm_dmb`, `FenceKind::tso_fence`). The
# frontend, the templates, the optimizer, the verifier and the litmus
# schemes read them, so none of them may spell a TCG fence of its own
# outside its tests…
for f in crates/tcg/src/frontend.rs crates/tcg/src/verify.rs crates/tcg/src/opt.rs \
    crates/template/src/lib.rs crates/mappings/src/scheme.rs crates/mappings/src/transform.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit }
            /FenceKind::F(rr|rw|rm|wr|ww|wm|mr|mw|mm|sc)([^A-Za-z0-9_]|$)/ {
                print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' "$f"; then
        echo "ci: $f spells a TCG fence literal; read it off the shared table" >&2
        exit 1
    fi
done
# …and every row of the Theorem-1 verdict table
# (`risotto_mappings::check::table`: the verified x86→TCG, TCG→Arm
# (both RMW styles), TCG→TSO, x86→Arm (both RMW styles) and x86→TSO
# schemes, QEMU's x86→TCG and x86→Arm (GCC 9 and 10) schemes, the Fig. 3
# intended mapping under both Arm models, and the no-fences oracle) must
# fail exactly on its corpus programs and on its number of family
# programs. x86 rows read the 11-program x86 corpus and all 1 225
# two-thread length-2 programs; TCG rows read them through the verified
# x86→TCG row, plus the 48 TCG fence patterns. The binary asserts every
# row, and its stdout is results/verify.txt: fail if the two differ.
verify_out="$(mktemp /tmp/verify_mappings.XXXXXX.txt)"
cargo run -q --release -p risotto-bench --bin verify_mappings > "$verify_out"
if ! cmp -s "$verify_out" results/verify.txt; then
    diff "$verify_out" results/verify.txt >&2 || true
    echo "ci: results/verify.txt is stale — regenerate it from verify_mappings" >&2
    exit 1
fi
rm -f "$verify_out"

# Verifier gate: the translation-validator suite (mutation tests over
# the 16-kernel corpus) in the release build, at full size. Any
# clean-corpus violation or surviving mutant fails CI. It also runs the
# ladder legs of the litmus matrix at VerifyLevel::Full; the other legs
# run in the cross-backend gate.
cargo test -q --release --test verifier

# Determinism gate: the same IR must lower to bit-identical host bytes
# and allocation statistics twice, across the kernel/litmus/fuzz
# corpora, under both RMW styles — and across versions: host bytes,
# OptStats and AllocStats over the same corpora on both backends must
# reproduce the checked-in hash (and host bytes and AllocStats alone a
# second one), and a block must come out of scratch tables that have
# seen the whole corpus (failed translations included) exactly as it
# does out of fresh ones.
cargo test -q --release --test determinism

# Allocation-budget gate, in the build the benchmark measures: heap
# allocations per translated block (VerifyLevel::Full and Install) and
# per Emulator::new stay under their ceilings, and stepping a warm loop
# on a bare Machine allocates nothing (tests/alloc_budget.rs prints the
# measured figures).
cargo test -q --release --test alloc_budget

# Machine-loop gate, in the build the benchmark measures: how a run's
# fuel is sliced must not matter — one step per `run` call must leave the
# same clocks, counters, memory and atomic order as `run(7)`, `run(1000)`
# and `run(u64::MAX)`, fuel running out mid-quantum included — and a
# completed run must end as it does with a scheduler pick before every
# step: hand-built multi-core programs against the unit suite's
# per-step reference (`machine.rs`), and the CAS grid and the kernels
# through the engine against the checked-in per-step-scan hash
# (`SCHEDULE_HASH` in tests/slice_invariance.rs) — an atomic must be the
# same read-modify-write as an instruction (`casal`, `ldaddal`) and as a
# helper (`CmpxchgSc`, `XaddSc`): same memory, atomic log, count,
# cleared foreign monitor and contention charge, the lost
# compare-exchange included; the count of armed exclusive monitors, which
# lets a write skip the monitor walk, must follow every `ldxr`, `stxr`,
# foreign drain and engine-side store; the machine's one schedule — the smallest
# `(clock, index)` first, bounded by the runner-up's — must give the
# documented pick and bound over a hand-written clock array, and no pick
# when nothing is runnable (same unit suite, `machine.rs` and
# `sched.rs`); the pre-decoded code table must never serve an
# instruction from bytes that were patched, corrupted, freed or reused,
# and the ring store buffer must drain, forward and report overlaps
# exactly as the `VecDeque` it replaced over 200 000 seeded operations,
# deadline included, and the per-core contention slots must count the
# contenders the `Vec` they replaced counted, on 1 to 8 cores (same unit
# suite; `SparseMem`'s word-wide accessors against
# their byte-wise definition ride along in guest-x86's). The code cache's
# seeded churn (`code_cache.rs`: 50 000 install / map / remap / unmap /
# replace / discard / corrupt / link / park operations) must leave,
# after every one, regions and holes tiling the buffer, every mapping on
# a live region, no stale chain word, chain site, jump-cache entry or
# decode; risotto-core's unit suite holds the engine's per-pc record
# (stable id, tier-0 flag) to the same build. So is what
# that build reports about itself (tests/obs.rs): the metric table and
# docs/METRICS.md name the same metrics, a snapshot's machine-wide rows
# add up from its per-core and per-fence-kind rows on every kernel and
# both backends, an instrumented run's snapshot equals the plain
# run's as a whole and two traced runs record the same events, and each
# tier leg's counters show the blocks that went through it.
cargo test -q --release -p risotto-host-arm -p risotto-guest-x86 -p risotto-core
cargo test -q --release --test slice_invariance --test obs

# Paper-figure artifact, its own baseline: BENCH_pipeline.json (the 16
# kernels in smoke mode — simulated cycles, chain counters, the MiniTSO
# / analysis / tier-0 legs, the base run's metrics snapshot) is a pure
# function of the source tree. Keep the checked-in copy aside,
# regenerate, and fail if a kernel's tier-1 cycles rose (a genuine
# codegen or engine regression — the checked-in copy is put back, so a
# re-run fails again) or if the regenerated file differs at all (it is
# left in place: review the diff and commit it).
checked_in="$(mktemp /tmp/bench_pipeline.XXXXXX.json)"
cp BENCH_pipeline.json "$checked_in"
cargo bench -q -p risotto-bench --bench pipeline -- smoke
# The suite itself panics if a leg's results differ from the base run's,
# if the analysis leg's cycles move without a relaxed fence or do not
# fall with one, or if the tier-0 leg translates nothing. On top: the
# same rule read off the file (analysis only removes fences, so a kernel
# that relaxes none runs in exactly the analysis-off cycles; that
# relaxing saves cycles is checked on kernels here and on kernels and
# the CAS grid in the functional matrix, and is no law: the fuzz
# reproducer spawn_cas_contention relaxes 31 fences, saves 1 138 fence
# cycles, retries 13 more CAS and ends 458 cycles later), and the
# kernels whose analysis leg actually removes fences must be exactly the
# five named below (one fewer and the analysis got weaker, one more and
# a relaxation appeared that nobody reviewed; swaptions, relaxable at
# the scale 4 the `analyze --smoke` gate builds, carries a poison at
# this suite's scale 16).
python3 - "$checked_in" BENCH_pipeline.json <<'EOF'
import json, sys
base = {k["kernel"]: k for k in json.load(open(sys.argv[1]))["kernels"]}
doc = json.load(open(sys.argv[2]))
assert len(doc["kernels"]) == 16, len(doc["kernels"])
bad = []
for k in doc["kernels"]:
    name, b = k["kernel"], base[k["kernel"]]
    if k["cycles"] > b["cycles"]:
        bad.append(f'{name}: tier-1 {k["cycles"]} > checked-in {b["cycles"]}')
    an = k["analysis"]
    if an["relaxed"] == 0:
        assert an["cycle_delta_vs_off"] == 0, f"{name}: nothing relaxed, yet {an}"
    else:
        assert an["cycle_delta_vs_off"] > 0, f"{name}: relaxed fences saved nothing: {an}"
relaxed = {k["kernel"] for k in doc["kernels"] if k["analysis"]["relaxed"] > 0}
assert relaxed == {"freqmine", "streamcluster", "linearregression", "pca", "stringmatch"}, \
    f"kernels that relax fences changed: {sorted(relaxed)}"
if bad:
    open(sys.argv[2], "w").write(open(sys.argv[1]).read())
    sys.exit("cycle regression vs the checked-in BENCH_pipeline.json:\n  " + "\n  ".join(bad))
EOF
if ! cmp -s "$checked_in" BENCH_pipeline.json; then
    echo "ci: BENCH_pipeline.json is stale — review and commit the regenerated file" >&2
    exit 1
fi
rm -f "$checked_in"

# One host clock: `benchmark/` measures host time and nothing in the
# workspace reads a clock, so every metric, trace event and artifact the
# workspace produces is a deterministic count.
if grep -rnE "std::time|Instant::|\.elapsed\(\)|SystemTime" crates src; then
    echo "ci: host time is benchmark/'s; crates/ and src/ read no clock" >&2
    exit 1
fi

# One config surface: an emulator is configured once, by the `EmuConfig`
# `Emulator::with_config` builds it from. No setter that configured it
# afterwards may come back, and only the frozen `benchmark/` replay still
# calls the three `#[doc(hidden)]` shims left for it — ROADMAP item 6(b)
# is the PR that deletes them.
if grep -rnE "fn set_(rmw_style|backend|passes|fault_plan|sched_policy|chaining|profiling|watchdog|atomic_log)\b" crates/core/src; then
    echo "ci: an Emulator setting is an EmuConfig field, not a setter" >&2
    exit 1
fi
# Discrete-event order is the machine's one schedule: the seeded and
# adversarial policies, their knob and their setter stay deleted.
if grep -rnE "SchedPolicy|set_sched_policy" crates src tests examples; then
    echo "ci: the machine has one schedule; SchedPolicy/set_sched_policy are gone" >&2
    exit 1
fi
# One dispatch per machine step: each arm of `Machine::step` decides
# whether its instruction is core-local, from the operands and the one
# store-buffer probe it computes anyway. The separate locality check and
# its second match on the decoded instruction stay deleted.
step_matches="$(awk '/^mod tests/ { exit } /match \*?insn([^A-Za-z0-9_]|$)/ { n++ }
                     END { print n + 0 }' \
    crates/host-arm/src/machine.rs)"
if grep -rnE "fn is_core_local" crates src tests examples || [ "$step_matches" -ne 1 ]; then
    echo "ci: Machine::step matches a decoded instruction once, in the arm that runs it" >&2
    exit 1
fi
if grep -rnE "\.set_(verify|tiering|analysis)\(" crates src tests examples; then
    echo "ci: set_verify/set_tiering/set_analysis are benchmark/'s replay shims" \
        "until ROADMAP item 6(b) deletes them; build an EmuConfig instead" >&2
    exit 1
fi

# One differential oracle: the leg table and the run check live in
# risotto_fuzz::diff, and the fuzzer names its runs as legs of that
# table. Its own warm threshold, configuration enum and run helpers stay
# deleted.
if grep -rnE "FUZZ_HOT_THRESHOLD|enum Config\b|fn (emu_config|run_config)\b" crates src tests examples; then
    echo "ci: the fuzzer's runs are legs of risotto_fuzz::legs, checked by run_checked" >&2
    exit 1
fi

# One fault oracle: a fault plan is one more input of the one run check
# (risotto_fuzz::run_checked), with one contract per fault site, and every
# plan comes from one generator (risotto_fuzz::fault_plan). The private
# fault check, the second plan generator and the fault sweep's own
# interpreter reference stay deleted.
if grep -rnE "fn (fault_check|plan_for|random_fault_plan)\b" crates src tests examples ||
    grep -n "Interp::new" tests/fault_sweep.rs; then
    echo "ci: a fault plan is an input of risotto_fuzz::run_checked, made by fault_plan" >&2
    exit 1
fi

# One counter surface: `Report` is the run's result (cycles, exit
# values, output, translated blocks, code size) and every count is a row
# of `Emulator::metrics()`. None of the deleted second copies may come
# back: the template counter struct, the hot-TB aggregator type, the
# `Report` / `Emulator` readers that duplicated a row, or the
# observational block profile (the machine counts block entries only to
# promote, while a hot threshold is set).
if grep -rnE "TemplateStats|HotTbProfiler|fn chain_hit_rate|fn template_stats|hot_tbs|struct HotTb|TbProf|tb_profile|set_profiling" crates src; then
    echo "ci: a count is a row of Emulator::metrics(), read off its snapshot" >&2
    exit 1
fi

# Host-time facts, from the one harness that measures host time (the
# calibrated `benchmark/` package; `crates/bench` reports simulated
# cycles only): tier-0 template translation must be cheaper per guest
# instruction than the tier-1 IR pipeline measured in the same process
# (`core.ir_overhead_ratio`, the figure ROADMAP item 9's tier-0 decision
# gate reads), no operation may fail, and each translate stage and the
# machine loop must report a positive time. Same-process ratios and
# signs only: an absolute threshold would measure the machine CI runs on.
# The two op counts are deterministic, so they get thresholds: the
# frontend must not go back to computing every flag writer's flags
# (3.83 TCG ops per guest instruction, 7.52 when it did), and the
# optimizer never hands on more ops than it was given.
layers_json="$(mktemp /tmp/translate_cold.XXXXXX.json)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload translate_cold --smoke --trace 1 --out "$layers_json" > /dev/null
python3 - "$layers_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
m = {name: v["value"] for name, v in doc["metrics"].items()}
assert doc["failed"] == 0, doc["failed"]
assert m["core.ir_overhead_ratio"] > 1, m["core.ir_overhead_ratio"]
assert m["tcg.frontend_ops_per_insn"] < 4.5, m["tcg.frontend_ops_per_insn"]
assert m["tcg.opt_ops_per_insn"] <= m["tcg.frontend_ops_per_insn"], \
    (m["tcg.opt_ops_per_insn"], m["tcg.frontend_ops_per_insn"])
for row in ("template.translate_ns_per_insn", "tcg.frontend_ns_per_insn",
            "tcg.opt_ns_per_insn", "host_arm.lower_ns_per_insn",
            "host_arm.machine_step_ns.alu"):
    assert m[row] > 0, (row, m[row])
EOF
rm -f "$layers_json"

# Static-analysis gate (docs/ANALYSIS.md): over the 16-kernel corpus the
# analyzer must find relaxable accesses in exactly the six kernels named
# below — the poison-free ones with a private or read-only site. The
# facts themselves (every site, poison, instance and refined loop over
# the kernels, the CAS grid, the litmus and fuzz corpora and the
# benchmark's generated programs) are pinned by `FACTS_HASH` in
# tests/analysis.rs, which `cargo test` above runs.
analysis_json="$(mktemp /tmp/analysis.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin analyze -- \
    --smoke --json "$analysis_json" > /dev/null
python3 - "$analysis_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 2, doc["version"]
assert len(doc["kernels"]) == 16, len(doc["kernels"])
relaxable = {k["name"] for k in doc["kernels"] if k["relaxable"] > 0}
assert relaxable == {"freqmine", "streamcluster", "swaptions",
                     "linearregression", "pca", "stringmatch"}, \
    f"kernels with relaxable accesses changed: {sorted(relaxable)}"
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
assert doc["version"] == 2, doc["version"]
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

# Differential-fuzz gate (docs/FUZZING.md): a seeded smoke run of the
# interpreter and the five legs of risotto_fuzz::FUZZ_LEGS — risotto/
# Arm/tier-1, the same with the optimizer off, on the tier-0→1 ladder,
# on the TSO backend and with analysis on — each run through the run
# check the functional matrix shares. The binary exits nonzero on any
# divergence, validator violation, or fault-contract breach; the corpus
# replay itself runs inside `cargo test --test fuzz` above. Fixed seed:
# failures are replayable. The artifact holds the driver's own five
# counters (docs/FUZZING.md § Metrics), nothing else.
fuzz_json="$(mktemp /tmp/fuzz_metrics.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin fuzz -- \
    --smoke --seed 0xC1 --metrics-json "$fuzz_json" > /dev/null
python3 - "$fuzz_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 2, doc["version"]
m = doc["workloads"][0]["metrics"]["metrics"]
assert all(name.startswith("fuzz.") for name in m), sorted(m)
assert m["fuzz.divergences"]["value"] == 0, m["fuzz.divergences"]
assert m["fuzz.programs"]["value"] >= 300, m["fuzz.programs"]
assert m["fuzz.fault_runs"]["value"] > 0, m["fuzz.fault_runs"]
# The interpreter and the five legs: exactly six runs per program.
assert m["fuzz.configs_run"]["value"] == 6 * m["fuzz.programs"]["value"], m
EOF
rm -f "$fuzz_json"

# Remaining figure binaries, CI-sized: every figure in the paper's
# evaluation gets exercised, not just fig12.
cargo run -q --release -p risotto-bench --bin fig13_openssl_sqlite -- --smoke > /dev/null
cargo run -q --release -p risotto-bench --bin fig14_mathlib -- --smoke > /dev/null
# The committed paper-vs-measured record: each figure and ablation file
# under results/ is its binary's full-size stdout, every number in it a
# simulated count, so it must match byte for byte.
for pair in fig12:fig12_parsec_phoenix fig13:fig13_openssl_sqlite fig14:fig14_mathlib \
    fig15:fig15_cas ablation_passes:ablation_passes ablation_cas:ablation_cas; do
    file="results/${pair%%:*}.txt"
    out="$(mktemp /tmp/results.XXXXXX.txt)"
    cargo run -q --release -p risotto-bench --bin "${pair#*:}" > "$out"
    if ! cmp -s "$out" "$file"; then
        diff "$out" "$file" >&2 || true
        echo "ci: $file is stale — regenerate it from ${pair#*:}" >&2
        exit 1
    fi
    rm -f "$out"
done
# fig15 is the run whose cycles move first if a scheduler pick or a
# contention sweep stops being deterministic (the CAS grid at 1, 2 and 4
# cores): run it twice and compare the tables.
cas_a="$(mktemp /tmp/fig15_cas.XXXXXX.txt)"
cas_b="$(mktemp /tmp/fig15_cas.XXXXXX.txt)"
cargo run -q --release -p risotto-bench --bin fig15_cas -- --smoke > "$cas_a"
cargo run -q --release -p risotto-bench --bin fig15_cas -- --smoke > "$cas_b"
if ! cmp "$cas_a" "$cas_b"; then
    echo "ci: fig15_cas --smoke printed two different tables" >&2
    exit 1
fi
rm -f "$cas_a" "$cas_b"

echo "ci: all green"
