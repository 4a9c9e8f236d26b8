//! `BENCH_pipeline.json` is its own baseline (`ci.sh` diffs a regenerated
//! copy against the checked-in one), which only works while the artifact
//! is a pure function of the source tree: any host-time field, map
//! iteration order or process-wide state leaking into it fails here.

#[test]
fn pipeline_artifact_is_identical_across_runs() {
    let first = risotto_bench::suite::pipeline_json(true);
    assert_eq!(first, risotto_bench::suite::pipeline_json(true));
}
