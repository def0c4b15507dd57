//! Runs the shipped conformance suite (`specs/*.json`) under `cargo
//! test`, and pins the runner's own guarantees: worker-count
//! byte-identity, per-binary spec coverage, per-field diffs on failure, and
//! `UPDATE_GOLDEN=1` regeneration.
//!
//! To regenerate the golden snapshots after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ev-bench --test conformance_suite
//! ```
//!
//! (or `UPDATE_GOLDEN=1 ./kick-tires.sh --quick` from the repo root).

use ev_bench::conformance::{
    discover_specs, run_spec, run_suite, Assertion, BinPaths, RunnerOptions, ScenarioSpec,
};
use std::path::PathBuf;

/// The compile-time map from spec `bin` names to the cargo-built
/// executables (the `CARGO_BIN_EXE_*` vars are only visible to tests,
/// not to the binaries themselves — the `conformance` bin resolves its
/// siblings by directory instead).
fn bin_map() -> BinPaths {
    macro_rules! bins {
        ($($name:literal),* $(,)?) => {
            BinPaths::Map(vec![$(
                ($name.to_string(), PathBuf::from(env!(concat!("CARGO_BIN_EXE_", $name)))),
            )*])
        };
    }
    bins![
        "fig1_sparsity_ops",
        "fig2_representations",
        "fig3_frame_density",
        "fig5_temporal_density",
        "fig8_single_task",
        "fig9_multi_task",
        "fig10_search",
        "table1_networks",
        "table2_accuracy",
        "ext_sweep_grid",
        "ext_autotune",
        "ext_cross_platform",
        "ext_multitask_runtime",
        "serve_sim",
        "validate_repro",
    ]
}

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn options(sandbox: &str) -> RunnerOptions {
    let mut options = RunnerOptions::new(specs_dir(), bin_map());
    options.sandbox_root = std::env::temp_dir().join(sandbox);
    options
}

/// The whole shipped suite passes at the quick budget — every figure
/// and table claim, every cross-run byte-identity constraint, and the
/// negative (must-fail) scenarios.
#[test]
fn shipped_specs_all_pass_quick() {
    let specs = discover_specs(&specs_dir()).expect("specs directory parses");
    let report = run_suite(specs, &options("conf-suite-all")).expect("suite runs");
    assert!(
        report.all_passed(),
        "conformance suite failed:\n{}",
        report.render()
    );
}

/// The suite report — JSON artifact and rendered text — is
/// byte-identical for any worker count (`parallel_try_map` collects in
/// spec order; outcomes carry no timings or machine-local paths).
#[test]
fn suite_report_is_byte_identical_across_worker_counts() {
    // A cheap subset is enough to exercise real interleaving: the
    // full-suite pass above already covers every spec once.
    let cheap = [
        "fig2-representations",
        "fig3-frame-density",
        "fig5-temporal-density",
        "fig8-bad-mode-fails-loudly",
        "table1-networks",
    ];
    let specs: Vec<ScenarioSpec> = discover_specs(&specs_dir())
        .expect("specs directory parses")
        .into_iter()
        .filter(|s| cheap.contains(&s.name.as_str()))
        .collect();
    assert_eq!(specs.len(), cheap.len(), "cheap subset should all exist");
    let opts = options("conf-suite-workers");
    let run = |workers: usize| {
        let mut opts = opts.clone();
        opts.workers = workers;
        let report = run_suite(specs.clone(), &opts).expect("suite runs");
        (
            serde_json::to_string_pretty(&report).expect("report serializes"),
            report.render(),
        )
    };
    let (json1, text1) = run(1);
    let (json8, text8) = run(8);
    assert_eq!(json1, json8, "workers=1 vs workers=8 JSON reports differ");
    assert_eq!(
        text1, text8,
        "workers=1 vs workers=8 rendered reports differ"
    );
}

/// Every binary except the `conformance` runner itself is covered by at
/// least one spec — adding a binary without a conformance spec is a test
/// failure, not a silent gap.
#[test]
fn every_bin_except_the_runner_is_covered_by_a_spec() {
    let bin_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let specs = discover_specs(&specs_dir()).expect("specs directory parses");
    let mut uncovered = Vec::new();
    for entry in std::fs::read_dir(&bin_dir).expect("bin dir lists") {
        let name = entry
            .expect("dir entry")
            .path()
            .file_stem()
            .expect("rs file")
            .to_string_lossy()
            .into_owned();
        if name != "conformance" && !specs.iter().any(|s| s.bin == name) {
            uncovered.push(name);
        }
    }
    assert!(
        uncovered.is_empty(),
        "binaries without a conformance spec: {uncovered:?}"
    );
}

/// A deliberately-failing spec reports the exact JSON paths that
/// moved: field assertions name the path, and a doctored golden
/// produces a bitwise per-field diff. Also pins `UPDATE_GOLDEN`
/// regeneration (the doctored golden is created by the runner itself).
#[test]
fn failing_spec_reports_per_field_diffs() {
    // A private specs dir so the doctored golden never touches the
    // shipped snapshots.
    let dir = std::env::temp_dir().join(format!("conf-suite-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("golden")).expect("mkdir");
    let spec = ScenarioSpec {
        name: "table1-doctored".to_string(),
        figure: "table1".to_string(),
        bin: "table1_networks".to_string(),
        args: vec![],
        artifact: true,
        must_fail: false,
        assertions: vec![
            Assertion::MatchesGolden("golden/table1.json".to_string()),
            Assertion::FieldUInt("$[0].layers".to_string(), 999),
            Assertion::FieldStr("$[5].network".to_string(), "DOTIE".to_string()),
        ],
        quick_assertions: vec![],
    };
    let mut opts = RunnerOptions::new(dir.clone(), bin_map());
    opts.sandbox_root = dir.join("sandbox");

    // First pass regenerates the golden, so only the wrong field
    // assertion fails.
    opts.update_golden = true;
    let outcome = run_spec(&spec, &opts).expect("spec runs");
    assert!(!outcome.passed);
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    assert!(
        outcome.failures[0].contains("$[0].layers"),
        "{:?}",
        outcome.failures
    );

    // Doctor the regenerated golden: an integer and the bits of a
    // float-free field would not exercise the bitwise diff, so rewrite
    // the first row's layer count.
    let golden_path = dir.join("golden/table1.json");
    let doctored = std::fs::read_to_string(&golden_path)
        .expect("golden regenerated")
        .replacen("\"layers\": 12", "\"layers\": 13", 1);
    std::fs::write(&golden_path, doctored).expect("write doctored golden");

    opts.update_golden = false;
    let outcome = run_spec(&spec, &opts).expect("spec runs");
    assert!(!outcome.passed);
    let all = outcome.failures.join("\n");
    assert!(all.contains("diverges from golden"), "{all}");
    assert!(all.contains("$[0].layers"), "per-field diff paths: {all}");
    assert!(all.contains("golden Int(13) != actual Int(12)"), "{all}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec whose scenario must fail passes only on a nonzero exit; the
/// same scenario without `must_fail` records the exit as a failure.
#[test]
fn must_fail_semantics() {
    let specs = discover_specs(&specs_dir()).expect("specs directory parses");
    let bad_mode = specs
        .iter()
        .find(|s| s.name == "fig8-bad-mode-fails-loudly")
        .expect("negative spec shipped");
    let opts = options("conf-suite-mustfail");
    let outcome = run_spec(bad_mode, &opts).expect("spec runs");
    assert!(outcome.passed, "{:?}", outcome.failures);

    let mut inverted = bad_mode.clone();
    inverted.name = "fig8-bad-mode-inverted".to_string();
    inverted.must_fail = false;
    let outcome = run_spec(&inverted, &opts).expect("spec runs");
    assert!(!outcome.passed);
    assert!(
        outcome.failures.iter().any(|f| f.contains("exited with")),
        "{:?}",
        outcome.failures
    );
}
