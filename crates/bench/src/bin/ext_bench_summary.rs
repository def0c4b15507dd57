//! Hot-path benchmark summary: runs the per-event/per-frame criterion
//! groups (`e2sf`, `dsfa`, `sparse_conv`, `exec_engine`) in quick mode
//! and emits one machine-readable artifact of true medians per group —
//! the raw-speed tracking companion of the figure experiments.
//!
//! Each group is a `cargo bench` subprocess with `CRITERION_JSON` set,
//! so the vendored harness appends one JSON line of statistics per
//! benchmark; this binary aggregates them into `BENCH_hotpath.json`.
//!
//! Flags (besides the common `--quick` / `--json <path>`):
//!
//! * `--full` — full measurement budget instead of the default quick
//!   mode (quick is the default here, unlike the figure binaries).
//! * `--json <path>` — artifact path (default `BENCH_hotpath.json`).

use ev_bench::report::{
    parse_bench_records, summarize_groups, write_json, BenchRecord, CommonArgs, TextTable,
};
use serde::Serialize;
use std::path::PathBuf;
use std::process::Command;

/// The criterion groups on the per-event/per-frame hot path.
const HOT_GROUPS: &[&str] = &["e2sf", "dsfa", "sparse_conv", "exec_engine"];

#[derive(Debug, Serialize)]
struct HotPathSummary {
    quick: bool,
    groups: Vec<ev_bench::report::GroupSummary>,
}

/// Runs one bench target as a subprocess, appending its records to
/// `raw_path` through the `CRITERION_JSON` channel.
fn run_bench(
    cargo: &str,
    bench: &str,
    quick: bool,
    raw_path: &std::path::Path,
) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!(
        "running `{bench}` benchmarks{}",
        if quick { " (quick)" } else { "" }
    );
    let mut cmd = Command::new(cargo);
    cmd.args(["bench", "-p", "ev-bench", "--bench", bench, "--"]);
    if quick {
        cmd.arg("--quick");
    }
    cmd.env("CRITERION_JSON", raw_path);
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn `{cargo} bench --bench {bench}`: {e}"))?;
    if !status.success() {
        return Err(format!("`{cargo} bench --bench {bench}` failed ({status})").into());
    }
    Ok(())
}

/// Collects the records the bench subprocesses appended to `raw_path`.
fn collect_records(
    raw_path: &std::path::Path,
) -> Result<Vec<BenchRecord>, Box<dyn std::error::Error>> {
    let body = std::fs::read_to_string(raw_path)
        .map_err(|e| format!("no benchmark records at {}: {e}", raw_path.display()))?;
    let _ = std::fs::remove_file(raw_path);
    Ok(parse_bench_records(&body)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse();
    args.reject_unknown(&[], &["--full"])?;
    let quick = !args.has_flag("--full");

    let raw_path = std::env::temp_dir().join(format!("bench-hotpath-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&raw_path);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    for group in HOT_GROUPS {
        run_bench(&cargo, group, quick, &raw_path)?;
    }
    let records = collect_records(&raw_path)?;
    let groups = summarize_groups(&records);

    println!();
    println!("Hot-path medians (per criterion group):");
    println!();
    let mut table = TextTable::new(["group", "benchmarks", "group median"]);
    for group in &groups {
        table.row([
            group.group.clone(),
            group.benchmarks.len().to_string(),
            format!("{:.1} µs", group.median_us),
        ]);
    }
    print!("{}", table.render());

    let out = args
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));
    write_json(&out, &HotPathSummary { quick, groups })?;
    eprintln!("wrote {}", out.display());
    Ok(())
}
