//! CLI behaviours not expressible as conformance specs.
//!
//! Almost all binary smoke coverage lives in `specs/*.json` (run by
//! `tests/conformance_suite.rs` and the `conformance` binary); this
//! file keeps only the fig9 playback check, which compares two stdout
//! streams — a relation between runs, not a property of one run.

use std::process::Command;

fn run_quick(exe: &str, extra: &[&str]) -> String {
    let mut cmd = Command::new(exe);
    cmd.arg("--quick").args(extra);
    let output = cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} {extra:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf-8 report")
}

/// `fig9 --playback` appends the runtime-playback table after the
/// unchanged Figure 9 report: the searches feeding both are the same.
#[test]
fn fig9_playback_flag_appends_a_runtime_playback() {
    let plain = run_quick(env!("CARGO_BIN_EXE_fig9_multi_task"), &[]);
    let played = run_quick(env!("CARGO_BIN_EXE_fig9_multi_task"), &["--playback"]);
    assert!(!plain.contains("Runtime playback"));
    let playback = played
        .strip_prefix(plain.as_str())
        .expect("--playback leaves the Figure 9 report unchanged");
    assert!(playback.contains("Runtime playback"));
    assert!(playback.contains("mixed SNN-ANN"));
}
