//! The bench binaries parse flags with the serving binaries' parser: a
//! mistyped value fails the run instead of silently timing the default.

use std::process::Command;

#[test]
fn a_mistyped_trial_count_fails_the_run() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_mc"))
        .args(["--trials", "5,000", "--reps", "1"])
        .output()
        .expect("spawn bench_mc");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--trials"),
        "the error names --trials: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no report is printed");
}
