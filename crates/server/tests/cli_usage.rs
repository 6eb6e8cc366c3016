//! The binaries refuse a flag whose value they cannot use: a mistyped
//! pin must fail the run, never silently switch its check off.

use std::process::{Command, Output};

const SAMPLE_MIXED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/sample_mixed.trace");

fn replay_client(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replay-client"))
        .args(["--self-serve", "--trace", SAMPLE_MIXED])
        .args(args)
        .output()
        .expect("spawn replay-client")
}

fn assert_usage_error(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
    assert!(output.stdout.is_empty(), "no report is printed");
}

#[test]
fn a_mistyped_row_pin_fails_the_run() {
    let output = replay_client(&[
        "--expect-rows",
        "1,693",
        "--expect-checksum",
        "0x2361aca91f8ddfd0",
    ]);
    assert_usage_error(&output, "--expect-rows");
}

#[test]
fn an_out_of_range_module_size_is_refused_not_wrapped() {
    // 2^32 MiB would wrap to 0 in the wire's u32 field, which asks the
    // server for its default module.
    let output = replay_client(&["--module-mib", "4294967296"]);
    assert_usage_error(&output, "--module-mib");
}

#[test]
fn a_stuck_shard_or_cycle_given_alone_is_refused_not_served() {
    // Alone, `--stuck-shard` would arm a fault plan with no stuck clock
    // and `--stuck-at` would be ignored: neither is what was asked for.
    for alone in [["--stuck-shard", "1"], ["--stuck-at", "3000"]] {
        let output = replay_client(&alone);
        assert_usage_error(&output, "--stuck-shard");
        assert_usage_error(&output, "--stuck-at");
    }
}

#[test]
fn a_flag_in_place_of_a_value_is_refused_not_used_as_a_file_name() {
    // Run in a directory of its own, so a file named `--rows` would be
    // seen and could not clobber anything.
    let dir = std::env::temp_dir().join(format!("codic-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp directory");
    let output = Command::new(env!("CARGO_BIN_EXE_replay-client"))
        .args(["--generate", "3", "--out", "--rows", "5"])
        .current_dir(&dir)
        .output()
        .expect("spawn replay-client");
    let stray = dir.join("--rows").exists();
    std::fs::remove_dir_all(&dir).expect("remove the temp directory");
    assert_usage_error(&output, "--out");
    assert!(!stray, "no file named --rows is written");
}

#[test]
fn an_ephemeral_tcp_port_is_reported_as_bound() {
    let dir = std::env::temp_dir().join(format!("codic-cli-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp directory");
    let socket = dir.join("replay.sock");
    let output = Command::new(env!("CARGO_BIN_EXE_replay-server"))
        .arg("--socket")
        .arg(&socket)
        .args(["--tcp", "127.0.0.1:0", "--connections", "0"])
        .output()
        .expect("spawn replay-server");
    std::fs::remove_dir_all(&dir).expect("remove the temp directory");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let port = stderr
        .lines()
        .find_map(|line| line.strip_prefix("replay-server: also listening on tcp 127.0.0.1:"))
        .and_then(|port| port.trim().parse::<u16>().ok());
    assert!(port.is_some_and(|p| p != 0), "a bound port: {stderr}");
}
