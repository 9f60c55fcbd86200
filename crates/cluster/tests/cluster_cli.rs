//! The `synergy-cluster` binary's command line: what it refuses, and what
//! it leaves behind in a data directory it was given.

use std::process::Command;

/// A data directory holding a file of the user's: the mission removes its
/// `node-<index>` directories and nothing else, and keeps the directory it
/// did not create.
#[test]
fn data_dir_keeps_what_the_run_did_not_create() {
    let dir = std::env::temp_dir().join(format!("synergy-cluster-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create data dir");
    let sentinel = dir.join("notes.txt");
    std::fs::write(&sentinel, "keep me").expect("write sentinel");
    let out = Command::new(env!("CARGO_BIN_EXE_synergy-cluster"))
        .args(["--steps", "2", "--kill-epoch", "0", "--data-dir"])
        .arg(&dir)
        .output()
        .expect("run synergy-cluster");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {}: {stdout}", out.status);
    assert!(stdout.contains("verified:"), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("the data dir survives")
        .map(|e| e.expect("dir entry").path())
        .collect();
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(left, [sentinel], "only the sentinel is left");
}

/// A malformed value names its flag and itself.
#[test]
fn a_bad_flag_value_names_the_flag_and_the_value() {
    let out = Command::new(env!("CARGO_BIN_EXE_synergy-cluster"))
        .args(["--steps", "x"])
        .output()
        .expect("run synergy-cluster");
    assert!(!out.status.success(), "exit {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--steps: invalid value \"x\""), "{stderr}");
}
