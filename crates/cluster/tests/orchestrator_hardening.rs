//! Regression tests for the hardened orchestrator: faulted clusters must
//! end in *structured*, attributed errors within the control timeouts —
//! never a hang.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use synergy::{CrashEvent, CrashKind, NodeId};
use synergy_cluster::{grid_rounds, Cluster, ClusterConfig, ClusterError};
use synergy_storage::{DiskFault, DiskFaultPlan, DiskOp};

fn unique_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "synergy-hardening-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create data root");
    dir
}

/// The mission every hardening test runs: seed 3, four produces.
fn config() -> ClusterConfig {
    ClusterConfig::new(3, 4)
}

fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_synergy-node"))
}

/// A node that dies before sending `Hello` must surface as a structured
/// `NodeDied` error naming the expected pid — detected by the accept
/// loop's child polling, far inside the 20 s hello timeout.
#[cfg(unix)]
#[test]
fn node_dead_before_hello_fails_fast_and_structured() {
    use std::os::unix::fs::PermissionsExt;

    let data_root = unique_dir("dead-before-hello");
    let script = data_root.join("dead-node.sh");
    std::fs::write(&script, "#!/bin/sh\nexit 7\n").expect("write stub node");
    let mut perms = std::fs::metadata(&script).expect("stat stub").permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&script, perms).expect("chmod stub");

    let started = Instant::now();
    let err = match Cluster::launch(config(), &script, &data_root) {
        Err(e) => e,
        Ok(_) => panic!("launch must fail when the node exits before Hello"),
    };
    let elapsed = started.elapsed();
    match &err {
        ClusterError::NodeDied { pid, detail } => {
            assert_eq!(*pid, 1, "the first spawned node is attributed");
            assert!(
                detail.contains("before sending Hello"),
                "detail explains the phase: {detail}"
            );
        }
        other => panic!("expected NodeDied, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "early death must be detected by child polling ({elapsed:?}), \
         not by waiting out the hello timeout"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A stub node under `dir` that leaves a marker file if it ever runs;
/// returns `(script, marker)`.
#[cfg(unix)]
fn marker_node(dir: &Path) -> (PathBuf, PathBuf) {
    use std::os::unix::fs::PermissionsExt;

    let marker = dir.join("spawned");
    let script = dir.join("marker-node.sh");
    let stub = format!("#!/bin/sh\ntouch '{}'\nexit 7\n", marker.display());
    std::fs::write(&script, stub).expect("write stub node");
    let mut perms = std::fs::metadata(&script).expect("stat stub").permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&script, perms).expect("chmod stub");
    (script, marker)
}

/// A crash scheduled one past the mission's last checkpoint round would
/// never fire, and the run would verify a fault-free mission. Launch
/// refuses it, naming the last round, before it spawns any node: the stub
/// node leaves a marker file if it ever runs.
#[cfg(unix)]
#[test]
fn crash_past_the_last_round_fails_launch_before_any_node_spawns() {
    let data_root = unique_dir("crash-past-last-round");
    let (script, marker) = marker_node(&data_root);
    let mut cfg = config();
    let last = grid_rounds(cfg.steps);
    assert_eq!(last, 2, "4 produces on a 1.7 s grid run rounds 1 and 2");
    cfg.crash = Some(CrashEvent {
        victim: NodeId::P2,
        epoch: last + 1,
        kind: CrashKind::RoundStart,
    });
    match Cluster::launch(cfg, &script, &data_root) {
        Err(ClusterError::Launch { detail }) => {
            assert!(detail.contains("crash epoch 3"), "{detail}");
            assert!(detail.contains("1..=2"), "names the last round: {detail}");
        }
        Err(other) => panic!("expected a launch rejection, got {other:?}"),
        Ok(_) => panic!("launch must reject a crash no round reaches"),
    }
    assert!(!marker.exists(), "no node process was spawned");
    let _ = std::fs::remove_dir_all(&data_root);
}

/// Killing a live node and then issuing a command must produce a
/// structured error attributed to that node's pid — the dropped control
/// connection is detected well inside the 20 s control timeout, and the
/// dead process is distinguished from a wedged one.
#[test]
fn control_drop_mid_command_is_attributed_within_timeout() {
    let data_root = unique_dir("ctrl-drop");
    let mut cluster = Cluster::launch(config(), &node_bin(), &data_root).expect("cluster launches");

    cluster.kill_node(NodeId::P2).expect("kill the victim");
    let started = Instant::now();
    let err = match cluster.status_all() {
        Err(e) => e,
        Ok(s) => panic!("status sweep must fail after the kill, got {s:?}"),
    };
    let elapsed = started.elapsed();
    match &err {
        ClusterError::NodeDied { pid, .. } => {
            assert_eq!(*pid, 3, "failure names the killed node");
        }
        other => panic!("expected NodeDied for pid 3, got {other:?}"),
    }
    assert!(
        elapsed <= Duration::from_secs(12),
        "failure must land well inside the control timeout, took {elapsed:?}"
    );

    // Dead-node detection also catches it without any command round-trip.
    match cluster.ensure_alive() {
        Err(ClusterError::NodeDied { pid, .. }) => assert_eq!(pid, 3),
        other => panic!("expected NodeDied from ensure_alive, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&data_root);
}

/// An orchestrator that dies without an orderly shutdown closes its end of
/// every control connection. The node must take that as the end of the
/// mission and exit, its durable state left on disk, instead of running on
/// as an orphan.
#[test]
fn a_node_exits_when_its_control_connection_closes() {
    use std::io::Read;

    let data_root = unique_dir("ctrl-closed");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind control listener");
    let mut node = std::process::Command::new(env!("CARGO_BIN_EXE_synergy-node"))
        .args(["--pid", "3", "--seed", "1", "--data-dir"])
        .arg(&data_root)
        .arg("--ctrl")
        .arg(listener.local_addr().expect("listener addr").to_string())
        .spawn()
        .expect("spawn synergy-node");
    let (mut stream, _) = listener.accept().expect("the node connects");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("Hello length");
    let mut hello = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut hello).expect("Hello payload");
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        match node.try_wait().expect("poll the node") {
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            status => break status,
        }
    };
    if status.is_none() {
        let _ = node.kill();
        let _ = node.wait();
    }
    let _ = std::fs::remove_dir_all(&data_root);
    let status = status.expect("the node exits within 5 s of its control connection closing");
    assert!(status.success(), "the node exits cleanly: {status}");
}

/// A crash round checks its survivors as an ordinary round checks every
/// node: when the victim dies mid-round and a survivor's disk refuses to
/// stage the round's write more often than the node retries, the run fails
/// with a protocol error naming that survivor, instead of committing the
/// survivors' round without it.
#[test]
fn a_survivor_that_stages_no_write_fails_a_mid_round_crash() {
    let data_root = unique_dir("survivor-no-write");
    let mut cfg = config();
    let epoch = 2;
    cfg.crash = Some(CrashEvent {
        victim: NodeId::P2,
        epoch,
        kind: CrashKind::MidRound,
    });
    // Every begin of P1act's round-`epoch` write fails: a node retries 8 times.
    cfg.disk_plans = vec![DiskFaultPlan {
        faults: vec![DiskFault {
            seq: epoch,
            op: DiskOp::Begin,
            times: 64,
        }],
    }];
    let survivor = NodeId::P1Act.pid().0;
    let outcome = Cluster::launch(cfg, &node_bin(), &data_root).and_then(Cluster::run);
    let _ = std::fs::remove_dir_all(&data_root);
    match outcome {
        Err(ClusterError::Protocol { detail }) => {
            assert!(
                detail.starts_with(&format!("pid {survivor}: round did not stage a write")),
                "{detail}"
            );
        }
        Err(other) => panic!("expected a protocol error for pid {survivor}, got {other:?}"),
        Ok(_) => panic!("the run must fail when a survivor stages no write"),
    }
}
