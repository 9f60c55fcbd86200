//! Regression tests for the hardened orchestrator: faulted clusters must
//! end in *structured*, attributed errors within the configured timeouts —
//! never a hang.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use synergy::NodeId;
use synergy_cluster::{grid_rounds, Cluster, ClusterConfig, ClusterError, CrashEvent, CrashKind};
use synergy_net::{Endpoint, ProcessId};

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

fn config(node_bin: PathBuf, data_root: PathBuf) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(3, 4, 1.7, node_bin, data_root);
    cfg.timeouts.hello = Duration::from_secs(10);
    cfg.timeouts.ctrl = Duration::from_secs(10);
    cfg
}

/// A node that dies before sending `Hello` must surface as a structured
/// `NodeDied` error naming the expected pid — detected by the accept
/// loop's child polling, far inside the hello timeout.
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

    let cfg = config(script, data_root.clone());
    let hello_timeout = cfg.timeouts.hello;
    let started = Instant::now();
    let err = match Cluster::launch(cfg) {
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
        elapsed < hello_timeout,
        "early death must be detected by child polling ({elapsed:?}), \
         not by waiting out the {hello_timeout:?} hello timeout"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A crash scheduled one past the mission's last checkpoint round would
/// never fire, and the run would verify a fault-free mission. Launch
/// refuses it, naming the last round, before it spawns any node: the stub
/// node leaves a marker file if it ever runs.
#[cfg(unix)]
#[test]
fn crash_past_the_last_round_fails_launch_before_any_node_spawns() {
    use std::os::unix::fs::PermissionsExt;

    let data_root = unique_dir("crash-past-last-round");
    let marker = data_root.join("spawned");
    let script = data_root.join("marker-node.sh");
    let stub = format!("#!/bin/sh\ntouch '{}'\nexit 7\n", marker.display());
    std::fs::write(&script, stub).expect("write stub node");
    let mut perms = std::fs::metadata(&script).expect("stat stub").permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&script, perms).expect("chmod stub");

    let mut cfg = config(script, data_root.clone());
    let last = grid_rounds(cfg.steps, cfg.tb_interval_secs);
    assert_eq!(last, 2, "4 produces on a 1.7 s grid run rounds 1 and 2");
    cfg.crashes.push(CrashEvent {
        victim: NodeId::P2,
        epoch: last + 1,
        kind: CrashKind::RoundStart,
    });
    match Cluster::launch(cfg) {
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
/// connection is detected within the control timeout, and the dead
/// process is distinguished from a wedged one.
#[test]
fn control_drop_mid_command_is_attributed_within_timeout() {
    let data_root = unique_dir("ctrl-drop");
    let cfg = config(
        PathBuf::from(env!("CARGO_BIN_EXE_synergy-node")),
        data_root.clone(),
    );
    let ctrl_timeout = cfg.timeouts.ctrl;
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");

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
        elapsed <= ctrl_timeout + Duration::from_secs(2),
        "failure must land within the control timeout, took {elapsed:?}"
    );

    // Dead-node detection also catches it without any command round-trip.
    match cluster.ensure_alive() {
        Err(ClusterError::NodeDied { pid, .. }) => assert_eq!(pid, 3),
        other => panic!("expected NodeDied from ensure_alive, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&data_root);
}

/// A peer that accepts connections but never reads must surface as typed
/// backpressure, not a hang: the overdriven node's ring fills, the blast
/// reports rejections, and the next status sweep fails fast with a
/// structured [`ClusterError::Backpressure`] naming the node.
#[test]
fn stalled_peer_surfaces_backpressure_never_a_hang() {
    let data_root = unique_dir("stalled-peer");
    let mut cfg = config(
        PathBuf::from(env!("CARGO_BIN_EXE_synergy-node")),
        data_root.clone(),
    );
    // A tiny outbound ring makes the stall observable with little traffic.
    cfg.wire_queue_bytes = Some(64 * 1024);
    let mut cluster = Cluster::launch(cfg).expect("cluster launches");

    // The stalled peer: the kernel completes handshakes via the listen
    // backlog, but nothing ever reads, so socket buffers fill and stay full.
    let stall = TcpListener::bind("127.0.0.1:0").expect("bind stall listener");
    let stall_addr = stall.local_addr().expect("stall addr").to_string();
    cluster
        .set_route(NodeId::P1Act, Endpoint::Process(ProcessId(3)), &stall_addr)
        .expect("reroute P2 to the stalled peer");

    // Overdrive the route far past ring + kernel buffers: 4000 × 16 KiB.
    let started = Instant::now();
    let (sent, rejected) = cluster
        .blast(NodeId::P1Act, Endpoint::Process(ProcessId(3)), 4000, 16384)
        .expect("blast completes");
    assert_eq!(sent + rejected, 4000);
    assert!(
        rejected > 0,
        "a never-reading peer must reject sends with backpressure \
         (sent={sent}, rejected={rejected})"
    );

    // The loss is surfaced, attributed, and fatal — the status sweep fails
    // fast instead of quiescing forever.
    match cluster.status_all() {
        Err(ClusterError::Backpressure { pid, dropped }) => {
            assert_eq!(pid, 1, "the overdriven node is named");
            assert_eq!(dropped, rejected, "every rejection is accounted");
        }
        other => panic!("expected Backpressure for pid 1, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "backpressure must surface within bounded time, took {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}
