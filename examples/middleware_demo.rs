//! The threaded GSU-style middleware in action: real threads, real
//! channels, a live fault injection and shadow takeover.
//!
//! ```text
//! cargo run --release -p synergy-middleware --example middleware_demo
//! ```

use std::time::Duration;

use synergy_middleware::{Middleware, MiddlewareConfig, P1ACT, P1SDW, P2};

fn main() {
    println!("== GSU middleware demo (threaded runtime) ==\n");
    // Adapted TB on the wall clock: every node's host runs its TB engine and
    // the node loop tells it when a timer or a blocking period is over.
    let config = MiddlewareConfig::default().with_tb_interval(Duration::from_millis(25));
    let mw = Middleware::spawn(config);

    // Normal guarded operation: component traffic plus device commands.
    for round in 0..5 {
        mw.produce(1, false);
        mw.produce(2, false);
        if round % 2 == 0 {
            mw.produce(1, true);
        }
    }
    let mut device_msgs = 0;
    while mw
        .device_rx()
        .recv_timeout(Duration::from_millis(300))
        .is_ok()
    {
        device_msgs += 1;
    }
    println!("guarded operation: {device_msgs} validated device messages delivered");
    for pid in [P1ACT, P1SDW, P2] {
        if let Some(s) = mw.status(pid) {
            println!(
                "  {pid}: role={:?} dirty={} ckpts={} logged={} delivered={}",
                s.role, s.dirty, s.ckpts, s.logged, s.delivered
            );
        }
    }

    // The upgraded version develops a fault; its next acceptance test fails.
    println!("\ninjecting design fault into the active version...");
    mw.inject_fault(true);
    mw.produce(1, true);
    let recoveries = mw.wait_for_recoveries(1, Duration::from_secs(5));
    println!("shadow takeover completed (recoveries: {recoveries})");

    // Service continues on the promoted shadow.
    std::thread::sleep(Duration::from_millis(100));
    mw.produce(1, true);
    let served = mw.device_rx().recv_timeout(Duration::from_secs(2)).is_ok();
    println!(
        "external service after takeover: {}",
        if served { "OK" } else { "FAILED" }
    );

    let report = mw.shutdown();
    println!(
        "\nshutdown: {} software recoveries, {} node reports collected",
        report.software_recoveries,
        report.nodes.len()
    );
    for node in &report.nodes {
        println!(
            "  {}: {} stable checkpoints committed",
            node.pid, node.stable_commits
        );
    }
    assert_eq!(recoveries, 1);
    assert!(served);
    // The shadow and the peer survive the takeover; TB ran under both.
    let mut survivors = report.nodes.iter().filter(|n| n.pid != P1ACT);
    assert!(survivors.all(|n| n.stable_commits >= 1));
}
