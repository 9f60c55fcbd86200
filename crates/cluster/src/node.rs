//! One cluster node process: a `NodeRunner` over the TCP data plane and
//! a durable on-disk stable store, driven by the orchestrator's control
//! connection.
//!
//! Boot sequence:
//!
//! 1. Open (or recover) the node's [`DeltaStable`] chain over a
//!    [`TieredStore`]: the data directory's disk tier, mirrored to the
//!    archive tier (which rebuilds a wiped disk). A leftover in-flight temp
//!    file from a killed incarnation is detected here as a torn write;
//!    committed records are CRC-verified and chain-walked, and any record
//!    rejected by either (bit-rot) is skipped in favour of the previous
//!    checkpoint. The store is then wrapped in a [`FaultyStable`] applying
//!    the campaign's disk-fault plan.
//! 2. Bind the [`ReactorTransport`] on an ephemeral port, wrap it in a
//!    [`FaultyTransport`] applying the campaign's link-fault plan, and
//!    start the node event loop under `TbDrive::Commanded` — checkpoint
//!    rounds are driven by the orchestrator, not by wall-clock timers,
//!    which keeps a distributed mission deterministic. A send to a full
//!    route ring waits up to [`WirePolicy::send_stall`] (2 s on a node),
//!    then drops the envelope and counts it in [`WireStatus::backpressure`],
//!    which the orchestrator treats as fatal: a dropped data-plane frame
//!    breaks per-link FIFO.
//! 3. Connect back to the orchestrator, announce
//!    `Hello` (data port + recovered epoch + torn-write
//!    and corrupt-record counts), then serve control commands in lockstep.
//!
//! All three fault plans — link, disk and archive — default to inert, in
//! which case the wrappers are zero-overhead passthroughs; the orchestrator
//! ships non-trivial plans as hex-encoded codec values on the command line
//! (`--chaos-link`, `--chaos-disk`, `--chaos-archive`).
//!
//! A restarted node does **not** restore itself: per the paper's global
//! rollback, the *orchestrator* computes the epoch line across the cluster
//! and commands `Rollback` on every node, the
//! restarted one included.

use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use synergy_archive::{
    ArchiveFaultPlan, ArchiveHandle, DeltaStable, DirObjectStore, FaultyObjectStore, ObjectStore,
    TieredStore,
};
use synergy_clocks::SyncParams;
use synergy_codec::Codec;
use synergy_des::SimDuration;
use synergy_net::{
    Endpoint, FaultyTransport, LinkFaultPlan, ProcessId, ReactorTransport, WirePolicy,
};
use synergy_storage::{DiskFaultPlan, FaultyStable, Stable};
use synergy_tb::{TbConfig, TbVariant};

use crate::ctrl::{recv_ctrl, send_ctrl, CtrlMsg, CtrlReply, WireStatus};
use crate::runner::{spawn_net_pump, NodeCmd, NodeInput, NodeRunner, SupEvent, TbDrive};

/// Boot parameters of one node process (parsed from `synergy-node` argv).
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// Process id: 1 = `P1act`, 2 = `P1sdw`, 3 = `P2`.
    pub pid: u32,
    /// Mission seed (must match the orchestrator's).
    pub seed: u64,
    /// Directory holding this node's stable storage.
    pub data_dir: PathBuf,
    /// `host:port` of the orchestrator's control listener.
    pub ctrl_addr: String,
    /// TB checkpoint interval in milliseconds (grid spacing for epoch
    /// bookkeeping; rounds themselves are commanded).
    pub tb_interval_ms: u64,
    /// Link-fault plan applied to this node's outbound data plane.
    pub link_plan: LinkFaultPlan,
    /// Stable-storage fault plan applied to this node's disk store.
    pub disk_plan: DiskFaultPlan,
    /// Checkpoint-chain cadence: full image every `delta_k` stable commits,
    /// CRC-chained deltas between (`--delta-k`, at least 1). The default 1
    /// makes every record a full image.
    pub delta_k: u32,
    /// Directory backing this node's archive tier (`--archive-dir`); it
    /// outlives the data directory, so a wiped node rehydrates from it.
    pub archive_dir: PathBuf,
    /// Fault plan applied to the archive tier (`--chaos-archive`).
    pub archive_plan: ArchiveFaultPlan,
}

/// Encodes a codec value as lowercase hex for command-line transport.
pub(crate) fn plan_to_hex<T: Codec>(value: &T) -> String {
    let bytes = synergy_codec::to_bytes(value).expect("fault plans always encode");
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes a hex-encoded codec value shipped on the command line.
///
/// # Errors
///
/// Malformed hex or a codec decode failure.
pub(crate) fn plan_from_hex<T: Codec>(hex: &str) -> Result<T, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex plan".into());
    }
    // Byte pairs, not `str` slices: a multi-byte character in argv must be
    // an error, not a slice across a char boundary.
    let nibble = |b: u8| char::from(b).to_digit(16);
    let bytes: Vec<u8> = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| Some(((nibble(pair[0])? << 4) | nibble(pair[1])?) as u8))
        .collect::<Option<_>>()
        .ok_or("bad hex plan")?;
    synergy_codec::from_bytes(&bytes).map_err(|e| format!("bad plan encoding: {e}"))
}

impl NodeOpts {
    /// Parses node options from `argv` (without the program name); shared
    /// by `synergy-node` and the chaos crate's node wrapper binary.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values or required flags, a `--pid` outside
    /// 1–3, a zero `--tb-interval-ms` or `--delta-k`, malformed plan
    /// encodings, or a link or archive plan that fails its `validate`.
    pub fn from_args<I: Iterator<Item = String>>(mut args: I) -> Result<Self, String> {
        let mut pid = None;
        let mut seed = None;
        let mut data_dir = None;
        let mut ctrl_addr = None;
        let mut tb_interval_ms = 1700u64;
        let mut link_plan = LinkFaultPlan::default();
        let mut disk_plan = DiskFaultPlan::default();
        let mut delta_k = 1u32;
        let mut archive_dir = None;
        let mut archive_plan = ArchiveFaultPlan::default();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--pid" => {
                    let p = value()?.parse::<u32>().map_err(|e| e.to_string())?;
                    if !(1..=3).contains(&p) {
                        return Err(format!("--pid must be 1, 2 or 3, got {p}"));
                    }
                    pid = Some(p);
                }
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
                "--ctrl" => ctrl_addr = Some(value()?),
                "--tb-interval-ms" => {
                    tb_interval_ms = value()?.parse::<u64>().map_err(|e| e.to_string())?;
                    if tb_interval_ms == 0 {
                        return Err("--tb-interval-ms must be positive".into());
                    }
                }
                "--chaos-link" => link_plan = plan_from_hex(&value()?)?,
                "--chaos-disk" => disk_plan = plan_from_hex(&value()?)?,
                "--chaos-archive" => archive_plan = plan_from_hex(&value()?)?,
                "--delta-k" => {
                    delta_k = value()?.parse::<u32>().map_err(|e| e.to_string())?;
                    if delta_k < 1 {
                        return Err("--delta-k must be at least 1".into());
                    }
                }
                "--archive-dir" => archive_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        link_plan
            .validate()
            .map_err(|e| format!("--chaos-link: {e}"))?;
        archive_plan
            .validate()
            .map_err(|e| format!("--chaos-archive: {e}"))?;
        Ok(NodeOpts {
            pid: pid.ok_or("--pid is required")?,
            seed: seed.ok_or("--seed is required")?,
            data_dir: data_dir.ok_or("--data-dir is required")?,
            ctrl_addr: ctrl_addr.ok_or("--ctrl is required")?,
            tb_interval_ms,
            link_plan,
            disk_plan,
            delta_k,
            archive_dir: archive_dir.ok_or("--archive-dir is required")?,
            archive_plan,
        })
    }
}

/// How many reconstructed checkpoints a node serves: the rollback span the
/// orchestrator may command.
const SERVED_EPOCHS: usize = 64;

/// Builds the archive-tier object store under the node's archive fault
/// plan (an inert plan passes every operation through).
fn build_archive(opts: &NodeOpts) -> io::Result<Box<dyn ObjectStore>> {
    let inner = DirObjectStore::open(&opts.archive_dir)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Box::new(FaultyObjectStore::new(
        inner,
        opts.archive_plan.clone(),
    )))
}

/// Opens (or recovers) the node's stable store: the delta chain at cadence
/// `opts.delta_k` over the local disk tier, mirrored to the archive tier.
/// The disk keeps `SERVED_EPOCHS + k − 1` records — what
/// [`DeltaStable`] requires so no served delta outlives its base.
fn open_store(opts: &NodeOpts) -> io::Result<(DeltaStable<TieredStore>, ArchiveHandle)> {
    let disk_retain = SERVED_EPOCHS + opts.delta_k as usize - 1;
    let tiered = TieredStore::open(&opts.data_dir, disk_retain, build_archive(opts)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let archive = tiered.handle();
    let store = DeltaStable::open_with_retention(tiered, opts.delta_k, SERVED_EPOCHS);
    Ok((store, archive))
}

pub(crate) fn tb_config(interval_ms: u64) -> TbConfig {
    TbConfig::new(
        TbVariant::Adapted,
        SimDuration::from_millis(interval_ms),
        SyncParams::new(SimDuration::from_micros(500), 0.0),
        SimDuration::from_micros(50),
        SimDuration::from_millis(2),
    )
}

fn send_cmd(input_tx: &Sender<NodeInput>, cmd: NodeCmd) -> io::Result<()> {
    input_tx
        .send(NodeInput::Cmd(cmd))
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))
}

/// Sends the command `cmd` builds around a reply channel and waits for the
/// reply.
fn ask<R>(input_tx: &Sender<NodeInput>, cmd: impl FnOnce(Sender<R>) -> NodeCmd) -> io::Result<R> {
    let (tx, rx) = channel();
    send_cmd(input_tx, cmd(tx))?;
    rx.recv()
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "node loop gone"))
}

/// Runs one node process until the orchestrator commands shutdown or the
/// control connection drops.
///
/// # Errors
///
/// Storage, socket, or control-protocol failures, and a restore target at
/// the commanded epoch line that does not decode (`InvalidData`).
pub fn run_node(opts: &NodeOpts) -> io::Result<()> {
    let (store, archive) = open_store(opts)?;
    let recovered_epoch = store.latest_seq();
    let reload_stats = store.stats();
    // Bit-rot is only ever observed at reload time, so the count is fixed
    // for the lifetime of this incarnation. A chain orphan is bit-rot seen
    // one layer up: the disk frame verified but its chain link did not.
    let recovered_corrupt = reload_stats.corrupt_records + store.delta_stats().chain_orphans;
    let store = FaultyStable::new(store, opts.disk_plan.clone());

    // Generous against transient ring pressure (a ring usually drains in
    // microseconds), bounded so a wedged peer fails the mission instead of
    // hanging it.
    let policy = WirePolicy {
        send_stall: Duration::from_secs(2),
        ..WirePolicy::default()
    };
    let wire = Arc::new(ReactorTransport::bind_with("127.0.0.1:0", policy)?);
    let data_port = wire.local_addr().port();
    let pid = ProcessId(opts.pid);
    let net_rx = wire.register(Endpoint::Process(pid));
    let net = Arc::new(FaultyTransport::new(
        Arc::clone(&wire),
        opts.link_plan.clone(),
    ));
    let (input_tx, input_rx) = channel::<NodeInput>();
    spawn_net_pump(pid, net_rx, input_tx.clone());

    // Supervisor events (software recovery) are orchestrator concerns the
    // cluster scenarios do not exercise; keep the receiver alive so node
    // sends stay harmless no-ops.
    let (sup_tx, _sup_rx) = channel::<SupEvent>();
    let runner = NodeRunner::new(
        pid,
        opts.seed,
        Arc::clone(&net),
        input_rx,
        sup_tx,
        store,
        Some((tb_config(opts.tb_interval_ms), TbDrive::Commanded)),
    );
    let runner_join = std::thread::Builder::new()
        .name(format!("synergy-cluster-node-{pid}"))
        .spawn(move || runner.run())
        .expect("spawn node loop");

    let mut ctrl = TcpStream::connect(&opts.ctrl_addr)?;
    ctrl.set_nodelay(true)?;
    send_ctrl(
        &mut ctrl,
        &CtrlReply::Hello {
            pid: opts.pid,
            data_port,
            epoch: recovered_epoch,
            torn_writes: reload_stats.torn_writes,
            corrupt_records: recovered_corrupt,
        },
    )?;

    // A recv error means the orchestrator is gone: stop serving (the
    // process exits; durable state stays on disk for the next incarnation).
    while let Ok(msg) = recv_ctrl::<CtrlMsg>(&mut ctrl) {
        let reply = match msg {
            CtrlMsg::Produce { external } => {
                send_cmd(&input_tx, NodeCmd::Produce { external })?;
                // Barrier: commands and deliveries share one FIFO channel,
                // so once a `Status` round-trips the produce (and its sends)
                // has been fully processed.
                ask(&input_tx, NodeCmd::Status)?;
                CtrlReply::Done
            }
            CtrlMsg::SetRoute { endpoint, addr } => {
                let addr = addr.parse().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad route addr: {e}"))
                })?;
                wire.set_route(endpoint, addr);
                CtrlReply::Done
            }
            CtrlMsg::BeginCkpt => CtrlReply::Began {
                writing: ask(&input_tx, NodeCmd::BeginCkpt)?,
            },
            CtrlMsg::CommitCkpt => CtrlReply::Committed {
                epoch: ask(&input_tx, NodeCmd::CommitCkpt)?,
            },
            CtrlMsg::Rollback { epoch } => {
                let outcome =
                    ask(&input_tx, |reply| NodeCmd::Rollback { epoch, reply })?.map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("restore target at epoch line {epoch} does not decode: {e}"),
                        )
                    })?;
                CtrlReply::RolledBack {
                    restored_epoch: outcome.restored_epoch,
                    resent: outcome.resent as u64,
                }
            }
            CtrlMsg::Status => {
                // The loop fills its own fields; the wire, chaos and
                // archive counters live out here.
                let loop_status = ask(&input_tx, NodeCmd::Status)?;
                let totals = net.totals();
                let archive_stats = archive.stats();
                CtrlReply::Status(WireStatus {
                    net_queued: net.pending(),
                    chaos_drops: totals.drops,
                    chaos_dups: totals.dups,
                    chaos_lost: totals.lost,
                    corrupt_records: recovered_corrupt,
                    backpressure: wire.stats().backpressure_dropped,
                    archive_pending: archive.pending() as u64,
                    archive_uploads: archive_stats.uploads,
                    archive_failures: archive_stats.upload_failures,
                    rehydrated: archive_stats.rehydrated,
                    ..loop_status
                })
            }
            CtrlMsg::Corrupt => CtrlReply::Corrupted {
                epoch: ask(&input_tx, NodeCmd::Corrupt)?,
            },
            CtrlMsg::Shutdown => {
                send_cmd(&input_tx, NodeCmd::Shutdown)?;
                send_ctrl(&mut ctrl, &CtrlReply::Done)?;
                break;
            }
        };
        send_ctrl(&mut ctrl, &reply)?;
    }
    drop(input_tx);
    let _ = runner_join.join();
    net.shutdown();
    wire.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy::app::Application;
    use synergy::payload::CheckpointPayload;
    use synergy::system::{P1ACT, P2};
    use synergy_net::{
        CkptSeqNo, Envelope, LinkFaults, MessageBody, MsgId, MsgSeqNo, PartitionWindow, Transport,
    };
    use synergy_storage::{Checkpoint, DiskFault, DiskOp, StableStore};

    #[test]
    fn plans_roundtrip_through_hex_argv_encoding() {
        let link = LinkFaultPlan {
            faults: LinkFaults::new(0.125, 0.25),
            delay_ms: (1, 9),
            partitions: vec![PartitionWindow {
                start_ms: 200,
                end_ms: 450,
            }],
            max_attempts: 12,
            retry_ms: (2, 40),
            seed: 77,
        };
        let disk = DiskFaultPlan {
            faults: vec![DiskFault {
                seq: 3,
                op: DiskOp::Commit,
                times: 1,
            }],
        };
        let link_back: LinkFaultPlan = plan_from_hex(&plan_to_hex(&link)).unwrap();
        let disk_back: DiskFaultPlan = plan_from_hex(&plan_to_hex(&disk)).unwrap();
        assert_eq!(link_back, link);
        assert_eq!(disk_back, disk);
    }

    #[test]
    fn node_opts_parse_chaos_flags() {
        let link = LinkFaultPlan {
            faults: LinkFaults::new(0.1, 0.0),
            ..LinkFaultPlan::inert(9)
        };
        let argv = [
            "--pid",
            "2",
            "--seed",
            "41",
            "--data-dir",
            "/tmp/x",
            "--ctrl",
            "127.0.0.1:9",
            "--archive-dir",
            "/tmp/x-archive",
            "--chaos-link",
            &plan_to_hex(&link),
        ];
        let opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.pid, 2);
        assert_eq!(opts.link_plan, link);
        assert!(opts.disk_plan.is_inert());
        assert!(NodeOpts::from_args(["--pid".to_string()].into_iter()).is_err());
        // The removed wire selector is rejected, not accepted as a no-op
        // (spelt in two halves so a grep for the flag stays empty).
        let removed = concat!("--", "transport").to_string();
        assert_eq!(
            NodeOpts::from_args([removed, "reactor".to_string()].into_iter()).unwrap_err(),
            concat!("unknown flag --", "transport")
        );
        // Neither a second P2 nor a panic inside the TB configuration or
        // the checkpoint codec.
        for (flag, value, err) in [
            ("--pid", "9", "--pid must be 1, 2 or 3, got 9"),
            ("--tb-interval-ms", "0", "--tb-interval-ms must be positive"),
            ("--delta-k", "0", "--delta-k must be at least 1"),
        ] {
            let args = argv.iter().chain([&flag, &value]).map(|s| s.to_string());
            assert_eq!(NodeOpts::from_args(args).unwrap_err(), err);
        }
        // A plan that decodes but would panic the injector is refused at
        // parse, naming the field.
        let bad_link = |edit: fn(&mut LinkFaultPlan)| {
            let mut plan = link.clone();
            edit(&mut plan);
            plan_to_hex(&plan)
        };
        let bad_archive = plan_to_hex(&ArchiveFaultPlan {
            put_fail: 2.0,
            ..ArchiveFaultPlan::inert()
        });
        for (flag, value, err) in [
            (
                "--chaos-link",
                bad_link(|p| p.max_attempts = 0),
                "--chaos-link: max_attempts must be at least 1",
            ),
            (
                "--chaos-link",
                bad_link(|p| p.delay_ms = (5, 1)),
                "--chaos-link: inverted delay_ms bounds (5, 1)",
            ),
            (
                "--chaos-link",
                bad_link(|p| p.faults.drop_prob = 1.5),
                "--chaos-link: drop_prob must be in [0, 1], got 1.5",
            ),
            (
                "--chaos-link",
                bad_link(|p| p.faults.drop_prob = f64::NAN),
                "--chaos-link: drop_prob must be in [0, 1], got NaN",
            ),
            (
                "--chaos-archive",
                bad_archive,
                "--chaos-archive: put_fail must be in [0, 1], got 2",
            ),
        ] {
            let args = argv
                .iter()
                .map(|s| s.to_string())
                .chain([flag.to_string(), value]);
            assert_eq!(NodeOpts::from_args(args).unwrap_err(), err);
        }
        for bad in ["zz", "aéb", "é", "0é"] {
            assert!(
                NodeOpts::from_args(["--chaos-link".to_string(), bad.to_string()].into_iter())
                    .is_err(),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn node_opts_parse_archive_flags() {
        let plan = ArchiveFaultPlan {
            seed: 11,
            put_fail: 0.25,
            latency_ms: 3,
            ..ArchiveFaultPlan::inert()
        };
        let argv = [
            "--pid",
            "1",
            "--seed",
            "7",
            "--data-dir",
            "/tmp/x",
            "--ctrl",
            "127.0.0.1:9",
            "--archive-dir",
            "/tmp/x-archive",
            "--delta-k",
            "4",
            "--chaos-archive",
            &plan_to_hex(&plan),
        ];
        let opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.delta_k, 4);
        assert_eq!(opts.archive_dir, PathBuf::from("/tmp/x-archive"));
        assert_eq!(opts.archive_plan, plan);

        // Without the cadence and fault flags: every record a full image,
        // an archive tier that never fails.
        let bare = NodeOpts::from_args(argv[..10].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(bare.delta_k, 1);
        assert!(bare.archive_plan.is_inert());
        // There is no process-local archive tier to fall back on.
        assert_eq!(
            NodeOpts::from_args(argv[..8].iter().map(|s| s.to_string())).unwrap_err(),
            "--archive-dir is required"
        );
    }

    #[test]
    fn disk_tier_keeps_every_base_the_served_window_needs() {
        let dir = std::env::temp_dir().join(format!("synergy-node-store-{}", std::process::id()));
        let archive_dir = dir.with_extension("archive");
        let argv = [
            "--pid",
            "3",
            "--seed",
            "7",
            "--data-dir",
            "",
            "--ctrl",
            "127.0.0.1:9",
            "--archive-dir",
            "",
        ];
        let mut opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        (opts.data_dir, opts.archive_dir) = (dir.clone(), archive_dir.clone());
        opts.delta_k = 4;
        let (mut store, _) = open_store(&opts).unwrap();
        for seq in 1..=70u64 {
            let state = vec![seq as u8; 64];
            let ckpt = Checkpoint::encode(seq, synergy_des::SimTime::from_nanos(seq), "t", &state);
            store.begin_write(ckpt.unwrap()).unwrap();
            store.commit_write().unwrap();
        }
        drop(store);
        let (store, _) = open_store(&opts).unwrap();
        assert_eq!(store.delta_stats().chain_orphans, 0, "no spurious rot");
        assert_eq!(store.stats().corrupt_records, 0);
        assert_eq!(store.latest_seq(), Some(70));
        assert_eq!(store.latest_at_or_before_shared(7).unwrap().seq(), 7);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&archive_dir).unwrap();
    }

    struct NullNet;

    impl Transport for NullNet {
        fn send(&self, _: Envelope) {}
    }

    /// `P2` under commanded TB over `stable`, driven by calling the loop's
    /// own handlers: `begin_round` feeds `TimerExpired { deadline:
    /// tb.next_deadline() }`, `end_round` feeds `BlockingElapsed`.
    fn commanded<S: Stable>(stable: S) -> NodeRunner<NullNet, S> {
        let tb = Some((tb_config(1000), TbDrive::Commanded));
        let (_, input_rx) = channel();
        let (sup_tx, _) = channel();
        NodeRunner::new(P2, 7, Arc::new(NullNet), input_rx, sup_tx, stable, tb)
    }

    /// `n` whole rounds, each committing one epoch.
    fn rounds<S: Stable>(r: &mut NodeRunner<NullNet, S>, n: u32) {
        for _ in 0..n {
            r.begin_round();
            r.end_round();
        }
    }

    fn from_active(seq: u64, body: MessageBody) -> Envelope {
        let id = MsgId {
            from: P1ACT,
            seq: MsgSeqNo(seq),
        };
        Envelope::new(id, P2, body)
    }

    /// A dirty application message from `P1act`: contaminates `P2`, which
    /// takes its Type-1 volatile checkpoint first.
    fn dirty_app(seq: u64) -> Envelope {
        let body = MessageBody::Application {
            payload: vec![seq as u8],
            dirty: true,
        };
        from_active(seq, body)
    }

    fn passed_at(msg_sn: u64, ndc: u64) -> Envelope {
        let body = MessageBody::PassedAt {
            msg_sn: MsgSeqNo(msg_sn),
            ndc: CkptSeqNo(ndc),
        };
        from_active((1 << 40) + msg_sn, body)
    }

    fn mdcd_ndc<S: Stable>(r: &NodeRunner<NullNet, S>) -> CkptSeqNo {
        r.host.engine.snapshot().ndc
    }

    fn fails(seq: u64, op: DiskOp, times: u32) -> DiskFault {
        DiskFault { seq, op, times }
    }

    fn app_of(ckpt: Option<Checkpoint>) -> Arc<[u8]> {
        let ckpt = ckpt.expect("committed");
        let payload = CheckpointPayload::from_checkpoint(&ckpt);
        payload.expect("decodes").app
    }

    #[test]
    fn commanded_rounds_commit_in_lockstep() {
        let mut r = commanded(StableStore::new());
        assert!(r.next_timer.is_none(), "nothing fires on its own");
        r.tick_tb();
        assert!(!r.host.stable.is_writing());
        for round in 1..=3u64 {
            r.begin_round();
            assert!(r.host.stable.is_writing());
            // MDCD was told the blocking period started: it holds traffic.
            r.on_envelope(dirty_app(round));
            assert_eq!(r.host.delivered, round - 1);
            // Re-beginning mid-round is ignored, not an engine panic.
            r.begin_round();
            assert_eq!(r.stable_commits, round - 1);
            r.end_round();
            assert_eq!(mdcd_ndc(&r), CkptSeqNo(round));
            assert_eq!(r.host.delivered, round, "commit ends MDCD's blocking");
            assert_eq!(r.host.stable.latest_seq(), Some(round));
        }
        assert_eq!(r.stable_commits, 3);
        // Committing with no round open is ignored.
        r.end_round();
        assert_eq!(r.stable_commits, 3);
    }

    #[test]
    fn injected_stable_faults_are_retried_not_swallowed() {
        let plan = DiskFaultPlan {
            faults: vec![
                fails(1, DiskOp::Begin, 1),
                fails(2, DiskOp::Commit, 1),
                fails(3, DiskOp::Begin, 1),
            ],
        };
        let mut r = commanded(FaultyStable::new(StableStore::new(), plan));
        // Round 1: the begin fails; a retry lands it before the commit.
        r.begin_round();
        assert!(
            !r.host.stable.is_writing(),
            "failed begin left nothing in flight"
        );
        assert!(r.host.stable_pending());
        r.with_host(|host, now, out| host.retry_stable(now, out));
        assert!(r.host.stable.is_writing());
        assert_eq!(r.stable_commits, 0, "begin retry commits nothing");
        r.end_round();
        assert_eq!((r.stable_commits, mdcd_ndc(&r)), (1, CkptSeqNo(1)));
        // Round 2: the commit fails; StableCommitted and what it tells MDCD
        // must be deferred to the successful retry, never emitted for a
        // write that is not durable.
        rounds(&mut r, 1);
        assert_eq!(r.stable_commits, 1, "no StableCommitted while disk lags");
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(1), "no MDCD event while disk lags");
        assert_eq!(r.host.stable.latest_seq(), Some(1));
        assert!(r.host.stable_pending());
        r.with_host(|host, now, out| host.retry_stable(now, out));
        assert_eq!((r.stable_commits, mdcd_ndc(&r)), (2, CkptSeqNo(2)));
        assert!(!r.host.stable_pending());
        assert_eq!(r.host.stable.latest_seq(), Some(2));
        assert!(r.host.stable_retries >= 2);
        // Round 3: the begin of a dirty process's volatile copy fails, and
        // the passed_AT lands inside the blocking period: nothing is in
        // flight to replace, so the queued contents are swapped.
        r.on_envelope(dirty_app(1));
        r.begin_round();
        assert!(r.host.stable_pending());
        r.on_envelope(passed_at(1, 2));
        assert_eq!(r.stable_replacements, 1);
        r.end_round();
        r.retry_stable_bounded();
        assert_eq!(r.stable_commits, 3);
        let latest = app_of(r.host.stable.latest_shared());
        assert_eq!(*latest, *r.host.app.snapshot(), "current state won");
    }

    #[test]
    fn rollback_discards_pending_stable_operations() {
        let plan = DiskFaultPlan {
            faults: vec![fails(2, DiskOp::Begin, 99)],
        };
        let mut r = commanded(FaultyStable::new(StableStore::new(), plan));
        rounds(&mut r, 1);
        // Epoch 2's begin fails persistently; global recovery supersedes it.
        r.begin_round();
        assert!(r.host.stable_pending());
        assert_eq!(r.rollback_to_line(1).unwrap().restored_epoch, Some(1));
        assert!(!r.host.stable_pending(), "rollback clears the retry queue");
    }

    #[test]
    fn commanded_runtime_runs_unchanged_over_the_delta_chain_store() {
        use synergy_archive::{ChainRecord, ChainWalker, StableHistory};
        let mut r = commanded(DeltaStable::open(StableStore::new(), 4));
        for round in 1..=6u64 {
            let dirty = round % 2 == 0;
            if dirty {
                r.on_envelope(dirty_app(round));
            }
            r.begin_round();
            // Replace mid-round on even (dirty) epochs: the delta layer must
            // re-diff against the same base, exactly like a plain store
            // swaps bytes.
            if dirty {
                r.on_envelope(passed_at(round, round - 1));
            }
            r.end_round();
            assert_eq!(mdcd_ndc(&r), CkptSeqNo(round));
        }
        assert_eq!(r.stable_commits, 6);
        assert_eq!(r.stable_replacements, 3);
        let stats = r.host.stable.delta_stats();
        assert_eq!(stats.full_records, 2, "k=4 over 6 commits");
        assert_eq!(stats.delta_records, 4);
        let latest = app_of(r.host.stable.latest_shared());
        assert_eq!(
            *latest,
            *r.host.app.snapshot(),
            "payload survives the chain"
        );
        // Global rollback walks the chain transparently and the next round
        // continues from the restored epoch.
        assert_eq!(r.rollback_to_line(3).unwrap().restored_epoch, Some(3));
        let third = app_of(r.host.stable.latest_at_or_before_shared(3));
        assert_ne!(*third, *latest, "epoch 3 predates two receipts");
        assert_eq!(*third, *r.host.app.snapshot());
        rounds(&mut r, 1);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(4));
        assert_eq!(r.host.stable.latest_seq(), Some(4));
        // The chain the inner store actually holds replays byte-identically
        // to the live view, post-rollback seq reuse included.
        let mut walker = ChainWalker::new();
        let mut replayed = None;
        for rec in r.host.stable.inner().committed_records() {
            let chain: ChainRecord =
                synergy_codec::from_bytes(&rec.shared_data()).expect("chain record decodes");
            if let Some(image) = walker.feed(rec.seq(), &chain) {
                replayed = Some(image);
            }
        }
        assert_eq!(walker.orphans(), 0);
        assert_eq!(
            replayed.expect("chain replays"),
            r.host
                .stable
                .latest_shared()
                .expect("committed")
                .shared_data(),
        );
    }

    #[test]
    fn corrupt_flips_the_newest_chain_record_and_rollback_restores_it() {
        let mut r = commanded(DeltaStable::open(StableStore::new(), 4));
        rounds(&mut r, 3);
        let honest = app_of(r.host.stable.latest_shared());
        let (tx, flipped) = channel();
        r.on_cmd(NodeCmd::Corrupt(tx));
        assert_eq!(flipped.recv().unwrap(), Some(3));
        let forged = app_of(r.host.stable.latest_shared());
        assert_ne!(*forged, *honest);
        assert_eq!(r.rollback_to_line(3).unwrap().restored_epoch, Some(3));
        assert_eq!(*r.host.app.snapshot(), *forged, "the lie is restored");
    }

    #[test]
    fn commanded_rollback_selects_epoch_line_and_restarts() {
        let mut r = commanded(StableStore::new());
        rounds(&mut r, 3);
        // A fourth round begins but the node "crashes" before commit.
        r.begin_round();
        assert!(r.host.stable.is_writing());
        let restored = r.rollback_to_line(2).unwrap().restored_epoch;
        assert_eq!(restored, Some(2), "newest checkpoint at or before the line");
        assert!(!r.host.stable.is_writing(), "rollback aborts the write");
        // The next round continues the sequence from the restored epoch.
        rounds(&mut r, 1);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(3));
        assert_eq!(r.host.stable.latest_seq(), Some(3));
        let restored = r.rollback_to_line(0).unwrap().restored_epoch;
        assert_eq!(restored, None, "epoch 0 retains nothing");
    }

    #[test]
    fn undecodable_restore_target_is_an_error_not_a_line_zero_restart() {
        let mut r = commanded(StableStore::new());
        rounds(&mut r, 2);
        // CRC-valid, but a bare integer rather than a checkpoint payload.
        let forged = Checkpoint::encode(2, synergy_des::SimTime::from_nanos(2), "t", &99u64);
        assert!(r.host.stable.replace_latest(forged.unwrap()));
        r.begin_round();
        let (reply, outcome) = channel();
        r.on_cmd(NodeCmd::Rollback { epoch: 2, reply });
        assert!(
            outcome.recv().unwrap().is_err(),
            "not `restored_epoch: None`"
        );
        assert!(r.host.stable.is_writing(), "the node is left as it was");
        assert_eq!(r.rollback_to_line(1).unwrap().restored_epoch, Some(1));
    }

    #[test]
    fn restarted_node_learns_ndc_from_the_restored_epoch() {
        let mut first = commanded(StableStore::new());
        rounds(&mut first, 2);
        // A new incarnation over what the old one left on disk.
        let mut r = commanded(first.host.stable);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(0));
        let (reply, outcome) = channel();
        r.on_cmd(NodeCmd::Rollback { epoch: 2, reply });
        let restored = outcome.recv().unwrap().unwrap().restored_epoch;
        assert_eq!(restored, Some(2));
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(2), "passed_AT would compare stale");
    }
}
