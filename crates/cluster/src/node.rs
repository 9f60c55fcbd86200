//! One cluster node process: the same [`ProcessHost`] the simulator
//! drives, over the TCP data plane and a durable on-disk stable store, fed
//! by one loop that answers the orchestrator's control connection.
//!
//! Boot sequence:
//!
//! 1. Open (or recover) the node's [`DeltaStable`] chain over a
//!    [`DiskStableStore`] in its data directory: a hardware fault loses
//!    the process's memory, never its disk. A leftover in-flight temp
//!    file from a killed incarnation is detected here as a torn write;
//!    committed records are CRC-verified and chain-walked, and any record
//!    rejected by either (bit-rot) is skipped in favour of the previous
//!    checkpoint. The store is then wrapped in a [`FaultyStable`] applying
//!    the campaign's disk-fault plan.
//! 2. Bind the [`ReactorTransport`] on an ephemeral port, wrap it in a
//!    [`FaultyTransport`] applying the campaign's link-fault plan, and
//!    build the node's host, whose checkpoint rounds the orchestrator
//!    commands — no wall-clock timer fires on a node, which keeps a
//!    distributed mission deterministic. A send to a full route
//!    ring waits up to [`WirePolicy::send_stall`] (2 s on a node), then
//!    drops the envelope and counts it in [`WireStatus::backpressure`],
//!    which the orchestrator treats as fatal: a dropped data-plane frame
//!    breaks per-link FIFO.
//! 3. Connect back to the orchestrator, announce
//!    `Hello` (data port + recovered epoch + torn-write
//!    and corrupt-record counts), then run the node's one loop: deliveries
//!    and control commands arrive on one FIFO channel, and the loop feeds
//!    each to the host, sends the envelopes the host emits, and answers
//!    each command itself, in lockstep, until `Shutdown` or until the
//!    control connection closes.
//!
//! Both fault plans — link and disk — default to inert, in which case the
//! wrappers are zero-overhead passthroughs; the orchestrator ships
//! non-trivial plans as hex-encoded codec values on the command line
//! (`--chaos-link`, `--chaos-disk`).
//!
//! A restarted node does **not** restore itself: per the paper's global
//! rollback, the *orchestrator* computes the epoch line across the cluster
//! and commands `Rollback` on every node, the restarted one included. The
//! node restores through [`ProcessHost::restore_stable`], the simulator's
//! own restore; on the Byzantine-lite target that restore serves the
//! record at the line value-flipped, and the disk stays honest.

use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synergy::app::CounterApp;
use synergy::system::{HostAction, HostEvent, ProcessHost, StableRestore, Topology};
use synergy::Scheme;
use synergy_archive::DeltaStable;
use synergy_clocks::SyncParams;
use synergy_codec::Codec;
use synergy_des::{SimDuration, SimTime};
use synergy_net::{
    Endpoint, Envelope, FaultyTransport, LinkFaultPlan, ProcessId, ReactorTransport, Transport,
    WirePolicy,
};
use synergy_storage::{DiskFaultPlan, DiskStableStore, FaultyStable, Stable};
use synergy_tb::{TbConfig, TbEngine, TbVariant};

use crate::ctrl::{recv_ctrl, send_ctrl, CtrlMsg, CtrlReply, WireStatus};
use crate::orchestrator::DELTA_SECS;

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
    /// Link-fault plan applied to this node's outbound data plane.
    pub link_plan: LinkFaultPlan,
    /// Stable-storage fault plan applied to this node's disk store.
    pub disk_plan: DiskFaultPlan,
    /// Checkpoint-chain cadence: full image every `delta_k` stable commits,
    /// CRC-chained deltas between (`--delta-k`, at least 1). The default 1
    /// makes every record a full image.
    pub delta_k: u32,
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

/// `v`, the value given to `flag`, parsed as a `T`.
fn parse<T: FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

impl NodeOpts {
    /// Parses node options from `argv` (without the program name); shared
    /// by `synergy-node` and the chaos crate's node wrapper binary.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values or required flags, a `--pid` outside
    /// 1–3, a zero `--delta-k`, malformed plan encodings, or a link plan
    /// that fails its `validate`.
    pub fn from_args<I: Iterator<Item = String>>(mut args: I) -> Result<Self, String> {
        let mut pid = None;
        let mut seed = None;
        let mut data_dir = None;
        let mut ctrl_addr = None;
        let mut link_plan = LinkFaultPlan::default();
        let mut disk_plan = DiskFaultPlan::default();
        let mut delta_k = 1u32;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--pid" => {
                    let p: u32 = parse(&flag, value()?)?;
                    if !(1..=3).contains(&p) {
                        return Err(format!("--pid must be 1, 2 or 3, got {p}"));
                    }
                    pid = Some(p);
                }
                "--seed" => seed = Some(parse(&flag, value()?)?),
                "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
                "--ctrl" => ctrl_addr = Some(value()?),
                "--chaos-link" => link_plan = plan_from_hex(&value()?)?,
                "--chaos-disk" => disk_plan = plan_from_hex(&value()?)?,
                "--delta-k" => {
                    delta_k = parse(&flag, value()?)?;
                    if delta_k < 1 {
                        return Err("--delta-k must be at least 1".into());
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        link_plan
            .validate()
            .map_err(|e| format!("--chaos-link: {e}"))?;
        Ok(NodeOpts {
            pid: pid.ok_or("--pid is required")?,
            seed: seed.ok_or("--seed is required")?,
            data_dir: data_dir.ok_or("--data-dir is required")?,
            ctrl_addr: ctrl_addr.ok_or("--ctrl is required")?,
            link_plan,
            disk_plan,
            delta_k,
        })
    }
}

/// How many reconstructed checkpoints a node serves: the rollback span the
/// orchestrator may command.
const SERVED_EPOCHS: usize = 64;

/// Opens (or recovers) the node's stable store: the delta chain at cadence
/// `opts.delta_k` over the data directory's disk store. The disk keeps
/// `SERVED_EPOCHS + k − 1` records — what [`DeltaStable`] requires so no
/// served delta outlives its base.
fn open_store(opts: &NodeOpts) -> io::Result<DeltaStable<DiskStableStore>> {
    let disk_retain = SERVED_EPOCHS + opts.delta_k as usize - 1;
    let disk = DiskStableStore::open_with_retention(&opts.data_dir, disk_retain)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(DeltaStable::open_with_retention(
        disk,
        opts.delta_k,
        SERVED_EPOCHS,
    ))
}

/// Adapted TB on the mission grid: the interval is Δ, which keeps the
/// host's epoch bookkeeping on the orchestrator's grid; rounds themselves
/// are commanded.
fn tb_config() -> TbConfig {
    TbConfig::new(
        TbVariant::Adapted,
        SimDuration::from_secs_f64(DELTA_SECS),
        SyncParams::new(SimDuration::from_micros(500), 0.0),
        SimDuration::from_micros(50),
        SimDuration::from_millis(2),
    )
}

/// `pid`'s host over `stable` under adapted TB, its timers started into
/// `out`. A node's host runs the mission's one application seed and records
/// no trace: no trace consumer exists in a live runtime.
///
/// # Panics
///
/// Panics if `pid` is not one of the canonical topology's three processes
/// ([`NodeOpts::from_args`] rejects any other `--pid`).
fn node_host<S: Stable>(
    pid: ProcessId,
    seed: u64,
    stable: S,
    tb: TbConfig,
    out: &mut Vec<HostAction>,
) -> ProcessHost<S> {
    let topology = Topology::canonical();
    let (_, role, node) = topology
        .processes()
        .into_iter()
        .find(|(p, ..)| *p == pid)
        .unwrap_or_else(|| panic!("{pid} is not a process of the canonical topology"));
    let app = CounterApp::new(seed ^ 0xA5A5);
    let scheme = Scheme::Coordinated;
    let mut host =
        ProcessHost::with_stable(role, pid, node, topology, scheme, app, Some(tb), stable);
    host.set_tracing(false);
    host.start_tb(SimTime::ZERO, out);
    host
}

/// The host's virtual time: the wall time since the node started it.
fn clock(started: Instant) -> SimTime {
    SimTime::from_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Starts one checkpoint round, as if the host's timer expired exactly on
/// its deadline grid. Ignored while a round is already blocking.
fn begin_round<S: Stable>(host: &mut ProcessHost<S>, now: SimTime, out: &mut Vec<HostAction>) {
    if let Some(tb) = host.tb.as_ref().filter(|tb| !tb.is_blocking()) {
        let deadline = tb.next_deadline();
        host.handle_into(HostEvent::TimerExpired { deadline }, now, out);
    }
}

/// Ends the round's blocking period, which commits the in-flight write.
/// Ignored when no round is blocking.
fn end_round<S: Stable>(host: &mut ProcessHost<S>, now: SimTime, out: &mut Vec<HostAction>) {
    if host.tb.as_ref().is_some_and(TbEngine::is_blocking) {
        host.handle_into(HostEvent::BlockingElapsed, now, out);
    }
}

/// Retries failed stable operations a bounded number of times — the
/// flaky-disk masking loop. A backend that keeps failing past the budget
/// leaves the host pending; the orchestrator sees the lag via
/// `stable_epoch` and aborts the campaign rather than hanging.
fn retry_stable_bounded<S: Stable>(
    host: &mut ProcessHost<S>,
    started: Instant,
    out: &mut Vec<HostAction>,
) {
    const STABLE_RETRY_BUDGET: u32 = 8;
    for _ in 0..STABLE_RETRY_BUDGET {
        if !host.stable_pending() {
            break;
        }
        host.retry_stable(clock(started), out);
        if host.stable_pending() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Hardware-error recovery (paper §2.2): restores the host from the stable
/// checkpoint at the epoch line — the newest committed one with sequence
/// number `<= epoch`, value-flipped when `byzantine` — through the
/// simulator's restore. Re-sending the restored payload's unacknowledged
/// messages is the caller's.
///
/// # Errors
///
/// `InvalidData` when the selected checkpoint does not decode as a payload
/// (the host is then left as it was), or when the line selects a record
/// the store no longer holds (a `stable-history` violation: the host
/// restarted from its initial state, which the simulator would flag).
fn rollback<S: Stable>(
    host: &mut ProcessHost<S>,
    epoch: u64,
    byzantine: bool,
    now: SimTime,
    out: &mut Vec<HostAction>,
) -> io::Result<StableRestore> {
    let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidData, detail);
    let now_local = host
        .tb
        .as_ref()
        .expect("a node always runs adapted TB")
        .next_deadline();
    let restored = host
        .restore_stable(Some(epoch), byzantine, now, now_local, out)
        .map_err(|e| {
            invalid(format!(
                "restore target at epoch line {epoch} does not decode: {e}"
            ))
        })?;
    match restored.violation {
        Some(violation) => Err(invalid(violation.to_string())),
        None => Ok(restored),
    }
}

/// The status fields the host owns; the wire and chaos counters are left
/// at zero for the node's loop to fill.
fn host_status<S: Stable>(host: &ProcessHost<S>) -> WireStatus {
    let snap = host.engine.snapshot();
    WireStatus {
        dirty: host.engine.dirty_bit(),
        promoted: snap.promoted,
        logged: snap.log.len() as u64,
        volatile_ckpts: host.volatile_seq,
        at_runs: host.engine.at_runs(),
        delivered: host.delivered,
        stable_epoch: host.stable.latest_seq(),
        torn_writes: host.stable.stats().torn_writes,
        stable_retries: host.stable_retries,
        unacked: host.acks.len() as u64,
        ..WireStatus::default()
    }
}

/// Sends the envelopes among `actions` and empties it. Everything else a
/// host asks of its driver is the simulator's: deliveries, checkpoints and
/// acceptance tests are counted by the host and no one reads trace lines
/// here; no design fault is armed on a node, so no acceptance test fails;
/// the orchestrator says when a round begins and when its blocking period
/// ends; and the commanded grid is synthetic, so resynchronization is a
/// no-op.
fn send_all(net: &impl Transport, actions: &mut Vec<HostAction>) {
    for action in actions.drain(..) {
        match action {
            HostAction::Send(env) => net.send(Arc::unwrap_or_clone(env)),
            HostAction::SendAck(ack) => net.send(ack),
            _ => {}
        }
    }
}

/// What the node's loop reads: a delivery from the data plane, or what the
/// control connection yielded — a command, or the error that means the
/// orchestrator is gone.
enum Input {
    Net(Envelope),
    Ctrl(io::Result<CtrlMsg>),
}

/// Runs one node process until the orchestrator commands shutdown or the
/// control connection closes.
///
/// # Errors
///
/// Storage, socket, or control-protocol failures, and a restore target at
/// the commanded epoch line that does not decode (`InvalidData`).
pub fn run_node(opts: &NodeOpts) -> io::Result<()> {
    let store = open_store(opts)?;
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
    let mut out = Vec::new();
    let mut host = node_host(pid, opts.seed, store, tb_config(), &mut out);
    let started = Instant::now();

    // Deliveries and control commands share one FIFO channel, so a reply
    // proves that everything queued before its command was processed. Each
    // pump exits when its source or the loop hangs up.
    let (input_tx, input_rx) = channel::<Input>();
    let net_tx = input_tx.clone();
    std::thread::Builder::new()
        .name(format!("synergy-node-{pid}-net"))
        .spawn(move || {
            while let Ok(env) = net_rx.recv() {
                if net_tx.send(Input::Net(env)).is_err() {
                    break;
                }
            }
        })?;

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
    let mut ctrl_rx = ctrl.try_clone()?;
    std::thread::Builder::new()
        .name(format!("synergy-node-{pid}-ctrl"))
        .spawn(move || loop {
            let msg = recv_ctrl::<CtrlMsg>(&mut ctrl_rx);
            let gone = msg.is_err();
            if input_tx.send(Input::Ctrl(msg)).is_err() || gone {
                break;
            }
        })?;

    loop {
        match input_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Input::Net(env)) => {
                host.handle_into(env.into(), clock(started), &mut out);
            }
            Ok(Input::Ctrl(Ok(msg))) => {
                let reply = match msg {
                    CtrlMsg::Produce { external } => {
                        let produce = HostEvent::Produce { external };
                        host.handle_into(produce, clock(started), &mut out);
                        CtrlReply::Done
                    }
                    CtrlMsg::SetRoute { endpoint, addr } => {
                        let addr = addr.parse().map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad route addr: {e}"),
                            )
                        })?;
                        wire.set_route(endpoint, addr);
                        CtrlReply::Done
                    }
                    CtrlMsg::BeginCkpt => {
                        begin_round(&mut host, clock(started), &mut out);
                        retry_stable_bounded(&mut host, started, &mut out);
                        CtrlReply::Began {
                            writing: host.stable.is_writing(),
                        }
                    }
                    CtrlMsg::CommitCkpt => {
                        end_round(&mut host, clock(started), &mut out);
                        retry_stable_bounded(&mut host, started, &mut out);
                        CtrlReply::Committed {
                            epoch: host.stable.latest_seq(),
                        }
                    }
                    CtrlMsg::Rollback { epoch, byzantine } => {
                        let restored =
                            rollback(&mut host, epoch, byzantine, clock(started), &mut out)?;
                        send_all(&*net, &mut out);
                        let unacked = &restored.payload.unacked;
                        for env in unacked {
                            net.send((**env).clone());
                        }
                        CtrlReply::RolledBack {
                            restored_epoch: restored.epoch,
                            resent: unacked.len() as u64,
                        }
                    }
                    CtrlMsg::Status => {
                        let totals = net.totals();
                        CtrlReply::Status(WireStatus {
                            net_queued: net.pending(),
                            chaos_drops: totals.drops,
                            chaos_dups: totals.dups,
                            chaos_lost: totals.lost,
                            corrupt_records: recovered_corrupt,
                            backpressure: wire.stats().backpressure_dropped,
                            ..host_status(&host)
                        })
                    }
                    CtrlMsg::Shutdown => {
                        send_ctrl(&mut ctrl, &CtrlReply::Done)?;
                        break;
                    }
                };
                send_all(&*net, &mut out);
                send_ctrl(&mut ctrl, &reply)?;
            }
            // The orchestrator is gone: stop serving (durable state stays
            // on disk for the next incarnation).
            Ok(Input::Ctrl(Err(_))) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        // A stable write the backend refused gets one more try after every
        // input and every quiet 50 ms.
        host.retry_stable(clock(started), &mut out);
        send_all(&*net, &mut out);
    }
    net.shutdown();
    wire.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy::app::Application;
    use synergy::payload::CheckpointPayload;
    use synergy::system::{P1ACT, P1SDW, P2};
    use synergy_net::{
        CkptSeqNo, LinkFaults, MessageBody, MsgId, MsgSeqNo, PartitionWindow, Transport,
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
            "--chaos-link",
            &plan_to_hex(&link),
        ];
        let opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(opts.pid, 2);
        assert_eq!(opts.link_plan, link);
        assert!(opts.disk_plan.is_inert());
        assert!(NodeOpts::from_args(["--pid".to_string()].into_iter()).is_err());
        // The removed wire selector and checkpoint interval are rejected,
        // not accepted as no-ops (spelt in two halves so a grep for the
        // flags stays empty).
        for (removed, value, err) in [
            (
                concat!("--", "transport"),
                "reactor",
                concat!("unknown flag --", "transport"),
            ),
            (
                concat!("--tb-", "interval-ms"),
                "1700",
                concat!("unknown flag --tb-", "interval-ms"),
            ),
        ] {
            let args = [removed, value].map(String::from).into_iter();
            assert_eq!(NodeOpts::from_args(args).unwrap_err(), err);
        }
        // Neither a second P2 nor a panic inside the TB configuration or
        // the checkpoint codec.
        for (flag, value, err) in [
            ("--pid", "9", "--pid must be 1, 2 or 3, got 9"),
            ("--seed", "x", "--seed: invalid value \"x\""),
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
        for (flag, value, err) in [
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
    fn disk_tier_keeps_every_base_the_served_window_needs() {
        let dir = std::env::temp_dir().join(format!("synergy-node-store-{}", std::process::id()));
        let argv = [
            "--pid",
            "3",
            "--seed",
            "7",
            "--data-dir",
            "",
            "--ctrl",
            "127.0.0.1:9",
            "--delta-k",
            "4",
        ];
        let mut opts = NodeOpts::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        opts.data_dir = dir.clone();
        let mut store = open_store(&opts).unwrap();
        for seq in 1..=70u64 {
            let state = vec![seq as u8; 64];
            let ckpt = Checkpoint::encode(seq, synergy_des::SimTime::from_nanos(seq), "t", &state);
            store.begin_write(ckpt.unwrap()).unwrap();
            store.commit_write().unwrap();
        }
        drop(store);
        let store = open_store(&opts).unwrap();
        assert_eq!(store.delta_stats().chain_orphans, 0, "no spurious rot");
        assert_eq!(store.stats().corrupt_records, 0);
        assert_eq!(store.latest_seq(), Some(70));
        assert_eq!(store.latest_at_or_before_shared(7).unwrap().seq(), 7);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    struct NullNet;

    impl Transport for NullNet {
        fn send(&self, _: Envelope) {}
    }

    /// A node's host, driven through the node loop's own steps over a
    /// null transport, counting the commits and replacements it reports.
    struct Node<S: Stable> {
        host: ProcessHost<S>,
        started: Instant,
        out: Vec<HostAction>,
        stable_commits: u64,
        stable_replacements: u64,
    }

    impl<S: Stable> Node<S> {
        /// Counts what the last step appended, then sends it.
        fn settle(&mut self) {
            for action in &self.out {
                match action {
                    HostAction::StableCommitted { .. } => self.stable_commits += 1,
                    HostAction::StableReplaced { .. } => self.stable_replacements += 1,
                    _ => {}
                }
            }
            send_all(&NullNet, &mut self.out);
        }

        /// Runs one step of the host at the node's clock, then settles.
        fn step<R>(
            &mut self,
            step: impl FnOnce(&mut ProcessHost<S>, SimTime, &mut Vec<HostAction>) -> R,
        ) -> R {
            let result = step(&mut self.host, clock(self.started), &mut self.out);
            self.settle();
            result
        }

        fn begin_round(&mut self) {
            self.step(begin_round);
        }

        fn end_round(&mut self) {
            self.step(end_round);
        }

        fn retry_stable(&mut self) {
            self.step(|host, now, out| host.retry_stable(now, out));
        }

        fn retry_stable_bounded(&mut self) {
            let started = self.started;
            self.step(|host, _, out| retry_stable_bounded(host, started, out));
        }

        fn on_envelope(&mut self, env: Envelope) {
            self.step(|host, now, out| host.handle_into(env.into(), now, out));
        }

        fn produce(&mut self, external: bool) {
            let produce = HostEvent::Produce { external };
            self.step(|host, now, out| host.handle_into(produce, now, out));
        }

        /// The `Rollback` command's restore; returns the restored epoch.
        fn rollback(&mut self, epoch: u64, byzantine: bool) -> io::Result<Option<u64>> {
            self.step(|host, now, out| rollback(host, epoch, byzantine, now, out))
                .map(|restored| restored.epoch)
        }
    }

    /// `pid` over `stable`, as the node builds it.
    fn node<S: Stable>(pid: ProcessId, stable: S) -> Node<S> {
        let mut out = Vec::new();
        let host = node_host(pid, 7, stable, tb_config(), &mut out);
        let mut node = Node {
            host,
            started: Instant::now(),
            out,
            stable_commits: 0,
            stable_replacements: 0,
        };
        node.settle();
        node
    }

    /// `n` whole rounds, each committing one epoch.
    fn rounds<S: Stable>(r: &mut Node<S>, n: u32) {
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

    fn mdcd_ndc<S: Stable>(r: &Node<S>) -> CkptSeqNo {
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
        let mut r = node(P2, StableStore::new());
        r.retry_stable();
        assert!(!r.host.stable.is_writing(), "nothing fires on its own");
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
        let mut r = node(P2, FaultyStable::new(StableStore::new(), plan));
        // Round 1: the begin fails; a retry lands it before the commit.
        r.begin_round();
        assert!(
            !r.host.stable.is_writing(),
            "failed begin left nothing in flight"
        );
        assert!(r.host.stable_pending());
        r.retry_stable();
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
        r.retry_stable();
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
        let mut r = node(P2, FaultyStable::new(StableStore::new(), plan));
        rounds(&mut r, 1);
        // Epoch 2's begin fails persistently; global recovery supersedes it.
        r.begin_round();
        assert!(r.host.stable_pending());
        assert_eq!(r.rollback(1, false).unwrap(), Some(1));
        assert!(!r.host.stable_pending(), "rollback clears the retry queue");
    }

    #[test]
    fn commanded_runtime_runs_unchanged_over_the_delta_chain_store() {
        use synergy_archive::{ChainRecord, ChainWalker, StableHistory};
        let mut r = node(P2, DeltaStable::open(StableStore::new(), 4));
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
        assert_eq!(r.rollback(3, false).unwrap(), Some(3));
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
    fn byzantine_rollback_restores_the_flipped_app_and_leaves_the_store_honest() {
        use synergy_archive::StableHistory;
        let mut r = node(P2, DeltaStable::open(StableStore::new(), 4));
        rounds(&mut r, 3);
        let committed = r.host.stable.inner().committed_records();
        let honest = app_of(r.host.stable.latest_shared());
        assert_eq!(r.rollback(3, true).unwrap(), Some(3));
        let restored = r.host.app.snapshot();
        assert_ne!(*restored, *honest, "the lie is restored");
        let lie =
            synergy::regime::corrupt_checkpoint_value(&r.host.stable.latest_shared().unwrap());
        assert_eq!(*restored, *app_of(lie), "the simulator's flip");
        // Every committed record keeps its bytes and CRC: the store is
        // honest, and an honest rollback restores the truth.
        let after = r.host.stable.inner().committed_records();
        assert_eq!(after.len(), committed.len());
        for (before, now) in committed.iter().zip(&after) {
            assert_eq!(before.shared_data(), now.shared_data());
            assert_eq!(before.crc(), now.crc());
        }
        assert_eq!(r.rollback(3, false).unwrap(), Some(3));
        assert_eq!(*r.host.app.snapshot(), *honest);
    }

    #[test]
    fn commanded_rollback_selects_epoch_line_and_restarts() {
        let mut r = node(P2, StableStore::new());
        rounds(&mut r, 3);
        // A fourth round begins but the node "crashes" before commit.
        r.begin_round();
        assert!(r.host.stable.is_writing());
        let restored = r.rollback(2, false).unwrap();
        assert_eq!(restored, Some(2), "newest checkpoint at or before the line");
        assert!(!r.host.stable.is_writing(), "rollback aborts the write");
        // The next round continues the sequence from the restored epoch.
        rounds(&mut r, 1);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(3));
        assert_eq!(r.host.stable.latest_seq(), Some(3));
        let restored = r.rollback(0, false).unwrap();
        assert_eq!(restored, None, "epoch 0 retains nothing");
    }

    #[test]
    fn undecodable_restore_target_is_an_error_not_a_line_zero_restart() {
        let mut r = node(P2, StableStore::new());
        rounds(&mut r, 2);
        // CRC-valid, but a bare integer rather than a checkpoint payload,
        // committed as epoch 3.
        let bare = Checkpoint::encode(3, synergy_des::SimTime::from_nanos(3), "t", &99u64);
        r.host.stable.begin_write(bare.unwrap()).unwrap();
        r.host.stable.commit_write().unwrap();
        r.begin_round();
        assert!(r.rollback(3, false).is_err(), "not `restored_epoch: None`");
        assert!(r.host.stable.is_writing(), "the node is left as it was");
        assert_eq!(r.rollback(1, false).unwrap(), Some(1));
    }

    #[test]
    fn a_line_whose_record_was_evicted_is_an_error_not_a_line_zero_restart() {
        let mut r = node(P2, StableStore::with_retention(2));
        rounds(&mut r, 3);
        let err = r.rollback(1, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("[stable-history] "), "{err}");
    }

    #[test]
    fn restarted_node_learns_ndc_from_the_restored_epoch() {
        let mut first = node(P2, StableStore::new());
        rounds(&mut first, 2);
        // A new incarnation over what the old one left on disk.
        let mut r = node(P2, first.host.stable);
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(0));
        assert_eq!(r.rollback(2, false).unwrap(), Some(2));
        assert_eq!(mdcd_ndc(&r), CkptSeqNo(2), "passed_AT would compare stale");
    }

    #[test]
    fn the_shadow_logs_what_it_suppresses() {
        let mut sdw = node(P1SDW, StableStore::new());
        sdw.produce(false);
        let status = host_status(&sdw.host);
        assert!(status.logged > 0, "shadow must log suppressed messages");
        assert!(!status.promoted);
    }

    #[test]
    fn peer_state_tracks_dirty_messages() {
        let mut p2 = node(P2, StableStore::new());
        p2.on_envelope(dirty_app(1));
        let status = host_status(&p2.host);
        assert!(status.dirty, "P2 contaminated by the active's message");
        assert!(status.volatile_ckpts >= 1, "Type-1 checkpoint taken");
    }
}
