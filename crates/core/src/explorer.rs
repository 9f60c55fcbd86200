//! Bounded exhaustive exploration of MDCD protocol interleavings.
//!
//! The paper's concluding remarks name "formally validating the
//! protocol-coordination approach" as current work. This module contributes
//! a bounded model checker for the error-containment layer: for a small
//! scripted workload it enumerates **every** network delivery interleaving
//! (respecting per-link FIFO order), and checks, in every reachable state:
//!
//! 1. **dirty-bit truthfulness** — a process's dirty bit is set iff its
//!    state reflects a message not yet covered by a validation it has
//!    learned about;
//! 2. **checkpoint cleanliness** — every volatile checkpoint captures a
//!    non-contaminated state (its receipts are all globally validated);
//! 3. **recovery safety** — software error recovery started *now* restores
//!    the peer to a state reflecting only globally validated messages and
//!    the shadow to one reflecting no message of the active at all, with
//!    every unvalidated message the peer loses covered by the shadow's
//!    re-send set, and the recovered cut passes the global checker after
//!    the cut step's replay, as the simulator's takeover checks it (except
//!    while a `passed_AT` of `P1act` is on its way to `P2`, a known gap).
//!
//! The processes are the simulator's own [`ProcessHost`]s (Coordinated
//! scheme, no TB), fed only through [`ProcessHost::handle_into`]: a
//! scripted step is a [`HostEvent::Produce`], a link head a
//! [`HostEvent::Deliver`]. The explorer owns only the environment: the
//! per-link FIFO queues, the script cursor and the ground-truth validation
//! horizon. Every transition runs at one instant, `SimTime::ZERO`: without
//! TB, time is no protocol input, and a clock would split states that
//! differ only in when a checkpoint was taken.
//!
//! A transport ack reaches its sender in the same transition as the
//! delivery that caused it. Acks only move the sender's unacked set, which
//! no invariant reads while TB is outside the explorer; routing them over
//! the links multiplies the states (by 5 for the default scenario, by 14
//! for a peer-led one) for no check that could tell the difference.
//!
//! States are deduplicated on the exact codec bytes of every host and link,
//! so the search is exhaustive up to the scripted horizon, not a random
//! sample.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use synergy_codec::Codec;
use synergy_des::SimTime;
use synergy_net::{Endpoint, Envelope, MessageBody, MsgSeqNo, ProcessId};

use crate::app::{CounterApp, ReceiptRecord};
use crate::config::Scheme;
use crate::system::{
    process_name, settle_cut, HostAction, HostEvent, ProcessHost, Topology, P1ACT, P1SDW, P2,
};

/// The one instant every transition runs at.
const NOW: SimTime = SimTime::ZERO;

/// One scripted application event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Component 1 (both replicas) produces a message.
    Component1 {
        /// External (acceptance-tested) or internal.
        external: bool,
    },
    /// Component 2 (`P2`) produces a message.
    Component2 {
        /// External (acceptance-tested) or internal.
        external: bool,
    },
}

/// The result of an exhaustive exploration.
#[derive(Clone, Debug, Default)]
pub struct ExplorationReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// Invariant violations found (empty = all interleavings safe).
    pub violations: Vec<String>,
    /// Whether the exploration was truncated by the state budget.
    pub truncated: bool,
}

impl ExplorationReport {
    /// Whether every checked state satisfied every invariant.
    pub fn all_hold(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

#[derive(Clone)]
struct ExpState {
    /// `P1act`, `P1sdw` and `P2`, in that order.
    hosts: [ProcessHost; 3],
    /// Per-link FIFO queues of in-flight envelopes.
    links: Vec<Link>,
    /// Next scripted step.
    next_step: usize,
    /// Ground truth: highest validated sequence number of the component-1
    /// message stream.
    validated: u64,
}

type Link = (ProcessId, ProcessId, VecDeque<Arc<Envelope>>);

impl ExpState {
    fn new() -> Self {
        let topology = Topology::canonical();
        let hosts = topology.processes().map(|(pid, role, node)| {
            let app = CounterApp::new(0);
            let mut h = ProcessHost::new(role, pid, node, topology, Scheme::Coordinated, app, None);
            h.set_tracing(false);
            h
        });
        ExpState {
            hosts,
            links: Vec::new(),
            next_step: 0,
            validated: 0,
        }
    }

    /// The exact deduplication key: every host's state, then every link.
    fn fingerprint(&self) -> Box<[u8]> {
        let mut key = Vec::new();
        for h in &self.hosts {
            h.engine.snapshot().encode(&mut key);
            h.app.state().encode(&mut key);
            h.sent_log.encode(&mut key);
            h.acks.unacked_shared().encode(&mut key);
            h.volatile_image.encode(&mut key);
        }
        for (from, to, q) in &self.links {
            (from.0, to.0, q.len() as u64).encode(&mut key);
            for env in q {
                env.encode(&mut key);
            }
        }
        (self.next_step as u64, self.validated).encode(&mut key);
        key.into_boxed_slice()
    }

    fn enqueue(&mut self, env: Arc<Envelope>) {
        let (from, to) = match env.to {
            Endpoint::Process(p) => (env.from(), p),
            Endpoint::Device(_) => return, // devices are sinks
        };
        match self
            .links
            .iter_mut()
            .find(|(a, b, _)| (*a, *b) == (from, to))
        {
            Some((_, _, q)) => q.push_back(env),
            None => self.links.push((from, to, VecDeque::from([env]))),
        }
    }

    /// Feeds `event` to host `pid` and applies the environment side of the
    /// actions it appends.
    fn feed(&mut self, pid: ProcessId, event: HostEvent, violations: &mut Vec<String>) {
        let mut out = Vec::new();
        let host = self.hosts.iter_mut().find(|h| h.pid == pid);
        let host = host.expect("a host per process");
        host.handle_into(event, NOW, &mut out);
        for action in out {
            match action {
                HostAction::Send(env) => {
                    if let MessageBody::PassedAt { msg_sn, .. } = env.body {
                        self.validated = self.validated.max(msg_sn.0);
                    }
                    self.enqueue(env);
                }
                // Acks land at once (see the module docs).
                HostAction::SendAck(ack) => {
                    let Endpoint::Process(to) = ack.to else {
                        unreachable!("acks answer processes")
                    };
                    self.feed(to, ack.into(), violations);
                }
                HostAction::SoftwareErrorDetected => {
                    violations.push("unexpected software error in fault-free scenario".into());
                }
                _ => {}
            }
        }
    }

    /// Feeds one scripted step (both replicas for component 1).
    fn run_step(&mut self, step: Step, violations: &mut Vec<String>) {
        let (producers, external): (&[ProcessId], bool) = match step {
            Step::Component1 { external } => (&[P1ACT, P1SDW], external),
            Step::Component2 { external } => (&[P2], external),
        };
        for &pid in producers {
            self.feed(pid, HostEvent::Produce { external }, violations);
        }
    }

    /// Delivers the head of link `i`.
    fn deliver(&mut self, i: usize, violations: &mut Vec<String>) {
        let (_, to, q) = &mut self.links[i];
        let (to, env) = (*to, q.pop_front().expect("non-empty link"));
        self.links.retain(|(_, _, q)| !q.is_empty());
        self.feed(to, HostEvent::Deliver(env), violations);
    }

    // --- Invariants -----------------------------------------------------

    fn check_invariants(&self, violations: &mut Vec<String>) {
        self.check_dirty_truthfulness(violations);
        self.check_checkpoint_cleanliness(violations);
        self.check_recovery_safety(violations);
    }

    /// A receipt from the active stream is "covered" when a validation with
    /// at least that sequence number has happened (ground truth).
    fn unvalidated(&self, receipt: &ReceiptRecord) -> bool {
        receipt.from == P1ACT && receipt.seq.0 > self.validated
    }

    fn unvalidated_receipts(&self, host: &ProcessHost) -> usize {
        let received = &host.app.state().received;
        received.iter().filter(|r| self.unvalidated(r)).count()
    }

    fn check_dirty_truthfulness(&self, violations: &mut Vec<String>) {
        // P2's dirty bit must be set whenever its state reflects a message
        // beyond the *globally* validated horizon (its local knowledge can
        // only lag, so local-clean implies globally covered).
        let peer = &self.hosts[2];
        let unvalidated = self.unvalidated_receipts(peer);
        if unvalidated > 0 && !peer.engine.dirty_bit() {
            violations.push(format!(
                "P2 clean while reflecting {unvalidated} unvalidated messages"
            ));
        }
    }

    fn check_checkpoint_cleanliness(&self, violations: &mut Vec<String>) {
        for host in &self.hosts[1..] {
            if host.volatile_image.as_ref().is_some_and(|v| v.engine.dirty) {
                violations.push(format!(
                    "{} checkpoint captured a dirty control state",
                    process_name(host.pid)
                ));
            }
        }
    }

    /// Whether a `passed_AT` of `P1act` is still on its way to `P2`. An AT
    /// failure now has `P2` decide on a dirty bit that notice would clear,
    /// and its rollback can undo a send the clean shadow keeps: a known gap
    /// of the takeover, pinned by
    /// `tests::a_notice_in_flight_to_the_peer_orphans_its_send`.
    fn notice_in_flight_to_peer(&self) -> bool {
        self.links.iter().any(|(from, to, q)| {
            (*from, *to) == (P1ACT, P2)
                && q.iter()
                    .any(|e| matches!(e.body, MessageBody::PassedAt { .. }))
        })
    }

    fn check_recovery_safety(&self, violations: &mut Vec<String>) {
        // Run software recovery from the current state on copies of the
        // shadow and peer — the host steps `System::software_recovery`
        // runs: local rollbacks, the takeover with its resends, and the cut
        // step's replay and global check — and verify the restored states
        // reflect only validated messages.
        let [_, sdw, peer] = &self.hosts;
        let (mut sdw, mut peer) = (sdw.clone(), peer.clone());
        let mut dropped = Vec::with_capacity(2);
        for host in [&mut sdw, &mut peer] {
            let Some((_, _, log)) = host.recover_locally(NOW) else {
                violations.push(format!(
                    "{} must roll back but has no checkpoint",
                    process_name(host.pid)
                ));
                return;
            };
            dropped.push(log);
        }
        // The promoted shadow resumes from its restored state: it re-sends
        // what it suppressed and regenerates every sequence number beyond
        // its restored send counter.
        let regenerate_after = sdw.engine.snapshot().msg_sn;
        let resend = sdw.take_over(&mut peer);
        let resend: HashSet<_> = resend
            .into_iter()
            .map(|env| sdw.note_send(env).id.seq)
            .collect();
        let mut cut = Vec::with_capacity(2);
        for (host, log) in [&mut sdw, &mut peer].into_iter().zip(dropped) {
            let mut payload = host.current_payload(NOW);
            payload.replay = log;
            cut.push((host, payload));
        }
        let (_, verdicts) = settle_cut(cut, P1ACT, MsgSeqNo(self.validated));
        if !self.notice_in_flight_to_peer() {
            for v in &verdicts.violations {
                violations.push(format!("after recovery {v}"));
            }
        }
        let n = self.unvalidated_receipts(&peer);
        if n > 0 {
            violations.push(format!(
                "after recovery P2 still reflects {n} unvalidated messages"
            ));
        }
        // The shadow's application is fed only by P2: a receipt from
        // P1act, validated or not, means the suspect stream reached it.
        let received = &sdw.app.state().received;
        if received.iter().any(|r| r.from == P1ACT) {
            violations.push("after recovery P1sdw reflects a message from P1act".into());
        }
        // Coverage: every component-1 message the peer lost in its rollback
        // (reflected before, not after) and never validated must be covered
        // either by the shadow's re-send set or by re-execution.
        let restored = &peer.app.state().received;
        for r in &self.hosts[2].app.state().received {
            if !self.unvalidated(r) || restored.contains(r) {
                continue;
            }
            if !resend.contains(&r.seq) && r.seq <= regenerate_after {
                violations.push(format!(
                    "P2 lost unvalidated message sn{}; neither re-sent nor regenerable",
                    r.seq.0
                ));
            }
        }
    }
}

/// Exhaustively explores all interleavings of `scenario`.
///
/// Scripted steps execute in order, but every network delivery may
/// interleave arbitrarily with them and with each other (per-link FIFO is
/// respected, as the transport guarantees). `max_states` bounds the search;
/// a truncated report sets [`ExplorationReport::truncated`].
pub fn explore(scenario: &[Step], max_states: usize) -> ExplorationReport {
    let mut report = ExplorationReport::default();
    let mut seen: HashSet<Box<[u8]>> = HashSet::new();
    let mut frontier = vec![ExpState::new()];
    seen.insert(frontier[0].fingerprint());

    while let Some(state) = frontier.pop() {
        report.states += 1;
        if report.states > max_states {
            report.truncated = true;
            break;
        }
        state.check_invariants(&mut report.violations);
        if report.violations.len() > 16 {
            break; // enough evidence
        }

        // Branch 1: execute the next scripted step.
        if state.next_step < scenario.len() {
            let mut next = state.clone();
            next.run_step(scenario[next.next_step], &mut report.violations);
            next.next_step += 1;
            report.transitions += 1;
            if seen.insert(next.fingerprint()) {
                frontier.push(next);
            }
        }
        // Branch 2..n: deliver the head of any non-empty link.
        for i in 0..state.links.len() {
            let mut next = state.clone();
            next.deliver(i, &mut report.violations);
            report.transitions += 1;
            if seen.insert(next.fingerprint()) {
                frontier.push(next);
            }
        }
    }
    report
}

/// The default validation scenario: two contamination/validation cycles
/// with interleaved peer traffic (the Figure 1/3 message pattern).
pub fn default_scenario() -> Vec<Step> {
    vec![
        Step::Component1 { external: false },
        Step::Component2 { external: false },
        Step::Component1 { external: true },
        Step::Component1 { external: false },
        Step::Component2 { external: true },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use synergy_net::MsgSeqNo;

    #[test]
    fn default_scenario_is_safe_in_all_interleavings() {
        let report = explore(&default_scenario(), 2_000_000);
        assert!(
            report.all_hold(),
            "states={} violations={:?}",
            report.states,
            report.violations
        );
        assert!(
            report.states > 100,
            "exploration must branch: {}",
            report.states
        );
    }

    #[test]
    fn single_message_scenario_is_tiny_and_safe() {
        let report = explore(&[Step::Component1 { external: false }], 10_000);
        assert!(report.all_hold(), "{:?}", report.violations);
        assert!(report.states >= 3);
    }

    #[test]
    fn peer_heavy_scenario_is_safe() {
        let scenario = vec![
            Step::Component2 { external: false },
            Step::Component2 { external: false },
            Step::Component1 { external: false },
            Step::Component2 { external: true },
        ];
        let report = explore(&scenario, 2_000_000);
        assert!(report.all_hold(), "{:?}", report.violations);
    }

    /// ROADMAP item 23's script: a dirty `P2` message crosses `P1act`'s
    /// notices at the shadow, which checkpoints before a message `P2`'s
    /// next Type-1 reflects as sent. The cut step replays it; without the
    /// replay this scenario reports the shadow's lost receipt.
    #[test]
    fn item_23_script_is_safe_in_all_interleavings() {
        let scenario = [
            Step::Component1 { external: false },
            Step::Component2 { external: false },
            Step::Component1 { external: true },
            Step::Component2 { external: false },
            Step::Component1 { external: false },
        ];
        let report = explore(&scenario, 2_000_000);
        assert!(report.all_hold(), "{:?}", report.violations);
    }

    /// An AT failure while `P1act`'s `passed_AT` is on its way to `P2`:
    /// the shadow has read its copy and rolls forward, `P2` rolls back on
    /// the dirty bit the notice would clear and undoes `sn2`, which the
    /// shadow reflects as received. The simulator discards the retired
    /// active's notice, so the state without it is the one it recovers.
    #[test]
    #[ignore = "known gap (ROADMAP item 26): the recovered cut is inconsistent"]
    fn a_notice_in_flight_to_the_peer_orphans_its_send() {
        let mut state = ExpState::new();
        let mut violations = Vec::new();
        let deliver = |state: &mut ExpState, from, to, violations: &mut Vec<String>| {
            let link = state
                .links
                .iter()
                .position(|(a, b, _)| (*a, *b) == (from, to));
            state.deliver(link.expect("a message in flight"), violations);
        };
        state.run_step(Step::Component1 { external: false }, &mut violations);
        deliver(&mut state, P1ACT, P2, &mut violations);
        state.run_step(Step::Component2 { external: false }, &mut violations);
        deliver(&mut state, P2, P1SDW, &mut violations);
        deliver(&mut state, P2, P1ACT, &mut violations);
        state.run_step(Step::Component1 { external: true }, &mut violations);
        deliver(&mut state, P1ACT, P1SDW, &mut violations);
        assert!(state.notice_in_flight_to_peer());
        state
            .links
            .retain(|(from, to, _)| (*from, *to) != (P1ACT, P2));
        state.check_invariants(&mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn truncation_is_reported() {
        let report = explore(&default_scenario(), 10);
        assert!(report.truncated);
        assert!(!report.all_hold());
    }

    #[test]
    fn deduplication_keeps_search_finite() {
        // Re-exploring the same scenario yields identical counts.
        let a = explore(&default_scenario(), 2_000_000);
        let b = explore(&default_scenario(), 2_000_000);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn each_invariant_fires_on_a_state_that_breaks_it() {
        // P1act's first internal message delivered to P2: P2 is dirty and
        // holds the clean Type-1 checkpoint it took before the delivery.
        let mut holds = ExpState::new();
        let mut violations = Vec::new();
        holds.run_step(Step::Component1 { external: false }, &mut violations);
        let link = holds
            .links
            .iter()
            .position(|(a, b, _)| (*a, *b) == (P1ACT, P2));
        holds.deliver(link.expect("P1act → P2 in flight"), &mut violations);
        holds.check_invariants(&mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(holds.hosts[2].engine.dirty_bit());
        let fires = |state: &ExpState, expected: &str| {
            let mut violations = Vec::new();
            state.check_invariants(&mut violations);
            assert!(
                violations.iter().any(|v| v.starts_with(expected)),
                "{expected:?} not in {violations:?}"
            );
        };

        let mut clean = holds.clone();
        let mut engine = clean.hosts[2].engine.snapshot();
        engine.dirty = false;
        clean.hosts[2].engine.restore(&engine);
        fires(&clean, "P2 clean while reflecting 1 ");

        let mut dirty_ckpt = holds.clone();
        let image = dirty_ckpt.hosts[2].volatile_image.as_mut();
        image.expect("P2 checkpointed").engine.dirty = true;
        fires(&dirty_ckpt, "P2 checkpoint captured a dirty control state");

        let mut no_ckpt = holds.clone();
        no_ckpt.hosts[2].volatile_image = None;
        fires(&no_ckpt, "P2 must roll back but has no checkpoint");

        // The shadow holds a planted P1act receipt: recovery leaves a clean
        // shadow where it is, so the restored state still reflects it.
        let mut reached = holds;
        reached.hosts[1].app.on_message(P1ACT, MsgSeqNo(1), &[]);
        fires(
            &reached,
            "after recovery P1sdw reflects a message from P1act",
        );
    }
}
