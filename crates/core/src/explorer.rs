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
//!    the shadow and peer to states reflecting only globally validated
//!    messages, with every unvalidated message the peer loses covered by
//!    the shadow's re-send set.
//!
//! The state space is deduplicated on a full structural fingerprint, so the
//! search is exhaustive up to the scripted horizon, not a random sample.

use std::collections::{HashSet, VecDeque};

use synergy_mdcd::{
    Action, ActiveEngine, Event, MdcdConfig, OutboundMessage, PeerEngine, RecoveryDecision,
    ShadowEngine,
};
use synergy_net::{Endpoint, Envelope, MessageBody, ProcessId};

use crate::system::{DEVICE, P1ACT, P1SDW, P2};

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
    act: ActiveEngine,
    sdw: ShadowEngine,
    peer: PeerEngine,
    /// Receipts (from, seq) per process index 0..3.
    receipts: [Vec<(u32, u64)>; 3],
    /// Latest volatile checkpoint per process: (receipts at ckpt, engine
    /// dirty flag at ckpt, vr at ckpt, logged seqs at ckpt).
    volatile: [Option<VolatileSnap>; 3],
    /// Per-link FIFO queues of in-flight envelopes.
    links: Vec<Link>,
    /// Next scripted step.
    next_step: usize,
    /// Ground truth: highest validated sequence number of the component-1
    /// message stream.
    validated: u64,
    /// Payload counter so replica payloads stay aligned.
    produced: u64,
}

type Link = (ProcessId, ProcessId, VecDeque<Envelope>);

#[derive(Clone)]
struct VolatileSnap {
    receipts: Vec<(u32, u64)>,
    engine: synergy_mdcd::EngineSnapshot,
}

impl ExpState {
    fn new() -> Self {
        ExpState {
            act: ActiveEngine::new(MdcdConfig::modified(), P1ACT, P1SDW, P2),
            sdw: ShadowEngine::new(MdcdConfig::modified(), P1SDW, P2),
            peer: PeerEngine::new(MdcdConfig::modified(), P2, P1ACT, P1SDW),
            receipts: [Vec::new(), Vec::new(), Vec::new()],
            volatile: [None, None, None],
            links: Vec::new(),
            next_step: 0,
            validated: 0,
            produced: 0,
        }
    }

    fn idx(pid: ProcessId) -> usize {
        match pid {
            P1ACT => 0,
            P1SDW => 1,
            _ => 2,
        }
    }

    /// A structural fingerprint for deduplication.
    fn fingerprint(&self) -> Vec<u8> {
        type LinkKey = (u32, u32, Vec<(u64, u32)>);
        let links: Vec<LinkKey> = self
            .links
            .iter()
            .map(|(a, b, q)| {
                (
                    a.0,
                    b.0,
                    q.iter().map(|e| (e.id.seq.0, body_tag(&e.body))).collect(),
                )
            })
            .collect();
        let snaps = [
            self.act.snapshot(),
            self.sdw.snapshot(),
            self.peer.snapshot(),
        ];
        let snap_key: Vec<(bool, Option<bool>, u64, u64, usize, bool)> = snaps
            .iter()
            .map(|s| {
                (
                    s.dirty,
                    s.pseudo_dirty,
                    s.msg_sn.0,
                    s.vr_act.0,
                    s.log.len(),
                    s.promoted,
                )
            })
            .collect();
        let vol_key: Vec<Option<(usize, bool, u64)>> = self
            .volatile
            .iter()
            .map(|v| {
                v.as_ref()
                    .map(|v| (v.receipts.len(), v.engine.dirty, v.engine.msg_sn.0))
            })
            .collect();
        synergy_codec::to_bytes(&(
            links,
            snap_key,
            vol_key,
            self.receipts.clone(),
            self.next_step as u64,
            self.validated,
        ))
        .expect("fingerprint encodes")
    }

    fn enqueue(&mut self, env: Envelope) {
        let (from, to) = match env.to {
            Endpoint::Process(p) => (env.from(), p),
            Endpoint::Device(_) => return, // devices are sinks
        };
        if let Some((_, _, q)) = self
            .links
            .iter_mut()
            .find(|(a, b, _)| *a == from && *b == to)
        {
            q.push_back(env);
        } else {
            let mut q = VecDeque::new();
            q.push_back(env);
            self.links.push((from, to, q));
        }
    }

    fn apply_actions(&mut self, host: usize, actions: Vec<Action>, violations: &mut Vec<String>) {
        for action in actions {
            match action {
                Action::Send(env) => {
                    if let MessageBody::PassedAt { msg_sn, .. } = env.body {
                        self.validated = self.validated.max(msg_sn.0);
                    }
                    self.enqueue(env);
                }
                Action::TakeCheckpoint { engine, .. } => {
                    self.volatile[host] = Some(VolatileSnap {
                        receipts: self.receipts[host].clone(),
                        engine,
                    });
                }
                Action::DeliverToApp(env) => {
                    if let MessageBody::Application { .. } = env.body {
                        self.receipts[host].push((env.from().0, env.id.seq.0));
                    }
                }
                Action::AtPerformed { .. } => {}
                Action::SoftwareErrorDetected => {
                    violations.push("unexpected software error in fault-free scenario".into());
                }
            }
        }
    }

    /// Feeds one scripted step (both replicas for component 1).
    fn run_step(&mut self, step: Step, violations: &mut Vec<String>) {
        self.produced += 1;
        let payload = self.produced.to_le_bytes().to_vec();
        match step {
            Step::Component1 { external } => {
                let msg = |to| OutboundMessage {
                    to,
                    payload: payload.clone(),
                    external,
                    at_pass: true,
                };
                let to = if external {
                    Endpoint::Device(DEVICE)
                } else {
                    Endpoint::Process(P2)
                };
                self.feed(0, Event::AppSend(msg(to)), violations);
                self.feed(1, Event::AppSend(msg(to)), violations);
            }
            Step::Component2 { external } => {
                let to = if external {
                    Endpoint::Device(DEVICE)
                } else {
                    Endpoint::Process(P1ACT)
                };
                let send = Event::AppSend(OutboundMessage {
                    to,
                    payload,
                    external,
                    at_pass: true,
                });
                self.feed(2, send, violations);
            }
        }
    }

    /// Delivers the head of link `i`.
    fn deliver(&mut self, i: usize, violations: &mut Vec<String>) {
        let (_, to, env) = {
            let (a, b, q) = &mut self.links[i];
            let env = q.pop_front().expect("non-empty link");
            (*a, *b, env)
        };
        self.links.retain(|(_, _, q)| !q.is_empty());
        self.feed(Self::idx(to), Event::Deliver(env), violations);
    }

    /// Feeds `event` to host `host`'s engine (0 = `P1act`, 1 = `P1sdw`,
    /// 2 = `P2`) and applies the actions it emits.
    fn feed(&mut self, host: usize, event: Event, violations: &mut Vec<String>) {
        let mut actions = Vec::new();
        match host {
            0 => self.act.handle_into(event, &mut actions),
            1 => self.sdw.handle_into(event, &mut actions),
            _ => self.peer.handle_into(event, &mut actions),
        }
        self.apply_actions(host, actions, violations);
    }

    // --- Invariants -----------------------------------------------------

    fn check_invariants(&self, violations: &mut Vec<String>) {
        self.check_dirty_truthfulness(violations);
        self.check_checkpoint_cleanliness(violations);
        self.check_recovery_safety(violations);
    }

    /// A receipt from the active stream is "covered" when a validation with
    /// at least that sequence number has happened (ground truth).
    fn unvalidated_receipts(&self, receipts: &[(u32, u64)], validated: u64) -> usize {
        receipts
            .iter()
            .filter(|(from, seq)| *from == P1ACT.0 && *seq > validated)
            .count()
    }

    fn check_dirty_truthfulness(&self, violations: &mut Vec<String>) {
        // P2's dirty bit must be set whenever its state reflects a message
        // beyond the *globally* validated horizon (its local knowledge can
        // only lag, so local-clean implies globally covered).
        let unvalidated = self.unvalidated_receipts(&self.receipts[2], self.validated);
        if unvalidated > 0 && !self.peer.dirty_bit() {
            violations.push(format!(
                "P2 clean while reflecting {unvalidated} unvalidated messages"
            ));
        }
    }

    fn check_checkpoint_cleanliness(&self, violations: &mut Vec<String>) {
        for (i, name) in [(1usize, "P1sdw"), (2, "P2")] {
            if let Some(v) = &self.volatile[i] {
                if v.engine.dirty {
                    violations.push(format!("{name} checkpoint captured a dirty control state"));
                }
            }
        }
    }

    fn check_recovery_safety(&self, violations: &mut Vec<String>) {
        // Simulate software recovery from the current state and verify the
        // restored states reflect only validated messages.
        let mut sdw = self.sdw.clone();
        let mut peer = self.peer.clone();
        let mut sdw_receipts = self.receipts[1].clone();
        let mut peer_receipts = self.receipts[2].clone();
        if sdw.recovery_decision() == RecoveryDecision::RollBack {
            match &self.volatile[1] {
                Some(v) => {
                    sdw.restore(&v.engine);
                    sdw_receipts = v.receipts.clone();
                }
                None => {
                    violations.push("P1sdw must roll back but has no checkpoint".into());
                    return;
                }
            }
        }
        if peer.recovery_decision() == RecoveryDecision::RollBack {
            match &self.volatile[2] {
                Some(v) => {
                    peer.restore(&v.engine);
                    peer_receipts = v.receipts.clone();
                }
                None => {
                    violations.push("P2 must roll back but has no checkpoint".into());
                    return;
                }
            }
        }
        let n = self.unvalidated_receipts(&peer_receipts, self.validated);
        if n > 0 {
            violations.push(format!(
                "after recovery P2 still reflects {n} unvalidated messages"
            ));
        }
        let n = self.unvalidated_receipts(&sdw_receipts, self.validated);
        if n > 0 {
            violations.push(format!(
                "after recovery P1sdw still reflects {n} unvalidated messages"
            ));
        }
        // Coverage: every component-1 message the peer lost in its rollback
        // (reflected before, not after) and never validated must be covered
        // either by the shadow's re-send set or by re-execution — the
        // promoted shadow resumes from its restored state and regenerates
        // every sequence number beyond its restored send counter.
        let regenerate_after = sdw.snapshot().msg_sn.0;
        let plan = sdw.take_over();
        let resend: HashSet<u64> = plan.resend.iter().map(|e| e.id.seq.0).collect();
        for (from, seq) in &self.receipts[2] {
            if *from != P1ACT.0 || *seq <= self.validated {
                continue;
            }
            let still_reflected = peer_receipts.iter().any(|r| r == &(*from, *seq));
            if !still_reflected && !resend.contains(seq) && *seq <= regenerate_after {
                violations.push(format!(
                    "P2 lost unvalidated message sn{seq}; neither re-sent nor regenerable"
                ));
            }
        }
    }
}

fn body_tag(body: &MessageBody) -> u32 {
    match body {
        MessageBody::Application { dirty, .. } => 1 + u32::from(*dirty),
        MessageBody::External { .. } => 3,
        MessageBody::PassedAt { .. } => 4,
        MessageBody::Ack { .. } => 5,
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
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
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
}
