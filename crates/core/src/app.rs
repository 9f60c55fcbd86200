//! The hosted application model.
//!
//! The paper's testbed ran real (spacecraft) application software; here we
//! substitute a deterministic synthetic application whose state folds in
//! every message it processes, so that two replicas fed identical inputs
//! stay bit-identical and global-state checkers can reconstruct exactly
//! which messages a recovered state reflects (DESIGN.md §2).

use synergy_codec::codec_struct;
use synergy_net::{MsgSeqNo, ProcessId};

/// The behaviour the protocol stack requires of a hosted application.
///
/// Implementations must be *deterministic*: the same sequence of
/// `on_message` / `produce_*` calls from the same initial state must yield
/// identical states and payloads, because the shadow replays the active
/// process's input stream.
pub trait Application: Send {
    /// Serializes the full application state.
    fn snapshot(&self) -> Vec<u8>;

    /// Serializes the full application state into `out`, replacing what it
    /// held: the same bytes as [`snapshot`](Application::snapshot). A host
    /// that checkpoints on every confidence change keeps one buffer and
    /// grows no vector per image.
    fn snapshot_into(&self, out: &mut Vec<u8>) {
        *out = self.snapshot();
    }

    /// Replaces the state with a snapshot produced by
    /// [`snapshot`](Application::snapshot).
    ///
    /// # Panics
    ///
    /// Implementations may panic on snapshots they did not produce; the
    /// storage layer's CRC protects this path.
    fn restore(&mut self, bytes: &[u8]);

    /// Processes one delivered application message.
    fn on_message(&mut self, from: ProcessId, seq: MsgSeqNo, payload: &[u8]);

    /// Produces the next internal (process-to-process) payload.
    fn produce_internal(&mut self) -> Vec<u8>;

    /// Produces the next external (device-bound) payload.
    fn produce_external(&mut self) -> Vec<u8>;

    /// The acceptance test: validates an external payload by reasonableness
    /// checking (paper §2.1 — external messages carry control commands that
    /// simple logic checks can validate).
    fn acceptance_test(&self, payload: &[u8]) -> bool;

    /// Switches the design-fault injection on or off. The default
    /// implementation ignores the request (a correct version has no fault to
    /// activate).
    fn set_faulty(&mut self, _faulty: bool) {}
}

/// One record of a processed message, kept for the global-state checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReceiptRecord {
    /// The sending process.
    pub from: ProcessId,
    /// The sender-assigned sequence number.
    pub seq: MsgSeqNo,
}

/// Serializable state of [`CounterApp`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterState {
    /// Number of state transitions performed.
    pub steps: u64,
    /// Running mix of everything processed (replica-equality witness).
    pub acc: u64,
    /// Internal payloads produced.
    pub internals_produced: u64,
    /// External payloads produced.
    pub externals_produced: u64,
    /// Every message this state reflects, in processing order.
    pub received: Vec<ReceiptRecord>,
}

crate::payload::codec_pid_seq_record!(ReceiptRecord { from, seq });
codec_struct!(CounterState {
    steps,
    acc,
    internals_produced,
    externals_produced,
    received
});

/// A deterministic counter application with checksummed external messages
/// and an injectable design fault.
///
/// * Internal payloads encode the producing step and the running
///   accumulator, so receivers mix in genuinely state-dependent data.
/// * External payloads end in a checksum byte; the acceptance test verifies
///   it. When the design fault is active the checksum is corrupted, so the
///   next acceptance test fails — modelling a low-confidence upgraded
///   version whose error is AT-detectable (paper §2.1's key assumption).
///
/// # Example
///
/// ```rust
/// use synergy::app::{Application, CounterApp};
///
/// let mut good = CounterApp::new(7);
/// let payload = good.produce_external();
/// assert!(good.acceptance_test(&payload));
///
/// let mut bad = CounterApp::new(7);
/// bad.set_faulty(true);
/// let payload = bad.produce_external();
/// assert!(!bad.acceptance_test(&payload));
/// ```
#[derive(Clone, Debug)]
pub struct CounterApp {
    state: CounterState,
    faulty: bool,
}

impl CounterApp {
    /// Creates an application whose accumulator starts at `salt` (give both
    /// replicas the same salt).
    pub fn new(salt: u64) -> Self {
        CounterApp {
            state: CounterState {
                acc: mix(salt, 0),
                ..CounterState::default()
            },
            faulty: false,
        }
    }

    /// Read access to the full state (checkers use this).
    pub fn state(&self) -> &CounterState {
        &self.state
    }

    /// Whether the design fault is currently active.
    pub fn is_faulty(&self) -> bool {
        self.faulty
    }

    /// Decodes a snapshot back into a state (for checkers inspecting
    /// checkpoints).
    pub fn decode_state(bytes: &[u8]) -> Option<CounterState> {
        synergy_codec::from_bytes(bytes).ok()
    }
}

impl Application for CounterApp {
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        synergy_codec::to_bytes_into(&self.state, out).expect("CounterState always encodes");
    }

    fn restore(&mut self, bytes: &[u8]) {
        self.state = synergy_codec::from_bytes(bytes).expect("snapshot round-trip");
    }

    fn on_message(&mut self, from: ProcessId, seq: MsgSeqNo, payload: &[u8]) {
        self.state.steps += 1;
        for &b in payload {
            self.state.acc = mix(self.state.acc, u64::from(b));
        }
        self.state.acc = mix(self.state.acc, u64::from(from.0));
        self.state.acc = mix(self.state.acc, seq.0);
        self.state.received.push(ReceiptRecord { from, seq });
    }

    fn produce_internal(&mut self) -> Vec<u8> {
        self.state.steps += 1;
        self.state.internals_produced += 1;
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.state.internals_produced.to_le_bytes());
        payload.extend_from_slice(&self.state.acc.to_le_bytes());
        self.state.acc = mix(self.state.acc, self.state.internals_produced);
        payload
    }

    fn produce_external(&mut self) -> Vec<u8> {
        self.state.steps += 1;
        self.state.externals_produced += 1;
        let mut payload = Vec::with_capacity(17);
        payload.extend_from_slice(&self.state.externals_produced.to_le_bytes());
        payload.extend_from_slice(&self.state.acc.to_le_bytes());
        self.state.acc = mix(self.state.acc, self.state.externals_produced);
        let mut sum = checksum(&payload);
        if self.faulty {
            // The design fault: a wrong command byte the reasonableness
            // check catches.
            sum = sum.wrapping_add(1);
        }
        payload.push(sum);
        payload
    }

    fn acceptance_test(&self, payload: &[u8]) -> bool {
        match payload.split_last() {
            Some((&sum, body)) => checksum(body) == sum,
            None => false,
        }
    }

    fn set_faulty(&mut self, faulty: bool) {
        self.faulty = faulty;
    }
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes
        .iter()
        .fold(0x5Au8, |acc, &b| acc.wrapping_mul(31).wrapping_add(b))
}

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^ (x >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_stay_identical_on_identical_inputs() {
        let mut a = CounterApp::new(1);
        let mut b = CounterApp::new(1);
        for i in 0..20 {
            a.on_message(ProcessId(3), MsgSeqNo(i), &[i as u8, 2, 3]);
            b.on_message(ProcessId(3), MsgSeqNo(i), &[i as u8, 2, 3]);
            assert_eq!(a.produce_internal(), b.produce_internal());
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn different_salts_diverge() {
        let mut a = CounterApp::new(1);
        let mut b = CounterApp::new(2);
        assert_ne!(a.produce_internal(), b.produce_internal());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut app = CounterApp::new(9);
        app.on_message(ProcessId(1), MsgSeqNo(1), &[1]);
        let snap = app.snapshot();
        app.on_message(ProcessId(1), MsgSeqNo(2), &[2]);
        let diverged = app.state().clone();
        app.restore(&snap);
        assert_ne!(*app.state(), diverged);
        assert_eq!(app.state().received.len(), 1);
    }

    #[test]
    fn acceptance_test_validates_good_payloads() {
        let mut app = CounterApp::new(3);
        for _ in 0..10 {
            let p = app.produce_external();
            assert!(app.acceptance_test(&p));
        }
    }

    #[test]
    fn fault_injection_fails_acceptance_test() {
        let mut app = CounterApp::new(3);
        app.set_faulty(true);
        let p = app.produce_external();
        assert!(!app.acceptance_test(&p));
        // Switching the fault off heals subsequent outputs.
        app.set_faulty(false);
        let p = app.produce_external();
        assert!(app.acceptance_test(&p));
    }

    #[test]
    fn faulty_version_produces_identical_internal_traffic() {
        // The design fault is only visible in external messages: the shadow
        // and active replicas must not diverge on internal traffic.
        let mut good = CounterApp::new(5);
        let mut bad = CounterApp::new(5);
        bad.set_faulty(true);
        for _ in 0..10 {
            assert_eq!(good.produce_internal(), bad.produce_internal());
        }
    }

    #[test]
    fn empty_payload_fails_acceptance_test() {
        let app = CounterApp::new(0);
        assert!(!app.acceptance_test(&[]));
    }

    #[test]
    fn receipts_record_processing_order() {
        let mut app = CounterApp::new(0);
        app.on_message(ProcessId(1), MsgSeqNo(5), &[]);
        app.on_message(ProcessId(3), MsgSeqNo(1), &[]);
        let got: Vec<(u32, u64)> = app
            .state()
            .received
            .iter()
            .map(|r| (r.from.0, r.seq.0))
            .collect();
        assert_eq!(got, vec![(1, 5), (3, 1)]);
    }

    #[test]
    fn decode_state_rejects_garbage() {
        assert!(CounterApp::decode_state(&[1, 2, 3]).is_none());
        let app = CounterApp::new(4);
        assert_eq!(
            CounterApp::decode_state(&app.snapshot()).as_ref(),
            Some(app.state())
        );
    }
}
