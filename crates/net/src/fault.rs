//! Link-level fault injection.
//!
//! Two layers share this module:
//!
//! * [`LinkFaults`] — per-message loss/duplication probabilities.
//! * [`LinkFaultPlan`] — a full deterministic fault schedule for a *live*
//!   transport ([`FaultyTransport`](crate::FaultyTransport)): those
//!   probabilities plus bounded delays and timed link partitions; the
//!   transport's fixed retransmit budget masks the injected loss. The plan is
//!   [`Codec`]-serializable so a cluster orchestrator can ship it to node
//!   processes on the command line.
//!
//! The simulator's network injects no link faults: its channels are the
//! reliable FIFO links the protocols assume. Loss and duplication are
//! injected on the live wire only.

use synergy_codec::codec_struct;
use synergy_des::DetRng;

/// Probabilistic message loss and duplication on a link.
///
/// The protocols under study assume reliable FIFO channels for their
/// correctness arguments; fault injection exists for the *negative* tests
/// that show which guarantees the transport layer itself must provide.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_prob: f64,
}

impl LinkFaults {
    /// No faults: every message delivered exactly once.
    pub(crate) const NONE: LinkFaults = LinkFaults {
        drop_prob: 0.0,
        dup_prob: 0.0,
    };

    /// Creates a fault model, validating probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(drop_prob: f64, dup_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "invalid drop_prob: {drop_prob}"
        );
        assert!(
            (0.0..=1.0).contains(&dup_prob),
            "invalid dup_prob: {dup_prob}"
        );
        LinkFaults {
            drop_prob,
            dup_prob,
        }
    }

    /// Whether the next message should be dropped.
    pub(crate) fn roll_drop(&self, rng: &mut DetRng) -> bool {
        self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob)
    }

    /// Whether the next delivered message should be duplicated.
    pub(crate) fn roll_duplicate(&self, rng: &mut DetRng) -> bool {
        self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob)
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

codec_struct!(LinkFaults {
    drop_prob,
    dup_prob
});

/// A timed link outage, expressed as milliseconds since the faulty
/// transport was created. While a window is open every route holds its
/// traffic; held frames flush in order when the window closes, so a
/// partition manifests as delay, never as reordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start, milliseconds after transport creation.
    pub start_ms: u64,
    /// Window end (exclusive), milliseconds after transport creation.
    pub end_ms: u64,
}

impl PartitionWindow {
    /// Whether the window is open at `elapsed_ms` since transport creation.
    pub fn contains(&self, elapsed_ms: u64) -> bool {
        (self.start_ms..self.end_ms).contains(&elapsed_ms)
    }
}

codec_struct!(PartitionWindow { start_ms, end_ms });

/// Deterministic fault schedule for a live transport.
///
/// The plan describes a *lossy wire underneath a retransmitting link
/// layer*: rolled drops are retried with bounded backoff up to the
/// transport's attempt budget, so injected loss is masked into extra
/// latency unless the budget is exhausted (which the wrapper counts
/// rather than hides). Duplication applies only to idempotent ack
/// frames — see `FaultyTransport` for why application frames must never
/// be duplicated.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFaultPlan {
    /// Per-attempt drop probability and per-delivery ack-dup probability.
    pub faults: LinkFaults,
    /// Uniform extra delay per envelope, `[min_ms, max_ms]`.
    pub delay_ms: (u64, u64),
    /// Timed link outages (all routes hold, then flush in order).
    pub partitions: Vec<PartitionWindow>,
    /// Seed for the per-route deterministic RNG streams.
    pub seed: u64,
}

impl LinkFaultPlan {
    /// A plan that injects nothing; the wrapper becomes a passthrough.
    pub fn inert(seed: u64) -> Self {
        LinkFaultPlan {
            faults: LinkFaults::NONE,
            delay_ms: (0, 0),
            partitions: Vec::new(),
            seed,
        }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_inert(&self) -> bool {
        self.faults == LinkFaults::NONE && self.delay_ms == (0, 0) && self.partitions.is_empty()
    }

    /// Checks the ranges the injector relies on.
    ///
    /// # Errors
    ///
    /// A message naming the field: a drop or duplication probability
    /// outside `[0, 1]` (NaN included), inverted delay bounds, or an empty
    /// partition window.
    pub fn validate(&self) -> Result<(), String> {
        check_probability("drop_prob", self.faults.drop_prob)?;
        check_probability("dup_prob", self.faults.dup_prob)?;
        if self.delay_ms.0 > self.delay_ms.1 {
            return Err(format!("inverted delay_ms bounds {:?}", self.delay_ms));
        }
        match self.partitions.iter().find(|w| w.start_ms >= w.end_ms) {
            Some(w) => Err(format!("empty partition window {w:?}")),
            None => Ok(()),
        }
    }
}

/// `Ok` when `p` is a probability, i.e. inside `[0, 1]` (NaN is not); the
/// error names `field`. Fault plans decoded from outside the process go
/// through this before any draw asserts on them.
fn check_probability(field: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{field} must be in [0, 1], got {p}"))
    }
}

impl Default for LinkFaultPlan {
    fn default() -> Self {
        LinkFaultPlan::inert(0)
    }
}

codec_struct!(LinkFaultPlan {
    faults,
    delay_ms,
    partitions,
    seed,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let mut rng = DetRng::new(0);
        for _ in 0..100 {
            assert!(!LinkFaults::NONE.roll_drop(&mut rng));
            assert!(!LinkFaults::NONE.roll_duplicate(&mut rng));
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let f = LinkFaults::new(1.0, 0.0);
        let mut rng = DetRng::new(1);
        for _ in 0..10 {
            assert!(f.roll_drop(&mut rng));
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let f = LinkFaults::new(0.3, 0.0);
        let mut rng = DetRng::new(2);
        let drops = (0..10_000).filter(|_| f.roll_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&drops), "drops={drops}");
    }

    #[test]
    #[should_panic(expected = "invalid drop_prob")]
    fn invalid_probability_rejected() {
        LinkFaults::new(1.5, 0.0);
    }

    #[test]
    fn partition_window_is_half_open() {
        let w = PartitionWindow {
            start_ms: 100,
            end_ms: 200,
        };
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
    }

    #[test]
    fn inert_plan_detects_every_fault_knob() {
        let mut plan = LinkFaultPlan::inert(7);
        assert!(plan.is_inert());
        plan.faults = LinkFaults::new(0.1, 0.0);
        assert!(!plan.is_inert());
        plan = LinkFaultPlan::inert(7);
        plan.delay_ms = (0, 5);
        assert!(!plan.is_inert());
        plan = LinkFaultPlan::inert(7);
        plan.partitions.push(PartitionWindow {
            start_ms: 0,
            end_ms: 1,
        });
        assert!(!plan.is_inert());
    }

    #[test]
    fn plan_roundtrips_through_codec() {
        let plan = LinkFaultPlan {
            faults: LinkFaults::new(0.125, 0.5),
            delay_ms: (2, 17),
            partitions: vec![
                PartitionWindow {
                    start_ms: 300,
                    end_ms: 900,
                },
                PartitionWindow {
                    start_ms: 1500,
                    end_ms: 1600,
                },
            ],
            seed: 0xDEAD_BEEF,
        };
        assert_eq!(plan.validate(), Ok(()));
        let bytes = synergy_codec::to_bytes(&plan).expect("encode");
        let back: LinkFaultPlan = synergy_codec::from_bytes(&bytes).expect("decode");
        assert_eq!(back, plan);
    }
}
