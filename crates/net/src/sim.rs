//! Pure routing model for the discrete-event simulator.

use synergy_des::{DetRng, SimTime};

use crate::delay::DelayModel;
use crate::message::{Endpoint, Envelope, ProcessId};

/// Bounded-delay FIFO network model.
///
/// `SimNetwork` holds no event queue of its own: the DES driver asks it to
/// [`route`](SimNetwork::route) each envelope and schedules the delivery at
/// the instant it answers. Per-link FIFO order is enforced by never
/// scheduling a delivery earlier than the link's previous one; the
/// simulator's FIFO tie-break preserves order among equal instants.
///
/// # Example
///
/// ```rust
/// use synergy_des::{DetRng, SimDuration, SimTime};
/// use synergy_net::{DelayModel, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId, SimNetwork};
///
/// let mut net = SimNetwork::new(
///     DelayModel::uniform(SimDuration::from_micros(100), SimDuration::from_micros(500)),
///     DetRng::new(7),
/// );
/// let env = Envelope::new(
///     MsgId { from: ProcessId(1), seq: MsgSeqNo(0) },
///     ProcessId(2),
///     MessageBody::Application { payload: vec![], dirty: false },
/// );
/// assert!(net.route(SimTime::ZERO, &env) >= SimTime::from_nanos(100_000));
/// ```
#[derive(Clone, Debug)]
pub struct SimNetwork {
    delay: DelayModel,
    /// Every link that carried an envelope, in first-use order. A system has
    /// a dozen at most (three processes and one device), so `route` finds
    /// its link by scanning: cheaper than hashing the key.
    links: Vec<Link>,
    rng: DetRng,
}

/// One ordered link — a sender process to a destination endpoint — and its
/// FIFO floor: no later envelope is delivered before `last_delivery`.
#[derive(Clone, Debug)]
struct Link {
    from: ProcessId,
    to: Endpoint,
    last_delivery: SimTime,
}

impl SimNetwork {
    /// Creates a network where every link draws its delays from `delay`.
    pub fn new(delay: DelayModel, rng: DetRng) -> Self {
        SimNetwork {
            delay,
            links: Vec::new(),
            rng: rng.stream("sim-network"),
        }
    }

    /// The instant `envelope`, sent at `now`, arrives.
    pub fn route(&mut self, now: SimTime, envelope: &Envelope) -> SimTime {
        let (from, to) = (envelope.from(), envelope.to);
        let i = match self.links.iter().position(|l| l.from == from && l.to == to) {
            Some(i) => i,
            None => {
                self.links.push(Link {
                    from,
                    to,
                    last_delivery: SimTime::ZERO,
                });
                self.links.len() - 1
            }
        };
        let link = &mut self.links[i];
        let at = (now + self.delay.sample(&mut self.rng)).max(link.last_delivery);
        link.last_delivery = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageBody, MsgId, MsgSeqNo};
    use synergy_des::SimDuration;

    fn env(seq: u64) -> Envelope {
        Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(seq),
            },
            ProcessId(2),
            MessageBody::Application {
                payload: vec![],
                dirty: false,
            },
        )
    }

    fn net(model: DelayModel) -> SimNetwork {
        SimNetwork::new(model, DetRng::new(42))
    }

    #[test]
    fn fixed_delay_is_exact() {
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(1)));
        assert_eq!(
            n.route(SimTime::ZERO, &env(0)),
            SimTime::from_nanos(1_000_000)
        );
    }

    #[test]
    fn fifo_order_is_preserved_per_link() {
        // With a widely varying delay, later sends could naturally arrive
        // earlier; FIFO flooring must prevent that.
        let mut n = net(DelayModel::uniform(
            SimDuration::from_micros(1),
            SimDuration::from_millis(100),
        ));
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let at = n.route(SimTime::from_nanos(i * 10), &env(i));
            assert!(at >= last, "FIFO violated: {at} < {last}");
            last = at;
        }
    }

    #[test]
    fn different_links_do_not_share_fifo_floor() {
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(10)));
        // First message on link 1->2 lands at 10ms.
        n.route(SimTime::ZERO, &env(0));
        // A message on link 1->3 sent later but with the same delay must not
        // be floored by the other link's last delivery.
        let other = Envelope::new(
            MsgId {
                from: ProcessId(1),
                seq: MsgSeqNo(1),
            },
            ProcessId(3),
            MessageBody::Application {
                payload: vec![],
                dirty: false,
            },
        );
        assert_eq!(
            n.route(SimTime::from_nanos(1), &other),
            SimTime::from_nanos(10_000_001)
        );
    }

    #[test]
    fn counters_track_sends() {
        let mut n = net(DelayModel::Fixed(SimDuration::ZERO));
        let mut last = SimTime::ZERO;
        for i in 0..5 {
            last = n.route(SimTime::from_nanos(i), &env(i));
        }
        assert_eq!(n.links.len(), 1, "one entry per link");
        assert_eq!(n.links[0].last_delivery, last, "the link tracks its sends");
    }
}
