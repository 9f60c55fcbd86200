//! Pure routing model for the discrete-event simulator.

use synergy_des::{DetRng, SimDuration, SimTime};

use crate::delay::DelayModel;
use crate::fault::LinkFaults;
use crate::message::{Endpoint, Envelope, ProcessId};

/// An ordered link: one sender process to one destination endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkKey {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving endpoint.
    pub to: Endpoint,
}

impl LinkKey {
    /// The link carrying `envelope`.
    pub fn of(envelope: &Envelope) -> LinkKey {
        LinkKey {
            from: envelope.from(),
            to: envelope.to,
        }
    }
}

/// The outcome of routing one envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Deliver at `at`; when `duplicate_at` is set the message arrives a
    /// second time at that instant.
    Deliver {
        /// Primary delivery instant.
        at: SimTime,
        /// Optional duplicate delivery instant.
        duplicate_at: Option<SimTime>,
    },
    /// The message was lost.
    Dropped,
}

/// Delivery counters kept by [`SimNetwork`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Envelopes handed to `route`.
    pub sent: u64,
    /// Primary deliveries decided.
    pub delivered: u64,
    /// Envelopes dropped by fault injection.
    pub dropped: u64,
    /// Duplicate deliveries decided.
    pub duplicated: u64,
}

/// Bounded-delay FIFO network model.
///
/// `SimNetwork` holds no event queue of its own: the DES driver asks it to
/// [`route`](SimNetwork::route) each envelope and schedules the resulting
/// delivery instants. Per-link FIFO order is enforced by never scheduling a
/// delivery earlier than the link's previous one; the simulator's FIFO
/// tie-break preserves order among equal instants.
///
/// # Example
///
/// ```rust
/// use synergy_des::{DetRng, SimDuration, SimTime};
/// use synergy_net::{DelayModel, Envelope, MessageBody, MsgId, MsgSeqNo, ProcessId, RouteDecision, SimNetwork};
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
/// match net.route(SimTime::ZERO, &env) {
///     RouteDecision::Deliver { at, .. } => assert!(at >= SimTime::from_nanos(100_000)),
///     RouteDecision::Dropped => unreachable!("no fault injection configured"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SimNetwork {
    default_delay: DelayModel,
    default_faults: LinkFaults,
    /// Every link that carried an envelope or was given an override, in
    /// first-use order. A system has a dozen at most (three processes and
    /// one device), so `route` finds its link by scanning: cheaper than
    /// hashing the key, and one entry holds what three maps used to.
    links: Vec<Link>,
    rng: DetRng,
    counters: NetCounters,
}

/// What the network knows about one link.
#[derive(Clone, Debug)]
struct Link {
    key: LinkKey,
    /// Delay override (scenario scripting); the default model without one.
    delay: Option<DelayModel>,
    /// Fault override; the default faults without one.
    faults: Option<LinkFaults>,
    /// The FIFO floor: no later envelope is delivered before this instant.
    last_delivery: SimTime,
}

impl SimNetwork {
    /// Creates a network where every link uses `default_delay` and no faults.
    pub fn new(default_delay: DelayModel, rng: DetRng) -> Self {
        SimNetwork {
            default_delay,
            default_faults: LinkFaults::NONE,
            links: Vec::new(),
            rng: rng.stream("sim-network"),
            counters: NetCounters::default(),
        }
    }

    /// Overrides the delay model of one link (scenario scripting).
    pub fn set_link_delay(&mut self, link: LinkKey, model: DelayModel) {
        let i = self.link_index(link);
        self.links[i].delay = Some(model);
    }

    /// Sets the fault model applied to every link without an override.
    pub fn set_default_faults(&mut self, faults: LinkFaults) {
        self.default_faults = faults;
    }

    /// Overrides the fault model of one link.
    pub fn set_link_faults(&mut self, link: LinkKey, faults: LinkFaults) {
        let i = self.link_index(link);
        self.links[i].faults = Some(faults);
    }

    /// Where `key`'s entry sits, appending it on first use.
    fn link_index(&mut self, key: LinkKey) -> usize {
        if let Some(i) = self.links.iter().position(|l| l.key == key) {
            return i;
        }
        self.links.push(Link {
            key,
            delay: None,
            faults: None,
            last_delivery: SimTime::ZERO,
        });
        self.links.len() - 1
    }

    /// The smallest delay any link can exhibit (`tmin`).
    pub fn tmin(&self) -> SimDuration {
        self.links
            .iter()
            .filter_map(|l| l.delay.as_ref())
            .map(DelayModel::min_delay)
            .chain(std::iter::once(self.default_delay.min_delay()))
            .min()
            .expect("iterator is non-empty")
    }

    /// The largest delay any link can exhibit (`tmax`).
    pub fn tmax(&self) -> SimDuration {
        self.links
            .iter()
            .filter_map(|l| l.delay.as_ref())
            .map(DelayModel::max_delay)
            .chain(std::iter::once(self.default_delay.max_delay()))
            .max()
            .expect("iterator is non-empty")
    }

    /// Routing counters so far.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Decides when (whether) `envelope`, sent at `now`, arrives.
    pub fn route(&mut self, now: SimTime, envelope: &Envelope) -> RouteDecision {
        self.counters.sent += 1;
        let i = self.link_index(LinkKey::of(envelope));
        let link = &mut self.links[i];
        let faults = link.faults.unwrap_or(self.default_faults);
        if faults.roll_drop(&mut self.rng) {
            self.counters.dropped += 1;
            return RouteDecision::Dropped;
        }
        let model = link.delay.unwrap_or(self.default_delay);
        let delay = model.sample(&mut self.rng);
        let at = (now + delay).max(link.last_delivery);
        link.last_delivery = at;
        self.counters.delivered += 1;
        let duplicate_at = if faults.roll_duplicate(&mut self.rng) {
            self.counters.duplicated += 1;
            let extra = model.sample(&mut self.rng);
            let dup = (at + extra).max(at);
            link.last_delivery = dup;
            Some(dup)
        } else {
            None
        };
        RouteDecision::Deliver { at, duplicate_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageBody, MsgId, MsgSeqNo};

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
        match n.route(SimTime::ZERO, &env(0)) {
            RouteDecision::Deliver { at, duplicate_at } => {
                assert_eq!(at, SimTime::from_nanos(1_000_000));
                assert_eq!(duplicate_at, None);
            }
            RouteDecision::Dropped => panic!("unexpected drop"),
        }
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
            let sent_at = SimTime::from_nanos(i * 10);
            match n.route(sent_at, &env(i)) {
                RouteDecision::Deliver { at, .. } => {
                    assert!(at >= last, "FIFO violated: {at} < {last}");
                    last = at;
                }
                RouteDecision::Dropped => panic!("unexpected drop"),
            }
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
        match n.route(SimTime::from_nanos(1), &other) {
            RouteDecision::Deliver { at, .. } => {
                assert_eq!(at, SimTime::from_nanos(10_000_001));
            }
            RouteDecision::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn drop_faults_drop() {
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(1)));
        n.set_default_faults(LinkFaults::new(1.0, 0.0));
        assert_eq!(n.route(SimTime::ZERO, &env(0)), RouteDecision::Dropped);
        assert_eq!(n.counters().dropped, 1);
    }

    #[test]
    fn duplicates_arrive_no_earlier_than_primary() {
        let mut n = net(DelayModel::uniform(
            SimDuration::from_micros(10),
            SimDuration::from_micros(50),
        ));
        n.set_default_faults(LinkFaults::new(0.0, 1.0));
        for i in 0..50 {
            if let RouteDecision::Deliver { at, duplicate_at } =
                n.route(SimTime::from_nanos(i * 1000), &env(i))
            {
                let dup = duplicate_at.expect("dup_prob = 1");
                assert!(dup >= at);
            }
        }
        assert_eq!(n.counters().duplicated, 50);
    }

    #[test]
    fn per_link_override_beats_default() {
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(5)));
        let e = env(0);
        n.set_link_delay(
            LinkKey::of(&e),
            DelayModel::Fixed(SimDuration::from_millis(1)),
        );
        match n.route(SimTime::ZERO, &e) {
            RouteDecision::Deliver { at, .. } => assert_eq!(at, SimTime::from_nanos(1_000_000)),
            RouteDecision::Dropped => panic!("unexpected drop"),
        }
        assert_eq!(n.tmin(), SimDuration::from_millis(1));
        assert_eq!(n.tmax(), SimDuration::from_millis(5));
    }

    #[test]
    fn setting_a_link_twice_overwrites_its_one_entry() {
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(5)));
        let e = env(0);
        let link = LinkKey::of(&e);
        n.set_link_delay(link, DelayModel::Fixed(SimDuration::from_millis(9)));
        n.set_link_delay(link, DelayModel::Fixed(SimDuration::from_millis(1)));
        n.set_link_faults(link, LinkFaults::new(1.0, 0.0));
        n.set_link_faults(link, LinkFaults::NONE);
        assert_eq!(n.links.len(), 1, "one entry per link, whatever was set");
        // The first delay is gone from the bounds as well as from routing,
        // and the first fault model no longer drops.
        assert_eq!(n.tmax(), SimDuration::from_millis(5));
        assert_eq!(
            n.route(SimTime::ZERO, &e),
            RouteDecision::Deliver {
                at: SimTime::from_nanos(1_000_000),
                duplicate_at: None,
            }
        );
        assert_eq!(n.links.len(), 1, "routing reuses the configured entry");
    }

    #[test]
    fn fifo_floor_survives_a_duplicate() {
        // The duplicate is the link's last delivery: the next envelope must
        // not overtake it, even when its own delay would land it earlier.
        let mut n = net(DelayModel::Fixed(SimDuration::from_millis(10)));
        n.set_default_faults(LinkFaults::new(0.0, 1.0));
        let RouteDecision::Deliver { at, duplicate_at } = n.route(SimTime::ZERO, &env(0)) else {
            panic!("unexpected drop");
        };
        assert_eq!(at, SimTime::from_nanos(10_000_000));
        assert_eq!(duplicate_at, Some(SimTime::from_nanos(20_000_000)));
        n.set_default_faults(LinkFaults::NONE);
        n.set_link_delay(
            LinkKey::of(&env(1)),
            DelayModel::Fixed(SimDuration::from_millis(1)),
        );
        assert_eq!(
            n.route(SimTime::from_nanos(1), &env(1)),
            RouteDecision::Deliver {
                at: SimTime::from_nanos(20_000_000),
                duplicate_at: None,
            }
        );
    }

    #[test]
    fn counters_track_sends() {
        let mut n = net(DelayModel::Fixed(SimDuration::ZERO));
        for i in 0..5 {
            n.route(SimTime::ZERO, &env(i));
        }
        let c = n.counters();
        assert_eq!(c.sent, 5);
        assert_eq!(c.delivered, 5);
        assert_eq!(c.dropped, 0);
    }
}
