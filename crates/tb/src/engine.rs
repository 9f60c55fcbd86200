//! The TB checkpointing engine (`createCKPT`, paper Fig. 5).

use synergy_clocks::LocalTime;
use synergy_net::CkptSeqNo;

use crate::actions::{Action, ContentsChoice};
use crate::blocking::blocking_period;
use crate::config::{TbConfig, TbVariant};
use crate::events::Event;

/// `createCKPT` requests a timer resynchronization once accumulated drift
/// would make the *next* interval's worst-case blocking period exceed this
/// fraction of `Δ`: blocking stays below a quarter of the interval.
const RESYNC_THRESHOLD: f64 = 0.25;

/// Sans-io engine for one process's time-based checkpointing.
///
/// # Example
///
/// ```rust
/// use synergy_clocks::{LocalTime, SyncParams};
/// use synergy_des::SimDuration;
/// use synergy_tb::{Action, ContentsChoice, Event, TbConfig, TbEngine, TbVariant};
///
/// let cfg = TbConfig::new(
///     TbVariant::Adapted,
///     SimDuration::from_secs(1),
///     SyncParams::new(SimDuration::from_micros(100), 1e-5),
///     SimDuration::from_micros(100),
///     SimDuration::from_millis(1),
/// );
/// let mut tb = TbEngine::new(cfg);
/// let start = tb.start();
/// assert!(matches!(start[0], Action::ScheduleTimer { .. }));
///
/// // Timer fires while the process is dirty: begin copying the volatile
/// // checkpoint to disk and block.
/// let mut fired = Vec::new();
/// tb.handle_into(
///     Event::TimerExpired {
///         now_local: LocalTime::from_nanos(1_000_000_000),
///         dirty: true,
///     },
///     &mut fired,
/// );
/// assert!(matches!(
///     fired[0],
///     Action::BeginStableWrite { contents: ContentsChoice::VolatileCopy, .. }
/// ));
/// ```
#[derive(Clone, Debug)]
pub struct TbEngine {
    cfg: TbConfig,
    ndc: CkptSeqNo,
    next_deadline: LocalTime,
    last_resync: LocalTime,
    in_blocking: bool,
    in_flight_expected_dirty: Option<bool>,
}

impl TbEngine {
    /// Creates an engine; call [`start`](TbEngine::start) to obtain the
    /// first timer.
    pub fn new(cfg: TbConfig) -> Self {
        TbEngine {
            next_deadline: LocalTime::ZERO + cfg.interval,
            cfg,
            ndc: CkptSeqNo(0),
            last_resync: LocalTime::ZERO,
            in_blocking: false,
            in_flight_expected_dirty: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TbConfig {
        &self.cfg
    }

    /// Current stable-checkpoint sequence number (`Ndc`).
    pub fn ndc(&self) -> CkptSeqNo {
        self.ndc
    }

    /// Whether the process is inside a blocking period.
    pub fn is_blocking(&self) -> bool {
        self.in_blocking
    }

    /// The next scheduled timer deadline (`dCKPT_time`).
    pub fn next_deadline(&self) -> LocalTime {
        self.next_deadline
    }

    /// Emits the initial timer-scheduling action.
    pub fn start(&mut self) -> Vec<Action> {
        vec![Action::ScheduleTimer {
            at: self.next_deadline,
        }]
    }

    /// Feeds one event, appending the actions to execute, in order, to
    /// `out`.
    pub fn handle_into(&mut self, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::TimerExpired { now_local, dirty } => self.create_ckpt(now_local, dirty, out),
            Event::LineMoved { dirty } => self.line_moved(dirty, out),
            Event::BlockingElapsed => self.blocking_elapsed(out),
            Event::ResyncCompleted { now_local } => self.last_resync = now_local,
            Event::Restarted { now_local, ndc } => self.restarted(now_local, ndc, out),
        }
    }

    /// `createCKPT()` — paper Fig. 5.
    fn create_ckpt(&mut self, now_local: LocalTime, dirty: bool, out: &mut Vec<Action>) {
        debug_assert!(
            !self.in_blocking,
            "timer expired inside a blocking period; interval too short"
        );
        out.push(Action::BeginStableWrite {
            contents: self.contents(dirty),
            expected_dirty: dirty,
        });
        let elapsed = now_local.saturating_duration_since(self.last_resync);
        let duration = blocking_period(
            self.cfg.variant,
            self.cfg.sync,
            elapsed,
            self.cfg.tmin,
            self.cfg.tmax,
            dirty,
        );
        out.push(Action::StartBlocking { duration });
        self.in_blocking = true;
        self.in_flight_expected_dirty = Some(dirty);
        // `dCKPT_time = dCKPT_time + Δ; set_timer(createCKPT, dCKPT_time)`
        self.next_deadline = self.next_deadline + self.cfg.interval;
        out.push(Action::ScheduleTimer {
            at: self.next_deadline,
        });
        // Resynchronize once accumulated drift would make the *next*
        // interval's worst-case blocking period exceed the threshold.
        let next_elapsed = elapsed + self.cfg.interval;
        let worst_next = blocking_period(
            self.cfg.variant,
            self.cfg.sync,
            next_elapsed,
            self.cfg.tmin,
            self.cfg.tmax,
            true,
        );
        if worst_next > self.cfg.interval.mul_f64(RESYNC_THRESHOLD) {
            out.push(Action::RequestResync);
        }
    }

    /// Figure 5's contents rule, at a begin and at a replace alike.
    fn contents(&self, dirty: bool) -> ContentsChoice {
        match (self.cfg.variant, dirty) {
            // `else write_disk(rCKPT, 1, current_state)`
            (TbVariant::Adapted, true) => ContentsChoice::VolatileCopy,
            // `if (dirty_bit == 0) write_disk(current_state, 0, null)`
            (TbVariant::Adapted, false) | (TbVariant::Original, _) => ContentsChoice::CurrentState,
        }
    }

    fn line_moved(&mut self, dirty: bool, out: &mut Vec<Action>) {
        // Only a write of the adapted protocol that *began* as a volatile
        // copy (expected bit 1) is adjusted, at every move of its line.
        if self.cfg.variant == TbVariant::Adapted
            && self.in_blocking
            && self.in_flight_expected_dirty == Some(true)
        {
            let contents = self.contents(dirty);
            out.push(Action::ReplaceStableWrite { contents });
        }
    }

    fn blocking_elapsed(&mut self, out: &mut Vec<Action>) {
        debug_assert!(self.in_blocking, "spurious BlockingElapsed");
        self.in_blocking = false;
        self.in_flight_expected_dirty = None;
        self.ndc = self.ndc.next();
        out.push(Action::CommitStableWrite { ndc: self.ndc });
    }

    fn restarted(&mut self, now_local: LocalTime, ndc: CkptSeqNo, out: &mut Vec<Action>) {
        self.ndc = ndc;
        self.in_blocking = false;
        self.in_flight_expected_dirty = None;
        // Rejoin the original deadline grid: the first multiple of Δ
        // strictly after the restart instant.
        let interval = self.cfg.interval.as_nanos();
        let k = now_local.as_nanos() / interval + 1;
        self.next_deadline = LocalTime::from_nanos(k * interval);
        out.push(Action::ScheduleTimer {
            at: self.next_deadline,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_clocks::SyncParams;
    use synergy_des::SimDuration;

    fn cfg(variant: TbVariant) -> TbConfig {
        TbConfig::new(
            variant,
            SimDuration::from_secs(1),
            SyncParams::new(SimDuration::from_micros(500), 1e-4),
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
        )
    }

    /// Feeds `event`, collecting the actions it produces.
    fn feed(engine: &mut TbEngine, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        engine.handle_into(event, &mut out);
        out
    }

    fn expired(engine: &mut TbEngine, at_secs: f64, dirty: bool) -> Vec<Action> {
        feed(
            engine,
            Event::TimerExpired {
                now_local: LocalTime::from_nanos((at_secs * 1e9) as u64),
                dirty,
            },
        )
    }

    #[test]
    fn start_schedules_first_interval() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        let a = e.start();
        assert_eq!(
            a,
            vec![Action::ScheduleTimer {
                at: LocalTime::from_nanos(1_000_000_000)
            }]
        );
    }

    #[test]
    fn clean_process_saves_current_state() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        let a = expired(&mut e, 1.0, false);
        assert!(matches!(
            a[0],
            Action::BeginStableWrite {
                contents: ContentsChoice::CurrentState,
                expected_dirty: false,
            }
        ));
    }

    #[test]
    fn dirty_process_copies_volatile_checkpoint() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        let a = expired(&mut e, 1.0, true);
        assert!(matches!(
            a[0],
            Action::BeginStableWrite {
                contents: ContentsChoice::VolatileCopy,
                expected_dirty: true,
            }
        ));
    }

    #[test]
    fn original_always_saves_current_state() {
        let mut e = TbEngine::new(cfg(TbVariant::Original));
        let a = expired(&mut e, 1.0, true);
        assert!(matches!(
            a[0],
            Action::BeginStableWrite {
                contents: ContentsChoice::CurrentState,
                ..
            }
        ));
    }

    #[test]
    fn blocking_duration_depends_on_dirty_bit() {
        let mut e1 = TbEngine::new(cfg(TbVariant::Adapted));
        let mut e2 = TbEngine::new(cfg(TbVariant::Adapted));
        let clean = expired(&mut e1, 1.0, false);
        let dirty = expired(&mut e2, 1.0, true);
        let d_clean = match clean[1] {
            Action::StartBlocking { duration } => duration,
            _ => panic!("expected StartBlocking"),
        };
        let d_dirty = match dirty[1] {
            Action::StartBlocking { duration } => duration,
            _ => panic!("expected StartBlocking"),
        };
        assert_eq!(
            d_dirty - d_clean,
            SimDuration::from_millis(2) + SimDuration::from_micros(200),
            "difference is tmax + tmin"
        );
    }

    #[test]
    fn deadline_advances_by_interval() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        e.start();
        expired(&mut e, 1.0, false);
        assert_eq!(e.next_deadline(), LocalTime::from_nanos(2_000_000_000));
        feed(&mut e, Event::BlockingElapsed);
        expired(&mut e, 2.0, false);
        assert_eq!(e.next_deadline(), LocalTime::from_nanos(3_000_000_000));
    }

    #[test]
    fn commit_advances_ndc() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        expired(&mut e, 1.0, false);
        assert!(e.is_blocking());
        assert_eq!(e.ndc(), CkptSeqNo(0), "Ndc advances at commit, not begin");
        let a = feed(&mut e, Event::BlockingElapsed);
        assert_eq!(a, vec![Action::CommitStableWrite { ndc: CkptSeqNo(1) }]);
        assert_eq!(e.ndc(), CkptSeqNo(1));
        assert!(!e.is_blocking());
    }

    const CLEARED: Event = Event::LineMoved { dirty: false };

    #[test]
    fn a_line_move_replaces_contents_with_what_the_line_names() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        expired(&mut e, 1.0, true);
        // P1act's line moves to a later pseudo checkpoint: a new copy.
        let moved = feed(&mut e, Event::LineMoved { dirty: true });
        let copy = ContentsChoice::VolatileCopy;
        assert_eq!(moved, vec![Action::ReplaceStableWrite { contents: copy }]);
        // Then the bit clears: the current state.
        let current = ContentsChoice::CurrentState;
        let cleared = feed(&mut e, CLEARED);
        assert_eq!(
            cleared,
            vec![Action::ReplaceStableWrite { contents: current }]
        );
    }

    #[test]
    fn dirty_cleared_ignored_when_write_began_clean() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        expired(&mut e, 1.0, false);
        assert!(feed(&mut e, CLEARED).is_empty());
    }

    #[test]
    fn dirty_cleared_ignored_outside_blocking() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        assert!(feed(&mut e, CLEARED).is_empty());
    }

    #[test]
    fn original_variant_never_replaces() {
        let mut e = TbEngine::new(cfg(TbVariant::Original));
        expired(&mut e, 1.0, true);
        assert!(feed(&mut e, CLEARED).is_empty());
    }

    #[test]
    fn resync_requested_when_drift_accumulates() {
        // 100ppm drift, 1s interval, threshold 25%: blocking must stay below
        // 250ms; δ+2ρτ+tmax reaches that once τ ≈ 1237s.
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        let quiet = expired(&mut e, 1.0, false);
        assert!(!quiet.contains(&Action::RequestResync));
        feed(&mut e, Event::BlockingElapsed);
        let noisy = expired(&mut e, 2000.0, false);
        let requests = noisy.iter().filter(|&a| *a == Action::RequestResync);
        assert_eq!(requests.count(), 1);
    }

    #[test]
    fn resync_completion_resets_drift_accounting() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        feed(
            &mut e,
            Event::ResyncCompleted {
                now_local: LocalTime::from_nanos(2_000_000_000_000),
            },
        );
        // Elapsed-since-resync is now ~0: no resync request.
        let a = expired(&mut e, 2000.5, false);
        assert!(!a.contains(&Action::RequestResync));
    }

    #[test]
    fn restart_rejoins_deadline_grid() {
        let mut e = TbEngine::new(cfg(TbVariant::Adapted));
        expired(&mut e, 1.0, false);
        let a = feed(
            &mut e,
            Event::Restarted {
                now_local: LocalTime::from_nanos(5_300_000_000),
                ndc: CkptSeqNo(5),
            },
        );
        assert_eq!(
            a,
            vec![Action::ScheduleTimer {
                at: LocalTime::from_nanos(6_000_000_000)
            }]
        );
        assert_eq!(e.ndc(), CkptSeqNo(5));
        assert!(!e.is_blocking());
    }
}
