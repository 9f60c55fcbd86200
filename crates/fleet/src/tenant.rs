//! One resident tenant: a complete guarded-system mission plus the
//! bookkeeping the fleet scheduler needs around it.

use std::time::Instant;

use synergy::{MissionId, RunMetrics, System, SystemConfig};
use synergy_net::retry::Backoff;
use synergy_net::MessageBody;

use crate::error::FleetError;
use crate::lifecycle::{transition, TenantState};
use crate::sink::DeviceSink;
use crate::stats::{FleetStats, TenantStats};

/// What one scheduler visit to a tenant accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Visit {
    /// Events fired and/or device messages moved.
    Progress,
    /// Stalled on backpressure with the retry deadline still in the
    /// future; nothing to do yet.
    Waiting,
    /// The mission reached its end of simulated time on this visit.
    CompletedNow,
    /// Not in a runnable state.
    Idle,
}

/// Everything harvested from a tenant when it completes or detaches.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant's mission id.
    pub mission: MissionId,
    /// Full protocol metrics of the underlying mission (a snapshot taken
    /// mid-flight if the tenant detached before completing).
    pub metrics: RunMetrics,
    /// Whether the paper's correctness verdicts held.
    pub verdicts_hold: bool,
    /// External payload stream, in device order — recorded only when the
    /// fleet runs with device capture on.
    pub captured: Vec<Vec<u8>>,
    /// The tenant's scheduler-side counters.
    pub stats: TenantStats,
}

/// A resident tenant. Owned by exactly one shard slot; the manager takes
/// it out of the slot to operate on it, so `&mut` access never crosses
/// threads unsynchronized.
pub(crate) struct Tenant {
    pub(crate) mission: MissionId,
    pub(crate) state: TenantState,
    /// The config the mission was built from; restarts rebuild from it.
    template: SystemConfig,
    /// The live engine; dropped at completion to keep a 10k-tenant fleet's
    /// footprint bounded by *running* missions only.
    system: Option<Box<System>>,
    /// Index of the next device-log entry not yet offered to the sink.
    device_cursor: usize,
    capture: bool,
    captured: Vec<Vec<u8>>,
    backoff: Backoff,
    stalled_until: Option<Instant>,
    attached_at: Instant,
    report: Option<TenantReport>,
    pub(crate) stats: TenantStats,
    /// Scheduler pass of the last visit (0 = never visited).
    pub(crate) last_pass: u64,
    /// Largest observed gap between consecutive visits, in passes.
    pub(crate) max_pass_gap: u64,
}

impl Tenant {
    /// Builds a tenant from its mission config and activates it.
    pub(crate) fn new(cfg: SystemConfig, capture: bool, backoff: Backoff) -> Tenant {
        let mission = cfg.mission;
        let mut tenant = Tenant {
            mission,
            state: TenantState::Attaching,
            system: Some(Box::new(System::new(cfg.clone()))),
            template: cfg,
            device_cursor: 0,
            capture,
            captured: Vec::new(),
            backoff,
            stalled_until: None,
            attached_at: Instant::now(),
            report: None,
            stats: TenantStats::default(),
            last_pass: 0,
            max_pass_gap: 0,
        };
        transition(mission, &mut tenant.state, TenantState::Active)
            .expect("Attaching -> Active is always legal");
        tenant
    }

    /// One scheduler visit: step up to `quantum` simulator events, then
    /// move freshly produced device messages into the sink.
    pub(crate) fn visit(
        &mut self,
        quantum: usize,
        sink: &dyn DeviceSink,
        fleet: &FleetStats,
    ) -> Visit {
        match self.state {
            TenantState::Stalled => {
                if let Some(deadline) = self.stalled_until {
                    if Instant::now() < deadline {
                        return Visit::Waiting;
                    }
                }
                self.drain(sink, fleet);
                if self.state == TenantState::Stalled {
                    Visit::Waiting
                } else {
                    // Drained (or dropped) our way back to Active; the next
                    // pass resumes stepping.
                    Visit::Progress
                }
            }
            TenantState::Active => {
                let fired = {
                    let system = self.system.as_mut().expect("active tenant has a system");
                    let fired = system.step_events(quantum);
                    self.stats.events += fired as u64;
                    self.stats.quanta += 1;
                    fired
                };
                self.drain(sink, fleet);
                if self.state == TenantState::Active
                    && self.system.as_ref().is_some_and(|s| s.finished())
                    && self.fully_drained()
                {
                    self.complete(fleet);
                    return Visit::CompletedNow;
                }
                if fired == 0 && self.state == TenantState::Active {
                    // Finished but still backpressured mid-drain, or an
                    // empty schedule; either way nothing fired.
                    Visit::Waiting
                } else {
                    Visit::Progress
                }
            }
            _ => Visit::Idle,
        }
    }

    /// Offers every not-yet-delivered device-log entry to the sink.
    /// Backpressure stalls the tenant with exponential backoff; an
    /// exhausted retry budget drops the entry (with accounting) so one
    /// slow consumer can never wedge the tenant forever.
    fn drain(&mut self, sink: &dyn DeviceSink, fleet: &FleetStats) {
        loop {
            let Some(system) = self.system.as_ref() else {
                return;
            };
            let log = system.device_log();
            let Some((_, env)) = log.get(self.device_cursor) else {
                break;
            };
            match sink.deliver(env) {
                Ok(()) => {
                    let captured = self.capture.then(|| env.body.clone());
                    self.stats.device_msgs += 1;
                    if let Some(MessageBody::External { payload }) = captured {
                        self.captured.push(payload);
                    }
                    self.device_cursor += 1;
                    self.unstall();
                }
                Err(_backpressure) => {
                    self.stats.stalls += 1;
                    fleet.note_stall();
                    match self.backoff.next_delay() {
                        Some(delay) => {
                            if self.state == TenantState::Active {
                                transition(self.mission, &mut self.state, TenantState::Stalled)
                                    .expect("Active -> Stalled is always legal");
                            }
                            self.stalled_until = Some(Instant::now() + delay);
                            return;
                        }
                        None => {
                            // Retry budget exhausted: shed this message.
                            // The capture still records it — the capture
                            // is the stream the tenant *produced*, which
                            // is what determinism checks diff.
                            let captured = self.capture.then(|| env.body.clone());
                            self.stats.drops += 1;
                            fleet.note_drops(1);
                            if let Some(MessageBody::External { payload }) = captured {
                                self.captured.push(payload);
                            }
                            self.device_cursor += 1;
                            self.unstall();
                        }
                    }
                }
            }
        }
        self.unstall();
    }

    fn unstall(&mut self) {
        self.backoff.reset();
        self.stalled_until = None;
        if self.state == TenantState::Stalled {
            transition(self.mission, &mut self.state, TenantState::Active)
                .expect("Stalled -> Active is always legal");
        }
    }

    fn fully_drained(&self) -> bool {
        self.system
            .as_ref()
            .is_none_or(|s| self.device_cursor >= s.device_log().len())
    }

    /// Finishes the mission: harvests its report, records it in the fleet
    /// registry and drops the engine.
    fn complete(&mut self, fleet: &FleetStats) {
        transition(self.mission, &mut self.state, TenantState::Completed)
            .expect("Active -> Completed is always legal");
        let system = self.system.take().expect("completing tenant has a system");
        self.stats.latency_ms = self.attached_at.elapsed().as_secs_f64() * 1000.0;
        self.stats.verdicts_hold = system.verdicts().all_hold();
        self.stats.software_rollbacks = system.metrics().software_recoveries;
        self.stats.hardware_rollbacks = system.metrics().hardware_recoveries;
        self.stats.max_pass_gap = self.max_pass_gap;
        self.report = Some(TenantReport {
            mission: self.mission,
            metrics: system.metrics().clone(),
            verdicts_hold: self.stats.verdicts_hold,
            captured: std::mem::take(&mut self.captured),
            stats: self.stats.clone(),
        });
        fleet.record_tenant(self.mission, self.stats.clone());
    }

    /// Tears the mission down and rebuilds it from the config template.
    pub(crate) fn restart(&mut self) -> Result<(), FleetError> {
        transition(self.mission, &mut self.state, TenantState::Restarting)?;
        self.system = Some(Box::new(System::new(self.template.clone())));
        self.device_cursor = 0;
        self.captured.clear();
        self.backoff.reset();
        self.stalled_until = None;
        self.report = None;
        self.stats.restarts += 1;
        transition(self.mission, &mut self.state, TenantState::Active)
            .expect("Restarting -> Active is always legal");
        Ok(())
    }

    /// The tenant's report, snapshotting a still-running mission if it has
    /// not completed. Used by detach.
    pub(crate) fn harvest_report(&mut self) -> TenantReport {
        if let Some(report) = self.report.take() {
            return report;
        }
        self.stats.max_pass_gap = self.max_pass_gap;
        match self.system.as_ref() {
            Some(system) => TenantReport {
                mission: self.mission,
                metrics: system.metrics().clone(),
                verdicts_hold: system.verdicts().all_hold(),
                captured: std::mem::take(&mut self.captured),
                stats: self.stats.clone(),
            },
            None => TenantReport {
                mission: self.mission,
                metrics: RunMetrics::default(),
                verdicts_hold: self.stats.verdicts_hold,
                captured: std::mem::take(&mut self.captured),
                stats: self.stats.clone(),
            },
        }
    }
}
