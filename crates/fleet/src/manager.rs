//! The fleet manager: a sharded slot map of tenants, an admission budget,
//! and a cooperative scheduler that multiplexes every resident mission
//! over a fixed pool of workers.
//!
//! The slot map follows the take/put discipline of production tenant
//! managers: to operate on a tenant (step it, restart it, detach it) the
//! caller *takes* the tenant out of its slot — leaving an `InFlight`
//! marker — works on it without holding the shard lock, and puts it back.
//! Concurrent operations on the same tenant spin on the marker; operations
//! on different tenants never contend beyond the brief map access.
//!
//! Isolation is by construction: a scheduler pass grants each runnable
//! tenant at most [`FleetConfig::quantum_events`] simulator events, so a
//! tenant deep in crash recovery (or one stalled on a slow device
//! consumer) consumes its own quantum and nothing else — the pass reaches
//! every other tenant regardless. The per-tenant `max_pass_gap` counter
//! measures exactly this and is asserted by the isolation regression test.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use synergy::{MissionId, SystemConfig};
use synergy_net::retry::Backoff;

use crate::error::FleetError;
use crate::lifecycle::{transition, TenantState};
use crate::sink::DeviceSink;
use crate::stats::FleetStats;
use crate::tenant::{Tenant, TenantReport, Visit};

/// Fleet-wide tuning knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Admission budget: at most this many tenants resident at once.
    pub slots: usize,
    /// Worker threads (and slot-map shards) the scheduler runs on.
    pub workers: usize,
    /// Simulator events granted per tenant per scheduler pass — the
    /// isolation quantum.
    pub quantum_events: usize,
    /// Record every tenant's external payload stream in its report
    /// (memory-heavy; meant for determinism tests and audits).
    pub capture_devices: bool,
    /// First backpressure retry delay.
    pub retry_start: Duration,
    /// Backpressure retry delay cap.
    pub retry_cap: Duration,
    /// Backpressure retries before a device message is dropped; `None`
    /// retries forever (requires a consumer that eventually drains).
    pub retry_budget: Option<u32>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            slots: 1024,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            quantum_events: 256,
            capture_devices: false,
            retry_start: Duration::from_micros(100),
            retry_cap: Duration::from_millis(5),
            retry_budget: Some(8),
        }
    }
}

impl FleetConfig {
    /// Sets the admission budget.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the worker/shard count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-pass event quantum.
    pub fn with_quantum(mut self, quantum_events: usize) -> Self {
        self.quantum_events = quantum_events.max(1);
        self
    }

    /// Enables device-stream capture.
    pub fn with_capture(mut self) -> Self {
        self.capture_devices = true;
        self
    }
}

/// A tenant slot: present, or temporarily taken by an operation.
enum Slot {
    Present(Box<Tenant>),
    InFlight,
}

#[derive(Default)]
struct Shard {
    /// Keyed by mission id; `BTreeMap` so every sweep visits tenants in
    /// the same order.
    slots: BTreeMap<u64, Slot>,
    /// This shard's scheduler pass counter.
    pass: u64,
}

/// What one scheduler pass over a shard (or the whole fleet) found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassOutcome {
    /// Runnable tenants visited.
    pub visited: usize,
    /// Visits that fired events or moved device messages.
    pub progressed: usize,
    /// Visits that found the tenant stalled with its deadline pending.
    pub waiting: usize,
    /// Missions that reached completion during the pass.
    pub completed_now: usize,
    /// Resident tenants in a non-runnable state (completed, mid-op).
    pub idle: usize,
}

/// The tenant manager. All methods take `&self`; the manager is meant to
/// be shared (`Arc` or scoped borrows) between a driver thread issuing
/// attach/detach/restart and the scheduler workers.
pub struct FleetManager {
    cfg: FleetConfig,
    shards: Vec<Mutex<Shard>>,
    occupied: AtomicUsize,
    shutting_down: AtomicBool,
    stats: Arc<FleetStats>,
    sink: Arc<dyn DeviceSink>,
}

impl FleetManager {
    /// Creates a fleet delivering device streams into `sink`.
    pub fn new(cfg: FleetConfig, sink: Arc<dyn DeviceSink>) -> FleetManager {
        let shard_count = cfg.workers.max(1);
        FleetManager {
            cfg,
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            occupied: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            stats: Arc::new(FleetStats::new()),
            sink,
        }
    }

    /// The shared metrics registry.
    pub fn stats(&self) -> &Arc<FleetStats> {
        &self.stats
    }

    /// Tenants currently occupying slots.
    pub fn resident(&self) -> usize {
        self.occupied.load(Ordering::SeqCst)
    }

    fn shard_of(&self, mission: MissionId) -> &Mutex<Shard> {
        &self.shards[(mission.0 % self.shards.len() as u64) as usize]
    }

    /// Admits a new tenant built from `cfg` (whose `mission` field is the
    /// tenant's identity). Fails fast with
    /// [`FleetError::AdmissionRejected`] at the slot budget — the caller
    /// decides whether to retry after detaching something.
    pub fn attach(&self, cfg: SystemConfig) -> Result<MissionId, FleetError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(FleetError::ShuttingDown);
        }
        let mission = cfg.mission;
        let limit = self.cfg.slots;
        if self
            .occupied
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_err()
        {
            self.stats.note_admission_rejected();
            return Err(FleetError::AdmissionRejected { limit });
        }
        let backoff = Backoff::exponential(
            self.cfg.retry_start,
            self.cfg.retry_cap,
            self.cfg.retry_budget,
        )
        .with_jitter(mission.0);
        let mut shard = self.shard_of(mission).lock().expect("shard poisoned");
        if shard.slots.contains_key(&mission.0) {
            drop(shard);
            self.occupied.fetch_sub(1, Ordering::SeqCst);
            return Err(FleetError::AlreadyAttached(mission));
        }
        let tenant = Tenant::new(cfg, self.cfg.capture_devices, backoff);
        shard
            .slots
            .insert(mission.0, Slot::Present(Box::new(tenant)));
        drop(shard);
        self.stats.note_attached();
        Ok(mission)
    }

    /// Takes `mission`'s tenant out of its slot, runs `f`, puts it back.
    /// Spins (yielding) while another operation holds the tenant.
    fn with_tenant<R>(
        &self,
        mission: MissionId,
        f: impl FnOnce(&mut Tenant) -> R,
    ) -> Result<R, FleetError> {
        let shard = self.shard_of(mission);
        loop {
            let mut guard = shard.lock().expect("shard poisoned");
            let Some(slot) = guard.slots.get_mut(&mission.0) else {
                return Err(FleetError::UnknownMission(mission));
            };
            match std::mem::replace(slot, Slot::InFlight) {
                Slot::Present(mut tenant) => {
                    drop(guard);
                    let result = f(&mut tenant);
                    let mut guard = shard.lock().expect("shard poisoned");
                    if let Some(slot) = guard.slots.get_mut(&mission.0) {
                        *slot = Slot::Present(tenant);
                    }
                    return Ok(result);
                }
                Slot::InFlight => {
                    drop(guard);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The tenant's current lifecycle state.
    pub fn state(&self, mission: MissionId) -> Result<TenantState, FleetError> {
        self.with_tenant(mission, |t| t.state)
    }

    /// Tears the tenant's mission down and rebuilds it from its config
    /// template; legal from `Active`, `Stalled` and `Completed`.
    pub fn restart(&self, mission: MissionId) -> Result<(), FleetError> {
        let restarted = self.with_tenant(mission, Tenant::restart)?;
        if restarted.is_ok() {
            self.stats.note_restarted();
        }
        restarted
    }

    /// Removes the tenant, releasing its slot, and returns its report
    /// (a mid-flight snapshot if the mission had not completed).
    pub fn detach(&self, mission: MissionId) -> Result<TenantReport, FleetError> {
        let shard = self.shard_of(mission);
        loop {
            let mut guard = shard.lock().expect("shard poisoned");
            let Some(slot) = guard.slots.get_mut(&mission.0) else {
                return Err(FleetError::UnknownMission(mission));
            };
            match std::mem::replace(slot, Slot::InFlight) {
                Slot::Present(mut tenant) => {
                    drop(guard);
                    if let Err(e) = transition(mission, &mut tenant.state, TenantState::Detaching) {
                        let mut guard = shard.lock().expect("shard poisoned");
                        if let Some(slot) = guard.slots.get_mut(&mission.0) {
                            *slot = Slot::Present(tenant);
                        }
                        return Err(e);
                    }
                    let report = tenant.harvest_report();
                    self.stats.record_tenant(mission, report.stats.clone());
                    transition(mission, &mut tenant.state, TenantState::Detached)
                        .expect("Detaching -> Detached is always legal");
                    let mut guard = shard.lock().expect("shard poisoned");
                    guard.slots.remove(&mission.0);
                    drop(guard);
                    self.occupied.fetch_sub(1, Ordering::SeqCst);
                    self.stats.note_detached();
                    return Ok(report);
                }
                Slot::InFlight => {
                    drop(guard);
                    std::thread::yield_now();
                }
            }
        }
    }

    /// One scheduler pass over one shard.
    fn step_shard(&self, index: usize, out: &mut PassOutcome) {
        let shard = &self.shards[index];
        let (pass, ids): (u64, Vec<u64>) = {
            let mut guard = shard.lock().expect("shard poisoned");
            guard.pass += 1;
            (guard.pass, guard.slots.keys().copied().collect())
        };
        for id in ids {
            let mut guard = shard.lock().expect("shard poisoned");
            let Some(slot) = guard.slots.get_mut(&id) else {
                continue;
            };
            let mut tenant = match std::mem::replace(slot, Slot::InFlight) {
                Slot::Present(tenant) => tenant,
                Slot::InFlight => continue,
            };
            drop(guard);
            if tenant.state.is_runnable() {
                out.visited += 1;
                if tenant.last_pass != 0 {
                    let gap = pass.saturating_sub(tenant.last_pass);
                    tenant.max_pass_gap = tenant.max_pass_gap.max(gap);
                }
                tenant.last_pass = pass;
                match tenant.visit(self.cfg.quantum_events, &*self.sink, &self.stats) {
                    Visit::Progress => out.progressed += 1,
                    Visit::Waiting => out.waiting += 1,
                    Visit::CompletedNow => {
                        out.progressed += 1;
                        out.completed_now += 1;
                    }
                    Visit::Idle => {}
                }
            } else {
                out.idle += 1;
            }
            let mut guard = shard.lock().expect("shard poisoned");
            if let Some(slot) = guard.slots.get_mut(&id) {
                *slot = Slot::Present(tenant);
            }
        }
    }

    /// One scheduler pass over the whole fleet, on the calling thread.
    /// Deterministic tests drive the fleet exclusively through this.
    pub fn step_pass(&self) -> PassOutcome {
        let mut out = PassOutcome::default();
        for index in 0..self.shards.len() {
            self.step_shard(index, &mut out);
        }
        out
    }

    /// Runs scheduler workers (one per shard) until every resident tenant
    /// has completed its mission. Returns the number of missions that
    /// completed during this call. Tenants stay resident (state
    /// `Completed`) until detached.
    pub fn run_until_idle(&self) -> u64 {
        let completed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for index in 0..self.shards.len() {
                let completed = &completed;
                scope.spawn(move || loop {
                    let mut out = PassOutcome::default();
                    self.step_shard(index, &mut out);
                    completed.fetch_add(out.completed_now, Ordering::Relaxed);
                    if out.visited == 0 {
                        break;
                    }
                    if out.progressed == 0 && out.waiting > 0 {
                        // Every runnable tenant is waiting out a backoff
                        // deadline; don't spin the lock.
                        std::thread::sleep(Duration::from_micros(200));
                    }
                });
            }
        });
        completed.load(Ordering::Relaxed) as u64
    }

    /// Rejects further attaches; resident tenants are unaffected.
    pub fn shut_down(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Mission ids of every resident tenant, ascending.
    pub fn missions(&self) -> Vec<MissionId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().expect("shard poisoned");
            ids.extend(guard.slots.keys().map(|&id| MissionId(id)));
        }
        ids.sort_unstable();
        ids
    }
}
