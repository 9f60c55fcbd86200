//! The fleet-wide metrics registry.
//!
//! One [`FleetStats`] is shared (via `Arc`) between the manager, its
//! worker threads and the caller. Fleet-level counters are atomics so the
//! hot path never takes a lock; the per-tenant table is a mutex-guarded
//! map written only at tenant completion/detach (cold events).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use synergy::MissionId;

/// Counters harvested from one tenant, keyed by mission id in
/// [`FleetStats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Simulator events fired for this tenant.
    pub events: u64,
    /// Scheduler quanta granted.
    pub quanta: u64,
    /// Device messages delivered to the sink.
    pub device_msgs: u64,
    /// MDCD (software) recoveries completed.
    pub software_rollbacks: u64,
    /// Global hardware rollbacks completed.
    pub hardware_rollbacks: u64,
    /// Times the device sink pushed back on this tenant.
    pub stalls: u64,
    /// Device messages dropped after the retry budget ran out.
    pub drops: u64,
    /// Times this tenant was torn down and rebuilt.
    pub restarts: u64,
    /// Wall-clock milliseconds from attach to mission completion
    /// (0 until the mission completes).
    pub latency_ms: f64,
    /// Whether the paper's correctness verdicts held at completion.
    pub verdicts_hold: bool,
    /// Largest gap, in scheduler passes, between two consecutive visits —
    /// the per-tenant isolation measure (1 = visited every pass).
    pub max_pass_gap: u64,
}

/// Fleet-wide counters plus the per-tenant table.
#[derive(Debug, Default)]
pub struct FleetStats {
    attached: AtomicU64,
    detached: AtomicU64,
    restarted: AtomicU64,
    admission_rejections: AtomicU64,
    completed: AtomicU64,
    stalls: AtomicU64,
    drops: AtomicU64,
    events: AtomicU64,
    device_msgs: AtomicU64,
    software_rollbacks: AtomicU64,
    hardware_rollbacks: AtomicU64,
    tenants: Mutex<BTreeMap<u64, TenantStats>>,
}

impl FleetStats {
    /// Creates a zeroed registry.
    pub fn new() -> FleetStats {
        FleetStats::default()
    }

    pub(crate) fn note_attached(&self) {
        self.attached.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_detached(&self) {
        self.detached.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_restarted(&self) {
        self.restarted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_admission_rejected(&self) {
        self.admission_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_drops(&self, n: u64) {
        self.drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a tenant's harvested counters into the registry. Called at
    /// mission completion and at detach; the per-tenant row is replaced,
    /// fleet totals only ever grow by the delta the caller accounts.
    pub(crate) fn record_tenant(&self, mission: MissionId, stats: TenantStats) {
        let mut tenants = self.tenants.lock().expect("fleet stats poisoned");
        let prev = tenants.insert(mission.0, stats.clone()).unwrap_or_default();
        drop(tenants);
        let delta = |new: u64, old: u64| new.saturating_sub(old);
        self.events
            .fetch_add(delta(stats.events, prev.events), Ordering::Relaxed);
        self.device_msgs.fetch_add(
            delta(stats.device_msgs, prev.device_msgs),
            Ordering::Relaxed,
        );
        self.software_rollbacks.fetch_add(
            delta(stats.software_rollbacks, prev.software_rollbacks),
            Ordering::Relaxed,
        );
        self.hardware_rollbacks.fetch_add(
            delta(stats.hardware_rollbacks, prev.hardware_rollbacks),
            Ordering::Relaxed,
        );
        if stats.latency_ms > 0.0 && prev.latency_ms == 0.0 {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Tenants attached over the fleet's lifetime.
    pub fn attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Tenants detached.
    pub fn detached(&self) -> u64 {
        self.detached.load(Ordering::Relaxed)
    }

    /// Tenant restarts performed.
    pub fn restarted(&self) -> u64 {
        self.restarted.load(Ordering::Relaxed)
    }

    /// Attaches rejected at the slot budget.
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections.load(Ordering::Relaxed)
    }

    /// Missions run to completion.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Backpressure stalls across all tenants.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Device messages dropped after exhausted retry budgets.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Simulator events fired across all harvested tenants.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Device messages delivered across all harvested tenants.
    pub fn device_msgs(&self) -> u64 {
        self.device_msgs.load(Ordering::Relaxed)
    }

    /// Software and hardware rollback totals across all harvested tenants.
    pub fn rollbacks(&self) -> (u64, u64) {
        (
            self.software_rollbacks.load(Ordering::Relaxed),
            self.hardware_rollbacks.load(Ordering::Relaxed),
        )
    }

    /// The harvested counters of one tenant, if any were recorded.
    pub fn tenant(&self, mission: MissionId) -> Option<TenantStats> {
        self.tenants
            .lock()
            .expect("fleet stats poisoned")
            .get(&mission.0)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed_tenant(events: u64, latency_ms: f64) -> TenantStats {
        TenantStats {
            events,
            latency_ms,
            verdicts_hold: true,
            ..TenantStats::default()
        }
    }

    #[test]
    fn record_tenant_replaces_rows_and_grows_totals_by_delta() {
        let stats = FleetStats::new();
        let m = MissionId(7);
        stats.record_tenant(m, completed_tenant(100, 0.0));
        stats.record_tenant(m, completed_tenant(250, 12.5));
        assert_eq!(stats.events(), 250, "totals grow by delta, not by sum");
        assert_eq!(stats.completed(), 1, "completion counted once");
        assert_eq!(stats.tenant(m).unwrap().events, 250);
    }
}
