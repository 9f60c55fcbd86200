//! Many seeded runs at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(seed)` for every seed on up to `jobs` scoped worker threads and
/// returns the results in input order.
///
/// Seeded runs are deterministic and share no state, so the output equals
/// `seeds.iter().map(|&s| f(s))` whatever `jobs` is: workers claim seeds
/// from a shared cursor but write each result into its seed's slot.
/// `jobs` is clamped to `[1, seeds.len()]`.
///
/// ```rust
/// let squares = synergy::sweep(&[3, 1, 2], 2, |s| s * s);
/// assert_eq!(squares, [9, 1, 4]);
/// ```
pub fn sweep<T: Send>(seeds: &[u64], jobs: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let result = f(seed);
                *slots[i].lock().expect("no panics while holding slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker did not panic")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareFault, Mission, NodeId, RunMetrics, SystemConfig};
    use synergy_des::SimTime;

    /// One seeded mission, reduced to what a sweep must reproduce: the
    /// device stream, the full metrics and the verdicts. Hardware faults
    /// rotate over the three nodes; every fourth seed also activates the
    /// design fault.
    fn run(seed: u64) -> (Vec<Vec<u8>>, RunMetrics, String) {
        let node = NodeId::ALL[(seed % 3) as usize];
        let mut builder = SystemConfig::builder()
            .seed(seed)
            .duration_secs(40.0)
            .internal_rate_per_min(30.0)
            .external_rate_per_min(4.0)
            .tb_interval_secs(2.0)
            .hardware_fault(HardwareFault {
                at: SimTime::from_secs_f64(25.0),
                node,
            })
            .trace(false);
        if seed.is_multiple_of(4) {
            builder = builder.software_fault_at_secs(12.0);
        }
        let o = Mission::new(builder.build()).run();
        (o.device_stream, o.metrics, format!("{:?}", o.verdicts))
    }

    #[test]
    fn parallel_sweep_equals_serial_per_seed() {
        let seeds: Vec<u64> = (0..32).collect();
        let serial: Vec<_> = seeds.iter().map(|&s| run(s)).collect();
        for jobs in [1, 2, 4] {
            assert!(sweep(&seeds, jobs, run) == serial, "jobs {jobs}");
        }
        // The equality covered both recovery procedures, not only quiet
        // missions.
        assert!(serial.iter().any(|(_, m, _)| m.software_recoveries > 0));
        assert!(serial.iter().any(|(_, m, _)| m.hardware_recoveries > 0));
    }

    #[test]
    fn sweep_preserves_seed_order_at_any_job_count() {
        let seeds: Vec<u64> = (0..100).rev().collect();
        let doubled: Vec<u64> = seeds.iter().map(|s| s * 2).collect();
        for jobs in [0, 1, 2, 4, 1000] {
            assert_eq!(sweep(&seeds, jobs, |s| s * 2), doubled, "jobs {jobs}");
        }
        assert!(sweep(&[], 4, |s: u64| s).is_empty());
    }
}
