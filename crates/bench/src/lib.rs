//! The `synergy-ft` reproduction of the paper's evaluation.
//!
//! Every table and figure of the DSN 2001 paper is an entry of
//! [`repro::TABLE`], printed by `repro <name>` (see DESIGN.md §4 for the
//! index); the sweep and rendering helpers the entries share live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod repro;

use synergy::{sweep, Mission, Scheme, SystemConfig};
use synergy_des::Summary;

/// Worker threads for the seeded sweeps: every core the host offers.
fn host_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parameters of the Figure 7 sweep.
#[derive(Clone, Copy, Debug)]
struct Fig7Params {
    /// Seeds per point (more = tighter confidence intervals).
    seeds: u64,
    /// Mission length in seconds.
    duration_secs: f64,
    /// External (validated) message rate per component, per minute.
    external_per_min: f64,
    /// TB checkpoint interval in seconds.
    tb_interval_secs: f64,
}

/// One seed's mission of the Figure 7 sweep: run, check invariants, return
/// the hardware rollback distances.
fn rollback_distances_for_seed(
    scheme: Scheme,
    internal_per_hour: f64,
    params: Fig7Params,
    seed: u64,
) -> Vec<f64> {
    // Spread the fault over the middle of the mission so distances are
    // sampled at many phases of the checkpoint/validation cycles.
    let fault_at = params.duration_secs * (0.55 + 0.3 * (seed as f64 / params.seeds as f64));
    let outcome = Mission::new(
        SystemConfig::builder()
            .scheme(scheme)
            .seed(seed)
            .duration_secs(params.duration_secs)
            .internal_rate_per_min(internal_per_hour / 60.0)
            .external_rate_per_min(params.external_per_min)
            .tb_interval_secs(params.tb_interval_secs)
            .hardware_fault_at_secs(fault_at)
            .trace(false)
            .build(),
    )
    .run();
    if scheme == Scheme::WriteThrough {
        // The write-through baseline's per-validation checkpoints are
        // not taken simultaneously across processes, so rare
        // interleavings violate recoverability (a message acked between
        // the receiver's and the sender's Type-2 writes is reflected as
        // sent but neither received nor restorable). The paper
        // criticizes write-through only on cost; this reproduction
        // additionally observes the correctness gap (EXPERIMENTS.md).
        // Validity must still hold: restored states are never
        // contaminated.
        assert!(
            outcome.verdicts.of("validity-self").is_empty()
                && outcome.verdicts.of("validity-ground-truth").is_empty(),
            "{scheme:?} violated validity: {:?}",
            outcome.verdicts.violations
        );
    } else {
        assert!(
            outcome.verdicts.all_hold(),
            "{scheme:?} violated invariants: {:?}",
            outcome.verdicts.violations
        );
    }
    outcome.metrics.hardware_rollback_distances()
}

/// Runs one scheme at one internal rate over `params.seeds` seeded missions
/// (in parallel, one mission per worker) and collects every hardware
/// rollback distance in seed order.
fn rollback_distances(scheme: Scheme, internal_per_hour: f64, params: Fig7Params) -> Summary {
    let seeds: Vec<u64> = (0..params.seeds).collect();
    let per_seed = sweep(&seeds, host_jobs(), |seed| {
        rollback_distances_for_seed(scheme, internal_per_hour, params, seed)
    });
    per_seed.into_iter().flatten().collect()
}

/// Renders a row-aligned text table.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
    }

    #[test]
    fn small_sweep_point_produces_distances() {
        let params = Fig7Params {
            seeds: 2,
            duration_secs: 120.0,
            external_per_min: 4.0,
            tb_interval_secs: 2.0,
        };
        let s = rollback_distances(Scheme::Coordinated, 120.0, params);
        assert_eq!(s.len(), 6, "3 processes x 2 seeds");
        assert!(s.mean() >= 0.0);
    }
}
