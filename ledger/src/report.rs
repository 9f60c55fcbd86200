//! The metric tables `BENCHMARK.json` lists, and the run's output: one
//! `name unit value` line per metric, a JSON file per workload, and the
//! one-line JSON result the acceptance runs read from the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, quartile_distance};

/// The end-to-end metrics, printed by every workload of a `--trace 0` run.
/// What one operation is differs by workload (README, "Workloads").
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `BENCHMARK.json` lists, printed by every workload
/// of a `--trace 1` run; a layer a workload never enters reads 0 there. The
/// layer is the crate name; `ledger.*` describes the measurement itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events_per_mission", "count"),
    ("des.host_ns_per_event", "ns"),
    ("des.queue_ns_per_op", "ns"),
    ("mdcd.deliver_ns", "ns"),
    ("mdcd.msgs_per_mission", "count"),
    ("mdcd.at_runs_per_mission", "count"),
    ("tb.blocking_period_ns", "ns"),
    ("tb.commits_per_mission", "count"),
    ("tb.blocking_virtual_s", "s"),
    ("codec.encode_mb_per_s", "MB/s"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("storage.crc32_gb_per_s", "GB/s"),
    ("storage.begin_ms_p50", "ms"),
    ("storage.commit_ms_p50", "ms"),
    ("storage.commit_ms_p75", "ms"),
    ("storage.open_ms", "ms"),
    ("storage.reload_ms_full", "ms"),
    ("storage.bytes_per_commit", "bytes"),
    ("archive.diff_ms", "ms"),
    ("archive.walk_ms", "ms"),
    ("archive.reload_ms", "ms"),
    ("archive.full_records", "count"),
    ("archive.delta_records", "count"),
    ("archive.chain_orphans", "count"),
    ("archive.encoded_bytes", "bytes"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.frames_per_write", "count"),
    ("net.acks_piggybacked_share", "share"),
    ("net.backpressure_errors", "count"),
    ("net.mbytes_per_s_4k", "MB/s"),
    ("core.system_new_us", "us"),
    ("core.step_us_per_quantum", "us"),
    ("core.finish_us", "us"),
    ("core.allocs_per_mission", "count"),
    ("core.rollbacks_per_mission", "count"),
    ("core.mean_hw_rollback_s", "s"),
    ("core.mission_ms_p99", "ms"),
    ("core.rejected_seeds", "count"),
    ("ledger.trace_overhead_pct", "%"),
    ("ledger.failed_share", "share"),
    ("ledger.blocks", "count"),
];

/// The layers only the workloads `BENCHMARK.json` does not list enter
/// (`fleet_2k`, `cluster_lockstep`, `chaos_sweep`); those workloads print
/// these rows after [`PER_LAYER`], the listed ones never.
pub const UNLISTED_LAYER: &[(&str, &str)] = &[
    ("fleet.attach_us_p50", "us"),
    ("fleet.missions_per_s_w1", "1/s"),
    ("fleet.overhead_ratio", "ratio"),
    ("fleet.scaling_w2", "ratio"),
    ("fleet.completion_over_wall", "ratio"),
    ("fleet.completion_ms_p99", "ms"),
    ("fleet.stalls", "count"),
    ("cluster.fixed_ms", "ms"),
    ("cluster.ms_per_step", "ms"),
    ("cluster.kill_overhead_ms", "ms"),
    ("chaos.campaign_ms_p50", "ms"),
    ("chaos.converged", "count"),
    ("chaos.regime_campaigns_per_s", "1/s"),
];

/// One reported number with the spread and sample count recorded beside it.
#[derive(Clone, Copy)]
pub struct Value {
    /// The metric's value.
    pub value: f64,
    /// Median of the samples behind it.
    pub median: f64,
    /// Distance between the quartiles of the samples behind it.
    pub iqr: f64,
    /// Samples behind it.
    pub samples: usize,
}

impl Value {
    /// A number that is not a statistic of samples (a count, one span).
    pub fn exact(value: f64) -> Value {
        Value::tail(value, 1)
    }

    /// A tail percentile of `samples` samples.
    pub fn tail(value: f64, samples: usize) -> Value {
        Value {
            value,
            median: value,
            iqr: 0.0,
            samples,
        }
    }

    /// The median of `samples`, with their quartile distance.
    pub fn median_of(samples: &[f64]) -> Value {
        let median = median(samples);
        Value {
            value: median,
            median,
            iqr: quartile_distance(samples),
            samples: samples.len(),
        }
    }

    /// The same statistic in another unit (`factor` new units per old).
    pub fn scaled(self, factor: f64) -> Value {
        Value {
            value: self.value * factor,
            median: self.median * factor,
            iqr: self.iqr * factor,
            samples: self.samples,
        }
    }

    /// `value`, built from the fastest repeat of every piece, with the
    /// median and quartile distance of the `raw` repeats beside it.
    pub fn beside(value: f64, raw: &[f64]) -> Value {
        Value {
            value,
            ..Value::median_of(raw)
        }
    }
}

/// The per-layer metrics a workload filled in; the rest read 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Value>);

impl Layers {
    /// Records `name`, which must be a row of [`PER_LAYER`] or
    /// [`UNLISTED_LAYER`].
    pub fn set(&mut self, name: &'static str, value: Value) {
        assert!(
            PER_LAYER
                .iter()
                .chain(UNLISTED_LAYER)
                .any(|(n, _)| *n == name),
            "{name} is not in the per-layer tables"
        );
        self.0.insert(name, value);
    }

    /// Records an exact number under `name`.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::exact(value));
    }

    /// Every row of [`PER_LAYER`], in table order, then for a workload
    /// `BENCHMARK.json` does not list every row of [`UNLISTED_LAYER`].
    pub fn rows(&self, unlisted: bool) -> Vec<(&'static str, &'static str, Value)> {
        let extra: &[(&str, &str)] = if unlisted { UNLISTED_LAYER } else { &[] };
        PER_LAYER
            .iter()
            .chain(extra)
            .map(|&(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(Value::exact(0.0));
                (name, unit, v)
            })
            .collect()
    }
}

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, &'static str, Value)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// What the per-workload JSON file records beside the metrics.
pub struct RunRecord<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Where stores and cluster data directories were created.
    pub data_dir: &'a str,
    /// Timed blocks.
    pub blocks: usize,
    /// Operations attempted in timed blocks.
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: &'a [String],
    /// Workload-specific notes (rejected seeds, sizes).
    pub notes: &'a [(String, String)],
    /// The values the determinism guard compared across blocks.
    pub guard: &'a [(&'static str, u64)],
}

/// The per-workload JSON file.
pub fn run_json(rec: &RunRecord<'_>, rows: &[(&'static str, &'static str, Value)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": \"{}\",", escape(rec.workload));
    let _ = writeln!(s, "  \"seed\": {},", rec.seed);
    let _ = writeln!(s, "  \"seconds\": {},", rec.seconds);
    let _ = writeln!(s, "  \"trace\": {},", rec.trace);
    let _ = writeln!(s, "  \"nproc\": {},", rec.nproc);
    let _ = writeln!(s, "  \"data_dir\": \"{}\",", escape(rec.data_dir));
    let _ = writeln!(s, "  \"blocks\": {},", rec.blocks);
    let _ = writeln!(s, "  \"ops_attempted\": {},", rec.attempted);
    let _ = writeln!(s, "  \"ops_failed\": {},", rec.failed);
    let failures: Vec<String> = rec
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
    for (key, value) in rec.notes {
        let _ = writeln!(s, "  \"{}\": \"{}\",", escape(key), escape(value));
    }
    let guard: Vec<String> = rec
        .guard
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    let _ = writeln!(
        s,
        "  \"identical_across_blocks\": {{{}}},",
        guard.join(", ")
    );
    let _ = writeln!(s, "  \"metrics\": {{");
    for (i, (name, unit, v)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"median\": {}, \"iqr\": {}, \"samples\": {}}}{comma}",
            v.value, v.median, v.iqr, v.samples
        );
    }
    let _ = writeln!(s, "  }}\n}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; every row of both tables must be
    /// in it with the same unit, and it must list nothing else.
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = manifest
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            for (name, unit) in table {
                let row = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&row), "{section} lacks {row}");
            }
            assert_eq!(
                body.matches("\"name\"").count(),
                table.len(),
                "{section} row count"
            );
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_escapes_hold() {
        let rows = [("setup_s", "s", Value::exact(0.5))];
        assert_eq!(
            result_line(true, 3, 0, &rows),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
