//! The JSON bench-regression record shared by the timing harnesses.
//!
//! `BENCH_missions.json` is a hand-rolled format owned end-to-end by this
//! workspace — no JSON library is involved, so [`sanitize`] keeps the
//! structural characters (quotes, braces) out of every string field and the
//! parser can track nesting exactly:
//!
//! ```json
//! {
//!   "bench": "missions",
//!   "runs": [ { ...one mission run per git rev... } ],
//!   "wire": {
//!     "runs": [ { ...one wire-throughput run per git rev... } ]
//!   },
//!   "fleet": {
//!     "runs": [ { ...one fleet-scaling run per git rev... } ]
//!   }
//! }
//! ```
//!
//! The `missions`, `fleet` and `regimes` harnesses all append to the same
//! file; [`BenchRecord`] parses whichever sections exist, replaces
//! same-`git_rev` runs (re-benching one commit updates its numbers instead
//! of stacking duplicates), and renders the whole record back. The
//! `"wire"` and `"checkpoint"` sections are history — the ledger measures
//! what their harnesses did — and are carried through unchanged.

use std::fmt::Write as _;

/// Strips characters that would break the hand-rolled record format:
/// quotes (string delimiters) and braces/brackets (the depth tracker).
pub fn sanitize(field: &str) -> String {
    field
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '{' | '}' | '[' | ']' | '\\' => '_',
            other => other,
        })
        .collect()
}

/// Extracts the `"git_rev"` value from one run object's text, if present.
pub fn run_git_rev(run: &str) -> Option<&str> {
    let rest = &run[run.find("\"git_rev\": \"")? + "\"git_rev\": \"".len()..];
    rest.find('"').map(|end| &rest[..end])
}

/// Collects the top-level `{…}` objects of the array opened by `key`,
/// stopping at the array's own closing `]` — a later sibling section in
/// the same document is never swallowed.
fn array_objects(text: &str, key: &str) -> Vec<String> {
    let body = match text.find(key) {
        Some(pos) => &text[pos + key.len()..],
        None => return Vec::new(),
    };
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for ch in body.chars() {
        match ch {
            '{' => {
                depth += 1;
                current.push(ch);
            }
            '}' => {
                depth -= 1;
                current.push(ch);
                if depth == 0 {
                    objects.push(std::mem::take(&mut current));
                }
            }
            ']' if depth == 0 => break,
            _ if depth > 0 => current.push(ch),
            _ => {}
        }
    }
    objects
}

/// Replaces any run from the same `git_rev`, then appends; returns how
/// many runs were replaced.
fn push_dedup(runs: &mut Vec<String>, run: &str) -> usize {
    let replaced = if let Some(rev) = run_git_rev(run) {
        let before = runs.len();
        runs.retain(|r| run_git_rev(r) != Some(rev));
        before - runs.len()
    } else {
        0
    };
    runs.push(run.trim().to_string());
    replaced
}

fn render_runs(out: &mut String, runs: &[String], indent: &str) {
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "{indent}{r}{comma}");
    }
}

/// The parsed regression record: mission-timing runs, wire-throughput
/// runs and fleet-scaling runs, each an opaque pre-rendered JSON object
/// string.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchRecord {
    /// Objects of the top-level `"runs"` array (the missions harness).
    pub mission_runs: Vec<String>,
    /// Objects of the `"wire"` section's `"runs"` array (no longer
    /// appended to; re-rendered as found).
    pub wire_runs: Vec<String>,
    /// Objects of the `"fleet"` section's `"runs"` array.
    pub fleet_runs: Vec<String>,
    /// Objects of the `"checkpoint"` section's `"runs"` array (no longer
    /// appended to; re-rendered as found).
    pub checkpoint_runs: Vec<String>,
    /// Objects of the `"regimes"` section's `"runs"` array.
    pub regimes_runs: Vec<String>,
}

/// The marker opening the wire section. [`sanitize`] guarantees no string
/// field can contain a literal `"`, so this sequence is always structure.
const WIRE_KEY: &str = "\"wire\": {";

/// The marker opening the fleet section; always rendered after the wire
/// section (when both exist).
const FLEET_KEY: &str = "\"fleet\": {";

/// The marker opening the checkpoint section; rendered after fleet.
const CHECKPOINT_KEY: &str = "\"checkpoint\": {";

/// The marker opening the unmasked-regime section; always rendered last.
const REGIMES_KEY: &str = "\"regimes\": {";

impl BenchRecord {
    /// Loads the record at `path`; a missing or unreadable file is an
    /// empty record (the first bench run creates it).
    pub fn load(path: &str) -> BenchRecord {
        std::fs::read_to_string(path)
            .map(|text| BenchRecord::parse(&text))
            .unwrap_or_default()
    }

    /// Parses a rendered record.
    pub fn parse(record: &str) -> BenchRecord {
        let (rest, regimes_part) = match record.find(REGIMES_KEY) {
            Some(pos) => record.split_at(pos),
            None => (record, ""),
        };
        let (rest, checkpoint_part) = match rest.find(CHECKPOINT_KEY) {
            Some(pos) => rest.split_at(pos),
            None => (rest, ""),
        };
        let (rest, fleet_part) = match rest.find(FLEET_KEY) {
            Some(pos) => rest.split_at(pos),
            None => (rest, ""),
        };
        let (mission_part, wire_part) = match rest.find(WIRE_KEY) {
            Some(pos) => rest.split_at(pos),
            None => (rest, ""),
        };
        BenchRecord {
            mission_runs: array_objects(mission_part, "\"runs\": ["),
            wire_runs: array_objects(wire_part, "\"runs\": ["),
            fleet_runs: array_objects(fleet_part, "\"runs\": ["),
            checkpoint_runs: array_objects(checkpoint_part, "\"runs\": ["),
            regimes_runs: array_objects(regimes_part, "\"runs\": ["),
        }
    }

    /// Appends a mission run, replacing any prior run of the same
    /// `git_rev`; returns how many runs were replaced.
    pub fn push_mission_run(&mut self, run: &str) -> usize {
        push_dedup(&mut self.mission_runs, run)
    }

    /// Appends a fleet run, replacing any prior run of the same `git_rev`;
    /// returns how many runs were replaced.
    pub fn push_fleet_run(&mut self, run: &str) -> usize {
        push_dedup(&mut self.fleet_runs, run)
    }

    /// Appends an unmasked-regime run, replacing any prior run of the
    /// same `git_rev`; returns how many runs were replaced.
    pub fn push_regimes_run(&mut self, run: &str) -> usize {
        push_dedup(&mut self.regimes_runs, run)
    }

    /// Renders the full record. The `"wire"`, `"fleet"`, `"checkpoint"`
    /// and `"regimes"` sections are omitted while they have no runs, so
    /// mission-only records keep their historical shape.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"missions\",\n  \"runs\": [\n");
        render_runs(&mut out, &self.mission_runs, "    ");
        out.push_str("  ]");
        for (key, runs) in [
            (WIRE_KEY, &self.wire_runs),
            (FLEET_KEY, &self.fleet_runs),
            (CHECKPOINT_KEY, &self.checkpoint_runs),
            (REGIMES_KEY, &self.regimes_runs),
        ] {
            if runs.is_empty() {
                continue;
            }
            out.push_str(",\n  ");
            out.push_str(key);
            out.push_str("\n    \"runs\": [\n");
            render_runs(&mut out, runs, "      ");
            out.push_str("    ]\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the rendered record to `path`.
    ///
    /// # Panics
    ///
    /// On filesystem errors — a bench harness has nothing to fall back to.
    pub fn save(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, rev: Option<&str>) -> String {
        let mut s = format!("{{\n      \"label\": \"{label}\",\n");
        if let Some(rev) = rev {
            let _ = writeln!(s, "      \"git_rev\": \"{rev}\",");
        }
        s.push_str("      \"value\": 1\n    }");
        s
    }

    #[test]
    fn roundtrips_through_render_and_parse() {
        let mut rec = BenchRecord::default();
        rec.push_mission_run(&run("m1", Some("aaa")));
        rec.push_mission_run(&run("m2", Some("bbb")));
        rec.wire_runs.push(run("w1", Some("aaa")));
        rec.push_fleet_run(&run("f1", Some("aaa")));
        rec.checkpoint_runs.push(run("c1", Some("aaa")));
        rec.push_regimes_run(&run("r1", Some("aaa")));
        let back = BenchRecord::parse(&rec.render());
        assert_eq!(back.mission_runs.len(), 2);
        assert_eq!(back.wire_runs.len(), 1);
        assert_eq!(back.fleet_runs.len(), 1);
        assert_eq!(back.checkpoint_runs.len(), 1);
        assert_eq!(back.regimes_runs.len(), 1);
        assert_eq!(BenchRecord::parse(&back.render()), back);
    }

    #[test]
    fn regimes_runs_stay_out_of_the_other_sections() {
        let mut rec = BenchRecord::default();
        rec.checkpoint_runs.push(run("c", Some("aaa")));
        rec.push_regimes_run(&run("r", Some("aaa")));
        let back = BenchRecord::parse(&rec.render());
        assert_eq!(back.checkpoint_runs.len(), 1);
        assert_eq!(back.regimes_runs.len(), 1);
        assert!(back.regimes_runs[0].contains("\"label\": \"r\""));
        // A regimes-only record (no other sections) parses too.
        let mut solo = BenchRecord::default();
        solo.push_regimes_run(&run("only", Some("bbb")));
        let back = BenchRecord::parse(&solo.render());
        assert_eq!(back.regimes_runs.len(), 1);
        assert!(back.mission_runs.is_empty());
        assert!(back.checkpoint_runs.is_empty());
    }

    #[test]
    fn checkpoint_runs_stay_out_of_the_other_sections() {
        let mut rec = BenchRecord::default();
        rec.push_fleet_run(&run("f", Some("aaa")));
        rec.checkpoint_runs.push(run("c", Some("aaa")));
        let back = BenchRecord::parse(&rec.render());
        assert_eq!(back.fleet_runs.len(), 1);
        assert_eq!(back.checkpoint_runs.len(), 1);
        assert!(back.checkpoint_runs[0].contains("\"label\": \"c\""));
        // A checkpoint-only record (no wire or fleet section) parses too.
        let mut solo = BenchRecord::default();
        solo.checkpoint_runs.push(run("only", Some("bbb")));
        let back = BenchRecord::parse(&solo.render());
        assert_eq!(back.checkpoint_runs.len(), 1);
        assert!(back.mission_runs.is_empty());
        assert!(back.fleet_runs.is_empty());
    }

    #[test]
    fn fleet_runs_stay_out_of_the_other_sections() {
        let mut rec = BenchRecord::default();
        rec.push_mission_run(&run("m", Some("aaa")));
        rec.push_fleet_run(&run("f", Some("aaa")));
        let back = BenchRecord::parse(&rec.render());
        assert_eq!(back.mission_runs.len(), 1, "{}", rec.render());
        assert_eq!(back.wire_runs.len(), 0);
        assert_eq!(back.fleet_runs.len(), 1);
        assert!(back.fleet_runs[0].contains("\"label\": \"f\""));
        // A fleet-only record (no wire section) still parses cleanly.
        let mut solo = BenchRecord::default();
        solo.push_fleet_run(&run("only", Some("bbb")));
        let back = BenchRecord::parse(&solo.render());
        assert_eq!(back.fleet_runs.len(), 1);
        assert!(back.mission_runs.is_empty());
    }

    #[test]
    fn wire_runs_are_not_swallowed_into_mission_runs() {
        // The regression this module exists for: a depth-naive splitter
        // scanning to EOF would read the wire section's run objects as
        // extra mission runs.
        let mut rec = BenchRecord::default();
        rec.push_mission_run(&run("m", Some("aaa")));
        rec.wire_runs.push(run("w", Some("aaa")));
        rec.wire_runs.push(run("w", Some("bbb")));
        let back = BenchRecord::parse(&rec.render());
        assert_eq!(back.mission_runs.len(), 1, "{}", rec.render());
        assert_eq!(back.wire_runs.len(), 2);
        assert!(back.mission_runs[0].contains("\"label\": \"m\""));
    }

    #[test]
    fn same_rev_runs_are_replaced_per_section() {
        let mut rec = BenchRecord::default();
        assert_eq!(rec.push_mission_run(&run("old", Some("aaa"))), 0);
        assert_eq!(rec.push_mission_run(&run("new", Some("aaa"))), 1);
        assert_eq!(rec.mission_runs.len(), 1);
        assert!(rec.mission_runs[0].contains("\"label\": \"new\""));
        // Dedup is per section: the fleet run of the same rev survives.
        rec.push_fleet_run(&run("fleet", Some("aaa")));
        rec.push_mission_run(&run("newer", Some("aaa")));
        assert_eq!(rec.fleet_runs.len(), 1);
    }

    #[test]
    fn runs_without_a_rev_stack_instead_of_replacing() {
        let mut rec = BenchRecord::default();
        rec.push_mission_run(&run("a", None));
        assert_eq!(rec.push_mission_run(&run("b", None)), 0);
        assert_eq!(rec.mission_runs.len(), 2);
    }

    #[test]
    fn mission_only_records_keep_their_historical_shape() {
        let mut rec = BenchRecord::default();
        rec.push_mission_run(&run("m", Some("aaa")));
        let text = rec.render();
        assert!(!text.contains("\"wire\""));
        assert!(text.ends_with("  ]\n}\n"));
    }

    #[test]
    fn sanitize_strips_structural_characters() {
        assert_eq!(sanitize(r#"a"b{c}d[e]f\g"#), "a'b_c_d_e_f_g");
    }

    #[test]
    fn git_rev_extraction() {
        assert_eq!(run_git_rev(&run("x", Some("abc123"))), Some("abc123"));
        assert_eq!(run_git_rev(&run("x", None)), None);
    }
}
