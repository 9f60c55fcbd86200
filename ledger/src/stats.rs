//! Order statistics over small samples of block results, and the split of
//! a stretch of wall time into pieces whose fastest repeats are kept.

use std::time::Instant;

/// Splits a stretch of wall time into consecutive pieces: every
/// [`lap`](Laps::lap) ends one piece and starts the next, so the pieces
/// cover the stretch without gaps.
pub struct Laps {
    last: Instant,
    /// The pieces so far, in milliseconds.
    pub ms: Vec<f64>,
}

impl Laps {
    /// Starts the first piece now.
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// Ends the running piece and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
    }
}

/// `pieces`, with whatever of `wall_ms` they leave uncovered as one more
/// piece at the end.
pub fn with_rest(mut pieces: Vec<f64>, wall_ms: f64) -> Vec<f64> {
    let covered: f64 = pieces.iter().sum();
    pieces.push((wall_ms - covered).max(0.0));
    pieces
}

/// Per piece, the fastest of its repeats: `rows` are repeats of the same
/// work cut into the same pieces, and contention from other machines on the
/// host only ever adds time to a piece. Refuses rows of different lengths
/// (the work was not the same).
pub fn floor(rows: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let mut rows = rows.iter();
    let mut out = rows.next().cloned().unwrap_or_default();
    for row in rows {
        if row.len() != out.len() {
            return Err(format!(
                "determinism guard: a repeat was cut into {} pieces, the first into {}",
                row.len(),
                out.len()
            ));
        }
        for (best, ms) in out.iter_mut().zip(row) {
            *best = best.min(*ms);
        }
    }
    Ok(out)
}

/// A sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the rule the acceptance runs
/// apply), so the spread printed beside a metric is the one it is judged
/// by. 0 for fewer than two samples.
pub fn quartile_distance(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    cut(3) - cut(1)
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); 0 for an empty
/// sample. Callers pick `p` so that at least ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_distance_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_distance(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_distance(&[1.0, 2.0, 4.0]) - 3.0).abs() < 1e-12);
        assert_eq!(quartile_distance(&[7.0]), 0.0);
    }

    #[test]
    fn floor_keeps_the_fastest_repeat_of_every_piece() {
        let rows = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.5]];
        assert_eq!(floor(&rows).unwrap(), vec![2.0, 1.0, 5.0]);
        assert!(floor(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(floor(&[]).unwrap().is_empty());
    }

    #[test]
    fn laps_cover_the_stretch_and_name_the_rest() {
        let mut laps = Laps::start();
        laps.lap();
        laps.lap();
        let covered: f64 = laps.ms.iter().sum();
        let pieces = with_rest(laps.ms, covered + 2.0);
        assert_eq!(pieces.len(), 3);
        assert!((pieces[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }
}
