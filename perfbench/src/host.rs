//! Host-speed reference.
//!
//! On a shared host the speed one thread gets drifts by up to 1.5x, in
//! bursts of a second or two and in phases lasting minutes, with no
//! steal time to account for it (wall and CPU time agree). So the
//! benchmark times a small fixed kernel (hash-map inserts and lookups
//! plus a sort, code that never changes with the repository) between
//! operations, and divides each timed interval by how slow the kernel
//! ran around it. The unscaled figures are printed alongside.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's median time on a quiet 2-cpu reference host: a scaled
/// timing reads as that host's.
pub const REFERENCE_S: f64 = 0.0016;

/// Kernel runs are due this often.
const EVERY: Duration = Duration::from_millis(50);

/// Most kernel runs [`Probe::tick`] makes at once (after a long
/// operation).
const MAX_BATCH: u32 = 5;

/// Kernel runs this far outside an interval still describe it.
const WINDOW_S: f64 = 0.25;

/// Fewest kernel runs an interval's slowdown is read from.
const MIN_RUNS: usize = 5;

/// The kernel's input and every timed run of it.
#[derive(Debug)]
pub struct Probe {
    keys: Vec<u64>,
    epoch: Instant,
    /// (start, duration) of each run, in seconds from `epoch`.
    runs: Vec<(f64, f64)>,
    last: Instant,
}

impl Probe {
    /// A probe over 20,000 pseudo-random keys; offsets count from
    /// `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            keys: (0..20_000u64)
                .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            epoch,
            runs: Vec::new(),
            last: epoch,
        }
    }

    /// Seconds from the epoch to `t`.
    pub fn offset(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn run(&mut self) {
        let t = Instant::now();
        let mut map: HashMap<u64, u32> = HashMap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            map.insert(k, i as u32);
        }
        let sum: u64 = self.keys.iter().map(|k| u64::from(map[k])).sum();
        let mut sorted: Vec<u64> = self.keys.iter().map(|k| k ^ sum).collect();
        sorted.sort_unstable();
        std::hint::black_box(sorted[7]);
        let secs = t.elapsed().as_secs_f64();
        self.runs.push((self.offset(t), secs));
    }

    /// Runs the kernel once per [`EVERY`] elapsed since the last tick
    /// (at most [`MAX_BATCH`] times), so a long operation is followed
    /// by several readings.
    pub fn tick(&mut self) {
        let due = (self.last.elapsed().as_millis() / EVERY.as_millis()) as u32;
        for _ in 0..due.min(MAX_BATCH) {
            self.run();
        }
        if due > 0 {
            self.last = Instant::now();
        }
    }

    /// Kernel runs so far.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// How much slower than the reference host the kernel ran around
    /// `[from, to]` (seconds from the epoch): the median of the runs
    /// within [`WINDOW_S`] of it, or of the [`MIN_RUNS`] nearest when
    /// fewer lie there; 1.0 with no runs.
    pub fn slowdown(&self, from: f64, to: f64) -> f64 {
        let distance = |r: &(f64, f64)| (from - r.0).max(r.0 - to).max(0.0);
        let mut near: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| distance(r) <= WINDOW_S)
            .map(|r| r.1)
            .collect();
        if near.len() < MIN_RUNS {
            let mut by_distance: Vec<&(f64, f64)> = self.runs.iter().collect();
            by_distance.sort_by(|a, b| distance(a).total_cmp(&distance(b)));
            near = by_distance.iter().take(MIN_RUNS).map(|r| r.1).collect();
        }
        crate::stats::median(&near).map_or(1.0, |m| m / REFERENCE_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(runs: &[(f64, f64)]) -> Probe {
        let mut p = Probe::new(Instant::now());
        p.runs = runs.to_vec();
        p
    }

    #[test]
    fn slowdown_reads_the_runs_around_an_interval() {
        let r = REFERENCE_S;
        let mut runs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 0.05, r)).collect();
        runs.extend((0..10).map(|i| (5.0 + i as f64 * 0.05, 2.0 * r)));
        let p = probe(&runs);
        assert_eq!(p.slowdown(0.1, 0.2), 1.0);
        assert_eq!(p.slowdown(5.1, 5.2), 2.0);
        // Nothing within the window: the five nearest runs.
        assert_eq!(p.slowdown(3.6, 3.7), 2.0);
        assert_eq!(p.slowdown(1.0, 1.2), 1.0);
        assert_eq!(probe(&[]).slowdown(0.0, 1.0), 1.0);
    }

    #[test]
    fn kernel_runs_are_timed() {
        let mut p = Probe::new(Instant::now());
        p.run();
        p.run();
        let s = p.slowdown(0.0, 1.0);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
