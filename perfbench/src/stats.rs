//! The benchmark's own arithmetic: medians, the percentile rule,
//! throughput over a typical pass, and the metric-name check.

use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so p50 needs 20 samples and p90 needs 100.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0 < p < 100) by linear interpolation between
/// closest ranks, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// One timed operation: which corpus item it ran, the trace events it
/// brought to a verdict, and its time in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub item: usize,
    pub events: usize,
    pub secs: f64,
}

/// Events per second of a typical pass over the corpus: the corpus's
/// events over the sum of each item's median time across the run's
/// passes, so one slow operation does not move the figure. `None`
/// without samples.
pub fn pass_throughput(samples: &[Sample]) -> Option<f64> {
    let mut per_item: BTreeMap<usize, (usize, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let slot = per_item.entry(s.item).or_default();
        slot.0 = s.events;
        slot.1.push(s.secs);
    }
    let events: usize = per_item.values().map(|(events, _)| events).sum();
    let secs: f64 = per_item.values().filter_map(|(_, t)| median(t)).sum();
    (secs > 0.0).then(|| events as f64 / secs)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.5));
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        let p90 = percentile(&ramp(100), 90.0).expect("100 samples suffice");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(40);
        shuffled.reverse();
        shuffled.swap(3, 17);
        assert_eq!(percentile(&shuffled, 50.0), percentile(&ramp(40), 50.0));
    }

    #[test]
    fn pass_throughput_takes_each_items_median() {
        let s = |item, events, secs| Sample { item, events, secs };
        // Item 0 stalls once; its median is 1.0 s. Item 1's is 2.0 s.
        let samples = [
            s(0, 100, 1.0),
            s(1, 300, 2.0),
            s(0, 100, 9.0),
            s(1, 300, 2.5),
            s(0, 100, 1.0),
            s(1, 300, 1.5),
        ];
        assert_eq!(pass_throughput(&samples), Some(400.0 / 3.0));
        assert_eq!(pass_throughput(&[]), None);
    }

    #[test]
    fn metric_names_outside_the_charset_are_rejected() {
        for good in ["latency_p50_ms", "core.analyze_ms", "setup-s", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_leading",
            ".dot",
            "has space",
            "slash/unit",
            "pct%",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
