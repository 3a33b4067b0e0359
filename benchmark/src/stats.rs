//! Window, percentile and residual arithmetic shared by every workload.

/// Samples a percentile needs before it is reported: ten samples must lie
/// beyond it, so p90 needs 100 and p99 needs 1 000.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1)`, or `None` when fewer than
/// [`min_samples`] samples back it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.len() < min_samples(q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A metric reduced over a run's sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStat {
    /// The sweep at the best decile: the tenth percentile of a time, the
    /// ninetieth of a rate. On a shared machine interference only ever slows
    /// a sweep down, in episodes of seconds, so the fast end of the
    /// distribution repeats from run to run where its middle does not; the
    /// decile, not the extreme, because threads also get lucky.
    pub value: f64,
    /// Distance between the first and third quartile as a share of the
    /// median: how disturbed the run was.
    pub spread: f64,
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here reads the
/// same as one computed over printed values.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Reduces per-sweep samples of a metric for which `higher_is_better`.
pub fn sweep_stat(per_sweep: &[f64], higher_is_better: bool) -> SweepStat {
    assert!(!per_sweep.is_empty(), "no sweep was measured");
    let mut sorted = per_sweep.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let decile = ((sorted.len() - 1) as f64 * 0.1).round() as usize;
    let value = if higher_is_better {
        sorted[sorted.len() - 1 - decile]
    } else {
        sorted[decile]
    };
    let median = median(&sorted);
    let spread = if sorted.len() < 2 || median == 0.0 {
        0.0
    } else {
        let (q1, q3) = quartiles(&sorted);
        (q3 - q1) / median.abs()
    };
    SweepStat { value, spread }
}

/// `|median(Σ parts / whole) − 1|` over the ops of a replay: how much of an
/// entry point's time its replayed parts fail to account for, or claim
/// beyond it. Zero when nothing was replayed.
pub fn residual_share(replay_share_per_op: &[f64]) -> f64 {
    if replay_share_per_op.is_empty() {
        return 0.0;
    }
    (median(replay_share_per_op) - 1.0).abs()
}

/// Geometric mean; the caller passes values in a fixed order so the result
/// repeats bit for bit across seeds.
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn sweep_stat_takes_the_best_decile_and_the_interquartile_share() {
        // Eleven sweeps: the decile is the second best.
        let times: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(sweep_stat(&times, false).value, 2.0);
        assert_eq!(sweep_stat(&times, true).value, 10.0);
        // Five sweeps: the decile rounds to the best.
        assert_eq!(sweep_stat(&[10.0, 12.0, 11.0, 9.0, 10.0], false).value, 9.0);
        assert_eq!(sweep_stat(&[10.0, 12.0, 11.0, 9.0, 10.0], true).value, 12.0);
        // statistics.quantiles([9, 10, 10, 11, 12], n=4) == [9.5, 10.0, 11.5]
        let s = sweep_stat(&[10.0, 12.0, 11.0, 9.0, 10.0], false);
        assert!((s.spread - 0.2).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((sweep_stat(&ten, false).spread - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((sweep_stat(&[1.0, 2.0], false).spread - 1.0).abs() < 1e-12);
        let one = sweep_stat(&[5.0], true);
        assert_eq!((one.value, one.spread), (5.0, 0.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.90), Some(900.0));
        assert_eq!(percentile(&v, 0.50), Some(500.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_and_p90_a_hundred() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert!(percentile(&v, 0.90).is_some());
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.90), 100);
    }

    #[test]
    fn residual_is_the_distance_of_the_median_share_from_one() {
        assert!((residual_share(&[0.9, 0.95, 1.4]) - 0.05).abs() < 1e-12);
        assert!((residual_share(&[1.1, 1.08]) - 0.09).abs() < 1e-12);
        assert_eq!(residual_share(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 1.0, 1.0]), 1.0);
    }
}
