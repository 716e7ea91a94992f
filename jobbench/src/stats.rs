//! Order statistics for the benchmark's reports: median, quartiles and
//! the sample-count-aware tail percentile.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread (interquartile range over median, the figure the metric
/// bounds are set by) computed with it matches an outside script's.
/// `None` below two samples.
#[cfg_attr(not(test), allow(dead_code))]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Python's exclusive method verbatim: j = ⌊i·(n+1)/4⌋ clamped to
        // [1, n−1], then linear inter- (or extra-)polation by
        // δ = i·(n+1) − 4j quarters.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least [`TAIL_BEYOND`] samples above it, so a tail figure never
/// rests on a handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (`100` when the sample is too
    /// small to leave [`TAIL_BEYOND`] samples beyond any percentile: the
    /// value is then the maximum).
    pub percentile: u32,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the figure was computed from.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`]. `None` when `values` is empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some(Tail { percentile: 100, value: sorted[n - 1], samples: n });
    }
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond; the
    // largest p with n − r ≥ TAIL_BEYOND is floor(100·(n − 10)/n).
    let percentile = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some(Tail { percentile, value: sorted[rank - 1], samples: n })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), Some((15.0, 45.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // 45 samples (one per catalog module): p77, exactly 10 beyond.
        let v: Vec<f64> = (1..=45).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 77);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // A large sample reaches p99 only when 10 samples remain above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (99, 990.0));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100, 9.0, 3));
        // 11 samples: p9 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (9, 1.0));
        assert!(tail(&[]).is_none());
    }
}
