//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count),
/// or 0 when there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile level, e.g. `99.0`.
    pub pct: f64,
    /// The sample at that level (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Percentile levels tried, highest first, in tenths of a percent.
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`LADDER`] that has at least ten samples
/// strictly beyond its nearest-rank position, or `None` when even the
/// median has fewer than ten samples above it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    LADDER.iter().find_map(|&permille| {
        let rank = (permille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            pct: permille as f64 / 10.0,
            value: v[rank - 1],
            samples: n,
        })
    })
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median has 9 above it, so no tail is reported.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 is rank 10 with 10 samples beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 10000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.9, 9990.0, 10_000));
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
