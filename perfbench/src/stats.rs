//! Order statistics used by every metric: nearest-rank quantiles, and
//! the tail rule "median plus the highest percentile that still has at
//! least ten samples beyond it".

/// Percentiles tried, highest first, when reporting a tail.
const TAIL_LADDER: [f64; 5] = [99.999, 99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n > 0` values.
fn rank(n: usize, q: f64) -> usize {
    // Rounded before the ceiling so that, e.g., 0.9 × 100 is rank 90.
    let exact = (q.clamp(0.0, 1.0) * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A latency distribution's report: the median, the highest percentile
/// with at least [`TAIL_MIN_BEYOND`] samples beyond it, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples behind the figures.
    pub samples: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// The tail percentile reported (0 when too few samples for p90).
    pub pct: f64,
    /// The value at `pct`.
    pub value: f64,
}

/// Summarise `values` by the tail rule.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            samples: 0,
            median: 0.0,
            pct: 0.0,
            value: 0.0,
        };
    }
    let median = quantile_sorted(&sorted, 0.5);
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n - rank(n, p / 100.0) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.0);
    let value = if pct > 0.0 {
        quantile_sorted(&sorted, pct / 100.0)
    } else {
        *sorted.last().unwrap_or(&0.0)
    };
    Tail {
        samples: n,
        median,
        pct,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(
            (t.samples, t.pct, t.value, t.median),
            (1000, 99.0, 990.0, 500.0)
        );
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.99);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 90.0);
        // Too few samples for any tail: the maximum, flagged by pct 0.
        let t = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((t.pct, t.value, t.samples), (0.0, 5.0, 3));
        assert_eq!(tail(&[]).samples, 0);
    }
}
