//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in (0, 100]); 0 when empty.
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder with at least ten samples beyond
/// it, and its nearest-rank value. With fewer than 20 samples the maximum
/// is returned as the 100th percentile.
pub fn tail(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    for pct in TAIL_LADDER {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (pct, values[rank - 1]);
        }
    }
    (100.0, values.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 10.0), 2.0);
        assert_eq!(percentile(&mut v, 100.0), 20.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut v), (90.0, 90.0));
        let mut v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&mut v), (50.0, 13.0));
    }
}
