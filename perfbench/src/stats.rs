//! Order statistics for the report.

/// Fewest samples that must lie beyond a reported percentile; with fewer
/// the "percentile" is really a maximum.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values`, lowered to the highest rank
/// that still has [`MIN_BEYOND`] samples beyond it. Returns the value and
/// the quantile actually reported, or `None` when even the lowest rank
/// has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n - 1 - MIN_BEYOND);
    Some((v[rank], (rank + 1) as f64 / n as f64))
}

/// Per-position median across passes: `passes[p][i]` is sample `i` of
/// pass `p`. Every pass has the same length.
pub fn median_across(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n).map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_always_leaves_ten_samples_beyond() {
        for n in 0..400usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                match tail_percentile(&values, q) {
                    None => assert!(n <= MIN_BEYOND, "n = {n} can support a percentile"),
                    Some((value, reported)) => {
                        let beyond = values.iter().filter(|&&x| x > value).count();
                        assert!(beyond >= MIN_BEYOND, "n = {n}, q = {q}: {beyond} beyond");
                        assert!(reported < q + 1.0 / n as f64, "never a higher rank than asked");
                    }
                }
            }
        }
        // 200 samples support a true p90: 20 lie beyond it.
        let values: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.9), Some((179.0, 0.9)));
        // 20 samples do not: the rank is lowered to the median.
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.9), Some((9.0, 0.5)));
    }

    #[test]
    fn median_across_is_per_position() {
        let passes = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(median_across(&passes), vec![2.0, 20.0]);
    }
}
