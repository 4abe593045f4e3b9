//! Order statistics used by every metric: medians, nearest-rank
//! percentiles and the tail-percentile rule of `job_wall_tail_s`.

/// Jobs that must lie beyond the tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Fewest jobs in one window of [`windowed_tail`]. Ten batches of
/// `batch_distributed`: the tail of one window is set by its slowest
/// batch or so, and the median over windows keeps one slow stretch of
/// the host from setting the whole run's tail.
pub const TAIL_WINDOW_JOBS: usize = 160;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
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
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Index of the lower-median element of `values` (the element a ledger
/// decomposes, so its parts come from one real job).
#[must_use]
pub fn median_index(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    Some(order[(values.len() - 1) / 2])
}

/// Nearest-rank 1-based position of percentile `p` among `n` values.
fn rank(p: u32, n: usize) -> usize {
    ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest whole percentile in `50..=99` that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` jobs strictly beyond it. Runs too short for
/// that fall back to the median (50), so the tail is never read off a
/// handful of outliers.
#[must_use]
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// Nearest-rank percentile `p` of `values`; 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// `job_wall_tail_s` of job walls in run order, with the percentile used
/// and the number of windows: the walls are cut into consecutive windows
/// of at least [`TAIL_WINDOW_JOBS`] jobs (one window when the run has
/// fewer), the [`tail_percentile`] of the smallest window is read in each
/// window, and the median over the windows is reported.
#[must_use]
pub fn windowed_tail(walls: &[f64]) -> (f64, u32, usize) {
    let n = walls.len();
    let windows = (n / TAIL_WINDOW_JOBS).max(1);
    let bounds: Vec<usize> = (0..=windows).map(|i| i * n / windows).collect();
    let p = tail_percentile(n / windows);
    let tails: Vec<f64> = bounds
        .windows(2)
        .map(|w| percentile(&walls[w[0]..w[1]], p))
        .collect();
    (median(&tails), p, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3));
    }

    #[test]
    fn tail_falls_back_to_median_below_twenty_jobs() {
        for n in 0..20 {
            assert_eq!(tail_percentile(n), 50, "n = {n}");
        }
        // 20 jobs: p50 is rank 10, leaving exactly ten beyond it.
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(21), 52);
    }

    #[test]
    fn tail_always_leaves_ten_jobs_beyond() {
        for n in 20..3000 {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n = {n}, p = {p}");
            if p < 99 {
                assert!(
                    n - rank(p + 1, n) < TAIL_MIN_BEYOND,
                    "n = {n}: p{} fits",
                    p + 1
                );
            }
        }
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Short runs: one window, the plain tail rule.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), (90.0, 90, 1));
        assert_eq!(windowed_tail(&[]), (0.0, 50, 1));
        // Three windows of 160 jobs; one holds a slow stretch that would
        // set a whole-run p97 on its own.
        let mut walls: Vec<f64> = (0..480).map(|i| f64::from(i % 160)).collect();
        for w in &mut walls[160..200] {
            *w = 1000.0;
        }
        let (tail, p, windows) = windowed_tail(&walls);
        assert_eq!((p, windows), (93, 3));
        // p93 of 160 is rank 149, leaving 11 jobs beyond it.
        assert_eq!(tail, 148.0);
        assert_eq!(percentile(&walls, tail_percentile(480)), 1000.0);
        // A partial window joins the others: 479 jobs still make 2 windows
        // of at least 160, not a short third one.
        assert_eq!(windowed_tail(&walls[..479]).2, 2);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
