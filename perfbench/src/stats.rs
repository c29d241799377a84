//! Order statistics over timing samples and the process's peak resident set.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the usual reporting percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| values.len() as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile(values, f64::from(p) / 100.0)))
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), None);
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&values).map(|(p, _)| p), Some(50));
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&values).map(|(p, _)| p), Some(90));
    }
}
