//! Order statistics and process measurements.

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of p99, p95 and p90 that keeps at least ten samples
/// beyond it, else the maximum. Returns the percentile's label and its
/// value; a run's sample count is fixed by its seed and length, so the
/// label is too.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    let n = sorted.len() as f64;
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(sorted, q));
        }
    }
    ("max", sorted.last().copied().unwrap_or(0.0))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
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
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p99");
        assert_eq!(tail(&v[..300]).0, "p95");
        assert_eq!(tail(&v[..150]).0, "p90");
        assert_eq!(tail(&v[..5]), ("max", 5.0));
    }
}
