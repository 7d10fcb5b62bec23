//! Small measurement helpers: percentiles, medians, seeds and peak memory.

/// The `p`-quantile (`0 < p < 1`) of `sorted` by the nearest-rank rule, or
/// `None` when fewer than ten samples lie beyond it.
///
/// A tail percentile is only evidence when several samples sit past it:
/// with fewer than ten, one outlier more or less moves it by a whole
/// sample's worth, so it is refused rather than reported.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank: the smallest sample with at least p·n samples
    // at or below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One timed unit of a CPU-bound workload (a case, a campaign): its
/// throughput and the latency samples taken inside it.
pub struct Unit {
    pub ops_per_s: f64,
    pub latencies_us: Vec<f64>,
}

/// The fastest twentieth of `units` by throughput, widened (fastest first)
/// until the kept units hold at least `min_samples` latency samples; 100
/// leaves p90 ten samples beyond it.
///
/// On a shared machine other tenants slow some of a run's units by up to
/// half again, in bursts from a fraction of a second to minutes, and
/// interference never speeds a unit up. When every unit does the same
/// work, the fastest units measure the program and the rest mostly measure
/// the neighbours. The further into the fast end, the less two runs differ:
/// see the README next to this package.
pub fn fastest(mut units: Vec<Unit>, min_samples: usize) -> Vec<Unit> {
    units.sort_by(|a, b| b.ops_per_s.total_cmp(&a.ops_per_s));
    let mut keep = units.len().div_ceil(20);
    let mut samples: usize = units[..keep].iter().map(|u| u.latencies_us.len()).sum();
    while samples < min_samples && keep < units.len() {
        samples += units[keep].latencies_us.len();
        keep += 1;
    }
    units.truncate(keep);
    units
}

/// `numerator / denominator`, or `0.0` when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// SplitMix64 of `seed` and `index`: the workload's `index`-th derived seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&samples(100), 0.9), Some(90.0));
        // One sample fewer leaves only nine beyond the rank.
        assert_eq!(percentile(&samples(99), 0.9), None);
        // The median needs twenty samples.
        assert_eq!(percentile(&samples(20), 0.5), Some(10.0));
        assert_eq!(percentile(&samples(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        assert_eq!(percentile(&samples(1000), 0.5), Some(500.0));
        assert_eq!(percentile(&samples(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&samples(1000), 0.999), None);
    }

    #[test]
    fn fastest_keeps_the_quickest_twentieth() {
        let units = (1..=40)
            .map(|r| Unit {
                ops_per_s: f64::from(r),
                latencies_us: vec![f64::from(r); 100],
            })
            .collect();
        let kept: Vec<f64> = fastest(units, 100).iter().map(|u| u.ops_per_s).collect();
        assert_eq!(kept, vec![40.0, 39.0]);
        assert!(fastest(Vec::new(), 100).is_empty());
    }

    #[test]
    fn fastest_widens_to_the_samples_asked_for() {
        let units = (1..=8)
            .map(|r| Unit {
                ops_per_s: f64::from(r),
                latencies_us: vec![1.0; 40],
            })
            .collect();
        let kept: Vec<f64> = fastest(units, 100).iter().map(|u| u.ops_per_s).collect();
        assert_eq!(kept, vec![8.0, 7.0, 6.0]);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }
}
