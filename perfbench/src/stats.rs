//! Summaries and the host fingerprint every result carries.

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The candidate tail percentiles in hundredths of a percent, highest
/// first (integers, so the rule below has no rounding edge).
const TAIL_BASIS_POINTS: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// The highest of p99.99, p99.9, p99, p90 and p50 that leaves at least
/// ten of `n` samples strictly beyond it, or `None` when even the
/// median does not (fewer than 20 samples).
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_BASIS_POINTS
        .iter()
        .find(|&&bp| {
            let at_or_below = (bp * n).div_ceil(10_000);
            n - at_or_below >= 10
        })
        .map(|&bp| bp as f64 / 100.0)
}

/// What machine and toolchain produced a result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: &'static str,
    pub workers: usize,
    pub oversubscribed: bool,
}

/// At most this many workers run; fewer on a smaller host.
pub const MAX_WORKERS: usize = 2;

impl Fingerprint {
    pub fn host() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = MAX_WORKERS.min(nproc);
        Fingerprint {
            available_parallelism: nproc,
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: env!("PERFBENCH_GIT_REV"),
            workers,
            oversubscribed: workers > nproc,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \
             \"git_rev\": {:?}, \"workers\": {}, \"oversubscribed\": {}}}",
            self.available_parallelism,
            self.cpu_model,
            self.rustc,
            self.git_rev,
            self.workers,
            self.oversubscribed
        )
    }
}

/// The processor's brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for w in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn fingerprint_never_oversubscribes() {
        let f = Fingerprint::host();
        assert!(f.workers >= 1 && f.workers <= f.available_parallelism);
        assert!(!f.oversubscribed);
        assert!(!f.cpu_model.is_empty());
    }
}
