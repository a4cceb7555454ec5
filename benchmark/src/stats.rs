//! Small statistics and system helpers: nearest-rank percentiles with
//! the ten-samples-beyond tail rule, medians, the FNV-1a rank digest,
//! and the `VmHWM` reader.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted`, which must
/// be sorted ascending and non-empty: the value at 1-based rank
/// `ceil(p / 100 * n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, so it may be reported.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND
}

/// The highest of p99, p90 and p50 that `n` samples support, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| tail_supported(n, p))
}

/// Median (nearest-rank p50) of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, 50.0))
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over response lines, each followed by `\n` — the same digest
/// `repsim bench serve` reports as `rank_digest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one line (plus its newline) into the digest.
    pub fn push(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vmhwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        let w = [3.0, 1.0, 2.0];
        assert_eq!(median(&w), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(99, 90.0));
        assert_eq!(highest_tail(5000), Some(99.0));
        assert_eq!(highest_tail(500), Some(90.0));
        assert_eq!(highest_tail(30), Some(50.0));
        assert_eq!(highest_tail(15), None);
        assert!(!tail_supported(0, 50.0));
    }

    #[test]
    fn digest_matches_fnv1a_over_newline_terminated_lines() {
        let mut d = Digest::default();
        d.push("a");
        d.push("bc");
        assert_eq!(d.value(), repsim_sparse::checksum(b"a\nbc\n"));
        let mut e = Digest::default();
        e.push("abc");
        assert_ne!(d, e);
    }

    #[test]
    fn vmhwm_parses_proc_status() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_mb(text), Some(2.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tmany kB\n"), None);
        let live = peak_rss_mb().expect("this process has a VmHWM");
        assert!(live > 0.0);
    }
}
