//! Measurement helpers: the percentile rule, the output digest and the
//! `/proc` readers for memory and CPU time.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending):
/// the value at rank `⌈p·n/100⌉`.
fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&p));
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50)
}

/// An ascending copy (values are finite timings; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The tail a timing is reported at: the highest whole percentile (at
/// least the median) whose nearest rank leaves at least ten samples
/// beyond it, with its value. `None` when the samples cannot support
/// one (fewer than 20).
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(values);
    let n = s.len();
    (50..=99)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
        .map(|p| (p, percentile(&s, p)))
}

/// FNV-1a-style 64-bit digest over whole words: each f64 contributes its
/// bit pattern in one xor-multiply step, so hashing a chunk costs about a
/// nanosecond per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.f64(x);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: derives independent input seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process, all threads, in seconds
/// (`/proc/self/stat` fields 14 and 15, in the kernel's fixed 100 Hz
/// USER_HZ ticks).
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after it do not.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 51), 6.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [20usize, 21, 64, 150, 256, 1000] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, x) = tail(&v).expect("enough samples");
            let rank = x as usize;
            assert!(n - rank >= 10, "n {n}: p{p} leaves {}", n - rank);
            // One percentile higher would leave fewer than ten.
            if p < 99 {
                assert!(
                    n - (((p + 1) as usize) * n).div_ceil(100) < 10,
                    "n {n}: p{p} not highest"
                );
            }
        }
        let v: Vec<f64> = (1..=256).map(|i| i as f64).collect();
        assert_eq!(tail(&v), Some((96, 246.0)));
        let v: Vec<f64> = (1..=150).map(|i| i as f64).collect();
        assert_eq!(tail(&v), Some((93, 140.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f64s(&[2.0, 1.0]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.f64s(&[1.0, 2.0]);
        assert_eq!(a, c);
    }

    #[test]
    fn proc_readers_work_on_linux() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_s().is_some_and(|s| s >= 0.0));
    }
}
