//! Order statistics, the tail-percentile rule, digests and process
//! memory.

/// The `p`-th percentile (0–100) of `xs` by the nearest-rank method.
/// `xs` need not be sorted. Returns `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The highest whole percentile that leaves at least ten samples above
/// it: `p` with `n − rank(p) ≥ 10`, where `rank(p) = ⌈p·n/100⌉`.
/// `None` when fewer than 11 samples exist.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n >= 10 + (p as usize * n).div_ceil(100))
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of report texts in submission order (a newline separates
/// them, so concatenation boundaries cannot alias).
pub fn reports_digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = FNV_BASIS;
    for t in texts {
        h = fnv1a64(t.as_bytes(), h);
        h = fnv1a64(b"\n", h);
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        // 11 samples: rank 1 (p1…p9) leaves exactly 10 above it.
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap() as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
            if p < 99 {
                let next = ((p + 1) * n).div_ceil(100);
                assert!(n - next < 10, "p{} would also qualify at n={n}", p + 1);
            }
        }
    }

    #[test]
    fn tail_value_has_ten_samples_strictly_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let p = tail_percentile(xs.len()).unwrap();
        let v = percentile(&xs, f64::from(p)).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn percentiles_and_median() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_depends_on_order_and_boundaries() {
        let a = reports_digest(["ab", "c"]);
        assert_ne!(a, reports_digest(["a", "bc"]));
        assert_ne!(a, reports_digest(["c", "ab"]));
        assert_eq!(a, reports_digest(["ab", "c"]));
    }
}
