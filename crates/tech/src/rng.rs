//! Dependency-free deterministic pseudo-random number generation.
//!
//! The workspace runs in fully offline environments, so it cannot rely on
//! the `rand` crate. This module provides the one generator every
//! stochastic subsystem (mismatch draws, phase noise, simulated-annealing
//! placement, Monte-Carlo sweeps) builds on: **xoshiro256\*\*** seeded via
//! **SplitMix64** — the exact construction recommended by Blackman &
//! Vigna (<https://prng.di.unimi.it/>). It is fast (four 64-bit words of
//! state, a handful of ALU ops per draw), passes BigCrush, and — crucially
//! for this repo — produces an identical stream for an identical `u64`
//! seed on every platform, which is what makes simulations, layouts and
//! job-cache keys reproducible.
//!
//! [`Rng64::standard_normal`] is the workspace's one Gaussian sampler: a
//! 256-layer ziggurat (Marsaglia & Tsang 2000, in Doornik's ZIGNOR
//! layout) whose common case costs one `u64` draw and one table compare.

use std::sync::LazyLock;

/// Ziggurat layers. A power of two: the layer index is the low byte of
/// one draw.
const ZIG_LAYERS: usize = 256;

/// Right edge of the base layer, where the tail begins (Marsaglia &
/// Tsang's value for 256 layers).
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Area of every layer under the unnormalised density `exp(-x²/2)`: the
/// base layer's rectangle `R·f(R)` plus the tail `∫_R^∞ f`, evaluated in
/// double precision from [`ZIG_R`]. With this value the layer recursion
/// closes on `f = 1` at the top layer to ~1e-13.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// The ziggurat tables, derived once from ([`ZIG_R`], [`ZIG_V`]).
struct Ziggurat {
    /// Layer right edges: `x[0] = V/f(R)` (the base layer's width if its
    /// tail were folded into a rectangle), `x[1] = R`, decreasing to
    /// `x[256] = 0`. Layer `i ≥ 1` spans heights `f(x[i])..f(x[i+1])`.
    x: [f64; ZIG_LAYERS + 1],
    /// `f(x[i]) = exp(-x[i]²/2)`; `f[0]` is never read.
    f: [f64; ZIG_LAYERS + 1],
    /// `x[i+1] / x[i]`: a signed fraction `u` with `|u|` below this maps
    /// to a point `u·x[i]` that lies under the curve at every height of
    /// layer `i`.
    ratio: [f64; ZIG_LAYERS],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; ZIG_LAYERS + 1];
    x[0] = ZIG_V / pdf(ZIG_R);
    x[1] = ZIG_R;
    // Each layer has area V: x[i-1]·(f(x[i]) − f(x[i-1])) = V.
    for i in 2..ZIG_LAYERS {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
    }
    Ziggurat {
        x,
        f: x.map(pdf),
        ratio: std::array::from_fn(|i| x[i + 1] / x[i]),
    }
});

/// A seedable xoshiro256\*\* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed. The four state words are
    /// expanded with SplitMix64 so that nearby seeds (0, 1, 2, …) still
    /// yield decorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng64 { state }
    }

    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent deterministic sub-stream.
    ///
    /// The child generator is a pure function of the parent's *current*
    /// state and `stream_id` — the parent is not advanced — so a consumer
    /// can hand out any number of decorrelated streams (one per optimizer
    /// generation, one per candidate, …) without the streams sharing a
    /// sequence or depending on the order they are drawn from.
    pub fn split(&self, stream_id: u64) -> Rng64 {
        // Fold the four state words and the stream id into one 64-bit
        // seed. Each word gets a distinct rotation so permuted states
        // cannot alias, and the stream id is spread by a SplitMix64-style
        // odd multiplier before mixing.
        let folded = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        Rng64::seed_from_u64(folded)
    }

    /// Uniform `f64` in `[0, 1)` with the full 53 bits of mantissa.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal sample (mean 0, σ 1) by the ziggurat method.
    ///
    /// One `u64` picks the layer (low 8 bits) and a signed fraction
    /// `u ∈ [-1, 1)` (top 53 bits, disjoint from the index). About 98.5 %
    /// of draws return `u·x[i]` after a single compare. The rest either
    /// test a wedge against the density (one more uniform, one `exp`) or,
    /// in the base layer, sample the tail beyond `R`. A rejected wedge
    /// point starts over with a fresh `u64`, so a normal consumes a
    /// variable number of draws from the stream.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let zig = &*ZIGGURAT;
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = ((bits as i64) >> 11) as f64 * (1.0 / (1u64 << 52) as f64);
            if u.abs() < zig.ratio[i] {
                return u * zig.x[i];
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            let x = u * zig.x[i];
            let y = zig.f[i] + self.gen_f64() * (zig.f[i + 1] - zig.f[i]);
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A normal conditioned on `|z| > R`, by Marsaglia's (1964) method:
    /// an exponential proposal `R + x` accepted with probability
    /// `exp(-x²/2)`.
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // 1 − U lies in (0, 1], so the logarithms are finite.
            let x = -(1.0 - self.gen_f64()).ln() / ZIG_R;
            let y = -(1.0 - self.gen_f64()).ln();
            if 2.0 * y > x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses the widening-multiply technique (Lemire) with a rejection step
    /// so the distribution is exactly uniform for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires a non-empty range");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n && low < n.wrapping_neg() {
                // Fast path: no bias possible in this slot.
                return (m >> 64) as usize;
            }
            // Rejection threshold: 2^64 mod n.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_decorrelate() {
        let mut a = Rng64::seed_from_u64(0);
        let mut b = Rng64::seed_from_u64(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_covers_it() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99, "poor coverage: [{min}, {max}]");
    }

    #[test]
    fn gen_range_is_unbiased_enough() {
        let mut rng = Rng64::seed_from_u64(3);
        let n = 7usize;
        let mut counts = vec![0usize; n];
        let draws = 70_000;
        for _ in 0..draws {
            counts[rng.gen_range(n)] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn split_is_deterministic_and_pure() {
        let parent = Rng64::seed_from_u64(42);
        let mut a = parent.split(7);
        let mut b = parent.split(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64(), "same stream id, same stream");
        }
        // Splitting takes &self: the parent state is untouched, so a
        // split after other splits yields the same stream.
        let _ = parent.split(1);
        let mut c = parent.split(7);
        let mut d = Rng64::seed_from_u64(42).split(7);
        for _ in 0..100 {
            assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    #[test]
    fn split_streams_decorrelate() {
        let parent = Rng64::seed_from_u64(0);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent stream ids must not collide");
        // A split stream must also differ from its parent's own sequence.
        let mut p = Rng64::seed_from_u64(0);
        let mut s = parent.split(0);
        let same = (0..64).filter(|_| p.next_u64() == s.next_u64()).count();
        assert_eq!(same, 0, "child must not shadow the parent stream");
    }

    #[test]
    fn split_depends_on_parent_state() {
        let fresh = Rng64::seed_from_u64(9);
        let mut advanced = Rng64::seed_from_u64(9);
        for _ in 0..10 {
            advanced.next_u64();
        }
        let mut a = fresh.split(3);
        let mut b = advanced.split(3);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "split must key on the current state");
    }

    /// `erfc` to ~1e-13 relative: the positive-term series for `erf`
    /// below 2, a continued fraction (evaluated bottom-up) above.
    fn erfc(x: f64) -> f64 {
        use std::f64::consts::PI;
        if x < 0.0 {
            return 2.0 - erfc(-x);
        }
        if x < 2.0 {
            // erf(x) = 2/√π · e^{-x²} · Σ 2ⁿ x^{2n+1} / (2n+1)!!
            let (mut term, mut sum, mut n) = (x, x, 0.0);
            while term > sum * 1e-17 {
                n += 1.0;
                term *= 2.0 * x * x / (2.0 * n + 1.0);
                sum += term;
            }
            return 1.0 - 2.0 / PI.sqrt() * (-x * x).exp() * sum;
        }
        // erfc(x) = e^{-x²}/√π · 1/(x + ½/(x + 1/(x + (3/2)/(x + …))))
        let mut t = x;
        for k in (1..=100).rev() {
            t = x + (k as f64 / 2.0) / t;
        }
        (-x * x).exp() / (PI.sqrt() * t)
    }

    /// Standard normal CDF.
    fn phi(z: f64) -> f64 {
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    #[test]
    fn erfc_reference_values() {
        for (x, want) in [
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 4.677_734_981_047_266e-3),
            (3.0, 2.209_049_699_858_544e-5),
        ] {
            assert!(
                (erfc(x) / want - 1.0).abs() < 1e-12,
                "erfc({x}) = {}",
                erfc(x)
            );
        }
    }

    #[test]
    fn ziggurat_layers_close_with_equal_area() {
        let zig = &*ZIGGURAT;
        let pdf = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        // Base layer: rectangle to R plus the exact tail beyond it.
        let tail = (std::f64::consts::PI / 2.0).sqrt() * erfc(ZIG_R / std::f64::consts::SQRT_2);
        let base = ZIG_R * pdf(ZIG_R) + tail;
        assert!((base / ZIG_V - 1.0).abs() < 1e-12, "base area {base}");
        // Every other layer, the top one included: the recursion must
        // land on f(0) = 1 with the same area.
        for i in 1..ZIG_LAYERS {
            let area = zig.x[i] * (pdf(zig.x[i + 1]) - pdf(zig.x[i]));
            assert!((area / ZIG_V - 1.0).abs() < 1e-12, "layer {i}: area {area}");
        }
    }

    #[test]
    fn standard_normal_matches_the_gaussian() {
        let mut rng = Rng64::seed_from_u64(2017);
        let n = 1_000_000;
        let mut zs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let nf = n as f64;
        let mean = zs.iter().sum::<f64>() / nf;
        let moment = |k: i32| zs.iter().map(|z| (z - mean).powi(k)).sum::<f64>() / nf;
        let var = moment(2);
        let skew = moment(3) / var.powf(1.5);
        let kurt = moment(4) / (var * var) - 3.0;
        // Five standard errors each.
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean {mean}");
        assert!(
            (var - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(),
            "variance {var}"
        );
        assert!(skew.abs() < 5.0 * (6.0 / nf).sqrt(), "skew {skew}");
        assert!(
            kurt.abs() < 5.0 * (24.0 / nf).sqrt(),
            "excess kurtosis {kurt}"
        );
        // Two-sided tail masses (the 4σ one is mostly the tail sampler)
        // inside 4σ binomial bounds.
        for t in [3.0, 4.0] {
            let p = erfc(t / std::f64::consts::SQRT_2);
            let hits = zs.iter().filter(|z| z.abs() > t).count() as f64;
            let bound = 4.0 * (nf * p * (1.0 - p)).sqrt();
            assert!(
                (hits - nf * p).abs() < bound,
                "P(|z|>{t}): {hits} vs {}",
                nf * p
            );
        }
        // Kolmogorov–Smirnov against Φ at the 1 % level.
        zs.sort_by(f64::total_cmp);
        let d = zs
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let c = phi(z);
                ((i + 1) as f64 / nf - c).max(c - i as f64 / nf)
            })
            .fold(0.0, f64::max);
        assert!(d < 1.63 / nf.sqrt(), "KS statistic {d}");
    }

    #[test]
    fn standard_normal_stream_is_pinned() {
        // FNV-1a over the bit patterns of seed 1's first 1000 normals:
        // the sampler's output contract. Any change here moves every
        // simulation result and must come with regenerated goldens.
        let mut rng = Rng64::seed_from_u64(1);
        let digest = (0..1000)
            .flat_map(|_| rng.standard_normal().to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(format!("{digest:016x}"), "d6d9554ecdd18765");
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "variance {var}");
    }
}
