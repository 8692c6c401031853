//! Reproducible stochastic plumbing: a seeded RNG with the Gaussian and
//! band-limited samplers the behavioral models need.

use std::fmt;
use tdsigma_tech::rng::Rng64;

/// The simulation RNG. A thin wrapper over a seeded [`Rng64`]
/// (xoshiro256\*\*) whose Gaussian samples come from
/// [`Rng64::standard_normal`], so simulations are exactly reproducible
/// from a `u64` seed.
pub struct SimRng {
    inner: Rng64,
    seed: u64,
}

impl SimRng {
    /// Creates an RNG from a seed. The same seed always produces the same
    /// simulation.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Rng64::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this RNG was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen_f64()
    }

    /// Standard-normal sample (mean 0, σ 1).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        self.inner.standard_normal()
    }

    /// Gaussian sample with explicit standard deviation.
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        self.standard_normal() * sigma
    }

    /// Fills `out` with standard normals: exactly `out.len()` repeated
    /// [`Self::standard_normal`] calls (see
    /// [`Rng64::fill_standard_normals`]).
    pub fn fill_standard_normals(&mut self, out: &mut [f64]) {
        self.inner.fill_standard_normals(out);
    }

    /// Derives an independent child RNG (for per-instance streams) without
    /// disturbing this RNG's future draws more than one `u64`.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.next_u64())
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(17);
        let mut b = SimRng::new(17);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2);
    }

    #[test]
    fn fill_matches_scalar_draws_exactly() {
        // The batched path must consume the stream identically to scalar
        // calls, at any length.
        for len in [0usize, 1, 2, 3, 7, 16, 63, 64, 65, 200] {
            let mut scalar = SimRng::new(1234 + len as u64);
            let mut batched = SimRng::new(1234 + len as u64);
            let expect: Vec<f64> = (0..len).map(|_| scalar.standard_normal()).collect();
            let mut got = vec![0.0; len];
            batched.fill_standard_normals(&mut got);
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!(e.to_bits(), g.to_bits(), "len {len}");
            }
            // Both RNGs must agree on every subsequent draw.
            for _ in 0..5 {
                assert_eq!(
                    scalar.standard_normal().to_bits(),
                    batched.standard_normal().to_bits()
                );
            }
        }
        // Consecutive fills continue one stream.
        let mut scalar = SimRng::new(77);
        let mut batched = SimRng::new(77);
        let expect: Vec<f64> = (0..8).map(|_| scalar.standard_normal()).collect();
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 5];
        batched.fill_standard_normals(&mut a);
        batched.fill_standard_normals(&mut b);
        let got: Vec<f64> = a.into_iter().chain(b).collect();
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::new(99);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn gaussian_sigma_scales() {
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let var = (0..n)
            .map(|_| rng.gaussian(3.0))
            .map(|x| x * x)
            .sum::<f64>()
            / n as f64;
        assert!((var - 9.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn forked_rng_is_independent_and_deterministic() {
        let mut a1 = SimRng::new(7);
        let mut a2 = SimRng::new(7);
        let mut c1 = a1.fork();
        let mut c2 = a2.fork();
        assert_eq!(c1.uniform(), c2.uniform());
        // Parent streams still agree after forking.
        assert_eq!(a1.uniform(), a2.uniform());
    }

    #[test]
    fn debug_shows_seed_not_state() {
        let rng = SimRng::new(42);
        assert_eq!(format!("{rng:?}"), "SimRng { seed: 42 }");
    }
}
