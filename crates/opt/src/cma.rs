//! A compact CMA-ES-flavoured evolution strategy over the unit cube.
//!
//! This is deliberately not a textbook CMA-ES: the covariance is kept
//! diagonal (five knobs, two of them integer-snapped and one
//! categorical — full covariance buys nothing at this dimensionality),
//! and step size adapts by a success rule instead of cumulative path
//! statistics. What it keeps from CMA-ES is the part that matters for a
//! λ-per-generation batch workload: sample a population around a mean,
//! recombine the best μ with log-rank weights, and let the per-dimension
//! spread learn which knobs the objective is sensitive to.
//!
//! Everything is driven by [`Rng64::split`] sub-streams keyed on
//! `(generation, candidate)`, so the sequence of asked populations is a
//! pure function of the seed — the property the optimizer's resume
//! story and byte-identical `optimize.json` rest on.

use tdsigma_tech::Rng64;

/// Lower clamp for the global step size (keeps late generations probing).
const SIGMA_MIN: f64 = 0.02;
/// Upper clamp for the global step size (keeps the search local).
const SIGMA_MAX: f64 = 0.60;
/// Per-dimension spread clamps (relative to the unit cube).
const SCALE_MIN: f64 = 0.05;
const SCALE_MAX: f64 = 2.0;
/// Learning rate for the diagonal covariance update.
const COV_LEARN: f64 = 0.3;

/// Evolution-strategy state: mean, global step size and per-dimension
/// spread, all over the unit hypercube.
#[derive(Debug, Clone)]
pub struct CmaState {
    /// Distribution mean (one entry per search dimension).
    pub mean: Vec<f64>,
    /// Global step size σ.
    pub sigma: f64,
    /// Per-dimension spread (diagonal of the covariance, as std devs).
    pub scale: Vec<f64>,
    rng: Rng64,
    generation: u64,
    best_seen: f64,
}

impl CmaState {
    /// A fresh state centred on `mean` (typically the encoded paper
    /// design point), seeded for determinism.
    pub fn new(mean: Vec<f64>, seed: u64) -> Self {
        let dims = mean.len();
        CmaState {
            mean,
            sigma: 0.25,
            scale: vec![1.0; dims],
            rng: Rng64::seed_from_u64(seed ^ 0x5CA1_AB1E_0C0A_C0DE),
            generation: 0,
            best_seen: f64::INFINITY,
        }
    }

    /// Samples the next population of `lambda` unit-cube points.
    ///
    /// Candidate 0 of generation 0 is the mean itself — the warm start:
    /// with the paper design point as the initial mean, the first
    /// generation always evaluates it verbatim, so the reported best can
    /// never be worse than the baseline.
    pub fn ask(&mut self, lambda: usize) -> Vec<Vec<f64>> {
        let gen_rng = self.rng.split(self.generation);
        (0..lambda)
            .map(|i| {
                if self.generation == 0 && i == 0 {
                    return self.mean.clone();
                }
                let mut r = gen_rng.split(i as u64);
                self.mean
                    .iter()
                    .zip(&self.scale)
                    .map(|(&m, &s)| (m + self.sigma * s * r.standard_normal()).clamp(0.0, 1.0))
                    .collect()
            })
            .collect()
    }

    /// Feeds back the fitness (lower is better) of the population the
    /// last [`CmaState::ask`] returned, advancing mean, spread and step
    /// size. Returns `true` if this generation improved the best fitness
    /// seen so far.
    ///
    /// # Panics
    ///
    /// Panics if `population` and `fitness` differ in length.
    pub fn tell(&mut self, population: &[Vec<f64>], fitness: &[f64]) -> bool {
        assert_eq!(population.len(), fitness.len(), "one fitness per candidate");
        self.generation += 1;
        if population.is_empty() {
            return false;
        }
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));

        // Log-rank recombination weights over the best μ = λ/2.
        let mu = (population.len() / 2).max(1);
        let raw: Vec<f64> = (0..mu)
            .map(|j| (mu as f64 + 0.5).ln() - ((j + 1) as f64).ln())
            .collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();

        let dims = self.mean.len();
        let old_mean = std::mem::replace(&mut self.mean, vec![0.0; dims]);
        let mut var = vec![0.0; dims];
        for (j, &w) in weights.iter().enumerate() {
            let x = &population[order[j]];
            for d in 0..dims {
                self.mean[d] += w * x[d];
                let z = (x[d] - old_mean[d]) / self.sigma.max(SIGMA_MIN);
                var[d] += w * z * z;
            }
        }
        for (d, v) in var.iter().enumerate().take(dims) {
            let updated = (1.0 - COV_LEARN) * self.scale[d] * self.scale[d] + COV_LEARN * v;
            self.scale[d] = updated.sqrt().clamp(SCALE_MIN, SCALE_MAX);
        }

        // 1/5-style success rule on the global step size.
        let gen_best = fitness[order[0]];
        let improved = gen_best < self.best_seen;
        if improved {
            self.best_seen = gen_best;
            self.sigma = (self.sigma * 1.2).min(SIGMA_MAX);
        } else {
            self.sigma = (self.sigma * 0.8).max(SIGMA_MIN);
        }
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64], target: &[f64]) -> f64 {
        x.iter().zip(target).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    #[test]
    fn ask_is_deterministic_and_warm_starts() {
        let mean = vec![0.3, 0.7, 0.5];
        let mut a = CmaState::new(mean.clone(), 42);
        let mut b = CmaState::new(mean.clone(), 42);
        let pa = a.ask(6);
        let pb = b.ask(6);
        assert_eq!(pa, pb, "same seed must ask the same population");
        assert_eq!(pa[0], mean, "generation 0 candidate 0 is the warm start");
        assert!(pa[1] != mean, "the rest of the population explores");
        let mut c = CmaState::new(mean, 43);
        assert_ne!(pa, c.ask(6), "different seeds must diverge");
    }

    #[test]
    fn samples_stay_in_the_unit_cube() {
        let mut s = CmaState::new(vec![0.05, 0.95, 0.5, 0.5, 0.5], 7);
        s.sigma = SIGMA_MAX;
        for x in s.ask(64) {
            for &v in &x {
                assert!((0.0..=1.0).contains(&v), "sample out of cube: {v}");
            }
        }
    }

    #[test]
    fn converges_on_a_sphere() {
        let target = vec![0.72, 0.18, 0.55, 0.4, 0.9];
        let mut s = CmaState::new(vec![0.5; 5], 1);
        for _ in 0..40 {
            let pop = s.ask(10);
            let fit: Vec<f64> = pop.iter().map(|x| sphere(x, &target)).collect();
            s.tell(&pop, &fit);
        }
        let err = sphere(&s.mean, &target);
        assert!(err < 1e-2, "mean should approach the optimum, err={err}");
    }

    #[test]
    fn tell_reports_improvement_and_adapts_sigma() {
        let mut s = CmaState::new(vec![0.5; 2], 3);
        let pop = s.ask(4);
        let sigma0 = s.sigma;
        assert!(s.tell(&pop, &[3.0, 1.0, 2.0, 4.0]), "first tell improves");
        assert!(s.sigma > sigma0, "success grows the step");
        let pop2 = s.ask(4);
        let sigma1 = s.sigma;
        assert!(
            !s.tell(&pop2, &[9.0, 9.0, 9.0, 9.0]),
            "worse generation is not an improvement"
        );
        assert!(s.sigma < sigma1, "failure shrinks the step");
    }
}
