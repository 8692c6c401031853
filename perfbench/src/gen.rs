//! Workload generation: the `--seed` argument becomes job lists.
//!
//! The program under test only ever sees the generated [`Job`]s. The
//! seed picks die seeds, input amplitudes, batch composition and order;
//! the *cost structure* of a workload (nodes, slice counts, capture
//! lengths, batch shares) is fixed, so two seeds measure the same amount
//! of work on different inputs.

use tdsigma_jobs::Job;

/// SplitMix64: a tiny, fully specified generator, so job lists depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for sub-list `stream` of the same seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed);
        r.0 ^= stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A die seed. Kept below 2^53: the `serve` wire carries numbers as
    /// JSON doubles and rejects seeds it cannot represent exactly.
    pub fn die_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The paper's two operating points (Table 3): node, clock, bandwidth.
pub const PAPER_POINTS: [(f64, f64, f64); 2] = [(40.0, 750e6, 5e6), (180.0, 250e6, 1.4e6)];

/// The paper-point jobs at their canonical die seed. They do not vary
/// with `--seed`, so `sndr_gap_db` moves only when a change alters bits.
pub fn paper_points(flow: bool) -> Vec<Job> {
    PAPER_POINTS
        .iter()
        .map(|&(node, fs, bw)| {
            if flow {
                Job::flow(node, fs, bw)
            } else {
                Job::sim(node, fs, bw)
            }
        })
        .collect()
}

/// Whether `job` is one of the canonical paper-point jobs.
pub fn is_paper_point(job: &Job) -> bool {
    let canon = if job.kind == tdsigma_jobs::JobKind::FullFlow {
        paper_points(true)
    } else {
        paper_points(false)
    };
    canon.iter().any(|p| p == job)
}

/// Shortest capture with enough in-band FFT bins for the SNDR analysis
/// at each paper point (the 180 nm bandwidth is narrower).
fn short_capture(node_nm: f64) -> usize {
    if node_nm < 100.0 {
        2048
    } else {
        4096
    }
}

/// Relative cost estimate used only to order a sweep longest-first, so
/// the two pool workers finish a pass together whatever the seed.
fn cost(job: &Job) -> usize {
    let flow = if job.kind == tdsigma_jobs::JobKind::FullFlow {
        4
    } else {
        1
    };
    flow * job.slices * job.samples
}

fn longest_first(mut jobs: Vec<Job>, rng: &mut Rng) -> Vec<Job> {
    // Shuffle first so equal-cost jobs land in a seed-dependent order.
    rng.shuffle(&mut jobs);
    jobs.sort_by_key(|j| std::cmp::Reverse((cost(j), j.slices, j.node_nm.to_bits())));
    jobs
}

/// Slice counts of `flow_mix` per paper point: every count at which the
/// design closes timing at that node's clock (at 180 nm and 250 MHz,
/// 12 slices already miss by ≈0.7 ns).
const FLOW_SLICES: [&[usize]; 2] = [&[2, 4, 8, 12, 16], &[2, 4, 6, 8]];

/// `flow_mix`: full flows over both nodes × several slice counts with
/// short captures, plus both paper points at 16384 samples.
pub fn flow_mix(seed: u64) -> Vec<Job> {
    let mut rng = Rng::stream(seed, 1);
    let mut jobs = paper_points(true);
    for (&(node, fs, bw), slice_counts) in PAPER_POINTS.iter().zip(FLOW_SLICES) {
        for &slices in slice_counts {
            let mut job = Job::flow(node, fs, bw);
            job.slices = slices;
            job.samples = short_capture(node);
            job.seed = rng.die_seed();
            job.amplitude_rel = 0.5 + 0.3 * rng.unit();
            jobs.push(job);
        }
    }
    longest_first(jobs, &mut rng)
}

/// `sim_grid`: sim-tone jobs over node × {2, 4, 8, 16} slices × two
/// capture lengths × two die seeds, plus both paper points.
pub fn sim_grid(seed: u64) -> Vec<Job> {
    let mut rng = Rng::stream(seed, 2);
    let mut jobs = paper_points(false);
    for &(node, fs, bw) in &PAPER_POINTS {
        for slices in [2, 4, 8, 16] {
            for samples in [4096, 8192] {
                for _die in 0..2 {
                    let mut job = Job::sim(node, fs, bw);
                    job.slices = slices;
                    job.samples = samples;
                    job.seed = rng.die_seed();
                    job.amplitude_rel = 0.5 + 0.3 * rng.unit();
                    jobs.push(job);
                }
            }
        }
    }
    longest_first(jobs, &mut rng)
}

/// One cheap sim job (≈3 ms): the unit of work a re-run sweep mostly
/// asks the server to look up.
fn cheap_job(rng: &mut Rng) -> Job {
    let mut job = Job::sim(40.0, 750e6, 5e6);
    job.slices = 1 + rng.below(2);
    job.samples = 2048;
    job.steps_per_cycle = 4;
    job.amplitude_rel = 0.5 + 0.3 * rng.unit();
    job.seed = rng.die_seed();
    job
}

/// Jobs the server's disk cache holds before timing starts.
pub const PRIMED_CHEAP: usize = 384;
/// Jobs per `resweep_loopback` sweep.
pub const RESWEEP_BATCH: usize = 256;
/// Of which: distinct primed repeats (besides the two paper points) …
pub const RESWEEP_REPEATS: usize = 214;
/// … in-batch duplicates (the client engine dedups them) …
pub const RESWEEP_DUPLICATES: usize = 32;
/// … and jobs no cache has seen (compute plus artifact write).
pub const RESWEEP_FRESH: usize = 8;

/// The jobs primed into the server cache: cheap jobs plus the two
/// paper-point sim jobs.
pub fn resweep_primed(seed: u64) -> Vec<Job> {
    let mut rng = Rng::stream(seed, 3);
    let mut jobs = paper_points(false);
    while jobs.len() < PRIMED_CHEAP + 2 {
        let job = cheap_job(&mut rng);
        if !jobs.contains(&job) {
            jobs.push(job);
        }
    }
    jobs
}

/// Sweep number `index` of `resweep_loopback`: the paper points, primed
/// repeats, in-batch duplicates and fresh jobs, shuffled.
pub fn resweep_batch(seed: u64, index: u64, primed: &[Job]) -> Vec<Job> {
    let mut rng = Rng::stream(seed, 1000 + index);
    let mut batch = paper_points(false);
    let mut pool: Vec<&Job> = primed.iter().filter(|j| !is_paper_point(j)).collect();
    for i in 0..RESWEEP_REPEATS {
        let pick = i + rng.below(pool.len() - i);
        pool.swap(i, pick);
        batch.push(pool[i].clone());
    }
    let mut fresh = 0;
    while fresh < RESWEEP_FRESH {
        let job = cheap_job(&mut rng);
        if !primed.contains(&job) && !batch.contains(&job) {
            batch.push(job);
            fresh += 1;
        }
    }
    for _ in 0..RESWEEP_DUPLICATES {
        let dup = batch[rng.below(batch.len())].clone();
        batch.push(dup);
    }
    rng.shuffle(&mut batch);
    debug_assert_eq!(batch.len(), RESWEEP_BATCH);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(jobs: &[Job]) -> Vec<String> {
        jobs.iter().map(Job::key).collect()
    }

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let primed = resweep_primed(7);
        let lists: [fn(u64) -> Vec<Job>; 3] = [flow_mix, sim_grid, resweep_primed];
        for make in lists {
            assert_eq!(keys(&make(7)), keys(&make(7)));
            assert_ne!(keys(&make(7)), keys(&make(8)));
        }
        assert_eq!(
            keys(&resweep_batch(7, 3, &primed)),
            keys(&resweep_batch(7, 3, &primed))
        );
        assert_ne!(
            keys(&resweep_batch(7, 3, &primed)),
            keys(&resweep_batch(8, 3, &primed))
        );
        assert_ne!(
            keys(&resweep_batch(7, 3, &primed)),
            keys(&resweep_batch(7, 4, &primed))
        );
    }

    #[test]
    fn cost_structure_does_not_depend_on_seed() {
        let shape = |jobs: Vec<Job>| -> Vec<(u64, usize, usize)> {
            jobs.iter()
                .map(|j| (j.node_nm.to_bits(), j.slices, j.samples))
                .collect()
        };
        assert_eq!(shape(flow_mix(1)), shape(flow_mix(99)));
        assert_eq!(shape(sim_grid(1)), shape(sim_grid(99)));
    }

    #[test]
    fn paper_points_are_canonical_and_present() {
        for jobs in [flow_mix(5), sim_grid(5)] {
            assert_eq!(jobs.iter().filter(|j| is_paper_point(j)).count(), 2);
        }
    }

    #[test]
    fn resweep_batch_has_the_stated_composition() {
        let primed = resweep_primed(11);
        let batch = resweep_batch(11, 0, &primed);
        assert_eq!(batch.len(), RESWEEP_BATCH);
        let mut distinct = keys(&batch);
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), RESWEEP_BATCH - RESWEEP_DUPLICATES);
        let fresh = batch.iter().filter(|j| !primed.contains(j)).count();
        assert!(fresh >= RESWEEP_FRESH, "fresh jobs present: {fresh}");
    }
}
