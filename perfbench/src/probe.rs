//! Per-layer numbers taken by calling one layer's public functions
//! directly, outside any job: the RNG draw rate, the noise-free
//! integration floor, and the jobs layer's cache, journal and engine
//! costs.

use crate::stats::median;
use crate::workload::WORKERS;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tdsigma_circuit::noise::SimRng;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_jobs::{
    Engine, EngineConfig, Job, JobReport, Journal, JournalRecord, PoolConfig, ResultCache, Runner,
    StageTimes,
};

/// Nanoseconds per standard normal drawn through
/// `SimRng::fill_standard_normals` in blocks of 32 (the per-step draw
/// count of an 8-slice simulator with thermal and phase noise on).
pub fn ns_per_normal() -> f64 {
    let mut rng = SimRng::new(1);
    let mut buf = [0.0f64; 32];
    let reps = 20_000;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                rng.fill_standard_normals(&mut buf);
                std::hint::black_box(&buf);
            }
            t.elapsed().as_secs_f64() * 1e9 / (reps * buf.len()) as f64
        })
        .collect();
    median(&runs).unwrap_or(0.0)
}

/// Capture length of the noise probe: short, since only the per-step
/// cost matters.
const PROBE_SAMPLES: usize = 2048;

/// Runs one transient per distinct simulator configuration of `jobs`
/// twice — as specified, and with every noise source off — and returns
/// (noise-free ns per step, share of transient time that noise costs).
pub fn noise_free(jobs: &[Job]) -> (f64, f64) {
    let configs: BTreeSet<(u64, usize, usize)> = jobs
        .iter()
        .map(|j| (j.node_nm.to_bits(), j.slices, j.steps_per_cycle))
        .collect();
    let (mut noisy_ns, mut free_ns, mut steps) = (0.0, 0.0, 0.0);
    for (node, slices, steps_per_cycle) in configs {
        let Some(job) = jobs.iter().find(|j| {
            (j.node_nm.to_bits(), j.slices, j.steps_per_cycle) == (node, slices, steps_per_cycle)
        }) else {
            continue;
        };
        let Ok(spec) = job.to_spec() else { continue };
        let mut quiet = spec.clone();
        quiet.thermal_noise = false;
        quiet.phase_noise_per_sqrt_hz = 0.0;
        quiet.comparator_noise_v = 0.0;
        quiet.clock_jitter_rms_s = 0.0;
        let fin = job.input_frequency_hz();
        let amplitude = job.amplitude_rel * spec.full_scale_v();
        let time = |spec: &tdsigma_core::AdcSpec| -> f64 {
            let Ok(mut sim) = AdcSimulator::new(spec.clone()) else {
                return 0.0;
            };
            let t = Instant::now();
            std::hint::black_box(sim.run_tone(fin, amplitude, PROBE_SAMPLES));
            t.elapsed().as_secs_f64() * 1e9
        };
        noisy_ns += time(&spec);
        free_ns += time(&quiet);
        steps += (PROBE_SAMPLES * spec.steps_per_cycle) as f64;
    }
    if steps == 0.0 || noisy_ns == 0.0 {
        return (0.0, 0.0);
    }
    (free_ns / steps, 1.0 - free_ns / noisy_ns)
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Jobs-layer costs for `resweep_loopback`: a disk-cache read and
/// verify, an artifact write, one durable journal append, and the
/// engine's own cost per job with a runner that returns a canned report.
pub fn jobs_layer(
    work: &Path,
    cache_dir: &Path,
    primed: &[Job],
    expected: &HashMap<String, String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let e = |e: tdsigma_jobs::JobError| e.to_string();
    let reports: Vec<JobReport> = primed
        .iter()
        .filter_map(|j| expected.get(&j.key()))
        .map(|t| JobReport::from_text(t))
        .collect::<Result<_, _>>()
        .map_err(e)?;

    let cold = ResultCache::with_disk(cache_dir).map_err(e)?;
    let mut get_us = Vec::new();
    for r in &reports {
        let t = Instant::now();
        let hit = cold.get(&r.key);
        get_us.push(micros(t));
        if hit.as_ref() != Some(r) {
            return Err(format!("cache read of {} does not match", r.key));
        }
    }

    let store = ResultCache::with_disk(work.join("put-probe")).map_err(e)?;
    let mut put_us = Vec::new();
    for r in &reports {
        let t = Instant::now();
        store.put(r).map_err(e)?;
        put_us.push(micros(t));
    }

    let mut journal = Journal::create(work.join("fsync-probe"), "fsync-probe").map_err(e)?;
    let mut fsync_us = Vec::new();
    for r in &reports {
        let rec = [JournalRecord::JobFinished { key: r.key.clone() }];
        let t = Instant::now();
        journal.append_all(&rec).map_err(e)?;
        fsync_us.push(micros(t));
    }

    let template = reports.last().cloned().ok_or("no primed reports")?;
    let canned: Arc<Runner> = Arc::new(move |job: &Job| {
        let mut r = template.clone();
        r.key = job.key();
        r.job = job.clone();
        Ok((r, StageTimes::default()))
    });
    let n = 2048u64;
    let base = primed.last().cloned().ok_or("no primed jobs")?;
    let jobs: Vec<Job> = (0..n)
        .map(|i| Job {
            seed: i,
            ..base.clone()
        })
        .collect();
    let mut overhead_us = Vec::new();
    for _ in 0..3 {
        let config = EngineConfig {
            pool: PoolConfig {
                workers: WORKERS,
                ..PoolConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = Engine::with_runner(config, Arc::clone(&canned)).map_err(e)?;
        let t = Instant::now();
        let batch = engine.run_batch(&jobs);
        overhead_us.push(micros(t) / n as f64);
        engine.shutdown();
        if batch.metrics.failed > 0 {
            return Err("canned engine batch failed".into());
        }
    }

    let m = |xs: &[f64]| median(xs).unwrap_or(0.0);
    Ok(vec![
        ("cache.get_us", m(&get_us)),
        ("cache.put_us", m(&put_us)),
        ("journal.fsync_us", m(&fsync_us)),
        ("engine.overhead_us_per_job", m(&overhead_us)),
    ])
}
