//! The three workloads. Each runs sweeps ("passes") until `--seconds`
//! have elapsed, every pass on a freshly set-up engine, and gathers the
//! end-to-end numbers, the correctness breaches and — when traced — the
//! spans.
//!
//! Load: one process, two pool workers (the reference machine has two
//! cores); the loopback workload adds an in-process server with two
//! workers, which a client engine with two workers keeps busy over at
//! most two connections. Every loop is closed: a sweep submits its whole
//! batch and waits for it.

use crate::gen;
use crate::probe;
use crate::staged::{self, StagedLayout};
use crate::stats;
use crate::trace::{Recorder, Span, SpanId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdsigma_jobs::{
    execute, BatchReport, DispatchConfig, Dispatcher, Engine, EngineConfig, Job, JobError, JobKind,
    Journal, PoolConfig, RemoteClient, Runner, Server, ServerConfig,
};
use tdsigma_layout::{synthesize, AprOptions};

/// Pool workers of every engine the benchmark starts.
pub const WORKERS: usize = 2;

/// Table 3's measured SNDR at both operating points, dB.
pub const PAPER_SNDR_DB: f64 = 69.5;

/// The `reproduce_all` gate on paper-point SNDR, dB.
pub const SNDR_GATE_DB: f64 = 65.0;

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One-time process set-up (first engine fingerprint), s.
    pub fingerprint_s: f64,
    /// Per-sweep set-up times, s.
    pub setup_s: Vec<f64>,
    /// Per-job service times of untraced sweeps, ms.
    pub job_ms: Vec<f64>,
    /// (completed jobs, timed wall s) of untraced and traced sweeps.
    pub untraced: (u64, f64),
    pub traced: (u64, f64),
    /// Completed jobs per second of each untraced sweep.
    pub sweep_rates: Vec<f64>,
    pub sndr_gap_db: f64,
    pub digest: String,
    pub breaches: Vec<String>,
    pub spans: Vec<Span>,
    /// Name of the span that wraps one job's service (the per-layer
    /// shares are taken of its total time).
    pub job_span: &'static str,
    /// Per-layer numbers measured by probes rather than spans.
    pub probes: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn setup_total_s(&self) -> f64 {
        self.fingerprint_s + stats::median(&self.setup_s).unwrap_or(0.0)
    }

    fn breach(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.breaches.len() < 20 {
            self.breaches.push(what);
        }
    }
}

/// A scratch directory under the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn engine_config(cache_dir: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        pool: PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        },
        cache_dir,
        ..EngineConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The engine fingerprint is computed once per process, so its cost is
/// sampled in fresh child processes (`--fingerprint-probe`) and the
/// median kept; this process then computes its own.
pub const FINGERPRINT_PROBES: usize = 9;
fn fingerprint_s() -> std::io::Result<f64> {
    let exe = std::env::current_exe()?;
    let mut samples = Vec::with_capacity(FINGERPRINT_PROBES);
    for _ in 0..FINGERPRINT_PROBES {
        let child = std::process::Command::new(&exe)
            .arg("--fingerprint-probe")
            .output()?;
        let text = String::from_utf8_lossy(&child.stdout);
        match text.trim().parse::<f64>() {
            Ok(s) if child.status.success() => samples.push(s),
            _ => return Err(std::io::Error::other("fingerprint probe failed")),
        }
    }
    std::hint::black_box(tdsigma_core::engine_fingerprint());
    Ok(stats::median(&samples).unwrap_or(0.0))
}

/// Body of `--fingerprint-probe`: seconds the first
/// `engine_fingerprint()` call of a fresh process takes.
pub fn fingerprint_probe() -> f64 {
    let t = Instant::now();
    std::hint::black_box(tdsigma_core::engine_fingerprint());
    t.elapsed().as_secs_f64()
}

/// Whether another pass is due: the time is not up, or (traced) the
/// traced/untraced passes are not yet paired.
fn more_passes(start: Instant, opts: &Opts, passes_done: u64) -> bool {
    let paired = !opts.trace || passes_done.is_multiple_of(2);
    passes_done == 0 || start.elapsed().as_secs_f64() < opts.seconds || !paired
}

fn sndr_gap(jobs: &[Job], texts: &[String], out: &mut Outcome) {
    let mut gaps = Vec::new();
    let mut seen = HashSet::new();
    for (job, text) in jobs.iter().zip(texts) {
        // A sweep may hold a paper point twice (an in-batch duplicate).
        if !gen::is_paper_point(job) || !seen.insert(job.key()) {
            continue;
        }
        match tdsigma_jobs::JobReport::from_text(text) {
            Ok(r) => {
                if r.sndr_db < SNDR_GATE_DB {
                    out.breach(format!(
                        "paper point {} nm: SNDR {:.2} dB < {SNDR_GATE_DB} dB",
                        job.node_nm, r.sndr_db
                    ));
                }
                gaps.push((r.sndr_db - PAPER_SNDR_DB).abs());
            }
            Err(e) => out.breach(format!("unparseable report: {e}")),
        }
    }
    if gaps.len() != 2 {
        out.breach(format!(
            "expected 2 paper-point reports, got {}",
            gaps.len()
        ));
    }
    out.sndr_gap_db = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
}

/// Counts one timed sweep into `out` and returns its report texts in
/// submission order (empty for a failed job). The first sweep also sets
/// `sndr_gap_db` and `reports_digest`.
fn record_sweep(
    out: &mut Outcome,
    jobs: &[Job],
    batch: Result<BatchReport, JobError>,
    traced: bool,
    wall: f64,
) -> Option<(BatchReport, Vec<String>)> {
    let batch = match batch {
        Ok(b) => b,
        Err(e) => {
            out.breach(format!("journal failed: {e}"));
            out.attempted += jobs.len() as u64;
            out.failed += jobs.len() as u64;
            return None;
        }
    };
    let mut texts = Vec::with_capacity(jobs.len());
    for (job, result) in jobs.iter().zip(&batch.results) {
        out.attempted += 1;
        match result {
            Ok(r) if r.key == job.key() => texts.push(r.to_text()),
            Ok(r) => {
                out.breach(format!("report key {} for job {}", r.key, job.key()));
                texts.push(r.to_text());
            }
            Err(e) => {
                out.failed += 1;
                out.breach(format!("job {} failed: {e}", job.key()));
                texts.push(String::new());
            }
        }
    }
    let completed = texts.iter().filter(|t| !t.is_empty()).count() as u64;
    if traced {
        out.traced.0 += completed;
        out.traced.1 += wall;
    } else {
        out.untraced.0 += completed;
        out.untraced.1 += wall;
        out.sweep_rates.push(completed as f64 / wall);
    }
    if out.digest.is_empty() {
        sndr_gap(jobs, &texts, out);
        out.digest = stats::reports_digest(texts.iter().map(String::as_str));
    }
    Some((batch, texts))
}

/// The simulator probes every traced run takes: RNG draw rate and the
/// noise-free integration floor of the workload's configurations.
fn sim_probes(out: &mut Outcome, jobs: &[Job]) {
    out.probes
        .insert("noise.ns_per_normal", probe::ns_per_normal());
    let (free_ns_per_step, noise_share) = probe::noise_free(jobs);
    out.probes
        .insert("flow.transient.noise_free_ns_per_step", free_ns_per_step);
    out.probes.insert("flow.transient.noise_share", noise_share);
}

/// `flow_mix` and `sim_grid`: the same sweep run over and over, each
/// pass on a fresh engine with a cold disk cache and a new journal, as a
/// user running `tdsigma sweep` would.
pub fn engine_sweep(name: &str, jobs: Vec<Job>, opts: &Opts) -> std::io::Result<Outcome> {
    let work = WorkDir::create(name)?;
    let mut out = Outcome {
        fingerprint_s: fingerprint_s()?,
        job_span: "job.attempt",
        ..Outcome::default()
    };
    let rec = Arc::new(Recorder::default());
    let layouts: Arc<Mutex<Vec<StagedLayout>>> = Arc::default();
    let job_ms: Arc<Mutex<Vec<f64>>> = Arc::default();
    let batch_span = Arc::new(AtomicU64::new(0));
    let mut reference: Option<Vec<String>> = None;

    let start = Instant::now();
    let mut pass = 0u64;
    while more_passes(start, opts, pass) {
        let traced = opts.trace && pass % 2 == 1;
        let t0 = Instant::now();
        let dir = work.0.join(format!("pass-{pass}"));
        let runner: Arc<Runner> = if traced {
            let (rec, batch_span) = (Arc::clone(&rec), Arc::clone(&batch_span));
            // Layouts are kept from the first traced pass only.
            let keep = (pass == 1).then(|| Arc::clone(&layouts));
            Arc::new(move |job: &Job| {
                let parent = Some(batch_span.load(Ordering::SeqCst)).filter(|&id| id != 0);
                staged::run(job, &rec, parent, keep.as_deref())
            })
        } else {
            let job_ms = Arc::clone(&job_ms);
            Arc::new(move |job: &Job| {
                let t = Instant::now();
                let result = execute(job);
                job_ms.lock().expect("timing store").push(ms(t.elapsed()));
                result
            })
        };
        let engine = Engine::with_runner(engine_config(Some(dir.join("cache"))), runner)
            .map_err(std::io::Error::other)?;
        let mut journal = Journal::create(dir.join("journal"), &format!("{name}-{pass}"))
            .map_err(std::io::Error::other)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let batch = {
            let span = traced.then(|| rec.span("engine.batch"));
            batch_span.store(span.as_ref().map_or(0, |s| s.id()), Ordering::SeqCst);
            engine.run_batch_with_journal(&jobs, Some(&mut journal))
        };
        let wall = t1.elapsed().as_secs_f64();
        engine.shutdown();
        let Some((batch, texts)) = record_sweep(&mut out, &jobs, batch, traced, wall) else {
            break;
        };
        for r in batch.reports() {
            if r.job.kind == JobKind::FullFlow && r.timing_slack_ps.is_none_or(|s| s < 0.0) {
                out.breach(format!(
                    "{} nm × {} slices: timing not met (slack {:?} ps)",
                    r.job.node_nm, r.job.slices, r.timing_slack_ps
                ));
            }
        }
        match &reference {
            None => reference = Some(texts),
            Some(first) => {
                let diff = first.iter().zip(&texts).filter(|(a, b)| a != b).count();
                if diff > 0 {
                    out.breach(format!(
                        "pass {pass}{}: {diff} report(s) differ from pass 0",
                        if traced { " (traced)" } else { "" }
                    ));
                }
            }
        }
        pass += 1;
    }
    out.job_ms = std::mem::take(&mut *job_ms.lock().expect("timing store"));

    if opts.trace {
        out.spans = rec.spans();
        check_layouts(&layouts.lock().expect("layout store"), &mut out);
        sim_probes(&mut out, &jobs);
    }
    out.notes
        .push(format!("{pass} sweep(s) of {} jobs", jobs.len()));
    Ok(out)
}

/// The traced run's stage-by-stage layouts must equal what
/// `synthesize` produces for the same netlist and power plan.
fn check_layouts(layouts: &[StagedLayout], out: &mut Outcome) {
    let mut seen = HashSet::new();
    let mut checked = 0;
    for staged in layouts {
        if !seen.insert((staged.job.node_nm.to_bits(), staged.job.slices)) {
            continue;
        }
        let tech = match staged.job.to_spec() {
            Ok(spec) => spec.tech,
            Err(e) => {
                out.breach(format!("spec: {e}"));
                continue;
            }
        };
        match synthesize(&staged.flat, &staged.plan, &tech, &AprOptions::default()) {
            Ok(reference) if reference == staged.layout => checked += 1,
            Ok(_) => out.breach(format!(
                "{} nm × {} slices: staged layout differs from synthesize",
                staged.job.node_nm, staged.job.slices
            )),
            Err(e) => out.breach(format!("synthesize: {e}")),
        }
    }
    if !layouts.is_empty() {
        out.notes
            .push(format!("{checked} staged layout(s) equal synthesize(...)"));
    }
}

/// `resweep_loopback`: a second user re-runs sweeps against a shared
/// in-process `serve` over 127.0.0.1. The server restarts for every
/// sweep on a disk cache primed before timing, so its hits read and
/// verify artifacts from disk.
pub fn resweep(opts: &Opts) -> std::io::Result<Outcome> {
    let work = WorkDir::create("resweep_loopback")?;
    let mut out = Outcome {
        fingerprint_s: fingerprint_s()?,
        job_span: "dispatch.run_job",
        ..Outcome::default()
    };
    let cache_dir = work.0.join("serve-cache");

    // Prime the server's cache (input preparation, not set-up).
    let primed = gen::resweep_primed(opts.seed);
    let expected: HashMap<String, String> = {
        let engine =
            Engine::new(engine_config(Some(cache_dir.clone()))).map_err(std::io::Error::other)?;
        let batch = engine.run_batch(&primed);
        engine.shutdown();
        let mut map = HashMap::new();
        for (job, result) in primed.iter().zip(&batch.results) {
            match result {
                Ok(r) => {
                    map.insert(job.key(), r.to_text());
                }
                Err(e) => out.breach(format!("priming job {} failed: {e}", job.key())),
            }
        }
        map
    };
    let primed_keys: Arc<HashSet<String>> = Arc::new(expected.keys().cloned().collect());

    let rec = Arc::new(Recorder::default());
    let batch_span = Arc::new(AtomicU64::new(0));
    let in_flight: Arc<Mutex<HashMap<String, SpanId>>> = Arc::default();
    let rtt_us: Arc<Mutex<(Vec<f64>, Vec<f64>)>> = Arc::default();
    let job_ms: Arc<Mutex<Vec<f64>>> = Arc::default();
    let mut fresh: Vec<(Job, String)> = Vec::new();
    let (mut serve_hits, mut serve_jobs, mut deduped, mut submitted) = (0, 0, 0, 0);

    // Every restart binds the address the first one got, as a restarted
    // `serve` would: the dispatcher's per-backend state and metric names
    // stay those of one backend.
    let mut addr: Option<std::net::SocketAddr> = None;
    let start = Instant::now();
    let mut index = 0u64;
    while more_passes(start, opts, index) {
        let traced = opts.trace && index % 2 == 1;
        let jobs = gen::resweep_batch(opts.seed, index, &primed);

        let t0 = Instant::now();
        let server_runner: Arc<Runner> = if traced {
            let (rec, in_flight) = (Arc::clone(&rec), Arc::clone(&in_flight));
            Arc::new(move |job: &Job| {
                let parent = in_flight.lock().expect("span map").get(&job.key()).copied();
                staged::run(job, &rec, parent, None)
            })
        } else {
            Arc::new(execute)
        };
        let server_engine = Arc::new(
            Engine::with_runner(engine_config(Some(cache_dir.clone())), server_runner)
                .map_err(std::io::Error::other)?,
        );
        let server = Server::bind_with(
            addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
            Arc::clone(&server_engine),
            ServerConfig {
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )?;
        let bound = server.local_addr()?;
        addr = Some(bound);
        let serving = std::thread::spawn(move || server.run());
        let dispatcher = Dispatcher::new(
            &DispatchConfig {
                backends: vec![bound.to_string()],
                ..DispatchConfig::default()
            },
            Arc::new(execute),
        );
        let probe_ok = dispatcher.probe().iter().all(|(_, h)| {
            h.as_ref()
                .is_some_and(|h| h.fingerprint == tdsigma_core::engine_fingerprint())
        });
        let client_runner: Arc<Runner> = {
            let (rec, batch_span, in_flight) = (
                Arc::clone(&rec),
                Arc::clone(&batch_span),
                Arc::clone(&in_flight),
            );
            let (rtt_us, job_ms, primed_keys) = (
                Arc::clone(&rtt_us),
                Arc::clone(&job_ms),
                Arc::clone(&primed_keys),
            );
            let dispatcher = Arc::clone(&dispatcher);
            Arc::new(move |job: &Job| {
                let key = job.key();
                let t = Instant::now();
                let result = if traced {
                    let parent = Some(batch_span.load(Ordering::SeqCst)).filter(|&id| id != 0);
                    let span = rec.span_under("dispatch.run_job", parent);
                    in_flight
                        .lock()
                        .expect("span map")
                        .insert(key.clone(), span.id());
                    let result = dispatcher.run_job(job);
                    in_flight.lock().expect("span map").remove(&key);
                    result
                } else {
                    dispatcher.run_job(job)
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                let mut rtt = rtt_us.lock().expect("rtt store");
                if primed_keys.contains(&key) {
                    rtt.0.push(us);
                } else {
                    rtt.1.push(us);
                }
                if !traced {
                    job_ms.lock().expect("timing store").push(us / 1e3);
                }
                result
            })
        };
        let client = Engine::with_runner(engine_config(None), client_runner)
            .map_err(std::io::Error::other)?;
        let mut journal = Journal::create(work.0.join("journal"), &format!("resweep-{index}"))
            .map_err(std::io::Error::other)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if !probe_ok {
            out.breach(format!("sweep {index}: backend probe failed"));
        }

        let t1 = Instant::now();
        let batch = {
            let span = traced.then(|| rec.span("engine.batch"));
            batch_span.store(span.as_ref().map_or(0, |s| s.id()), Ordering::SeqCst);
            client.run_batch_with_journal(&jobs, Some(&mut journal))
        };
        let wall = t1.elapsed().as_secs_f64();

        client.shutdown();
        if let Err(e) = RemoteClient::new(bound.to_string()).shutdown() {
            out.breach(format!("server shutdown: {e}"));
        }
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.breach(format!("server: {e}")),
            Err(_) => out.breach("server thread panicked"),
        }
        let totals = server_engine.totals();
        server_engine.shutdown();
        serve_hits += totals.cache_hits;
        serve_jobs += totals.jobs;
        let fallbacks = dispatcher.summary().local_fallbacks;
        if fallbacks > 0 {
            out.breach(format!(
                "sweep {index}: {fallbacks} job(s) fell back to local"
            ));
        }

        let Some((batch, texts)) = record_sweep(&mut out, &jobs, batch, traced, wall) else {
            break;
        };
        deduped += batch.metrics.deduped;
        submitted += batch.metrics.jobs;
        for (job, text) in jobs.iter().zip(texts) {
            match expected.get(&job.key()) {
                Some(want) if *want != text => {
                    out.breach(format!("loopback report {} differs from local", job.key()));
                }
                Some(_) => {}
                None if !text.is_empty() => fresh.push((job.clone(), text)),
                None => {}
            }
        }
        index += 1;
    }
    out.job_ms = std::mem::take(&mut *job_ms.lock().expect("timing store"));

    // Fresh jobs were computed by the server: recompute them locally.
    fresh.sort_by_key(|(job, _)| job.key());
    fresh.dedup_by(|a, b| a.0 == b.0);
    let local = Engine::new(engine_config(None)).map_err(std::io::Error::other)?;
    let fresh_jobs: Vec<Job> = fresh.iter().map(|(j, _)| j.clone()).collect();
    let batch = local.run_batch(&fresh_jobs);
    local.shutdown();
    let mismatched = fresh
        .iter()
        .zip(&batch.results)
        .filter(|((_, text), r)| r.as_ref().map(|r| r.to_text()).ok().as_ref() != Some(text))
        .count();
    if mismatched > 0 {
        out.breach(format!(
            "{mismatched} fresh loopback report(s) differ from local execute"
        ));
    }
    out.notes.push(format!(
        "{index} sweep(s) of {} jobs; {} fresh job(s) re-executed locally and byte-identical",
        gen::RESWEEP_BATCH,
        fresh.len() - mismatched
    ));

    if opts.trace {
        out.spans = rec.spans();
        let (hits, misses) = std::mem::take(&mut *rtt_us.lock().expect("rtt store"));
        let p = &mut out.probes;
        p.insert("dispatch.rtt_hit_us", stats::median(&hits).unwrap_or(0.0));
        p.insert(
            "dispatch.rtt_miss_us",
            stats::median(&misses).unwrap_or(0.0),
        );
        p.insert(
            "serve.cache_hit_ratio",
            serve_hits as f64 / serve_jobs.max(1) as f64,
        );
        p.insert(
            "engine.dedup_ratio",
            deduped as f64 / submitted.max(1) as f64,
        );
        sim_probes(&mut out, &primed);
        let jobs_probe = probe::jobs_layer(&work.0, &cache_dir, &primed, &expected);
        match jobs_probe {
            Ok(numbers) => out.probes.extend(numbers),
            Err(e) => out.breach(format!("jobs-layer probe: {e}")),
        }
    }
    Ok(out)
}
