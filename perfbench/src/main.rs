//! `tdsigma-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_mix|sim_grid|resweep_loopback --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process. The seed generates the job lists (the
//! program under test sees only those jobs); the run sweeps for `S`
//! seconds, checks every output, prints a human-readable table, and ends
//! with one JSON line: `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics from spans recorded around calls
//! into each layer. `METRICS.md` maps each layer metric to the
//! end-to-end metric and workload it should move.

mod gen;
mod metrics;
mod probe;
mod staged;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use tdsigma_jobs::Json;
use workload::{Opts, Outcome};

fn usage() -> ! {
    eprintln!(
        "usage: tdsigma-perfbench --workload <flow_mix|sim_grid|resweep_loopback> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(&flag[2..], value);
            }
            _ => usage(),
        }
    }
    let get = |k: &str| flags.get(k).copied().unwrap_or_else(|| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let opts = Opts {
        seed: get("seed").parse().unwrap_or_else(|_| usage()),
        seconds,
        trace: match get("trace") {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    };
    (get("workload").to_string(), opts)
}

/// Which span each workload's time should be dominated by, as predicted
/// in `METRICS.md`.
fn predicted_dominant(workload: &str) -> &'static str {
    match workload {
        "flow_mix" => "flow.apr.place",
        "sim_grid" => "flow.transient",
        _ => "jobs layer",
    }
}

/// The crate module a span's time belongs to.
fn module_of(span: &str) -> &'static str {
    match span {
        "engine.batch" => "jobs::{engine,pool,cache,journal}",
        "dispatch.run_job" => "jobs::{dispatch,remote,server,cache}",
        "job.attempt" => "jobs::execute",
        "flow.build" => "jobs::job + core::spec",
        "flow.netgen" => "core::netgen + netlist::verilog",
        "flow.power_plan" => "netlist::power",
        "flow.apr" => "layout::{apr,physlib}",
        "flow.apr.floorplan" => "layout::floorplan",
        "flow.apr.place" => "layout::place",
        "flow.apr.route" => "layout::route",
        "flow.apr.extract" => "layout::extract",
        "flow.apr.checks" => "layout::checks",
        "flow.timing" => "layout::sta",
        "sim.build" => "core::sim",
        "flow.transient" => "core::sim + circuit::noise",
        "flow.spectrum" => "dsp",
        "flow.power_report" => "core::{power,report}",
        _ => "?",
    }
}

/// Spans whose self time is the jobs layer's own work.
const JOBS_LAYER_SPANS: [&str; 2] = ["engine.batch", "dispatch.run_job"];

fn per_layer(out: &Outcome, workload: &str) -> BTreeMap<&'static str, f64> {
    let totals = trace::layer_totals(&out.spans);
    let job_ns = totals.get(out.job_span).map_or(0, |t| t.total_ns).max(1) as f64;
    let get = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let mean_self_ms = |name: &str| {
        let t = get(name);
        t.self_ns as f64 / 1e6 / t.calls.max(1) as f64
    };
    let share = |name: &str| get(name).self_ns as f64 / job_ns;
    let per_call_work = |name: &str| {
        let t = get(name);
        t.work as f64 / t.calls.max(1) as f64
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in metrics::PER_LAYER {
        m.insert(name, 0.0);
    }
    for (metric, span) in [
        ("flow.netgen.ms", "flow.netgen"),
        ("flow.power_plan.ms", "flow.power_plan"),
        ("flow.apr.floorplan.ms", "flow.apr.floorplan"),
        ("flow.apr.place.ms", "flow.apr.place"),
        ("flow.apr.route.ms", "flow.apr.route"),
        ("flow.apr.extract.ms", "flow.apr.extract"),
        ("flow.apr.checks.ms", "flow.apr.checks"),
        ("flow.timing.ms", "flow.timing"),
        ("sim.build.ms", "sim.build"),
        ("flow.transient.ms", "flow.transient"),
        ("flow.spectrum.ms", "flow.spectrum"),
    ] {
        m.insert(metric, mean_self_ms(span));
    }
    m.insert("flow.apr.place.share", share("flow.apr.place"));
    m.insert("flow.apr.place.cells", per_call_work("flow.apr.place"));
    m.insert(
        "flow.apr.route.wirelength_um",
        per_call_work("flow.apr.route") / 1e3,
    );
    let transient = get("flow.transient");
    m.insert("flow.transient.share", share("flow.transient"));
    m.insert("flow.transient.steps", per_call_work("flow.transient"));
    m.insert(
        "flow.transient.ns_per_step",
        transient.self_ns as f64 / transient.work.max(1) as f64,
    );
    m.insert(
        "jobs.share",
        JOBS_LAYER_SPANS.iter().map(|s| share(s)).sum::<f64>(),
    );
    let jps = |(jobs, wall): (u64, f64)| jobs as f64 / wall.max(1e-9);
    m.insert(
        "trace.overhead",
        jps(out.untraced) / jps(out.traced).max(1e-9) - 1.0,
    );
    for (name, value) in &out.probes {
        m.insert(name, *value);
    }

    // The layer table.
    println!(
        "\nlayer table ({workload}, traced sweeps; share = self time / total `{}` time {:.1} ms)",
        out.job_span,
        job_ns / 1e6
    );
    println!(
        "  {:<20} {:<36} {:>8} {:>12} {:>12} {:>7}",
        "span", "module", "calls", "self ms", "total ms", "share"
    );
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in &rows {
        println!(
            "  {:<20} {:<36} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            name,
            module_of(name),
            t.calls,
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / job_ns
        );
    }
    let jobs_layer_ns: u64 = JOBS_LAYER_SPANS
        .iter()
        .filter_map(|s| totals.get(s))
        .map(|t| t.self_ns)
        .sum();
    let dominant = rows
        .iter()
        .filter(|(name, _)| !JOBS_LAYER_SPANS.contains(name) && **name != "job.attempt")
        .map(|(name, t)| (**name, t.self_ns))
        .chain(std::iter::once(("jobs layer", jobs_layer_ns)))
        .max_by_key(|&(_, ns)| ns)
        .map_or("none", |(name, _)| name);
    let predicted = predicted_dominant(workload);
    println!(
        "dominant self-time layer: {dominant} (predicted {predicted}: {})",
        if dominant == predicted {
            "as predicted"
        } else {
            "NOT as predicted"
        }
    );
    m
}

fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let (jobs, wall) = out.untraced;
    let attempted = out.attempted.max(1) as f64;
    let tail_p = stats::tail_percentile(out.job_ms.len());
    let mut m = BTreeMap::new();
    m.insert("setup_s", out.setup_total_s());
    m.insert("jobs_per_s", jobs as f64 / wall.max(1e-9));
    m.insert(
        "job_ms_p50",
        stats::percentile(&out.job_ms, 50.0).unwrap_or(0.0),
    );
    m.insert(
        "job_ms_tail",
        tail_p
            .and_then(|p| stats::percentile(&out.job_ms, f64::from(p)))
            .unwrap_or(0.0),
    );
    m.insert("success_ratio", 1.0 - out.failed as f64 / attempted);
    m.insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    m.insert("sndr_gap_db", out.sndr_gap_db);

    let n_jobs = out.job_ms.len();
    let rows: [(&str, String); 8] = [
        (
            "setup_s",
            format!(
                "first fingerprint {:.3} ms (median of {} processes) + per-sweep set-up {:.3} ms (median of n={})",
                out.fingerprint_s * 1e3,
                workload::FINGERPRINT_PROBES,
                stats::median(&out.setup_s).unwrap_or(0.0) * 1e3,
                out.setup_s.len()
            ),
        ),
        ("jobs_per_s", format!("n={jobs} jobs in {wall:.3} s")),
        ("job_ms_p50", format!("n={n_jobs}")),
        (
            "job_ms_tail",
            match tail_p {
                Some(p) => format!("p{p}, n={n_jobs}"),
                None => format!("n={n_jobs} < 11: no percentile has 10 samples beyond"),
            },
        ),
        ("error_rate", format!("n={}", out.attempted)),
        ("success_ratio", "= 1 - error_rate".into()),
        ("peak_rss_mb", "VmHWM".into()),
        ("sndr_gap_db", "n=2 paper points, |SNDR - 69.5 dB|".into()),
    ];
    println!("\nend-to-end metrics (untraced sweeps)");
    for (name, note) in rows {
        let (value, unit) = if name == "error_rate" {
            (out.failed as f64 / attempted, "ratio")
        } else {
            (m[name], metrics::unit_of(name).unwrap_or("?"))
        };
        println!("  {name:<16} {value:>14.6} {unit:<6} {note}");
    }
    m
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--fingerprint-probe") {
        println!("{}", workload::fingerprint_probe());
        return;
    }
    let (workload, opts) = parse_args();
    let result = match workload.as_str() {
        "flow_mix" => workload::engine_sweep("flow_mix", gen::flow_mix(opts.seed), &opts),
        "sim_grid" => workload::engine_sweep("sim_grid", gen::sim_grid(opts.seed), &opts),
        "resweep_loopback" => workload::resweep(&opts),
        _ => usage(),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "workload {workload}, seed {}, {} s, trace {}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let rates = &out.sweep_rates;
    if let (Some(lo), Some(mid), Some(hi)) = (
        stats::percentile(rates, 0.0),
        stats::median(rates),
        stats::percentile(rates, 100.0),
    ) {
        println!(
            "  untraced sweeps: {} at {lo:.3} / {mid:.3} / {hi:.3} jobs/s (min / median / max)",
            rates.len()
        );
    }
    println!(
        "  reports_digest {} (first sweep, submission order)",
        out.digest
    );
    let metrics = if opts.trace {
        per_layer(&out, &workload)
    } else {
        end_to_end(&out)
    };
    if opts.trace {
        println!("\nper-layer metrics");
        for (name, unit) in metrics::PER_LAYER {
            println!("  {name:<40} {:>14.6} {unit}", metrics[name]);
        }
    }

    let mut breaches = out.breaches.clone();
    if out.failed > 0 {
        breaches.push(format!("{} of {} jobs failed", out.failed, out.attempted));
    }
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        breaches.push(format!("metric {name} is not finite"));
    }
    println!(
        "\ncorrectness: {}",
        if breaches.is_empty() {
            "ok"
        } else {
            "BREACHED"
        }
    );
    for b in &breaches {
        println!("  breach: {b}");
    }

    let correct = breaches.is_empty();
    let metric_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::unit_of(name).unwrap_or("?");
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), metric_json),
    ]);
    println!("{}", line.to_text());
    if !correct {
        std::process::exit(1);
    }
}
