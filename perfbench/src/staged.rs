//! The traced runner: [`tdsigma_jobs::execute`] taken apart into the
//! public calls of each layer, with a span around every call.
//!
//! It must produce the same bytes as `execute` — the traced run checks
//! that, and checks the stage-by-stage layout against
//! `tdsigma_layout::synthesize` — so the per-layer times it records are
//! times of the real code path, not of a look-alike.

use crate::trace::{Recorder, SpanId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use tdsigma_core::flow::DesignFlow;
use tdsigma_core::netgen;
use tdsigma_core::power::estimate;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::AdcReport;
use tdsigma_dsp::metrics::enob_from_sndr;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_jobs::{Job, JobError, JobKind, JobReport, StageTimes};
use tdsigma_layout::checks::check_placement;
use tdsigma_layout::place::place;
use tdsigma_layout::route::route;
use tdsigma_layout::{
    analyze_timing, AprOptions, Floorplan, LayoutResult, Parasitics, PhysicalLibrary,
};
use tdsigma_netlist::{verilog, FlatNetlist, PowerPlan};

thread_local! {
    static SCRATCH: RefCell<SpectrumScratch> = RefCell::new(SpectrumScratch::new());
}

/// What a flow job's layout stages produced, kept so the run can check
/// them against `synthesize` after timing.
#[derive(Debug)]
pub struct StagedLayout {
    pub job: Job,
    pub flat: FlatNetlist,
    pub plan: PowerPlan,
    pub layout: LayoutResult,
}

fn failed(e: impl std::fmt::Display) -> JobError {
    JobError::Failed {
        attempts: 1,
        message: e.to_string(),
    }
}

/// Runs `job` stage by stage under `parent`. Flow layouts are pushed to
/// `layouts` when given.
pub fn run(
    job: &Job,
    rec: &Recorder,
    parent: Option<SpanId>,
    layouts: Option<&Mutex<Vec<StagedLayout>>>,
) -> Result<(JobReport, StageTimes), JobError> {
    let _job_span = rec.span_under("job.attempt", parent);
    let report = match job.kind {
        JobKind::SimTone => sim(job, rec)?,
        JobKind::FullFlow => flow(job, rec, layouts)?,
    };
    Ok((report, StageTimes::default()))
}

fn sim(job: &Job, rec: &Recorder) -> Result<JobReport, JobError> {
    let spec = {
        let _s = rec.span("flow.build");
        job.to_spec()?
    };
    let mut sim = {
        let _s = rec.span("sim.build");
        AdcSimulator::new(spec.clone()).map_err(failed)?
    };
    let fin = job.input_frequency_hz();
    let amplitude = job.amplitude_rel * spec.full_scale_v();
    let capture = {
        let mut s = rec.span("flow.transient");
        s.set_work((job.samples * spec.steps_per_cycle) as u64);
        sim.run_tone(fin, amplitude, job.samples)
    };
    let analysis = {
        let _s = rec.span("flow.spectrum");
        SCRATCH.with(|s| capture.analyze_with(spec.bw_hz, &mut s.borrow_mut()))
    };
    Ok(JobReport {
        key: job.key(),
        job: job.clone(),
        fin_hz: fin,
        sndr_db: analysis.sndr_db,
        enob: enob_from_sndr(analysis.sndr_db),
        power_mw: None,
        digital_fraction: None,
        area_mm2: None,
        fom_fj: None,
        timing_slack_ps: None,
    })
}

fn flow(
    job: &Job,
    rec: &Recorder,
    layouts: Option<&Mutex<Vec<StagedLayout>>>,
) -> Result<JobReport, JobError> {
    let (spec, fin) = {
        let _s = rec.span("flow.build");
        let spec = job.to_spec()?;
        let mut flow = DesignFlow::new(spec.clone())
            .with_samples(job.samples)
            .with_amplitude(job.amplitude_rel);
        if let Some(fin) = job.fin_hz {
            flow = flow.with_input_frequency(fin);
        }
        (spec, flow.input_frequency_hz())
    };
    let flat = {
        let _s = rec.span("flow.netgen");
        let design = netgen::generate(&spec).map_err(failed)?;
        verilog::write_design(&design).map_err(failed)?;
        design.flatten()
    };
    let plan = {
        let _s = rec.span("flow.power_plan");
        let plan = PowerPlan::infer(&flat).map_err(failed)?;
        plan.validate(&flat).map_err(failed)?;
        plan
    };
    let apr = AprOptions::default();
    let layout = {
        let mut apr_span = rec.span("flow.apr");
        apr_span.set_work(flat.cells.len() as u64);
        let lib = PhysicalLibrary::for_technology(&spec.tech);
        let (floorplan, assignments) = {
            let _s = rec.span("flow.apr.floorplan");
            let floorplan =
                Floorplan::generate(&flat, &plan, &lib, apr.utilization).map_err(failed)?;
            let assignments: BTreeMap<String, String> = flat
                .cells
                .iter()
                .map(|c| {
                    let region = plan
                        .region_of(&c.path)
                        .map_or_else(|| "CORE".to_string(), |r| r.name.clone());
                    (c.path.clone(), region)
                })
                .collect();
            (floorplan, assignments)
        };
        let placement = {
            let mut s = rec.span("flow.apr.place");
            s.set_work(flat.cells.len() as u64);
            place(&flat, &assignments, &floorplan, &lib, apr.seed).map_err(failed)?
        };
        let routing = {
            let mut s = rec.span("flow.apr.route");
            let routing = route(
                &flat,
                &placement,
                floorplan.die.width(),
                floorplan.die.height(),
                floorplan.row_height_nm(),
                apr.gcell_rows,
            )
            .map_err(failed)?;
            s.set_work(routing.total_wirelength_nm.max(0) as u64);
            routing
        };
        let parasitics = {
            let _s = rec.span("flow.apr.extract");
            Parasitics::extract(&routing, &spec.tech)
        };
        let checks = {
            let _s = rec.span("flow.apr.checks");
            check_placement(&flat, &placement)
        };
        if !checks.is_clean() {
            return Err(failed(format!(
                "layout sign-off: {} violation(s)",
                checks.violations.len()
            )));
        }
        let area_mm2 = floorplan.die_area_mm2();
        LayoutResult {
            floorplan,
            placement,
            routing,
            parasitics,
            checks,
            area_mm2,
        }
    };
    let timing = {
        let _s = rec.span("flow.timing");
        analyze_timing(&flat, &layout.parasitics, &spec.tech, spec.fs_hz).map_err(failed)?
    };
    let mut sim = {
        let _s = rec.span("sim.build");
        AdcSimulator::with_parasitics(spec.clone(), &layout.parasitics).map_err(failed)?
    };
    let capture = {
        let mut s = rec.span("flow.transient");
        s.set_work((job.samples * spec.steps_per_cycle) as u64);
        let amplitude = job.amplitude_rel * spec.full_scale_v();
        sim.run_tone(fin, amplitude, job.samples)
    };
    let analysis = {
        let _s = rec.span("flow.spectrum");
        SCRATCH.with(|s| capture.analyze_with(spec.bw_hz, &mut s.borrow_mut()))
    };
    let r = {
        let _s = rec.span("flow.power_report");
        let catalog = spec.tech.catalog();
        let leakage_nw: f64 = flat
            .cells
            .iter()
            .map(|c| catalog.cell(&c.cell).map_or(0.0, |s| s.leakage_nw()))
            .sum();
        let wire_cap = layout.parasitics.total_capacitance_f();
        let power = estimate(&spec, &capture.activity, wire_cap, leakage_nw);
        AdcReport::from_parts(
            spec.tech.id(),
            spec.fs_hz,
            spec.bw_hz,
            analysis.sndr_db,
            power.total_w(),
            power.digital_fraction(),
            layout.area_mm2,
        )
    };
    let report = JobReport {
        key: job.key(),
        job: job.clone(),
        fin_hz: fin,
        sndr_db: r.sndr_db,
        enob: r.enob,
        power_mw: Some(r.power_mw),
        digital_fraction: Some(r.digital_fraction),
        area_mm2: Some(r.area_mm2),
        fom_fj: Some(r.fom_fj),
        timing_slack_ps: Some(timing.slack_ps()),
    };
    if let Some(store) = layouts {
        store
            .lock()
            .expect("layout store poisoned")
            .push(StagedLayout {
                job: job.clone(),
                flat,
                plan,
                layout,
            });
    }
    Ok(report)
}
