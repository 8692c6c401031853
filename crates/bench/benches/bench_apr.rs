//! Micro-bench: layout-synthesis throughput — netlist generation,
//! floorplan + place + route of the full ADC, the placer alone, and
//! signoff. Baseline: `BENCH_apr.json` (`--save` / `--compare`).

use std::collections::BTreeMap;
use std::hint::black_box;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_core::{netgen, spec::AdcSpec};
use tdsigma_layout::place::place;
use tdsigma_layout::{analyze_timing, synthesize, AprOptions, Floorplan, PhysicalLibrary};
use tdsigma_netlist::{GateSimulator, PowerPlan};

fn main() {
    let runner = BenchRunner::from_args();

    let spec = AdcSpec::paper_40nm().expect("spec");
    runner.bench("netgen_full_adc", || {
        black_box(netgen::generate(&spec).expect("netlist"))
    });
    let design = netgen::generate(&spec).expect("netlist");
    runner.bench("flatten_full_adc", || black_box(design.flatten()));

    for (label, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        let flat = netgen::generate(&spec).expect("netlist").flatten();
        let plan = PowerPlan::infer(&flat).expect("plan");
        runner.bench(&format!("apr_synthesize_{label}"), || {
            black_box(
                synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR clean"),
            )
        });

        // The placer alone (the `flow.apr.place` span), on the floorplan
        // and region assignments `synthesize` builds for the paper point.
        let apr = AprOptions::default();
        let lib = PhysicalLibrary::for_technology(&spec.tech);
        let floorplan = Floorplan::generate(&flat, &plan, &lib, apr.utilization).expect("fp");
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                let region = plan.region_of(&c.path).expect("every cell has a region");
                (c.path.clone(), region.name.clone())
            })
            .collect();
        runner.bench(&format!("apr_place_{label}"), || {
            black_box(place(&flat, &assignments, &floorplan, &lib, apr.seed).expect("placement"))
        });
    }

    let flat = netgen::generate(&spec).expect("netlist").flatten();
    let plan = PowerPlan::infer(&flat).expect("plan");
    let layout = synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR");

    runner.bench("sta_full_adc", || {
        black_box(analyze_timing(&flat, &layout.parasitics, &spec.tech, spec.fs_hz).expect("STA"))
    });
    runner.bench("gatesim_build_full_adc", || {
        black_box(GateSimulator::new(&flat).expect("gate sim"))
    });

    let mut sim = GateSimulator::new(&flat).expect("gate sim");
    runner.bench("gatesim_clock_cycle", || {
        sim.drive("CLK", true);
        sim.drive("CLK", false);
        black_box(sim.last_settle_steps())
    });
    runner.finish();
}
