//! Dumps bit-level checksums of simulator captures — the regeneration
//! tool for the golden bit-exactness fixtures in
//! `crates/core/tests/golden.rs`.
//!
//! For 3 seeds × 2 paper nodes it runs a tone capture and prints one
//! line per case: FNV-1a checksums over the output-word bit patterns
//! and the slice codes, every integer activity counter, and the bit
//! patterns of the float accumulators. Any engine change that alters a
//! single bit of the transient shows up here.
//!
//! It then prints one `layout` line per paper point: the FNV-1a digest
//! of the PD-aware DEF text, its HPWL, and the naive flow's HPWL and
//! rail-short count.

use tdsigma_core::fingerprint::{fnv1a64, FNV_BASIS};
use tdsigma_core::netgen;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::window::Window;
use tdsigma_layout::{synthesize, synthesize_naive, to_def, AprOptions};
use tdsigma_netlist::PowerPlan;

/// FNV-1a over the little-endian bit patterns of `values` (chained, so
/// equal to one pass over the concatenated bytes), the same
/// checksum the golden test uses.
fn digest_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_BASIS, |h, v| fnv1a64(&v.to_bits().to_le_bytes(), h))
}

fn main() {
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        for seed in [2017u64, 1, 42] {
            let mut spec = spec.clone();
            spec.steps_per_cycle = 8;
            spec.seed = seed;
            let n = 1024usize;
            let fin = 11.0 * spec.fs_hz / n as f64;
            let amp = 0.79 * spec.full_scale_v();
            let mut sim = AdcSimulator::new(spec).expect("sim");
            let cap = sim.run_tone(fin, amp, n);
            let out_sum = digest_f64s(&cap.output);
            let code_sum = fnv1a64(&cap.slice_codes, FNV_BASIS);
            let psd = cap.spectrum(Window::Hann);
            let psd_sum = digest_f64s(psd.powers());
            let a = &cap.activity;
            println!(
                "{node} seed={seed} output={out_sum:016x} codes={code_sum:016x} \
                 spectrum={psd_sum:016x} vco={} clk={} dac={} d={} cmp={} \
                 energy={:016x} dur={:016x}",
                a.vco_edges,
                a.clk_cycles,
                a.dac_toggles,
                a.d_toggles,
                a.comparator_decisions,
                a.resistor_energy_j.to_bits(),
                a.duration_s.to_bits(),
            );
        }
    }
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        let flat = netgen::generate(&spec).expect("netlist").flatten();
        let plan = PowerPlan::infer(&flat).expect("plan");
        let apr = AprOptions::default();
        let pd = synthesize(&flat, &plan, &spec.tech, &apr).expect("APR");
        let def = to_def(
            &pd.placement,
            "adc_top",
            pd.floorplan.die.width(),
            pd.floorplan.die.height(),
        );
        let naive = synthesize_naive(&flat, &spec.tech, &apr).expect("naive APR");
        println!(
            "layout {node} def={:016x} hpwl={} naive_hpwl={} naive_rail_shorts={}",
            fnv1a64(def.as_bytes(), FNV_BASIS),
            pd.placement.hpwl_nm,
            naive.placement.hpwl_nm,
            naive.checks.rail_conflicts(),
        );
    }
}
