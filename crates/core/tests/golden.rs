//! Golden bit-exactness suite: the transient engine's output, down to the
//! last bit, for 3 seeds × 2 paper nodes — plus the layout path (DEF
//! digest, HPWL and naive-flow rail shorts) at both paper points.
//!
//! The SoA hot-loop refactor (and any future one) must reproduce the
//! scalar engine's floating-point stream *exactly* — same-seed runs are a
//! documented reproducibility contract (`sweep.json` / `optimize.json`
//! are byte-stable across releases unless a change note says otherwise).
//! These fixtures freeze that contract: FNV-1a checksums over the output
//! words, the per-slice codes, and the spectrum bins, plus every activity
//! counter and the bit patterns of the float accumulators.
//!
//! If an *intentional* numerical change lands (like the fixed-grid clock
//! bugfix or the switch to the ziggurat normal sampler), regenerate with:
//!
//! ```text
//! cargo run --release -p tdsigma-bench --bin golden_probe
//! ```
//!
//! and paste the output into `GOLDEN` / `LAYOUT_GOLDEN` below, noting the change in
//! CHANGELOG.md. Never regenerate to paper over an unexplained diff.

use tdsigma_core::fingerprint::{fnv1a64, FNV_BASIS};
use tdsigma_core::netgen;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_dsp::window::Window;
use tdsigma_layout::{synthesize, synthesize_naive, to_def, AprOptions};
use tdsigma_netlist::PowerPlan;

/// Output of `golden_probe` with the fixed-grid clock and the ziggurat
/// normal sampler.
const GOLDEN: &str = "\
40nm seed=2017 output=bcb6c80f9da5950e codes=5bda1a6d15fc6364 spectrum=849580653d89eb1f vco=6549 clk=1024 dac=4816 d=4810 cmp=65536 energy=3e011d6f5d972649 dur=3eb6e80fe033c8c6
40nm seed=1 output=80447ce5e1c5d56d codes=6f6c41684aa45149 spectrum=aa3adab0aeee4b96 vco=6548 clk=1024 dac=4816 d=4806 cmp=65536 energy=3e011cae87d0985d dur=3eb6e80fe033c8c6
40nm seed=42 output=8ca495ae31daf649 codes=9b7004558d6f92e0 spectrum=f913ac51fed1ffa1 vco=6548 clk=1024 dac=4699 d=4694 cmp=65536 energy=3e0114e3eae7c08d dur=3eb6e80fe033c8c6
180nm seed=2017 output=92b5f94d1cd1aae5 codes=536d2668bf1c2e7b spectrum=496c4836ee7ef23a vco=6549 clk=1024 dac=4752 d=4748 cmp=65536 energy=3e312a21fa2b86e5 dur=3ed12e0be826d695
180nm seed=1 output=b3b3160f8677915f codes=a0bf13c504a5f42e spectrum=e9b21a67a70f9e0a vco=6550 clk=1024 dac=4716 d=4709 cmp=65536 energy=3e3123bddcf0e16a dur=3ed12e0be826d695
180nm seed=42 output=7115bf4480298c08 codes=c8850426621b0ac0 spectrum=8f7e13d81099ff1e vco=6550 clk=1024 dac=4782 d=4776 cmp=65536 energy=3e31268085ad91a4 dur=3ed12e0be826d695
";

/// Output of `golden_probe` for the layout path: the paper points at the
/// default APR options (seed 42). `def` digests the PD-aware DEF text;
/// the naive single-domain flow contributes its HPWL and rail-short count
/// (the failure the MSV methodology exists to fix).
const LAYOUT_GOLDEN: &str = "\
layout 40nm def=b14340c93ed14ce0 hpwl=15463620 naive_hpwl=8539440 naive_rail_shorts=725
layout 180nm def=3a0bd7197df971c7 hpwl=66489090 naive_hpwl=34778070 naive_rail_shorts=865
";

/// FNV-1a over the little-endian bit patterns of `values` (chained, so
/// equal to one pass over the concatenated bytes) — keep in sync
/// with `golden_probe`.
fn digest_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_BASIS, |h, v| fnv1a64(&v.to_bits().to_le_bytes(), h))
}

fn golden_line(node: &str, spec: &AdcSpec, seed: u64, scratch: &mut SpectrumScratch) -> String {
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
    let psd = cap.spectrum_with(Window::Hann, scratch);
    let psd_sum = digest_f64s(psd.powers());
    let a = &cap.activity;
    format!(
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
    )
}

fn layout_golden_line(node: &str, spec: &AdcSpec) -> String {
    let flat = netgen::generate(spec).expect("netlist").flatten();
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
    format!(
        "layout {node} def={:016x} hpwl={} naive_hpwl={} naive_rail_shorts={}",
        fnv1a64(def.as_bytes(), FNV_BASIS),
        pd.placement.hpwl_nm,
        naive.placement.hpwl_nm,
        naive.checks.rail_conflicts(),
    )
}

#[test]
fn layout_matches_golden_fixtures() {
    let mut got = String::new();
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        got.push_str(&layout_golden_line(node, &spec));
        got.push('\n');
    }
    assert_eq!(
        LAYOUT_GOLDEN, got,
        "layout golden mismatch — the placement or sign-off changed; if \
         this was intentional, regenerate the fixtures with golden_probe \
         and document it in CHANGELOG.md"
    );
}

#[test]
fn transient_engine_matches_golden_fixtures_bit_for_bit() {
    // One SpectrumScratch reused across all six cases — the spectrum
    // checksums therefore also pin the scratch path's bit-exactness
    // across re-plans (1024-sample captures at two sample rates).
    let mut scratch = SpectrumScratch::new();
    let mut got = String::new();
    for (node, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        for seed in [2017u64, 1, 42] {
            got.push_str(&golden_line(node, &spec, seed, &mut scratch));
            got.push('\n');
        }
    }
    for (want, have) in GOLDEN.lines().zip(got.lines()) {
        assert_eq!(
            want, have,
            "golden mismatch — the engine's bit stream changed; if this \
             was an intentional numerical change, regenerate the fixtures \
             with golden_probe and document it in CHANGELOG.md"
        );
    }
    assert_eq!(GOLDEN.lines().count(), got.lines().count());
}

#[test]
fn spectrum_scratch_reuse_matches_fresh_scratch() {
    // Alternating fresh/reused scratch and alternating capture shapes:
    // any hidden state in the scratch would break one of the comparisons.
    let mut reused = SpectrumScratch::new();
    for (node, n) in [("40nm", 512usize), ("180nm", 1024), ("40nm", 1024)] {
        let mut spec = match node {
            "40nm" => AdcSpec::paper_40nm().expect("spec"),
            _ => AdcSpec::paper_180nm().expect("spec"),
        };
        spec.steps_per_cycle = 8;
        let fin = 7.0 * spec.fs_hz / n as f64;
        let amp = 0.5 * spec.full_scale_v();
        let mut sim = AdcSimulator::new(spec).expect("sim");
        let cap = sim.run_tone(fin, amp, n);
        let fresh = cap.spectrum(Window::Hann);
        let with = cap.spectrum_with(Window::Hann, &mut reused);
        assert_eq!(fresh.len(), with.len());
        for (a, b) in fresh.powers().iter().zip(with.powers()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{node} n={n}");
        }
        // Analysis through the same scratch agrees too. (Bandwidth wide
        // enough to leave in-band bins even for the 512-point capture.)
        let bw = cap.fs_hz / 8.0;
        let a = cap.analyze(bw);
        let b = cap.analyze_with(bw, &mut reused);
        assert_eq!(a.sndr_db.to_bits(), b.sndr_db.to_bits());
        assert_eq!(a.signal_dbfs.to_bits(), b.signal_dbfs.to_bits());
    }
}
