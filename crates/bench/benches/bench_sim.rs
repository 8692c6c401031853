//! Micro-bench: behavioral ADC simulation throughput at both paper
//! nodes, its sensitivity to the substep count, the single-run
//! transient + spectrum path a design-space evaluation pays per
//! candidate, and the two halves of a simulator step: the Gaussian
//! noise block and the noise-free integration floor.
//!
//! `cargo bench --bench bench_sim -- --save ../../BENCH_sim.json`
//! refreshes the checked-in baseline and `-- --compare
//! ../../BENCH_sim.json` gates the current build against it (paths are
//! relative to `crates/bench`, where cargo runs bench binaries; the CI
//! `perf` job runs the gate).

use std::hint::black_box;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_circuit::noise::SimRng;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_dsp::window::Window;

fn main() {
    let runner = BenchRunner::from_args();
    let cycles = 2_048usize;
    for (label, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        runner.bench(&format!("adc_sim_run_tone_{label}_{cycles}cyc"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone(1e6, 0.1, cycles))
        });
    }

    for steps in [8usize, 16, 32] {
        let mut spec = AdcSpec::paper_40nm().expect("spec");
        spec.steps_per_cycle = steps;
        runner.bench(&format!("adc_sim_substeps_{steps}"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone(1e6, 0.1, 512))
        });
    }

    // The per-candidate cost of one optimizer evaluation at sim kind:
    // transient capture plus windowed spectrum (the SNDR path), at three
    // capture sizes so both the per-step and the FFT-bound regimes are
    // visible in the baseline.
    let spec = AdcSpec::paper_40nm().expect("spec");
    let mut scratch = SpectrumScratch::new();
    for n in [512usize, 2_048, 8_192] {
        runner.bench(&format!("adc_sim_transient_spectrum_{n}cyc"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            let capture = sim.run_tone(1e6, 0.79, n);
            black_box(capture.spectrum_with(Window::Hann, &mut scratch))
        });
    }

    // One step's noise block at 8 slices with thermal and phase noise
    // on: 32 standard normals.
    let mut rng = SimRng::new(1);
    let mut block = [0.0f64; 32];
    runner.bench("noise_standard_normal_32", || {
        rng.fill_standard_normals(&mut block);
        black_box(block[31])
    });

    // The integration floor: the same 40 nm transient with every noise
    // source off, so no normal is drawn per step.
    let mut quiet = AdcSpec::paper_40nm().expect("spec");
    quiet.thermal_noise = false;
    quiet.phase_noise_per_sqrt_hz = 0.0;
    quiet.comparator_noise_v = 0.0;
    quiet.clock_jitter_rms_s = 0.0;
    runner.bench("adc_sim_transient_noise_free_2048cyc", || {
        let mut sim = AdcSimulator::new(quiet.clone()).expect("simulator");
        black_box(sim.run_tone(1e6, 0.79, 2_048))
    });

    runner.finish();
}
