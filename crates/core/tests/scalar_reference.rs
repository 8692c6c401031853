//! Scalar-reference equivalence: the SoA hot loop vs the original
//! array-of-structs engine, bit for bit.
//!
//! `RefSim` below is a frozen copy of the pre-SoA engine (pointer-chasing
//! `Slice` structs, one `advance` call per component per step) with only
//! the integer-step clock fix applied. It exercises the *component*
//! implementations (`SummingNode`, `RingVco`, `ClockedComparator`)
//! exactly the way `AdcSimulator::run` did before the restructure, and
//! consumes the RNG stream through the same documented draw order. If
//! the SoA engine ever reorders an operation, hoists a computation past
//! a rounding step, or drops/duplicates a draw, these comparisons fail
//! on the first divergent output word.
//!
//! Unlike the checksum fixtures in `golden.rs` (which freeze specific
//! values), this suite proves the equivalence *construction* — including
//! the post-layout path, where extracted parasitics land as extra node
//! capacitance.

use std::f64::consts::PI;
use tdsigma_circuit::comparator::ComparatorParams;
use tdsigma_circuit::mismatch::MismatchModel;
use tdsigma_circuit::noise::SimRng;
use tdsigma_circuit::transient::{Clock, EdgeKind};
use tdsigma_circuit::vco::VcoParams;
use tdsigma_circuit::ClockedComparator;
use tdsigma_core::netgen;
use tdsigma_core::sim::{AdcSimulator, ComparatorFlavor};
use tdsigma_core::spec::AdcSpec;
use tdsigma_layout::{synthesize, AprOptions};
use tdsigma_netlist::PowerPlan;

/// Index of a branch added to a [`SummingNode`].
#[derive(Clone, Copy)]
struct BranchId(usize);

/// One resistive branch: a resistor from the node to a driven voltage.
struct Branch {
    resistance_ohm: f64,
    drive_v: f64,
}

/// A V_CTRL node: resistors summing currents into a capacitance, solved
/// exactly (first-order exponential step) with optional `kT/C` noise.
/// The SoA engine hoists these expressions; they are kept term for term
/// (sum order, division vs reciprocal) as the bit-exact reference.
struct SummingNode {
    branches: Vec<Branch>,
    cap_f: f64,
    v: f64,
    thermal_noise: bool,
}

impl SummingNode {
    fn new(cap_f: f64, initial_v: f64) -> Self {
        SummingNode {
            branches: Vec::new(),
            cap_f,
            v: initial_v,
            thermal_noise: false,
        }
    }

    fn with_thermal_noise(mut self) -> Self {
        self.thermal_noise = true;
        self
    }

    fn add_branch(&mut self, resistance_ohm: f64, drive_v: f64) -> BranchId {
        self.branches.push(Branch {
            resistance_ohm,
            drive_v,
        });
        BranchId(self.branches.len() - 1)
    }

    fn set_drive(&mut self, id: BranchId, drive_v: f64) {
        self.branches[id.0].drive_v = drive_v;
    }

    fn advance(&mut self, dt_s: f64, rng: &mut SimRng) {
        let gsum: f64 = self.branches.iter().map(|b| 1.0 / b.resistance_ohm).sum();
        let isum: f64 = self
            .branches
            .iter()
            .map(|b| b.drive_v / b.resistance_ohm)
            .sum();
        let target = isum / gsum;
        let tau = if self.cap_f == 0.0 {
            0.0
        } else {
            (1.0 / gsum) * self.cap_f
        };
        if tau == 0.0 {
            self.v = target;
            return;
        }
        let a = (-dt_s / tau).exp();
        self.v = target + (self.v - target) * a;
        if self.thermal_noise {
            // Discretised Ornstein-Uhlenbeck: stationary variance kT/C.
            let kt_over_c = tdsigma_tech::units::BOLTZMANN
                * tdsigma_tech::units::NOMINAL_TEMPERATURE_K
                / self.cap_f;
            let sigma = (kt_over_c * (1.0 - a * a)).sqrt();
            self.v += rng.gaussian(sigma);
        }
    }

    fn voltage(&self) -> f64 {
        self.v
    }
}

/// A ring VCO as a phase-domain integrator:
/// `dφ/dt = 2π · (f0·(1 + δ) + K_vco·(V_ctrl − V_cm))` plus white FM.
struct RingVco {
    params: VcoParams,
    /// Per-instance relative centre-frequency error (mismatch draw).
    delta: f64,
    /// Absolute phase in radians (unwrapped).
    phase: f64,
}

impl RingVco {
    fn with_mismatch(
        params: VcoParams,
        model: &MismatchModel,
        rng: &mut SimRng,
        initial_phase: f64,
    ) -> Self {
        RingVco {
            params: params.validated(),
            delta: model.draw(rng),
            phase: initial_phase,
        }
    }

    fn phase(&self) -> f64 {
        self.phase
    }

    fn frequency_hz(&self, vctrl_v: f64) -> f64 {
        (self.params.f0_hz * (1.0 + self.delta)
            + self.params.kvco_hz_per_v * (vctrl_v - self.params.vcm_v))
            .max(0.0) // an inverter ring cannot oscillate backwards
    }

    fn advance(&mut self, dt_s: f64, vctrl_v: f64, rng: &mut SimRng) {
        let mut f = self.frequency_hz(vctrl_v);
        if self.params.phase_noise_per_sqrt_hz > 0.0 {
            let sigma_f = self.params.phase_noise_per_sqrt_hz * self.params.f0_hz / dt_s.sqrt();
            f += rng.gaussian(sigma_f);
        }
        self.phase += 2.0 * PI * f * dt_s;
    }
}

struct RefSlice {
    node_p: SummingNode,
    node_n: SummingNode,
    in_p: BranchId,
    in_n: BranchId,
    dac_p: BranchId,
    dac_n: BranchId,
    dac_drive_p: Vec<f64>,
    dac_drive_n: Vec<f64>,
    vco_p: RingVco,
    vco_n: RingVco,
    cmp_p: Vec<ClockedComparator>,
    cmp_n: Vec<ClockedComparator>,
    code: u8,
    retimed_code: u8,
    dac_code: u8,
}

struct RefSim {
    spec: AdcSpec,
    slices: Vec<RefSlice>,
    clock: Clock,
    rng: SimRng,
    time_s: f64,
    buf_swing_v: f64,
    buf_cm_v: f64,
}

impl RefSim {
    fn build(spec: AdcSpec, extra_node_cap_f: f64) -> RefSim {
        let spec = spec.validated().unwrap();
        let mut rng = SimRng::new(spec.seed);
        let vdd = spec.tech.vdd().value();
        let node_cap = spec.node_cap_f + extra_node_cap_f / spec.n_slices as f64;
        let vco_params = VcoParams {
            f0_hz: spec.vco_f0_hz,
            kvco_hz_per_v: spec.kvco_hz_per_v,
            vcm_v: spec.vctrl_cm_v,
            n_stages: spec.vco_stages,
            phase_noise_per_sqrt_hz: spec.phase_noise_per_sqrt_hz,
        };
        let vco_mm = MismatchModel::new(spec.vco_mismatch_sigma);
        let cm_window = ComparatorFlavor::Nor3.cm_window(vdd);
        let n = spec.n_slices;
        let mut slices = Vec::with_capacity(n);
        for i in 0..n {
            let common = 2.0 * PI * i as f64 / n as f64;
            let ladder = PI * (i as f64 + 0.5) / n as f64;
            let mut node_p = SummingNode::new(node_cap, spec.vctrl_cm_v);
            let mut node_n = SummingNode::new(node_cap, spec.vctrl_cm_v);
            if spec.thermal_noise && node_cap > 0.0 {
                node_p = node_p.with_thermal_noise();
                node_n = node_n.with_thermal_noise();
            }
            let in_p = node_p.add_branch(spec.rin_ohm, spec.input_cm_v);
            let in_n = node_n.add_branch(spec.rin_ohm, spec.input_cm_v);
            let vco_p = RingVco::with_mismatch(vco_params, &vco_mm, &mut rng, common + ladder);
            let vco_n = RingVco::with_mismatch(vco_params, &vco_mm, &mut rng, common);
            let mk_cmp = |rng: &mut SimRng| {
                ClockedComparator::new(ComparatorParams {
                    offset_v: rng.gaussian(spec.comparator_offset_sigma_v),
                    noise_rms_v: spec.comparator_noise_v,
                    metastability_window_v: 20e-6,
                    cm_window,
                })
            };
            let cmp_p: Vec<ClockedComparator> =
                (0..spec.vco_stages).map(|_| mk_cmp(&mut rng)).collect();
            let cmp_n: Vec<ClockedComparator> =
                (0..spec.vco_stages).map(|_| mk_cmp(&mut rng)).collect();
            let dac_mm = MismatchModel::new(spec.dac_mismatch_sigma);
            let mk_dac = |rng: &mut SimRng, pull_up_when_low: bool| -> (f64, Vec<f64>) {
                let g: Vec<f64> = dac_mm
                    .draw_many(rng, spec.vco_stages)
                    .into_iter()
                    .map(|d| 1.0 / (spec.rdac_ohm * (1.0 + d)))
                    .collect();
                let g_total: f64 = g.iter().sum();
                let r_thev = 1.0 / g_total;
                let drives = (0..=spec.vco_stages)
                    .map(|code| {
                        let hi: f64 = if pull_up_when_low {
                            g.iter().skip(code).sum()
                        } else {
                            g.iter().take(code).sum()
                        };
                        spec.vrefp_v * hi / g_total
                    })
                    .collect();
                (r_thev, drives)
            };
            let (r_thev_p, dac_drive_p) = mk_dac(&mut rng, true);
            let (r_thev_n, dac_drive_n) = mk_dac(&mut rng, false);
            let mid = spec.vco_stages / 2;
            let dac_p = node_p.add_branch(r_thev_p, dac_drive_p[mid]);
            let dac_n = node_n.add_branch(r_thev_n, dac_drive_n[mid]);
            slices.push(RefSlice {
                node_p,
                node_n,
                in_p,
                in_n,
                dac_p,
                dac_n,
                dac_drive_p,
                dac_drive_n,
                vco_p,
                vco_n,
                cmp_p,
                cmp_n,
                code: 0,
                retimed_code: 0,
                dac_code: 0,
            });
        }
        let clock = Clock::new(spec.fs_hz).with_steps_per_period(spec.steps_per_cycle as u64);
        RefSim {
            buf_swing_v: 0.5 * vdd,
            buf_cm_v: 0.23 * vdd,
            spec,
            slices,
            clock,
            rng,
            time_s: 0.0,
        }
    }

    fn run<F: Fn(f64) -> f64>(&mut self, input: F, n_samples: usize) -> Vec<f64> {
        let dt = 1.0 / self.spec.fs_hz / self.spec.steps_per_cycle as f64;
        let mut output = Vec::with_capacity(n_samples);
        let start_time = self.time_s;
        let mut step: u64 = 0;
        while output.len() < n_samples {
            step += 1;
            self.time_s = start_time + step as f64 * dt;
            let vin = input(self.time_s);
            let drive_p = self.spec.input_cm_v + vin / 2.0;
            let drive_n = self.spec.input_cm_v - vin / 2.0;
            for slice in &mut self.slices {
                slice.node_p.set_drive(slice.in_p, drive_p);
                slice.node_n.set_drive(slice.in_n, drive_n);
                slice.node_p.advance(dt, &mut self.rng);
                slice.node_n.advance(dt, &mut self.rng);
                let vp = slice.node_p.voltage();
                let vn = slice.node_n.voltage();
                slice.vco_p.advance(dt, vp, &mut self.rng);
                slice.vco_n.advance(dt, vn, &mut self.rng);
            }
            match self.clock.advance(dt) {
                EdgeKind::Rising => {
                    let mut sum = 0.0;
                    let stages = self.spec.vco_stages;
                    let half = self.buf_swing_v / 2.0;
                    let jitter_s = if self.spec.clock_jitter_rms_s > 0.0 {
                        self.rng.gaussian(self.spec.clock_jitter_rms_s)
                    } else {
                        0.0
                    };
                    for slice in self.slices.iter_mut() {
                        let mut code = 0u8;
                        let jp =
                            2.0 * PI * slice.vco_p.frequency_hz(slice.node_p.voltage()) * jitter_s;
                        let jn =
                            2.0 * PI * slice.vco_n.frequency_hz(slice.node_n.voltage()) * jitter_s;
                        for tap in 0..stages {
                            let offset = PI * tap as f64 / stages as f64;
                            let sp =
                                ((slice.vco_p.phase() + jp + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let sn =
                                ((slice.vco_n.phase() + jn + offset).sin() * 3.0).clamp(-1.0, 1.0);
                            let q1 = slice.cmp_p[tap].sample(
                                self.buf_cm_v + half * sp,
                                self.buf_cm_v - half * sp,
                                &mut self.rng,
                            );
                            let q2 = slice.cmp_n[tap].sample(
                                self.buf_cm_v + half * sn,
                                self.buf_cm_v - half * sn,
                                &mut self.rng,
                            );
                            if q1 ^ q2 {
                                code += 1;
                            }
                        }
                        slice.code = code;
                        sum += code as f64;
                    }
                    output.push(sum);
                }
                EdgeKind::Falling => {
                    for slice in &mut self.slices {
                        slice.retimed_code = slice.code;
                        if slice.retimed_code != slice.dac_code {
                            slice.dac_code = slice.retimed_code;
                            let code = slice.dac_code as usize;
                            slice.node_p.set_drive(slice.dac_p, slice.dac_drive_p[code]);
                            slice.node_n.set_drive(slice.dac_n, slice.dac_drive_n[code]);
                        }
                    }
                }
                EdgeKind::None => {}
            }
        }
        output
    }
}

/// Coherent-bin input near BW/5, the same snap as the jobs layer.
fn tone(spec: &AdcSpec, samples: usize) -> (f64, f64) {
    let bin = (spec.bw_hz / 5.0 * samples as f64 / spec.fs_hz)
        .round()
        .max(1.0);
    let fin = bin * spec.fs_hz / samples as f64;
    (fin, 0.79 * spec.full_scale_v())
}

fn assert_equivalent(spec: AdcSpec, extra_cap_f: f64, soa: &mut AdcSimulator, samples: usize) {
    let (fin, amp) = tone(&spec, samples);
    let cap = soa.run_tone(fin, amp, samples);
    let mut reference = RefSim::build(spec, extra_cap_f);
    let w = 2.0 * PI * fin;
    let ref_out = reference.run(|t| amp * (w * t).sin(), samples);
    assert_eq!(ref_out.len(), samples);
    for (k, (r, s)) in ref_out.iter().zip(&cap.output).enumerate() {
        assert_eq!(
            r.to_bits(),
            s.to_bits(),
            "engines diverge at sample {k}: ref={r} soa={s}"
        );
    }
}

#[test]
fn soa_engine_matches_scalar_reference_40nm() {
    let mut spec = AdcSpec::paper_40nm().unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 7;
    let mut soa = AdcSimulator::new(spec.clone()).unwrap();
    assert_equivalent(spec, 0.0, &mut soa, 2048);
}

#[test]
fn soa_engine_matches_scalar_reference_180nm_4_slices() {
    let mut spec = AdcSpec::paper_180nm().unwrap().with_slices(4).unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 42;
    let mut soa = AdcSimulator::new(spec.clone()).unwrap();
    assert_equivalent(spec, 0.0, &mut soa, 2048);
}

#[test]
fn soa_engine_matches_scalar_reference_with_parasitics() {
    let mut spec = AdcSpec::paper_40nm().unwrap();
    spec.steps_per_cycle = 8;
    spec.seed = 2017;
    // Real extracted parasitics via the layout pipeline, split across
    // the P/N control nodes exactly like `AdcSimulator::with_parasitics`.
    let design = netgen::generate(&spec).unwrap();
    let flat = design.flatten();
    let plan = PowerPlan::infer(&flat).unwrap();
    let layout = synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).unwrap();
    let vctrl = layout
        .parasitics
        .total_capacitance_where(|n| n.contains("VCTRL"));
    let mut soa = AdcSimulator::with_parasitics(spec.clone(), &layout.parasitics).unwrap();
    assert_equivalent(spec, vctrl / 2.0, &mut soa, 1024);
}

// Physics checks on the reference components themselves: the SoA engine
// is proven equal to `RefSim`, so these pin what both of them compute.

#[test]
fn divider_settles_to_weighted_mean() {
    let mut rng = SimRng::new(0);
    let mut node = SummingNode::new(0.0, 0.0);
    node.add_branch(1_000.0, 1.0);
    node.add_branch(1_000.0, 0.0);
    node.advance(1e-9, &mut rng);
    assert!((node.voltage() - 0.5).abs() < 1e-12);
}

#[test]
fn asymmetric_divider() {
    let mut rng = SimRng::new(0);
    let mut node = SummingNode::new(0.0, 0.0);
    node.add_branch(1_000.0, 1.2); // strong pull to 1.2 V
    node.add_branch(11_000.0, 0.0); // weak pull to ground
    node.advance(1e-9, &mut rng);
    // v = 1.2·(1/1k) / (1/1k + 1/11k) = 1.2·11/12 = 1.1
    assert!((node.voltage() - 1.1).abs() < 1e-9);
}

#[test]
fn rc_settling_follows_exponential() {
    let mut rng = SimRng::new(0);
    let mut node = SummingNode::new(1e-12, 0.0); // 1 pF
    node.add_branch(1_000.0, 1.0); // tau = 1 ns
    node.advance(1e-9, &mut rng); // one tau
    let expected = 1.0 - (-1.0f64).exp();
    assert!((node.voltage() - expected).abs() < 1e-9);
}

#[test]
fn exponential_step_is_exact_regardless_of_dt() {
    // Settling over 5 ns must give the same result in 1 or 100 steps.
    let run = |steps: usize| {
        let mut rng = SimRng::new(0);
        let mut node = SummingNode::new(1e-12, 0.2);
        node.add_branch(2_000.0, 0.8);
        let dt = 5e-9 / steps as f64;
        for _ in 0..steps {
            node.advance(dt, &mut rng);
        }
        node.voltage()
    };
    assert!((run(1) - run(100)).abs() < 1e-12);
}

#[test]
fn drive_update_moves_target() {
    let mut rng = SimRng::new(0);
    let mut node = SummingNode::new(0.0, 0.0);
    let _in = node.add_branch(11_000.0, 0.5);
    let dac = node.add_branch(1_000.0, 1.1);
    node.advance(1e-9, &mut rng);
    let v_high = node.voltage();
    node.set_drive(dac, 0.0);
    node.advance(1e-9, &mut rng);
    let v_low = node.voltage();
    assert!(v_high > v_low + 0.5, "DAC flip must move the node");
}

#[test]
fn thermal_noise_variance_is_kt_over_c() {
    let cap = 1e-15; // 1 fF → kT/C ≈ (64 µV)²
    let mut rng = SimRng::new(5);
    let mut node = SummingNode::new(cap, 0.5).with_thermal_noise();
    node.add_branch(10_000.0, 0.5);
    let tau = 10_000.0 * cap;
    // Sample well past the correlation time.
    let mut values = Vec::new();
    for _ in 0..20_000 {
        node.advance(3.0 * tau, &mut rng);
        values.push(node.voltage());
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / values.len() as f64;
    let expected = tdsigma_tech::units::BOLTZMANN * 300.0 / cap;
    assert!(
        (var / expected - 1.0).abs() < 0.1,
        "kT/C variance: got {var}, expected {expected}"
    );
}

fn vco_params() -> VcoParams {
    VcoParams {
        f0_hz: 100e6,
        kvco_hz_per_v: 50e6,
        vcm_v: 0.5,
        n_stages: 4,
        phase_noise_per_sqrt_hz: 0.0,
    }
}

/// A VCO with a chosen mismatch `delta` instead of a drawn one.
fn vco(params: VcoParams, delta: f64) -> RingVco {
    RingVco {
        params: params.validated(),
        delta,
        phase: 0.0,
    }
}

#[test]
fn phase_integrates_frequency() {
    let mut rng = SimRng::new(0);
    let mut vco = vco(vco_params(), 0.0);
    let dt = 1e-10;
    for _ in 0..10_000 {
        vco.advance(dt, 0.5, &mut rng); // at vcm → f0 exactly
    }
    let expected = 2.0 * PI * 100e6 * dt * 10_000.0;
    assert!((vco.phase() - expected).abs() / expected < 1e-12);
}

#[test]
fn phase_tracks_control_voltage() {
    let mut rng = SimRng::new(1);
    let mut vco = vco(
        VcoParams {
            f0_hz: 150e6,
            kvco_hz_per_v: 500e6,
            vcm_v: 0.55,
            ..vco_params()
        },
        0.0,
    );
    // Integrate 100 ns at 50 mV above the nominal control voltage:
    for _ in 0..1000 {
        vco.advance(100e-12, 0.6, &mut rng);
    }
    // φ = 2π · (150 MHz + 0.05 V · 500 MHz/V) · 100 ns = 2π · 17.5 rad.
    assert!((vco.phase() / (2.0 * PI) - 17.5).abs() < 1e-9);
}

#[test]
fn kvco_tunes_frequency() {
    let vco = vco(vco_params(), 0.0);
    assert_eq!(vco.frequency_hz(0.5), 100e6);
    assert_eq!(vco.frequency_hz(0.7), 110e6);
    assert_eq!(vco.frequency_hz(0.3), 90e6);
}

#[test]
fn frequency_clamped_at_zero() {
    let vco = vco(vco_params(), 0.0);
    assert_eq!(vco.frequency_hz(-10.0), 0.0);
}

#[test]
fn mismatch_shifts_f0() {
    let vco = vco(vco_params(), 0.02);
    assert!((vco.frequency_hz(0.5) - 102e6).abs() < 1.0);
}

#[test]
fn phase_noise_diffuses_phase() {
    let mut p = vco_params();
    p.phase_noise_per_sqrt_hz = 1e-6;
    let dt = 1e-10;
    let steps = 20_000;
    let mut final_phases = Vec::new();
    for seed in 0..20 {
        let mut rng = SimRng::new(seed);
        let mut vco = vco(p, 0.0);
        for _ in 0..steps {
            vco.advance(dt, 0.5, &mut rng);
        }
        final_phases.push(vco.phase());
    }
    let mean = final_phases.iter().sum::<f64>() / final_phases.len() as f64;
    let var = final_phases
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / final_phases.len() as f64;
    assert!(var > 0.0, "phase noise must randomise the walk");
    // Deterministic part still dominates.
    let ideal = 2.0 * PI * 100e6 * dt * steps as f64;
    assert!((mean - ideal).abs() / ideal < 0.01);
}

#[test]
fn with_mismatch_is_reproducible() {
    let model = MismatchModel::new(0.02);
    let mut rng1 = SimRng::new(11);
    let mut rng2 = SimRng::new(11);
    let a = RingVco::with_mismatch(vco_params(), &model, &mut rng1, 0.0);
    let b = RingVco::with_mismatch(vco_params(), &model, &mut rng2, 0.0);
    assert_eq!(a.delta, b.delta);
    assert!(a.delta != 0.0);
}
