//! Ring-VCO parameters for the phase-domain integrator model.
//!
//! The central trick of the TD architecture: a ring oscillator's phase is
//! the time integral of its control voltage,
//!
//! ```text
//! dφ/dt = 2π · ( f0·(1 + δ) + K_vco·(V_ctrl − V_cm) )
//! ```
//!
//! making the VCO a *lossless, infinite-DC-gain integrator* built entirely
//! from inverters (the paper's Fig. 5: 4 cross-coupled inverter stages).
//! White-FM phase noise is injected as a Wiener increment per step, and
//! per-instance mismatch `δ` offsets the centre frequency. The
//! simulator in `tdsigma-core` (`sim::AdcSimulator`) integrates this
//! equation for every slice; this module owns the validated parameters.

/// Builder-style parameters of a ring VCO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcoParams {
    /// Centre (free-running) frequency at the nominal control voltage, Hz.
    pub f0_hz: f64,
    /// Tuning gain, Hz per volt.
    pub kvco_hz_per_v: f64,
    /// Nominal control voltage at which the VCO runs at `f0_hz`, volts.
    pub vcm_v: f64,
    /// Number of pseudo-differential delay stages (the paper uses 4).
    pub n_stages: usize,
    /// White-FM phase noise: 1-σ frequency deviation normalised to `f0`,
    /// per √Hz of integration bandwidth. Zero disables phase noise.
    pub phase_noise_per_sqrt_hz: f64,
}

impl VcoParams {
    /// Validates and freezes the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `f0_hz` or `n_stages` is not positive, or `kvco` is
    /// negative.
    pub fn validated(self) -> Self {
        assert!(self.f0_hz > 0.0, "f0 must be positive");
        assert!(self.kvco_hz_per_v >= 0.0, "Kvco must be non-negative");
        assert!(self.n_stages > 0, "ring needs at least one stage");
        assert!(
            self.phase_noise_per_sqrt_hz >= 0.0,
            "phase noise must be non-negative"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> VcoParams {
        VcoParams {
            f0_hz: 100e6,
            kvco_hz_per_v: 50e6,
            vcm_v: 0.5,
            n_stages: 4,
            phase_noise_per_sqrt_hz: 0.0,
        }
    }

    #[test]
    #[should_panic(expected = "f0 must be positive")]
    fn zero_f0_panics() {
        let mut p = params();
        p.f0_hz = 0.0;
        let _ = p.validated();
    }
}
