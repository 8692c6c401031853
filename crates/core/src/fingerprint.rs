//! The engine fingerprint: a version stamp that changes whenever the
//! numerics change.
//!
//! A [`crate::report::AdcReport`] (and downstream every jobs-engine
//! artifact) is a pure function of its inputs *and of the engine that
//! computed it*. The crate version alone cannot witness the second
//! dependency — an edit to the transient integrator or the spectrum
//! analysis changes every number without touching `Cargo.toml`. So the
//! fingerprint is computed empirically at startup: a tiny fixed **golden
//! micro-vector** runs through the real transient + spectrum path and
//! the resulting bits are FNV-hashed together with the crate version and
//! the artifact-schema version. Two binaries agree on the fingerprint
//! exactly when they would agree on every simulation result.
//!
//! Consumers (the jobs crate's cache, journal, serve protocol and fleet
//! supervisor) treat the fingerprint as an opaque token: equality means
//! "results are interchangeable", anything else means version skew.
//!
//! For testing and CI, `TDSIGMA_FINGERPRINT` overrides the computed
//! value for the whole process — the sanctioned way to *simulate* a
//! mismatched binary without building one.

use crate::error::CoreError;
use crate::sim::AdcSimulator;
use crate::spec::AdcSpec;
use std::sync::OnceLock;
use tdsigma_dsp::spectrum::SpectrumScratch;

/// Version of the on-disk artifact schema (cache artifacts, journal
/// records, sweep/optimize JSON). Bump on any layout change so stamped
/// artifacts from the old layout stop matching.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Environment variable that overrides the computed fingerprint for the
/// whole process (tests and CI simulate a mismatched binary with it).
pub const FINGERPRINT_ENV: &str = "TDSIGMA_FINGERPRINT";

static FINGERPRINT: OnceLock<String> = OnceLock::new();

/// The engine fingerprint of this process, computed once and cached.
///
/// The value is 16 lowercase hex digits (an FNV-1a 64-bit digest) unless
/// [`FINGERPRINT_ENV`] overrides it, in which case the override is
/// returned verbatim. Computing it costs one tiny golden-vector
/// simulation (~1k clock cycles of a 2-slice design) on first call.
pub fn engine_fingerprint() -> &'static str {
    FINGERPRINT.get_or_init(compute).as_str()
}

fn compute() -> String {
    if let Ok(forced) = std::env::var(FINGERPRINT_ENV) {
        if !forced.is_empty() {
            return forced;
        }
    }
    let mut hash = fnv1a64(env!("CARGO_PKG_VERSION").as_bytes(), FNV_BASIS);
    hash = fnv1a64(&ARTIFACT_SCHEMA_VERSION.to_le_bytes(), hash);
    match golden_digest() {
        Ok(digest) => hash = fnv1a64(&digest.to_le_bytes(), hash),
        // A broken golden vector is itself a distinct (and alarming)
        // version: hash the failure so such a binary never matches a
        // healthy one.
        Err(e) => hash = fnv1a64(e.to_string().as_bytes(), hash),
    }
    format!("{hash:016x}")
}

/// Runs the golden micro-vector — a fixed tiny 40 nm design point through
/// the transient simulator and the spectrum analysis — and digests the
/// resulting float bits. Any numeric change anywhere on that path
/// (integration, noise draws, windowing, FFT, SNDR integration) lands in
/// the digest.
fn golden_digest() -> Result<u64, CoreError> {
    digest_of(golden_spec()?)
}

/// The golden micro-vector's design point: the paper's 40 nm spec at 2
/// slices and 4 steps per cycle, every noise source on.
fn golden_spec() -> Result<AdcSpec, CoreError> {
    let mut spec = AdcSpec::paper_40nm()?;
    spec.n_slices = 2;
    spec.steps_per_cycle = 4;
    Ok(spec)
}

/// Digests the SNDR bits of a golden-length tone capture of `spec`.
fn digest_of(spec: AdcSpec) -> Result<u64, CoreError> {
    let spec = spec.validated()?;
    let mut sim = AdcSimulator::new(spec.clone())?;
    let amplitude = 0.5 * spec.full_scale_v();
    // Span-free: the fingerprint's own run is not user work, so it must
    // not show up in stage tables.
    let capture = sim.run_tone_untraced(2.5e6, amplitude, GOLDEN_SAMPLES);
    let mut scratch = SpectrumScratch::new();
    let analysis = capture.analyze_untraced(spec.bw_hz, &mut scratch);
    Ok(fnv1a64(
        &analysis.sndr_db.to_bits().to_le_bytes(),
        FNV_BASIS,
    ))
}

/// Clock cycles captured by the golden micro-vector: long enough that
/// the spectrum analysis has in-band bins, short enough that startup
/// stays sub-millisecond territory.
const GOLDEN_SAMPLES: usize = 1024;

/// The standard 64-bit FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `data`, starting from `basis`.
///
/// The workspace's one non-cryptographic digest: the fingerprint, job
/// keys, cache-artifact and journal checksums, wire attestation and the
/// golden fixtures all use it, each from its own basis so no digest can
/// stand in for another. Chaining is explicit: feeding the result of one
/// call as the `basis` of the next digests the concatenation.
pub fn fnv1a64(data: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        let a = engine_fingerprint();
        let b = engine_fingerprint();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn golden_digest_is_deterministic() {
        let a = golden_digest().expect("golden vector must simulate");
        let b = golden_digest().expect("golden vector must simulate");
        assert_eq!(a, b, "same binary, same golden bits");
    }

    #[test]
    fn every_noise_source_moves_the_golden_digest() {
        // The fingerprint must move when the sampler changes. It can only
        // do so if every noise draw lands in the digested SNDR bits, so
        // switching any source off must change the digest.
        let on = golden_digest().expect("golden vector must simulate");
        // Bits: thermal, phase, comparator, jitter; 0b1111 = all off.
        for off in [0b0001u8, 0b0010, 0b0100, 0b1000, 0b1111] {
            let mut spec = golden_spec().expect("golden spec");
            if off & 0b0001 != 0 {
                spec.thermal_noise = false;
            }
            if off & 0b0010 != 0 {
                spec.phase_noise_per_sqrt_hz = 0.0;
            }
            if off & 0b0100 != 0 {
                spec.comparator_noise_v = 0.0;
            }
            if off & 0b1000 != 0 {
                spec.clock_jitter_rms_s = 0.0;
            }
            let digest = digest_of(spec).expect("quiet vector must simulate");
            assert_ne!(
                digest, on,
                "noise sources {off:04b} off left the golden digest unchanged"
            );
        }
    }

    #[test]
    fn digest_feeds_the_fingerprint() {
        // Unless the env override is active, the fingerprint must be the
        // 16-hex-digit digest form.
        if std::env::var(FINGERPRINT_ENV).is_err() {
            let fp = engine_fingerprint();
            assert_eq!(fp.len(), 16, "fnv digest renders as 16 hex chars: {fp}");
            assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }
}
