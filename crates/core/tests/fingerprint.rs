//! The engine fingerprint's own golden run is not user work: computing
//! the fingerprint must leave the stage spans a sweep reports untouched,
//! and a change that keeps the numerics must keep the fingerprint.
//!
//! One test in its own binary, so no concurrent test records spans
//! between the two registry reads.

use tdsigma_core::fingerprint::{engine_fingerprint, FINGERPRINT_ENV};

/// The spans the golden run would otherwise add to a stage table.
const STAGE_SPANS: [&str; 3] = ["flow.transient", "flow.spectrum", "flow.tone_metrics"];

/// This build's fingerprint. It digests the crate version, the artifact
/// schema version and the golden run's SNDR bits, so it moves with any of
/// them; a refactor of the simulator or the spectrum path must leave it
/// as it is.
const FINGERPRINT: &str = "033081a2e50c7112";

#[test]
fn fingerprint_is_unchanged_and_records_no_stage_spans() {
    let counts = || STAGE_SPANS.map(|name| tdsigma_obs::histogram(name).count());
    let before = counts();
    let fingerprint = engine_fingerprint();
    assert_eq!(
        counts(),
        before,
        "the golden run recorded {STAGE_SPANS:?} spans"
    );
    if std::env::var(FINGERPRINT_ENV).is_err() {
        assert_eq!(fingerprint, FINGERPRINT);
    }
}
