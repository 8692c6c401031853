//! The result of one executed job, serializable to deterministic JSON.
//!
//! A [`JobReport`] deliberately contains **no timing or provenance** —
//! only quantities that are a pure function of the job parameters. That
//! is what lets the engine promise bit-identical output regardless of
//! worker count, and lets the cache replay a report without anyone being
//! able to tell it was not freshly computed. Wall-clock accounting lives
//! in [`crate::metrics`] instead.

use crate::error::JobError;
use crate::job::{Job, JobKind};
use crate::json::Json;
use tdsigma_core::fingerprint::fnv1a64;
use tdsigma_core::AdcReport;
use tdsigma_tech::NodeId;

/// Basis for the wire attestation. Deliberately distinct from the cache
/// artifact basis and the journal envelope basis so an attestation can
/// never be confused with either.
const ATTEST_BASIS: u64 = 0x7a30_9d4f_1bc8_55e1;

/// Everything one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The content-address of the job that produced this report.
    pub key: String,
    /// The job parameters, embedded for self-describing artifacts.
    pub job: Job,
    /// The coherent input frequency actually simulated, Hz.
    pub fin_hz: f64,
    /// In-band SNDR, dB.
    pub sndr_db: f64,
    /// Effective number of bits.
    pub enob: f64,
    /// Total power, mW (full flow only).
    pub power_mw: Option<f64>,
    /// Digital fraction of total power (full flow only).
    pub digital_fraction: Option<f64>,
    /// Die area, mm² (full flow only).
    pub area_mm2: Option<f64>,
    /// Walden figure of merit, fJ/conversion-step (full flow only).
    pub fom_fj: Option<f64>,
    /// Worst timing slack, ps (full flow only).
    pub timing_slack_ps: Option<f64>,
}

impl JobReport {
    /// This report as a canonical JSON object (fixed field order).
    pub fn to_json(&self) -> Json {
        let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        Json::Obj(vec![
            ("key".into(), Json::Str(self.key.clone())),
            ("job".into(), self.job.to_json()),
            ("fin_hz".into(), Json::Num(self.fin_hz)),
            ("sndr_db".into(), Json::Num(self.sndr_db)),
            ("enob".into(), Json::Num(self.enob)),
            ("power_mw".into(), opt(self.power_mw)),
            ("digital_fraction".into(), opt(self.digital_fraction)),
            ("area_mm2".into(), opt(self.area_mm2)),
            ("fom_fj".into(), opt(self.fom_fj)),
            ("timing_slack_ps".into(), opt(self.timing_slack_ps)),
        ])
    }

    /// This report as one line of canonical JSON text.
    pub fn to_text(&self) -> String {
        self.to_json().to_text()
    }

    /// The wire attestation of this report: FNV-1a from
    /// [`ATTEST_BASIS`] over [`JobReport::to_text`], as 16 hex digits.
    /// Serve sends it as the `attest` sibling of every `run` answer and
    /// the client recomputes it over the report it parsed, so a frame
    /// whose payload changed in transit — or re-serializes differently —
    /// is refused.
    pub(crate) fn attestation(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_text().as_bytes(), ATTEST_BASIS))
    }

    /// Parses a report serialized by [`JobReport::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, JobError> {
        let v = Json::parse(text).map_err(JobError::Invalid)?;
        JobReport::from_json(&v)
    }

    /// Parses the JSON object form.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, JobError> {
        let missing =
            |k: &str| JobError::Invalid(format!("report field {k:?} missing or mistyped"));
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| missing(k));
        let opt = |k: &str| match v.get(k) {
            Some(Json::Null) | None => Ok(None),
            Some(x) => x.as_f64().map(Some).ok_or_else(|| missing(k)),
        };
        Ok(JobReport {
            key: v
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("key"))?
                .to_string(),
            job: Job::from_json(v.get("job").ok_or_else(|| missing("job"))?)?,
            fin_hz: num("fin_hz")?,
            sndr_db: num("sndr_db")?,
            enob: num("enob")?,
            power_mw: opt("power_mw")?,
            digital_fraction: opt("digital_fraction")?,
            area_mm2: opt("area_mm2")?,
            fom_fj: opt("fom_fj")?,
            timing_slack_ps: opt("timing_slack_ps")?,
        })
    }

    /// Reconstructs the Table-3-style [`AdcReport`] for full-flow results
    /// (`None` for simulation-only jobs).
    pub fn to_adc_report(&self) -> Option<AdcReport> {
        if self.job.kind != JobKind::FullFlow {
            return None;
        }
        let node = NodeId::from_gate_length(self.job.node_nm).ok()?;
        Some(AdcReport::from_parts(
            node,
            self.job.fs_hz,
            self.job.bw_hz,
            self.sndr_db,
            self.power_mw? / 1e3,
            self.digital_fraction?,
            self.area_mm2?,
        ))
    }

    /// Header for the human-readable sweep table.
    pub fn table_header() -> String {
        format!(
            "{:>6} {:>7} {:>9} {:>8} {:>6} {:>9} {:>6} {:>10} {:>9}",
            "node",
            "slices",
            "fs[MHz]",
            "BW[MHz]",
            "amp",
            "SNDR[dB]",
            "ENOB",
            "power[mW]",
            "area[mm2]"
        )
    }

    /// This report as one row of the sweep table.
    pub fn table_row(&self) -> String {
        let opt = |x: Option<f64>, p: usize, w: usize| match x {
            Some(v) => format!("{v:>w$.p$}"),
            None => format!("{:>w$}", "-"),
        };
        format!(
            "{:>6} {:>7} {:>9.0} {:>8.2} {:>6.2} {:>9.1} {:>6.2} {} {}",
            format!("{:.0} nm", self.job.node_nm),
            self.job.slices,
            self.job.fs_hz / 1e6,
            self.job.bw_hz / 1e6,
            self.job.amplitude_rel,
            self.sndr_db,
            self.enob,
            opt(self.power_mw, 3, 10),
            opt(self.area_mm2, 4, 9),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> JobReport {
        let job = Job::flow(40.0, 750e6, 5e6);
        JobReport {
            key: job.key(),
            fin_hz: 1.0e6,
            sndr_db: 69.53,
            enob: 11.26,
            power_mw: Some(1.87),
            digital_fraction: Some(0.71),
            area_mm2: Some(0.0017),
            fom_fj: Some(76.2),
            timing_slack_ps: Some(812.4),
            job,
        }
    }

    #[test]
    fn json_roundtrip_bit_identical() {
        let r = sample_report();
        let text = r.to_text();
        let back = JobReport::from_text(&text).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.to_text(), text, "serialization must be a fixed point");
    }

    #[test]
    fn sim_reports_omit_flow_columns() {
        let job = Job::sim(40.0, 750e6, 5e6);
        let r = JobReport {
            key: job.key(),
            fin_hz: 1.0e6,
            sndr_db: 68.0,
            enob: 11.0,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
            job,
        };
        let back = JobReport::from_text(&r.to_text()).unwrap();
        assert_eq!(back.power_mw, None);
        assert!(back.to_adc_report().is_none());
        assert!(r.table_row().contains('-'));
    }

    #[test]
    fn adc_report_reconstruction_matches_derivation() {
        let r = sample_report();
        let adc = r.to_adc_report().unwrap();
        assert_eq!(adc.sndr_db, r.sndr_db);
        assert!((adc.power_mw - r.power_mw.unwrap()).abs() < 1e-12);
        // ENOB is re-derived from SNDR by the same formula.
        assert!((adc.enob - (r.sndr_db - 1.76) / 6.02).abs() < 1e-9);
    }

    #[test]
    fn table_lines_align() {
        let header = JobReport::table_header();
        let row = sample_report().table_row();
        assert_eq!(header.len(), row.len(), "{header:?} vs {row:?}");
    }
}
