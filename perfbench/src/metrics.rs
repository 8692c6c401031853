//! Metric names and units, as declared in `BENCHMARK.json`.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("sndr_gap_db", "dB"),
];

/// Per-layer metrics, printed with `--trace 1`. Span-derived names reuse
/// the program's own span names (`flow.netgen`, `flow.transient`,
/// `journal.fsync`, …) so in-program traces compare one to one.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("flow.netgen.ms", "ms"),
    ("flow.power_plan.ms", "ms"),
    ("flow.apr.floorplan.ms", "ms"),
    ("flow.apr.place.ms", "ms"),
    ("flow.apr.place.share", "ratio"),
    ("flow.apr.place.cells", "count"),
    ("flow.apr.route.ms", "ms"),
    ("flow.apr.route.wirelength_um", "um"),
    ("flow.apr.extract.ms", "ms"),
    ("flow.apr.checks.ms", "ms"),
    ("flow.timing.ms", "ms"),
    ("sim.build.ms", "ms"),
    ("flow.transient.ms", "ms"),
    ("flow.transient.share", "ratio"),
    ("flow.transient.ns_per_step", "ns"),
    ("flow.transient.steps", "count"),
    ("flow.transient.noise_free_ns_per_step", "ns"),
    ("flow.transient.noise_share", "ratio"),
    ("noise.ns_per_normal", "ns"),
    ("flow.spectrum.ms", "ms"),
    ("dispatch.rtt_hit_us", "us"),
    ("dispatch.rtt_miss_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("journal.fsync_us", "us"),
    ("engine.overhead_us_per_job", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("engine.dedup_ratio", "ratio"),
    ("jobs.share", "ratio"),
    ("trace.overhead", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_jobs::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_metric_name_matches_the_allowed_pattern_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("flow apr"));
        assert!(!valid_name("flow/apr"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }
}
