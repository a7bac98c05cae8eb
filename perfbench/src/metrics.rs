//! The metric registry and the result line.
//!
//! Every workload reports every metric of the set it was asked for:
//! the end-to-end set when untraced, the per-layer set when traced.
//! A per-layer metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;

use crate::trace::SpanRec;

/// End-to-end metrics: (name, unit). What `main` and `second` time on
/// each workload is listed in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_p50_ms", "ms"),
    ("second_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The four request kinds of the aced-edit round, as metric infixes.
const SERVICE_OPS: [&str; 4] = ["edit", "extract", "lint", "query"];

/// Per-layer stages measured for each service op.
const SERVICE_STAGES: [(&str, &str); 5] = [
    ("server_ms", "ms"),
    ("client_encode_ms", "ms"),
    ("client_decode_ms", "ms"),
    ("wire_ms", "ms"),
    ("response_bytes", "bytes"),
];

/// Per-layer metrics before the per-op service stages: (name, unit).
const PER_LAYER_HEAD: &[(&str, &str)] = &[
    ("cif.parse_s", "s"),
    ("layout.build_s", "s"),
    ("layout.flatten_s", "s"),
    ("core.front_end_s", "s"),
    ("core.insert_s", "s"),
    ("core.devices_s", "s"),
    ("core.output_s", "s"),
    ("core.scanline_stops", "count"),
    ("core.fragments", "count"),
    ("core.net_unions", "count"),
    ("core.max_active", "count"),
    ("core.band_max_s", "s"),
    ("core.band_sum_s", "s"),
    ("core.stitch_s", "s"),
    ("core.steal_wait_s", "s"),
    ("core.bands_stolen", "count"),
    ("core.band_overhead_ratio", "ratio"),
    ("wirelist.write_s", "s"),
    ("wirelist.bytes", "bytes"),
    ("lint.run_s", "s"),
    ("lint.diagnostics", "count"),
    ("drc.check_s", "s"),
    ("drc.violations", "count"),
    ("incremental.bands_reswept", "count"),
    ("incremental.reuse_ratio", "ratio"),
];

/// Per-layer metrics after the per-op service stages.
const PER_LAYER_TAIL: &[(&str, &str)] = &[
    ("service.coalesced_edits", "count"),
    ("service.queue_full_retries", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage_min", "ratio"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |list: &'static [(&'static str, &'static str)]| {
        list.iter().map(|(n, u)| (n.to_string(), *u))
    };
    let stages = SERVICE_OPS.iter().flat_map(|op| {
        SERVICE_STAGES
            .iter()
            .map(move |(stage, unit)| (format!("service.{op}.{stage}"), *unit))
    });
    fixed(PER_LAYER_HEAD)
        .chain(stages)
        .chain(fixed(PER_LAYER_TAIL))
        .collect()
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Sets `name` to the median of `xs`, when there are samples.
    pub fn set_median(&mut self, name: &str, xs: &[f64]) {
        if let Some(m) = crate::stats::median(xs) {
            self.set(name, m);
        }
    }

    /// Sets `<name>_s` to the median duration of the spans called
    /// `name`, for each of `names`.
    pub fn set_span_medians(&mut self, spans: &[SpanRec], names: &[&str]) {
        for name in names {
            let durations: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .collect();
            self.set_median(&format!("{name}_s"), &durations);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line. `names` fixes the metrics and their order; values
/// print with all the digits they were measured with. Metrics missing
/// from `values` (or not finite) are listed in the returned error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &str)],
    values: &Metrics,
    default_zero: bool,
) -> Result<String, Vec<String>> {
    let mut missing = Vec::new();
    let mut parts = Vec::new();
    for (name, unit) in names {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => v,
            None if default_zero => 0.0,
            _ => {
                missing.push(name.clone());
                continue;
            }
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root")
    }

    /// The names listed under `key` in BENCHMARK.json, in order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let section = json.split(&format!("\"{key}\"")).nth(1).unwrap();
        let section = &section[..section.find(']').unwrap()];
        section
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let rest = entry.split(&format!("\"{f}\"")).nth(1).unwrap();
                    rest.split('"').nth(1).unwrap().to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layers);
    }

    #[test]
    fn result_line_lists_every_metric_or_names_the_missing() {
        let names = vec![("a_s".to_string(), "s"), ("b".to_string(), "count")];
        let mut m = Metrics::default();
        m.set("a_s", 0.125);
        assert_eq!(
            result_line(true, 3, 0, &names, &m, false),
            Err(vec!["b".to_string()])
        );
        let line = result_line(true, 3, 0, &names, &m, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
