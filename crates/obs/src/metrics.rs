//! Named counters, gauges, log-bucketed latency histograms and sampled
//! time series, exported as a schema-stable `metrics.json` per experiment.
//!
//! Metric names are dotted `component.metric` paths (DESIGN.md §10);
//! latency metrics end in `_ns`. Latencies land in [`LogHistogram`]s, which
//! report p50/p90/p99/p999 to within a log2 bucket's 2× width — plenty for
//! order-of-magnitude latency attribution.

use std::collections::BTreeMap;

use serde::{Number, Value};

use crate::LogHistogram;

/// Version stamped into every exported `metrics.json`.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// The run-wide registry of named metrics, fed by the pipeline as
/// component logs drain.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LogHistogram>,
    series: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl MetricRegistry {
    /// A new, empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Records one observation in the named latency histogram.
    pub fn latency(&mut self, name: &'static str, nanos: u64) {
        self.hists.entry(name).or_default().record(nanos);
    }

    /// Records `n` identical observations into the named latency histogram.
    pub fn latency_n(&mut self, name: &'static str, nanos: u64, n: u64) {
        self.hists.entry(name).or_default().record_n(nanos, n);
    }

    /// Appends a `(virtual-time nanos, value)` point to the named series —
    /// how `KernelStats` totals become time series on the device timeline.
    pub fn sample(&mut self, name: &'static str, at_nanos: u64, value: u64) {
        self.series.entry(name).or_default().push((at_nanos, value));
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// The named time series.
    pub fn series(&self, name: &str) -> Option<&[(u64, u64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Serializes the registry as the schema-stable `metrics.json`
    /// document (pretty-printed; keys in sorted order).
    pub fn to_json(&self) -> String {
        fn n(v: u64) -> Value {
            Value::Number(Number::PosInt(v))
        }
        let counters: Vec<(String, Value)> =
            self.counters.iter().map(|(&k, &v)| (k.to_string(), n(v))).collect();
        let gauges: Vec<(String, Value)> =
            self.gauges.iter().map(|(&k, &v)| (k.to_string(), n(v))).collect();
        let hists: Vec<(String, Value)> = self
            .hists
            .iter()
            .map(|(&k, h)| {
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("count".into(), n(h.count())),
                        ("sum_ns".into(), n(h.sum())),
                        ("max_ns".into(), n(h.max())),
                        ("p50_ns".into(), n(h.quantile(0.50))),
                        ("p90_ns".into(), n(h.quantile(0.90))),
                        ("p99_ns".into(), n(h.quantile(0.99))),
                        ("p999_ns".into(), n(h.quantile(0.999))),
                    ]),
                )
            })
            .collect();
        let series: Vec<(String, Value)> = self
            .series
            .iter()
            .map(|(&k, points)| {
                (
                    k.to_string(),
                    Value::Array(
                        points.iter().map(|&(t, v)| Value::Array(vec![n(t), n(v)])).collect(),
                    ),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("schema_version".into(), n(u64::from(METRICS_SCHEMA_VERSION))),
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(hists)),
            ("series".into(), Value::Object(series)),
        ]);
        serde_json::to_string_pretty(&doc).expect("metrics serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        let mut m = MetricRegistry::new();
        m.counter_add("a.b", 2);
        m.counter_add("a.b", 3);
        m.gauge_set("g", 7);
        m.latency("l_ns", 1500);
        m.sample("s", 10, 1);
        m.sample("s", 20, 2);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.gauge("g"), Some(7));
        assert_eq!(m.histogram("l_ns").unwrap().count(), 1);
        assert_eq!(m.series("s").unwrap(), &[(10, 1), (20, 2)]);
        let json = m.to_json();
        let doc = serde::json::parse(&json).expect("valid json");
        let serde::Value::Object(root) = doc else { panic!("object") };
        assert!(root.iter().any(|(k, _)| k == "schema_version"));
        assert!(root.iter().any(|(k, _)| k == "histograms"));
    }
}
