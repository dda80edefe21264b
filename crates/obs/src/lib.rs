//! `fleet-obs` — virtual-time observability for the Fleet reproduction,
//! and the instrumentation log shared with the `fleet-audit` flight
//! recorder.
//!
//! Instrumented components (the kernel memory manager, per-process heaps)
//! own a [`Probes`] pair of [`Log`]s, disabled by default: one of audit
//! events, one of [`ObsRecord`]s. When a device finds an installed
//! [`ObsPipeline`] (via `fleet::probe::install`) it enables the obs logs
//! and drains them at its own barriers. The pipeline turns the records
//! into:
//!
//! - hierarchical **spans** on virtual-time tracks ([`Tracer`]), exported
//!   as Chrome trace-event JSON that loads in Perfetto;
//! - a **metric registry** ([`MetricRegistry`]) of counters, gauges,
//!   log-bucketed latency histograms ([`LogHistogram`]) and sampled time
//!   series, exported as a schema-stable `metrics.json`.
//!
//! Everything is stamped in *simulated* nanoseconds — the profiler sees
//! the modelled device's time, not the host's.

mod log;
mod loghist;
mod metrics;
pub mod slo;
mod tracer;

pub use log::{Log, ObsRecord, Probes, SpanArgs, SpanRec};
pub use loghist::LogHistogram;
pub use metrics::{MetricRegistry, METRICS_SCHEMA_VERSION};
pub use slo::{SloBreach, SloMetric, SloReport, SloSpec, SloVerdict, SloWindowPoint};
pub use tracer::{validate_chrome_trace, PlacedSpan, TraceSummary, Tracer};

/// The run-wide sink: a tracer plus a metric registry, shared by every
/// device attached to it.
#[derive(Debug, Default)]
pub struct ObsPipeline {
    tracer: Tracer,
    metrics: MetricRegistry,
    devices: u32,
}

impl ObsPipeline {
    /// A new, empty pipeline.
    pub fn new() -> Self {
        ObsPipeline::default()
    }

    /// Registers a device, returning its ordinal (0, 1, ...). Tracks from
    /// different devices are namespaced by ordinal so multi-device runs
    /// export into one trace without colliding.
    pub fn attach(&mut self) -> u32 {
        let ordinal = self.devices;
        self.devices += 1;
        ordinal
    }

    /// The track id for `pid` on device `ordinal`.
    pub fn track(ordinal: u32, pid: u32) -> u64 {
        u64::from(ordinal) * 1_000_000 + u64::from(pid)
    }

    /// Names the track for `pid` on device `ordinal`.
    pub fn set_track_name(&mut self, ordinal: u32, pid: u32, name: String) {
        self.tracer.set_track_name(Self::track(ordinal, pid), name);
    }

    /// Feeds one drained component batch: spans are placed on the track of
    /// their stamped pid anchored at `anchor_nanos`; counter / gauge /
    /// latency records go to the metric registry.
    pub fn feed_batch(
        &mut self,
        ordinal: u32,
        anchor_nanos: u64,
        records: impl IntoIterator<Item = ObsRecord>,
    ) {
        // Group consecutive spans per pid so each component's batch places
        // as one unit on its track.
        let mut pending: Vec<SpanRec> = Vec::new();
        let mut pending_pid: Option<u32> = None;
        let flush = |tracer: &mut Tracer, pid: Option<u32>, batch: &mut Vec<SpanRec>| {
            if let Some(pid) = pid {
                if !batch.is_empty() {
                    tracer.place_batch(Self::track(ordinal, pid), anchor_nanos, batch.drain(..));
                }
            }
        };
        for rec in records {
            match rec {
                ObsRecord::Span(span) => {
                    if pending_pid != Some(span.pid) {
                        flush(&mut self.tracer, pending_pid, &mut pending);
                        pending_pid = Some(span.pid);
                    }
                    pending.push(span);
                }
                ObsRecord::Counter { name, delta } => self.metrics.counter_add(name, delta),
                ObsRecord::Gauge { name, value } => self.metrics.gauge_set(name, value),
                ObsRecord::Latency { name, nanos } => self.metrics.latency(name, nanos),
            }
        }
        flush(&mut self.tracer, pending_pid, &mut pending);
    }

    /// Appends a point to a named time series (device-level sampling).
    pub fn sample(&mut self, name: &'static str, at_nanos: u64, value: u64) {
        self.metrics.sample(name, at_nanos, value);
    }

    /// Adds to a named counter directly (device-level counters).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Sets a named gauge directly.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.metrics.gauge_set(name, value);
    }

    /// Records a latency observation directly.
    pub fn latency(&mut self, name: &'static str, nanos: u64) {
        self.metrics.latency(name, nanos);
    }

    /// Records `n` identical latency observations (bulk absorption from a
    /// pre-aggregated histogram, e.g. a population cohort).
    pub fn latency_n(&mut self, name: &'static str, nanos: u64, n: u64) {
        self.metrics.latency_n(name, nanos, n);
    }

    /// The placed spans (for tests and attribution).
    pub fn spans(&self) -> &[PlacedSpan] {
        self.tracer.spans()
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Exports the Chrome trace-event JSON document.
    pub fn trace_json(&self) -> String {
        self.tracer.to_chrome_json()
    }

    /// Exports the `metrics.json` document.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u32, depth: u8, rel: u64, dur: u64) -> ObsRecord {
        ObsRecord::Span(SpanRec {
            pid,
            name: "s",
            cat: "t",
            depth,
            rel_start: rel,
            dur,
            args: vec![("k", 1)],
        })
    }

    #[test]
    fn pipeline_routes_spans_and_metrics() {
        let mut p = ObsPipeline::new();
        let ord = p.attach();
        assert_eq!(ord, 0);
        p.set_track_name(ord, 0, "kernel".into());
        p.feed_batch(
            ord,
            1000,
            vec![
                span(0, 0, 0, 100),
                span(0, 1, 10, 20),
                span(3, 0, 0, 50),
                ObsRecord::Counter { name: "c", delta: 2 },
                ObsRecord::Latency { name: "l_ns", nanos: 5 },
            ],
        );
        assert_eq!(p.spans().len(), 3);
        assert_eq!(p.spans()[0].track, ObsPipeline::track(0, 0));
        assert_eq!(p.spans()[2].track, ObsPipeline::track(0, 3));
        assert_eq!(p.metrics().counter("c"), 2);
        let json = p.trace_json();
        validate_chrome_trace(&json).expect("valid trace");
    }

    #[test]
    fn ordinals_namespace_tracks() {
        let mut p = ObsPipeline::new();
        let a = p.attach();
        let b = p.attach();
        assert_ne!(ObsPipeline::track(a, 5), ObsPipeline::track(b, 5));
    }
}
