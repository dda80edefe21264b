//! Per-layer metrics, derived from the traced pass's spans and the pass's
//! simulated counters. Every workload emits every row; a row reads 0 when
//! the workload makes no call into that layer function (for example the
//! population rows outside `cohort`), and `--list-metrics` prints the
//! table `BENCHMARK.json` mirrors.

use std::collections::BTreeMap;

use crate::trace::{durations, self_time_by_layer, totals, Span};
use crate::workloads::Pass;
use crate::{quantile, Metrics};

/// Collectors `mechanisms` times, by span suffix.
pub const GC_KINDS: [&str; 5] = ["full", "minor", "bgc", "marvin", "grouping"];

/// Layers the self-time rows cover (`bench` is the benchmark's own code).
pub const LAYERS: [&str; 7] = ["bench", "core", "population", "apps", "heap", "gc", "kernel"];

/// `(span, per-unit suffix)` of the kernel's ns-per-page rows.
const KERNEL_ROWS: [(&str, &str); 6] = [
    ("kernel.access_resident", "ns_per_page"),
    ("kernel.swap_out_flash", "ns_per_page"),
    ("kernel.fault_in_flash", "ns_per_page"),
    ("kernel.kswapd", "ns_per_reclaimed_page"),
    ("kernel.swap_out_zram", "ns_per_page"),
    ("kernel.fault_in_zram", "ns_per_page"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn table() -> Vec<(String, &'static str)> {
    let mut rows: Vec<(String, &'static str)> = [
        ("core.switch_to.ms_p50", "ms"),
        ("core.switch_to.ms_p90", "ms"),
        ("core.switch_to.calls", "count"),
        ("core.switch_to.us_per_faulted_page", "us/page"),
        ("core.switch_to.faulted_pages", "count"),
        ("core.run.ms_per_slice_p50", "ms"),
        ("core.run.ms_per_slice_p99", "ms"),
        ("core.run.slices", "count"),
        ("core.launch_cold.ms_p50", "ms"),
        ("core.launch_cold.calls", "count"),
        ("core.pool_setup.ms", "ms"),
        ("core.pool_setup.calls", "count"),
        ("population.sample_device.us_p50", "us"),
        ("population.run_device_day.ms_p50", "ms"),
        ("population.run_device_day.ms_p90", "ms"),
        ("population.absorb.us_p50", "us"),
        ("population.merge.ms", "ms"),
        ("population.scaling", "ratio"),
        ("population.device_days", "count"),
        ("population.threads", "count"),
        ("apps.build_initial_graph.ms", "ms"),
        ("apps.build_initial_graph.objects", "count"),
        ("heap.alloc.ns_per_object", "ns/object"),
        ("heap.alloc.objects", "count"),
        ("apps.background_step.us", "us"),
        ("apps.background_step.calls", "count"),
        ("apps.launch_access.us", "us"),
        ("apps.launch_access.objects", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in GC_KINDS {
        rows.push((format!("gc.{k}.ms_per_collection"), "ms"));
        rows.push((format!("gc.{k}.ns_per_traced_object"), "ns/object"));
        rows.push((format!("gc.{k}.objects_traced"), "count"));
        rows.push((format!("gc.{k}.collections"), "count"));
    }
    for (span, per) in KERNEL_ROWS {
        rows.push((format!("{span}.{per}"), "ns/page"));
        rows.push((format!("{span}.pages"), "count"));
    }
    for (name, unit) in [
        ("kernel.faults", "count"),
        ("kernel.faults_launch", "count"),
        ("kernel.faults_gc", "count"),
        ("kernel.pages_swapped_out", "count"),
        ("kernel.faults_zram", "count"),
        ("kernel.zram_writeback_pages", "count"),
        ("kernel.faults_per_swapout", "ratio"),
        ("gc.collections", "count"),
        ("gc.objects_traced", "count"),
        ("core.lmk_kills", "count"),
    ] {
        rows.push((name.to_string(), unit));
    }
    for layer in LAYERS {
        rows.push((format!("self_ms.{layer}"), "ms"));
    }
    rows.push(("trace.overhead_s".to_string(), "s"));
    rows.push(("trace.spans".to_string(), "count"));
    rows
}

fn q(spans: &[Span], name: &str, p: f64, scale: f64) -> f64 {
    let mut d = durations(spans, name);
    if d.is_empty() {
        return 0.0;
    }
    d.sort_by(f64::total_cmp);
    quantile(&d, p) / scale
}

/// Total duration per unit of work, `scale`d from ns (0 without work).
fn per_work(spans: &[Span], name: &str, scale: f64) -> f64 {
    let (ns, work) = totals(spans, name);
    if work == 0 {
        0.0
    } else {
        ns / work as f64 / scale
    }
}

fn calls(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).len() as f64
}

/// Computes every row of [`table`] for one traced pass.
pub fn compute(spans: &[Span], pass: &Pass, threads: usize, overhead_s: f64) -> Metrics {
    let units: BTreeMap<String, &'static str> = table().into_iter().collect();
    let mut m = Metrics::new();
    let mut put = |name: String, value: f64| {
        let unit = units.get(&name).unwrap_or_else(|| panic!("{name} missing from the table"));
        m.push((name, value, unit));
    };
    const MS: f64 = 1e6;
    const US: f64 = 1e3;

    put("core.switch_to.ms_p50".into(), q(spans, "core.switch_to", 0.5, MS));
    put("core.switch_to.ms_p90".into(), q(spans, "core.switch_to", 0.9, MS));
    put("core.switch_to.calls".into(), calls(spans, "core.switch_to"));
    put("core.switch_to.us_per_faulted_page".into(), per_work(spans, "core.switch_to", US));
    put("core.switch_to.faulted_pages".into(), totals(spans, "core.switch_to").1 as f64);
    put("core.run.ms_per_slice_p50".into(), q(spans, "core.run", 0.5, MS));
    put("core.run.ms_per_slice_p99".into(), q(spans, "core.run", 0.99, MS));
    put("core.run.slices".into(), calls(spans, "core.run"));
    put("core.launch_cold.ms_p50".into(), q(spans, "core.launch_cold", 0.5, MS));
    put("core.launch_cold.calls".into(), calls(spans, "core.launch_cold"));
    put("core.pool_setup.ms".into(), q(spans, "core.pool_setup", 0.5, MS));
    put("core.pool_setup.calls".into(), calls(spans, "core.pool_setup"));

    let device_days = calls(spans, "population.run_device_day");
    let (day_ns, _) = totals(spans, "population.run_device_day");
    let scaling = if pass.parallel_ns > 0.0 && device_days > 0.0 {
        day_ns / (threads as f64 * pass.parallel_ns)
    } else {
        0.0
    };
    put("population.sample_device.us_p50".into(), q(spans, "population.sample_device", 0.5, US));
    put("population.run_device_day.ms_p50".into(), q(spans, "population.run_device_day", 0.5, MS));
    put("population.run_device_day.ms_p90".into(), q(spans, "population.run_device_day", 0.9, MS));
    put("population.absorb.us_p50".into(), q(spans, "population.absorb", 0.5, US));
    put("population.merge.ms".into(), totals(spans, "population.merge").0 / MS);
    put("population.scaling".into(), scaling);
    put("population.device_days".into(), device_days);
    put("population.threads".into(), if device_days > 0.0 { threads as f64 } else { 0.0 });

    put("apps.build_initial_graph.ms".into(), q(spans, "apps.build_initial_graph", 0.5, MS));
    put(
        "apps.build_initial_graph.objects".into(),
        totals(spans, "apps.build_initial_graph").1 as f64,
    );
    put("heap.alloc.ns_per_object".into(), per_work(spans, "heap.alloc", 1.0));
    put("heap.alloc.objects".into(), totals(spans, "heap.alloc").1 as f64);
    put("apps.background_step.us".into(), q(spans, "apps.background_step", 0.5, US));
    put("apps.background_step.calls".into(), calls(spans, "apps.background_step"));
    put("apps.launch_access.us".into(), q(spans, "apps.launch_access", 0.5, US));
    put("apps.launch_access.objects".into(), totals(spans, "apps.launch_access").1 as f64);

    for k in GC_KINDS {
        let span = format!("gc.{k}");
        let n = calls(spans, &span);
        let (ns, traced) = totals(spans, &span);
        put(format!("gc.{k}.ms_per_collection"), if n > 0.0 { ns / n / MS } else { 0.0 });
        put(format!("gc.{k}.ns_per_traced_object"), per_work(spans, &span, 1.0));
        put(format!("gc.{k}.objects_traced"), traced as f64);
        put(format!("gc.{k}.collections"), n);
    }
    for (span, per) in KERNEL_ROWS {
        put(format!("{span}.{per}"), per_work(spans, span, 1.0));
        put(format!("{span}.pages"), totals(spans, span).1 as f64);
    }

    let c = &pass.counts;
    let opt = |v: Option<u64>| v.unwrap_or(0) as f64;
    put("kernel.faults".into(), c.faults as f64);
    put("kernel.faults_launch".into(), opt(c.faults_launch));
    put("kernel.faults_gc".into(), opt(c.faults_gc));
    put("kernel.pages_swapped_out".into(), c.pages_swapped_out as f64);
    put("kernel.faults_zram".into(), opt(c.faults_zram));
    put("kernel.zram_writeback_pages".into(), c.zram_writeback_pages as f64);
    put(
        "kernel.faults_per_swapout".into(),
        if c.pages_swapped_out == 0 { 0.0 } else { c.faults as f64 / c.pages_swapped_out as f64 },
    );
    put("gc.collections".into(), opt(c.gc_collections));
    put("gc.objects_traced".into(), opt(c.gc_objects_traced));
    put("core.lmk_kills".into(), c.lmk_kills as f64);

    let self_ns = self_time_by_layer(spans);
    for layer in LAYERS {
        put(format!("self_ms.{layer}"), self_ns.get(layer).copied().unwrap_or(0) as f64 / MS);
    }
    put("trace.overhead_s".into(), overhead_s);
    put("trace.spans".into(), spans.len() as f64);
    m
}
