//! Figures 4 and 12b: object accesses over time across state changes.
//!
//! Figure 4 (Amazon shop, Android): foreground until 20 s, backgrounded,
//! a GC at ~37 s faults the whole heap back (the spike), hot-launch at 53 s
//! re-touches old foreground objects. Figure 12b (Twitch): the same
//! phenomenon over 600 s, Android vs Fleet — with BGC the background GC
//! spikes collapse.

use crate::config::DeviceConfig;
use crate::device::{Device, TraceSample, TraceSource};
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use fleet_apps::profile_by_name;
use fleet_metrics::Table;
use serde::Serialize;

/// An access trace with phase markers.
#[derive(Debug, Clone, Serialize)]
pub struct AccessTraceResult {
    /// Scheme that produced the trace.
    pub scheme: String,
    /// Sampled accesses.
    pub samples: Vec<TraceSample>,
    /// `(seconds, label)` phase markers.
    pub markers: Vec<(f64, String)>,
}

fn run_phase_trace(
    scheme: SchemeKind,
    app: &str,
    fg_secs: u64,
    bg_gc_at: Option<u64>,
    relaunch_at: u64,
    tail_secs: u64,
    seed: u64,
) -> Result<AccessTraceResult, FleetError> {
    let mut config = DeviceConfig::pixel3(scheme);
    config.seed = seed;
    let mut device = Device::try_new(config)?;
    let mut markers = Vec::new();

    let profile = profile_by_name(app).unwrap_or_else(|| panic!("unknown app {app}"));
    let (pid, _) = device.launch_cold(&profile);
    device.enable_trace(pid, 100);
    let t0 = device.now().as_secs_f64();
    device.run(fg_secs);

    // Switch to another app: the target goes to the background.
    let helper = profile_by_name("Telegram").expect("catalog app");
    device.launch_cold(&helper);
    markers.push((device.now().as_secs_f64() - t0, "switch to background".to_string()));

    let bg_start = device.now().as_secs_f64() - t0;
    if let Some(gc_at) = bg_gc_at {
        let wait = (gc_at as f64 - bg_start).max(0.0) as u64;
        device.run(wait);
        markers.push((device.now().as_secs_f64() - t0, "background GC".to_string()));
        device.try_run_gc(pid)?;
    }
    let elapsed = device.now().as_secs_f64() - t0;
    device.run((relaunch_at as f64 - elapsed).max(0.0) as u64);

    markers.push((device.now().as_secs_f64() - t0, "hot-launch".to_string()));
    device.try_switch_to(pid)?;
    device.run(tail_secs);

    let trace = device.take_trace().expect("trace was enabled");
    // Markers are relative to the app's launch; shift samples to match.
    let samples = trace.samples().iter().map(|s| TraceSample { secs: s.secs - t0, ..*s }).collect();
    Ok(AccessTraceResult { scheme: scheme.to_string(), samples, markers })
}

/// Figure 4: Amazon shop on default Android. Foreground 0–20 s, background
/// with a GC at ~37 s, hot-launch at 53 s.
pub fn fig4(seed: u64) -> Result<AccessTraceResult, FleetError> {
    run_phase_trace(SchemeKind::Android, "AmazonShop", 20, Some(37), 53, 7, seed)
}

/// Figure 12b: Twitch over 600 s (background at ~180 s, foreground at
/// ~480 s) under both Android and Fleet. The background GC activity is the
/// signal: Fleet's BGC touches an order of magnitude fewer objects.
pub fn fig12b(seed: u64) -> Result<Vec<AccessTraceResult>, FleetError> {
    [SchemeKind::Android, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| run_phase_trace(scheme, "Twitch", 180, None, 480, 120, seed))
        .collect()
}

/// Counts GC-sourced samples inside a `[from, to)` window of seconds.
pub fn gc_samples_in_window(result: &AccessTraceResult, from: f64, to: f64) -> usize {
    result
        .samples
        .iter()
        .filter(|s| s.source == TraceSource::Gc && s.secs >= from && s.secs < to)
        .count()
}

/// Experiment `fig4`.
pub const FIG4: Experiment = Experiment {
    id: "fig4",
    title: "Figure 4 — accessed objects over time (Amazon shop, Android)",
    description: "Object accesses sampled over time around a backgrounding event",
    module: "access_trace",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let result = fig4(ctx.seed)?;
    let mut out = ExperimentOutput::new();
    out.section(FIG4.title);
    out.export("fig4", "GC spike ≈37 s, launch re-accesses ≈53 s", &result);
    out.text(format!("markers: {:?}", result.markers));
    let mut t = Table::new(["Window (s)", "Mutator samples", "GC samples", "Launch samples"]);
    let count = |from: f64, to: f64, src: crate::TraceSource| {
        result.samples.iter().filter(|s| s.secs >= from && s.secs < to && s.source == src).count()
    };
    for w in [(0.0, 20.0), (20.0, 35.0), (35.0, 40.0), (40.0, 52.0), (52.0, 62.0)] {
        t.row([
            format!("{:.0}–{:.0}", w.0, w.1),
            count(w.0, w.1, crate::TraceSource::Mutator).to_string(),
            count(w.0, w.1, crate::TraceSource::Gc).to_string(),
            count(w.0, w.1, crate::TraceSource::Launch).to_string(),
        ]);
    }
    out.table(t);
    out.text("paper shape: quiet background, GC access spike ≈37 s, launch re-accesses ≈53 s");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shows_the_gc_spike_and_relaunch() {
        let result = fig4(3).unwrap();
        assert_eq!(result.markers.len(), 3);
        // Mutator samples exist in the foreground phase.
        let fg_mutator = result
            .samples
            .iter()
            .filter(|s| s.source == TraceSource::Mutator && s.secs < 20.0)
            .count();
        assert!(fg_mutator > 0, "foreground mutator activity should be sampled");
        // The background GC produces a burst of accesses.
        let gc_at = result.markers.iter().find(|(_, l)| l == "background GC").unwrap().0;
        let spike = gc_samples_in_window(&result, gc_at - 1.0, gc_at + 3.0);
        assert!(spike > 50, "GC spike should touch a large share of the heap, got {spike}");
        // Launch accesses appear at the relaunch marker.
        let launch_at = result.markers.iter().find(|(_, l)| l == "hot-launch").unwrap().0;
        let launch = result
            .samples
            .iter()
            .filter(|s| s.source == TraceSource::Launch && (s.secs - launch_at).abs() < 2.0)
            .count();
        assert!(launch > 0, "hot-launch should re-touch old objects");
    }

    #[test]
    fn fig12b_fleet_background_gc_is_smaller() {
        let results = fig12b(5).unwrap();
        let android = &results[0];
        let fleet = &results[1];
        // Compare GC-sourced samples during the background window.
        let android_gc = gc_samples_in_window(android, 190.0, 480.0);
        let fleet_gc = gc_samples_in_window(fleet, 190.0, 480.0);
        assert!(
            fleet_gc * 3 < android_gc.max(1),
            "Fleet BGC should touch far fewer objects: fleet {fleet_gc} vs android {android_gc}"
        );
    }
}
