//! Fleet-scale telemetry: cohort span attribution, SLO evaluation and
//! deterministic outlier drill-down (DESIGN.md §15).
//!
//! The observability layer (§10) answers "where does hot-launch time go"
//! for *one* device; the population engine (§12) reduces a cohort to
//! summary histograms with no way to see where a bad tail comes from.
//! This module closes the gap in three pieces, all riding the population
//! fold's commutativity contract:
//!
//! * **[`CohortTelemetry`]** — per-launch latency decomposition
//!   (cpu / fault_in / decompress / gc_pause, the §10 span taxonomy)
//!   folded into integer [`LogHistogram`]s overall, per scheme and per
//!   device class, plus per-slice histograms, [`Moments`] power sums and
//!   bounded top-K outlier pools. Every field absorbs and merges
//!   commutatively, so the aggregate stays byte-identical whatever the
//!   worker-thread count.
//! * **SLO evaluation** — [`SloSpec`]s (re-exported from
//!   `fleet_obs::slo`) are evaluated post-merge over burn-rate windows of
//!   run-slices; the verdicts are a pure function of the already
//!   order-free aggregate.
//! * **[`drill_down`]** — ranks device-days by z-score
//!   ([`CohortTelemetry::rank_outliers`]) and re-simulates the top K
//!   standalone under fresh `obs`(+`audit`) pipelines, exploiting the
//!   splitmix-split seed property: the replayed day is bit-identical to
//!   the in-cohort one, and the written Perfetto trace shows exactly the
//!   device-day behind the aggregate breach.

use crate::error::FleetError;
use crate::params::SchemeKind;
use crate::population::{sample_device, DeviceDayRow, PopulationSpec};
use crate::process::LaunchReport;
use fleet_metrics::Moments;
use fleet_obs::LogHistogram;
use serde::{Deserialize, Serialize};
use std::path::Path;

pub use fleet_obs::slo::{SloBreach, SloMetric, SloReport, SloSpec, SloVerdict, SloWindowPoint};

/// Bounded size of the commutative outlier candidate pools. Large enough
/// that any sensible drill-down `k` fits; small enough that absorbing a
/// device-day stays O(1)-ish.
pub const OUTLIER_POOL: usize = 16;

// ----------------------------------------------------------- span samples

/// One hot launch's latency decomposition in microseconds, derived from
/// the [`LaunchReport`] the §10 span taxonomy also feeds: the `cpu`,
/// `fault_in`, `decompress` and `gc_pause` children of a `launch_hot`
/// root, flattened to integers so cohort folds stay commutative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchSpanSample {
    /// Total time to first frame, µs (the `launch_hot` root).
    pub total_us: u64,
    /// Pure CPU share, µs (`total − fault_in − gc_pause`).
    pub cpu_us: u64,
    /// Page-fault stall share, µs (the `fault_in` child).
    pub fault_in_us: u64,
    /// Zram decompression share, µs (depth-2 under `fault_in`; a subset
    /// of [`Self::fault_in_us`], zero on flash-only devices).
    pub decompress_us: u64,
    /// Launch-time GC stop-the-world share, µs (the `gc_pause` child).
    pub gc_pause_us: u64,
}

impl LaunchSpanSample {
    /// Flattens a launch report into the span decomposition. The same
    /// arithmetic the obs tracer uses: the children tile the root, so
    /// `cpu = total − fault_stall − gc_stw` exactly.
    pub fn from_report(r: &LaunchReport) -> Self {
        let total_us = r.total.as_micros();
        let fault_in_us = r.fault_stall.as_micros();
        let gc_pause_us = r.gc_stw.as_micros();
        LaunchSpanSample {
            total_us,
            cpu_us: total_us.saturating_sub(fault_in_us).saturating_sub(gc_pause_us),
            fault_in_us,
            decompress_us: r.decompress.as_micros(),
            gc_pause_us,
        }
    }
}

/// The cohort-level attribution bundle: one [`LogHistogram`] per span of
/// the launch family. Absorb/merge are commutative integer folds.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LaunchAttribution {
    /// Root (`launch_hot`) totals, µs.
    pub total_us: LogHistogram,
    /// `cpu` child, µs.
    pub cpu_us: LogHistogram,
    /// `fault_in` child, µs.
    pub fault_in_us: LogHistogram,
    /// `decompress` grandchild, µs.
    pub decompress_us: LogHistogram,
    /// `gc_pause` child, µs.
    pub gc_pause_us: LogHistogram,
}

impl LaunchAttribution {
    /// An empty bundle.
    pub fn new() -> Self {
        LaunchAttribution::default()
    }

    /// Folds one launch in.
    pub fn absorb(&mut self, s: &LaunchSpanSample) {
        self.total_us.record(s.total_us);
        self.cpu_us.record(s.cpu_us);
        self.fault_in_us.record(s.fault_in_us);
        self.decompress_us.record(s.decompress_us);
        self.gc_pause_us.record(s.gc_pause_us);
    }

    /// Folds another bundle in (commutative, associative).
    pub fn merge(&mut self, other: &LaunchAttribution) {
        self.total_us.merge(&other.total_us);
        self.cpu_us.merge(&other.cpu_us);
        self.fault_in_us.merge(&other.fault_in_us);
        self.decompress_us.merge(&other.decompress_us);
        self.gc_pause_us.merge(&other.gc_pause_us);
    }

    /// Launches folded in.
    pub fn launches(&self) -> u64 {
        self.total_us.count()
    }

    /// A component's share of total launch time, in percent of the summed
    /// root (0 when no launch landed).
    pub fn share_pct(&self, component: &LogHistogram) -> f64 {
        if self.total_us.sum() == 0 {
            0.0
        } else {
            component.sum() as f64 * 100.0 / self.total_us.sum() as f64
        }
    }
}

/// One device class's attribution bundle, keyed by class name. The owning
/// vector keeps itself name-sorted so insertion order (and thus thread
/// interleaving) never shows in the serialized bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassAttribution {
    /// Device class name (from the sampled [`crate::population::DeviceClass`]).
    pub class: String,
    /// The class's launch decomposition.
    pub attribution: LaunchAttribution,
}

/// Per-run-slice telemetry: the data SLO burn-rate windows evaluate over.
/// Indexed by slice ordinal like the aggregate's `SliceRow`s, so absorbing
/// is an index write, never an append — commutative by construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceTelemetry {
    /// Slice ordinal (device indices `[slice·len, (slice+1)·len)`).
    pub slice: u32,
    /// Device-days absorbed into this slice.
    pub devices: u64,
    /// Hot-launch latency distribution of the slice, µs.
    pub hot_launch_us: LogHistogram,
    /// LMK kills across the slice.
    pub lmk_kills: u64,
}

// ----------------------------------------------------------- outlier pools

/// One device-day's outlier fingerprint: both ranking metrics plus the row
/// fingerprint, enough to drill down without re-running the cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutlierCandidate {
    /// Device index within the cohort.
    pub index: u32,
    /// Worst hot-launch of the day, µs (0 when no launch stayed hot).
    pub peak_hot_us: u64,
    /// LMK kills over the day.
    pub kills: u64,
    /// The device-day's row fingerprint (replay must reproduce it).
    pub fingerprint: u64,
}

/// A bounded top-K pool under a total order (value desc, index asc).
///
/// Keeping only the K best is still a commutative fold: any element of the
/// global top K is necessarily in its own shard's top K, so merging two
/// pools and re-truncating equals the top K of the union — the argument
/// `tests/telemetry_properties.rs` exercises down to JSON bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutlierPool {
    /// Capacity (fixed at construction).
    pub cap: u32,
    /// Kept candidates with their ranking value, sorted by
    /// (value desc, index asc).
    pub entries: Vec<(u64, OutlierCandidate)>,
}

impl OutlierPool {
    /// An empty pool keeping the `cap` largest values.
    pub fn new(cap: u32) -> Self {
        OutlierPool { cap, entries: Vec::new() }
    }

    fn truncate_sorted(&mut self) {
        self.entries.sort_by(|(va, ca), (vb, cb)| vb.cmp(va).then(ca.index.cmp(&cb.index)));
        self.entries.truncate(self.cap as usize);
    }

    /// Offers one candidate ranked by `value`.
    pub fn offer(&mut self, value: u64, candidate: OutlierCandidate) {
        self.entries.push((value, candidate));
        self.truncate_sorted();
    }

    /// Folds another pool in (commutative, associative).
    pub fn merge(&mut self, other: &OutlierPool) {
        assert_eq!(self.cap, other.cap, "pools must share a capacity");
        self.entries.extend(other.entries.iter().copied());
        self.truncate_sorted();
    }
}

/// A ranked outlier: the drill-down work item [`CohortTelemetry::rank_outliers`]
/// returns. Scores are derived post-merge from the folded [`Moments`], so
/// they are as thread-count-independent as the integer state they read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outlier {
    /// Device index within the cohort.
    pub index: u32,
    /// `max(z_latency, z_kills)` — the ranking score.
    pub score: f64,
    /// Z-score of the day's peak hot-launch against the cohort.
    pub z_latency: f64,
    /// Z-score of the day's LMK kills against the cohort.
    pub z_kills: f64,
    /// Worst hot-launch of the day, µs.
    pub peak_hot_us: u64,
    /// LMK kills over the day.
    pub kills: u64,
    /// The in-cohort row fingerprint the replay must reproduce.
    pub fingerprint: u64,
}

// ------------------------------------------------------- cohort telemetry

/// The telemetry sub-aggregate folded into every
/// [`crate::population::PopulationAggregate`]: launch attribution
/// (overall / per scheme / per class), per-slice SLO inputs, moment sums
/// and the outlier pools. Every field is a commutative integer fold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortTelemetry {
    /// Devices per slice (mirrors the owning aggregate).
    pub slice_len: u32,
    /// Cohort-wide launch decomposition.
    pub overall: LaunchAttribution,
    /// Per-scheme decomposition, indexed like [`SchemeKind::ALL`].
    pub schemes: Vec<LaunchAttribution>,
    /// Per-device-class decomposition, kept sorted by class name.
    pub classes: Vec<ClassAttribution>,
    /// Per-slice SLO inputs, one per slice ordinal.
    pub slices: Vec<SliceTelemetry>,
    /// Power sums over per-device peak hot-launch, µs.
    pub peak_hot_us: Moments,
    /// Power sums over per-device LMK kills.
    pub device_kills: Moments,
    /// Top-K device-days by peak hot-launch.
    pub latency_outliers: OutlierPool,
    /// Top-K device-days by LMK kills.
    pub kill_outliers: OutlierPool,
}

impl CohortTelemetry {
    /// An empty telemetry aggregate sized for `cohort_devices` devices in
    /// slices of `slice_len`.
    pub fn new(cohort_devices: u32, slice_len: u32) -> Self {
        assert!(slice_len > 0, "slice length must be positive");
        let slices = cohort_devices.div_ceil(slice_len);
        CohortTelemetry {
            slice_len,
            overall: LaunchAttribution::new(),
            schemes: vec![LaunchAttribution::new(); SchemeKind::ALL.len()],
            classes: Vec::new(),
            slices: (0..slices)
                .map(|slice| SliceTelemetry {
                    slice,
                    devices: 0,
                    hot_launch_us: LogHistogram::new(),
                    lmk_kills: 0,
                })
                .collect(),
            peak_hot_us: Moments::new(),
            device_kills: Moments::new(),
            latency_outliers: OutlierPool::new(OUTLIER_POOL as u32),
            kill_outliers: OutlierPool::new(OUTLIER_POOL as u32),
        }
    }

    fn class_mut(&mut self, name: &str) -> &mut LaunchAttribution {
        let at = match self.classes.binary_search_by(|c| c.class.as_str().cmp(name)) {
            Ok(at) => at,
            Err(at) => {
                self.classes.insert(
                    at,
                    ClassAttribution {
                        class: name.to_string(),
                        attribution: LaunchAttribution::new(),
                    },
                );
                at
            }
        };
        &mut self.classes[at].attribution
    }

    /// Folds one device-day in.
    pub fn absorb(&mut self, row: &DeviceDayRow) {
        let si = row.scheme.index();
        for span in &row.hot_spans {
            self.overall.absorb(span);
            self.schemes[si].absorb(span);
            self.class_mut(&row.class).absorb(span);
        }
        let slice = &mut self.slices[(row.index / self.slice_len) as usize];
        slice.devices += 1;
        slice.lmk_kills += row.lmk_kills;
        for &us in &row.hot_launch_us {
            slice.hot_launch_us.record(us);
        }
        let peak = row.hot_launch_us.iter().copied().max().unwrap_or(0);
        self.peak_hot_us.record(peak);
        self.device_kills.record(row.lmk_kills);
        let candidate = OutlierCandidate {
            index: row.index,
            peak_hot_us: peak,
            kills: row.lmk_kills,
            fingerprint: row.fingerprint,
        };
        self.latency_outliers.offer(peak, candidate);
        self.kill_outliers.offer(row.lmk_kills, candidate);
    }

    /// Folds another shard in (commutative with [`Self::absorb`]).
    ///
    /// # Panics
    ///
    /// Panics if the shards were sized for different cohorts.
    pub fn merge(&mut self, other: &CohortTelemetry) {
        assert_eq!(self.slice_len, other.slice_len, "shards must share a slice length");
        assert_eq!(self.slices.len(), other.slices.len(), "shards must share a cohort size");
        self.overall.merge(&other.overall);
        for (a, b) in self.schemes.iter_mut().zip(&other.schemes) {
            a.merge(b);
        }
        for class in &other.classes {
            self.class_mut(&class.class).merge(&class.attribution);
        }
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.devices += b.devices;
            a.lmk_kills += b.lmk_kills;
            a.hot_launch_us.merge(&b.hot_launch_us);
        }
        self.peak_hot_us.merge(&other.peak_hot_us);
        self.device_kills.merge(&other.device_kills);
        self.latency_outliers.merge(&other.latency_outliers);
        self.kill_outliers.merge(&other.kill_outliers);
    }

    /// The burn-rate window observations for `spec`, derived from the
    /// per-slice state. Pure post-merge computation: windows chunk the
    /// slice rows in ordinal order; windows with no data are skipped.
    pub fn slo_points(&self, spec: &SloSpec) -> Vec<SloWindowPoint> {
        let window = spec.window_slices.max(1) as usize;
        self.slices
            .chunks(window)
            .filter_map(|chunk| {
                let window_start = chunk[0].slice;
                let window_end = chunk.last().expect("chunks are non-empty").slice + 1;
                let value_milli = match spec.metric {
                    SloMetric::HotLaunch => {
                        let mut hist = LogHistogram::new();
                        for s in chunk {
                            hist.merge(&s.hot_launch_us);
                        }
                        if hist.count() == 0 {
                            return None;
                        }
                        // µs *is* the milli-unit of the ms threshold.
                        hist.quantile(spec.percentile_bp as f64 / 10_000.0)
                    }
                    SloMetric::LmkKills => {
                        let devices: u64 = chunk.iter().map(|s| s.devices).sum();
                        if devices == 0 {
                            return None;
                        }
                        let kills: u64 = chunk.iter().map(|s| s.lmk_kills).sum();
                        kills.saturating_mul(1000) / devices
                    }
                };
                Some(SloWindowPoint { window_start, window_end, value_milli })
            })
            .collect()
    }

    /// Ranks the pooled candidates by z-score against the merged moments
    /// and returns the top `k` (score desc, index asc), deduplicated
    /// across the two pools. Deterministic: every input is a pure function
    /// of the order-free aggregate.
    pub fn rank_outliers(&self, k: usize) -> Vec<Outlier> {
        let mut by_index: std::collections::BTreeMap<u32, Outlier> =
            std::collections::BTreeMap::new();
        for (_, c) in self.latency_outliers.entries.iter().chain(&self.kill_outliers.entries) {
            by_index.entry(c.index).or_insert_with(|| {
                let z_latency = self.peak_hot_us.z_score(c.peak_hot_us);
                let z_kills = self.device_kills.z_score(c.kills);
                Outlier {
                    index: c.index,
                    score: z_latency.max(z_kills),
                    z_latency,
                    z_kills,
                    peak_hot_us: c.peak_hot_us,
                    kills: c.kills,
                    fingerprint: c.fingerprint,
                }
            });
        }
        let mut ranked: Vec<Outlier> = by_index.into_values().collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
        ranked.truncate(k);
        ranked
    }

    /// Evaluates every spec against the per-slice state (post-merge).
    pub fn evaluate(&self, slos: &[SloSpec]) -> Vec<SloVerdict> {
        slos.iter().map(|s| SloVerdict::evaluate(s, self.slo_points(s))).collect()
    }
}

// ------------------------------------------------------------- drill-down

/// The outcome of re-simulating one outlier device-day standalone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrilldownRecord {
    /// Device index within the cohort.
    pub index: u32,
    /// The split per-device seed the replay used.
    pub seed: u64,
    /// Sampled hardware class.
    pub class: String,
    /// Sampled persona.
    pub persona: String,
    /// Sampled scheme.
    pub scheme: SchemeKind,
    /// The ranking score that put this day in the top K.
    pub score: f64,
    /// The in-cohort row fingerprint.
    pub cohort_fingerprint: u64,
    /// The standalone replay's row fingerprint.
    pub replayed_fingerprint: u64,
    /// True iff the replay reproduced the in-cohort row bit for bit.
    pub matched: bool,
    /// Spans in the exported trace (0 when built without `obs`).
    pub trace_spans: u64,
    /// Files written for this outlier, relative to the drill-down dir.
    pub files: Vec<String>,
}

/// Re-simulates `outliers` standalone into `dir`: per outlier a
/// `outlier_<index>.row.json` (always), plus — when built with the `obs`
/// feature — a validated `outlier_<index>.trace.json` Perfetto trace and
/// `outlier_<index>.metrics.json`, recorded under *fresh* pipelines
/// installed around just that replay (so drill-down works from any
/// thread, including parallel experiment workers, without touching the
/// caller's pipelines). With the `audit` feature the replay also runs
/// under a fresh audit pipeline, and an invariant violation panics, as in
/// every audited run.
///
/// # Errors
///
/// Sampling/simulation failures ([`FleetError`]), I/O failures writing
/// the artifacts, or an invalid trace export.
pub fn drill_down(
    spec: &PopulationSpec,
    outliers: &[Outlier],
    dir: &Path,
) -> Result<Vec<DrilldownRecord>, FleetError> {
    std::fs::create_dir_all(dir)?;
    let mut records = Vec::with_capacity(outliers.len());
    for outlier in outliers {
        let plan = sample_device(spec, outlier.index)?;
        let pipelines = crate::probe::Pipelines::default();
        let row = pipelines.record(|| crate::population::run_device_day(&plan))?;
        let mut files = Vec::new();
        let stem = format!("outlier_{}", outlier.index);
        let row_name = format!("{stem}.row.json");
        let row_json = serde_json::to_string_pretty(&row)
            .map_err(|e| FleetError::Serde(format!("{stem}: {e:?}")))?;
        std::fs::write(dir.join(&row_name), row_json)?;
        files.push(row_name);
        #[cfg(not(feature = "obs"))]
        let trace_spans = 0u64;
        #[cfg(feature = "obs")]
        let trace_spans = {
            let summary = pipelines.write_obs(dir, &stem)?;
            files.push(format!("{stem}.trace.json"));
            files.push(format!("{stem}.metrics.json"));
            summary.spans as u64
        };
        records.push(DrilldownRecord {
            index: outlier.index,
            seed: plan.seed,
            class: plan.class.clone(),
            persona: plan.persona.clone(),
            scheme: plan.config.scheme,
            score: outlier.score,
            cohort_fingerprint: outlier.fingerprint,
            replayed_fingerprint: row.fingerprint,
            matched: row.fingerprint == outlier.fingerprint,
            trace_spans,
            files,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(total: u64, fault: u64, decompress: u64, gc: u64) -> LaunchSpanSample {
        LaunchSpanSample {
            total_us: total,
            cpu_us: total - fault - gc,
            fault_in_us: fault,
            decompress_us: decompress,
            gc_pause_us: gc,
        }
    }

    fn candidate(index: u32, peak: u64, kills: u64) -> OutlierCandidate {
        OutlierCandidate { index, peak_hot_us: peak, kills, fingerprint: 0x1000 + index as u64 }
    }

    #[test]
    fn attribution_shares_reconcile() {
        let mut a = LaunchAttribution::new();
        a.absorb(&sample(1000, 400, 100, 100));
        a.absorb(&sample(3000, 1500, 0, 300));
        assert_eq!(a.launches(), 2);
        let cpu = a.share_pct(&a.cpu_us);
        let fault = a.share_pct(&a.fault_in_us);
        let gc = a.share_pct(&a.gc_pause_us);
        assert!((cpu + fault + gc - 100.0).abs() < 1e-9, "children tile the root");
        assert!(a.share_pct(&a.decompress_us) <= fault, "decompress nests under fault_in");
    }

    #[test]
    fn outlier_pool_keeps_top_k_commutatively() {
        // top-K of the union == merge of per-shard top-Ks.
        let all: Vec<OutlierCandidate> =
            (0..40).map(|i| candidate(i, ((i as u64 * 7919) % 100) * 10, 0)).collect();
        let mut whole = OutlierPool::new(8);
        for c in &all {
            whole.offer(c.peak_hot_us, *c);
        }
        let mut shards = vec![OutlierPool::new(8); 3];
        for (i, c) in all.iter().enumerate() {
            shards[(i * 2 + 1) % 3].offer(c.peak_hot_us, *c);
        }
        let mut merged = OutlierPool::new(8);
        for idx in [2, 0, 1] {
            merged.merge(&shards[idx]);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.entries.len(), 8);
        for w in merged.entries.windows(2) {
            assert!(w[0].0 >= w[1].0, "pool stays value-sorted");
        }
    }

    #[test]
    fn rank_outliers_dedupes_and_orders_by_score() {
        let mut t = CohortTelemetry::new(8, 4);
        // A background population of quiet devices plus two loud ones:
        // device 6 has the latency spike, device 3 the kill storm, and
        // device 6 is also second-worst on kills (pool overlap).
        let quiet = 100u64;
        for i in 0..8u32 {
            let (peak, kills) = match i {
                6 => (5000, 3),
                3 => (quiet, 9),
                _ => (quiet, 0),
            };
            let c = candidate(i, peak, kills);
            t.latency_outliers.offer(peak, c);
            t.kill_outliers.offer(kills, c);
            t.peak_hot_us.record(peak);
            t.device_kills.record(kills);
        }
        let ranked = t.rank_outliers(2);
        assert_eq!(ranked.len(), 2);
        let indices: Vec<u32> = ranked.iter().map(|o| o.index).collect();
        assert!(indices.contains(&6) && indices.contains(&3), "both loud devices rank");
        assert!(ranked[0].score >= ranked[1].score);
        assert!(ranked.iter().all(|o| o.score > 1.0), "loud devices are real outliers");
    }

    #[test]
    fn slo_points_window_the_slices() {
        let mut t = CohortTelemetry::new(16, 4); // 4 slices
        for (i, s) in t.slices.iter_mut().enumerate() {
            s.devices = 4;
            s.lmk_kills = i as u64; // 0,1,2,3 kills
            s.hot_launch_us.record_n(100_000 * (i as u64 + 1), 10);
        }
        let lat = SloSpec::hot_launch_ms("lat", 9900, 250, 2);
        let points = t.slo_points(&lat);
        assert_eq!(points.len(), 2, "4 slices in windows of 2");
        assert_eq!((points[0].window_start, points[0].window_end), (0, 2));
        assert!(points[0].value_milli < points[1].value_milli);
        let kills = SloSpec::lmk_kills_milli("kills", 500, 4);
        let kp = t.slo_points(&kills);
        assert_eq!(kp.len(), 1);
        // 6 kills over 16 devices = 375 milli-kills/device-day.
        assert_eq!(kp[0].value_milli, 375);
        let verdicts = t.evaluate(&[lat, kills]);
        assert_eq!(verdicts.len(), 2);
        assert!(!verdicts[0].pass, "400ms p99 window breaches a 250ms objective");
    }

    #[test]
    fn empty_windows_are_skipped_not_breached() {
        let t = CohortTelemetry::new(8, 4);
        let spec = SloSpec::hot_launch_ms("lat", 9900, 1, 1);
        assert!(t.slo_points(&spec).is_empty(), "no data, no windows");
        let verdict = &t.evaluate(std::slice::from_ref(&spec))[0];
        assert!(verdict.pass);
        assert_eq!(verdict.windows, 0);
    }
}
