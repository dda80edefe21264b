//! Figure 7: the object-size distribution (§4.3).
//!
//! "The majority of objects are significantly smaller than the page size" —
//! this is the size mismatch that makes naive GC-swap co-design hard and
//! motivates Fleet's page grouping.

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use fleet_apps::profile_by_name;
use fleet_metrics::Table;
use fleet_sim::SimRng;
use serde::Serialize;

/// The size buckets plotted on Figure 7's x-axis.
pub const SIZE_BUCKETS: [u32; 13] = [16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096, 8192];

/// One app's empirical size CDF.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Row {
    /// App name.
    pub app: String,
    /// `(size, cdf_percent)` pairs over [`SIZE_BUCKETS`].
    pub cdf: Vec<(u32, f64)>,
}

/// Runs Figure 7: samples `n` object sizes per app and reports the CDF.
pub fn fig7(seed: u64, n: usize) -> Vec<Fig7Row> {
    // "Amazon" in the figure is the AmazonShop catalog entry.
    let names = [
        "Twitter",
        "Facebook",
        "Youtube",
        "Tiktok",
        "AmazonShop",
        "GoogleMaps",
        "CandyCrush",
        "Firefox",
    ];
    names
        .iter()
        .map(|name| {
            let profile = profile_by_name(name).expect("catalog app");
            let mut rng = SimRng::seed_from(seed ^ name.len() as u64);
            let mut sizes: Vec<u32> = (0..n).map(|_| profile.size_dist.sample(&mut rng)).collect();
            sizes.sort_unstable();
            let cdf = SIZE_BUCKETS
                .iter()
                .map(|&limit| {
                    let count = sizes.partition_point(|&s| s <= limit);
                    (limit, 100.0 * count as f64 / n as f64)
                })
                .collect();
            Fig7Row { app: name.to_string(), cdf }
        })
        .collect()
}

/// Experiment `fig7`.
pub struct Fig7;

impl Experiment for Fig7 {
    fn id(&self) -> &'static str {
        "fig7"
    }
    fn title(&self) -> &'static str {
        "Figure 7 — object-size distribution (CDF %)"
    }
    fn description(&self) -> &'static str {
        "Cumulative object-size distribution across the app heaps"
    }
    fn module(&self) -> &'static str {
        "object_sizes"
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let rows = fig7(ctx.seed, if ctx.quick { 20_000 } else { 50_000 });
        let mut out = ExperimentOutput::new();
        out.section(self.title());
        let mut head = vec!["Size (B)".to_string()];
        head.extend(rows.iter().map(|r| r.app.clone()));
        let mut t = Table::new(head);
        for (i, &(size, _)) in rows[0].cdf.iter().enumerate() {
            let mut cells = vec![size.to_string()];
            cells.extend(rows.iter().map(|r| format!("{:.0}", r.cdf[i].1)));
            t.row(cells);
        }
        out.table(t);
        out.text("paper shape: the vast majority of objects are far below the 4096 B page size");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_objects_are_far_below_page_size() {
        let rows = fig7(1, 20_000);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            let at =
                |size: u32| row.cdf.iter().find(|&&(s, _)| s == size).map(|&(_, p)| p).unwrap();
            assert!(at(128) > 75.0, "{}: cdf(128)={}", row.app, at(128));
            assert!(at(4096) > 95.0, "{}: cdf(4096)={}", row.app, at(4096));
            // CDF is monotone.
            for w in row.cdf.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
    }

    #[test]
    fn apps_differ_but_share_the_shape() {
        let rows = fig7(1, 20_000);
        let first = &rows[0].cdf;
        // Not all identical (per-app variants shift the weights)…
        assert!(rows.iter().any(|r| r.cdf != *first));
        // …but every app's median object is ≤ 48 bytes.
        for row in &rows {
            let median_bucket = row.cdf.iter().find(|&&(_, p)| p >= 50.0).unwrap().0;
            assert!(median_bucket <= 48, "{}: median bucket {median_bucket}", row.app);
        }
    }
}
