//! Figure 14: frame rendering quality — jank ratio and FPS (§7.3).
//!
//! Each app is driven for one minute of scripted swiping in the foreground
//! while other apps sit cached. The paper finds Fleet ≈ Android, with
//! Marvin ≈ 20% worse on both jank ratio and FPS (its stop-the-world stub
//! reconciliation lands in the middle of frames).

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use fleet_apps::catalog;
use fleet_metrics::Table;
use serde::Serialize;

/// One app × scheme cell of Figure 14.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14Row {
    /// App name.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Jank ratio in percent.
    pub jank_ratio_pct: f64,
    /// Frames per second.
    pub fps: f64,
}

/// Runs the frame-rendering experiment for `secs` seconds per app.
pub fn fig14(seed: u64, secs: u64, apps: Option<Vec<String>>) -> Result<Vec<Fig14Row>, FleetError> {
    let apps: Vec<String> = apps.unwrap_or_else(|| catalog().into_iter().map(|a| a.name).collect());
    let mut rows = Vec::new();
    for scheme in [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet] {
        // A modest cached population creates realistic (not crushing)
        // pressure for the foreground app.
        let companions: Vec<String> =
            ["Telegram", "Spotify", "LinkedIn", "Line"].iter().map(|s| s.to_string()).collect();
        for app in &apps {
            let mut pool_apps = companions.clone();
            pool_apps.retain(|a| a != app);
            pool_apps.push(app.clone());
            let mut pool = AppPool::under_pressure(scheme, &pool_apps, seed ^ app.len() as u64)?;
            // Let the background machinery settle (Fleet groups, Marvin
            // bookmarks and swaps) before the measured interaction starts.
            pool.device_mut().run(40);
            let (pid, _) = pool.ensure(app)?;
            if pool.device().foreground() != Some(pid) {
                pool.device_mut().try_switch_to(pid)?;
            }
            let report = pool.device_mut().try_run_frames(pid, secs)?;
            rows.push(Fig14Row {
                app: app.clone(),
                scheme: scheme.to_string(),
                jank_ratio_pct: report.jank_ratio_percent,
                fps: report.fps,
            });
        }
    }
    Ok(rows)
}

/// Mean jank/fps per scheme across apps: `(scheme, jank%, fps)`.
pub fn scheme_means(rows: &[Fig14Row]) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for scheme in ["Android", "Marvin", "Fleet"] {
        let cells: Vec<&Fig14Row> = rows.iter().filter(|r| r.scheme == scheme).collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let jank = cells.iter().map(|r| r.jank_ratio_pct).sum::<f64>() / n;
        let fps = cells.iter().map(|r| r.fps).sum::<f64>() / n;
        out.push((scheme.to_string(), jank, fps));
    }
    out
}

/// Experiment `fig14`.
pub const FIG14: Experiment = Experiment {
    id: "fig14",
    title: "Figure 14 — frame rendering: jank ratio and FPS",
    description: "Jank ratio and FPS while swiping the foreground app under pressure",
    module: "frames",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let secs = if ctx.quick { 20 } else { 60 };
    let apps = if ctx.quick {
        Some(vec![
            "Twitter".to_string(),
            "Tiktok".to_string(),
            "Chrome".to_string(),
            "CandyCrush".to_string(),
        ])
    } else {
        None
    };
    let rows = fig14(ctx.seed, secs, apps)?;
    let mut out = ExperimentOutput::new();
    out.section(FIG14.title);
    let mut t = Table::new(["Scheme", "Mean jank %", "Mean FPS", "Paper"]);
    for (scheme, jank, fps) in scheme_means(&rows) {
        let paper = match scheme.as_str() {
            "Fleet" => "≈ Android; 19.9%/20.3% better than Marvin",
            "Marvin" => "worst jank and FPS",
            _ => "baseline",
        };
        t.row([scheme, format!("{jank:.1}"), format!("{fps:.1}"), paper.to_string()]);
    }
    out.table(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_matches_android_marvin_lags() {
        let apps = Some(vec!["Twitter".to_string(), "Tiktok".to_string(), "Chrome".to_string()]);
        let rows = fig14(4, 20, apps).unwrap();
        assert_eq!(rows.len(), 9);
        let means = scheme_means(&rows);
        let get = |name: &str| means.iter().find(|(s, _, _)| s == name).unwrap().clone();
        let (_, android_jank, android_fps) = get("Android");
        let (_, marvin_jank, marvin_fps) = get("Marvin");
        let (_, fleet_jank, fleet_fps) = get("Fleet");
        // Fleet ≈ Android.
        assert!(
            (fleet_fps - android_fps).abs() / android_fps < 0.15,
            "fps {fleet_fps} vs {android_fps}"
        );
        assert!((fleet_jank - android_jank).abs() < 6.0, "jank {fleet_jank} vs {android_jank}");
        // Marvin is worse on at least one axis (paper: ~20% on both).
        assert!(
            marvin_jank > fleet_jank || marvin_fps < 0.95 * fleet_fps,
            "marvin jank {marvin_jank} fps {marvin_fps} vs fleet jank {fleet_jank} fps {fleet_fps}"
        );
        // Everyone renders at a plausible rate.
        for row in &rows {
            assert!(
                row.fps > 20.0 && row.fps < 62.0,
                "{}/{}: fps {}",
                row.scheme,
                row.app,
                row.fps
            );
        }
    }
}
