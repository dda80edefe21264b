//! Shared experiment scaffolding: app pools under memory pressure.
//!
//! §7.2 measures hot launches "under memory pressure with about 10
//! background apps", launching targets repeatedly with 30 seconds of other
//! app usage in between. [`AppPool`] packages that protocol.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use crate::process::{LaunchKind, LaunchReport};
use fleet_apps::{catalog, AppProfile};
use fleet_kernel::Pid;
use fleet_metrics::{Summary, Table};
use std::collections::BTreeMap;

/// The 12 representative apps plotted in Figure 13 (a–l).
pub fn fig13_apps() -> Vec<String> {
    [
        "Twitter",
        "Facebook",
        "Instagram",
        "Line",
        "Youtube",
        "Spotify",
        "Twitch",
        "AmazonShop",
        "GoogleMaps",
        "Chrome",
        "Firefox",
        "AngryBirds",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The remaining 6 apps plotted in Figure 16.
pub fn fig16_apps() -> Vec<String> {
    ["Telegram", "Tiktok", "Rave", "BigoLive", "LinkedIn", "CandyCrush"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// A device populated with a working set of commercial apps, addressable by
/// name, with kill-and-relaunch handling.
pub struct AppPool {
    device: Device,
    profiles: BTreeMap<String, AppProfile>,
    pids: BTreeMap<String, Pid>,
    rotation: Vec<String>,
    next_rotation: usize,
    usage_gap_secs: u64,
}

impl AppPool {
    /// Builds a pool running `scheme` and cold-launches `apps` (named from
    /// the Table 3 catalog), using each briefly, producing the paper's
    /// "~10 background apps" pressure state.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if an app name is not in the catalog;
    /// [`FleetError::InvalidConfig`] if the derived config is invalid.
    pub fn under_pressure(
        scheme: SchemeKind,
        apps: &[String],
        seed: u64,
    ) -> Result<Self, FleetError> {
        let mut config = DeviceConfig::pixel3(scheme);
        config.seed = seed;
        Self::with_config(config, apps)
    }

    /// Like [`AppPool::under_pressure`] with an explicit device config.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if an app name is not in the catalog;
    /// [`FleetError::InvalidConfig`] if `config` is invalid.
    pub fn with_config(config: DeviceConfig, apps: &[String]) -> Result<Self, FleetError> {
        let all: BTreeMap<String, AppProfile> =
            catalog().into_iter().map(|a| (a.name.clone(), a)).collect();
        let mut pool = AppPool {
            device: Device::try_new(config)?,
            profiles: BTreeMap::new(),
            pids: BTreeMap::new(),
            rotation: apps.to_vec(),
            next_rotation: 0,
            usage_gap_secs: 30,
        };
        for name in apps {
            let profile =
                all.get(name).ok_or_else(|| FleetError::UnknownApp(name.clone()))?.clone();
            pool.profiles.insert(name.clone(), profile);
        }
        for name in apps {
            pool.ensure(name)?;
            pool.device.run(5);
        }
        Ok(pool)
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The pid of `name`, cold-launching (or re-launching after an LMK
    /// kill) if needed. Returns the pid and whether a cold launch happened.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if `name` was not in the pool's app list.
    pub fn ensure(&mut self, name: &str) -> Result<(Pid, bool), FleetError> {
        if let Some(&pid) = self.pids.get(name) {
            if self.device.try_process(pid).is_ok() {
                return Ok((pid, false));
            }
        }
        let profile = self
            .profiles
            .get(name)
            .ok_or_else(|| FleetError::UnknownApp(name.to_string()))?
            .clone();
        let (pid, _) = self.device.launch_cold(&profile);
        self.pids.insert(name.to_string(), pid);
        Ok((pid, true))
    }

    /// Brings `name` to the foreground. Returns the launch report; hot if
    /// the app was cached, cold if it had to be recreated.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if `name` was not in the pool's app list.
    pub fn launch(&mut self, name: &str) -> Result<LaunchReport, FleetError> {
        let (pid, was_cold) = self.ensure(name)?;
        if was_cold {
            let proc = self.device.try_process(pid)?;
            return Ok(*proc.launches.last().expect("cold launch recorded"));
        }
        self.device.try_switch_to(pid)
    }

    /// Overrides the between-launches usage gap (default 30 s, the §7.2
    /// protocol). Longer gaps age the target deeper into the cache.
    pub fn set_usage_gap(&mut self, secs: u64) {
        self.usage_gap_secs = secs;
    }

    /// Measures `n` *hot* launches of `name`, interleaving the usage gap
    /// (default 30 s) of a rotating other app between launches (the §7.2
    /// protocol). Cold relaunches after LMK kills re-warm the app but are
    /// not counted. Gives up after `3 * n` attempts.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if `name` was not in the pool's app list.
    pub fn measure_hot_launches(
        &mut self,
        name: &str,
        n: usize,
    ) -> Result<Vec<LaunchReport>, FleetError> {
        let mut reports = Vec::new();
        let mut attempts = 0;
        while reports.len() < n && attempts < 3 * n {
            attempts += 1;
            let other = self.next_other(name);
            self.launch(&other)?;
            self.device.run(self.usage_gap_secs);
            let report = self.launch(name)?;
            if report.kind == LaunchKind::Hot {
                reports.push(report);
            } else {
                // Killed meanwhile: it is warm again now; give it a moment.
                self.device.run(5);
            }
        }
        Ok(reports)
    }

    /// Like [`AppPool::measure_hot_launches`], but for devices with an armed
    /// fault plan: a launch lost to a SIGBUS kill
    /// ([`FleetError::ProcessNotAlive`]) is data, counted as a failed launch,
    /// not an error that aborts the run. Gives up after `4 * n` attempts.
    /// Returns the hot-launch reports and the failed-launch count.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownApp`] if `name` was not in the pool's app list.
    pub(crate) fn measure_hot_launches_under_faults(
        &mut self,
        name: &str,
        n: usize,
    ) -> Result<(Vec<LaunchReport>, u64), FleetError> {
        let mut reports = Vec::new();
        let mut failed = 0u64;
        let mut attempts = 0;
        while reports.len() < n && attempts < 4 * n {
            attempts += 1;
            let other = self.next_other(name);
            match self.launch(&other) {
                Ok(_) => {}
                Err(FleetError::ProcessNotAlive(_)) => {
                    failed += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
            self.device.run(self.usage_gap_secs);
            match self.launch(name) {
                Ok(report) if report.kind == LaunchKind::Hot => reports.push(report),
                Ok(_) => self.device.run(5), // cold re-warm, not counted
                Err(FleetError::ProcessNotAlive(_)) => failed += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((reports, failed))
    }

    /// The next app from the usage rotation that is not `not` (advances
    /// the rotation); used by drivers that interleave launches by hand.
    pub fn next_other_app(&mut self, not: &str) -> String {
        self.next_other(not)
    }

    fn next_other(&mut self, not: &str) -> String {
        for _ in 0..self.rotation.len() {
            let candidate = self.rotation[self.next_rotation % self.rotation.len()].clone();
            self.next_rotation += 1;
            if candidate != not {
                return candidate;
            }
        }
        not.to_string()
    }
}

/// Experiment `scenario`: a compact health check of the §7.2 pressure
/// protocol itself — per scheme, how much pressure the pool builds (cached
/// apps, LMK kills) and what a probe app's hot launch costs under it.
pub const SCENARIO: Experiment = Experiment {
    id: "scenario",
    title: "§7.2 protocol — app pool under memory pressure",
    description: "End-to-end pressure-protocol walkthrough with per-phase device stats",
    module: "scenario",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let launches = if ctx.quick { 3 } else { 6 };
    let mut out = ExperimentOutput::new();
    out.section(SCENARIO.title);
    let mut t =
        Table::new(["Scheme", "Cached apps", "LMK kills", "Twitter hot p50 (ms)", "Hot hits"]);
    for scheme in [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet] {
        let mut pool = AppPool::under_pressure(scheme, &fig13_apps(), ctx.seed)?;
        let reports = pool.measure_hot_launches("Twitter", launches)?;
        let median = Summary::from_values(reports.iter().map(|r| r.total.as_millis_f64())).median();
        t.row([
            scheme.to_string(),
            pool.device().cached_apps().to_string(),
            pool.device().kills().len().to_string(),
            format!("{median:.0}"),
            format!("{}/{launches}", reports.len()),
        ]);
    }
    out.table(t);
    out.text("paper protocol: ~10 background apps, 30 s of other-app usage between launches");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_lists_partition_the_catalog() {
        let mut all: Vec<String> = fig13_apps();
        all.extend(fig16_apps());
        all.sort();
        let mut names: Vec<String> = catalog().into_iter().map(|a| a.name).collect();
        names.sort();
        assert_eq!(all, names);
    }

    #[test]
    fn pool_builds_pressure_and_measures_hot_launches() {
        let apps: Vec<String> =
            ["Twitter", "Telegram", "Spotify", "LinkedIn"].iter().map(|s| s.to_string()).collect();
        let mut pool = AppPool::under_pressure(SchemeKind::Fleet, &apps, 7).unwrap();
        assert!(pool.device().cached_apps() >= 3);
        let reports = pool.measure_hot_launches("Twitter", 3).unwrap();
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert_eq!(r.kind, LaunchKind::Hot);
            assert!(r.total.as_millis_f64() > 100.0);
        }
    }
}
