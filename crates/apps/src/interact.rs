//! The scripted-swipe interaction workload of §7.3.
//!
//! The paper measures frame rendering (jank ratio, FPS) while "continuously
//! swiping the screen using the ADB tool, following a predefined script".
//! [`InteractionScript`] generates the same shape of workload: a stream of
//! frames, each with a CPU render cost and a small set of objects the render
//! pass touches. The embedding layer adds GC pauses and page-fault stalls on
//! top and feeds completion times to the jank detector.

use crate::profile::AppProfile;
use fleet_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// One frame's worth of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameWork {
    /// CPU time to build and render the frame.
    pub render_cost: SimDuration,
    /// Bytes allocated while building the frame (view inflation etc.).
    pub alloc_bytes: u64,
    /// Number of existing objects the frame touches.
    pub touches: u32,
}

/// A deterministic swipe script for one app.
///
/// # Examples
///
/// ```
/// use fleet_apps::{profile_by_name, InteractionScript};
/// use fleet_sim::SimRng;
///
/// let profile = profile_by_name("Tiktok").unwrap();
/// let mut script = InteractionScript::new(&profile, SimRng::seed_from(3));
/// let frame = script.next_frame();
/// assert!(frame.render_cost.as_millis_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct InteractionScript {
    mean_cost_ms: f64,
    jitter_ms: f64,
    alloc_per_frame: u64,
    rng: SimRng,
    frame_index: u64,
}

impl InteractionScript {
    /// Builds a script for `profile` with its own RNG stream.
    pub fn new(profile: &AppProfile, rng: SimRng) -> Self {
        InteractionScript {
            mean_cost_ms: profile.frame_cost_ms,
            jitter_ms: profile.frame_cost_ms * 0.25,
            // Fling-style scrolling inflates fresh views continuously.
            alloc_per_frame: (profile.fg_alloc_mib_per_sec * 1024.0 * 1024.0 / 60.0) as u64,
            rng,
            frame_index: 0,
        }
    }

    /// Produces the next frame's workload. Every ~90 frames a heavier frame
    /// models content loading at a fling boundary.
    pub fn next_frame(&mut self) -> FrameWork {
        self.frame_index += 1;
        let heavy = self.frame_index.is_multiple_of(90);
        let base = if heavy { self.mean_cost_ms * 2.2 } else { self.mean_cost_ms };
        let cost_ms = self.rng.normal(base, self.jitter_ms).max(0.5);
        FrameWork {
            render_cost: SimDuration::from_millis_f64(cost_ms),
            alloc_bytes: if heavy { self.alloc_per_frame * 4 } else { self.alloc_per_frame },
            touches: if heavy { 48 } else { 12 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_by_name;

    fn script() -> InteractionScript {
        InteractionScript::new(&profile_by_name("Twitter").unwrap(), SimRng::seed_from(5))
    }

    #[test]
    fn frame_costs_center_on_profile_mean() {
        let mut s = script();
        let n = 2000;
        let mean: f64 =
            (0..n).map(|_| s.next_frame().render_cost.as_millis_f64()).sum::<f64>() / n as f64;
        // Slightly above the base mean because of the heavy frames.
        assert!((5.5..7.5).contains(&mean), "mean frame cost {mean}");
    }

    #[test]
    fn heavy_frames_appear_periodically() {
        let mut s = script();
        let costs: Vec<f64> =
            (0..180).map(|_| s.next_frame().render_cost.as_millis_f64()).collect();
        let heavy_count = costs.iter().filter(|&&c| c > 10.0).count();
        assert!(heavy_count >= 1, "expected at least one heavy frame");
    }

    #[test]
    fn frames_always_make_progress() {
        let mut s = script();
        for _ in 0..1000 {
            let f = s.next_frame();
            assert!(f.render_cost > SimDuration::ZERO);
            assert!(f.touches > 0);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = script();
        let mut b = script();
        for _ in 0..100 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }
}
