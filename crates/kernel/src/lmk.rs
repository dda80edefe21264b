//! The low-memory-killer victim policy.
//!
//! Android's lmkd terminates cached (background) apps when reclaim cannot
//! keep up — "Android starts to kill apps when there are 11 cached apps"
//! (§7.1). The policy here mirrors lmkd's oom-score ordering at the
//! granularity the experiments need: the foreground app is never killed;
//! among background apps, the one least recently in the foreground dies
//! first; pinned system processes are exempt.
//!
//! Kill *ordering* is a [`crate::reclaim::KillPolicy`] variant
//! (`ColdestFirst` wraps `coldest_victim`) and kill *execution* lives in
//! [`crate::reclaim::ReclaimDriver`], which also owns the reclaim daemon
//! tick. The deprecated one-release shims this module used to carry
//! (`choose_victim`, `Lmkd::kill_one`, `Lmkd::escalate`) have been removed;
//! [`LmkCandidate`] and [`LmkOutcome`] remain as the shared vocabulary
//! types.

use crate::page::Pid;
use fleet_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One process as seen by the low-memory killer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LmkCandidate {
    /// The process.
    pub pid: Pid,
    /// True for the current foreground app (never killed).
    pub foreground: bool,
    /// When the app was last in the foreground; older means colder.
    pub last_foreground: SimTime,
    /// True for processes exempt from killing (system services).
    pub pinned: bool,
}

/// The coldest-first oom-score order behind `KillPolicy::ColdestFirst`: the
/// background, unpinned process least recently in the foreground, ties on
/// lower pid. Returns `None` when no process is killable.
pub(crate) fn coldest_victim(candidates: &[LmkCandidate]) -> Option<Pid> {
    candidates
        .iter()
        .filter(|c| !c.foreground && !c.pinned)
        .min_by_key(|c| (c.last_foreground, c.pid))
        .map(|c| c.pid)
}

/// What one `ReclaimDriver::escalate` round freed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LmkOutcome {
    /// Victims killed, in kill order (coldest first).
    pub killed: Vec<Pid>,
    /// DRAM frames freed by those kills.
    pub freed_frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(pid: u32, fg: bool, last: u64) -> LmkCandidate {
        LmkCandidate {
            pid: Pid(pid),
            foreground: fg,
            last_foreground: SimTime::from_secs(last),
            pinned: false,
        }
    }

    #[test]
    fn picks_coldest_background_app() {
        let procs = [cand(1, false, 30), cand(2, false, 5), cand(3, false, 60)];
        assert_eq!(coldest_victim(&procs), Some(Pid(2)));
    }

    #[test]
    fn never_kills_foreground() {
        let procs = [cand(1, true, 0), cand(2, false, 100)];
        assert_eq!(coldest_victim(&procs), Some(Pid(2)));
        let only_fg = [cand(1, true, 0)];
        assert_eq!(coldest_victim(&only_fg), None);
    }

    #[test]
    fn pinned_processes_are_exempt() {
        let mut system = cand(1, false, 0);
        system.pinned = true;
        let procs = [system, cand(2, false, 50)];
        assert_eq!(coldest_victim(&procs), Some(Pid(2)));
    }

    #[test]
    fn ties_break_on_pid() {
        let procs = [cand(9, false, 10), cand(3, false, 10)];
        assert_eq!(coldest_victim(&procs), Some(Pid(3)));
    }

    #[test]
    fn empty_list_has_no_victim() {
        assert_eq!(coldest_victim(&[]), None);
    }
}
