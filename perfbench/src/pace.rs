//! Host-speed pacing: a clock in reference-host time.
//!
//! On a shared VM the same simulator call runs up to 2.4× as slow from one
//! moment to the next, as neighbours contend for the caches, and the
//! slowdown changes within tens of milliseconds. A probe timed once per
//! pass cannot track that. A [`Pacer`] instead probes the host after every
//! timed call (or after the first call that ends at least
//! [`MIN_INTERVAL_NS`] after the last probe), and rescales the host time
//! since the previous probe by the mean slowdown the two probes measured.
//!
//! A probe round is two units of std-only work, none of it simulator code,
//! so a faster simulator does not make the probe faster:
//! - *map*: 32 inserts into a small `HashMap` and `BTreeMap` (allocation
//!   included) and 64 lookups in each, run twice;
//! - *stream*: a sequential sum over a 1 MiB table.
//!
//! A workload's slowdown is modelled by its [`Model`]: a weighted mean of
//! the two units' slowdowns (`map / MAP_REF_NS`, `stream / STREAM_REF_NS`),
//! raised to a power. The simulator is partly allocation- and branch-bound,
//! partly cache-bound, and the two slow down differently as neighbours
//! change. Interleaved call by call with `Device::run` slices and hot
//! launches in 165 blocks of ~0.6 s over 4.5 minutes, while the host's
//! speed varied 3.7×, the weighted mean fitted on either half of the
//! blocks left 4 % of the other half's spread (interquartile range ÷
//! median; 30 % unscaled); any single unit kind left 8–20 %, and random
//! reads over 2 MiB and 32 MiB tables tracked it worst. The per-workload
//! shares and powers are then fitted on whole passes (see
//! `workloads::pace_model`). The reference unit times are the units' times
//! run alone on a quiet 2-vCPU Xeon VM; between simulator calls the stream
//! unit reads about twice as slow, which the fitted models absorb.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Probe time as a share of the interval it rescales.
const PROBE_SHARE: f64 = 0.04;
/// Calls ending sooner than this after the last probe are rescaled by the
/// last probe's factor instead of probing again.
const MIN_INTERVAL_NS: f64 = 500_000.0;
/// Host time of one map unit run alone on the reference host.
const MAP_REF_NS: f64 = 8_000.0;
/// Host time of one stream unit run alone on the reference host.
const STREAM_REF_NS: f64 = 22_500.0;
/// Stream table size in `u64`s (1 MiB).
const STREAM_WORDS: usize = 1 << 17;

/// One probe thread's state.
struct Probe {
    table: Vec<u64>,
    x: u64,
}

impl Probe {
    fn new(salt: u64) -> Self {
        let mut probe = Probe { table: Vec::new(), x: 0x9E37_79B9_7F4A_7C15 ^ salt };
        probe.table = (0..STREAM_WORDS).map(|_| probe.next()).collect();
        probe
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn map_unit(&mut self) {
        let (mut hash, mut tree) = (HashMap::new(), BTreeMap::new());
        for _ in 0..32 {
            let x = self.next();
            hash.insert(x & 1023, x);
            tree.insert(x & 511, x);
        }
        let mut acc = 0u64;
        for k in 0..64u64 {
            acc ^= hash.get(&k).copied().unwrap_or(0);
            acc ^= tree.range(k * 8..).next().map_or(0, |(_, v)| *v);
        }
        self.x ^= std::hint::black_box(acc) & 1;
    }

    fn stream_unit(&mut self) {
        let sum = self.table.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        self.x ^= std::hint::black_box(sum) & 1;
    }

    /// Runs `rounds` probe rounds; the slowdowns of the map and the stream
    /// unit they measure.
    fn run(&mut self, rounds: u64) -> [f64; 2] {
        let (mut map_ns, mut stream_ns) = (0.0, 0.0);
        for _ in 0..rounds {
            let start = Instant::now();
            self.map_unit();
            self.map_unit();
            let mid = Instant::now();
            self.stream_unit();
            map_ns += (mid - start).as_nanos() as f64 / 2.0;
            stream_ns += mid.elapsed().as_nanos() as f64;
        }
        let n = rounds as f64;
        [map_ns / n / MAP_REF_NS, stream_ns / n / STREAM_REF_NS]
    }
}

/// How a workload's host time follows the probe: it slows down
/// `(map_share × map + (1 − map_share) × stream)^exponent` times when the
/// map and stream units slow down `map` and `stream` times.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub map_share: f64,
    pub exponent: f64,
}

/// A clock in reference-host nanoseconds, advanced by [`Pacer::tick`].
pub struct Pacer {
    /// One probe per thread the workload runs on, all run at once.
    probes: Vec<Probe>,
    /// Reference-host nanoseconds elapsed outside probes.
    clock_ns: f64,
    /// Host nanoseconds elapsed outside probes.
    host_ns: f64,
    /// End of the last probe.
    mark: Instant,
    model: Model,
    /// Map and stream slowdowns the last probe measured.
    last: [f64; 2],
    /// Host nanoseconds × map and stream slowdown, summed over intervals.
    weighted: [f64; 2],
    /// Reference time ÷ host time applied by the last tick.
    factor: f64,
}

impl Pacer {
    /// A pacer probing on `threads` threads, for a workload whose time
    /// follows the probe as `model` says.
    pub fn new(threads: usize, model: Model) -> Self {
        let probes = (0..threads.max(1) as u64).map(Probe::new).collect();
        let mut pacer = Pacer {
            probes,
            clock_ns: 0.0,
            host_ns: 0.0,
            mark: Instant::now(),
            model,
            last: [1.0; 2],
            weighted: [0.0; 2],
            factor: 1.0,
        };
        pacer.probe(8);
        pacer.last = pacer.probe(8);
        pacer.factor = 1.0 / pacer.slowdown(pacer.last);
        pacer.mark = Instant::now();
        pacer
    }

    fn slowdown(&self, [map, stream]: [f64; 2]) -> f64 {
        let Model { map_share, exponent } = self.model;
        (map_share * map + (1.0 - map_share) * stream).powf(exponent)
    }

    /// Runs `rounds` rounds on every probe thread at once; mean slowdowns.
    fn probe(&mut self, rounds: u64) -> [f64; 2] {
        if let [probe] = self.probes.as_mut_slice() {
            return probe.run(rounds);
        }
        std::thread::scope(|s| {
            let runs: Vec<_> =
                self.probes.iter_mut().map(|p| s.spawn(move || p.run(rounds))).collect();
            let n = runs.len() as f64;
            runs.into_iter()
                .map(|r| r.join().expect("probe thread"))
                .fold([0.0; 2], |acc, s| [acc[0] + s[0] / n, acc[1] + s[1] / n])
        })
    }

    /// Closes the interval since the last probe: probes the host, advances
    /// the clock by the interval in reference time and returns the factor
    /// (reference time ÷ host time) it applied.
    pub fn tick(&mut self) -> f64 {
        let interval_ns = self.mark.elapsed().as_nanos() as f64;
        let round_ns = 2.0 * MAP_REF_NS * self.last[0] + STREAM_REF_NS * self.last[1];
        let rounds = ((interval_ns * PROBE_SHARE / round_ns) as u64).max(1);
        let now = self.probe(rounds);
        let mean = [(self.last[0] + now[0]) / 2.0, (self.last[1] + now[1]) / 2.0];
        self.factor = 1.0 / self.slowdown(mean);
        self.clock_ns += interval_ns * self.factor;
        self.host_ns += interval_ns;
        self.weighted[0] += interval_ns * mean[0];
        self.weighted[1] += interval_ns * mean[1];
        self.last = now;
        self.mark = Instant::now();
        self.factor
    }

    /// `ns` of host time spent in a call that just ended, in reference
    /// time: probes if the last probe is at least [`MIN_INTERVAL_NS`] old.
    pub fn scale(&mut self, ns: f64) -> f64 {
        let factor = if self.mark.elapsed().as_nanos() as f64 >= MIN_INTERVAL_NS {
            self.tick()
        } else {
            self.factor
        };
        ns * factor
    }

    /// Ticks, then reads the clock in reference-host seconds.
    pub fn now_s(&mut self) -> f64 {
        self.tick();
        self.clock_ns / 1e9
    }

    /// Host and reference nanoseconds ticked so far, probes excluded, and
    /// the host-time-weighted sums of the map and stream slowdowns.
    pub fn totals(&self) -> [f64; 4] {
        [self.host_ns, self.clock_ns, self.weighted[0], self.weighted[1]]
    }
}
