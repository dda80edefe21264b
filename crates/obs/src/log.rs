//! The buffered log every instrumented component owns, and the obs record
//! type.
//!
//! Each instrumented component (the kernel memory manager, each process
//! heap) owns a [`Probes`] pair: a [`Log`] of flight-recorder events for
//! `fleet-audit` and a [`Log`] of [`ObsRecord`]s for the obs
//! [`Tracer`](crate::Tracer) and metric registry. Both are disabled by
//! default; the device enables the ones whose pipeline is installed and
//! drains each at its consumer's barriers. [`Log::push`] takes a closure that
//! only runs when the log is enabled, so a disabled log never constructs a
//! record.

/// Key:value attributes attached to a span. Keys are static names from the
/// span taxonomy (DESIGN.md §10); values are plain integers (counts, ids,
/// nanosecond durations).
pub type SpanArgs = Vec<(&'static str, u64)>;

/// One span as recorded at an instrumentation site, before placement on the
/// virtual-time tracks.
///
/// Components record spans *relatively*: `depth` gives the nesting level
/// (0 = a root span on the component's track) and `rel_start` the offset in
/// nanoseconds from the start of the enclosing depth-0 span. The
/// [`Tracer`](crate::Tracer) turns these into absolute virtual-time
/// intervals when the batch is fed, clamping children into their parents so
/// nesting is correct by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Track discriminator within the emitting component (the kernel log
    /// uses 0; heap logs use the owning pid).
    pub pid: u32,
    /// Span name from the taxonomy, e.g. `"fault_service"`, `"gc_mark"`.
    pub name: &'static str,
    /// Category, e.g. `"kernel"`, `"gc"`, `"launch"`.
    pub cat: &'static str,
    /// Nesting depth: 0 for root spans, 1 for their children, and so on.
    pub depth: u8,
    /// Start offset in nanos from the enclosing depth-0 span's start.
    pub rel_start: u64,
    /// Duration in nanos.
    pub dur: u64,
    /// Key:value attributes.
    pub args: SpanArgs,
}

/// One record in an obs [`Log`].
#[derive(Debug, Clone, PartialEq)]
pub enum ObsRecord {
    /// A virtual-time span.
    Span(SpanRec),
    /// Add `delta` to the named monotonic counter.
    Counter {
        /// Metric name, e.g. `"kernel.kswapd_reclaimed_pages"`.
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// Set the named gauge to `value`.
    Gauge {
        /// Metric name.
        name: &'static str,
        /// New value.
        value: u64,
    },
    /// Record one observation in the named latency histogram.
    Latency {
        /// Metric name, e.g. `"kernel.fault_service_ns"`.
        name: &'static str,
        /// Observed latency in nanos.
        nanos: u64,
    },
}

impl ObsRecord {
    /// A depth-0 span: a root on track `pid`, starting at its batch's
    /// anchor (or after the previous root on that track).
    pub fn root(
        pid: u32,
        name: &'static str,
        cat: &'static str,
        dur: u64,
        args: SpanArgs,
    ) -> ObsRecord {
        ObsRecord::Span(SpanRec { pid, name, cat, depth: 0, rel_start: 0, dur, args })
    }
}

/// A component-owned record buffer, disabled (and free) by default.
///
/// ```
/// use fleet_obs::Log;
///
/// let mut log: Log<(u32, u64)> = Log::default();
/// log.push(|_| unreachable!("a disabled log never builds records"));
/// log.enable(7);
/// log.push(|pid| (pid, 1));
/// assert_eq!(log.drain(), vec![(7, 1)]);
/// ```
///
/// The closure receives the log's *stamped pid*: a heap log is stamped with
/// its owning process id so heap emission sites do not need to know it; the
/// kernel's log is stamped with 0 and its sites ignore the argument.
///
/// Holding records in a plain `Vec` (rather than a shared sink) keeps the
/// owning components `Send` and the emission sites free of locking.
#[derive(Debug, Clone)]
pub struct Log<T> {
    enabled: bool,
    pid: u32,
    records: Vec<T>,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log { enabled: false, pid: 0, records: Vec::new() }
    }
}

impl<T> Log<T> {
    /// Enables recording, stamping records with `pid`.
    pub fn enable(&mut self, pid: u32) {
        self.enabled = true;
        self.pid = pid;
    }

    /// Whether the log is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records the result of `build` if enabled; `build` receives the
    /// stamped pid and is not invoked on a disabled log.
    #[inline]
    pub fn push(&mut self, build: impl FnOnce(u32) -> T) {
        if self.enabled {
            let rec = build(self.pid);
            self.records.push(rec);
        }
    }

    /// Takes all buffered records, leaving the log empty.
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.records)
    }
}

/// The two logs an instrumented component owns. `A` is the flight-recorder
/// event type (`fleet_audit::AuditEvent`, named by the owning crate so this
/// crate need not depend on `fleet-audit`).
#[derive(Debug, Clone)]
pub struct Probes<A> {
    /// Flight-recorder events, drained into the audit pipeline.
    pub audit: Log<A>,
    /// Spans and metrics, drained into the obs pipeline.
    pub obs: Log<ObsRecord>,
}

impl<A> Default for Probes<A> {
    fn default() -> Self {
        Probes { audit: Log::default(), obs: Log::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(pid: u32) -> ObsRecord {
        ObsRecord::Counter { name: "t", delta: u64::from(pid) }
    }

    #[test]
    fn disabled_log_never_builds() {
        let mut log = Log::default();
        let mut built = false;
        log.push(|_| {
            built = true;
            counter(0)
        });
        assert!(!built);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn enabled_log_stamps_pid() {
        let mut log = Log::default();
        log.enable(7);
        log.push(counter);
        assert_eq!(log.drain(), vec![ObsRecord::Counter { name: "t", delta: 7 }]);
        assert!(log.drain().is_empty());
    }
}
