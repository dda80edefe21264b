//! Wall-clock spans recorded around the benchmark's own calls into the
//! simulator's layers.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`]. The
//! pair always returns the call's host duration (the untraced run needs it
//! for launch latencies); only a tracer built with `on = true` also keeps
//! the span, with its parent and a work count, for the per-layer table and
//! the Chrome-trace artifact. A *paced* tracer instead measures in
//! reference-host time (see [`crate::pace`]): it probes the host after
//! every call made directly inside the pass and returns durations rescaled
//! by the host speed around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::pace::{Model, Pacer};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.switch_to`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the call did (pages, objects, …); 0 when not counted.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Token returned by [`Tracer::begin`].
pub struct Open {
    start: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Calls open right now, counted whether or not spans are kept.
    depth: usize,
    pacer: Option<Pacer>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            pacer: None,
        }
    }

    /// An untraced tracer whose durations and clock are in reference-host
    /// time (see [`Pacer::new`]).
    pub fn paced(threads: usize, model: Model) -> Self {
        Tracer { pacer: Some(Pacer::new(threads, model)), ..Tracer::new(false) }
    }

    /// The clock, in seconds: reference-host time when paced, host time
    /// since the tracer's epoch otherwise.
    pub fn now_s(&mut self) -> f64 {
        match &mut self.pacer {
            Some(pacer) => pacer.now_s(),
            None => self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// [`Pacer::totals`], all 0 when unpaced.
    pub fn pace_totals(&self) -> [f64; 4] {
        self.pacer.as_ref().map_or([0.0; 4], Pacer::totals)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.depth += 1;
        let start = Instant::now();
        if self.on {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                work: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
        Open { start }
    }

    /// Closes the innermost open span and returns its duration in
    /// nanoseconds (measured whether or not spans are kept; rescaled to
    /// the reference host when paced).
    pub fn end(&mut self, open: Open, work: u64) -> f64 {
        let end = Instant::now();
        self.depth -= 1;
        if self.on {
            let idx = self.open.pop().expect("end without begin");
            self.spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
            self.spans[idx].work = work;
        }
        let ns = (end - open.start).as_nanos() as f64;
        match &mut self.pacer {
            Some(pacer) if self.depth <= 1 => pacer.scale(ns),
            _ => ns,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Total duration (ns) and total work of every span called `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(d, w), s| (d + s.dur_ns() as f64, w + s.work))
}

/// Self time in nanoseconds, summed by `key`: each span's duration minus
/// the part its direct children cover.
fn self_time_by(
    spans: &[Span],
    key: impl Fn(&Span) -> &'static str,
) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_key = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        *by_key.entry(key(s)).or_insert(0) += s.dur_ns().saturating_sub(child);
    }
    by_key
}

/// Self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    self_time_by(spans, Span::layer)
}

/// Self time per span name, in nanoseconds.
pub fn self_time_by_call(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    self_time_by(spans, |s| s.name)
}

/// The spans as Chrome trace-event JSON (one complete `X` event each, on
/// one track, ordered so parents precede the children they enclose).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns), i));
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"perfbench\"}}",
    );
    for i in order {
        let s = &spans[i];
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{}#{p}\"", spans[p].name));
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":\"{}#{i}\",\"parent\":{parent},\"work\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.name,
            s.work,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, work: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("core.switch_to", 10, 40, Some(0)),
            span("core.run", 50, 90, Some(0)),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 30);
        assert_eq!(by_layer["core"], 70);
    }

    #[test]
    fn chrome_trace_validates() {
        let spans = vec![
            span("bench.pass", 0, 10_000, None),
            span("core.switch_to", 0, 4_000, Some(0)),
            span("core.run", 4_000, 9_000, Some(0)),
        ];
        let summary = fleet_obs::validate_chrome_trace(&chrome_trace(&spans)).unwrap();
        assert_eq!(summary.spans, 3);
    }
}
