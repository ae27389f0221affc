//! Host-time measurement: a monotonic clock and an in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! library layer. A span's name is `<layer>.<call>`, where the layer is the
//! crate the call enters (`sim`, `profilers`, `core`, `policy`, `emul`,
//! `workloads`) or `bench` for the benchmark's own bookkeeping. Spans stay
//! in memory and are written out once the run ends.

use std::fmt::Write as _;
use std::sync::OnceLock;
// tmprof-lint: allow(wall-clock) — the benchmark measures host time by design; no simulated result reads this clock
use std::time::Instant as HostInstant;

/// Monotonic host clock, in seconds since the first call in this process.
pub fn now() -> f64 {
    static ORIGIN: OnceLock<HostInstant> = OnceLock::new();
    ORIGIN.get_or_init(HostInstant::now).elapsed().as_secs_f64()
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds on the [`now`] clock.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The round the span belongs to.
    pub run: u32,
}

impl Span {
    /// The crate (or `bench`) the span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans while enabled; costs one branch per call while
/// disabled.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on or off for the rounds that follow, tagging new
    /// spans with `run`.
    pub fn set(&mut self, enabled: bool, run: u32) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
        self.run = run;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Summed duration of the spans called `name` in round `run`.
    pub fn total(&self, name: &str, run: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time of `layer` in round `run`: each of its spans' duration
    /// minus the part covered by direct children. Children never overlap
    /// (one thread records), so the covered part is their summed duration.
    pub fn self_time(&self, layer: &str, run: u32) -> f64 {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| if s.run == run { s.end - s.start } else { 0.0 })
            .collect();
        for s in self.spans.iter().filter(|s| s.run == run) {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.run == run && s.layer() == layer)
            .map(|(_, t)| t)
            .sum()
    }

    /// The spans as a JSON array, times in microseconds from the first span.
    pub fn to_json(&self) -> String {
        let origin = self.spans.first().map_or(0.0, |s| s.start);
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.run,
                (s.start - origin) * 1e6,
                (s.end - origin) * 1e6
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.set(true, 0);
        let outer = t.begin("bench.round");
        let inner = t.begin("sim.exec");
        let leaf = t.begin("workloads.gen");
        t.end(leaf);
        t.end(inner);
        t.end(outer);
        let (round, exec, leaf) = (&t.spans[0], &t.spans[1], &t.spans[2]);
        let d = |s: &Span| s.end - s.start;
        let eps = 1e-12;
        assert!((t.self_time("bench", 0) - (d(round) - d(exec))).abs() < eps);
        assert!((t.self_time("sim", 0) - (d(exec) - d(leaf))).abs() < eps);
        assert!((t.self_time("workloads", 0) - d(leaf)).abs() < eps);
        assert_eq!(t.self_time("sim", 1), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("sim.exec");
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
