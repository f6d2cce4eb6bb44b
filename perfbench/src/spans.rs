//! In-memory span recorder around the benchmark's calls into the
//! library, exported as Chrome trace-event JSON at the end of a run.
//!
//! A span has a name, a start, an end and the span that caused it.
//! Spans belong to a *group* — one set-up or one op — so a layer's
//! time is summed within a group and reported as the median over the
//! groups it appears in. When disabled, [`Spans::span`] only calls its
//! closure and [`Spans::timed`] only reads the clock.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    group: usize,
}

/// The span recorder of one run.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: usize,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), group: 0 }
    }

    /// Whether spans are being recorded (the traced run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between groups.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.enabled = enabled;
    }

    /// Starts the next group (one set-up or one op).
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span named `name` and returns its wall time,
    /// which is measured whether or not spans are recorded.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start, end: start, parent, group: self.group });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.origin.elapsed();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Per-group summed seconds of the spans named `name`, for every
    /// group that has one.
    fn group_sums(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let secs = (s.end - s.start).as_secs_f64();
            match sums.last_mut() {
                Some((group, sum)) if *group == s.group => *sum += secs,
                _ => sums.push((s.group, secs)),
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    /// Median over groups of the seconds spent in spans named `name`;
    /// 0 when no group recorded one (the layer did no work).
    pub fn median_s(&self, name: &str) -> f64 {
        crate::median(&self.group_sums(name))
    }

    /// Median over spans named `root` of the share of their wall that
    /// their direct children cover.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| {
                let covered: Duration = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.end - c.start)
                    .sum();
                covered.as_secs_f64() / (s.end - s.start).as_secs_f64()
            })
            .collect();
        crate::median(&shares)
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"group\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.group
            );
        }
        out.push_str("]}\n");
        out
    }
}
