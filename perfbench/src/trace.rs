//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. They stay
//! in memory until the run ends and are then written out as Chrome
//! trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records spans when `enabled`; otherwise [`Recorder::span`] only runs
/// the closure, so an untraced replay measures the same calls.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            *out.entry(span.name).or_default() += (span.end - span.start).saturating_sub(covered);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}{sep}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let times = rec.self_times();
        assert!(times["inner"] >= Duration::from_millis(5));
        assert!(times["outer"] < times["inner"]);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
