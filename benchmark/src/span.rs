//! In-memory span recorder for the traced replay.
//!
//! A span is a named interval plus the span that was open when it
//! started. Spans stay in memory until the replay ends; self times are
//! computed afterwards. The replay runs on one thread, so the children of
//! a span never overlap and the time they cover is the sum of their
//! durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `udg.walk`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregated self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Number of spans with this name.
    pub calls: u64,
    /// Sum of their self times, in seconds.
    pub self_s: f64,
}

/// Records spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    /// Attribution check hook: sleep this long inside every span of this
    /// name, before the wrapped call runs.
    delay: Option<(&'static str, Duration)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            delay: None,
        }
    }

    /// A recorder that adds `delay` inside every span named `name`; the
    /// attribution test uses it to check that the added time lands in
    /// that span's self time and nowhere else.
    #[cfg(test)]
    #[must_use]
    pub fn with_delay(name: &'static str, delay: Duration) -> Self {
        Recorder {
            delay: Some((name, delay)),
            ..Recorder::new()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        if let Some((delayed, delay)) = self.delay {
            if delayed == name {
                std::thread::sleep(delay);
            }
        }
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.epoch.elapsed();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its children
/// cover.
fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.duration();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Calls and summed self time per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_s += self_time.as_secs_f64();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        rec.span("outer", || {
            std::thread::sleep(Duration::from_millis(20));
            rec.span("inner", || std::thread::sleep(Duration::from_millis(30)));
        });
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        assert!(t["inner"].self_s >= 0.030);
        assert!(t["outer"].self_s >= 0.020 && t["outer"].self_s < 0.030 + 0.020);
        let sum: f64 = t.values().map(|l| l.self_s).sum();
        let wall = spans[0].duration().as_secs_f64();
        assert!((sum - wall).abs() < 1e-9, "self times add up to the root");
    }

    #[test]
    fn delay_lands_in_the_named_span() {
        let rec = Recorder::with_delay("slow", Duration::from_millis(15));
        rec.span("root", || {
            rec.span("slow", || ());
            rec.span("fast", || ());
        });
        let t = totals(&rec.spans());
        assert!(t["slow"].self_s >= 0.015);
        assert!(t["fast"].self_s < 0.015);
        assert!(t["root"].self_s < 0.015);
    }
}
