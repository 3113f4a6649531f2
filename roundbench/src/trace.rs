//! Span collection for the traced run.
//!
//! The benchmark opens spans through the program's own `Telemetry`
//! handle, so spans it records around calls into each layer and the
//! spans the program already emits (the `round`/`client`/`wire_tx`/
//! `aggregate` seams of the strategy, the Runner's `run`/`offline`)
//! share one parent/child tree. [`SelfTimeSink`] folds that tree as it
//! closes: a span's self time is its duration minus the durations of its
//! direct children, accumulated per span name. Nothing is buffered per
//! event, so a long traced run costs O(open spans) memory.

use nebula_telemetry::{Collector, Event, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Per-name totals of closed spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
struct Fold {
    /// Summed durations of already-closed direct children, by open span id.
    child_ns: HashMap<u64, u64>,
    by_name: BTreeMap<String, SpanStat>,
}

/// A telemetry collector that keeps only per-name span totals.
#[derive(Default)]
pub struct SelfTimeSink {
    fold: Mutex<Fold>,
}

impl Collector for SelfTimeSink {
    fn record(&self, e: &Event) {
        if e.kind != "span" {
            return;
        }
        let (Some(name), Some(&dur), Some(&parent)) =
            (e.text.get("name"), e.ints.get("dur_ns"), e.ints.get("parent"))
        else {
            return;
        };
        let mut f = self.fold.lock().expect("span fold poisoned: a span closed while panicking");
        let children = f.child_ns.remove(&e.span).unwrap_or(0);
        let stat = f.by_name.entry(name.clone()).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(children);
        if parent != 0 {
            *f.child_ns.entry(parent).or_default() += dur;
        }
    }
}

/// An armed telemetry handle plus the sink folding its spans.
pub struct Tracer {
    sink: Arc<SelfTimeSink>,
    telemetry: Telemetry,
}

impl Tracer {
    pub fn new() -> Self {
        let sink = Arc::new(SelfTimeSink::default());
        let telemetry = Telemetry::new(sink.clone());
        Tracer { sink, telemetry }
    }

    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Per-name span totals closed so far.
    pub fn spans(&self) -> BTreeMap<String, SpanStat> {
        self.sink.fold.lock().expect("span fold poisoned: a span closed while panicking").by_name.clone()
    }

    /// Counter value from the program's metric registry (0 if never set).
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry.metrics().and_then(|m| m.counters.get(name).copied()).unwrap_or(0)
    }

    /// `(count, sum)` of a value histogram the program observes.
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        self.telemetry
            .metrics()
            .and_then(|m| m.histograms.get(name).map(|h| (h.count, h.sum)))
            .unwrap_or((0, 0.0))
    }
}

/// Summed self time in ms of the named spans.
pub fn self_ms(spans: &BTreeMap<String, SpanStat>, names: &[&str]) -> f64 {
    names.iter().filter_map(|n| spans.get(*n)).map(|s| s.self_ns as f64 / 1e6).sum()
}

/// Summed self time in ms of every span except the `glue` ones — the
/// benchmark's own loop spans, whose self time is time no layer claimed.
pub fn attributed_ms(spans: &BTreeMap<String, SpanStat>, glue: &[&str]) -> f64 {
    spans.iter().filter(|(n, _)| !glue.contains(&n.as_str())).map(|(_, s)| s.self_ns as f64 / 1e6).sum()
}

/// The per-layer table as text: every span name with its call count and
/// self/total time per round.
pub fn table(spans: &BTreeMap<String, SpanStat>, rounds: usize) -> Vec<String> {
    let r = rounds.max(1) as f64;
    let mut lines = vec![format!(
        "{:<24} {:>12} {:>14} {:>14}",
        "span", "calls/round", "self ms/round", "total ms/round"
    )];
    for (name, s) in spans {
        lines.push(format!(
            "{name:<24} {:>12.1} {:>14.3} {:>14.3}",
            s.count as f64 / r,
            s.self_ns as f64 / 1e6 / r,
            s.total_ns as f64 / 1e6 / r
        ));
    }
    lines
}

/// Number of closed spans with this name.
pub fn count(spans: &BTreeMap<String, SpanStat>, name: &str) -> u64 {
    spans.get(name).map_or(0, |s| s.count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tracer = Tracer::new();
        let t = tracer.telemetry();
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _mid = t.span("mid");
                std::thread::sleep(std::time::Duration::from_millis(4));
                let _leaf = t.span("leaf");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let s = tracer.spans();
        let (outer, mid, leaf) = (s["outer"], s["mid"], s["leaf"]);
        assert_eq!((outer.count, mid.count, leaf.count), (1, 1, 1));
        // Self times partition the root's duration exactly.
        assert_eq!(outer.self_ns + mid.self_ns + leaf.self_ns, outer.total_ns);
        assert_eq!(mid.total_ns, mid.self_ns + leaf.total_ns);
        assert!(leaf.self_ns >= 4_000_000);
    }
}
