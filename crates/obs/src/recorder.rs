//! [`Recorder`] — the emitter-side bundle for components that keep their
//! own step clocks (the baseline architecture models, host-side tools).
//!
//! The PPA controller drives a [`TraceSink`]
//! directly because it owns the authoritative step counter. Everything
//! else — the hypercube/GCN/mesh cost models, host utilities — goes
//! through a `Recorder`, which carries a sink, a [`Metrics`] registry and
//! a monotonically advancing step clock, so all architectures emit
//! profiles in the same format and the same time unit.

use crate::metrics::Metrics;
use crate::trace::{Event, TraceSink};

/// A sink + metrics + step-clock bundle for self-clocked emitters.
pub struct Recorder {
    sink: Box<dyn TraceSink>,
    /// The metrics registry fed alongside the trace.
    pub metrics: Metrics,
    clock: u64,
    depth: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("metrics", &self.metrics)
            .field("clock", &self.clock)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Wraps a sink; the clock starts at step 0.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        Recorder {
            sink: Box::new(sink),
            metrics: Metrics::new(),
            clock: 0,
            depth: 0,
        }
    }

    /// The current step clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Opens a span at the current clock.
    pub fn enter(&mut self, name: &str) {
        self.sink.enter_span(name, self.clock);
        self.depth += 1;
    }

    /// Closes the innermost span at the current clock.
    pub fn exit(&mut self) {
        if self.depth > 0 {
            self.depth -= 1;
            self.sink.exit_span(self.clock);
        }
    }

    /// Emits one event of `class` covering `dur` steps, advances the
    /// clock, and bumps the `steps.<class>` counter.
    pub fn advance(&mut self, class: &str, dur: u64) {
        if dur == 0 {
            return;
        }
        self.sink.event(&Event {
            class,
            step: self.clock,
            dur,
            label: None,
            occupancy: None,
            clusters: None,
        });
        self.clock += dur;
        self.metrics.inc(&format!("steps.{class}"), dur);
        self.metrics.inc("steps.total", dur);
    }

    /// Closes any open spans and returns the metrics registry.
    pub fn finish(mut self) -> Metrics {
        while self.depth > 0 {
            self.exit();
        }
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;

    #[test]
    fn recorder_advances_clock_and_metrics() {
        let sink = MemorySink::new();
        let mut r = Recorder::new(sink.clone());
        r.enter("solve");
        r.advance("word-op", 16);
        r.advance("flag-op", 1);
        r.exit();
        assert_eq!(r.clock(), 17);
        let m = r.finish();
        assert_eq!(m.counter("steps.word-op"), 16);
        assert_eq!(m.counter("steps.total"), 17);
        assert!(sink.balanced());
        assert_eq!(sink.total_steps(), 17);
    }

    #[test]
    fn finish_closes_open_spans() {
        let sink = MemorySink::new();
        let mut r = Recorder::new(sink.clone());
        r.enter("a");
        r.enter("b");
        r.advance("x", 1);
        let _ = r.finish();
        assert!(sink.balanced());
    }

    #[test]
    fn zero_duration_events_are_dropped() {
        let sink = MemorySink::new();
        let mut r = Recorder::new(sink.clone());
        r.advance("x", 0);
        assert_eq!(r.clock(), 0);
        assert_eq!(sink.records().len(), 0);
    }
}
