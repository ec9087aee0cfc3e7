//! The SIMD program controller: instruction classes and step accounting.
//!
//! The PPA executes one controller instruction per time step; all PEs obey
//! it simultaneously (SIMD). The paper's complexity analysis counts these
//! steps: "considering that all the statements have O(1) complexity, and
//! that a h-iteration loop must be executed, the two \[min\] algorithms have
//! O(h) complexity". The [`Controller`] is the measuring instrument that
//! turns those claims into reproducible numbers: every primitive issued on
//! a [`Machine`](crate::Machine) records exactly one step, classified by
//! [`Op`], and a [`StepReport`] snapshots the tallies.

use ppa_obs::{Event, Metrics, OccupancySampling, TraceSink};
use std::fmt;

/// Classification of controller instructions, for step breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A parallel ALU/assignment operation (elementwise compute, masked
    /// writes, immediate loads).
    Alu,
    /// A nearest-neighbour `shift` transfer.
    Shift,
    /// A reconfigurable-bus `broadcast`.
    Broadcast,
    /// A wired-OR over bus clusters.
    BusOr,
    /// The controller's global-OR ("did any PE raise its flag?") used for
    /// data-dependent loop exits such as the MCP do-while condition.
    GlobalOr,
}

impl Op {
    /// All instruction classes, in the order used by reports.
    pub const ALL: [Op; 5] = [Op::Alu, Op::Shift, Op::Broadcast, Op::BusOr, Op::GlobalOr];

    fn slot(self) -> usize {
        match self {
            Op::Alu => 0,
            Op::Shift => 1,
            Op::Broadcast => 2,
            Op::BusOr => 3,
            Op::GlobalOr => 4,
        }
    }

    /// Short lowercase label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Op::Alu => "alu",
            Op::Shift => "shift",
            Op::Broadcast => "broadcast",
            Op::BusOr => "bus-or",
            Op::GlobalOr => "global-or",
        }
    }

    /// The metrics counter name for this class (`steps.<label>`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Op::Alu => "steps.alu",
            Op::Shift => "steps.shift",
            Op::Broadcast => "steps.broadcast",
            Op::BusOr => "steps.bus-or",
            Op::GlobalOr => "steps.global-or",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Step tallies of a controller, frozen at some instant.
///
/// Subtracting two reports (`later.since(&earlier)`) isolates a phase, which
/// is how the experiment harness attributes steps to initialization,
/// iteration bodies, and `min`/`selected_min` invocations separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepReport {
    counts: [u64; 5],
}

impl StepReport {
    /// Steps recorded for one instruction class.
    pub fn count(&self, op: Op) -> u64 {
        self.counts[op.slot()]
    }

    /// Total steps across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The difference `self - earlier`, attributing steps to a phase.
    ///
    /// # Panics
    /// Panics if `earlier` has more steps than `self` in any class (reports
    /// must come from the same monotonically counting controller). Use
    /// [`StepReport::checked_since`] to handle that case without panicking.
    pub fn since(&self, earlier: &StepReport) -> StepReport {
        self.checked_since(earlier)
            .expect("StepReport::since: earlier report is not a prefix of self")
    }

    /// The difference `self - earlier`, or `None` if `earlier` exceeds
    /// `self` in any class (i.e. the reports do not come from the same
    /// monotonically counting controller, typically after a reset).
    pub fn checked_since(&self, earlier: &StepReport) -> Option<StepReport> {
        let mut counts = [0u64; 5];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].checked_sub(earlier.counts[i])?;
        }
        Some(StepReport { counts })
    }

    /// Adds another report's tallies to this one (for aggregating phases).
    pub fn add(&self, other: &StepReport) -> StepReport {
        let mut counts = [0u64; 5];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i] + other.counts[i];
        }
        StepReport { counts }
    }
}

impl fmt::Display for StepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} steps (", self.total())?;
        let mut first = true;
        for op in Op::ALL {
            let c = self.count(op);
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", op.label(), c)?;
                first = false;
            }
        }
        write!(f, ")")
    }
}

/// One trace record: which instruction ran, with an optional label supplied
/// by the issuing primitive (e.g. `"mcp: statement 10"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Instruction class.
    pub op: Op,
    /// Sequence number (0-based step index at which it ran).
    pub step: u64,
    /// Human-readable label, if tracing with labels.
    pub label: Option<String>,
}

/// The SIMD program controller: counts every issued instruction, can
/// optionally keep a full trace, and — when observability is enabled —
/// feeds a [`TraceSink`] with hierarchical spans and a [`Metrics`]
/// registry with per-class step counters.
///
/// Observation is structured as:
/// * **named spans** ([`Controller::enter_span`]/[`Controller::exit_span`])
///   for algorithm structure (`mcp`, `iteration[3]`, ...);
/// * **phase frames** ([`Controller::set_phase`]) for paper-statement
///   labels; a phase frame always lives at the top of the span stack, so
///   setting a new phase replaces the previous one and entering a named
///   span closes any open phase frame first.
#[derive(Default)]
pub struct Controller {
    counts: [u64; 5],
    trace: Option<Vec<TraceEntry>>,
    /// Label attached to every recorded instruction while set (used by
    /// algorithms to attribute steps to their phases, e.g. `"stmt 11"`).
    phase: Option<&'static str>,
    sink: Option<Box<dyn TraceSink>>,
    metrics: Option<Metrics>,
    /// Named spans currently open in the sink (excludes the phase frame).
    span_depth: u64,
    /// Whether a phase frame is open in the sink.
    phase_open: bool,
    /// How often observed instructions compute activity statistics.
    sampling: OccupancySampling,
    /// Eligible instructions seen by the sampler so far.
    sample_tick: u64,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("counts", &self.counts)
            .field("trace", &self.trace)
            .field("phase", &self.phase)
            .field("sink", &self.sink.as_ref().map(|_| "<dyn TraceSink>"))
            .field("metrics", &self.metrics)
            .field("span_depth", &self.span_depth)
            .finish()
    }
}

impl Clone for Controller {
    /// Clones counters, trace, phase label, and metrics. The trace sink is
    /// **not** cloned — a clone starts un-observed (sinks are single-writer
    /// by design; install a fresh handle on the clone to observe it).
    fn clone(&self) -> Self {
        Controller {
            counts: self.counts,
            trace: self.trace.clone(),
            phase: self.phase,
            sink: None,
            metrics: self.metrics.clone(),
            span_depth: 0,
            phase_open: false,
            sampling: self.sampling,
            sample_tick: self.sample_tick,
        }
    }
}

impl Controller {
    /// A fresh controller with zeroed counters and tracing disabled.
    pub fn new() -> Self {
        Controller::default()
    }

    // ----- observability ---------------------------------------------------

    /// Installs a trace sink: every subsequent instruction is emitted as an
    /// event, and spans/phases are forwarded as the span hierarchy.
    /// Replaces (and drops) any previously installed sink.
    pub fn install_sink(&mut self, sink: impl TraceSink + 'static) {
        self.sink = Some(Box::new(sink));
        self.span_depth = 0;
        self.phase_open = false;
        if let Some(p) = self.phase {
            self.open_phase_frame(p);
        }
    }

    /// Removes the sink, closing any spans it still has open at the current
    /// step (so sinks like the Chrome exporter see balanced frames).
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.close_phase_frame();
        while self.span_depth > 0 {
            self.span_depth -= 1;
            let step = self.total_steps();
            if let Some(s) = &mut self.sink {
                s.exit_span(step);
            }
        }
        self.sink.take()
    }

    /// Whether a trace sink is installed.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Starts collecting metrics (per-class step counters; the machine adds
    /// bus/mask activity). No-op if already collecting.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Metrics::new());
        }
    }

    /// Stops collecting and returns the metrics gathered so far.
    pub fn take_metrics(&mut self) -> Metrics {
        self.metrics.take().unwrap_or_default()
    }

    /// The live metrics registry, if collecting (for emitters that record
    /// their own counters/histograms, e.g. bus cluster sizes).
    pub fn metrics_mut(&mut self) -> Option<&mut Metrics> {
        self.metrics.as_mut()
    }

    /// Whether any observer (sink or metrics) is attached — primitives use
    /// this to skip computing occupancy/cluster statistics on hot paths.
    pub fn observing(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// Sets how often observed instructions compute activity statistics
    /// (mask occupancy and bus cluster counts). The default,
    /// [`OccupancySampling::EveryStep`], is the historical behavior; step
    /// counters are never affected by this policy.
    pub fn set_occupancy_sampling(&mut self, sampling: OccupancySampling) {
        self.sampling = sampling;
        self.sample_tick = 0;
    }

    /// The current activity-sampling policy.
    pub fn occupancy_sampling(&self) -> OccupancySampling {
        self.sampling
    }

    /// One sampling decision for the instruction about to be issued.
    /// Callers make exactly one call per eligible (observed) instruction;
    /// the decision gates *all* of that instruction's activity statistics.
    pub fn sample_activity(&mut self) -> bool {
        let tick = self.sample_tick;
        self.sample_tick += 1;
        self.sampling.samples_at(tick)
    }

    /// Opens a named span (e.g. `"iteration[3]"`) at the current step.
    /// Closes any open phase frame first, so phases never span structural
    /// boundaries.
    pub fn enter_span(&mut self, name: &str) {
        self.close_phase_frame();
        if let Some(s) = &mut self.sink {
            s.enter_span(name, self.counts.iter().sum());
            self.span_depth += 1;
        }
    }

    /// Named spans currently open on the installed sink (0 without one).
    pub fn span_depth(&self) -> u64 {
        self.span_depth
    }

    /// Closes the innermost named span (and any phase frame inside it).
    /// If a phase is still set, its frame reopens at the outer level, so
    /// steps issued after a nested routine under the same statement stay
    /// attributed to it.
    pub fn exit_span(&mut self) {
        self.close_phase_frame();
        if self.span_depth > 0 {
            self.span_depth -= 1;
            let step = self.total_steps();
            if let Some(s) = &mut self.sink {
                s.exit_span(step);
            }
        }
        if let Some(p) = self.phase {
            self.open_phase_frame(p);
        }
    }

    fn open_phase_frame(&mut self, name: &str) {
        if let Some(s) = &mut self.sink {
            s.enter_span(name, self.counts.iter().sum());
            self.phase_open = true;
        }
    }

    fn close_phase_frame(&mut self) {
        if self.phase_open {
            self.phase_open = false;
            let step = self.total_steps();
            if let Some(s) = &mut self.sink {
                s.exit_span(step);
            }
        }
    }

    /// Enables instruction tracing (records every step until disabled).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Disables tracing and returns the collected trace, if any.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.take().unwrap_or_default()
    }

    /// Records one instruction of class `op` (labelled with the current
    /// phase, if one is set).
    #[inline]
    pub fn record(&mut self, op: Op) {
        let phase = self.phase;
        self.record_observed(op, phase, None, None);
    }

    /// Records one instruction with an explicit label (kept only if
    /// tracing or observing; overrides the current phase).
    #[inline]
    pub fn record_labeled(&mut self, op: Op, label: Option<&str>) {
        self.record_observed(op, label, None, None);
    }

    /// Records one instruction with activity statistics attached: the
    /// fraction of PEs active under the instruction's mask and/or the
    /// number of bus clusters driven. The statistics flow to the trace
    /// sink only; primitives compute them only when
    /// [`Controller::observing`].
    pub fn record_observed(
        &mut self,
        op: Op,
        label: Option<&str>,
        occupancy: Option<f64>,
        clusters: Option<u64>,
    ) {
        let step = self.total_steps();
        self.counts[op.slot()] += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                op,
                step,
                label: label.map(str::to_owned),
            });
        }
        if let Some(s) = &mut self.sink {
            s.event(&Event {
                class: op.label(),
                step,
                dur: 1,
                label,
                occupancy,
                clusters,
            });
        }
        if let Some(m) = &mut self.metrics {
            m.inc(op.metric_name(), 1);
            m.inc("steps.total", 1);
        }
    }

    /// Sets (or clears) the phase label attached to subsequent records.
    /// Phases cost no steps; they surface in traces and, when a sink is
    /// installed, as the innermost span frame.
    pub fn set_phase(&mut self, phase: Option<&'static str>) {
        if self.phase != phase {
            self.close_phase_frame();
            if let Some(p) = phase {
                self.open_phase_frame(p);
            }
        }
        self.phase = phase;
    }

    /// The current phase label.
    pub fn phase(&self) -> Option<&'static str> {
        self.phase
    }

    /// Total instructions issued so far.
    pub fn total_steps(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Instructions of one class issued so far.
    pub fn steps(&self, op: Op) -> u64 {
        self.counts[op.slot()]
    }

    /// Snapshot of the current tallies.
    pub fn report(&self) -> StepReport {
        StepReport {
            counts: self.counts,
        }
    }

    /// Zeroes all counters (and drops any collected trace entries).
    ///
    /// The step clock restarts at 0, so install sinks *after* resetting —
    /// an already-installed sink would see time move backwards.
    pub fn reset(&mut self) {
        self.counts = [0; 5];
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }
}

/// Aggregates a trace into `(label, steps)` pairs in order of first
/// appearance; unlabelled instructions fall into the `"(unattributed)"`
/// bucket.
pub fn phase_histogram(trace: &[TraceEntry]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for entry in trace {
        let label = entry
            .label
            .clone()
            .unwrap_or_else(|| "(unattributed)".to_owned());
        match out.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => out.push((label, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_increments_counts() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        c.record(Op::Alu);
        c.record(Op::Broadcast);
        assert_eq!(c.steps(Op::Alu), 2);
        assert_eq!(c.steps(Op::Broadcast), 1);
        assert_eq!(c.total_steps(), 3);
    }

    #[test]
    fn report_since_isolates_phase() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        let before = c.report();
        c.record(Op::Shift);
        c.record(Op::BusOr);
        let phase = c.report().since(&before);
        assert_eq!(phase.total(), 2);
        assert_eq!(phase.count(Op::Alu), 0);
        assert_eq!(phase.count(Op::Shift), 1);
        assert_eq!(phase.count(Op::BusOr), 1);
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn since_rejects_non_prefix() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        let later = c.report();
        c.reset();
        c.record(Op::Shift);
        let other = c.report();
        let _ = other.since(&later);
    }

    #[test]
    fn add_merges_reports() {
        let mut a = Controller::new();
        a.record(Op::Alu);
        let mut b = Controller::new();
        b.record(Op::GlobalOr);
        b.record(Op::Alu);
        let sum = a.report().add(&b.report());
        assert_eq!(sum.total(), 3);
        assert_eq!(sum.count(Op::Alu), 2);
    }

    #[test]
    fn trace_captures_labels_and_order() {
        let mut c = Controller::new();
        c.enable_trace();
        c.record_labeled(Op::Broadcast, Some("stmt 10"));
        c.record(Op::Alu);
        let t = c.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].op, Op::Broadcast);
        assert_eq!(t[0].step, 0);
        assert_eq!(t[0].label.as_deref(), Some("stmt 10"));
        assert_eq!(t[1].step, 1);
        assert_eq!(t[1].label, None);
    }

    #[test]
    fn phases_label_records_and_histogram_aggregates() {
        let mut c = Controller::new();
        c.enable_trace();
        c.set_phase(Some("init"));
        c.record(Op::Alu);
        c.record(Op::Broadcast);
        c.set_phase(Some("loop"));
        c.record(Op::BusOr);
        c.set_phase(None);
        c.record(Op::Alu);
        assert_eq!(c.phase(), None);
        let trace = c.take_trace();
        let hist = phase_histogram(&trace);
        assert_eq!(
            hist,
            vec![
                ("init".to_owned(), 2),
                ("loop".to_owned(), 1),
                ("(unattributed)".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn phases_without_tracing_cost_nothing() {
        let mut c = Controller::new();
        c.set_phase(Some("x"));
        c.record(Op::Alu);
        assert_eq!(c.total_steps(), 1);
        assert!(c.take_trace().is_empty());
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        c.reset();
        assert_eq!(c.total_steps(), 0);
    }

    #[test]
    fn checked_since_returns_none_instead_of_panicking() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        let later = c.report();
        c.reset();
        c.record(Op::Shift);
        assert_eq!(c.report().checked_since(&later), None);
        c.record(Op::Alu);
        let diff = c.report().checked_since(&later).unwrap();
        assert_eq!(diff.count(Op::Shift), 1);
        assert_eq!(diff.count(Op::Alu), 0);
    }

    #[test]
    fn sink_sees_spans_phases_and_events() {
        let sink = ppa_obs::MemorySink::new();
        let mut c = Controller::new();
        c.install_sink(sink.clone());
        c.enter_span("mcp");
        c.set_phase(Some("setup"));
        c.record(Op::Alu);
        c.record(Op::Broadcast);
        c.enter_span("iteration[0]");
        c.set_phase(Some("stmt 11"));
        c.record(Op::BusOr);
        c.exit_span();
        c.set_phase(None);
        c.exit_span();
        let _ = c.take_sink();
        assert!(sink.balanced());
        assert_eq!(sink.total_steps(), c.total_steps());
        assert_eq!(
            sink.span_totals(),
            vec![
                ("mcp > setup".to_owned(), 2),
                ("mcp > iteration[0] > stmt 11".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn take_sink_closes_open_frames() {
        let sink = ppa_obs::MemorySink::new();
        let mut c = Controller::new();
        c.install_sink(sink.clone());
        c.enter_span("left");
        c.set_phase(Some("open"));
        c.record(Op::Alu);
        assert!(!sink.balanced());
        let _ = c.take_sink();
        assert!(sink.balanced());
        assert!(!c.has_sink());
    }

    #[test]
    fn metrics_count_steps_by_class() {
        let mut c = Controller::new();
        c.enable_metrics();
        c.record(Op::Alu);
        c.record(Op::Alu);
        c.record(Op::GlobalOr);
        let m = c.take_metrics();
        assert_eq!(m.counter("steps.alu"), 2);
        assert_eq!(m.counter("steps.global-or"), 1);
        assert_eq!(m.counter("steps.total"), 3);
        for op in Op::ALL {
            assert_eq!(m.counter(op.metric_name()), c.report().count(op));
        }
    }

    #[test]
    fn clone_drops_sink_but_keeps_counters() {
        let sink = ppa_obs::MemorySink::new();
        let mut c = Controller::new();
        c.install_sink(sink);
        c.record(Op::Alu);
        let clone = c.clone();
        assert!(!clone.has_sink());
        assert_eq!(clone.total_steps(), 1);
    }

    #[test]
    fn repeated_set_phase_replaces_frame() {
        let sink = ppa_obs::MemorySink::new();
        let mut c = Controller::new();
        c.install_sink(sink.clone());
        c.set_phase(Some("a"));
        c.record(Op::Alu);
        c.set_phase(Some("b"));
        c.record(Op::Shift);
        c.set_phase(None);
        let _ = c.take_sink();
        assert!(sink.balanced());
        assert_eq!(
            sink.span_totals(),
            vec![("a".to_owned(), 1), ("b".to_owned(), 1)]
        );
    }

    #[test]
    fn display_lists_nonzero_classes() {
        let mut c = Controller::new();
        c.record(Op::Alu);
        c.record(Op::BusOr);
        let s = c.report().to_string();
        assert!(s.contains("alu: 1"), "{s}");
        assert!(s.contains("bus-or: 1"), "{s}");
        assert!(!s.contains("shift"), "{s}");
    }
}
