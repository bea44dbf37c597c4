//! The execution observatory: span-based self-profiling for the run
//! pipeline itself.
//!
//! Where [`crate::metrics`] records the *simulation* (PRR, latency,
//! occupancy — simulated-time quantities), this module observes the
//! *executor*: how long scenario validation, link-matrix construction,
//! engine-core init, the event loop, the mobility flushes and the
//! finalisation actually take on the host. The claim that setup dominates
//! the 100k-tag wall clock becomes a measured, attributable time budget
//! instead of folklore.
//!
//! ## Determinism contract
//!
//! Profiling is **digest-neutral**: enabling
//! [`crate::scenario::ExecutionConfig::profile`] must not change the event
//! trace, the metrics report or the progress lines by a single byte.
//! Three rules enforce that:
//!
//! * Wall-clock values live **only** in the prof output
//!   ([`crate::engine::NetRunResult::prof`], `PROF_net.json`, the Chrome
//!   trace) — never in simulation state, never on digest-checked stdout.
//! * This file is the one sanctioned home for [`std::time::Instant`] in
//!   `crates/net`: the `#![expect]` below waives the clippy config's
//!   `Instant` ban for this module only, and it still fails the build
//!   anywhere else.
//! * No shared recorders: the engine core owns its [`Profiler`] and
//!   records into its ring buffer — no locks, no atomics, both of which
//!   `crates/net/clippy.toml` bans.
//!
//! Tests swap the monotonic wall clock for the deterministic
//! [`Clock::fake`] counter, pinning span nesting and the Chrome-trace
//! JSON shape without touching the host clock.
//!
//! ## Exports
//!
//! A finished [`ProfReport`] exports two ways:
//!
//! * [`ProfReport::to_chrome_trace`] — Chrome/Perfetto trace-event JSON
//!   (`ph: "X"` complete events), loadable at `ui.perfetto.dev` or
//!   `chrome://tracing`.
//! * [`ProfReport::summary`] — a machine-readable [`ProfSummary`] (phase
//!   totals) whose [`ProfSummary::to_json`] is what `PROF_net.json` holds.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned engine stopwatch: wall-clock values stay in the prof output"
)]

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans a [`Profiler`] ring buffer holds before wrapping: generous enough
/// for a soak run's mobility flushes (one per tick) with headroom, small
/// enough that a profiled campus run stays O(MB).
pub const SPAN_RING_CAPACITY: usize = 1 << 16;

/// The span time source: the monotonic host clock in real runs, a
/// deterministic counter in tests so span geometry is a pure function of
/// the call sequence.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Nanoseconds elapsed since the anchor instant.
    Wall(Instant),
    /// A counter: each read returns it, then advances it by 1 ns.
    Fake(u64),
}

impl Clock {
    /// A wall clock anchored now.
    pub fn wall() -> Clock {
        Clock::Wall(Instant::now())
    }

    /// A fake clock returning `0, 1, 2, …` nanoseconds on successive
    /// reads.
    pub fn fake() -> Clock {
        Clock::Fake(0)
    }

    /// Nanoseconds since this clock's anchor; monotone non-decreasing
    /// across calls.
    fn now_ns(&mut self) -> u64 {
        match self {
            Clock::Wall(anchor) => u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Clock::Fake(next) => {
                let t = *next;
                *next += 1;
                t
            }
        }
    }
}

/// One closed span: a named phase of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name, from the fixed vocabulary the instrumentation sites
    /// use (`"scenario_build"`, `"engine_init"`, `"link_build"`,
    /// `"epoch"` — the event loop —, `"link_flush"`, `"finalize"`).
    pub name: &'static str,
    /// Start, nanoseconds on the run timeline.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at which the span was open (0 = top level).
    pub depth: u32,
}

/// A bounded span ring: fixed capacity, oldest spans overwritten once
/// full, with a drop counter so the summary can say what it lost.
#[derive(Debug, Clone)]
struct SpanRing {
    spans: Vec<Span>,
    cap: usize,
    /// Next overwrite position once `spans.len() == cap`.
    head: usize,
    dropped: u64,
}

impl SpanRing {
    fn new(cap: usize) -> SpanRing {
        SpanRing {
            spans: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The retained spans, oldest first.
    fn into_ordered(mut self) -> (Vec<Span>, u64) {
        if self.dropped > 0 {
            self.spans.rotate_left(self.head);
        }
        (self.spans, self.dropped)
    }
}

/// A run's recorder: a clock, an open-span stack and a bounded ring of
/// closed spans. The engine core owns one when profiling is on, so the
/// event loop needs no shared state.
#[derive(Debug, Clone)]
pub struct Profiler {
    clock: Clock,
    ring: SpanRing,
    /// Open spans, innermost last: `(name, start_ns)`.
    open: Vec<(&'static str, u64)>,
    /// [`crate::scenario::ScenarioBuilder::build`]'s measured duration,
    /// replayed as a `"scenario_build"` span at the head of the timeline.
    build_ns: Option<u64>,
}

/// An opaque token returned by [`Profiler::begin`]: the open-stack depth
/// to unwind back to at [`Profiler::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(usize);

impl Profiler {
    /// A recorder over `clock` with the default ring capacity; `build_ns`
    /// is the scenario-build duration measured at
    /// [`crate::scenario::ScenarioBuilder::build`] time, if the builder
    /// ran with profiling enabled.
    pub fn new(clock: Clock, build_ns: Option<u64>) -> Profiler {
        Profiler::with_capacity(clock, build_ns, SPAN_RING_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (tests pin the wrap
    /// behaviour with tiny rings).
    pub fn with_capacity(clock: Clock, build_ns: Option<u64>, cap: usize) -> Profiler {
        Profiler {
            clock,
            ring: SpanRing::new(cap),
            open: Vec::new(),
            build_ns,
        }
    }

    /// Opens a span; close it with [`Profiler::end`] and the returned
    /// token.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        let token = SpanToken(self.open.len());
        let now = self.clock.now_ns();
        self.open.push((name, now));
        token
    }

    /// Closes spans down to (and including) the one `token` opened.
    /// Closing is tolerant: any spans left open above the token close at
    /// the same instant, so a panicking phase still yields a well-formed
    /// profile.
    pub fn end(&mut self, token: SpanToken) {
        let now = self.clock.now_ns();
        while self.open.len() > token.0 {
            let (name, start_ns) = self.open.pop().expect("open stack is non-empty");
            let depth = self.open.len() as u32;
            self.ring.push(Span {
                name,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
                depth,
            });
        }
    }

    /// Closes any still-open spans, shifts the recorded spans past the
    /// scenario build, prepends the `"scenario_build"` span and returns
    /// the report. Spans keep the order they closed in.
    pub fn finish(mut self, scenario: &str) -> ProfReport {
        self.end(SpanToken(0));
        let (recorded, dropped) = self.ring.into_ordered();
        let base = self.build_ns.unwrap_or(0);
        let build = self.build_ns.map(|ns| Span {
            name: "scenario_build",
            start_ns: 0,
            dur_ns: ns,
            depth: 0,
        });
        let spans = build
            .into_iter()
            .chain(recorded.into_iter().map(|span| Span {
                start_ns: span.start_ns.saturating_add(base),
                ..span
            }))
            .collect();
        ProfReport {
            scenario: scenario.to_string(),
            spans,
            dropped,
        }
    }
}

/// A finished profile: the span sequence plus its exports. Attached to
/// [`crate::engine::NetRunResult::prof`] when
/// [`crate::scenario::ExecutionConfig::profile`] is set.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Scenario name.
    pub scenario: String,
    /// Closed spans, in close order after the leading `"scenario_build"`.
    pub spans: Vec<Span>,
    /// Spans lost to ring wrap-around.
    pub dropped: u64,
}

impl ProfReport {
    /// Chrome/Perfetto trace-event JSON: one `ph: "X"` complete event per
    /// span, timestamps in microseconds. Load the string (saved as a
    /// `.json` file) in `ui.perfetto.dev` or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"scenario\":\"{}\",\"droppedSpans\":{}}}}}",
            json_escape(&self.scenario),
            self.dropped,
        ));
        out
    }

    /// Reduces the span sequence to the machine-readable [`ProfSummary`]:
    /// total nanoseconds per phase.
    pub fn summary(&self) -> ProfSummary {
        let mut phase_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in &self.spans {
            *phase_totals.entry(span.name).or_insert(0) += span.dur_ns;
        }
        ProfSummary {
            scenario: self.scenario.clone(),
            phase_totals_ns: phase_totals
                .into_iter()
                .map(|(name, ns)| (name.to_string(), ns))
                .collect(),
            dropped: self.dropped,
        }
    }
}

/// The machine-readable reduction of a profile — what `PROF_net.json`
/// holds (via [`ProfSummary::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSummary {
    /// Scenario name.
    pub scenario: String,
    /// Total nanoseconds per phase name, ascending by name.
    pub phase_totals_ns: Vec<(String, u64)>,
    /// Spans lost to ring wrap-around.
    pub dropped: u64,
}

impl ProfSummary {
    /// Serialises the summary as the `PROF_net.json` document.
    /// Hand-rolled JSON, like every serialiser in this offline workspace.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phase_totals_ns
            .iter()
            .map(|(name, ns)| format!("\"{}\":{}", json_escape(name), ns))
            .collect();
        format!(
            "{{\"scenario\":\"{}\",\"phase_totals_ns\":{{{}}},\"dropped_spans\":{}}}",
            json_escape(&self.scenario),
            phases.join(","),
            self.dropped
        )
    }
}

/// Times a closure on the wall clock: `(result, elapsed_ns)`. The one
/// sanctioned stopwatch for call sites outside this module (the scenario
/// builder times its validation pass through this, keeping `Instant`
/// inside prof.rs, the one module that waives its ban).
pub fn measure_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let mut clock = Clock::wall();
    let result = f();
    (result, clock.now_ns())
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// the hand-rolled writers above.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(build_ns: Option<u64>) -> Profiler {
        Profiler::new(Clock::fake(), build_ns)
    }

    #[test]
    fn spans_nest_and_close_in_stack_order() {
        // Fake clock: one tick per read. begin a (t=0), begin b (t=1),
        // end b (t=2), end a (t=3).
        let mut p = fake(None);
        let a = p.begin("engine_init");
        let b = p.begin("link_build");
        p.end(b);
        p.end(a);
        let report = p.finish("ward");
        assert_eq!(
            report.spans,
            vec![
                Span {
                    name: "link_build",
                    start_ns: 1,
                    dur_ns: 1,
                    depth: 1,
                },
                Span {
                    name: "engine_init",
                    start_ns: 0,
                    dur_ns: 3,
                    depth: 0,
                },
            ]
        );
    }

    #[test]
    fn end_unwinds_everything_above_its_token() {
        let mut p = fake(None);
        let outer = p.begin("epoch");
        p.begin("link_flush");
        p.begin("link_build");
        p.end(outer); // closes all three at the same instant
        let report = p.finish("ward");
        assert_eq!(report.spans.len(), 3);
        // Innermost closes first; all three share the close timestamp.
        assert_eq!(report.spans[0].name, "link_build");
        assert_eq!(report.spans[1].name, "link_flush");
        assert_eq!(report.spans[2].name, "epoch");
        let close = report.spans[2].start_ns + report.spans[2].dur_ns;
        for s in &report.spans {
            assert_eq!(s.start_ns + s.dur_ns, close);
        }
        assert_eq!(report.spans[0].depth, 2);
        assert_eq!(report.spans[2].depth, 0);
    }

    #[test]
    fn scoped_guard_closes_on_drop() {
        // A span still open when the profiler finishes is closed there.
        let mut p = fake(None);
        p.begin("finalize");
        let report = p.finish("ward");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "finalize");
        assert_eq!(report.spans[0].dur_ns, 1);
    }

    #[test]
    fn epoch_spans_auto_number() {
        // Repeated spans of one phase are kept one per begin/end, in
        // order, and the summary adds them up.
        let mut p = fake(None);
        for _ in 0..3 {
            let t = p.begin("link_flush");
            p.end(t);
        }
        let report = p.finish("ward");
        let starts: Vec<u64> = report.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![0, 2, 4]);
        assert_eq!(
            report.summary().phase_totals_ns,
            vec![("link_flush".to_string(), 3)]
        );
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut p = Profiler::with_capacity(Clock::fake(), None, 2);
        for _ in 0..3 {
            let t = p.begin("link_flush");
            p.end(t);
        }
        let report = p.finish("ward");
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.dropped, 1);
        // Oldest-first after the wrap: the survivors are spans 2 and 3.
        assert!(report.spans[0].start_ns < report.spans[1].start_ns);
        assert_eq!(report.spans[0].start_ns, 2);
    }

    #[test]
    fn profiler_merges_cell_reports_in_cell_order() {
        // finish() puts the scenario build at the head of the timeline
        // and shifts every recorded span past it.
        let mut p = fake(Some(100));
        let t = p.begin("engine_init");
        p.end(t);
        let t = p.begin("epoch");
        p.end(t);
        let report = p.finish("ward");
        assert_eq!(report.scenario, "ward");
        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["scenario_build", "engine_init", "epoch"]);
        assert_eq!((report.spans[0].start_ns, report.spans[0].dur_ns), (0, 100));
        assert_eq!(report.spans[1].start_ns, 100);
        assert_eq!(report.spans[2].start_ns, 102);
    }

    #[test]
    fn chrome_trace_has_the_trace_event_shape() {
        let mut p = fake(None);
        let t = p.begin("engine_init");
        p.end(t);
        let t = p.begin("epoch");
        p.end(t);
        let json = p.finish("ward").to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("}"));
        assert!(json.contains("\"name\":\"engine_init\""));
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"scenario\":\"ward\""));
        // Every event object carries the complete-event fields.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ts\":").count(), 2);
        assert_eq!(json.matches("\"dur\":").count(), 2);
        assert_eq!(json.matches("\"tid\":0").count(), 2);
    }

    #[test]
    fn summary_reduces_phases_cells_and_critical_path() {
        let mut p = fake(Some(10));
        let t = p.begin("epoch");
        let inner = p.begin("link_flush");
        p.end(inner);
        p.end(t);
        let t = p.begin("finalize");
        p.end(t);
        let summary = p.finish("ward").summary();
        assert_eq!(summary.scenario, "ward");
        // Ascending by name; nested spans count in their own phase and
        // in the enclosing one.
        assert_eq!(
            summary.phase_totals_ns,
            vec![
                ("epoch".to_string(), 3),
                ("finalize".to_string(), 1),
                ("link_flush".to_string(), 1),
                ("scenario_build".to_string(), 10),
            ]
        );
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn summary_json_carries_phases_and_load() {
        let mut p = fake(Some(7));
        let t = p.begin("epoch");
        p.end(t);
        let json = p.finish("ward \"q\"").summary().to_json();
        assert_eq!(
            json,
            "{\"scenario\":\"ward \\\"q\\\"\",\
             \"phase_totals_ns\":{\"epoch\":1,\"scenario_build\":7},\
             \"dropped_spans\":0}"
        );
    }

    #[test]
    fn wall_clock_is_monotone() {
        let mut clock = Clock::wall();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        let (value, ns) = measure_ns(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(ns < 60_000_000_000, "a closure took a minute?");
    }
}
