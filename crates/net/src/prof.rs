//! The execution observatory: span-based self-profiling for the run
//! pipeline itself.
//!
//! Where [`crate::metrics`] records the *simulation* (PRR, latency,
//! occupancy — simulated-time quantities), this module observes the
//! *executor*: how long engine-core init, with the scenario validation
//! and link-matrix construction nested in it, the event loop, the
//! mobility flushes and the finalisation actually take on the host. The
//! claim that setup dominates the 100k-tag wall clock becomes a measured,
//! attributable time budget instead of folklore.
//!
//! ## The timeline
//!
//! One run's profile is one timeline, recorded by the engine core from
//! the start of its set-up to the end of finalisation; the scenario
//! builder reads no clock. The timeline has six fixed phases and one
//! level of nesting. Three spans sit at the top level, in order and
//! without overlap: `engine_init` (set-up), `epoch` (the event loop, one
//! span per run) and `finalize`. The other three nest inside one of them:
//! `validate` and `link_build` in `engine_init`, one `link_flush` per
//! mobility tick in `epoch`. Each call site opens its span with [`begin`],
//! which hands back the start instant, and closes it in the same function
//! with [`end`], which records exactly that span; an error return in
//! between drops the whole profiler, so nothing is ever left open. A run
//! closes five phase spans plus one per tick: about 600 for a 60 s ward
//! at 0.1 s ticks, about 20 kB, kept in a plain `Vec`.
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
//!   records into it — no locks, no atomics, both of which
//!   `crates/net/clippy.toml` bans.
//!
//! Tests swap the monotonic wall clock for the deterministic
//! [`Clock::fake`] counter, pinning span geometry and the Chrome-trace
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
//!   totals and per-event-kind totals) whose [`ProfSummary::to_json`] is
//!   what `PROF_net.json` holds.
//!
//! ## Per event kind
//!
//! Inside the `"epoch"` span the engine calls `Profiler::dispatch` once
//! per popped event, and the host time from one dispatch to the next is
//! charged to the earlier event's kind. A kind's time is thus its
//! handlers plus the pop and progress check that follow each of them;
//! the closing `Horizon` is charged nothing. The clock is read only where
//! the kind changes: a run of back-to-back events of one kind is charged
//! as a whole, which gives the same totals as one read per event. Only
//! profiled runs read the clock.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned engine stopwatch: wall-clock values stay in the prof output"
)]

use crate::event::EventKind;
use std::collections::BTreeMap;
use std::time::Instant;

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
    /// Phase name, from the fixed vocabulary the engine core's call sites
    /// use (see the module doc's "The timeline").
    pub name: &'static str,
    /// Start, nanoseconds on the run timeline.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A run's recorder: a clock, the closed spans and the per-kind totals.
/// The engine core owns one when profiling is on, so the event loop needs
/// no shared state.
#[derive(Debug, Clone)]
pub struct Profiler {
    clock: Clock,
    /// Closed spans, in close order.
    spans: Vec<Span>,
    /// Dispatches and host time per event kind, indexed like
    /// [`EventKind::NAMES`].
    kinds: [KindTotal; EventKind::NAMES.len()],
    /// The last dispatched kind's index and the clock when its current
    /// run of back-to-back dispatches began.
    dispatched: Option<(usize, u64)>,
}

/// How often one event kind was dispatched in a profiled run, and the
/// host time charged to it (see the module doc's "Per event kind").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Events of this kind popped.
    pub count: u64,
    /// Host nanoseconds charged to them.
    pub ns: u64,
}

impl Profiler {
    /// A recorder over `clock`.
    pub fn new(clock: Clock) -> Profiler {
        Profiler {
            clock,
            spans: Vec::new(),
            kinds: [KindTotal::default(); EventKind::NAMES.len()],
            dispatched: None,
        }
    }

    /// Marks the dispatch of an event of `kind`: counts it and, when the
    /// kind differs from the previous event's, charges the host time since
    /// the run of that kind began to it. Charging per run rather than per
    /// event gives the same totals (the per-event deltas of a run add up
    /// to the run's) from far fewer clock reads: a ward run is mostly
    /// back-to-back carrier slots.
    pub(crate) fn dispatch(&mut self, kind: &EventKind) {
        let i = kind.index();
        self.kinds[i].count += 1;
        if self.dispatched.is_some_and(|(last, _)| last == i) {
            return;
        }
        let now = self.clock.now_ns();
        if let Some((last, at)) = self.dispatched {
            self.kinds[last].ns += now.saturating_sub(at);
        }
        self.dispatched = Some((i, now));
    }

    /// Returns the report, spans in the order they closed.
    pub fn finish(self, scenario: &str) -> ProfReport {
        let mut event_kinds: Vec<(&'static str, KindTotal)> = EventKind::NAMES
            .into_iter()
            .zip(self.kinds)
            .filter(|(_, total)| total.count > 0)
            .collect();
        event_kinds.sort_unstable_by_key(|&(name, _)| name);
        ProfReport {
            scenario: scenario.to_string(),
            spans: self.spans,
            event_kinds,
        }
    }
}

/// Opens a span of a run that may be profiled: the start instant to hand
/// to [`end`] (0, without a clock read, when `prof` is `None`).
pub fn begin(prof: &mut Option<Profiler>) -> u64 {
    prof.as_mut().map_or(0, |p| p.clock.now_ns())
}

/// Closes the span `name` opened at `start_ns` by [`begin`]: records
/// exactly that span, from its start to now.
pub fn end(prof: &mut Option<Profiler>, name: &'static str, start_ns: u64) {
    if let Some(p) = prof {
        let now = p.clock.now_ns();
        p.spans.push(Span {
            name,
            start_ns,
            dur_ns: now.saturating_sub(start_ns),
        });
    }
}

/// A finished profile: the span sequence plus its exports. Attached to
/// [`crate::engine::NetRunResult::prof`] when
/// [`crate::scenario::ExecutionConfig::profile`] is set.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Scenario name.
    pub scenario: String,
    /// Closed spans, in close order.
    pub spans: Vec<Span>,
    /// Per event kind dispatched at least once, ascending by name: the
    /// dispatch count and the host time charged to it.
    pub event_kinds: Vec<(&'static str, KindTotal)>,
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
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"scenario\":\"{}\"}}}}",
            json_escape(&self.scenario),
        ));
        out
    }

    /// Reduces the span sequence to the machine-readable [`ProfSummary`]:
    /// total nanoseconds per phase, and the per-kind totals.
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
            event_kinds: self
                .event_kinds
                .iter()
                .map(|&(name, total)| (name.to_string(), total))
                .collect(),
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
    /// Dispatch count and host time per event kind dispatched, ascending
    /// by name.
    pub event_kinds: Vec<(String, KindTotal)>,
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
        let kinds: Vec<String> = self
            .event_kinds
            .iter()
            .map(|(name, k)| {
                format!(
                    "\"{}\":{{\"count\":{},\"ns\":{}}}",
                    json_escape(name),
                    k.count,
                    k.ns
                )
            })
            .collect();
        format!(
            "{{\"scenario\":\"{}\",\"phase_totals_ns\":{{{}}},\"event_kinds\":{{{}}}}}",
            json_escape(&self.scenario),
            phases.join(","),
            kinds.join(",")
        )
    }
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

    fn fake() -> Option<Profiler> {
        Some(Profiler::new(Clock::fake()))
    }

    #[test]
    fn spans_nest_and_close_in_stack_order() {
        // Fake clock: one tick per read. begin a (t=0), begin b (t=1),
        // end b (t=2), end a (t=3). The inner span closes first and lies
        // within the outer one.
        let mut p = fake();
        let a = begin(&mut p);
        let b = begin(&mut p);
        end(&mut p, "link_build", b);
        end(&mut p, "engine_init", a);
        let report = p.unwrap().finish("ward");
        assert_eq!(
            report.spans,
            vec![
                Span {
                    name: "link_build",
                    start_ns: 1,
                    dur_ns: 1,
                },
                Span {
                    name: "engine_init",
                    start_ns: 0,
                    dur_ns: 3,
                },
            ]
        );
    }

    #[test]
    fn repeated_spans_are_kept_in_order_and_summed() {
        // Repeated spans of one phase are kept one per begin/end, in
        // order, and the summary adds them up.
        let mut p = fake();
        for _ in 0..3 {
            let t = begin(&mut p);
            end(&mut p, "link_flush", t);
        }
        let report = p.unwrap().finish("ward");
        let starts: Vec<u64> = report.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![0, 2, 4]);
        assert_eq!(
            report.summary().phase_totals_ns,
            vec![("link_flush".to_string(), 3)]
        );
    }

    #[test]
    fn chrome_trace_has_the_trace_event_shape() {
        let mut p = fake();
        let t = begin(&mut p);
        end(&mut p, "engine_init", t);
        let t = begin(&mut p);
        end(&mut p, "epoch", t);
        let json = p.unwrap().finish("ward").to_chrome_trace();
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
    fn summary_totals_each_phase_by_name() {
        let mut p = fake();
        let t = begin(&mut p);
        let inner = begin(&mut p);
        end(&mut p, "link_flush", inner);
        end(&mut p, "epoch", t);
        let t = begin(&mut p);
        end(&mut p, "finalize", t);
        let summary = p.unwrap().finish("ward").summary();
        assert_eq!(summary.scenario, "ward");
        // Ascending by name; nested spans count in their own phase and
        // in the enclosing one.
        assert_eq!(
            summary.phase_totals_ns,
            vec![
                ("epoch".to_string(), 3),
                ("finalize".to_string(), 1),
                ("link_flush".to_string(), 1),
            ]
        );
    }

    #[test]
    fn summary_json_carries_phases_and_load() {
        let mut p = fake();
        let t = begin(&mut p);
        end(&mut p, "epoch", t);
        let json = p.unwrap().finish("ward \"q\"").summary().to_json();
        assert_eq!(
            json,
            "{\"scenario\":\"ward \\\"q\\\"\",\
             \"phase_totals_ns\":{\"epoch\":1},\
             \"event_kinds\":{}}"
        );
    }

    #[test]
    fn dispatch_charges_the_previous_kind() {
        // Fake clock, one tick per read: epoch begins at 0, then the
        // dispatches read 1 (first slot), 2 (arrival), 3 (slot), 4
        // (horizon). The second slot continues a run and reads nothing.
        let mut p = fake();
        let epoch = begin(&mut p);
        for kind in [
            EventKind::CarrierSlot { carrier: 0 },
            EventKind::CarrierSlot { carrier: 1 },
            EventKind::PacketArrival { tag: 3 },
            EventKind::CarrierSlot { carrier: 0 },
            EventKind::Horizon,
        ] {
            p.as_mut().unwrap().dispatch(&kind);
        }
        end(&mut p, "epoch", epoch);
        let summary = p.unwrap().finish("ward").summary();
        let total = |count, ns| KindTotal { count, ns };
        assert_eq!(
            summary.event_kinds,
            vec![
                ("CarrierSlot".to_string(), total(3, 2)),
                ("Horizon".to_string(), total(1, 0)),
                ("PacketArrival".to_string(), total(1, 1)),
            ]
        );
        assert!(summary.to_json().contains(
            "\"event_kinds\":{\"CarrierSlot\":{\"count\":3,\"ns\":2},\
             \"Horizon\":{\"count\":1,\"ns\":0},\
             \"PacketArrival\":{\"count\":1,\"ns\":1}}"
        ));
    }

    #[test]
    fn wall_clock_is_monotone() {
        let mut clock = Clock::wall();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
