//! The execution observatory: span-based self-profiling for the run
//! pipeline itself.
//!
//! Where [`crate::telemetry`] observes the *simulation* (PRR, latency,
//! occupancy — simulated-time quantities), this module observes the
//! *executor*: how long scenario validation, link-matrix construction,
//! engine-core init, each epoch chunk of the event loop, the mobility
//! flushes and the finalisation actually take on the host. The claim that
//! setup dominates the 100k-tag wall clock becomes a measured,
//! attributable time budget instead of folklore.
//!
//! ## Determinism contract
//!
//! Profiling is **digest-neutral**: enabling
//! [`crate::scenario::ExecutionConfig::profile`] must not change the event
//! trace, the metrics report or the telemetry output by a single byte, at
//! any epoch length. Three rules enforce that:
//!
//! * Wall-clock values live **only** in the prof output
//!   ([`crate::engine::NetRunResult::prof`], `PROF_net.json`, the Chrome
//!   trace) — never in simulation state, never on digest-checked stdout.
//! * This file is the one sanctioned home for [`std::time::Instant`] in
//!   `crates/net`; detlint's `wall_clock` rule scopes its allowance to
//!   exactly this path and still fails the build anywhere else.
//! * No shared recorders: the engine core records spans into its own
//!   [`CellProf`] ring buffer, and [`Profiler`] absorbs it after the run —
//!   no locks, no atomics, per detlint's `shard_exchange` rule.
//!
//! Tests swap the monotonic [`WallClock`] for the deterministic
//! [`FakeClock`] through the [`ProfClock`] trait, pinning span nesting,
//! merge order and the Chrome-trace JSON shape without touching the host
//! clock.
//!
//! ## Exports
//!
//! A finished [`ProfReport`] exports two ways:
//!
//! * [`ProfReport::to_chrome_trace`] — Chrome/Perfetto trace-event JSON
//!   (`ph: "X"` complete events, one `tid` per track), loadable at
//!   `ui.perfetto.dev` or `chrome://tracing`.
//! * [`ProfReport::summary`] — a machine-readable [`ProfSummary`] (phase
//!   totals, per-epoch busy time, the critical-path epoch) whose
//!   [`ProfSummary::to_json`] is what `PROF_net.json` holds.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans a [`CellProf`] ring buffer holds before wrapping: generous enough
/// for a soak run's epochs (100 s / 10 ms = 10 000) with headroom, small
/// enough that a profiled campus run stays O(MB).
pub const SPAN_RING_CAPACITY: usize = 1 << 16;

/// A monotonic time source for span timestamps. Real runs use
/// [`WallClock`]; tests use [`FakeClock`] so span geometry is a pure
/// function of the call sequence.
pub trait ProfClock {
    /// Nanoseconds since this clock's anchor. Must be monotone
    /// non-decreasing across calls.
    fn now_ns(&mut self) -> u64;
}

/// The real profiling clock: a monotonic [`Instant`] anchor captured at
/// construction, read as elapsed nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    anchor: Instant,
}

impl WallClock {
    /// Anchors a wall clock at the current instant.
    #[allow(clippy::new_without_default)]
    pub fn new() -> WallClock {
        WallClock {
            anchor: Instant::now(),
        }
    }
}

impl ProfClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The deterministic test clock: a counter advancing by a fixed step per
/// read, so expected span geometry can be written down exactly.
#[derive(Debug, Clone, Copy)]
pub struct FakeClock {
    next: u64,
    step: u64,
}

impl FakeClock {
    /// A fake clock returning `0, step, 2·step, …` on successive reads.
    pub fn stepping(step: u64) -> FakeClock {
        FakeClock { next: 0, step }
    }
}

impl Default for FakeClock {
    /// One nanosecond per read.
    fn default() -> FakeClock {
        FakeClock::stepping(1)
    }
}

impl ProfClock for FakeClock {
    fn now_ns(&mut self) -> u64 {
        let t = self.next;
        self.next = self.next.saturating_add(self.step);
        t
    }
}

/// Enum dispatch over the two clock kinds, so [`CellProf`] stays a plain
/// `Send` value that rides its engine core across the ordered chunking.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// The monotonic host clock (real runs).
    Wall(WallClock),
    /// The deterministic counter (tests).
    Fake(FakeClock),
}

impl Clock {
    /// Offset of this clock's anchor past `base`'s, nanoseconds — how far
    /// into `base`'s timeline this clock's zero sits. Zero for fake
    /// clocks (tests share one timeline) and for mismatched kinds.
    fn offset_since(&self, base: &Clock) -> u64 {
        match (self, base) {
            (Clock::Wall(w), Clock::Wall(b)) => {
                u64::try_from(w.anchor.saturating_duration_since(b.anchor).as_nanos())
                    .unwrap_or(u64::MAX)
            }
            _ => 0,
        }
    }
}

impl ProfClock for Clock {
    fn now_ns(&mut self) -> u64 {
        match self {
            Clock::Wall(c) => c.now_ns(),
            Clock::Fake(c) => c.now_ns(),
        }
    }
}

/// One closed span: a named phase of the pipeline on one track (every span
/// of a [`crate::run`] is on track 0; a [`Profiler`] summarises tracks
/// `c + 1` as cell `c` when handed several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name, from the fixed vocabulary the instrumentation sites
    /// use (`"scenario_build"`, `"engine_init"`, `"link_build"`,
    /// `"epoch"`, `"link_flush"`, `"finalize"`).
    pub name: &'static str,
    /// Optional argument — the epoch index for `"epoch"` spans.
    pub arg: Option<u64>,
    /// Track id: 0 for the run, `cell + 1` for cell-local spans.
    pub track: u32,
    /// Start, nanoseconds on the merged timeline.
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

/// One track's recorder: a clock, an open-span stack and a bounded ring of
/// closed spans. The engine core owns one (when profiling is on), so the
/// event loop needs no shared state — [`Profiler`] collects the ring
/// afterwards.
#[derive(Debug, Clone)]
pub struct CellProf {
    clock: Clock,
    track: u32,
    ring: SpanRing,
    /// Open spans, innermost last: `(name, arg, start_ns)`.
    open: Vec<(&'static str, Option<u64>, u64)>,
    /// Epoch spans recorded so far — numbers [`CellProf::begin_epoch`].
    epochs: u64,
}

/// An opaque token returned by [`CellProf::begin`]: the open-stack depth
/// to unwind back to at [`CellProf::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(usize);

impl CellProf {
    /// A recorder over `clock` on `track`, with the default ring capacity.
    pub fn new(clock: Clock, track: u32) -> CellProf {
        CellProf::with_capacity(clock, track, SPAN_RING_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (tests pin the wrap
    /// behaviour with tiny rings).
    pub fn with_capacity(clock: Clock, track: u32, cap: usize) -> CellProf {
        CellProf {
            clock,
            track,
            ring: SpanRing::new(cap),
            open: Vec::new(),
            epochs: 0,
        }
    }

    /// A wall-clock recorder anchored now.
    pub fn wall(track: u32) -> CellProf {
        CellProf::new(Clock::Wall(WallClock::new()), track)
    }

    /// A fake-clock recorder (1 ns per read).
    pub fn fake(track: u32) -> CellProf {
        CellProf::new(Clock::Fake(FakeClock::default()), track)
    }

    /// Opens a span; close it with [`CellProf::end`] and the returned
    /// token.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        self.begin_arg(name, None)
    }

    /// Opens a span carrying an argument (the epoch index).
    pub fn begin_arg(&mut self, name: &'static str, arg: Option<u64>) -> SpanToken {
        let token = SpanToken(self.open.len());
        let now = self.clock.now_ns();
        self.open.push((name, arg, now));
        token
    }

    /// Opens the next `"epoch"` span, auto-numbered from 0.
    pub fn begin_epoch(&mut self) -> SpanToken {
        let epoch = self.epochs;
        self.epochs += 1;
        self.begin_arg("epoch", Some(epoch))
    }

    /// Closes spans down to (and including) the one `token` opened.
    /// Closing is tolerant: any spans left open above the token close at
    /// the same instant, so a panicking phase still yields a well-formed
    /// profile.
    pub fn end(&mut self, token: SpanToken) {
        let now = self.clock.now_ns();
        while self.open.len() > token.0 {
            let (name, arg, start_ns) = self.open.pop().expect("open stack is non-empty");
            let depth = self.open.len() as u32;
            self.ring.push(Span {
                name,
                arg,
                track: self.track,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
                depth,
            });
        }
    }

    /// Opens a span closed automatically when the guard drops — the
    /// scoped form of [`CellProf::begin`]/[`CellProf::end`].
    pub fn scope(&mut self, name: &'static str) -> SpanGuard<'_> {
        let token = self.begin(name);
        SpanGuard { prof: self, token }
    }

    /// Re-tags every recorded span, and every span still to close, onto
    /// `track`.
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
        for span in &mut self.ring.spans {
            span.track = track;
        }
    }

    /// Closes any still-open spans and finishes into a single-track
    /// [`ProfReport`] carrying this recorder's clock anchor (so the
    /// executor can rebase it onto the run timeline).
    pub fn finish(mut self) -> ProfReport {
        self.end(SpanToken(0));
        let clock = self.clock;
        let (spans, dropped) = self.ring.into_ordered();
        ProfReport {
            scenario: String::new(),
            spans,
            dropped,
            clock,
        }
    }
}

/// RAII guard from [`CellProf::scope`]: closes its span on drop.
pub struct SpanGuard<'a> {
    prof: &'a mut CellProf,
    token: SpanToken,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.prof.end(self.token);
    }
}

/// The run-level profiling handle [`crate::run`] owns: a main-track
/// recorder plus the engine reports it absorbs after the run, merged **in
/// absorb order** into one [`ProfReport`].
#[derive(Debug)]
pub struct Profiler {
    main: CellProf,
    cells: Vec<ProfReport>,
    /// [`crate::scenario::ScenarioBuilder::build`]'s measured duration,
    /// replayed as a synthetic `"scenario_build"` span at the head of the
    /// merged timeline.
    build_ns: Option<u64>,
}

impl Profiler {
    /// A wall-clock profiler; `build_ns` is the scenario-build duration
    /// measured at [`crate::scenario::ScenarioBuilder::build`] time, if
    /// the builder ran with profiling enabled.
    pub fn wall(build_ns: Option<u64>) -> Profiler {
        Profiler {
            main: CellProf::wall(0),
            cells: Vec::new(),
            build_ns,
        }
    }

    /// A fake-clock profiler for tests.
    pub fn fake(build_ns: Option<u64>) -> Profiler {
        Profiler {
            main: CellProf::fake(0),
            cells: Vec::new(),
            build_ns,
        }
    }

    /// Opens a span on the main track.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        self.main.begin(name)
    }

    /// Closes a main-track span.
    pub fn end(&mut self, token: SpanToken) {
        self.main.end(token);
    }

    /// Opens a scoped main-track span.
    pub fn scope(&mut self, name: &'static str) -> SpanGuard<'_> {
        self.main.scope(name)
    }

    /// Absorbs one finished engine report. The merge preserves absorb
    /// order, which is what makes the merged profile deterministic under a
    /// fake clock.
    pub fn absorb(&mut self, report: ProfReport) {
        self.cells.push(report);
    }

    /// Closes the main track, rebases every absorbed report onto the main
    /// clock's timeline (each engine's anchor was captured later, at its
    /// core's construction), prepends the synthetic
    /// `"scenario_build"` span, and returns the merged report.
    pub fn finish(self, scenario: &str) -> ProfReport {
        let Profiler {
            main,
            cells,
            build_ns,
        } = self;
        let base = build_ns.unwrap_or(0);
        let main_clock = main.clock;
        let mut report = main.finish();
        let mut dropped = report.dropped;
        let mut spans = Vec::with_capacity(report.spans.len());
        if let Some(ns) = build_ns {
            spans.push(Span {
                name: "scenario_build",
                arg: None,
                track: 0,
                start_ns: 0,
                dur_ns: ns,
                depth: 0,
            });
        }
        for span in &mut report.spans {
            span.start_ns = span.start_ns.saturating_add(base);
        }
        spans.append(&mut report.spans);
        for cell in cells {
            let offset = cell.clock.offset_since(&main_clock).saturating_add(base);
            dropped += cell.dropped;
            for mut span in cell.spans {
                span.start_ns = span.start_ns.saturating_add(offset);
                spans.push(span);
            }
        }
        // A stable sort on (start, track): simultaneous spans keep the
        // absorb (= cell) order, so the merged sequence is total.
        spans.sort_by_key(|s| (s.start_ns, s.track, s.depth));
        ProfReport {
            scenario: scenario.to_string(),
            spans,
            dropped,
            clock: main_clock,
        }
    }
}

/// A finished profile: the merged (or single-track) span sequence plus
/// its exports. Attached to [`crate::engine::NetRunResult::prof`] when
/// [`crate::scenario::ExecutionConfig::profile`] is set.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Scenario name (empty on an unmerged single-core report).
    pub scenario: String,
    /// Closed spans, ordered by `(start_ns, track, depth)` after a merge.
    pub spans: Vec<Span>,
    /// Spans lost to ring wrap-around across all tracks.
    pub dropped: u64,
    /// The timeline's anchor clock (rebasing; fake in tests).
    clock: Clock,
}

impl ProfReport {
    /// Chrome/Perfetto trace-event JSON: one `ph: "X"` complete event per
    /// span, timestamps in microseconds, one `tid` per track. Load the
    /// string (saved as a `.json` file) in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.track,
            ));
            if let Some(arg) = span.arg {
                out.push_str(&format!(",\"args\":{{\"epoch\":{arg}}}"));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"scenario\":\"{}\",\"droppedSpans\":{}}}}}",
            json_escape(&self.scenario),
            self.dropped,
        ));
        out
    }

    /// Reduces the span sequence to the machine-readable [`ProfSummary`]:
    /// phase totals, per-cell per-epoch busy time and the critical-path
    /// epoch.
    pub fn summary(&self) -> ProfSummary {
        let mut phase_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in &self.spans {
            *phase_totals.entry(span.name).or_insert(0) += span.dur_ns;
        }

        // Per-cell epoch busy time: cell tracks (>= 1) when cell tracks
        // were absorbed, the lone track 0 otherwise.
        let epoch_spans: Vec<&Span> = self.spans.iter().filter(|s| s.name == "epoch").collect();
        let per_cell = epoch_spans.iter().any(|s| s.track > 0);
        let mut cells: BTreeMap<u32, CellBusy> = BTreeMap::new();
        for span in &epoch_spans {
            if per_cell && span.track == 0 {
                continue;
            }
            let cell = if per_cell { span.track - 1 } else { 0 };
            let entry = cells.entry(cell).or_insert_with(|| CellBusy {
                cell,
                busy_ns: 0,
                epochs: Vec::new(),
            });
            entry.busy_ns += span.dur_ns;
            if let Some(epoch) = span.arg {
                entry.epochs.push((epoch, span.dur_ns));
            }
        }
        for cell in cells.values_mut() {
            cell.epochs.sort_by_key(|&(epoch, _)| epoch);
        }

        // Critical-path epoch: the epoch whose slowest cell was slowest —
        // the wall-clock bound of the lockstep epoch barrier.
        let mut worst: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &epoch_spans {
            if let Some(epoch) = span.arg {
                let w = worst.entry(epoch).or_insert(0);
                *w = (*w).max(span.dur_ns);
            }
        }
        let critical_path_epoch = worst
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&epoch, _)| epoch);

        ProfSummary {
            scenario: self.scenario.clone(),
            phase_totals_ns: phase_totals
                .into_iter()
                .map(|(name, ns)| (name.to_string(), ns))
                .collect(),
            cells: cells.into_values().collect(),
            critical_path_epoch,
            dropped: self.dropped,
        }
    }
}

/// One cell's wall-clock busy time, from its `"epoch"` spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBusy {
    /// Cell index (partition order).
    pub cell: u32,
    /// Total busy time across epochs, nanoseconds.
    pub busy_ns: u64,
    /// `(epoch index, busy ns)` pairs, ascending by epoch.
    pub epochs: Vec<(u64, u64)>,
}

/// The machine-readable reduction of a profile — what `PROF_net.json`
/// holds (via [`ProfSummary::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSummary {
    /// Scenario name.
    pub scenario: String,
    /// Total nanoseconds per phase name, ascending by name.
    pub phase_totals_ns: Vec<(String, u64)>,
    /// Per-cell busy time, ascending by cell.
    pub cells: Vec<CellBusy>,
    /// The epoch whose slowest cell took longest — the run's wall-clock
    /// critical path.
    pub critical_path_epoch: Option<u64>,
    /// Spans lost to ring wrap-around.
    pub dropped: u64,
}

impl ProfSummary {
    /// Serialises the summary as the `PROF_net.json` document.
    /// Hand-rolled JSON, like every serialiser in this offline workspace.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"scenario\":\"{}\",",
            json_escape(&self.scenario)
        ));
        out.push_str("\"phase_totals_ns\":{");
        for (i, (name, ns)) in self.phase_totals_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), ns));
        }
        out.push_str("},");
        out.push_str(&format!(
            "\"critical_path_epoch\":{},",
            self.critical_path_epoch
                .map_or("null".to_string(), |e| e.to_string())
        ));
        out.push_str(&format!("\"dropped_spans\":{},", self.dropped));
        out.push_str("\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cell\":{},\"busy_ns\":{},\"epoch_busy_ns\":[",
                cell.cell, cell.busy_ns
            ));
            for (j, (epoch, ns)) in cell.epochs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{epoch},{ns}]"));
            }
            out.push_str("]}");
        }
        out.push(']');
        out.push('}');
        out
    }
}

/// Times a closure on the wall clock: `(result, elapsed_ns)`. The one
/// sanctioned stopwatch for call sites outside this module (the scenario
/// builder times its validation pass through this, keeping the `Instant`
/// token inside prof.rs where detlint's allowance is scoped).
pub fn measure_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let mut clock = WallClock::new();
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

    fn fake(track: u32) -> CellProf {
        CellProf::new(Clock::Fake(FakeClock::default()), track)
    }

    #[test]
    fn spans_nest_and_close_in_stack_order() {
        // Fake clock: one tick per read. begin a (t=0), begin b (t=1),
        // end b (t=2), end a (t=3).
        let mut p = fake(0);
        let a = p.begin("engine_init");
        let b = p.begin("link_build");
        p.end(b);
        p.end(a);
        let report = p.finish();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(
            report.spans[0],
            Span {
                name: "link_build",
                arg: None,
                track: 0,
                start_ns: 1,
                dur_ns: 1,
                depth: 1,
            }
        );
        assert_eq!(
            report.spans[1],
            Span {
                name: "engine_init",
                arg: None,
                track: 0,
                start_ns: 0,
                dur_ns: 3,
                depth: 0,
            }
        );
    }

    #[test]
    fn end_unwinds_everything_above_its_token() {
        let mut p = fake(0);
        let outer = p.begin("epoch");
        p.begin("link_flush");
        p.begin("link_build");
        p.end(outer); // closes all three at the same instant
        let report = p.finish();
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
        let mut p = fake(0);
        {
            let _guard = p.scope("partition");
        }
        let report = p.finish();
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "partition");
        assert_eq!(report.spans[0].dur_ns, 1);
    }

    #[test]
    fn epoch_spans_auto_number() {
        let mut p = fake(3);
        for _ in 0..3 {
            let t = p.begin_epoch();
            p.end(t);
        }
        let report = p.finish();
        let args: Vec<Option<u64>> = report.spans.iter().map(|s| s.arg).collect();
        assert_eq!(args, vec![Some(0), Some(1), Some(2)]);
        assert!(report.spans.iter().all(|s| s.track == 3));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut p = CellProf::with_capacity(Clock::Fake(FakeClock::default()), 0, 2);
        for _ in 0..3 {
            let t = p.begin("epoch");
            p.end(t);
        }
        let report = p.finish();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.dropped, 1);
        // Oldest-first after the wrap: the survivors are spans 2 and 3.
        assert!(report.spans[0].start_ns < report.spans[1].start_ns);
        assert_eq!(report.spans[0].start_ns, 2);
    }

    #[test]
    fn set_track_retags_recorded_spans() {
        let mut p = fake(0);
        let t = p.begin("engine_init");
        p.end(t);
        p.set_track(5);
        let t = p.begin_epoch();
        p.end(t);
        let report = p.finish();
        assert!(report.spans.iter().all(|s| s.track == 5));
    }

    #[test]
    fn profiler_merges_cell_reports_in_cell_order() {
        let mut profiler = Profiler::fake(Some(100));
        let t = profiler.begin("partition");
        profiler.end(t);
        for cell in 0..2u32 {
            let mut p = fake(cell + 1);
            let t = p.begin_epoch();
            p.end(t);
            profiler.absorb(p.finish());
        }
        let report = profiler.finish("ward");
        assert_eq!(report.scenario, "ward");
        // scenario_build synthesized at the head, everything else shifted
        // past it; cell spans keep absorb order on the start tie.
        let names: Vec<&str> = report.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["scenario_build", "partition", "epoch", "epoch"]);
        assert_eq!(report.spans[0].start_ns, 0);
        assert_eq!(report.spans[0].dur_ns, 100);
        assert_eq!(report.spans[1].start_ns, 100);
        assert_eq!(report.spans[2].track, 1);
        assert_eq!(report.spans[3].track, 2);
    }

    #[test]
    fn chrome_trace_has_the_trace_event_shape() {
        let mut profiler = Profiler::fake(None);
        let t = profiler.begin("partition");
        profiler.end(t);
        let mut cell = fake(1);
        let t = cell.begin_epoch();
        cell.end(t);
        profiler.absorb(cell.finish());
        let json = profiler.finish("ward").to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"partition\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"args\":{\"epoch\":0}"));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"scenario\":\"ward\""));
        // Every event object carries the complete-event fields.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ts\":").count(), 2);
        assert_eq!(json.matches("\"dur\":").count(), 2);
    }

    #[test]
    fn summary_reduces_phases_cells_and_critical_path() {
        let mut profiler = Profiler::fake(Some(10));
        let t = profiler.begin("partition");
        profiler.end(t);
        // Cell 1: two epochs, the second slower (fake clock can't vary
        // span length, so stretch it with a nested span's extra reads).
        let mut c1 = fake(1);
        let t = c1.begin_epoch();
        c1.end(t);
        let t = c1.begin_epoch();
        let inner = c1.begin("link_flush");
        c1.end(inner);
        c1.end(t);
        profiler.absorb(c1.finish());
        let mut c2 = fake(2);
        let t = c2.begin_epoch();
        c2.end(t);
        profiler.absorb(c2.finish());

        let summary = profiler.finish("ward").summary();
        assert_eq!(summary.scenario, "ward");
        let phases: Vec<&str> = summary
            .phase_totals_ns
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            phases,
            vec!["epoch", "link_flush", "partition", "scenario_build"]
        );
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].cell, 0);
        assert_eq!(summary.cells[0].epochs.len(), 2);
        assert_eq!(summary.cells[1].epochs.len(), 1);
        // Cell 1's epoch 1 ran 3 fake ticks vs 1 everywhere else.
        assert_eq!(summary.critical_path_epoch, Some(1));
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn summary_json_carries_phases_and_load() {
        let mut p = fake(0);
        let t = p.begin_epoch();
        p.end(t);
        let summary = Profiler {
            main: p,
            cells: Vec::new(),
            build_ns: Some(7),
        }
        .finish("ward \"q\"")
        .summary();
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"ward \\\"q\\\"\""));
        assert!(json.contains("\"phase_totals_ns\":{\"epoch\":"));
        assert!(json.contains("\"scenario_build\":7"));
        assert!(json.contains("\"critical_path_epoch\":0"));
        assert!(json.contains("\"dropped_spans\":0"));
        // The per-track busy load: one track, one epoch.
        assert!(json.contains("\"cells\":[{\"cell\":0,\"busy_ns\":"));
        assert_eq!(json.matches("\"epoch_busy_ns\":[[0,").count(), 1);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let mut clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        let (value, ns) = measure_ns(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(ns < 60_000_000_000, "a closure took a minute?");
    }
}
