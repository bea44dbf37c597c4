//! The per-run invariant table every preset sweep checks: the accounting
//! identities that must hold on any run of any scenario, as data. Each row
//! is a name and a check over `(&Scenario, &NetRunResult)` that says what
//! broke; [`check_invariants`] runs every row and names the row and the
//! case that fails.

use interscatter::net::engine::NetRunResult;
use interscatter::net::mac::MacMode;
use interscatter::net::metrics::TagStats;
use interscatter::net::scenario::Scenario;

/// Runs no longer than this end before any event but the horizon.
pub const EVENTLESS_S: f64 = 1e-6;

/// One named identity over a finished run.
pub type Invariant = (
    &'static str,
    fn(&Scenario, &NetRunResult) -> Result<(), String>,
);

/// `Ok` when `holds`, else the message `why` builds.
fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// `Ok` when `holds` for every tag of `run`, else the first tag it fails.
fn every_tag(run: &NetRunResult, holds: impl Fn(&TagStats) -> bool) -> Result<(), String> {
    let mut tags = run.metrics.tags.iter().enumerate();
    match tags.find(|(_, tag)| !holds(tag)) {
        Some((t, tag)) => Err(format!("tag {t}: {tag:?}")),
        None => Ok(()),
    }
}

/// `Ok` when one scope's sampled `(attempts, delivered)` windows sum to
/// no more than its `counted` totals and no prefix of them delivers more
/// than it attempted. In open loop an attempt and its delivery share one
/// event, so no single window may either; in closed loop the delivery
/// waits for the ack, and a sample can fall between the two.
fn windows_within(
    (scope, index): (&str, usize),
    windows: impl Iterator<Item = (usize, usize)>,
    counted: (usize, usize),
    open_loop: bool,
) -> Result<(), String> {
    let mut sum = (0, 0);
    for (k, (attempts, delivered)) in windows.enumerate() {
        sum = (sum.0 + attempts, sum.1 + delivered);
        ensure(
            sum.1 <= sum.0 && !(open_loop && delivered > attempts),
            || {
                format!("{scope} {index}: window {k} delivers {delivered} of {attempts}, {sum:?} so far")
            },
        )?;
    }
    ensure(sum.0 <= counted.0 && sum.1 <= counted.1, || {
        format!("{scope} {index}: windows sum to {sum:?} of its counters' {counted:?}")
    })
}

/// Every identity a run must keep.
pub const INVARIANTS: [Invariant; 7] = [
    // Every offered packet was delivered, dropped, or is still queued at
    // the horizon.
    ("packet conservation", |_, run| {
        every_tag(run, |tag| {
            tag.offered == tag.delivered + tag.dropped + tag.queued
        })
    }),
    // Every attempt ends in exactly one outcome and every grant in an
    // attempt or a lost poll, except a transaction still in flight at the
    // horizon — at most one per tag, and never an undecided open-loop
    // attempt (its outcome is decided when it is counted).
    ("attempt and grant slack", |scenario, run| {
        let open_loop = scenario.mac == MacMode::OpenLoop;
        every_tag(run, |tag| {
            let decided = tag.delivered
                + tag.collided
                + tag.external_collisions
                + tag.link_losses
                + tag.ack_losses;
            let a = tag.attempts as i64 - decided as i64;
            let g = tag.grants as i64 - tag.attempts as i64 - tag.poll_losses as i64;
            (0..=1).contains(&a) && (0..=1).contains(&g) && a + g <= 1 && !(open_loop && a != 0)
        })
    }),
    // One stored sample per delivery, per grant and per completed
    // transaction.
    ("samples match their counters", |_, run| {
        let m = &run.metrics;
        let pairs = [
            (
                "latency",
                m.latency_ms.samples().len(),
                m.delivered_packets(),
            ),
            (
                "poll latency",
                m.poll_latency_ms.samples().len(),
                m.grants(),
            ),
            (
                "transaction latency",
                m.transaction_latency_ms.samples().len(),
                m.completed_transactions(),
            ),
        ];
        pairs.into_iter().try_for_each(|(what, samples, counter)| {
            ensure(samples == counter, || {
                format!("{samples} {what} samples, counter {counter}")
            })
        })
    }),
    // Occupancy is a fraction, and every carrier's occupancy windows and
    // every tag's mobility windows keep to their scope ([`windows_within`]).
    (
        "occupancy in [0, 1] and sample windows within their scope",
        |scenario, run| {
            let m = &run.metrics;
            let open_loop = scenario.mac == MacMode::OpenLoop;
            let out_of_range = m
                .occupancy_series
                .iter()
                .flatten()
                .find(|s| !(0.0..=1.0).contains(&s.occupancy));
            ensure(out_of_range.is_none(), || format!("{out_of_range:?}"))?;
            for (c, series) in m.occupancy_series.iter().enumerate() {
                let members = scenario.tags.iter().zip(&m.tags);
                let counted = members
                    .filter(|(spec, _)| spec.carrier == c)
                    .fold((0, 0), |(a, d), (_, tag)| {
                        (a + tag.attempts, d + tag.delivered)
                    });
                let windows = series.iter().map(|s| (s.attempts, s.delivered));
                windows_within(("carrier", c), windows, counted, open_loop)?;
            }
            for (t, (series, tag)) in m.mobility_series.iter().zip(&m.tags).enumerate() {
                let windows = series.iter().map(|s| (s.attempts, s.delivered));
                let counted = (tag.attempts, tag.delivered);
                windows_within(("tag", t), windows, counted, open_loop)?;
            }
            Ok(())
        },
    ),
    ("finite report", |_, run| {
        let report = run.metrics.report();
        ensure(!report.contains("NaN") && !report.contains("inf"), || {
            report
        })
    }),
    // No division by a zero packet count may surface as NaN.
    ("vacuous ratios", |_, run| {
        let m = &run.metrics;
        ensure(
            m.offered_packets() > 0 || (m.delivery_ratio() == 1.0 && m.per() == 0.0),
            || {
                format!(
                    "ratio {} and PER {} of nothing",
                    m.delivery_ratio(),
                    m.per()
                )
            },
        )
    }),
    ("an eventless run is empty", |scenario, run| {
        ensure(
            scenario.duration_s > EVENTLESS_S
                || (run.telemetry.events == 1 && run.metrics.offered_packets() == 0),
            || format!("{} events: {:?}", run.telemetry.events, run.metrics.tags),
        )
    }),
];

/// Checks every [`INVARIANTS`] row on `run` of `scenario`, naming the row
/// and `case` on failure.
pub fn check_invariants(case: &str, scenario: &Scenario, run: &NetRunResult) {
    for (name, check) in INVARIANTS {
        if let Err(why) = check(scenario, run) {
            panic!("invariant `{name}` fails on {case}: {why}");
        }
    }
}
