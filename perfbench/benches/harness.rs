//! Workload-independent machinery: operations, output checks, the failure
//! ledger, timed passes with in-memory spans, and summary statistics.

use interscatter_net::prof::ProfSummary;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Counts a net run's output check holds to the accounting identities.
#[derive(Debug, Clone, Default)]
pub struct NetCounts {
    /// Packets the applications offered.
    pub offered: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Transmission attempts.
    pub attempts: usize,
    /// Engine events processed (`TelemetryReport::events`).
    pub events: u64,
    /// Named ratios the run reports; each must lie in [0, 1].
    pub ratios: Vec<(&'static str, f64)>,
}

/// What one operation produced.
#[derive(Debug, Default)]
pub struct Output {
    /// The text the output digest covers: a figure's `report()`, or a net
    /// run's `metrics.report()` followed by `telemetry.render()`.
    pub text: String,
    /// Net runs only: the counts the accounting checks read.
    pub net: Option<NetCounts>,
    /// Profiled net runs only: the run's own phase profile.
    pub prof: Option<ProfSummary>,
}

/// One operation of a workload: a figure runner or one `net::run`. The
/// flag asks for the traced variant (a profiled scenario); figure runners
/// ignore it.
pub struct Op {
    /// Span name, e.g. `sim.fig11_s` or a scenario name.
    pub name: String,
    /// Runs the operation once.
    pub run: Box<dyn Fn(bool) -> Result<Output, String>>,
}

/// 64-bit FNV-1a, the digest every output check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Rounding slack for ratios computed as `a² / (n · Σx²)` and the like.
const RATIO_SLACK: f64 = 1e-9;

/// Checks one output and returns its digest: no NaN in the report, and
/// for net runs delivered ≤ attempts, delivered ≤ offered and every ratio
/// in [0, 1].
pub fn check(out: &Output) -> Result<u64, String> {
    if out.text.contains("NaN") {
        return Err("report contains NaN".into());
    }
    if let Some(n) = &out.net {
        if n.delivered > n.attempts {
            return Err(format!(
                "delivered {} > attempts {}",
                n.delivered, n.attempts
            ));
        }
        if n.delivered > n.offered {
            return Err(format!("delivered {} > offered {}", n.delivered, n.offered));
        }
        for &(name, r) in &n.ratios {
            if !(0.0..=1.0 + RATIO_SLACK).contains(&r) {
                return Err(format!("{name} = {r} outside [0, 1]"));
            }
        }
    }
    Ok(fnv1a(out.text.as_bytes()))
}

/// Attempted and failed operations, plus each operation's reference digest
/// (the first warm-up pass's), which every later output must equal.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked or failed a check.
    pub failed: u64,
    references: BTreeMap<String, u64>,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one attempt; returns the output when it passed every check.
    pub fn record(&mut self, name: &str, result: Result<Output, String>) -> Option<Output> {
        self.attempted += 1;
        let checked = result.and_then(|out| {
            let digest = check(&out)?;
            self.expect_digest(name, digest)?;
            Ok(out)
        });
        match checked {
            Ok(out) => Some(out),
            Err(e) => {
                self.fail(name, &e);
                None
            }
        }
    }

    /// Pins `digest` as `name`'s reference on first sight; afterwards it
    /// must match.
    pub fn expect_digest(&mut self, name: &str, digest: u64) -> Result<(), String> {
        match self.references.get(name) {
            None => {
                self.references.insert(name.to_string(), digest);
                Ok(())
            }
            Some(&r) if r == digest => Ok(()),
            Some(&r) => Err(format!(
                "digest {digest:016x} differs from warm-up {r:016x}"
            )),
        }
    }

    /// The reference digest pinned for `name`, if any.
    pub fn reference(&self, name: &str) -> Option<u64> {
        self.references.get(name).copied()
    }

    /// Counts a failed attempt made outside [`Ledger::record`].
    pub fn fail(&mut self, name: &str, why: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("{name}: {why}"));
        }
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One digest over every operation's reference digest, in name order:
    /// equal across runs exactly when every simulated output is.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (name, d) in &self.references {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

/// One recorded span: a pass, or an operation inside one.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation name, or `pass` for the root.
    pub name: String,
    /// Index of the enclosing span in the span list.
    pub parent: Option<usize>,
    /// Duration, seconds.
    pub dur_s: f64,
}

/// The result of one timed pass over a workload's operations.
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Traced passes only: each checked output, by operation name.
    pub outputs: Vec<(String, Output)>,
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Self time of every span named `name`: its duration minus its
    /// children's.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.dur_s)
                    .sum();
                s.dur_s - children
            })
            .collect()
    }
}

/// Runs every operation once, in order, recording each into `ledger`.
/// With `spans`, the pass is traced: operations run their traced variant,
/// each gets a span under the pass span, and checked outputs are kept.
pub fn run_pass(ops: &[Op], ledger: &mut Ledger, mut spans: Option<&mut Spans>) -> Pass {
    let traced = spans.is_some();
    let root = spans.as_deref_mut().map(|s| {
        s.spans.push(Span {
            name: "pass".into(),
            parent: None,
            dur_s: 0.0,
        });
        s.spans.len() - 1
    });
    let mut outputs = Vec::new();
    let start = Instant::now();
    for op in ops {
        let op_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (op.run)(traced)))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&panic))));
        let dur_s = op_start.elapsed().as_secs_f64();
        let out = ledger.record(&op.name, result);
        if let Some(s) = spans.as_deref_mut() {
            s.spans.push(Span {
                name: op.name.clone(),
                parent: root,
                dur_s,
            });
            outputs.extend(out.map(|o| (op.name.clone(), o)));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(s), Some(i)) = (spans, root) {
        s.spans[i].dur_s = wall_s;
    }
    Pass { wall_s, outputs }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Times `f` on the host clock, returning its result and seconds taken.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Host seconds the reference kernel takes on the reference host (a
/// 2-vCPU x86-64 Linux VM); see [`Calibrator`].
pub const CAL_REF_S: f64 = 0.02;

/// Words in the reference kernel's buffer: 16 MiB, larger than the
/// last-level cache, so the kernel feels the cache and memory contention
/// that slows the workloads.
const CAL_WORDS: usize = 1 << 21;
/// The kernel buffer's size, MiB. It stays resident from the first
/// set-up to the end of the run.
pub const CAL_BUF_MIB: f64 = (CAL_WORDS * 8) as f64 / (1024.0 * 1024.0);
/// Sweeps over the buffer per kernel sample.
const CAL_ROUNDS: usize = 4;
/// Kernel samples per [`Calibrator::sample`] call.
const CAL_REPS: usize = 2;
/// The quantile of pass and kernel times the reference-speed figures use.
pub const LOW_QUANTILE: f64 = 0.1;

/// Times a fixed reference kernel (integer mixing, a dependent float
/// chain and stores over a 16 MiB buffer) between passes. Shared hosts
/// drift in speed by tens of percent over minutes, and the drift moves
/// this kernel and the workloads alike, so host times multiplied by
/// [`Calibrator::scale`] read as seconds on the reference host and stay
/// comparable across runs. The kernel is fixed code of this benchmark:
/// no change to the program moves it.
pub struct Calibrator {
    buf: Vec<u64>,
    /// Host seconds of every kernel sample taken.
    pub samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with no samples yet; its buffer is written, and so
    /// resident, from here on.
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![1; CAL_WORDS],
            samples: Vec::new(),
        }
    }

    /// Runs and times the kernel [`CAL_REPS`] times.
    pub fn sample(&mut self) {
        for _ in 0..CAL_REPS {
            let buf = &mut self.buf;
            let (_, s) = timed(|| {
                let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
                let mut f = 1.0f64;
                for _ in 0..CAL_ROUNDS {
                    for word in buf.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *word = word.wrapping_add(x);
                        f = f * 1.000_000_001 + (x & 0xff) as f64 * 1e-12;
                    }
                }
                std::hint::black_box((&*buf, f));
            });
            self.samples.push(s);
        }
    }

    /// The kernel's [`LOW_QUANTILE`] host time.
    pub fn kernel_s(&self) -> f64 {
        quantile(&self.samples, LOW_QUANTILE)
    }

    /// Reference-host seconds per host second: [`CAL_REF_S`] over
    /// [`Calibrator::kernel_s`].
    pub fn scale(&self) -> f64 {
        CAL_REF_S / self.kernel_s()
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> Output {
        Output {
            text: s.into(),
            ..Output::default()
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checks_reject_nan_and_broken_accounting() {
        assert!(check(&text("PER 0.1")).is_ok());
        assert!(check(&text("PER NaN")).is_err());
        let net = |offered, delivered, attempts, ratio| Output {
            net: Some(NetCounts {
                offered,
                delivered,
                attempts,
                events: 1,
                ratios: vec![("delivery", ratio)],
            }),
            ..text("ok")
        };
        assert!(check(&net(10, 5, 8, 0.5)).is_ok());
        assert!(check(&net(10, 9, 8, 0.9)).is_err());
        assert!(check(&net(4, 5, 8, 1.0)).is_err());
        assert!(check(&net(10, 5, 8, 1.5)).is_err());
        assert!(check(&net(10, 5, 8, -0.1)).is_err());
    }

    #[test]
    fn ledger_pins_the_first_digest_and_counts_mismatches() {
        let mut ledger = Ledger::default();
        assert!(ledger.record("a", Ok(text("x"))).is_some());
        assert!(ledger.record("a", Ok(text("x"))).is_some());
        assert!(ledger.record("a", Ok(text("y"))).is_none());
        assert!(ledger.record("b", Err("boom".into())).is_none());
        assert_eq!((ledger.attempted, ledger.failed), (4, 2));
        assert_eq!(ledger.fail_ratio(), 0.5);
    }

    #[test]
    fn a_panicking_op_counts_as_failed() {
        let ops = vec![
            Op {
                name: "fine".into(),
                run: Box::new(|_| Ok(text("ok"))),
            },
            Op {
                name: "panics".into(),
                run: Box::new(|_| panic!("injected")),
            },
        ];
        let mut ledger = Ledger::default();
        let mut spans = Spans::default();
        let pass = run_pass(&ops, &mut ledger, Some(&mut spans));
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(pass.outputs.len(), 1);
        assert_eq!(spans.spans.len(), 3);
        assert_eq!(spans.spans[2].parent, Some(0));
        assert!(ledger.failures[0].contains("injected"));
    }
}
