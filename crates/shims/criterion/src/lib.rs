//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no cargo-registry access, so this crate vendors
//! the subset of the criterion API the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`Throughput`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Measurement is a plain
//! wall-clock loop — a short warm-up, then `sample_size` timed samples —
//! reporting min/mean/max per iteration. It has none of criterion's
//! statistics, but keeps `cargo bench` runnable and the numbers comparable
//! across commits on the same machine.
//!
//! Two command-line flags (read from the arguments cargo forwards after
//! `cargo bench … --`) serve the CI perf trajectory:
//!
//! * `--json` — after each human-readable line, also emit one JSON object
//!   per benchmark (`{"bench":…,"mean_ns":…,"median_ns":…,"min_ns":…,
//!   "max_ns":…,…}`) so a workflow can `grep '^{'` the summaries into an
//!   artifact like `BENCH_net.json` and diff trajectories across commits.
//! * `--quick` — cap samples at 10 and shrink the warm-up budget, the
//!   low-noise-enough tier CI can afford on every push.
//!
//! Unknown flags (cargo's own `--bench`, test filters) are ignored, like
//! real criterion does.

#![expect(
    clippy::disallowed_types,
    reason = "the benchmark stopwatch: timing the host clock is this crate's job"
)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value sink preventing the optimizer from deleting benchmark work.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Throughput annotation attached to a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The measured routine processes this many elements per iteration.
    Elements(u64),
    /// The measured routine processes this many bytes per iteration.
    Bytes(u64),
}

/// Output/duration modifiers parsed from the benchmark binary's command
/// line — the subset of criterion's CLI this workspace uses.
#[derive(Debug, Clone, Copy, Default)]
struct Mode {
    /// Emit one JSON summary line per benchmark alongside the human line.
    json: bool,
    /// Cap samples at 10 and shrink the warm-up budget.
    quick: bool,
}

impl Mode {
    /// Reads `--json`/`--quick` from the process arguments, ignoring
    /// whatever else cargo forwards (`--bench`, filter strings).
    fn from_args() -> Self {
        let mut mode = Mode::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--json" => mode.json = true,
                "--quick" => mode.quick = true,
                _ => {}
            }
        }
        mode
    }
}

/// The benchmark driver handed to every target function.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            mode: Mode::from_args(),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (builder style).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Forces JSON summary lines on or off, overriding the command line
    /// (shim extension, mainly for tests).
    pub fn with_json(mut self, json: bool) -> Self {
        self.mode.json = json;
        self
    }

    /// Forces quick mode on or off, overriding the command line (shim
    /// extension, mainly for tests).
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.mode.quick = quick;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.into(), self.sample_size, None, self.mode, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        let mode = self.mode;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
            throughput: None,
            mode,
        }
    }
}

/// A named group of benchmarks sharing sample-size/throughput settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    mode: Mode,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares the per-iteration throughput of subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        run_benchmark(&full, self.sample_size, self.throughput, self.mode, f);
        self
    }

    /// Ends the group. (No-op: provided for API compatibility.)
    pub fn finish(self) {}
}

/// Timer handed to the benchmark closure; call [`Bencher::iter`].
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let iters = self.iters.max(1);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// One warm-up pass to choose an iteration count, then `samples` timed runs.
fn run_benchmark<F>(
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mode: Mode,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let samples = if mode.quick { samples.min(10) } else { samples };
    // Warm-up: find how many iterations fit in the per-sample budget so
    // short routines are timed in batches and long routines run once per
    // sample.
    let budget = Duration::from_millis(if mode.quick { 10 } else { 50 });
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
    let iters_per_sample = (budget.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter_ns.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let min = per_iter_ns.first().copied().unwrap_or(0.0);
    let max = per_iter_ns.last().copied().unwrap_or(0.0);
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len().max(1) as f64;
    let median = match per_iter_ns.len() {
        0 => 0.0,
        n if n % 2 == 1 => per_iter_ns[n / 2],
        n => (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0,
    };
    let rate = match throughput {
        Some(Throughput::Elements(n)) if mean > 0.0 => {
            format!("  ({:.3} Melem/s)", n as f64 / mean * 1e3)
        }
        Some(Throughput::Bytes(n)) if mean > 0.0 => {
            format!("  ({:.3} MiB/s)", n as f64 / mean * 1e9 / (1024.0 * 1024.0))
        }
        _ => String::new(),
    };
    println!(
        "bench {name:<48} {:>12}/iter  [min {}, max {}]{rate}",
        format_ns(mean),
        format_ns(min),
        format_ns(max),
    );
    if mode.json {
        // One object per line (JSON-lines): easy to `grep '^{'` into an
        // artifact and to diff across commits.
        let throughput_field = match throughput {
            Some(Throughput::Elements(n)) => format!(",\"elements_per_iter\":{n}"),
            Some(Throughput::Bytes(n)) => format!(",\"bytes_per_iter\":{n}"),
            None => String::new(),
        };
        println!(
            "{{\"bench\":\"{name}\",\"mean_ns\":{mean:.1},\"median_ns\":{median:.1},\
             \"min_ns\":{min:.1},\"max_ns\":{max:.1},\"samples\":{samples},\
             \"iters_per_sample\":{iters_per_sample}{throughput_field}}}"
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundles benchmark targets into one runnable group function, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        /// Runs every target of this benchmark group.
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Generates the `main` function running the given groups, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(10));
        group.bench_function("sum", |b| b.iter(|| (0..10u64).sum::<u64>()));
        group.finish();
    }

    criterion_group!(shim_group, target);

    #[test]
    fn harness_runs_and_times() {
        shim_group();
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("direct", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn json_and_quick_modes_run() {
        // The JSON emitter and the quick-tier sample cap share the same
        // code path as the human output; exercise both together.
        let mut c = Criterion::default()
            .sample_size(40)
            .with_json(true)
            .with_quick(true);
        let mut group = c.benchmark_group("modes");
        group.throughput(Throughput::Bytes(64));
        group.bench_function("sum", |b| b.iter(|| (0..64u64).sum::<u64>()));
        group.finish();
        // Flags default off unless the process args carry them (the test
        // binary's args do not).
        let plain = Criterion::default();
        assert!(!plain.mode.json && !plain.mode.quick);
    }
}
