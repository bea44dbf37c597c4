//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <figures|ward|campus> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed and runs an untimed
//! warm-up pass, five times (the first warm-up's output digests every
//! later pass must reproduce), then repeats timed passes for `--seconds`.
//! `--trace 0` reports the end-to-end metrics at reference host speed;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! stdout is one JSON object. See README.md.

#![forbid(unsafe_code)]

mod figures;
mod harness;
mod net;

use harness::{
    median, peak_rss_mb, quantile, run_pass, Calibrator, Ledger, Op, Pass, Spans, CAL_BUF_MIB,
    CAL_REF_S, LOW_QUANTILE,
};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`), with units. A metric of a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("sim.fig06_s", "s"),
    ("sim.fig09_s", "s"),
    ("sim.packet_fit_s", "s"),
    ("sim.fig10_s", "s"),
    ("sim.fig11_s", "s"),
    ("sim.fig12_s", "s"),
    ("sim.fig13_s", "s"),
    ("sim.fig14_s", "s"),
    ("sim.fig15_s", "s"),
    ("sim.fig16_s", "s"),
    ("sim.fig17_s", "s"),
    ("sim.power_s", "s"),
    ("sim.scrambler_seed_s", "s"),
    ("sim.ablations_s", "s"),
    ("wifi.dot11b_tx_us", "us"),
    ("channel.add_noise_us", "us"),
    ("wifi.dot11b_rx_us", "us"),
    ("wifi.dot11b_rx_us.mbps2", "us"),
    ("wifi.dot11b_rx_us.mbps11", "us"),
    ("wifi.dot11b_packets", "count"),
    ("wifi.dot11b_ok_ratio", "ratio"),
    ("wifi.fig11_accounted", "ratio"),
    ("zigbee.tx_us", "us"),
    ("channel.zigbee_add_noise_us", "us"),
    ("zigbee.rx_us", "us"),
    ("zigbee.packets", "count"),
    ("zigbee.ok_ratio", "ratio"),
    ("zigbee.fig14_accounted", "ratio"),
    ("scenario.build_ms", "ms"),
    ("shard.partition_ms", "ms"),
    ("shard.cells", "count"),
    ("shard.max_cell_tags", "count"),
    ("prof.exchange_ms", "ms"),
    ("prof.merge_finalize_ms", "ms"),
    ("links.build_ms", "ms"),
    ("prof.link_build_ms", "ms"),
    ("prof.engine_init_ms", "ms"),
    ("links.flush_us", "us"),
    ("prof.link_flush_ms", "ms"),
    ("prof.epoch_ms", "ms"),
    ("prof.finalize_ms", "ms"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("metrics.delivered_ratio", "ratio"),
    ("metrics.attempts_per_delivery", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    Ward,
    Campus,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "figures" => Some(Workload::Figures),
            "ward" => Some(Workload::Ward),
            "campus" => Some(Workload::Campus),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Ward => "ward",
            Workload::Campus => "campus",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Few-millisecond inputs, for the benchmark's own tests.
    tiny: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload <figures|ward|campus> is required")?,
            seed,
            seconds,
            trace,
            tiny: false,
        })
    }
}

/// One workload's inputs, built and validated.
struct Setup {
    ops: Vec<Op>,
    /// Seconds spent building the net scenarios (0 for figures).
    build_s: f64,
    inputs: Inputs,
}

enum Inputs {
    Figures(Box<figures::Params>),
    Net(Vec<Rc<interscatter_net::scenario::Scenario>>),
}

fn setup(args: &Args) -> Result<Setup, String> {
    let net = |presets: Vec<net::Preset>| {
        net::build(&presets, args.seed, args.trace).map(|b| Setup {
            ops: b.ops,
            build_s: b.build_s,
            inputs: Inputs::Net(b.scenarios),
        })
    };
    match args.workload {
        Workload::Figures => {
            let params = figures::Params::new(args.seed, args.tiny);
            Ok(Setup {
                ops: figures::ops(&params),
                build_s: 0.0,
                inputs: Inputs::Figures(Box::new(params)),
            })
        }
        Workload::Ward => net(net::ward(args.tiny)),
        Workload::Campus => net(net::campus(args.tiny)),
    }
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    traced: Vec<Pass>,
    spans: Spans,
    setup: Setup,
    ledger: Ledger,
    cal: Calibrator,
}

/// Sets up [`SETUPS`] times (each with its warm-up pass), then runs timed
/// passes until `seconds` have passed — alternating untraced and traced
/// passes when `trace` is set. The reference kernel runs after every
/// set-up and before every timed pass, outside their timings.
fn measure(
    mut make: impl FnMut() -> Result<Setup, String>,
    start: Instant,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let mut ledger = Ledger::default();
    let mut cal = Calibrator::new();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUPS {
        // The first set-up counts from process start.
        let t0 = if i == 0 { start } else { Instant::now() };
        let setup = make()?;
        run_pass(&setup.ops, &mut ledger, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push(setup.build_s);
        last = Some(setup);
        cal.sample();
    }
    let setup = last.expect("SETUPS is at least 1");
    let mut spans = Spans::default();
    let (mut untraced_s, mut traced_s, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || untraced_s.len() < MIN_PASSES {
        cal.sample();
        untraced_s.push(run_pass(&setup.ops, &mut ledger, None).wall_s);
        if trace {
            let pass = run_pass(&setup.ops, &mut ledger, Some(&mut spans));
            traced_s.push(pass.wall_s);
            traced.push(pass);
        }
    }
    Ok(Measured {
        setup_s,
        build_s,
        untraced_s,
        traced_s,
        traced,
        spans,
        setup,
        ledger,
        cal,
    })
}

/// A run's result: metrics by name with units, and readable lines.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut m = measure(|| setup(args), start, args.seconds, args.trace)?;
    let w = args.workload.name();
    let mut lines = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        values = per_layer(&mut m, &mut lines)?;
    } else {
        let wall = &m.untraced_s;
        let scale = m.cal.scale();
        values.push(("setup_s", median(&m.setup_s) * scale));
        // Contention on shared hosts only ever adds time, in bursts of
        // seconds: a low quantile of the passes (and of the kernel) is the
        // steady estimate of the uncontended pass.
        values.push(("wall_s", quantile(wall, LOW_QUANTILE) * scale));
        // The kernel's buffer is resident all run long; what is left is
        // the program's high-water mark.
        values.push(("peak_rss_mb", peak_rss_mb()? - CAL_BUF_MIB));
        lines.push(format!(
            "{w} setup_s {:.6} s at reference speed (host: {:.6} s, median of {} set-ups, each with a warm-up pass)",
            values[0].1,
            median(&m.setup_s),
            m.setup_s.len()
        ));
        lines.push(format!(
            "{w} wall_s {:.6} s per pass at reference speed (host, {} passes: p10 {:.6} s, median {:.6}, p25 {:.6}, p75 {:.6}, max {:.6})",
            values[1].1,
            wall.len(),
            quantile(wall, LOW_QUANTILE),
            median(wall),
            quantile(wall, 0.25),
            quantile(wall, 0.75),
            quantile(wall, 1.0)
        ));
        lines.push(format!(
            "{w} peak_rss_mb {:.3} MiB (VmHWM less the {CAL_BUF_MIB} MiB reference-kernel buffer)",
            values[2].1
        ));
    }
    lines.push(format!(
        "{w} fail_ratio {} ratio ({} failed of {} operations attempted)",
        m.ledger.fail_ratio(),
        m.ledger.failed,
        m.ledger.attempted
    ));
    lines.extend(m.ledger.failures.iter().map(|f| format!("{w} FAILED {f}")));
    lines.push(format!("{w} digest {:016x}", m.ledger.digest()));
    lines.push(format!(
        "{w} host speed: reference kernel {:.6} s (p10 of {} samples; {CAL_REF_S} s on the reference host)",
        m.cal.kernel_s(),
        m.cal.samples.len()
    ));

    let units: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in units {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push((name, value, unit));
    }
    Ok(Report {
        metrics,
        lines,
        attempted: m.ledger.attempted,
        failed: m.ledger.failed,
    })
}

/// Median over traced passes of one prof phase, milliseconds, summed over
/// the outputs of operation `op` (of every operation when `None`).
fn phase_ms(traced: &[Pass], phase: &str, op: Option<&str>) -> f64 {
    let per_pass: Vec<f64> = traced
        .iter()
        .map(|pass| {
            pass.outputs
                .iter()
                .filter(|(name, _)| op.is_none_or(|op| op == name))
                .filter_map(|(_, o)| o.prof.as_ref())
                .flat_map(|p| p.phase_totals_ns.iter())
                .filter(|(name, _)| name == phase)
                .map(|&(_, ns)| ns as f64 / 1e6)
                .sum()
        })
        .collect();
    median(&per_pass)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run's per-layer metrics, from the traced passes' spans and
/// profiles plus the outside-timed probes; the span table goes to `lines`.
fn per_layer(
    m: &mut Measured,
    lines: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut v = vec![(
        "trace_overhead",
        median(&m.traced_s) / median(&m.untraced_s) - 1.0,
    )];
    match &m.setup.inputs {
        Inputs::Figures(params) => {
            let probe = figures::phy_probe(params, &mut m.ledger);
            v.extend(figure_layers(&m.spans, &probe));
        }
        Inputs::Net(scenarios) => v.extend(net_layers(m, scenarios, lines)?),
    }
    lines.push("span | count | median s | median self s | total s".into());
    let mut names: Vec<&str> = m.spans.spans.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let d = m.spans.durations(name);
        lines.push(format!(
            "{name} | {} | {:.6} | {:.6} | {:.6}",
            d.len(),
            median(&d),
            median(&m.spans.self_times(name)),
            d.iter().sum::<f64>()
        ));
    }
    Ok(v)
}

/// `sim.*` from the runner spans; `wifi.*`, `zigbee.*` and `channel.*`
/// from the PHY-chain probe.
fn figure_layers(spans: &Spans, probe: &figures::PhyProbe) -> Vec<(&'static str, f64)> {
    let span = |name: &str| median(&spans.durations(name));
    let mut v: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .filter(|(name, _)| name.starts_with("sim."))
        .map(|&(name, _)| (name, span(name)))
        .collect();
    let us = |s: f64, n: usize| ratio(s * 1e6, n as f64);
    let [r2, r11] = probe.wifi;
    let z = probe.zigbee;
    let wifi_n = r2.packets + r11.packets;
    v.extend([
        ("wifi.dot11b_tx_us", us(r2.tx_s + r11.tx_s, wifi_n)),
        ("channel.add_noise_us", us(r2.noise_s + r11.noise_s, wifi_n)),
        ("wifi.dot11b_rx_us", us(r2.rx_s + r11.rx_s, wifi_n)),
        ("wifi.dot11b_rx_us.mbps2", us(r2.rx_s, r2.packets)),
        ("wifi.dot11b_rx_us.mbps11", us(r11.rx_s, r11.packets)),
        ("wifi.dot11b_packets", wifi_n as f64),
        (
            "wifi.dot11b_ok_ratio",
            ratio((r2.ok + r11.ok) as f64, wifi_n as f64),
        ),
        (
            "wifi.fig11_accounted",
            ratio(r2.total_s() + r11.total_s(), span("sim.fig11_s")),
        ),
        ("zigbee.tx_us", us(z.tx_s, z.packets)),
        ("channel.zigbee_add_noise_us", us(z.noise_s, z.packets)),
        ("zigbee.rx_us", us(z.rx_s, z.packets)),
        ("zigbee.packets", z.packets as f64),
        ("zigbee.ok_ratio", ratio(z.ok as f64, z.packets as f64)),
        (
            "zigbee.fig14_accounted",
            ratio(z.total_s(), span("sim.fig14_s")),
        ),
    ]);
    v
}

/// `scenario.*`, `shard.*`, `links.*`, `prof.*`, `engine.*` and
/// `metrics.*`, plus a per-scenario table in `lines`.
fn net_layers(
    m: &Measured,
    scenarios: &[Rc<interscatter_net::scenario::Scenario>],
    lines: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let probes = scenarios
        .iter()
        .map(|s| net::probe(s))
        .collect::<Result<Vec<_>, _>>()?;
    let first = m.traced.first().ok_or("no traced pass")?;
    let counts = |op: Option<&str>| {
        first
            .outputs
            .iter()
            .filter(|(name, _)| op.is_none_or(|op| op == name))
            .filter_map(|(_, o)| o.net.as_ref())
            .fold((0u64, 0, 0, 0), |(e, o, d, a), c| {
                (e + c.events, o + c.offered, d + c.delivered, a + c.attempts)
            })
    };
    let (events, offered, delivered, attempts) = counts(None);
    let phase = |name: &str| phase_ms(&m.traced, name, None);
    let total = |f: fn(&net::ScenarioProbe) -> f64| probes.iter().map(f).fold(0.0, |a, b| a + b);
    let mut v = vec![
        ("scenario.build_ms", median(&m.build_s) * 1e3),
        ("shard.partition_ms", total(|p| p.partition_s) * 1e3),
        ("shard.cells", total(|p| p.cells as f64)),
        (
            "shard.max_cell_tags",
            probes.iter().map(|p| p.max_cell_tags).max().unwrap_or(0) as f64,
        ),
        ("links.build_ms", total(|p| p.link_build_s) * 1e3),
        ("links.flush_us", total(|p| p.flush_s.unwrap_or(0.0)) * 1e6),
        ("engine.events", events as f64),
        (
            "engine.ns_per_event",
            ratio(phase("epoch") * 1e6, events as f64),
        ),
        (
            "metrics.delivered_ratio",
            ratio(delivered as f64, offered as f64),
        ),
        (
            "metrics.attempts_per_delivery",
            ratio(attempts as f64, delivered as f64),
        ),
    ];
    for (metric, name) in [
        ("prof.exchange_ms", "exchange"),
        ("prof.merge_finalize_ms", "merge_finalize"),
        ("prof.link_build_ms", "link_build"),
        ("prof.engine_init_ms", "engine_init"),
        ("prof.link_flush_ms", "link_flush"),
        ("prof.epoch_ms", "epoch"),
        ("prof.finalize_ms", "finalize"),
    ] {
        v.push((metric, phase(name)));
    }
    lines.push(
        "scenario | cells | max cell tags | links.build_ms (outside) | prof.link_build_ms \
         | prof.engine_init_ms | prof.epoch_ms | events"
            .into(),
    );
    for p in &probes {
        let phase = |name: &str| phase_ms(&m.traced, name, Some(&p.name));
        lines.push(format!(
            "{} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {}",
            p.name,
            p.cells,
            p.max_cell_tags,
            p.link_build_s * 1e3,
            phase("link_build"),
            phase("engine_init"),
            phase("epoch"),
            counts(Some(&p.name)).0
        ));
    }
    Ok(v)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Output;

    fn tiny(workload: Workload, trace: bool) -> Report {
        let args = Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            tiny: true,
        };
        run(&args, Instant::now()).expect("tiny run")
    }

    fn assert_emits(report: &Report, expected: &[(&str, &str)]) {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let wanted: Vec<&str> = expected.iter().map(|m| m.0).collect();
        assert_eq!(names, wanted);
        assert!(report.metrics.iter().all(|m| !m.2.is_empty()));
        let json = report.json();
        for (name, unit) in expected {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }

    #[test]
    fn every_workload_emits_every_metric_with_a_unit() {
        for w in [Workload::Figures, Workload::Ward, Workload::Campus] {
            let plain = tiny(w, false);
            assert_eq!(plain.failed, 0, "{:?}: {:?}", w, plain.lines);
            assert_emits(&plain, &END_TO_END);
            assert!(plain.metrics.iter().all(|m| m.1 > 0.0));
            assert!(plain.lines.iter().any(|l| l.contains("fail_ratio 0 ratio")));
            let traced = tiny(w, true);
            assert_eq!(traced.failed, 0, "{:?}: {:?}", w, traced.lines);
            assert_emits(&traced, &PER_LAYER);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_digest() {
        let digest = |r: &Report| r.lines.iter().find(|l| l.contains(" digest ")).cloned();
        let a = tiny(Workload::Campus, false);
        let b = tiny(Workload::Campus, false);
        assert!(digest(&a).is_some());
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let declared = json.matches("\"name\"").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = ["figures", "ward", "campus"];
        for w in workloads {
            assert!(json.contains(&format!("\"name\": \"{w}\"")));
        }
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads.len()
        );
    }

    #[test]
    fn an_injected_bad_output_counts_toward_fail_ratio() {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let make = || {
            let calls = std::rc::Rc::clone(&calls);
            Ok(Setup {
                ops: vec![
                    Op {
                        name: "steady".into(),
                        run: Box::new(|_| {
                            Ok(Output {
                                text: "PER 0.1".into(),
                                ..Output::default()
                            })
                        }),
                    },
                    Op {
                        // Differs from its warm-up output on every later call.
                        name: "drifting".into(),
                        run: Box::new(move |_| {
                            calls.set(calls.get() + 1);
                            Ok(Output {
                                text: format!("pass {}", calls.get()),
                                ..Output::default()
                            })
                        }),
                    },
                    Op {
                        name: "nan".into(),
                        run: Box::new(|_| {
                            Ok(Output {
                                text: "PER NaN".into(),
                                ..Output::default()
                            })
                        }),
                    },
                ],
                build_s: 0.0,
                inputs: Inputs::Net(Vec::new()),
            })
        };
        let m = measure(make, Instant::now(), 0.0, false).expect("measure");
        let passes = (SETUPS + MIN_PASSES) as u64;
        assert_eq!(m.ledger.attempted, 3 * passes);
        // The NaN op fails every pass; the drifting op every pass but the
        // first warm-up, which pinned its reference.
        assert_eq!(m.ledger.failed, passes + passes - 1);
        let report = Report {
            metrics: vec![],
            lines: vec![],
            attempted: m.ledger.attempted,
            failed: m.ledger.failed,
        };
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}
