//! The `ward` and `campus` workloads: `net::run` on fleet presets, plus
//! the traced run's outside-timed probes of `net::shard` and `net::links`.

use crate::harness::{median, timed, NetCounts, Op, Output};
use interscatter_net::coex::ReStripe;
use interscatter_net::entities::Position;
use interscatter_net::links::{EntityId, LinkMatrix};
use interscatter_net::mac::MacMode;
use interscatter_net::scenario::{ExecutionSection, RadioSection, Scenario, ScenarioBuilder};
use interscatter_net::shard;
use std::rc::Rc;

/// A preset, from constructor to an unbuilt builder.
pub type Preset = Box<dyn Fn() -> ScenarioBuilder>;

/// The closed-loop variant of a preset, named as `Scenario::closed_loop`
/// names it.
fn closed_loop(s: Scenario) -> ScenarioBuilder {
    let radio = RadioSection::new(s.carriers.clone(), s.tags.clone(), s.receivers.clone())
        .cts_to_self(s.cts_to_self)
        .max_queue(s.max_queue)
        .mac(MacMode::ClosedLoop);
    let name = format!("{}-closed-loop", s.name);
    s.builder().radio(radio).name(name)
}

/// `ward`: four 100-tag presets over 60 simulated seconds.
pub fn ward(tiny: bool) -> Vec<Preset> {
    let n = if tiny { 6 } else { 100 };
    let duration_s = if tiny { 1.0 } else { 60.0 };
    let presets: Vec<Preset> = vec![
        Box::new(move || closed_loop(Scenario::hospital_ward(n))),
        Box::new(move || {
            let s = Scenario::congested_ward(n);
            let coex = s
                .coex
                .clone()
                .expect("congested_ward carries a coex config")
                .with_restripe(ReStripe::default());
            let name = format!("{}-closed-loop-adaptive", s.name);
            closed_loop(s).coex(coex).name(name)
        }),
        Box::new(move || Scenario::ambulatory_ward(n).builder()),
        Box::new(move || Scenario::zigbee_wing(n).builder()),
    ];
    presets
        .into_iter()
        .map(|p| Box::new(move || p().duration_s(duration_s)) as Preset)
        .collect()
}

/// `campus`: three campus sizes at the preset's own duration, one shard.
pub fn campus(tiny: bool) -> Vec<Preset> {
    let sizes: &[usize] = if tiny {
        &[300, 600]
    } else {
        &[2048, 10_000, 100_000]
    };
    sizes
        .iter()
        .map(|&n| {
            Box::new(move || {
                let b = Scenario::campus(n).builder();
                if tiny {
                    b.duration_s(0.2)
                } else {
                    b
                }
            }) as Preset
        })
        .collect()
}

/// A workload's built scenarios and their operations.
pub struct Built {
    /// One `net::run` per scenario.
    pub ops: Vec<Op>,
    /// The untraced scenarios, for the probes.
    pub scenarios: Vec<Rc<Scenario>>,
    /// Seconds spent constructing and building the untraced scenarios.
    pub build_s: f64,
}

/// Builds every preset with tracing off (and, for a traced run, a
/// profiled twin) and wraps each in a `net::run` operation.
pub fn build(presets: &[Preset], seed: u64, traced: bool) -> Result<Built, String> {
    let section = || ExecutionSection::new().trace(false).shards(1);
    let mut built = Built {
        ops: Vec::new(),
        scenarios: Vec::new(),
        build_s: 0.0,
    };
    for preset in presets {
        let (scenario, s) = timed(|| preset().execution(section()).build());
        built.build_s += s;
        let scenario = Rc::new(scenario.map_err(|e| e.to_string())?);
        let profiled = if traced {
            let p = preset().execution(section().profile(true)).build();
            Some(p.map_err(|e| e.to_string())?)
        } else {
            None
        };
        let plain = Rc::clone(&scenario);
        built.ops.push(Op {
            name: scenario.name.clone(),
            run: Box::new(move |t| {
                let s = profiled.as_ref().filter(|_| t).unwrap_or(&plain);
                run(s, seed)
            }),
        });
        built.scenarios.push(scenario);
    }
    Ok(built)
}

fn run(scenario: &Scenario, seed: u64) -> Result<Output, String> {
    let r = interscatter_net::run(scenario, seed).map_err(|e| e.to_string())?;
    let m = &r.metrics;
    let mut text = m.report();
    text.push_str(&r.telemetry.render());
    Ok(Output {
        text,
        net: Some(NetCounts {
            offered: m.offered_packets(),
            delivered: m.delivered_packets(),
            attempts: m.attempts(),
            events: r.telemetry.events,
            ratios: vec![
                ("delivery_ratio", m.delivery_ratio()),
                ("per", m.per()),
                (
                    "transaction_completion_rate",
                    m.transaction_completion_rate(),
                ),
                ("deadline_miss_rate", m.deadline_miss_rate()),
                ("jain_fairness", m.jain_fairness()),
                ("grant_fairness", m.grant_fairness()),
            ],
        }),
        prof: r.prof.map(|p| p.summary()),
    })
}

/// Repetitions of each outside-timed probe; the median is reported.
const PROBE_REPS: usize = 3;
/// Mobility ticks the flush probe replays.
const FLUSH_TICKS: usize = 100;

/// Outside-timed probe results for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioProbe {
    /// Scenario name.
    pub name: String,
    /// Interference cells `shard::partition` finds.
    pub cells: usize,
    /// Tags in the largest cell.
    pub max_cell_tags: usize,
    /// Seconds in `shard::partition`.
    pub partition_s: f64,
    /// Seconds in `LinkMatrix::build` on the whole scenario.
    pub link_build_s: f64,
    /// Mobile scenarios only: seconds per tick of `set_position` on every
    /// tag followed by `LinkMatrix::flush`.
    pub flush_s: Option<f64>,
}

/// Times `shard::partition`, `LinkMatrix::build` and, on mobile
/// scenarios, the incremental `flush` path from outside the program.
pub fn probe(scenario: &Scenario) -> Result<ScenarioProbe, String> {
    let mut partition_s = Vec::new();
    let mut link_build_s = Vec::new();
    let mut cells = Vec::new();
    let mut matrix = None;
    for _ in 0..PROBE_REPS {
        let (c, s) = timed(|| shard::partition(scenario));
        partition_s.push(s);
        cells = c;
        let (m, s) = timed(|| LinkMatrix::build(scenario));
        link_build_s.push(s);
        matrix = Some(m.map_err(|e| e.to_string())?);
    }
    let flush_s = match (&scenario.mobility, matrix) {
        (Some(_), Some(mut matrix)) => Some(flush_probe(scenario, &mut matrix)?),
        _ => None,
    };
    Ok(ScenarioProbe {
        name: scenario.name.clone(),
        cells: cells.len(),
        max_cell_tags: cells.iter().map(|c| c.tags.len()).max().unwrap_or(0),
        partition_s: median(&partition_s),
        link_build_s: median(&link_build_s),
        flush_s,
    })
}

/// Moves every tag 5 cm back and forth, one flush per tick, and returns
/// the median seconds per tick.
fn flush_probe(scenario: &Scenario, matrix: &mut LinkMatrix) -> Result<f64, String> {
    let n = scenario.tags.len();
    let mut ticks = Vec::with_capacity(FLUSH_TICKS);
    for tick in 0..FLUSH_TICKS {
        let dx = if tick % 2 == 0 { 0.05 } else { -0.05 };
        let (refreshed, s) = timed(|| {
            for t in 0..n {
                let p = matrix.position(EntityId::Tag(t));
                matrix.set_position(EntityId::Tag(t), Position::new(p.x + dx, p.y, p.z));
            }
            matrix.flush(scenario)
        });
        if refreshed != n {
            return Err(format!("flush refreshed {refreshed} of {n} moved tags"));
        }
        ticks.push(s);
    }
    Ok(median(&ticks))
}
