//! The deterministic sharded executor: the engine behind [`crate::run`].
//!
//! A scenario is partitioned into **interference cells** — connected
//! components of the carrier–receiver graph its tag list induces (a tag
//! links its illuminating carrier to its destination receiver). Each cell
//! runs a complete [`crate::engine`] core on its own timing wheel; the
//! cells advance in lockstep over a shared **epoch clock**
//! ([`crate::scenario::ExecutionConfig::epoch_s`]) and exchange
//! cross-cell interference at every epoch boundary.
//!
//! ## Determinism contract
//!
//! The cell structure is derived from the *scenario alone* — never from
//! the shard count. [`crate::scenario::ExecutionConfig::shards`] only
//! chunks the fixed cell list into contiguous worker groups through
//! [`rayon::det::for_each_mut_ordered`], whose result state is identical
//! at any group count by construction. Consequently the event trace, its
//! FNV-1a digest, the metrics and the telemetry report are **byte
//! identical at every shard count** (1, 2, 4, 8, …) — pinned by the
//! `net_sharding` matrix test on every closed-loop preset.
//!
//! Two regimes:
//!
//! * **Single cell** (every bedside preset: shared receivers couple all
//!   carriers). The executor runs the *original* scenario on one engine
//!   core, chunked through [`crate::event::EventQueue::pop_before`] —
//!   provably the same pops in the same order as one straight run, so the
//!   digest is byte-identical to the legacy
//!   [`crate::engine::NetworkSim::run`] at any shard count.
//! * **Multiple cells** (`campus`, the multi-hub `zigbee_wing`). Each
//!   cell becomes a sub-scenario over its own entities (indices remapped,
//!   relative order preserved); trace lines carry a `c{cell}| ` prefix
//!   and are merged by `(time, cell, emission order)`. The digest is new
//!   relative to the unsharded engine — the cell-local RNG streams are
//!   keyed by cell-local entity ids — but invariant in the shard count.
//!
//! ## Cross-cell interference exchange
//!
//! Inside an epoch, cells are independent. Every in-model transmission
//! charges its banded airtime to a per-cell boundary accumulator
//! ([`crate::engine`]'s `BoundaryAccum`); at each epoch boundary the
//! executor drains all accumulators and injects, into every *other* cell,
//! one **hidden ghost window** per band summing the foreign airtime (a
//! `CoexSource` ghost proxy emits it at the foreign carriers' centroid,
//! clamped to one epoch). Ghost windows collide and raise sensed
//! occupancy exactly like any hidden external emission, so cross-cell
//! collisions survive partitioning with a one-epoch reporting lag — the
//! documented relaxation of this executor. Real coex sources are
//! replicated into every cell with their global RNG stream indices, so
//! their emission processes stay globally aligned; their counters are
//! reported from cell 0's perspective.
//!
//! Everything cross-shard flows through the drain → merge → inject path
//! at epoch boundaries; detlint's `shard_exchange` rule fails any
//! sync-primitive side channel that would bypass it.

use crate::coex::{CoexConfig, CoexModel, CoexSource};
use crate::engine::{band_order, EngineCore, NetRunResult};
use crate::entities::Position;
use crate::event::{EventTrace, TraceRecord};
use crate::medium::Band;
use crate::metrics::{NetworkMetrics, ShardLoad, DISPLACEMENT_BIN_M, OCCUPANCY_BIN};
use crate::prof::Profiler;
use crate::scenario::{ExecutionConfig, Scenario};
use crate::telemetry::{MetricsMode, RateBins, SinkReport, TelemetryReport};
use crate::time::Time;
use crate::NetError;

/// One interference cell of a partitioned scenario: the global indices of
/// the entities it simulates, each list ascending (so cell-local index
/// order mirrors global order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cell {
    /// Global carrier indices.
    pub carriers: Vec<usize>,
    /// Global tag indices.
    pub tags: Vec<usize>,
    /// Global receiver indices.
    pub receivers: Vec<usize>,
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        // Always merge toward the lower root so component roots are a
        // pure function of the edge set, not the union order.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }
}

fn whole_cell(scenario: &Scenario) -> Cell {
    Cell {
        carriers: (0..scenario.carriers.len()).collect(),
        tags: (0..scenario.tags.len()).collect(),
        receivers: (0..scenario.receivers.len()).collect(),
    }
}

/// Partitions `scenario` into its interference cells: connected
/// components of the carrier–receiver graph (a tag is an edge between its
/// carrier and its receiver), ordered by smallest carrier index.
///
/// Entities no tag references — tagless carriers, unreferenced receivers
/// — fold into cell 0. Scenarios with a mobility model or an adaptive
/// re-striping policy fold to a single cell: both re-tune entities across
/// cell boundaries mid-run, which the epoch exchange deliberately does
/// not model. The result depends only on the scenario, never on the
/// shard count.
pub fn partition(scenario: &Scenario) -> Vec<Cell> {
    let nc = scenario.carriers.len();
    let nr = scenario.receivers.len();
    let restripes = scenario.coex.as_ref().is_some_and(|c| c.restripe.is_some());
    if scenario.mobility.is_some() || restripes {
        return vec![whole_cell(scenario)];
    }

    // Union-find over carriers [0, nc) and receivers [nc, nc + nr).
    let mut parent: Vec<usize> = (0..nc + nr).collect();
    let mut has_tags = vec![false; nc];
    for tag in &scenario.tags {
        union(&mut parent, tag.carrier, nc + tag.receiver);
        has_tags[tag.carrier] = true;
    }

    let mut cells: Vec<Cell> = Vec::new();
    let mut cell_of_root: Vec<Option<usize>> = vec![None; nc + nr];
    let mut cell_of_carrier: Vec<usize> = vec![0; nc];
    for c in 0..nc {
        if !has_tags[c] {
            continue;
        }
        let root = find(&mut parent, c);
        let idx = *cell_of_root[root].get_or_insert_with(|| {
            cells.push(Cell::default());
            cells.len() - 1
        });
        cells[idx].carriers.push(c);
        cell_of_carrier[c] = idx;
    }
    if cells.len() <= 1 {
        return vec![whole_cell(scenario)];
    }
    // Tagless carriers contend in cell 0 (they emit tones but illuminate
    // nobody); re-sort so local order still mirrors global order.
    for (c, tagged) in has_tags.iter().enumerate() {
        if !tagged {
            cells[0].carriers.push(c);
        }
    }
    cells[0].carriers.sort_unstable();
    for (t, tag) in scenario.tags.iter().enumerate() {
        cells[cell_of_carrier[tag.carrier]].tags.push(t);
    }
    for s in 0..nr {
        let root = find(&mut parent, nc + s);
        let idx = cell_of_root[root].unwrap_or(0);
        cells[idx].receivers.push(s);
    }
    cells
}

/// A dense global → cell-local index map (`None` outside the cell).
fn local_map(n: usize, members: &[usize]) -> Vec<Option<usize>> {
    let mut map = vec![None; n];
    for (local, &global) in members.iter().enumerate() {
        map[global] = Some(local);
    }
    map
}

/// The ghost coex source standing in for every carrier *outside* `cell`:
/// placed at the foreign carriers' centroid, transmitting at their peak
/// power, silent on its own RNG stream (the executor schedules its
/// windows at epoch boundaries).
fn ghost_for(scenario: &Scenario, in_cell: &[Option<usize>]) -> CoexSource {
    let (mut x, mut y, mut z, mut n) = (0.0, 0.0, 0.0, 0usize);
    let mut power = f64::NEG_INFINITY;
    for (c, carrier) in scenario.carriers.iter().enumerate() {
        if in_cell[c].is_some() {
            continue;
        }
        let p = carrier.position();
        x += p.x;
        y += p.y;
        z += p.z;
        n += 1;
        power = power.max(carrier.tx_power_dbm);
    }
    debug_assert!(n > 0, "ghost_for on a cell containing every carrier");
    let scale = n.max(1) as f64;
    CoexSource::ghost(Position::new(x / scale, y / scale, z / scale), power)
}

/// Builds cell `cell`'s sub-scenario: its entities with indices remapped
/// (relative order preserved), mobility/re-striping off (the partitioner
/// folded those to one cell), all real coex sources replicated at their
/// global stream indices plus the ghost proxy appended last, and per-cell
/// progress stripped (the executor emits epoch progress itself).
fn sub_scenario(scenario: &Scenario, cell: &Cell) -> Scenario {
    let carrier_local = local_map(scenario.carriers.len(), &cell.carriers);
    let tag_local = local_map(scenario.tags.len(), &cell.tags);
    let rx_local = local_map(scenario.receivers.len(), &cell.receivers);

    let carriers = cell
        .carriers
        .iter()
        .map(|&c| scenario.carriers[c].clone())
        .collect();
    let receivers = cell
        .receivers
        .iter()
        .map(|&s| scenario.receivers[s].clone())
        .collect();
    let tags = cell
        .tags
        .iter()
        .map(|&t| {
            let mut tag = scenario.tags[t].clone();
            tag.carrier = carrier_local[tag.carrier].expect("tag's carrier is in its cell");
            tag.receiver = rx_local[tag.receiver].expect("tag's receiver is in its cell");
            tag
        })
        .collect();

    // Real sources keep their global indices 0..n-1 (their RNG streams are
    // keyed by index, so emission processes stay aligned across cells);
    // the ghost rides at index n. Constant scalars are per-sink: remap
    // in-cell sinks, neutralize out-of-cell ones in place so they do not
    // shift the indices of the emitting sources behind them. A scenario
    // without a coex config gets the constant-occupancy bridge instead,
    // preserving the legacy per-sink scalar fold exactly.
    let mut sources: Vec<CoexSource> = match &scenario.coex {
        Some(cfg) => cfg
            .sources
            .iter()
            .map(|source| {
                let mut source = *source;
                if let CoexModel::Constant(c) = &mut source.model {
                    match rx_local[c.sink] {
                        Some(local) => c.sink = local,
                        None => {
                            c.sink = 0;
                            c.occupancy = 0.0;
                        }
                    }
                }
                source
            })
            .collect(),
        None => cell
            .receivers
            .iter()
            .enumerate()
            .map(|(local, &s)| {
                CoexSource::constant(local, scenario.receivers[s].external_occupancy)
            })
            .collect(),
    };
    sources.push(ghost_for(scenario, &carrier_local));
    let coex = CoexConfig {
        sources,
        sense: scenario.coex.as_ref().map(|c| c.sense).unwrap_or_default(),
        restripe: None,
    };

    let mut telemetry = scenario.telemetry.clone();
    telemetry.progress_every_s = None;
    telemetry.live_progress = false;
    for sub in &mut telemetry.subscriptions {
        if let Some(tags) = &mut sub.filter.tags {
            *tags = tags.iter().filter_map(|&t| tag_local[t]).collect();
        }
        if let Some(carriers) = &mut sub.filter.carriers {
            *carriers = carriers.iter().filter_map(|&c| carrier_local[c]).collect();
        }
    }

    Scenario {
        name: scenario.name.clone(),
        duration_s: scenario.duration_s,
        carriers,
        tags,
        receivers,
        cts_to_self: scenario.cts_to_self,
        max_queue: scenario.max_queue,
        mac: scenario.mac,
        mobility: None,
        scheduler: scenario.scheduler,
        coex: Some(coex),
        telemetry,
        execution: ExecutionConfig {
            // Profiling rides into the cell cores (their init/epoch spans);
            // everything else about the sub-scenario's run shape is the
            // executor's business, not the cell's.
            profile: scenario.execution.profile,
            ..ExecutionConfig::default()
        },
    }
}

/// Runs `scenario` through the sharded executor and returns the same
/// [`NetRunResult`] the unsharded engine produces — byte-identical at any
/// [`crate::scenario::ExecutionConfig::shards`] value.
pub(crate) fn execute(
    scenario: &Scenario,
    seed: u64,
    record_trace: bool,
) -> Result<NetRunResult, NetError> {
    scenario.validate()?;
    let mut profiler = scenario
        .execution
        .profile
        .then(|| Profiler::wall(scenario.execution.build_ns));
    let epoch_ns = Time::from_secs(scenario.execution.epoch_s)
        .as_nanos()
        .max(1);
    let part_tok = profiler.as_mut().map(|p| p.begin("partition"));
    let cells = partition(scenario);
    if let (Some(p), Some(tok)) = (profiler.as_mut(), part_tok) {
        p.end(tok);
    }
    if cells.len() <= 1 {
        // One cell: run the *original* scenario (original entity ids keep
        // the RNG streams, and therefore the digest, byte-identical to
        // the exact unsharded engine) in epoch-sized chunks.
        let mut core = EngineCore::new(scenario, seed, record_trace)?;
        let mut limit = epoch_ns;
        while !core.is_done() {
            core.run_until(Time(limit));
            limit = limit.saturating_add(epoch_ns);
        }
        let mut result = core.finish();
        if let Some(mut p) = profiler {
            if let Some(cell) = result.prof.take() {
                p.absorb(cell);
            }
            result.prof = Some(p.finish(&scenario.name));
        }
        return Ok(result);
    }

    let subs: Vec<Scenario> = cells
        .iter()
        .map(|cell| sub_scenario(scenario, cell))
        .collect();
    let mut cores = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        let mut core = EngineCore::new(sub, seed, record_trace)?;
        core.enable_boundary_exchange();
        core.set_prof_track(i as u32);
        cores.push(core);
    }

    let shards = scenario.execution.shards;
    let progress_every_ns = scenario
        .telemetry
        .progress_every_s
        .map(|s| Time::from_secs(s).as_nanos().max(1));
    let live = scenario.telemetry.live_progress;
    let mut progress_lines = Vec::new();
    let mut next_progress = progress_every_ns.unwrap_or(u64::MAX);

    // The deterministic shard-load ledger ([`ShardLoad`]), recorded on
    // every multi-cell run regardless of profiling: event counts derive
    // from the event loop alone, so the metrics report stays byte-
    // identical with profiling on or off.
    let mut prev_events: Vec<u64> = vec![0; cores.len()];
    let mut epoch_events: Vec<Vec<u64>> = Vec::new();
    let mut ghost_windows: Vec<u64> = vec![0; cores.len()];

    let mut boundary = epoch_ns;
    while cores.iter().any(|core| !core.is_done()) {
        let limit = Time(boundary);
        // The parallel step: each worker group advances its contiguous
        // chunk of cells to the epoch boundary. Group count cannot change
        // state, only wall-clock.
        rayon::det::for_each_mut_ordered(shards, &mut cores, |_, core| core.run_until(limit));

        let mut row = Vec::with_capacity(cores.len());
        for (i, core) in cores.iter().enumerate() {
            let events = core.events_so_far();
            row.push(events.saturating_sub(prev_events[i]));
            prev_events[i] = events;
        }
        epoch_events.push(row);

        // The exchange: drain every cell's banded airtime, then inject
        // each cell's *foreign* total as hidden ghost windows opening at
        // the boundary, clamped to one epoch. Cell order and the
        // canonical band order make the merge deterministic.
        let exch_tok = profiler.as_mut().map(|p| p.begin("exchange"));
        let drained: Vec<Vec<(Band, f64)>> =
            cores.iter_mut().map(|core| core.drain_boundary()).collect();
        for (i, core) in cores.iter_mut().enumerate() {
            if core.is_done() {
                continue;
            }
            let mut foreign: Vec<(Band, f64)> = Vec::new();
            for rows in drained
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, rows)| rows)
            {
                for &(band, airtime_s) in rows {
                    match foreign.binary_search_by(|(b, _)| band_order(b, &band)) {
                        Ok(k) => foreign[k].1 += airtime_s,
                        Err(k) => foreign.insert(k, (band, airtime_s)),
                    }
                }
            }
            for (band, airtime_s) in foreign {
                if airtime_s <= 0.0 {
                    continue;
                }
                let window = Time::from_secs(airtime_s).as_nanos().clamp(1, epoch_ns);
                core.inject_ghost(limit, band, Time(boundary.saturating_add(window)));
                ghost_windows[i] += 1;
            }
        }
        if let (Some(p), Some(tok)) = (profiler.as_mut(), exch_tok) {
            p.end(tok);
        }

        while boundary >= next_progress {
            let events: u64 = prev_events.iter().sum();
            let epoch = epoch_events.len().saturating_sub(1);
            let ev_epoch: u64 = epoch_events.last().map(|row| row.iter().sum()).unwrap_or(0);
            let active = cores.iter().filter(|core| !core.is_done()).count();
            let line = format!(
                "[{:>12}] sharded progress: epoch {}  {} events  {} ev/epoch  {}/{} cells active",
                next_progress,
                epoch,
                events,
                ev_epoch,
                active,
                cores.len()
            );
            if live {
                eprintln!("{line}");
            }
            progress_lines.push(line);
            next_progress = next_progress.saturating_add(progress_every_ns.unwrap_or(u64::MAX));
        }
        boundary = boundary.saturating_add(epoch_ns);
    }

    let mut results: Vec<NetRunResult> = cores.into_iter().map(EngineCore::finish).collect();
    if let Some(p) = profiler.as_mut() {
        for result in &mut results {
            if let Some(cell) = result.prof.take() {
                p.absorb(cell);
            }
        }
    }
    let load = ShardLoad {
        cell_events: prev_events,
        epoch_events,
        ghost_windows,
    };
    let merge_tok = profiler.as_mut().map(|p| p.begin("merge_finalize"));
    let mut merged = merge_results(
        scenario,
        &cells,
        results,
        record_trace,
        progress_lines,
        Some(load),
    );
    if let (Some(p), Some(tok)) = (profiler.as_mut(), merge_tok) {
        p.end(tok);
    }
    merged.prof = profiler.map(|p| p.finish(&scenario.name));
    Ok(merged)
}

fn merge_results(
    scenario: &Scenario,
    cells: &[Cell],
    mut results: Vec<NetRunResult>,
    record_trace: bool,
    progress: Vec<String>,
    load: Option<ShardLoad>,
) -> NetRunResult {
    // Trace: prefix each cell's lines with its cell id and interleave by
    // (time, cell, emission order) — a stable sort on an already
    // per-cell-ordered sequence, so the merge is total and deterministic.
    let mut records: Vec<(u64, usize, TraceRecord)> = Vec::new();
    for (cell, result) in results.iter_mut().enumerate() {
        for record in std::mem::take(&mut result.trace).into_records() {
            let what = format!("c{cell}| {}", record.what);
            records.push((
                record.at.as_nanos(),
                cell,
                TraceRecord {
                    at: record.at,
                    what,
                },
            ));
        }
    }
    records.sort_by_key(|&(at, cell, _)| (at, cell));
    let trace = EventTrace::from_records(
        records.into_iter().map(|(_, _, record)| record).collect(),
        record_trace,
    );

    let streaming = scenario.telemetry.mode == MetricsMode::Streaming;
    let mut metrics = NetworkMetrics::new(
        scenario.tags.len(),
        scenario.receivers.len(),
        scenario.duration_s,
    );
    if streaming {
        metrics.enable_streaming();
    }
    let n_real_sources = scenario.coex.as_ref().map(|c| c.sources.len());
    if let Some(n) = n_real_sources {
        metrics.init_coex(scenario.carriers.len(), n);
    }

    let mut telemetry = TelemetryReport {
        events: 0,
        subscriptions: Vec::new(),
        progress,
    };

    for (i, (cell, result)) in cells.iter().zip(results.iter_mut()).enumerate() {
        let m = &mut result.metrics;
        for (local, &t) in cell.tags.iter().enumerate() {
            metrics.tags[t] = m.tags[local];
        }
        for (local, &s) in cell.receivers.iter().enumerate() {
            metrics.mirror_airtime_s[s] += m.mirror_airtime_s[local];
        }
        for &sample in m.latency_ms.samples() {
            metrics.latency_ms.push(sample);
        }
        for &sample in m.transaction_latency_ms.samples() {
            metrics.transaction_latency_ms.push(sample);
        }
        for &sample in m.poll_latency_ms.samples() {
            metrics.poll_latency_ms.push(sample);
        }
        if n_real_sources.is_some() {
            // Occupancy series exist per cell regardless (every sub-
            // scenario carries a coex config for the ghost); keep them
            // only when the user's scenario actually asked for coex.
            for (local, &c) in cell.carriers.iter().enumerate() {
                metrics.occupancy_series[c] = std::mem::take(&mut m.occupancy_series[local]);
            }
        }
        if let (Some(global), Some(local)) = (&mut metrics.streaming, &m.streaming) {
            global.merge(local);
            if let Some(bins) = &local.displacement_bins {
                global
                    .displacement_bins
                    .get_or_insert_with(|| RateBins::new(DISPLACEMENT_BIN_M))
                    .merge(bins);
            }
            if let Some(bins) = &local.occupancy_bins {
                global
                    .occupancy_bins
                    .get_or_insert_with(|| RateBins::new(OCCUPANCY_BIN))
                    .merge(bins);
            }
            for (l, &c) in cell.carriers.iter().enumerate() {
                if let (Some(dst), Some(&src)) = (
                    global.peak_occupancy.get_mut(c),
                    local.peak_occupancy.get(l),
                ) {
                    *dst = src;
                }
            }
        }

        telemetry.events += result.telemetry.events;
        if i == 0 {
            telemetry.subscriptions = std::mem::take(&mut result.telemetry.subscriptions);
        } else {
            for (merged, sub) in telemetry
                .subscriptions
                .iter_mut()
                .zip(&result.telemetry.subscriptions)
            {
                merge_sink(&mut merged.report, &sub.report);
            }
        }
    }

    // External-source counters are reported from cell 0's perspective
    // (every cell replicates the same emission processes; CSMA defers
    // depend on the local medium, so cell 0 is the canonical observer),
    // truncated to the user's real sources — the appended ghost proxy
    // never emits on its own and is not part of the user's config.
    if let Some(n) = n_real_sources {
        let first = &results[0].metrics;
        metrics.coex_emissions = first.coex_emissions.iter().take(n).copied().collect();
        metrics.coex_airtime_s = first.coex_airtime_s.iter().take(n).copied().collect();
        metrics.coex_defers = first.coex_defers.iter().take(n).copied().collect();
    }

    metrics.shard_load = load;
    NetRunResult {
        metrics,
        trace,
        telemetry,
        prof: None,
    }
}

/// Merges one cell's sink result into the running aggregate. Quantile
/// sketches and counters merge exactly; the windowed rings are trailing-
/// window views that cannot be reconstructed across cells, so their
/// scalars combine pessimistically (worst PRR, peak occupancy) — the
/// documented lossy corner of the multi-cell merge.
fn merge_sink(into: &mut SinkReport, from: &SinkReport) {
    match (into, from) {
        (SinkReport::Quantiles { sketch, .. }, SinkReport::Quantiles { sketch: other, .. }) => {
            sketch.merge(other);
        }
        (
            SinkReport::WindowedPrr { last, worst },
            SinkReport::WindowedPrr {
                last: other_last,
                worst: other_worst,
            },
        ) => {
            *last = fold_opt(*last, *other_last, f64::min);
            *worst = fold_opt(*worst, *other_worst, f64::min);
        }
        (
            SinkReport::WindowedOccupancy { last, peak },
            SinkReport::WindowedOccupancy {
                last: other_last,
                peak: other_peak,
            },
        ) => {
            *last = fold_opt(*last, *other_last, f64::max);
            *peak = peak.max(*other_peak);
        }
        (SinkReport::Counters { counts }, SinkReport::Counters { counts: other }) => {
            for (count, more) in counts.iter_mut().zip(other) {
                *count += more;
            }
        }
        // A subscription's sink kind is fixed by its spec; mismatched
        // variants cannot occur between cells of one run.
        _ => {}
    }
}

fn fold_opt(a: Option<f64>, b: Option<f64>, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (a, None) => a,
        (None, b) => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NetworkSim;

    #[test]
    fn bedside_presets_are_single_cell() {
        for scenario in [
            Scenario::hospital_ward(12),
            Scenario::hospital_ward(12).closed_loop(),
            Scenario::contact_lens_fleet(8),
            Scenario::card_to_card_room(6),
        ] {
            assert_eq!(partition(&scenario).len(), 1, "{}", scenario.name);
        }
        // Sub-band striping gives each AP its own carrier–tag component,
        // so the congested ward genuinely splits.
        assert!(partition(&Scenario::congested_ward(12)).len() > 1);
    }

    #[test]
    fn mobility_and_restripe_fold_to_one_cell() {
        use crate::coex::ReStripe;
        let walking = Scenario::walking_ward(12);
        assert_eq!(partition(&walking).len(), 1);
        let adaptive = Scenario::congested_ward(12).with_restripe(ReStripe::default());
        assert_eq!(partition(&adaptive).len(), 1);
    }

    #[test]
    fn campus_partitions_into_disjoint_covering_cells() {
        let quad = Scenario::campus(2_048);
        let cells = partition(&quad);
        assert!(cells.len() > 1, "campus should split: got {}", cells.len());
        let mut tags = vec![false; quad.tags.len()];
        let mut carriers = vec![false; quad.carriers.len()];
        let mut receivers = vec![false; quad.receivers.len()];
        for cell in &cells {
            assert!(!cell.carriers.is_empty() && !cell.tags.is_empty());
            assert!(!cell.receivers.is_empty());
            for &t in &cell.tags {
                assert!(!tags[t], "tag {t} in two cells");
                tags[t] = true;
            }
            for &c in &cell.carriers {
                assert!(!carriers[c], "carrier {c} in two cells");
                carriers[c] = true;
            }
            for &s in &cell.receivers {
                assert!(!receivers[s], "receiver {s} in two cells");
                receivers[s] = true;
            }
            // Ascending member lists keep local order mirroring global.
            assert!(cell.tags.windows(2).all(|w| w[0] < w[1]));
            assert!(cell.carriers.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(tags.iter().all(|&x| x), "every tag covered");
        assert!(carriers.iter().all(|&x| x), "every carrier covered");
        assert!(receivers.iter().all(|&x| x), "every receiver covered");
    }

    #[test]
    fn partition_ignores_shard_count() {
        let mut quad = Scenario::campus(1_024);
        let reference = partition(&quad);
        for shards in [2usize, 4, 8] {
            quad.execution.shards = shards;
            assert_eq!(partition(&quad), reference);
        }
    }

    #[test]
    fn single_cell_execution_matches_legacy_engine_bytes() {
        // The single-cell path must reproduce NetworkSim::run exactly —
        // same trace bytes, same metrics — at any shard count and any
        // epoch length.
        for scenario in [
            Scenario::hospital_ward(8),
            Scenario::hospital_ward(8).closed_loop(),
            Scenario::card_to_card_room(6),
        ] {
            let legacy = NetworkSim::new(&scenario, 42).run().unwrap();
            for shards in [1usize, 4] {
                let mut sharded = scenario.clone();
                sharded.execution.shards = shards;
                let run = execute(&sharded, 42, true).unwrap();
                assert_eq!(
                    run.trace.to_bytes(),
                    legacy.trace.to_bytes(),
                    "{} at {shards} shards",
                    scenario.name
                );
                assert_eq!(
                    format!("{:?}", run.metrics),
                    format!("{:?}", legacy.metrics)
                );
            }
        }
    }

    #[test]
    fn multi_cell_digest_is_shard_count_invariant() {
        let quad = Scenario::campus(1_024);
        assert!(partition(&quad).len() > 1);
        let reference = execute(&quad, 42, true).unwrap();
        assert!(!reference.trace.to_bytes().is_empty());
        for shards in [2usize, 4, 8] {
            let mut scenario = quad.clone();
            scenario.execution.shards = shards;
            let run = execute(&scenario, 42, true).unwrap();
            assert_eq!(
                run.trace.digest(),
                reference.trace.digest(),
                "campus digest diverged at {shards} shards"
            );
            assert_eq!(
                format!("{:?}", run.metrics),
                format!("{:?}", reference.metrics)
            );
            assert_eq!(run.telemetry, reference.telemetry);
        }
    }

    #[test]
    fn multi_cell_trace_lines_carry_cell_prefixes() {
        let quad = Scenario::campus(1_024);
        let run = execute(&quad, 7, true).unwrap();
        let records = run.trace.records();
        assert!(!records.is_empty());
        assert!(records
            .iter()
            .all(|r| { r.what.starts_with('c') && r.what.as_bytes().contains(&b'|') }));
        // Interleaved by (time, cell): timestamps never decrease.
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn ghost_exchange_reaches_other_cells() {
        // Cross-cell interference must actually arrive: some ghost
        // windows are injected in a multi-cell campus run (visible as
        // ghost trace lines).
        let quad = Scenario::campus(1_024);
        let run = execute(&quad, 42, true).unwrap();
        let ghosts = run
            .trace
            .records()
            .iter()
            .filter(|r| r.what.contains("ghost window"))
            .count();
        assert!(ghosts > 0, "no ghost windows exchanged");
    }

    #[test]
    fn sub_scenarios_validate_and_preserve_counts() {
        let quad = Scenario::campus(2_048);
        let cells = partition(&quad);
        for cell in &cells {
            let sub = sub_scenario(&quad, cell);
            sub.validate().unwrap();
            assert_eq!(sub.tags.len(), cell.tags.len());
            assert_eq!(sub.carriers.len(), cell.carriers.len());
            assert_eq!(sub.receivers.len(), cell.receivers.len());
            // Ghost appended last, real sources keep their indices.
            let coex = sub.coex.as_ref().unwrap();
            assert!(matches!(
                coex.sources.last().unwrap().model,
                CoexModel::Ghost(_)
            ));
            assert_eq!(
                coex.sources.len(),
                quad.coex.as_ref().unwrap().sources.len() + 1
            );
        }
    }
}
