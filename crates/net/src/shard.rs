//! Interference-cell analysis: the groups of carriers, tags and receivers
//! a scenario's tag assignments link together.
//!
//! [`partition`] splits a scenario into **interference cells** — connected
//! components of the carrier–receiver graph its tag list induces (a tag
//! links its illuminating carrier to its destination receiver). Every
//! bedside preset is one cell (shared receivers couple all carriers);
//! `campus`, the multi-hub `zigbee_wing` and the striped `congested_ward`
//! split into several. The result depends only on the scenario.
//!
//! This is analysis, not execution: [`crate::run`] simulates every
//! scenario on one engine, because the tags of neighbouring cells still
//! share the 2.4 GHz medium and interfere across cell boundaries.

use crate::scenario::Scenario;

/// One interference cell of a partitioned scenario: the global indices of
/// its entities, each list ascending.
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
/// re-striping policy fold to a single cell: both move entities across
/// cell boundaries mid-run. The result depends only on the scenario.
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// One direct pass of the engine core: `new`, `run`, `finish` — the
    /// reference every `crate::run` shape must match.
    fn one_pass(scenario: &Scenario, seed: u64) -> crate::engine::NetRunResult {
        let mut core = crate::engine::EngineCore::new(scenario, seed, true).unwrap();
        core.run();
        core.finish()
    }

    #[test]
    fn single_cell_execution_matches_legacy_engine_bytes() {
        // A single-cell scenario run through `crate::run` must reproduce
        // one direct engine pass exactly — same trace bytes, same metrics
        // — at any shard count and any progress cadence.
        for scenario in [
            Scenario::hospital_ward(8),
            Scenario::hospital_ward(8).closed_loop(),
            Scenario::card_to_card_room(6),
        ] {
            assert_eq!(partition(&scenario).len(), 1, "{}", scenario.name);
            let legacy = one_pass(&scenario, 42);
            for (shards, progress) in [(1usize, None), (4, Some(0.05)), (8, Some(0.001))] {
                let mut shaped = scenario.clone();
                shaped.execution.shards = shards;
                shaped.telemetry.progress_every_s = progress;
                let run = crate::run(&shaped, 42).unwrap();
                assert_eq!(
                    run.trace.to_bytes(),
                    legacy.trace.to_bytes(),
                    "{} at {shards} shards, progress {progress:?} s",
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
        // Campus splits into several interference cells, yet the shard
        // count never reaches the simulation: digest, metrics and
        // telemetry equal one direct engine pass at every count.
        let quad = Scenario::campus(1_024);
        assert!(partition(&quad).len() > 1);
        let reference = one_pass(&quad, 42);
        assert!(!reference.trace.to_bytes().is_empty());
        for shards in [1usize, 2, 4, 8] {
            let mut scenario = quad.clone();
            scenario.execution.shards = shards;
            let run = crate::run(&scenario, 42).unwrap();
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
}
