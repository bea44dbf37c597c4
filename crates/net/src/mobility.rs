//! Mobility models: how entities move between [`crate::engine`] mobility
//! ticks.
//!
//! The paper's deployments are inherently mobile — contact lenses on moving
//! heads, implants on walking patients, cards carried across a room — so a
//! scenario may attach a [`MobilityConfig`] that drives a periodic
//! `MobilityTick` event. Each tick advances every tag's [`MotionState`] by
//! one [`MobilityModel::step`] and pushes the new geometry into the
//! [`crate::links::LinkMatrix`] through its dirty-entity invalidation API,
//! so link budgets always reflect where the entities *currently* are.
//!
//! Determinism: a model draws randomness only from the RNG handed to
//! `step`, which the engine seeds per entity from `(scenario seed, mobility
//! stream, entity index)`. Two runs with the same seed therefore trace the
//! identical walk, tick for tick — the same contract every other random
//! draw in the engine honours.

use crate::entities::Position;
use crate::scenario::{finite_position, positive_finite};
use rand::rngs::SmallRng;
use rand::Rng;
use std::f64::consts::TAU;

/// Axis-aligned box the mobile entities roam, metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lowest corner (inclusive).
    pub min: Position,
    /// Highest corner (inclusive). A degenerate axis (`min == max`) pins
    /// motion to that plane — the usual case for `z`, since people walk on
    /// the floor.
    pub max: Position,
}

impl Bounds {
    /// Builds a box from two corners.
    pub fn new(min: Position, max: Position) -> Self {
        Bounds { min, max }
    }

    /// A room of `width × depth` metres on the floor plane `z`.
    pub fn room(width: f64, depth: f64, z: f64) -> Self {
        Bounds {
            min: Position::new(0.0, 0.0, z),
            max: Position::new(width, depth, z),
        }
    }

    /// True when every coordinate of `p` lies inside the box.
    pub fn contains(&self, p: &Position) -> bool {
        (self.min.x..=self.max.x).contains(&p.x)
            && (self.min.y..=self.max.y).contains(&p.y)
            && (self.min.z..=self.max.z).contains(&p.z)
    }

    /// `p` with every coordinate clamped into the box.
    pub fn clamp(&self, p: Position) -> Position {
        Position::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
            p.z.clamp(self.min.z, self.max.z),
        )
    }

    /// Checks both corners are finite and the box is non-empty on every
    /// axis.
    pub fn validate(&self) -> Result<(), String> {
        if !(finite_position(&self.min) && finite_position(&self.max)) {
            return Err("bounds corners must be finite".into());
        }
        for (lo, hi, axis) in [
            (self.min.x, self.max.x, "x"),
            (self.min.y, self.max.y, "y"),
            (self.min.z, self.max.z, "z"),
        ] {
            if lo > hi {
                return Err(format!("bounds empty on {axis}: {lo} > {hi}"));
            }
        }
        Ok(())
    }

    /// A uniform draw inside the box.
    fn sample<R: Rng>(&self, rng: &mut R) -> Position {
        Position::new(
            rng.gen_range(self.min.x..=self.max.x),
            rng.gen_range(self.min.y..=self.max.y),
            rng.gen_range(self.min.z..=self.max.z),
        )
    }
}

/// One entity's kinematic state between ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionState {
    /// Where the entity currently is.
    pub position: Position,
    /// Where it started — the displacement reference for the
    /// PRR-vs-displacement series in [`crate::metrics::NetworkMetrics`].
    pub origin: Position,
    /// Current waypoint (random-waypoint model), if one is in progress.
    target: Option<Position>,
    /// Speed toward the current waypoint, m/s.
    speed_mps: f64,
    /// Remaining pause at a reached waypoint, seconds.
    pause_left_s: f64,
    /// Current heading (random-walk model), radians.
    heading_rad: f64,
    /// Whether the walk has drawn its initial heading yet.
    started: bool,
}

impl MotionState {
    /// A state at rest at `position`.
    pub fn at(position: Position) -> Self {
        MotionState {
            position,
            origin: position,
            target: None,
            speed_mps: 0.0,
            pause_left_s: 0.0,
            heading_rad: 0.0,
            started: false,
        }
    }

    /// Straight-line distance from the origin, metres (no floor — a
    /// stationary entity reports exactly zero, unlike
    /// [`Position::distance_m`]).
    pub fn displacement_m(&self) -> f64 {
        let dx = self.position.x - self.origin.x;
        let dy = self.position.y - self.origin.y;
        let dz = self.position.z - self.origin.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

/// Random waypoint: pick a uniform point in the bounds, walk toward it at a
/// uniformly drawn speed, pause on arrival, repeat — the classic ad-hoc
/// networking mobility model, here standing in for patients and lens
/// wearers moving about a room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWaypoint {
    /// Minimum walking speed, m/s.
    pub speed_min_mps: f64,
    /// Maximum walking speed, m/s.
    pub speed_max_mps: f64,
    /// Pause at each reached waypoint, seconds.
    pub pause_s: f64,
}

impl RandomWaypoint {
    fn step(&self, state: &mut MotionState, bounds: &Bounds, dt_s: f64, rng: &mut SmallRng) {
        if state.pause_left_s > 0.0 {
            state.pause_left_s = (state.pause_left_s - dt_s).max(0.0);
            return;
        }
        let target = match state.target {
            Some(t) => t,
            None => {
                let t = bounds.sample(rng);
                state.target = Some(t);
                state.speed_mps = rng.gen_range(self.speed_min_mps..=self.speed_max_mps);
                t
            }
        };
        let dx = target.x - state.position.x;
        let dy = target.y - state.position.y;
        let dz = target.z - state.position.z;
        let remaining = (dx * dx + dy * dy + dz * dz).sqrt();
        let stride = state.speed_mps * dt_s;
        if remaining <= stride || remaining == 0.0 {
            state.position = target;
            state.target = None;
            state.pause_left_s = self.pause_s;
        } else {
            let f = stride / remaining;
            state.position = Position::new(
                state.position.x + dx * f,
                state.position.y + dy * f,
                state.position.z + dz * f,
            );
        }
    }
}

/// Random walk: a constant speed with a heading that wanders a bounded
/// amount per tick, reflecting off the bounds — jitter-style motion for
/// entities that drift rather than commute (heads wearing lenses, cards
/// shuffled on a table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWalk {
    /// Walking speed, m/s.
    pub speed_mps: f64,
    /// Maximum per-tick heading change, radians (drawn uniformly in
    /// `±turn_rad`).
    pub turn_rad: f64,
}

impl RandomWalk {
    fn step(&self, state: &mut MotionState, bounds: &Bounds, dt_s: f64, rng: &mut SmallRng) {
        if !state.started {
            state.heading_rad = rng.gen_range(0.0..=TAU);
            state.started = true;
        } else {
            state.heading_rad += rng.gen_range(-self.turn_rad..=self.turn_rad);
        }
        let stride = self.speed_mps * dt_s;
        let next = Position::new(
            state.position.x + stride * state.heading_rad.cos(),
            state.position.y + stride * state.heading_rad.sin(),
            state.position.z,
        );
        if bounds.contains(&next) {
            state.position = next;
        } else {
            // Bounce: clamp to the wall and turn around.
            state.position = bounds.clamp(next);
            state.heading_rad += TAU / 2.0;
        }
    }
}

/// The model catalogue a scenario can attach (plain data, `Copy`): each
/// variant holds its model's parameters, and [`MobilityModel::step`]
/// matches on it. A scenario without motion sets `mobility: None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Walk → pause → walk between uniform waypoints.
    RandomWaypoint(RandomWaypoint),
    /// Bounded-turn constant-speed drift.
    RandomWalk(RandomWalk),
}

impl MobilityModel {
    /// Moves `state` forward `dt_s` seconds inside `bounds`, drawing any
    /// randomness from the entity's own stream.
    pub fn step(&self, state: &mut MotionState, bounds: &Bounds, dt_s: f64, rng: &mut SmallRng) {
        match self {
            MobilityModel::RandomWaypoint(model) => model.step(state, bounds, dt_s, rng),
            MobilityModel::RandomWalk(model) => model.step(state, bounds, dt_s, rng),
        }
    }

    /// Checks speeds and turn limits are sane.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            MobilityModel::RandomWaypoint(RandomWaypoint {
                speed_min_mps,
                speed_max_mps,
                pause_s,
            }) => {
                if !(speed_min_mps > 0.0
                    && speed_max_mps >= speed_min_mps
                    && speed_max_mps.is_finite())
                {
                    return Err(format!(
                        "waypoint speeds must satisfy 0 < min <= max < ∞, got {speed_min_mps}..{speed_max_mps}"
                    ));
                }
                if !(pause_s >= 0.0 && pause_s.is_finite()) {
                    return Err("waypoint pause must be non-negative and finite".into());
                }
                Ok(())
            }
            MobilityModel::RandomWalk(RandomWalk {
                speed_mps,
                turn_rad,
            }) => {
                if !positive_finite(speed_mps) {
                    return Err("walk speed must be positive and finite".into());
                }
                if !(0.0..=TAU).contains(&turn_rad) {
                    return Err("turn limit must be in [0, 2π]".into());
                }
                Ok(())
            }
        }
    }
}

/// A scenario's mobility attachment: which model moves the tags, how often
/// the engine ticks it, and where the tags may go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// The model every tag moves under.
    pub model: MobilityModel,
    /// Tick period, seconds. The engine schedules ticks on the integer-ns
    /// grid (`period` rounded once), so tick `k` fires at exactly
    /// `k · round(period)` — no accumulated float drift.
    pub tick_interval_s: f64,
    /// Where the tags may go.
    pub bounds: Bounds,
    /// When true, each carrier with exactly one assigned tag follows that
    /// tag rigidly (its scenario offset preserved) — a body-worn helper
    /// device walking with its patient. Carriers shared by several tags
    /// stay put.
    pub carriers_follow: bool,
}

impl MobilityConfig {
    /// Checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !positive_finite(self.tick_interval_s) {
            return Err("mobility tick interval must be positive and finite".into());
        }
        self.bounds.validate()?;
        self.model.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[expect(
        clippy::disallowed_methods,
        reason = "test-local stream stepping models directly, not an engine entity"
    )]
    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn bounds_contain_clamp_and_validate() {
        let b = Bounds::room(10.0, 5.0, 1.0);
        assert!(b.contains(&Position::new(3.0, 2.0, 1.0)));
        assert!(!b.contains(&Position::new(3.0, 2.0, 1.5)));
        assert!(!b.contains(&Position::new(-0.1, 2.0, 1.0)));
        let c = b.clamp(Position::new(12.0, -1.0, 0.0));
        assert_eq!(c, Position::new(10.0, 0.0, 1.0));
        assert!(b.validate().is_ok());
        assert!(
            Bounds::new(Position::new(1.0, 0.0, 0.0), Position::default())
                .validate()
                .is_err()
        );
        // A non-finite corner would sample NaN waypoints mid-run.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut wide = b;
            wide.min.x = bad;
            assert!(wide.validate().is_err(), "min.x {bad}");
            let mut wide = b;
            wide.max.y = bad;
            assert!(wide.validate().is_err(), "max.y {bad}");
        }
    }

    #[test]
    fn waypoint_walks_pauses_and_stays_in_bounds() {
        let b = Bounds::room(8.0, 6.0, 1.0);
        let model = MobilityModel::RandomWaypoint(RandomWaypoint {
            speed_min_mps: 1.0,
            speed_max_mps: 1.0,
            pause_s: 0.5,
        });
        let mut state = MotionState::at(Position::new(4.0, 3.0, 1.0));
        let mut r = rng(11);
        let mut moved_ticks = 0;
        let mut paused_ticks = 0;
        for _ in 0..400 {
            let before = state.position;
            model.step(&mut state, &b, 0.1, &mut r);
            assert!(
                b.contains(&state.position),
                "escaped at {:?}",
                state.position
            );
            if state.position == before {
                paused_ticks += 1;
            } else {
                moved_ticks += 1;
                // At 1 m/s and 100 ms ticks a stride is at most 10 cm.
                let dx = state.position.x - before.x;
                let dy = state.position.y - before.y;
                assert!((dx * dx + dy * dy).sqrt() < 0.1 + 1e-9);
            }
        }
        assert!(moved_ticks > 100, "moved {moved_ticks}");
        assert!(paused_ticks > 0, "never paused");
    }

    #[test]
    fn walk_reflects_off_walls() {
        let b = Bounds::room(2.0, 2.0, 0.5);
        let model = MobilityModel::RandomWalk(RandomWalk {
            speed_mps: 1.5,
            turn_rad: 0.3,
        });
        let mut state = MotionState::at(Position::new(1.0, 1.0, 0.5));
        let mut r = rng(3);
        for _ in 0..500 {
            model.step(&mut state, &b, 0.2, &mut r);
            assert!(b.contains(&state.position));
        }
        // A 1.5 m/s walk in a 2 m room must have hit walls and kept moving.
        assert!(state.displacement_m() <= 3.0);
    }

    #[test]
    fn same_stream_same_walk() {
        let b = Bounds::room(10.0, 10.0, 1.0);
        let model = MobilityModel::RandomWaypoint(RandomWaypoint {
            speed_min_mps: 0.5,
            speed_max_mps: 1.5,
            pause_s: 1.0,
        });
        let walk = |seed: u64| {
            let mut state = MotionState::at(Position::new(5.0, 5.0, 1.0));
            let mut r = rng(seed);
            (0..200).for_each(|_| model.step(&mut state, &b, 0.1, &mut r));
            state.position
        };
        assert_eq!(walk(42), walk(42));
        assert_ne!(walk(42), walk(43));
    }

    #[test]
    fn configs_validate() {
        let good = MobilityConfig {
            model: MobilityModel::RandomWalk(RandomWalk {
                speed_mps: 1.0,
                turn_rad: 0.5,
            }),
            tick_interval_s: 0.1,
            bounds: Bounds::room(5.0, 5.0, 1.0),
            carriers_follow: true,
        };
        assert!(good.validate().is_ok());
        assert!(MobilityConfig {
            tick_interval_s: 0.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(MobilityConfig {
            model: MobilityModel::RandomWaypoint(RandomWaypoint {
                speed_min_mps: 2.0,
                speed_max_mps: 1.0,
                pause_s: 0.0,
            }),
            ..good
        }
        .validate()
        .is_err());
        assert!(MobilityConfig {
            model: MobilityModel::RandomWalk(RandomWalk {
                speed_mps: -1.0,
                turn_rad: 0.5,
            }),
            ..good
        }
        .validate()
        .is_err());
        for speed_mps in [f64::NAN, f64::INFINITY] {
            let model = MobilityModel::RandomWalk(RandomWalk {
                speed_mps,
                turn_rad: 0.5,
            });
            assert!(model.validate().is_err(), "walk speed {speed_mps}");
        }
        let waypoint = RandomWaypoint {
            speed_min_mps: 0.5,
            speed_max_mps: 1.5,
            pause_s: 1.0,
        };
        for bad in [
            RandomWaypoint {
                speed_max_mps: f64::INFINITY,
                ..waypoint
            },
            RandomWaypoint {
                speed_min_mps: f64::NAN,
                ..waypoint
            },
            RandomWaypoint {
                pause_s: f64::NAN,
                ..waypoint
            },
            RandomWaypoint {
                pause_s: f64::INFINITY,
                ..waypoint
            },
        ] {
            let model = MobilityModel::RandomWaypoint(bad);
            assert!(model.validate().is_err(), "{bad:?}");
        }
        assert!(MobilityModel::RandomWaypoint(waypoint).validate().is_ok());
        for tick_interval_s in [f64::NAN, f64::INFINITY] {
            let config = MobilityConfig {
                tick_interval_s,
                ..good
            };
            assert!(config.validate().is_err(), "tick {tick_interval_s}");
        }
    }
}
