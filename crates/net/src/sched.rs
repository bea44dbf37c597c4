//! Carrier arbitration: which backlogged tag a carrier slot illuminates.
//!
//! Until this module existed the round-robin cursor was hard-coded in
//! [`crate::engine`]; it is now one of four policies in the closed
//! [`SchedPolicy`] catalogue, so a [`crate::scenario::Scenario`] stays
//! plain-data configurable. Each carrier's [`CarrierSched`] matches on its
//! policy's state directly:
//!
//! * [`SchedPolicy::RoundRobin`] — the default: a cursor into the
//!   carrier's member list advances past each granted tag, and the
//!   pick scans from the cursor for the first backlogged member. A
//!   regression test pins its traces byte-identically against the
//!   pre-extraction engine.
//! * [`SchedPolicy::ProportionalFair`] — the cellular-style PF rule:
//!   grant the member maximizing *instantaneous link quality ÷ EWMA
//!   throughput*, so tags with momentarily good links are preferred but a
//!   starved tag's shrinking average eventually wins a slot (cf. Wi-Fi 6
//!   dynamic resource-unit sharing).
//! * [`SchedPolicy::DeadlineAware`] — earliest-deadline-first over the
//!   head-of-queue packet: every packet should be served within
//!   `deadline_s` of arriving, the pick orders eligible members by that
//!   deadline, and grants past the deadline are counted as **deadline
//!   misses** ([`crate::metrics::TagStats::deadline_misses`]).
//! * [`SchedPolicy::MarginAware`] — mobility-aware polling: skip members
//!   whose live uplink margin (from the [`crate::links::LinkMatrix`],
//!   refreshed every mobility tick) is below `min_margin_db` — they are
//!   mid-fade and the attempt would most likely burn a retry — but with a
//!   **starvation bound**: a member not granted for `max_skip_slots` of its
//!   carrier's slots becomes eligible regardless of margin, so a tag parked
//!   in a null is still polled within K slots.
//!
//! Determinism: no policy draws randomness. Every pick is a pure function
//! of the member order, the queues, the link matrix and the policy's own
//! counters, and ties break toward the lower member position — so traces
//! stay byte-identical per seed for *every* policy, not just the baseline
//! (`tests/net_determinism.rs` runs one case per policy).

use crate::links::LinkMatrix;
use crate::time::Time;

/// What a policy may inspect while picking: the simulated instant and the
/// live link matrix (fresh margins every mobility tick).
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// When the carrier slot fires.
    pub now: Time,
    /// Live link budgets; [`LinkMatrix::uplink_margin_db`] is the signal
    /// the margin-aware policy keys on.
    pub links: &'a LinkMatrix,
}

/// Eligibility oracle the engine hands to a pick: `Some(arrived)` with the
/// head-of-queue packet's arrival time when the tag can be granted this
/// slot (backlogged, and — closed loop — no transaction in flight),
/// `None` otherwise.
pub type Backlog<'a> = dyn Fn(usize) -> Option<Time> + 'a;

/// Proportional-fair parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionalFair {
    /// EWMA smoothing factor per carrier slot, in (0, 1]: the weight of
    /// the newest slot's delivered bits in the throughput average.
    pub ewma_alpha: f64,
}

impl Default for ProportionalFair {
    fn default() -> Self {
        ProportionalFair { ewma_alpha: 0.05 }
    }
}

/// Deadline-aware (EDF) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineAware {
    /// Service deadline per packet, seconds: the head-of-queue packet
    /// should be granted a slot within this long of arriving.
    pub deadline_s: f64,
}

impl Default for DeadlineAware {
    fn default() -> Self {
        // Ten slot periods at the presets' 5 ms cadence: tight enough
        // that congestion actually registers as misses, loose enough
        // that an idle ward serves everything in time.
        DeadlineAware { deadline_s: 0.05 }
    }
}

/// Margin-aware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginAware {
    /// Members below this live uplink margin are considered mid-fade and
    /// skipped, dB.
    pub min_margin_db: f64,
    /// Starvation bound: a member not granted for this many of its
    /// carrier's slots becomes eligible regardless of margin.
    pub max_skip_slots: u32,
}

impl Default for MarginAware {
    fn default() -> Self {
        MarginAware {
            // Fades in a walking ward swing tens of dB; 6 dB of headroom
            // keeps attempts comfortably above the shadowing sigma, and a
            // 40-slot bound re-polls a parked-in-a-null tag within 200 ms
            // at the presets' 5 ms slot cadence.
            min_margin_db: 6.0,
            max_skip_slots: 40,
        }
    }
}

/// The policy catalogue a scenario can attach (plain data, `Copy`, like
/// [`crate::mobility::MobilityModel`]); [`CarrierSched::new`] instantiates
/// the per-carrier state that actually runs it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedPolicy {
    /// The baseline cursor: grant members in order, skipping the idle.
    #[default]
    RoundRobin,
    /// Instantaneous link quality ÷ EWMA throughput.
    ProportionalFair(ProportionalFair),
    /// Earliest head-of-queue deadline first, with miss accounting.
    DeadlineAware(DeadlineAware),
    /// Skip mid-fade members, bounded by `max_skip_slots`.
    MarginAware(MarginAware),
}

impl SchedPolicy {
    /// Proportional fair with default smoothing.
    pub fn proportional_fair() -> Self {
        SchedPolicy::ProportionalFair(ProportionalFair::default())
    }

    /// Deadline-aware with the default 50 ms packet deadline.
    pub fn deadline_aware() -> Self {
        SchedPolicy::DeadlineAware(DeadlineAware::default())
    }

    /// Margin-aware with the default 6 dB fade threshold and 40-slot
    /// starvation bound.
    pub fn margin_aware() -> Self {
        SchedPolicy::MarginAware(MarginAware::default())
    }

    /// A short name for scenario labels and report tables.
    pub fn slug(&self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::ProportionalFair(_) => "proportional-fair",
            SchedPolicy::DeadlineAware(_) => "deadline-aware",
            SchedPolicy::MarginAware(_) => "margin-aware",
        }
    }

    /// Checks the policy's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedPolicy::RoundRobin => Ok(()),
            SchedPolicy::ProportionalFair(ProportionalFair { ewma_alpha }) => {
                if !(ewma_alpha > 0.0 && ewma_alpha <= 1.0) {
                    return Err(format!("PF ewma_alpha must be in (0, 1], got {ewma_alpha}"));
                }
                Ok(())
            }
            SchedPolicy::DeadlineAware(DeadlineAware { deadline_s }) => {
                if !deadline_s.is_finite() || deadline_s <= 0.0 {
                    return Err(format!("EDF deadline must be positive, got {deadline_s}"));
                }
                Ok(())
            }
            SchedPolicy::MarginAware(MarginAware {
                min_margin_db,
                max_skip_slots,
            }) => {
                if !min_margin_db.is_finite() {
                    return Err(format!(
                        "margin threshold must be finite, got {min_margin_db}"
                    ));
                }
                if max_skip_slots == 0 {
                    return Err("starvation bound must be at least 1 slot".into());
                }
                Ok(())
            }
        }
    }
}

/// The baseline cursor, kept in exactly one place: `cursor` indexes the
/// member *after* the last granted tag; a pick scans `members[cursor..]`
/// then `members[..cursor]` (no modulo per member: this runs on every
/// idle slot); a deferred slot (carrier-sense busy) leaves it untouched.
/// This returns the first member from the cursor on for which
/// `eligible(position, tag)` holds.
fn pick_from_cursor(
    cursor: usize,
    members: &[usize],
    mut eligible: impl FnMut(usize, usize) -> bool,
) -> Option<usize> {
    let n = members.len();
    (cursor..n)
        .chain(0..cursor)
        .find(|&i| eligible(i, members[i]))
        .map(|i| members[i])
}

/// Moves the cursor to the member after `granted`.
fn advance(cursor: &mut usize, members: &[usize], granted: usize) {
    if let Some(pos) = members.iter().position(|&t| t == granted) {
        *cursor = (pos + 1) % members.len();
    }
}

/// One proportional-fair EWMA step: fold in whatever was delivered since
/// the previous slot (zero for idle members — their average decays, so
/// their score recovers).
fn pf_step(a: f64, ewma_bits: &mut [f64], pending_bits: &mut [f64]) {
    for (ewma, pending) in ewma_bits.iter_mut().zip(pending_bits.iter_mut()) {
        *ewma = (1.0 - a) * *ewma + a * *pending;
        *pending = 0.0;
    }
}

/// Per-policy runtime state: what each [`SchedPolicy`] keeps between
/// slots.
#[derive(Debug, Clone)]
enum SchedState {
    /// Baseline cursor state (see [`pick_from_cursor`]).
    RoundRobin { cursor: usize },
    /// Proportional fair: per-member EWMA of delivered bits per slot,
    /// decayed once per pick, credited by the engine's delivery hook.
    ProportionalFair {
        ewma_alpha: f64,
        /// EWMA of delivered bits per carrier slot, indexed like the
        /// member list.
        ewma_bits: Vec<f64>,
        /// Bits delivered since the last pick, folded into the EWMA then.
        pending_bits: Vec<f64>,
    },
    /// Deadline-aware: stateless beyond the packet deadline on the
    /// integer-ns grid (quantized once) — the ordering key is the
    /// head-of-queue arrival the backlog oracle reports.
    DeadlineAware { deadline_ns: u64 },
    /// Margin-aware: the baseline cursor over the members whose live
    /// margin clears the threshold, with per-member skip counters
    /// enforcing the starvation bound.
    MarginAware {
        params: MarginAware,
        cursor: usize,
        /// Slots of this carrier since each member was last granted,
        /// indexed like the member list. Saturating — a never-granted
        /// member stays starved rather than wrapping back to fresh.
        slots_since_grant: Vec<u32>,
    },
}

/// One carrier's arbitration runtime: the member tags it illuminates (in
/// index order, fixed for the run), the sub-band the scenario striped it
/// onto, and the policy state. This is what the engine ([`crate::run`])
/// consults on every `CarrierSlot`.
#[derive(Debug, Clone)]
pub struct CarrierSched {
    members: Vec<usize>,
    subband: usize,
    state: SchedState,
}

impl CarrierSched {
    /// Builds the runtime for one carrier: `members` are the tag indices
    /// assigned to it, `subband` its scenario-assigned stripe (see
    /// [`crate::scenario::Scenario::with_subband_striping`]).
    pub fn new(policy: SchedPolicy, members: Vec<usize>, subband: usize) -> Self {
        let n = members.len();
        let state = match policy {
            SchedPolicy::RoundRobin => SchedState::RoundRobin { cursor: 0 },
            SchedPolicy::ProportionalFair(ProportionalFair { ewma_alpha }) => {
                SchedState::ProportionalFair {
                    ewma_alpha,
                    ewma_bits: vec![0.0; n],
                    pending_bits: vec![0.0; n],
                }
            }
            SchedPolicy::DeadlineAware(DeadlineAware { deadline_s }) => SchedState::DeadlineAware {
                deadline_ns: Time::from_secs(deadline_s).as_nanos().max(1),
            },
            SchedPolicy::MarginAware(params) => SchedState::MarginAware {
                params,
                cursor: 0,
                slots_since_grant: vec![0; n],
            },
        };
        CarrierSched {
            members,
            subband,
            state,
        }
    }

    /// The member tags, in index order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The Wi-Fi sub-band stripe this carrier was assigned (0 when the
    /// scenario does not stripe) — the scheduler-visible spectrum axis.
    pub fn subband(&self) -> usize {
        self.subband
    }

    /// Re-tunes the carrier to `subband` — the adaptive re-striping hook
    /// ([`crate::coex::ReStripe`]): the stripe stays scheduler-visible
    /// after a mid-run move.
    pub fn set_subband(&mut self, subband: usize) {
        self.subband = subband;
    }

    /// Picks the member to grant this slot, or `None` when no member is
    /// eligible. Deterministic (no RNG); ties go to the lower member
    /// position. May update per-slot state (EWMA decay, skip counters) —
    /// the engine calls this exactly once per carrier slot that fires, and
    /// [`CarrierSched::idle_slots`] once for the slots a sleeping carrier
    /// skipped.
    pub fn pick(&mut self, backlog: &Backlog, view: &SlotView) -> Option<usize> {
        let members = &self.members;
        match &mut self.state {
            SchedState::RoundRobin { cursor } => {
                pick_from_cursor(*cursor, members, |_, t| backlog(t).is_some())
            }
            SchedState::ProportionalFair {
                ewma_alpha,
                ewma_bits,
                pending_bits,
            } => {
                pf_step(*ewma_alpha, ewma_bits, pending_bits);
                let mut best: Option<(usize, f64)> = None;
                for (i, &t) in members.iter().enumerate() {
                    if backlog(t).is_none() {
                        continue;
                    }
                    // Instantaneous link quality over average throughput.
                    // Quality is the uplink margin in dB floored at 0 (a
                    // faded link rates ≈ equal-quality), +1 so a zero
                    // margin still scores; the +1 bit floor on the average
                    // keeps fresh tags finite yet maximal.
                    let quality = 1.0 + view.links.uplink_margin_db(t).max(0.0);
                    let score = quality / (ewma_bits[i] + 1.0);
                    // Strictly-greater keeps ties at the lower member position.
                    if best.is_none_or(|(_, s)| score > s) {
                        best = Some((t, score));
                    }
                }
                best.map(|(t, _)| t)
            }
            SchedState::DeadlineAware { .. } => {
                let mut best: Option<(usize, Time)> = None;
                for &t in members {
                    let Some(arrived) = backlog(t) else { continue };
                    // Earliest deadline = earliest head-of-queue arrival
                    // (the deadline offset is constant per carrier).
                    // Strictly-less keeps ties at the lower member position.
                    if best.is_none_or(|(_, d)| arrived < d) {
                        best = Some((t, arrived));
                    }
                }
                best.map(|(t, _)| t)
            }
            SchedState::MarginAware {
                params,
                cursor,
                slots_since_grant,
            } => {
                for slots in slots_since_grant.iter_mut() {
                    *slots = slots.saturating_add(1);
                }
                pick_from_cursor(*cursor, members, |i, t| {
                    backlog(t).is_some()
                        && (slots_since_grant[i] >= params.max_skip_slots
                            || view.links.uplink_margin_db(t) >= params.min_margin_db)
                })
            }
        }
    }

    /// Replays `n` slots in which no member was backlogged — the slots a
    /// sleeping carrier skipped ([`crate::engine`]) — leaving the policy
    /// state exactly as `n` calls of [`CarrierSched::pick`] with an empty
    /// backlog would: round robin and EDF keep no per-slot state,
    /// margin-aware counts every slot toward each member's starvation
    /// bound, and proportional fair takes `n` EWMA steps.
    pub fn idle_slots(&mut self, n: u64) {
        match &mut self.state {
            SchedState::RoundRobin { .. } | SchedState::DeadlineAware { .. } => {}
            SchedState::ProportionalFair {
                ewma_alpha,
                ewma_bits,
                pending_bits,
            } => {
                for _ in 0..n {
                    pf_step(*ewma_alpha, ewma_bits, pending_bits);
                }
            }
            SchedState::MarginAware {
                slots_since_grant, ..
            } => {
                let n = u32::try_from(n).unwrap_or(u32::MAX);
                for slots in slots_since_grant.iter_mut() {
                    *slots = slots.saturating_add(n);
                }
            }
        }
    }

    /// Records that `tag` was granted a slot at `view.now` whose
    /// head-of-queue packet arrived at `head_arrived`. Returns `true` when
    /// the grant missed the policy's deadline (deadline-aware only).
    ///
    /// Grants happen strictly *after* a successful pick and carrier-sense:
    /// a slot whose band was busy picks but never grants, and must leave
    /// the cursor/counters where they were — the invariant the baseline's
    /// pre-extraction engine enforced.
    pub fn granted(&mut self, tag: usize, head_arrived: Time, view: &SlotView) -> bool {
        let members = &self.members;
        match &mut self.state {
            SchedState::RoundRobin { cursor } => advance(cursor, members, tag),
            SchedState::ProportionalFair { .. } => {}
            SchedState::DeadlineAware { deadline_ns } => {
                return view.now > head_arrived.after_nanos(*deadline_ns);
            }
            SchedState::MarginAware {
                cursor,
                slots_since_grant,
                ..
            } => {
                advance(cursor, members, tag);
                if let Some(i) = members.iter().position(|&t| t == tag) {
                    slots_since_grant[i] = 0;
                }
            }
        }
        false
    }

    /// Credits `bits` of delivered payload to `tag` (proportional-fair
    /// bookkeeping; a no-op elsewhere).
    pub fn delivered(&mut self, tag: usize, bits: usize) {
        if let SchedState::ProportionalFair { pending_bits, .. } = &mut self.state {
            if let Some(i) = self.members.iter().position(|&t| t == tag) {
                pending_bits[i] += bits as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkMatrix;
    use crate::scenario::Scenario;

    /// A matrix + view over the 4-tag ward for policies that read margins.
    fn fixture() -> (Scenario, LinkMatrix) {
        let scenario = Scenario::hospital_ward(4);
        let links = LinkMatrix::build(&scenario).unwrap();
        (scenario, links)
    }

    /// A backlog oracle where every listed tag queued a packet at `t_ns`.
    fn backlog_at(tags: &[usize], t_ns: u64) -> impl Fn(usize) -> Option<Time> + '_ {
        move |t| tags.contains(&t).then_some(Time(t_ns))
    }

    #[test]
    fn policies_validate_their_parameters() {
        assert!(SchedPolicy::RoundRobin.validate().is_ok());
        assert!(SchedPolicy::proportional_fair().validate().is_ok());
        assert!(SchedPolicy::deadline_aware().validate().is_ok());
        assert!(SchedPolicy::margin_aware().validate().is_ok());
        assert!(
            SchedPolicy::ProportionalFair(ProportionalFair { ewma_alpha: 0.0 })
                .validate()
                .is_err()
        );
        assert!(
            SchedPolicy::ProportionalFair(ProportionalFair { ewma_alpha: 1.5 })
                .validate()
                .is_err()
        );
        assert!(
            SchedPolicy::DeadlineAware(DeadlineAware { deadline_s: 0.0 })
                .validate()
                .is_err()
        );
        assert!(SchedPolicy::MarginAware(MarginAware {
            min_margin_db: f64::NAN,
            max_skip_slots: 4,
        })
        .validate()
        .is_err());
        assert!(SchedPolicy::MarginAware(MarginAware {
            min_margin_db: 3.0,
            max_skip_slots: 0,
        })
        .validate()
        .is_err());
        assert_eq!(SchedPolicy::default(), SchedPolicy::RoundRobin);
        assert_eq!(SchedPolicy::margin_aware().slug(), "margin-aware");
    }

    #[test]
    fn round_robin_cursor_rotates_and_survives_defers() {
        let (_, links) = fixture();
        let view = SlotView {
            now: Time(0),
            links: &links,
        };
        let mut sched = CarrierSched::new(SchedPolicy::RoundRobin, vec![0, 1, 2, 3], 0);
        let all = backlog_at(&[0, 1, 2, 3], 0);
        // Grants rotate through the members in order.
        for expect in [0usize, 1, 2, 3, 0] {
            let t = sched.pick(&all, &view).unwrap();
            assert_eq!(t, expect);
            sched.granted(t, Time(0), &view);
        }
        // A deferred slot (pick without grant) leaves the cursor alone.
        let t = sched.pick(&all, &view).unwrap();
        assert_eq!(t, 1);
        let t2 = sched.pick(&all, &view).unwrap();
        assert_eq!(t2, 1, "defer must not advance the cursor");
        // Idle members are skipped from the cursor on.
        let only3 = backlog_at(&[3], 0);
        assert_eq!(sched.pick(&only3, &view), Some(3));
        let none = backlog_at(&[], 0);
        assert_eq!(sched.pick(&none, &view), None);
    }

    #[test]
    fn proportional_fair_prefers_the_starved_member() {
        let (_, links) = fixture();
        let view = SlotView {
            now: Time(0),
            links: &links,
        };
        let mut sched = CarrierSched::new(SchedPolicy::proportional_fair(), vec![0, 1], 0);
        let all = backlog_at(&[0, 1], 0);
        // Tag 0 keeps getting served and credited; its EWMA grows until
        // tag 1's untouched average wins the slot.
        let first = sched.pick(&all, &view).unwrap();
        sched.granted(first, Time(0), &view);
        let other = 1 - first;
        for _ in 0..50 {
            sched.delivered(first, 248);
            let t = sched.pick(&all, &view).unwrap();
            sched.granted(t, Time(0), &view);
            if t == other {
                return; // fairness kicked in
            }
        }
        panic!("PF never rotated to the starved member");
    }

    #[test]
    fn deadline_aware_orders_by_head_arrival_and_counts_misses() {
        let (_, links) = fixture();
        let view = SlotView {
            now: Time(1_000_000_000),
            links: &links,
        };
        let mut sched = CarrierSched::new(
            SchedPolicy::DeadlineAware(DeadlineAware { deadline_s: 0.1 }),
            vec![0, 1, 2],
            0,
        );
        // Tag 2's packet is the oldest → earliest deadline → picked first.
        let backlog = |t: usize| -> Option<Time> {
            match t {
                0 => Some(Time(900_000_000)),
                1 => None,
                2 => Some(Time(800_000_000)),
                _ => None,
            }
        };
        assert_eq!(sched.pick(&backlog, &view), Some(2));
        // 1.0 s − 0.8 s = 200 ms > the 100 ms deadline: a miss.
        assert!(sched.granted(2, Time(800_000_000), &view));
        // 1.0 s − 0.95 s = 50 ms: within deadline.
        assert!(!sched.granted(0, Time(950_000_000), &view));
    }

    #[test]
    fn margin_aware_skips_fades_but_honours_the_starvation_bound() {
        let (_, links) = fixture();
        let view = SlotView {
            now: Time(0),
            links: &links,
        };
        // The ward's real margins are all comfortably positive, so a
        // threshold above them blanks every member…
        let huge = links.uplink_margin_db(0).max(links.uplink_margin_db(1)) + 10.0;
        let mut sched = CarrierSched::new(
            SchedPolicy::MarginAware(MarginAware {
                min_margin_db: huge,
                max_skip_slots: 3,
            }),
            vec![0, 1],
            0,
        );
        let all = backlog_at(&[0, 1], 0);
        // …for the first two slots; on the third the starvation bound
        // opens the gate.
        assert_eq!(sched.pick(&all, &view), None);
        assert_eq!(sched.pick(&all, &view), None);
        let t = sched.pick(&all, &view).unwrap();
        assert_eq!(t, 0, "starved members reopen in member order");
        sched.granted(t, Time(0), &view);
        // Tag 0's counter reset; tag 1 is still starved and now first.
        assert_eq!(sched.pick(&all, &view), Some(1));

        // With a permissive threshold the policy degenerates to round
        // robin over the backlogged members.
        let mut open = CarrierSched::new(
            SchedPolicy::MarginAware(MarginAware {
                min_margin_db: -1000.0,
                max_skip_slots: 8,
            }),
            vec![0, 1],
            0,
        );
        for expect in [0usize, 1, 0] {
            let t = open.pick(&all, &view).unwrap();
            assert_eq!(t, expect);
            open.granted(t, Time(0), &view);
        }
    }

    #[test]
    fn idle_slots_replay_empty_picks() {
        let (_, links) = fixture();
        let view = SlotView {
            now: Time(0),
            links: &links,
        };
        let all = backlog_at(&[0, 1], 0);
        let none = backlog_at(&[], 0);
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::proportional_fair(),
            SchedPolicy::deadline_aware(),
            SchedPolicy::margin_aware(),
        ] {
            // Some history first, so the replay starts from live state:
            // a grant, a delivery credit, and a pick that folds it in.
            let mut picked = CarrierSched::new(policy, vec![0, 1], 0);
            let t = picked.pick(&all, &view).unwrap();
            picked.granted(t, Time(0), &view);
            picked.delivered(t, 248);
            let mut replayed = picked.clone();
            for n in [0u64, 1, 7, 100] {
                for _ in 0..n {
                    assert_eq!(picked.pick(&none, &view), None);
                }
                replayed.idle_slots(n);
                assert_eq!(
                    format!("{:?}", replayed.state),
                    format!("{:?}", picked.state),
                    "{}: {n} idle slots",
                    policy.slug()
                );
            }
        }
        // The starvation counters saturate instead of wrapping.
        let mut starved = CarrierSched::new(SchedPolicy::margin_aware(), vec![0], 0);
        starved.idle_slots(u64::MAX);
        starved.idle_slots(1);
        let SchedState::MarginAware {
            slots_since_grant, ..
        } = &starved.state
        else {
            unreachable!("margin-aware state");
        };
        assert_eq!(slots_since_grant, &[u32::MAX]);
    }

    #[test]
    fn carrier_sched_exposes_members_and_subband() {
        let sched = CarrierSched::new(SchedPolicy::RoundRobin, vec![4, 7], 2);
        assert_eq!(sched.members(), &[4, 7]);
        assert_eq!(sched.subband(), 2);
    }
}
