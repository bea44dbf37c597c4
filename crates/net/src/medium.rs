//! The shared 2.4 GHz medium: who is on the air where, and who overlaps
//! whom.
//!
//! The medium tracks every in-flight emission as one or two frequency
//! bands: the synthesized packet itself, and — for double-sideband tags —
//! the *mirror copy* at `2·f_carrier − f_packet` (§2.3.1: the unwanted
//! sideband single-sideband backscatter exists to eliminate). Since the
//! closed-loop MAC landed, not only tags emit: carriers transmit AM-OFDM
//! *poll* frames, sink devices transmit AM-OFDM *ack* frames, and — since
//! the coex subsystem ([`crate::coex`]) — external sources inject other
//! people's Wi-Fi/BLE/ZigBee traffic as real emissions
//! ([`Emitter`] names who owns an emission). Two emissions interfere when
//! any of their bands overlap in frequency while both are on the air; the
//! engine then applies a capture margin at the victim's receiver to decide
//! who survives.
//!
//! CSMA and the §2.3.3 CTS-to-Self optimisation are modelled here too: a
//! carrier checks [`Medium::busy`] before granting a slot (carrier-sense),
//! and may place a [`Medium::reserve`] entry that keeps *other* in-model
//! tags off the band for the packet's duration.
//!
//! ## Boundary semantics
//!
//! Time intervals at the medium follow two pinned conventions (see the
//! `boundary_instants_are_exact` test):
//!
//! * An **emission** occupies the half-open window `[start, end)`: at the
//!   instant `end` its energy is gone, so an emission starting exactly at
//!   another's `end` neither defers to it nor collides with it. SIFS-
//!   chained transaction frames rely on this — consecutive frames may
//!   share a boundary nanosecond without interfering.
//! * A **reservation** (CTS-to-Self NAV) protects `[placement, end]`,
//!   *inclusive* of its final instant: 802.11's NAV duration means "the
//!   medium is busy through this instant; access may begin strictly
//!   after". An emission starting exactly at `end` still sees the channel
//!   busy; the first free instant is `end + 1` ns. A tie between a NAV
//!   boundary and a carrier-sense check therefore always resolves in the
//!   reservation holder's favour.

use crate::time::Time;

/// A frequency band, centre ± half the bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Centre frequency, Hz.
    pub center_hz: f64,
    /// Occupied bandwidth, Hz.
    pub bandwidth_hz: f64,
}

impl Band {
    /// Builds a band.
    pub fn new(center_hz: f64, bandwidth_hz: f64) -> Self {
        Band {
            center_hz,
            bandwidth_hz,
        }
    }

    /// True when the two bands' occupied spectra overlap.
    pub fn overlaps(&self, other: &Band) -> bool {
        (self.center_hz - other.center_hz).abs() < (self.bandwidth_hz + other.bandwidth_hz) / 2.0
    }
}

/// Who put an emission on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emitter {
    /// A backscatter tag's synthesized uplink packet.
    Tag(usize),
    /// A carrier device's AM-OFDM downlink poll frame.
    Carrier(usize),
    /// A sink device's AM-OFDM downlink ack frame.
    Sink(usize),
    /// An external coexistence source's emission
    /// ([`crate::coex::CoexSource`], by its index in the scenario's coex
    /// config) — other people's Wi-Fi, BLE, ZigBee or a microwave oven.
    External(usize),
}

/// One in-flight transmission.
#[derive(Debug, Clone)]
struct Emission {
    tx_id: u64,
    who: Emitter,
    primary: Band,
    mirror: Option<Band>,
    /// Index of `primary` in the medium's distinct-band registry.
    primary_bid: u32,
    /// Index of `mirror` in the registry (`None` for single-sideband).
    mirror_bid: Option<u32>,
    end: Time,
    /// A hidden-terminal emission: invisible to [`Medium::busy`]
    /// (carrier-sense at the transmitting side cannot hear it) but still
    /// interfering and still counted by [`Medium::occupied`].
    hidden: bool,
    /// Emissions that overlapped this one while it was on the air.
    interferers: Vec<Interferer>,
}

impl Emission {
    fn bands(&self) -> impl Iterator<Item = &Band> {
        std::iter::once(&self.primary).chain(self.mirror.as_ref())
    }

    fn overlaps(&self, other: &Emission) -> bool {
        self.bands().any(|a| other.bands().any(|b| a.overlaps(b)))
    }

    fn as_interferer(&self) -> Interferer {
        Interferer {
            who: self.who,
            primary: self.primary,
            mirror: self.mirror,
        }
    }
}

/// A CTS-to-Self reservation keeping other tags off a band through `end`
/// *inclusive* (the NAV convention — see the module docs).
#[derive(Debug, Clone, Copy)]
struct Reservation {
    band: Band,
    end: Time,
}

/// One emission that overlapped a finished transmission, with the bands it
/// occupied — enough for the engine to decide whether the interference
/// actually landed in a victim's listening band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interferer {
    /// Who the interfering emission belonged to.
    pub who: Emitter,
    /// The interferer's primary band.
    pub primary: Band,
    /// The interferer's double-sideband mirror copy, if it had one.
    pub mirror: Option<Band>,
}

impl Interferer {
    /// True when any of the interferer's bands lands in `band`.
    pub fn lands_in(&self, band: &Band) -> bool {
        self.primary.overlaps(band) || self.mirror.as_ref().is_some_and(|m| m.overlaps(band))
    }
}

/// What the medium observed about a finished transmission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxReport {
    /// Emissions that overlapped this one (dedup'd by owner, in
    /// first-overlap order).
    pub interferers: Vec<Interferer>,
}

/// The shared-medium arbiter.
///
/// The active-emission set is **indexed by band**: every distinct band
/// value ever emitted on gets a registry id, and each id keeps the list of
/// on-air transmissions occupying it. Carrier-sense ([`Medium::busy`]),
/// occupancy sensing ([`Medium::occupied`]) and capture resolution
/// (interferer recording in [`Medium::start`]) walk only the lists of
/// bands that overlap the query band, instead of scanning every on-air
/// source — with coex sources raising the on-air population and carriers
/// sensing every channel every slot, the same-band walk is what keeps a
/// 100k-tag run's medium cost proportional to actual contention. The set
/// of distinct bands is small (Wi-Fi/ZigBee/BLE channels plus the mirror
/// images DSB tags add), so the per-query registry sweep is a handful of
/// float compares.
///
/// Interferer lists record in the *storage order* of the active set
/// (positions, sorted), which is exactly the scan order of the pre-index
/// linear implementation — the engine sums interferer powers in list
/// order, so this is what keeps trace digests byte-identical across the
/// index swap.
#[derive(Debug, Default)]
pub struct Medium {
    active: Vec<Emission>,
    reservations: Vec<Reservation>,
    next_tx_id: u64,
    /// Distinct band values seen so far, identified bit-exactly. Never
    /// shrinks; bounded by the scenario's channel plan.
    bands: Vec<Band>,
    /// Per distinct band: tx ids of the active emissions occupying it.
    members: Vec<Vec<u64>>,
    /// Active tx id → position in `active` (maintained across the
    /// swap-removes of [`Medium::finish`]). A `Vec` sorted by tx id, not a
    /// hash table: ids are allocated monotonically so insertion is a push,
    /// lookups binary-search, and — the reason it matters — there is no
    /// seeded iteration order anywhere near the hot path (the clippy
    /// config's `HashMap`/`HashSet` ban keeps it that way).
    index: Vec<(u64, usize)>,
}

impl Medium {
    /// Position in `active` of the emission with `tx_id`. Panics when the
    /// id is not on the air (same contract as the indexing it replaced).
    fn slot(&self, tx_id: u64) -> usize {
        let i = self
            .index
            .binary_search_by_key(&tx_id, |&(tx, _)| tx)
            .expect("tx id not on the air");
        self.index[i].1
    }
}

impl Medium {
    /// An idle medium.
    pub fn new() -> Self {
        Medium::default()
    }

    /// The registry id of `band`, inserting it on first sight. Identity is
    /// bit-exact: band values come from the same deterministic frequency
    /// arithmetic on every run, so equal bands compare equal.
    fn band_id(&mut self, band: Band) -> u32 {
        if let Some(i) = self
            .bands
            .iter()
            .position(|b| b.center_hz == band.center_hz && b.bandwidth_hz == band.bandwidth_hz)
        {
            return i as u32;
        }
        self.bands.push(band);
        self.members.push(Vec::new());
        (self.bands.len() - 1) as u32
    }

    /// Drops reservations whose protected window `[.., end]` has passed.
    /// A reservation ending exactly at `now` is *kept*: it still blocks an
    /// emission starting at `now` (NAV is inclusive of its final instant).
    ///
    /// Finished emissions are only pruned after [`Medium::finish`] collects
    /// them, so this keeps `active` sized to the true in-flight set.
    fn prune(&mut self, now: Time) {
        self.reservations.retain(|r| r.end >= now);
    }

    /// Carrier-sense: is any emission (`[start, end)`) or reservation
    /// (`[start, end]`) occupying a band that overlaps `band` at time
    /// `now`? Hidden-terminal emissions are *not* heard here — carrier-
    /// sense happens at the transmitting side, which by definition cannot
    /// hear a hidden node (use [`Medium::occupied`] for the receive-side
    /// truth).
    pub fn busy(&mut self, band: Band, now: Time) -> bool {
        self.prune(now);
        for (bid, b) in self.bands.iter().enumerate() {
            if !b.overlaps(&band) {
                continue;
            }
            for tx in &self.members[bid] {
                let e = &self.active[self.slot(*tx)];
                if !e.hidden && e.end > now {
                    return true;
                }
            }
        }
        self.reservations.iter().any(|r| r.band.overlaps(&band))
    }

    /// Occupancy sensing: is any emission — hidden or not — on a band
    /// overlapping `band` at `now`? This is the *receive-side* channel
    /// load an AP measures and reports (802.11's QBSS load element), which
    /// is what the coex subsystem's per-carrier EWMA estimators sample:
    /// unlike [`Medium::busy`] it hears hidden terminals, and it ignores
    /// NAV reservations (a reservation is protocol state, not energy).
    pub fn occupied(&self, band: Band, now: Time) -> bool {
        for (bid, b) in self.bands.iter().enumerate() {
            if !b.overlaps(&band) {
                continue;
            }
            for tx in &self.members[bid] {
                if self.active[self.slot(*tx)].end > now {
                    return true;
                }
            }
        }
        false
    }

    /// Places a CTS-to-Self reservation on `band` protecting every instant
    /// up to and including `end`.
    pub fn reserve(&mut self, band: Band, end: Time) {
        self.reservations.push(Reservation { band, end });
    }

    /// Puts a transmission on the air and returns its id. Any already
    /// active overlapping emission is recorded as interference on *both*
    /// sides.
    pub fn start(
        &mut self,
        who: Emitter,
        primary: Band,
        mirror: Option<Band>,
        now: Time,
        end: Time,
    ) -> u64 {
        self.start_with(who, primary, mirror, now, end, false)
    }

    /// [`Medium::start`] for a hidden-terminal emission: it interferes and
    /// counts toward [`Medium::occupied`], but [`Medium::busy`] cannot
    /// hear it.
    pub fn start_hidden(
        &mut self,
        who: Emitter,
        primary: Band,
        mirror: Option<Band>,
        now: Time,
        end: Time,
    ) -> u64 {
        self.start_with(who, primary, mirror, now, end, true)
    }

    fn start_with(
        &mut self,
        who: Emitter,
        primary: Band,
        mirror: Option<Band>,
        now: Time,
        end: Time,
        hidden: bool,
    ) -> u64 {
        self.prune(now);
        let tx_id = self.next_tx_id;
        self.next_tx_id += 1;
        let primary_bid = self.band_id(primary);
        let mirror_bid = mirror.map(|m| self.band_id(m));
        let mut emission = Emission {
            tx_id,
            who,
            primary,
            mirror,
            primary_bid,
            mirror_bid,
            end,
            hidden,
            interferers: Vec::new(),
        };
        // Gather candidates from every band list overlapping ours, then
        // visit them in storage order (sorted positions) so the recorded
        // interferer order matches the old full linear scan exactly.
        let mut candidates: Vec<usize> = Vec::new();
        for (bid, b) in self.bands.iter().enumerate() {
            if emission.bands().any(|eb| eb.overlaps(b)) {
                candidates.extend(self.members[bid].iter().map(|tx| self.slot(*tx)));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for idx in candidates {
            let other = &mut self.active[idx];
            if other.end > now && other.overlaps(&emission) {
                if !emission.interferers.iter().any(|i| i.who == other.who) {
                    emission.interferers.push(other.as_interferer());
                }
                if !other.interferers.iter().any(|i| i.who == who) {
                    other.interferers.push(emission.as_interferer());
                }
            }
        }
        // tx ids are monotonic, so appending keeps the index sorted.
        debug_assert!(self.index.last().is_none_or(|&(tx, _)| tx < tx_id));
        self.index.push((tx_id, self.active.len()));
        self.members[primary_bid as usize].push(tx_id);
        if let Some(mb) = mirror_bid {
            if mb != primary_bid {
                self.members[mb as usize].push(tx_id);
            }
        }
        self.active.push(emission);
        tx_id
    }

    /// Takes a finished transmission off the air, returning what the
    /// medium observed about it.
    pub fn finish(&mut self, tx_id: u64) -> TxReport {
        let Ok(at) = self.index.binary_search_by_key(&tx_id, |&(tx, _)| tx) else {
            return TxReport::default();
        };
        let (_, idx) = self.index.remove(at);
        let emission = self.active.swap_remove(idx);
        if idx < self.active.len() {
            let moved = self.active[idx].tx_id;
            let slot = self
                .index
                .binary_search_by_key(&moved, |&(tx, _)| tx)
                .expect("moved tx id stays indexed");
            self.index[slot].1 = idx;
        }
        let mut drop_member = |bid: u32| {
            let list = &mut self.members[bid as usize];
            if let Some(pos) = list.iter().position(|&tx| tx == tx_id) {
                list.swap_remove(pos);
            }
        };
        drop_member(emission.primary_bid);
        if let Some(mb) = emission.mirror_bid {
            if mb != emission.primary_bid {
                drop_member(mb);
            }
        }
        TxReport {
            interferers: emission.interferers,
        }
    }

    /// Number of transmissions currently on the air.
    pub fn on_air(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH6: f64 = 2.437e9;
    const CH11: f64 = 2.462e9;

    fn wifi(center: f64) -> Band {
        Band::new(center, 22e6)
    }

    fn who(report: &TxReport) -> Vec<Emitter> {
        report.interferers.iter().map(|i| i.who).collect()
    }

    #[test]
    fn band_overlap_geometry() {
        // Adjacent Wi-Fi channels (25 MHz apart, 22 MHz wide) do not
        // overlap at their centres' separation ≥ 22 MHz.
        assert!(!wifi(CH6).overlaps(&wifi(CH11)));
        assert!(wifi(CH6).overlaps(&wifi(2.442e9)));
        // A narrow ZigBee band inside a Wi-Fi channel overlaps it.
        assert!(wifi(CH6).overlaps(&Band::new(2.430e9, 2e6)));
    }

    #[test]
    fn overlapping_transmissions_interfere_both_ways() {
        let mut medium = Medium::new();
        let a = medium.start(Emitter::Tag(0), wifi(CH11), None, Time(0), Time(200_000));
        let b = medium.start(
            Emitter::Tag(1),
            wifi(CH11),
            None,
            Time(50_000),
            Time(250_000),
        );
        assert_eq!(medium.on_air(), 2);
        assert_eq!(who(&medium.finish(a)), vec![Emitter::Tag(1)]);
        assert_eq!(who(&medium.finish(b)), vec![Emitter::Tag(0)]);
        assert_eq!(medium.on_air(), 0);
    }

    #[test]
    fn disjoint_channels_do_not_interfere() {
        let mut medium = Medium::new();
        let a = medium.start(Emitter::Tag(0), wifi(CH11), None, Time(0), Time(200_000));
        let b = medium.start(Emitter::Tag(1), wifi(CH6), None, Time(0), Time(200_000));
        assert!(medium.finish(a).interferers.is_empty());
        assert!(medium.finish(b).interferers.is_empty());
    }

    #[test]
    fn mirror_copy_collides_on_the_mirror_channel() {
        let mut medium = Medium::new();
        // DSB tag: primary on ch 1 (2.412 GHz), mirror at 2.440 GHz
        // (carrier 2.426 GHz), which lands inside channel 6.
        let dsb = medium.start(
            Emitter::Tag(0),
            wifi(2.412e9),
            Some(wifi(2.440e9)),
            Time(0),
            Time(200_000),
        );
        let victim = medium.start(Emitter::Tag(1), wifi(CH6), None, Time(0), Time(200_000));
        let victim_report = medium.finish(victim);
        assert_eq!(who(&victim_report), vec![Emitter::Tag(0)]);
        // The victim can tell the hit came from the mirror copy, not the
        // interferer's primary band.
        let hit = &victim_report.interferers[0];
        assert!(!hit.primary.overlaps(&wifi(CH6)));
        assert!(hit.lands_in(&wifi(CH6)));
        assert_eq!(who(&medium.finish(dsb)), vec![Emitter::Tag(1)]);
    }

    #[test]
    fn downlink_emitters_are_distinguished_from_tags() {
        let mut medium = Medium::new();
        // A carrier's poll and a sink's ack collide with a tag's packet on
        // the same channel; the reports identify each emitter kind.
        let poll = medium.start(Emitter::Carrier(2), wifi(CH6), None, Time(0), Time(150_000));
        let data = medium.start(
            Emitter::Tag(7),
            wifi(CH6),
            None,
            Time(10_000),
            Time(230_000),
        );
        let ack = medium.start(
            Emitter::Sink(1),
            wifi(CH6),
            None,
            Time(20_000),
            Time(100_000),
        );
        assert_eq!(
            who(&medium.finish(poll)),
            vec![Emitter::Tag(7), Emitter::Sink(1)]
        );
        assert_eq!(
            who(&medium.finish(data)),
            vec![Emitter::Carrier(2), Emitter::Sink(1)]
        );
        assert_eq!(
            who(&medium.finish(ack)),
            vec![Emitter::Carrier(2), Emitter::Tag(7)]
        );
    }

    #[test]
    fn csma_sees_emissions_and_reservations() {
        let mut medium = Medium::new();
        assert!(!medium.busy(wifi(CH11), Time(0)));
        medium.start(Emitter::Tag(0), wifi(CH11), None, Time(0), Time(100_000));
        assert!(medium.busy(wifi(CH11), Time(50_000)));
        assert!(!medium.busy(wifi(CH6), Time(50_000)));
        // After the emission ends it no longer blocks the band (even while
        // un-finished, i.e. still awaiting its TxEnd event).
        assert!(!medium.busy(wifi(CH11), Time(150_000)));

        medium.reserve(wifi(CH6), Time(300_000));
        assert!(medium.busy(wifi(CH6), Time(200_000)));
        // Reservations expire strictly after their final protected instant.
        assert!(!medium.busy(wifi(CH6), Time(300_001)));
    }

    #[test]
    fn hidden_emissions_collide_but_escape_carrier_sense() {
        let mut medium = Medium::new();
        // A hidden external burst occupies channel 6 for the AP…
        let ext = medium.start_hidden(
            Emitter::External(0),
            wifi(CH6),
            None,
            Time(0),
            Time(500_000),
        );
        // …but the transmitting side cannot hear it: carrier-sense says
        // idle while receive-side occupancy says busy.
        assert!(!medium.busy(wifi(CH6), Time(100_000)));
        assert!(medium.occupied(wifi(CH6), Time(100_000)));
        assert!(!medium.occupied(wifi(CH11), Time(100_000)));
        // A tag transmission launched into the hidden burst collides with
        // it, both ways.
        let tag = medium.start(
            Emitter::Tag(3),
            wifi(CH6),
            None,
            Time(100_000),
            Time(300_000),
        );
        assert_eq!(who(&medium.finish(tag)), vec![Emitter::External(0)]);
        assert_eq!(who(&medium.finish(ext)), vec![Emitter::Tag(3)]);

        // A visible (non-hidden) external emission trips carrier-sense
        // like any in-model emission, while reservations stay invisible to
        // occupancy sensing (protocol state, not energy).
        medium.start(Emitter::External(1), wifi(CH6), None, Time(0), Time(50_000));
        assert!(medium.busy(wifi(CH6), Time(10_000)));
        medium.reserve(wifi(CH11), Time(400_000));
        assert!(medium.busy(wifi(CH11), Time(350_000)));
        assert!(!medium.occupied(wifi(CH11), Time(350_000)));
    }

    /// The pre-index linear implementation, kept as a reference oracle:
    /// every query scans the whole active set in storage order.
    #[derive(Default)]
    struct LinearMedium {
        active: Vec<Emission>,
        reservations: Vec<Reservation>,
        next_tx_id: u64,
    }

    impl LinearMedium {
        fn busy(&mut self, band: Band, now: Time) -> bool {
            self.reservations.retain(|r| r.end >= now);
            self.active
                .iter()
                .filter(|e| !e.hidden && e.end > now)
                .any(|e| e.bands().any(|b| b.overlaps(&band)))
                || self.reservations.iter().any(|r| r.band.overlaps(&band))
        }

        fn occupied(&self, band: Band, now: Time) -> bool {
            self.active
                .iter()
                .filter(|e| e.end > now)
                .any(|e| e.bands().any(|b| b.overlaps(&band)))
        }

        fn start(
            &mut self,
            who: Emitter,
            primary: Band,
            mirror: Option<Band>,
            now: Time,
            end: Time,
            hidden: bool,
        ) -> u64 {
            self.reservations.retain(|r| r.end >= now);
            let tx_id = self.next_tx_id;
            self.next_tx_id += 1;
            let mut emission = Emission {
                tx_id,
                who,
                primary,
                mirror,
                primary_bid: 0,
                mirror_bid: None,
                end,
                hidden,
                interferers: Vec::new(),
            };
            for other in self.active.iter_mut().filter(|e| e.end > now) {
                if other.overlaps(&emission) {
                    if !emission.interferers.iter().any(|i| i.who == other.who) {
                        emission.interferers.push(other.as_interferer());
                    }
                    if !other.interferers.iter().any(|i| i.who == who) {
                        other.interferers.push(emission.as_interferer());
                    }
                }
            }
            self.active.push(emission);
            tx_id
        }

        fn finish(&mut self, tx_id: u64) -> TxReport {
            let Some(idx) = self.active.iter().position(|e| e.tx_id == tx_id) else {
                return TxReport::default();
            };
            let emission = self.active.swap_remove(idx);
            TxReport {
                interferers: emission.interferers,
            }
        }
    }

    #[test]
    fn band_index_matches_linear_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        // The scenario channel plan: a handful of Wi-Fi channels, two
        // ZigBee slivers, and a DSB mirror landing spot.
        let plan = [
            wifi(2.412e9),
            wifi(CH6),
            wifi(CH11),
            Band::new(2.430e9, 2e6),
            Band::new(2.480e9, 2e6),
            wifi(2.440e9),
        ];
        for trial in 0..10u64 {
            #[expect(
                clippy::disallowed_methods,
                reason = "property-test stream fuzzing the band index, not an engine entity"
            )]
            let mut rng = SmallRng::seed_from_u64(0xBA2D ^ trial);
            let mut indexed = Medium::new();
            let mut linear = LinearMedium::default();
            let mut live: Vec<u64> = Vec::new();
            let mut now = 0u64;
            for _ in 0..2_000 {
                now += rng.gen_range(0u64..50_000);
                let t = Time(now);
                let band = plan[rng.gen_range(0usize..plan.len())];
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let mirror = if rng.gen_bool(0.3) {
                            Some(plan[rng.gen_range(0usize..plan.len())])
                        } else {
                            None
                        };
                        let who = Emitter::Tag(rng.gen_range(0usize..32));
                        let hidden = rng.gen_bool(0.2);
                        let end = Time(now + rng.gen_range(1u64..200_000));
                        let a = indexed.start_with(who, band, mirror, t, end, hidden);
                        let b = linear.start(who, band, mirror, t, end, hidden);
                        assert_eq!(a, b, "tx id allocation must match");
                        live.push(a);
                    }
                    4..=6 => {
                        if !live.is_empty() {
                            let tx = live.swap_remove(rng.gen_range(0usize..live.len()));
                            assert_eq!(
                                indexed.finish(tx),
                                linear.finish(tx),
                                "interferer reports must match in content and order"
                            );
                        }
                    }
                    7 => {
                        let end = Time(now + rng.gen_range(1u64..100_000));
                        indexed.reserve(band, end);
                        linear.reservations.push(Reservation { band, end });
                    }
                    8 => assert_eq!(indexed.busy(band, t), linear.busy(band, t)),
                    _ => assert_eq!(indexed.occupied(band, t), linear.occupied(band, t)),
                }
            }
            // Drain everything still on the air; reports must agree.
            for tx in live {
                assert_eq!(indexed.finish(tx), linear.finish(tx));
            }
            assert_eq!(indexed.on_air(), 0);
        }
    }

    #[test]
    fn boundary_instants_are_exact() {
        // Emissions are half-open [start, end): at the exact end instant
        // the band is free, and a new start at that instant records no
        // interference against the ended emission — SIFS-chained frames
        // may share a boundary nanosecond.
        let mut medium = Medium::new();
        let first = medium.start(Emitter::Tag(0), wifi(CH11), None, Time(0), Time(100_000));
        assert!(medium.busy(wifi(CH11), Time(99_999)));
        assert!(!medium.busy(wifi(CH11), Time(100_000)));
        let second = medium.start(
            Emitter::Tag(1),
            wifi(CH11),
            None,
            Time(100_000),
            Time(200_000),
        );
        assert!(medium.finish(first).interferers.is_empty());
        assert!(medium.finish(second).interferers.is_empty());

        // Reservations protect [start, end] inclusive: an emission
        // starting exactly when the NAV ends must still see the channel
        // busy — the tie goes to the reservation holder. The first free
        // instant is one nanosecond later.
        medium.reserve(wifi(CH6), Time(300_000));
        assert!(medium.busy(wifi(CH6), Time(299_999)));
        assert!(
            medium.busy(wifi(CH6), Time(300_000)),
            "an emission starting at the NAV's end instant must defer"
        );
        assert!(!medium.busy(wifi(CH6), Time(300_001)));
        // And once expired it stays expired (prune is monotone).
        assert!(!medium.busy(wifi(CH6), Time(400_000)));
    }
}
