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
//! The medium is the one record of what is on the air: the engine asks
//! it whether a tag is mid-flight instead of keeping flags of its own.
//!
//! It also integrates receive-side busy time on the bands a coex run
//! senses ([`Medium::sense`]): per band, how long at least one emission
//! overlapping it was on the air — 802.11's BSS Load channel utilization,
//! the busy share of airtime over a window rather than a point sample.
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
    end: Time,
    /// A hidden-terminal emission: invisible to [`Medium::busy`]
    /// (carrier-sense at the transmitting side cannot hear it) but still
    /// interfering and still counted by the busy-time integrals.
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

    /// True when any of the emission's bands overlaps `band`.
    fn lands_in(&self, band: &Band) -> bool {
        self.bands().any(|b| b.overlaps(band))
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

/// One sensed band's busy-time integral. A busy stretch runs from the
/// start of an emission that finds the band idle to the latest end among
/// the emissions that keep it busy; each emission is finished at its end
/// instant (the engine's end events fire there), so a stretch is one
/// unbroken interval.
#[derive(Debug, Clone, Copy)]
struct BusyIntegral {
    band: Band,
    /// Emissions started and not yet finished that overlap `band`.
    on_air: u32,
    /// Start of the current stretch (meaningful while `on_air > 0`).
    since: Time,
    /// Latest end among the current stretch's emissions.
    until: Time,
    /// Total length of the stretches already closed, ns.
    closed_ns: u64,
}

impl BusyIntegral {
    /// Busy time through `now`, ns.
    fn through(&self, now: Time) -> u64 {
        let open = if self.on_air > 0 {
            now.min(self.until).since(self.since).as_nanos()
        } else {
            0
        };
        self.closed_ns + open
    }
}

/// The shared-medium arbiter: one list of the emissions on the air, plus
/// the CTS-to-Self reservations and the sensed bands' busy-time integrals.
///
/// Every query scans the whole list in storage order. The list is short:
/// no preset or benchmark workload puts more than 3 emissions on the air
/// at once, so a scan is a few float compares. Interferers are recorded
/// in storage order and the engine sums their powers in list order, so a
/// different order can round a capture decision the other way and move a
/// trace digest; [`Medium::finish`] therefore keeps its `swap_remove`.
#[derive(Debug, Default)]
pub struct Medium {
    active: Vec<Emission>,
    reservations: Vec<Reservation>,
    next_tx_id: u64,
    /// One integral per distinct sensed band, in registration order.
    sensed: Vec<BusyIntegral>,
}

impl Medium {
    /// An idle medium.
    pub fn new() -> Self {
        Medium::default()
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
    /// hear a hidden node (the busy-time integrals, [`Medium::busy_ns`],
    /// are the receive-side truth).
    pub fn busy(&mut self, band: Band, now: Time) -> bool {
        self.prune(now);
        self.active
            .iter()
            .any(|e| !e.hidden && e.end > now && e.lands_in(&band))
            || self.reservations.iter().any(|r| r.band.overlaps(&band))
    }

    /// Starts integrating busy time on `band` and returns the integral's
    /// index; a band equal to one already sensed shares its integral. Only
    /// emissions started after the call are counted, so a run registers
    /// its bands before the first one.
    pub fn sense(&mut self, band: Band) -> usize {
        if let Some(idx) = self.sensed.iter().position(|s| s.band == band) {
            return idx;
        }
        self.sensed.push(BusyIntegral {
            band,
            on_air: 0,
            since: Time::ZERO,
            until: Time::ZERO,
            closed_ns: 0,
        });
        self.sensed.len() - 1
    }

    /// Occupancy sensing: how long, in ns up to `now`, at least one
    /// emission — hidden or not — overlapped sensed band `idx`. This is
    /// the *receive-side* load an AP reports as 802.11's BSS Load channel
    /// utilization; unlike [`Medium::busy`] it hears hidden terminals, and
    /// it ignores NAV reservations (a reservation is protocol state, not
    /// energy). The busy share of a window is the difference of two
    /// readings over the window's length.
    pub fn busy_ns(&self, idx: usize, now: Time) -> u64 {
        self.sensed[idx].through(now)
    }

    /// [`Medium::busy_ns`] once every emission now on the air has ended:
    /// the band's busy time over everything started so far.
    pub fn busy_ns_drained(&self, idx: usize) -> u64 {
        let sensed = &self.sensed[idx];
        sensed.through(sensed.until)
    }

    /// True while `who` has an emission started and not yet
    /// [finished](Medium::finish).
    pub(crate) fn emitting(&self, who: Emitter) -> bool {
        self.active.iter().any(|e| e.who == who)
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
    /// counts toward the busy-time integrals, but [`Medium::busy`] cannot
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
        let mut emission = Emission {
            tx_id,
            who,
            primary,
            mirror,
            end,
            hidden,
            interferers: Vec::new(),
        };
        for sensed in &mut self.sensed {
            if emission.lands_in(&sensed.band) {
                if sensed.on_air == 0 {
                    (sensed.since, sensed.until) = (now, now);
                }
                sensed.until = sensed.until.max(end);
                sensed.on_air += 1;
            }
        }
        for other in &mut self.active {
            if other.end > now && other.overlaps(&emission) {
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

    /// Takes a finished transmission off the air and returns the emissions
    /// that overlapped it, dedup'd by owner, in first-overlap order. An id
    /// that is not on the air returns an empty list.
    pub fn finish(&mut self, tx_id: u64) -> Vec<Interferer> {
        let Some(idx) = self.active.iter().position(|e| e.tx_id == tx_id) else {
            return Vec::new();
        };
        let emission = self.active.swap_remove(idx);
        for sensed in &mut self.sensed {
            if emission.lands_in(&sensed.band) {
                sensed.on_air -= 1;
                if sensed.on_air == 0 {
                    sensed.closed_ns += sensed.until.since(sensed.since).as_nanos();
                }
            }
        }
        emission.interferers
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

    fn who(interferers: &[Interferer]) -> Vec<Emitter> {
        interferers.iter().map(|i| i.who).collect()
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
        assert!(medium.finish(a).is_empty());
        assert!(medium.finish(b).is_empty());
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
        let hit = &victim_report[0];
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
        let (ch6, ch11) = (medium.sense(wifi(CH6)), medium.sense(wifi(CH11)));
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
        assert_eq!(medium.busy_ns(ch6, Time(100_000)), 100_000);
        assert_eq!(medium.busy_ns(ch11, Time(100_000)), 0);
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
        assert_eq!(medium.busy_ns(ch11, Time(350_000)), 0);
    }

    #[test]
    fn busy_time_is_the_union_of_overlapping_emissions() {
        let mut medium = Medium::new();
        let ch6 = medium.sense(wifi(CH6));
        let ch11 = medium.sense(wifi(CH11));
        // An equal band shares its integral.
        assert_eq!(medium.sense(wifi(CH6)), ch6);
        // Two overlapping channel-6 emissions, [0, 200) and [100, 300),
        // plus a DSB tag on channel 1 whose mirror copy lands in channel
        // 6 over [400, 500), plus a channel-11 emission.
        let a = medium.start(Emitter::Tag(0), wifi(CH6), None, Time(0), Time(200));
        let b = medium.start(Emitter::Tag(1), wifi(CH6), None, Time(100), Time(300));
        assert_eq!(medium.busy_ns(ch6, Time(150)), 150);
        medium.finish(a);
        // An emission that has ended but awaits its finish adds nothing
        // past its end.
        assert_eq!(medium.busy_ns(ch6, Time(350)), 300);
        medium.finish(b);
        let dsb = medium.start(
            Emitter::Tag(2),
            wifi(2.412e9),
            Some(wifi(2.440e9)),
            Time(400),
            Time(500),
        );
        let far = medium.start(Emitter::Tag(3), wifi(CH11), None, Time(400), Time(450));
        assert_eq!(medium.busy_ns(ch6, Time(450)), 350);
        // Drained: everything started so far, through its end.
        assert_eq!(medium.busy_ns_drained(ch6), 400);
        assert_eq!(medium.busy_ns_drained(ch11), 50);
        medium.finish(far);
        medium.finish(dsb);
        assert_eq!(medium.busy_ns(ch6, Time(1_000)), 400);
        assert_eq!(medium.busy_ns(ch11, Time(1_000)), 50);
    }

    #[test]
    fn interferers_keep_storage_order_across_finish() {
        // Finishing A swap-removes it, moving C into its place, so D scans
        // C before B. The engine sums interferer powers in this order, so
        // changing it can move a trace digest.
        let mut medium = Medium::new();
        let on = |medium: &mut Medium, tag| {
            medium.start(Emitter::Tag(tag), wifi(CH6), None, Time(0), Time(100_000))
        };
        let a = on(&mut medium, 0);
        on(&mut medium, 1);
        on(&mut medium, 2);
        medium.finish(a);
        let d = on(&mut medium, 3);
        assert_eq!(
            who(&medium.finish(d)),
            vec![Emitter::Tag(2), Emitter::Tag(1)]
        );
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
        assert!(medium.finish(first).is_empty());
        assert!(medium.finish(second).is_empty());

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
