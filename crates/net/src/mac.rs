//! The closed-loop poll/ack MAC (§2.3.3 + §2.4 combined at network scale).
//!
//! The Interscatter paper's full system is bidirectional: the tag's only
//! receiver is a passive envelope detector (−32 dBm, Fig. 13), so the AM
//! downlink of §2.4 is what closes the control loop. Physics dictates the
//! roles — an access point across the room is below the detector's
//! sensitivity, but the bedside carrier (the §2.3.3 helper device, within
//! the ~1 m illumination range anyway) is not. One **transaction** is:
//!
//! 1. **Poll** — the carrier transmits an AM-OFDM frame addressed to one of
//!    its tags on that tag's service band. The tag decodes it (or not) with
//!    its envelope detector.
//! 2. **Response** — a SIFS later the polled tag backscatters its queued
//!    packet while the carrier holds the illuminating tone (the uplink path,
//!    unchanged: collisions, capture, external traffic, link shadowing).
//! 3. **Ack** — if the sink decodes the response it transmits an AM-OFDM
//!    ack a SIFS later. The *carrier's* conventional radio decodes the ack
//!    (≈ −85 dBm sensitivity) and clears the tag's pending packet via its
//!    next poll — modelled as immediate queue cleanup, since the carrier-tag
//!    hop is the strong sub-metre link.
//!
//! Any failed stage leaves the packet at the head of the tag's queue and
//! burns one retry; `max_retries` exhausts into a drop, exactly like the
//! open-loop path. [`MacLoop`] is the bookkeeping state machine: one
//! [`LoopPhase`] per tag, advanced by the engine as the poll, response and
//! ack events resolve. Per-tag retries, AP timeouts and transaction
//! latencies land in [`crate::metrics::TagStats`].

use crate::time::Time;
use interscatter_wifi::ofdm::am::am_frame_airtime_s;

/// Whether the engine runs the uplink-only schedule or the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacMode {
    /// Carriers grant slots blindly, delivery is decided at the receiver,
    /// tags learn nothing.
    #[default]
    OpenLoop,
    /// Poll → backscatter response → ack transactions.
    ClosedLoop,
}

/// Downlink bits in a poll frame: an 8-bit tag address, a 4-bit control
/// field and a 4-bit checksum.
pub const POLL_BITS: usize = 16;

/// Downlink bits in an ack frame: the echoed address.
pub const ACK_BITS: usize = 8;

/// Inter-frame gap between poll → response → ack, seconds (802.11 SIFS).
pub const SIFS_S: f64 = interscatter_wifi::mac::SIFS_S;

/// On-air duration of a poll frame, seconds (preamble + 16 AM bits).
pub fn poll_airtime_s() -> f64 {
    am_frame_airtime_s(POLL_BITS)
}

/// On-air duration of an ack frame, seconds (preamble + 8 AM bits).
pub fn ack_airtime_s() -> f64 {
    am_frame_airtime_s(ACK_BITS)
}

/// Worst-case on-air span of one whole transaction around a response of
/// `response_airtime_s` seconds — what a CTS-to-Self reservation must
/// cover so other carriers keep off the band mid-transaction.
pub fn transaction_airtime_s(response_airtime_s: f64) -> f64 {
    poll_airtime_s() + SIFS_S + response_airtime_s + SIFS_S + ack_airtime_s()
}

/// Where one tag stands in its current transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopPhase {
    /// No transaction outstanding; the tag is eligible for a poll.
    #[default]
    Idle,
    /// A poll frame addressed to this tag is on the air.
    Polled,
    /// The tag decoded the poll and its backscattered response is on the
    /// air (the carrier is holding the tone).
    Responding,
    /// The sink decoded the response and its ack frame is on the air.
    AckInFlight,
}

/// Per-tag transaction state.
#[derive(Debug, Clone, Copy, Default)]
struct Transaction {
    phase: LoopPhase,
    poll_started: Time,
}

/// The closed-loop MAC state machine: tracks every tag's transaction phase
/// so carriers only poll idle tags and the engine can attribute each
/// poll/response/ack outcome to the right transaction.
#[derive(Debug, Clone)]
pub struct MacLoop {
    transactions: Vec<Transaction>,
}

impl MacLoop {
    /// All tags idle.
    pub fn new(n_tags: usize) -> Self {
        MacLoop {
            transactions: vec![Transaction::default(); n_tags],
        }
    }

    /// The tag's current phase.
    pub fn phase(&self, tag: usize) -> LoopPhase {
        self.transactions[tag].phase
    }

    /// Whether the tag can be polled.
    pub fn is_idle(&self, tag: usize) -> bool {
        self.transactions[tag].phase == LoopPhase::Idle
    }

    /// A poll for `tag` went on the air at `now`.
    pub fn poll_started(&mut self, tag: usize, now: Time) {
        debug_assert!(self.is_idle(tag), "tag {tag} polled mid-transaction");
        self.transactions[tag] = Transaction {
            phase: LoopPhase::Polled,
            poll_started: now,
        };
    }

    /// The tag decoded its poll and its response went on the air.
    pub fn response_started(&mut self, tag: usize) {
        debug_assert_eq!(self.transactions[tag].phase, LoopPhase::Polled);
        self.transactions[tag].phase = LoopPhase::Responding;
    }

    /// The sink decoded the response and its ack went on the air.
    pub fn ack_started(&mut self, tag: usize) {
        debug_assert_eq!(self.transactions[tag].phase, LoopPhase::Responding);
        self.transactions[tag].phase = LoopPhase::AckInFlight;
    }

    /// Ends the tag's transaction (completed or failed at any stage) and
    /// returns when its poll started — the transaction latency reference.
    pub fn finish(&mut self, tag: usize) -> Time {
        let started = self.transactions[tag].poll_started;
        self.transactions[tag] = Transaction::default();
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_airtimes_are_am_shaped() {
        // Poll: 20 µs preamble + 16 bits × 8 µs = 148 µs; ack: 84 µs. Both
        // fit comfortably between two 5 ms carrier slots.
        assert!((poll_airtime_s() - 148e-6).abs() < 1e-9);
        assert!((ack_airtime_s() - 84e-6).abs() < 1e-9);
        let span = transaction_airtime_s(220e-6);
        assert!((span - (148e-6 + 220e-6 + 84e-6 + 2.0 * SIFS_S)).abs() < 1e-9);
    }

    #[test]
    fn transaction_walks_the_phases() {
        let mut mac = MacLoop::new(3);
        assert!(mac.is_idle(1));
        mac.poll_started(1, Time(5_000));
        assert_eq!(mac.phase(1), LoopPhase::Polled);
        assert!(!mac.is_idle(1));
        // Other tags are untouched.
        assert!(mac.is_idle(0) && mac.is_idle(2));
        mac.response_started(1);
        assert_eq!(mac.phase(1), LoopPhase::Responding);
        mac.ack_started(1);
        assert_eq!(mac.phase(1), LoopPhase::AckInFlight);
        assert_eq!(mac.finish(1), Time(5_000));
        assert!(mac.is_idle(1));
    }

    #[test]
    fn failed_transactions_reset_from_any_phase() {
        let mut mac = MacLoop::new(1);
        mac.poll_started(0, Time(77));
        // A poll loss aborts straight from Polled.
        assert_eq!(mac.finish(0), Time(77));
        assert!(mac.is_idle(0));
        // And the next transaction gets a fresh reference time.
        mac.poll_started(0, Time(99));
        mac.response_started(0);
        assert_eq!(mac.finish(0), Time(99));
    }
}
