//! Figure 11: CDF of the Wi-Fi packet error rate for backscatter-generated
//! 2 Mbps and 11 Mbps packets.
//!
//! The paper transmits loops of 200 sequence-numbered packets at each of the
//! RSSI operating points observed in the range experiments and plots the CDF
//! of the resulting per-location packet error rates. The reproduction sweeps
//! the same RSSI span (strong links near the tag down to links at the
//! sensitivity limit), runs waveform-level packet trials at each point, and
//! builds the same CDF. The paper's two key observations should hold: the 2
//! and 11 Mbps curves are similar (both payloads are small and share the
//! same preamble/header rate), and the worst locations see PERs above 30 %.

use crate::measurements::Cdf;
use crate::uplink::UplinkScenario;
use crate::SimError;
use interscatter_backscatter::tag::TargetPhy;
use interscatter_wifi::dot11b::DsssRate;
use rand::{Rng, SeedableRng};

/// One per-location PER measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerPoint {
    /// PSDU rate.
    pub rate: DsssRate,
    /// Link RSSI at this location, dBm.
    pub rssi_dbm: f64,
    /// Measured packet error rate in [0, 1].
    pub per: f64,
}

/// Parameters of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11Params {
    /// Number of locations (RSSI operating points) per rate.
    pub locations: usize,
    /// Packets per location (200 in the paper).
    pub packets_per_location: usize,
    /// RSSI range swept, dBm (from strong links down to the sensitivity
    /// limit).
    pub rssi_range_dbm: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig11Params {
    fn default() -> Self {
        Fig11Params {
            locations: 12,
            packets_per_location: 40,
            rssi_range_dbm: (-97.0, -55.0),
            seed: 0x11,
        }
    }
}

impl Fig11Params {
    /// Rejects parameters that would report a `NaN` PER or `NaN` RSSI: no
    /// locations or packets, or a non-finite or empty RSSI range.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.locations == 0 {
            return Err(SimError::InvalidScenario(
                "Fig. 11 needs at least one location",
            ));
        }
        if self.packets_per_location == 0 {
            return Err(SimError::InvalidScenario(
                "Fig. 11 needs at least one packet per location",
            ));
        }
        let (lo, hi) = self.rssi_range_dbm;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(SimError::InvalidScenario(
                "Fig. 11 RSSI range must be finite with lo < hi",
            ));
        }
        Ok(())
    }
}

/// Runs the experiment for both rates, returning the per-location points.
pub fn run(params: &Fig11Params) -> Result<Vec<PerPoint>, SimError> {
    params.validate()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let mut points = Vec::new();
    for (rate, payload_len) in [(DsssRate::Mbps2, 31usize), (DsssRate::Mbps11, 77usize)] {
        for loc in 0..params.locations {
            // Spread the locations across the RSSI span, with a small random
            // perturbation standing in for multipath variation.
            let span = params.rssi_range_dbm.1 - params.rssi_range_dbm.0;
            let rssi = params.rssi_range_dbm.0
                + span * loc as f64 / (params.locations - 1).max(1) as f64
                + rng.gen_range(-1.0..1.0);
            let mut scenario = UplinkScenario::fig10_bench(4.0, 1.0, 10.0);
            scenario.target = TargetPhy::Wifi(rate);
            let payloads: Vec<Vec<u8>> = (0..params.packets_per_location)
                .map(|p| {
                    (0..payload_len)
                        .map(|i| ((i * 7 + p + loc) % 251) as u8)
                        .collect()
                })
                .collect();
            let errors = scenario
                .simulate_wifi_packets(&payloads, rssi, &mut rng)?
                .iter()
                .filter(|&&(ok, _, _)| !ok)
                .count();
            points.push(PerPoint {
                rate,
                rssi_dbm: rssi,
                per: errors as f64 / params.packets_per_location as f64,
            });
        }
    }
    Ok(points)
}

/// Builds the CDF of PER values for one rate.
pub fn per_cdf(points: &[PerPoint], rate: DsssRate) -> Cdf {
    Cdf::from_samples(points.iter().filter(|p| p.rate == rate).map(|p| p.per))
}

/// Plain-text report: the PER CDF at a few quantiles for both rates.
pub fn report(points: &[PerPoint]) -> String {
    let mut out = String::from("Fig. 11 — Wi-Fi packet error rate CDF\n");
    out.push_str("rate      median PER  75th pct  90th pct  max\n");
    for rate in [DsssRate::Mbps2, DsssRate::Mbps11] {
        let cdf = per_cdf(points, rate);
        out.push_str(&format!(
            "{:<9} {:>10} {:>9} {:>9} {:>5}\n",
            format!("{rate:?}"),
            super::f3(cdf.median().unwrap_or(0.0)),
            super::f3(cdf.quantile(0.75).unwrap_or(0.0)),
            super::f3(cdf.quantile(0.9).unwrap_or(0.0)),
            super::f3(cdf.range().map(|r| r.1).unwrap_or(0.0)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cdf_matches_the_papers_observations() {
        let params = Fig11Params {
            locations: 6,
            packets_per_location: 10,
            ..Default::default()
        };
        let points = run(&params).unwrap();
        assert_eq!(points.len(), 2 * 6);
        let cdf2 = per_cdf(&points, DsssRate::Mbps2);
        let cdf11 = per_cdf(&points, DsssRate::Mbps11);
        assert_eq!(cdf2.len(), 6);
        assert_eq!(cdf11.len(), 6);
        // Strong locations deliver everything; the weakest locations lose
        // more than 30 % of packets (paper: PER > 30 % at low RSSI).
        assert!(cdf2.quantile(0.0).unwrap() < 0.05);
        assert!(cdf2.range().unwrap().1 > 0.3);
        assert!(cdf11.range().unwrap().1 > 0.3);
        // The two rates behave similarly: medians within 0.25 of each other.
        let delta = (cdf2.median().unwrap() - cdf11.median().unwrap()).abs();
        assert!(delta < 0.25, "median PER difference {delta}");
        // PER is non-increasing as RSSI improves (check the 2 Mbps series).
        let mut two: Vec<&PerPoint> = points
            .iter()
            .filter(|p| p.rate == DsssRate::Mbps2)
            .collect();
        two.sort_by(|a, b| a.rssi_dbm.partial_cmp(&b.rssi_dbm).unwrap());
        assert!(two.first().unwrap().per >= two.last().unwrap().per);
        let text = report(&points);
        assert!(text.contains("Mbps2") && text.contains("Mbps11"));
    }

    fn rejected(params: Fig11Params) -> bool {
        matches!(run(&params), Err(SimError::InvalidScenario(_)))
    }

    #[test]
    fn no_locations_is_rejected() {
        assert!(rejected(Fig11Params {
            locations: 0,
            ..Default::default()
        }));
    }

    #[test]
    fn no_packets_is_rejected() {
        assert!(rejected(Fig11Params {
            packets_per_location: 0,
            ..Default::default()
        }));
    }

    #[test]
    fn nan_rssi_bound_is_rejected() {
        for range in [(f64::NAN, -55.0), (-97.0, f64::NAN)] {
            assert!(rejected(Fig11Params {
                rssi_range_dbm: range,
                ..Default::default()
            }));
        }
    }

    #[test]
    fn infinite_rssi_bound_is_rejected() {
        for range in [(f64::NEG_INFINITY, -55.0), (-97.0, f64::INFINITY)] {
            assert!(rejected(Fig11Params {
                rssi_range_dbm: range,
                ..Default::default()
            }));
        }
    }

    #[test]
    fn inverted_or_empty_rssi_range_is_rejected() {
        for range in [(-55.0, -97.0), (-70.0, -70.0)] {
            assert!(rejected(Fig11Params {
                rssi_range_dbm: range,
                ..Default::default()
            }));
        }
    }
}
