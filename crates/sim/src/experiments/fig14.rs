//! Figure 14: CDF of the RSSI of backscatter-generated ZigBee packets.
//!
//! The paper places the tag two feet from the Bluetooth source and a TI
//! CC2531 ZigBee receiver at five locations up to 15 feet away, then plots
//! the CDF of the per-packet RSSI values. The reproduction sweeps the same
//! five locations with shadowing, also verifying that the packets decode at
//! the reported RSSI levels.

use crate::measurements::Cdf;
use crate::uplink::UplinkScenario;
use crate::SimError;
use rand::SeedableRng;

/// One ZigBee location measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZigbeeRssiPoint {
    /// Tag-to-receiver distance, feet.
    pub distance_ft: f64,
    /// Median RSSI, dBm.
    pub rssi_dbm: f64,
    /// Fraction of trial packets decoded correctly at this location.
    pub delivery_ratio: f64,
}

/// Parameters of the Fig. 14 experiment.
#[derive(Debug, Clone)]
pub struct Fig14Params {
    /// Receiver locations, feet from the tag (five locations up to 15 ft in
    /// the paper).
    pub distances_ft: Vec<f64>,
    /// Packets per location for the delivery-ratio check.
    pub packets_per_location: usize,
    /// RSSI samples per location for the CDF (with shadowing).
    pub rssi_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig14Params {
    fn default() -> Self {
        Fig14Params {
            distances_ft: vec![3.0, 6.0, 9.0, 12.0, 15.0],
            packets_per_location: 5,
            rssi_samples: 40,
            seed: 0x14,
        }
    }
}

impl Fig14Params {
    /// Rejects parameters that would report a `NaN` delivery ratio or a
    /// meaningless location: no distances or packets, or a distance that is
    /// not finite and positive.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.distances_ft.is_empty() {
            return Err(SimError::InvalidScenario(
                "Fig. 14 needs at least one distance",
            ));
        }
        if self.packets_per_location == 0 {
            return Err(SimError::InvalidScenario(
                "Fig. 14 needs at least one packet per location",
            ));
        }
        if !self.distances_ft.iter().all(|d| d.is_finite() && *d > 0.0) {
            return Err(SimError::InvalidScenario(
                "Fig. 14 distances must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// Runs the experiment, returning the per-location rows and the pooled RSSI
/// CDF.
pub fn run(params: &Fig14Params) -> Result<(Vec<ZigbeeRssiPoint>, Cdf), SimError> {
    params.validate()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let mut rows = Vec::new();
    let mut cdf = Cdf::new();
    for &d in &params.distances_ft {
        let scenario = UplinkScenario::fig14_zigbee(d);
        scenario.validate()?;
        let rssi = scenario.rssi_dbm();
        for _ in 0..params.rssi_samples {
            cdf.push(scenario.rssi_shadowed_dbm(&mut rng));
        }
        let mut delivered = 0usize;
        for p in 0..params.packets_per_location {
            let payload: Vec<u8> = (0..20).map(|i| ((i + p) % 251) as u8).collect();
            let (ok, _) = scenario.simulate_zigbee_packet(&payload, rssi, &mut rng)?;
            if ok {
                delivered += 1;
            }
        }
        rows.push(ZigbeeRssiPoint {
            distance_ft: d,
            rssi_dbm: rssi,
            delivery_ratio: delivered as f64 / params.packets_per_location as f64,
        });
    }
    Ok((rows, cdf))
}

/// Plain-text report.
pub fn report(rows: &[ZigbeeRssiPoint], cdf: &Cdf) -> String {
    let mut out = String::from("Fig. 14 — ZigBee RSSI at five locations\n");
    out.push_str("distance(ft)  RSSI(dBm)  delivery\n");
    for r in rows {
        out.push_str(&format!(
            "{:>12} {:>10} {:>9}\n",
            r.distance_ft,
            super::f1(r.rssi_dbm),
            super::f3(r.delivery_ratio)
        ));
    }
    if let (Some(med), Some((lo, hi))) = (cdf.median(), cdf.range()) {
        out.push_str(&format!(
            "RSSI CDF: min {} dBm, median {} dBm, max {} dBm over {} samples\n",
            super::f1(lo),
            super::f1(med),
            super::f1(hi),
            cdf.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigbee_rssi_cdf_shape() {
        let params = Fig14Params {
            packets_per_location: 2,
            rssi_samples: 10,
            ..Default::default()
        };
        let (rows, cdf) = run(&params).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(cdf.len(), 50);
        // RSSI decreases with distance; all locations are within the CC2531's
        // sensitivity so the packets deliver.
        for w in rows.windows(2) {
            assert!(w[1].rssi_dbm < w[0].rssi_dbm);
        }
        for r in &rows {
            assert!(
                r.rssi_dbm > -97.0,
                "{} ft below ZigBee sensitivity",
                r.distance_ft
            );
            assert!(
                r.delivery_ratio > 0.99,
                "{} ft delivery {}",
                r.distance_ft,
                r.delivery_ratio
            );
        }
        // The paper's CDF spans roughly -90..-55 dBm; ours should cover a
        // similar span of tens of dB.
        let (lo, hi) = cdf.range().unwrap();
        assert!(hi - lo > 15.0, "RSSI span {} dB", hi - lo);
        assert!((-100.0..=-40.0).contains(&lo) && (-80.0..=-30.0).contains(&hi));
        let text = report(&rows, &cdf);
        assert!(text.contains("delivery"));
    }

    fn rejected(params: Fig14Params) -> bool {
        matches!(run(&params), Err(SimError::InvalidScenario(_)))
    }

    #[test]
    fn no_distances_is_rejected() {
        assert!(rejected(Fig14Params {
            distances_ft: vec![],
            ..Default::default()
        }));
    }

    #[test]
    fn no_packets_is_rejected() {
        assert!(rejected(Fig14Params {
            packets_per_location: 0,
            ..Default::default()
        }));
    }

    #[test]
    fn non_finite_distance_is_rejected() {
        for d in [f64::NAN, f64::INFINITY] {
            assert!(rejected(Fig14Params {
                distances_ft: vec![3.0, d],
                ..Default::default()
            }));
        }
    }

    #[test]
    fn non_positive_distance_is_rejected() {
        for d in [0.0, -3.0] {
            assert!(rejected(Fig14Params {
                distances_ft: vec![d, 6.0],
                ..Default::default()
            }));
        }
    }
}
