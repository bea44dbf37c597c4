//! Figure 6: spectrum of single-sideband vs double-sideband backscatter.
//!
//! The paper backscatters a single tone with a 22 MHz shift and plots the
//! resulting spectrum for both modulator designs: the double-sideband
//! baseline shows a strong mirror image on the opposite side of the carrier,
//! the single-sideband design suppresses it. The reproduction measures the
//! power in the wanted sideband, the mirror sideband, and the residual at
//! the carrier for both designs.

use crate::SimError;
use interscatter_backscatter::{dsb, ssb};
use interscatter_dsp::iq::tone;
use interscatter_dsp::spectrum::{band_power_db, welch_psd, SpectrumPoint, WelchConfig};

/// Result of the Fig. 6 experiment for one modulator design.
#[derive(Debug, Clone)]
pub struct SidebandSpectrum {
    /// Modulator name ("single-sideband" / "double-sideband").
    pub design: &'static str,
    /// Power in the wanted (+Δf) sideband, dB.
    pub wanted_db: f64,
    /// Power in the mirror (−Δf) sideband, dB.
    pub mirror_db: f64,
    /// Mirror-image suppression (wanted − mirror), dB.
    pub suppression_db: f64,
    /// The full PSD, for plotting.
    pub psd: Vec<SpectrumPoint>,
}

/// Parameters of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig06Params {
    /// Frequency shift applied by the tag, Hz (22 MHz in the paper's plot).
    pub shift_hz: f64,
    /// Simulation sample rate, Hz.
    pub sample_rate: f64,
    /// Number of samples of carrier to backscatter.
    pub num_samples: usize,
}

impl Default for Fig06Params {
    fn default() -> Self {
        Fig06Params {
            shift_hz: 22e6,
            sample_rate: 176e6,
            num_samples: 1 << 16,
        }
    }
}

/// Runs the experiment, returning `[single-sideband, double-sideband]`.
pub fn run(params: &Fig06Params) -> Result<[SidebandSpectrum; 2], SimError> {
    let carrier = tone(0.0, params.sample_rate, params.num_samples, 0.0);
    let welch = WelchConfig::default();

    // Each backscattered waveform is dropped once its PSD is taken, so the
    // two are never resident together.
    let ssb_cfg = ssb::SsbConfig::new(params.sample_rate, params.shift_hz);
    let ssb_psd = welch_psd(
        &ssb::shift_tone(&ssb_cfg, &carrier)?,
        params.sample_rate,
        &welch,
    )?;

    let dsb_cfg = dsb::DsbConfig::new(params.sample_rate, params.shift_hz);
    let dsb_psd = welch_psd(
        &dsb::shift_tone(&dsb_cfg, &carrier)?,
        params.sample_rate,
        &welch,
    )?;

    let band = 1e6;
    let measure = |design: &'static str, psd: Vec<SpectrumPoint>| {
        let wanted = band_power_db(&psd, params.shift_hz - band, params.shift_hz + band);
        let mirror = band_power_db(&psd, -params.shift_hz - band, -params.shift_hz + band);
        SidebandSpectrum {
            design,
            wanted_db: wanted,
            mirror_db: mirror,
            suppression_db: wanted - mirror,
            psd,
        }
    };
    Ok([
        measure("single-sideband", ssb_psd),
        measure("double-sideband", dsb_psd),
    ])
}

/// Plain-text report of the experiment.
pub fn report(results: &[SidebandSpectrum; 2]) -> String {
    let mut out = String::from("Fig. 6 — sideband spectra (22 MHz shift)\n");
    out.push_str("design            wanted(dB)  mirror(dB)  suppression(dB)\n");
    for r in results {
        out.push_str(&format!(
            "{:<17} {:>10} {:>11} {:>16}\n",
            r.design,
            super::f1(r.wanted_db),
            super::f1(r.mirror_db),
            super::f1(r.suppression_db)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssb_suppresses_the_mirror_and_dsb_does_not() {
        let params = Fig06Params {
            num_samples: 1 << 14,
            ..Default::default()
        };
        let [ssb, dsb] = run(&params).unwrap();
        assert!(
            ssb.suppression_db > 15.0,
            "SSB suppression {}",
            ssb.suppression_db
        );
        assert!(
            dsb.suppression_db.abs() < 1.0,
            "DSB should be symmetric: {}",
            dsb.suppression_db
        );
        // SSB puts more power in the wanted sideband than DSB does.
        assert!(ssb.wanted_db > dsb.wanted_db + 2.0);
        let text = report(&[ssb, dsb]);
        assert!(text.contains("single-sideband") && text.contains("double-sideband"));
    }
}
