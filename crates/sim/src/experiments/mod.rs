//! Experiment runners — one module per table/figure of the paper.
//!
//! Each module exposes a `run*` function that returns structured rows and a
//! `report` helper producing its plain-text table. Runtime scales with the
//! `trials`/length parameters; the *shape* of each result (who wins,
//! slopes, crossovers) is stable across settings.
//!
//! [`catalogue`] names every result once, in paper order, with the two
//! settings it runs at: [`Size::Paper`], the table the `run_experiments`
//! example and the `figures` bench print, and [`Size::Quick`], the reduced
//! run the `figures` bench times and the smoke test checks.
//!
//! | module | paper result |
//! |---|---|
//! | [`fig06`]  | Fig. 6 — single- vs double-sideband backscatter spectrum |
//! | [`fig09`]  | Fig. 9 — BLE single tone vs random advertisement, 3 devices |
//! | [`fig10`]  | Fig. 10 — Wi-Fi RSSI vs distance at 0/4/10/20 dBm |
//! | [`fig11`]  | Fig. 11 — CDF of Wi-Fi packet error rate at 2 and 11 Mbps |
//! | [`fig12`]  | Fig. 12 — iperf throughput vs backscatter rate |
//! | [`fig13`]  | Fig. 13 — downlink BER vs distance |
//! | [`fig14`]  | Fig. 14 — CDF of ZigBee RSSI at five locations |
//! | [`fig15`]  | Fig. 15 — contact-lens RSSI vs distance |
//! | [`fig16`]  | Fig. 16 — neural-implant RSSI vs distance |
//! | [`fig17`]  | Fig. 17 — card-to-card BER vs distance |
//! | [`power`]  | §3 — IC power budget table |
//! | [`packet_fit`] | §2.3.3 — Wi-Fi payload bytes per BLE advertisement |
//! | [`scrambler_seed`] | §4.4 — scrambler-seed predictability |
//! | [`ablations`] | design-choice ablations (square wave, guard interval, shift, downlink encoding) |

pub mod ablations;
pub mod fig06;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod packet_fit;
pub mod power;
pub mod scrambler_seed;

use crate::SimError;

/// How much work a catalogue run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Every runner's default parameters: the tables `run_experiments`
    /// prints.
    Paper,
    /// Reduced parameters with the same shape, for timing and smoke tests.
    Quick,
}

/// One result of the paper's evaluation: its runner's module name and a
/// function that runs it and renders its report.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The runner's module name, e.g. `"fig11"`.
    pub name: &'static str,
    /// Runs the experiment at a [`Size`] and returns its rendered report.
    pub run: fn(Size) -> Result<String, SimError>,
}

/// Every experiment, in paper order: Figs. 6 and 9, the packet fit, Figs.
/// 10–17, the power budget, the scrambler seed and the ablations.
///
/// ```
/// use interscatter_sim::experiments::{catalogue, Size};
/// let fit = catalogue().iter().find(|e| e.name == "packet_fit").unwrap();
/// let report = (fit.run)(Size::Paper).unwrap();
/// assert!(report.contains("209"));
/// ```
pub fn catalogue() -> &'static [Experiment] {
    &CATALOGUE
}

const CATALOGUE: [Experiment; 14] = [
    Experiment {
        name: "fig06",
        run: |size| {
            let mut p = fig06::Fig06Params::default();
            if size == Size::Quick {
                p.num_samples = 1 << 14;
            }
            fig06::run(&p).map(|r| fig06::report(&r))
        },
    },
    Experiment {
        name: "fig09",
        run: |_| fig09::run(0x5EED).map(|r| fig09::report(&r)),
    },
    Experiment {
        name: "packet_fit",
        run: |_| Ok(packet_fit::report(&packet_fit::run())),
    },
    Experiment {
        name: "fig10",
        run: |_| fig10::run(&fig10::Fig10Params::default()).map(|r| fig10::report(&r)),
    },
    Experiment {
        name: "fig11",
        run: |size| {
            let mut p = fig11::Fig11Params::default();
            if size == Size::Quick {
                p.locations = 4;
                p.packets_per_location = 5;
            }
            fig11::run(&p).map(|r| fig11::report(&r))
        },
    },
    Experiment {
        name: "fig12",
        run: |size| {
            let mut p = fig12::Fig12Params::default();
            if size == Size::Quick {
                p.duration_s = 0.5;
            }
            fig12::run(&p).map(|r| fig12::report(&r))
        },
    },
    Experiment {
        name: "fig13",
        run: |size| {
            let mut p = fig13::Fig13Params::default();
            if size == Size::Quick {
                p.distances_ft = vec![5.0, 15.0, 40.0];
                p.frames = 1;
                p.bits_per_frame = 16;
            }
            fig13::run(&p).map(|r| fig13::report(&r))
        },
    },
    Experiment {
        name: "fig14",
        run: |size| {
            let mut p = fig14::Fig14Params::default();
            if size == Size::Quick {
                p.packets_per_location = 1;
                p.rssi_samples = 5;
            }
            fig14::run(&p).map(|(rows, cdf)| fig14::report(&rows, &cdf))
        },
    },
    Experiment {
        name: "fig15",
        run: |_| fig15::run(&fig15::Fig15Params::default()).map(|r| fig15::report(&r)),
    },
    Experiment {
        name: "fig16",
        run: |_| fig16::run(&fig16::Fig16Params::default()).map(|r| fig16::report(&r)),
    },
    Experiment {
        name: "fig17",
        run: |size| {
            let mut p = fig17::Fig17Params::default();
            if size == Size::Quick {
                p.payloads_per_distance = 2;
            }
            fig17::run(&p).map(|r| fig17::report(&r))
        },
    },
    Experiment {
        name: "power",
        run: |_| {
            let (rows, points) = power::run();
            Ok(power::report(&rows, &points))
        },
    },
    Experiment {
        name: "scrambler_seed",
        run: |size| {
            let frames = if size == Size::Quick { 200 } else { 1000 };
            Ok(scrambler_seed::report(&scrambler_seed::run(frames)))
        },
    },
    Experiment {
        name: "ablations",
        run: |size| {
            let (guards_s, shifts_hz): (&[f64], &[f64]) = match size {
                Size::Paper => (
                    &[0.0, 4e-6, 20e-6, 100e-6, 200e-6],
                    &[22e6, 35.75e6, 36e6, 60e6],
                ),
                Size::Quick => (&[4e-6], &[35.75e6]),
            };
            Ok(ablations::report(
                &ablations::square_wave_ablation()?,
                &ablations::guard_interval_ablation(guards_s),
                &ablations::shift_ablation(shifts_hz),
            ))
        },
    },
];

/// Formats a floating-point value with one decimal for report tables.
pub(crate) fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a floating-point value with three decimals for report tables.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `pub mod` of this module is a catalogue row, and no name
    /// appears twice.
    #[test]
    fn every_runner_module_has_one_row() {
        let names: Vec<&str> = catalogue().iter().map(|e| e.name).collect();
        let modules: Vec<&str> = include_str!("mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        assert_eq!(modules.len(), names.len());
        for m in &modules {
            assert_eq!(names.iter().filter(|n| *n == m).count(), 1, "{m}");
        }
    }
}
