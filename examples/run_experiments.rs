//! Runs every experiment of the evaluation and prints its tables: the
//! reproduced figures, packet fit, power budget and ablations, in paper
//! order.
//!
//! Run with `cargo run --release --example run_experiments`.

use interscatter::sim::experiments as exp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Interscatter reproduction: full experiment suite ===\n");

    let fig06 = exp::fig06::run(&exp::fig06::Fig06Params::default())?;
    println!("{}", exp::fig06::report(&fig06));

    let fig09 = exp::fig09::run(0x5EED)?;
    println!("{}", exp::fig09::report(&fig09));

    let fit = exp::packet_fit::run();
    println!("{}", exp::packet_fit::report(&fit));

    let fig10 = exp::fig10::run(&exp::fig10::Fig10Params::default())?;
    println!("{}", exp::fig10::report(&fig10));

    let fig11 = exp::fig11::run(&exp::fig11::Fig11Params::default())?;
    println!("{}", exp::fig11::report(&fig11));

    let fig12 = exp::fig12::run(&exp::fig12::Fig12Params::default())?;
    println!("{}", exp::fig12::report(&fig12));

    let fig13 = exp::fig13::run(&exp::fig13::Fig13Params::default())?;
    println!("{}", exp::fig13::report(&fig13));

    let (fig14_rows, fig14_cdf) = exp::fig14::run(&exp::fig14::Fig14Params::default())?;
    println!("{}", exp::fig14::report(&fig14_rows, &fig14_cdf));

    let fig15 = exp::fig15::run(&exp::fig15::Fig15Params::default())?;
    println!("{}", exp::fig15::report(&fig15));

    let fig16 = exp::fig16::run(&exp::fig16::Fig16Params::default())?;
    println!("{}", exp::fig16::report(&fig16));

    let fig17 = exp::fig17::run(&exp::fig17::Fig17Params::default())?;
    println!("{}", exp::fig17::report(&fig17));

    let (power_rows, power_points) = exp::power::run();
    println!("{}", exp::power::report(&power_rows, &power_points));

    let seeds = exp::scrambler_seed::run(1000);
    println!("{}", exp::scrambler_seed::report(&seeds));

    let square = exp::ablations::square_wave_ablation()?;
    let guards = exp::ablations::guard_interval_ablation(&[0.0, 4e-6, 20e-6, 100e-6, 200e-6]);
    let shifts = exp::ablations::shift_ablation(&[22e6, 35.75e6, 36e6, 60e6]);
    println!("{}", exp::ablations::report(&square, &guards, &shifts));

    println!("=== done ===");
    Ok(())
}
