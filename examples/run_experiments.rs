//! Runs every experiment of the evaluation and prints its tables: the
//! reproduced figures, packet fit, power budget and ablations, in paper
//! order (`sim::experiments::catalogue`).
//!
//! Run with `cargo run --release --example run_experiments`.

use interscatter::sim::experiments::{catalogue, Size};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Interscatter reproduction: full experiment suite ===\n");
    for experiment in catalogue() {
        println!("{}", (experiment.run)(Size::Paper)?);
    }
    println!("=== done ===");
    Ok(())
}
