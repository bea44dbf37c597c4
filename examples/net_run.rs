//! Runs any preset by its catalogue label (parsed by
//! `net::scenario::preset`) and prints the report, the progress lines and
//! an FNV-1a digest over both, then whichever of the transaction count,
//! the PRR-vs-displacement split, the trace digest and the trials report
//! the run has. Same arguments and seed, byte-identical stdout:
//!
//! ```text
//! cargo run --release --example net_run -- 'hospital_ward(60)' 42 --trials 8
//! cargo run --release --example net_run -- 'campus(100000)' 42 --no-trace
//! ```
//!
//! `SEED` defaults to 42; `--duration S` overrides the preset's simulated
//! seconds and `--progress S` prints a progress line every S simulated
//! seconds (mirrored to stderr). `PROF_OUT=<path>` / `PROF_TRACE_OUT=<path>`
//! write the `PROF_net.json` summary / a Chrome trace as side files.

use interscatter::net::prelude::*;
use interscatter::net::scenario::preset;
use interscatter::net::trace_digest::fnv1a_str;
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str =
    "usage: net_run LABEL [SEED] [--trials N] [--duration S] [--progress S] [--no-trace]";

fn main() -> ExitCode {
    match run_cli(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("net_run: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `flag`, parsed.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn run_cli(mut args: impl Iterator<Item = String>) -> Result<(), Box<dyn Error>> {
    let prof_out = std::env::var_os("PROF_OUT");
    let prof_trace_out = std::env::var_os("PROF_TRACE_OUT");
    let mut execution =
        ExecutionSection::new().profile(prof_out.is_some() || prof_trace_out.is_some());
    let (mut positional, mut duration_s) = (Vec::new(), None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => execution = execution.trials(value(&arg, &mut args)?),
            "--duration" => duration_s = Some(value(&arg, &mut args)?),
            "--progress" => execution = execution.progress(value(&arg, &mut args)?, true),
            "--no-trace" => execution = execution.trace(false),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            _ => positional.push(arg),
        }
    }
    let (label, seed) = match positional.as_slice() {
        [label] => (label, "42"),
        [label, seed] => (label, seed.as_str()),
        _ => return Err("expected LABEL [SEED]".into()),
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("SEED: cannot parse `{seed}`"))?;
    let mut builder = preset(label)?.builder().execution(execution);
    if let Some(duration_s) = duration_s {
        builder = builder.duration_s(duration_s);
    }
    let scenario = builder.build()?;
    println!(
        "=== {} ===\n{} tags, {} carriers, {} sinks, {:.0} s simulated, seed {seed}\n",
        scenario.name,
        scenario.tags.len(),
        scenario.carriers.len(),
        scenario.receivers.len(),
        scenario.duration_s,
    );

    let result = run(&scenario, seed)?;
    let m = &result.metrics;
    let out = format!("{}\n{}", m.report(), result.telemetry.render());
    print!("{out}");
    let events = result.telemetry.events;
    println!(
        "\nreport digest {:016x} over {events} engine events",
        fnv1a_str(&out)
    );
    if m.polls() > 0 {
        println!(
            "transactions: {} completed / {} polls ({:.1} transactions/s)",
            m.completed_transactions(),
            m.polls(),
            m.transactions_per_sec(),
        );
    }
    let half = m.max_displacement_m() / 2.0;
    if let (Some((near, near_n)), Some((far, far_n))) = (
        m.prr_in_displacement_band(0.0, half),
        m.prr_in_displacement_band(half, f64::INFINITY),
    ) {
        println!(
            "PRR vs displacement: {near:.3} over {near_n} attempts below {half:.1} m, \
             {far:.3} over {far_n} attempts beyond"
        );
    }
    if scenario.execution.trace {
        println!(
            "event trace: {} records, {} bytes, digest {:016x}",
            result.trace.records().len(),
            result.trace.to_bytes().len(),
            result.trace.digest(),
        );
    }
    if scenario.execution.trials > 1 {
        println!("\n{}", run_trials(&scenario, seed)?.report());
    }

    // Profiles go to side files only, never to the digest-checked stdout.
    if let (Some(prof), Some(path)) = (&result.prof, &prof_out) {
        std::fs::write(path, prof.summary().to_json())?;
    }
    if let (Some(prof), Some(path)) = (&result.prof, &prof_trace_out) {
        std::fs::write(path, prof.to_chrome_trace())?;
    }
    Ok(())
}
