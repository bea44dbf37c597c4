//! # interscatter-bench
//!
//! The Criterion benchmark harness regenerating every table and figure of
//! the Interscatter paper's evaluation. The benches live under `benches/`;
//! this library only provides small shared helpers so each bench file stays
//! focused on the experiment it regenerates.
//!
//! Run the full harness with `cargo bench --workspace`. Each bench prints
//! the same rows/series the paper reports (via the experiment runners in
//! `interscatter-sim`) and then times the runner so regressions in the
//! simulation pipelines show up as benchmark regressions.

/// Prints an experiment report exactly once per bench invocation.
///
/// Criterion calls the measured closure many times; the textual table that
/// reproduces the paper's figure only needs to be emitted once.
pub struct ReportOnce {
    printed: std::sync::Once,
}

impl ReportOnce {
    /// Creates a new one-shot printer.
    #[expect(
        clippy::new_without_default,
        reason = "a one-shot printer is built once per bench; a Default would only invite a second"
    )]
    pub fn new() -> Self {
        ReportOnce {
            printed: std::sync::Once::new(),
        }
    }

    /// Prints `text` the first time it is called; subsequent calls are
    /// no-ops.
    pub fn print(&self, text: &str) {
        self.printed.call_once(|| {
            println!("\n{text}");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_once_prints_only_once() {
        let once = ReportOnce::new();
        once.print("first");
        once.print("second");
        // No panic and no way to print twice; the Once guarantees it.
    }
}
