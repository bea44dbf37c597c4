//! # interscatter-bench
//!
//! The Criterion benchmark harness of the Interscatter reproduction. The
//! benches live under `benches/`; this library holds no code.
//!
//! * `figures` iterates `interscatter_sim::experiments::catalogue()`: for
//!   each paper result it prints the table `run_experiments` prints, then
//!   times the result's quick-size run under the row's name (`fig06` …
//!   `ablations`).
//! * `phy_pipelines` times each PHY's tx/rx chain, `ablations` the
//!   design-choice ablations, and the `net_*` benches the network engine.
//!
//! Run the full harness with `cargo bench --workspace`, or the quick tier
//! with `scripts/bench_quick.sh`.
