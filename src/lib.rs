//! Root helper library for the Interscatter reproduction workspace.
//!
//! The root package exists to host the runnable examples (`examples/`) and
//! the cross-crate integration tests (`tests/`); the actual functionality
//! lives in the `interscatter*` crates under `crates/`. This library only
//! re-exports the facade crate so examples and tests have a single import
//! path.

pub use interscatter;
pub use interscatter::prelude;
