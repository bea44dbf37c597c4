//! Per-rule fixture tests: every rule fires on a crafted hazardous
//! snippet and stays silent on the idiomatic equivalent. The hazardous
//! code lives in string literals, which the lexer guarantees are invisible
//! to the rules when *this* file is itself scanned by the workspace
//! self-scan.

use detlint::{scan_source, RuleId};

/// Findings of one rule for a snippet placed at `path`.
fn fire(path: &str, src: &str, rule: RuleId) -> usize {
    scan_source(path, src)
        .iter()
        .filter(|f| f.rule == rule)
        .count()
}

const NET: &str = "crates/net/src/fixture.rs";

// ---------------------------------------------------------------- hash_iter

#[test]
fn hash_iter_fires_on_std_hash_tables() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u64, usize> = HashMap::new(); }\n";
    assert_eq!(fire(NET, src, RuleId::HashIter), 3, "use + type + ctor");
    let set = "fn g() { let s = std::collections::HashSet::<usize>::new(); }\n";
    assert_eq!(fire(NET, set, RuleId::HashIter), 1);
}

#[test]
fn hash_iter_silent_on_ordered_structures() {
    let src = "use std::collections::BTreeMap;\nfn f(xs: &mut Vec<u64>) -> BTreeMap<u64, usize> {\n  xs.sort_unstable(); xs.dedup(); BTreeMap::new()\n}\n";
    assert_eq!(fire(NET, src, RuleId::HashIter), 0);
}

#[test]
fn hash_iter_silent_in_strings_and_comments() {
    let src = "// a HashMap would be wrong here\nfn f() -> &'static str { \"HashMap\" }\n";
    assert_eq!(fire(NET, src, RuleId::HashIter), 0);
}

#[test]
fn hash_iter_out_of_scope_in_shims() {
    let src = "fn f() { let m = std::collections::HashMap::<u8, u8>::new(); }\n";
    assert_eq!(
        fire("crates/shims/criterion/src/lib.rs", src, RuleId::HashIter),
        0
    );
}

// ---------------------------------------------------------------- wall_clock

#[test]
fn wall_clock_fires_on_host_clock_reads() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(fire(NET, src, RuleId::WallClock), 1);
    let sys = "fn f() { let t = std::time::SystemTime::now(); }\n";
    assert_eq!(fire(NET, sys, RuleId::WallClock), 1);
}

#[test]
fn wall_clock_silent_on_virtual_time_and_in_benches() {
    let src = "fn f(now: Time) -> Time { now.after_nanos(5) }\n";
    assert_eq!(fire(NET, src, RuleId::WallClock), 0);
    // Bench harnesses are the sanctioned stopwatch holders.
    let bench = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(
        fire(
            "crates/bench/benches/net_engine.rs",
            bench,
            RuleId::WallClock
        ),
        0
    );
    assert_eq!(
        fire(
            "crates/shims/criterion/src/lib.rs",
            bench,
            RuleId::WallClock
        ),
        0
    );
}

#[test]
fn wall_clock_allowance_is_scoped_to_the_prof_module() {
    // prof.rs is the one sanctioned home for Instant in the engine crate.
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(fire("crates/net/src/prof.rs", src, RuleId::WallClock), 0);
    // The allowance does not leak to siblings, the hot path, or lookalike
    // paths elsewhere in the tree.
    assert_eq!(fire("crates/net/src/engine.rs", src, RuleId::WallClock), 1);
    assert_eq!(fire("crates/net/src/shard.rs", src, RuleId::WallClock), 1);
    assert_eq!(fire("crates/sim/src/prof.rs", src, RuleId::WallClock), 1);
}

// ----------------------------------------------------------------- stray_rng

#[test]
fn stray_rng_fires_on_entropy_sources_anywhere() {
    let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
    assert_eq!(fire("crates/sim/src/fixture.rs", src, RuleId::StrayRng), 1);
    let ent = "fn f() { let rng = SmallRng::from_entropy(); }\n";
    assert_eq!(fire("crates/sim/src/fixture.rs", ent, RuleId::StrayRng), 1);
}

#[test]
fn stray_rng_fires_on_direct_seeding_in_the_engine_crate() {
    let src = "fn f(seed: u64) { let rng = SmallRng::seed_from_u64(seed ^ 17); }\n";
    assert_eq!(fire(NET, src, RuleId::StrayRng), 1);
}

#[test]
fn stray_rng_silent_in_the_stream_constructors_and_outside_net() {
    let src = "fn f(seed: u64) { let rng = SmallRng::seed_from_u64(seed ^ 17); }\n";
    // entities.rs hosts the named stream constructors (streams 0-4).
    assert_eq!(fire("crates/net/src/entities.rs", src, RuleId::StrayRng), 0);
    // Deterministically seeded generators outside the engine crate are
    // not stream-disciplined; only entropy sources are policed there.
    assert_eq!(fire("crates/sim/src/fixture.rs", src, RuleId::StrayRng), 0);
}

#[test]
fn stray_rng_silent_on_routed_constructors() {
    let src = "fn f(seed: u64, t: usize) { let rng = streams::tag_rng(seed, t); }\n";
    assert_eq!(fire(NET, src, RuleId::StrayRng), 0);
}

// ------------------------------------------------------------- forbid_unsafe

#[test]
fn forbid_unsafe_fires_on_missing_attr_in_crate_root() {
    let src = "//! A crate.\npub fn f() {}\n";
    assert_eq!(fire("crates/fake/src/lib.rs", src, RuleId::ForbidUnsafe), 1);
    assert_eq!(
        fire("crates/fake/src/main.rs", src, RuleId::ForbidUnsafe),
        1
    );
}

#[test]
fn forbid_unsafe_fires_on_unsafe_token() {
    let src =
        "#![forbid(unsafe_code)]\nfn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
    assert_eq!(fire("crates/fake/src/lib.rs", src, RuleId::ForbidUnsafe), 1);
}

#[test]
fn forbid_unsafe_silent_on_guarded_root_and_non_roots() {
    let src = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
    assert_eq!(fire("crates/fake/src/lib.rs", src, RuleId::ForbidUnsafe), 0);
    // A non-root module file needs no attribute of its own.
    assert_eq!(
        fire(
            "crates/fake/src/module.rs",
            "pub fn f() {}\n",
            RuleId::ForbidUnsafe
        ),
        0
    );
}

// ------------------------------------------------------------------ float_key

#[test]
fn float_key_fires_on_partial_cmp_ordering() {
    let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
    assert_eq!(fire(NET, src, RuleId::FloatKey), 1);
}

#[test]
fn float_key_silent_on_total_cmp_and_trait_impls() {
    let src = "fn f(xs: &mut [f64]) { xs.sort_by(f64::total_cmp); }\n";
    assert_eq!(fire(NET, src, RuleId::FloatKey), 0);
    // A PartialOrd impl *defines* partial_cmp; that is not a float key.
    let imp = "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) } }\n";
    assert_eq!(fire(NET, imp, RuleId::FloatKey), 0);
    // Outside the engine crate the PHY math compares floats freely.
    let phy = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
    assert_eq!(fire("crates/dsp/src/fixture.rs", phy, RuleId::FloatKey), 0);
}

// -------------------------------------------------------------- ordered_merge

#[test]
fn ordered_merge_fires_on_raw_parallel_iterators() {
    let src = "fn f(xs: Vec<u64>) -> Vec<u64> { xs.into_par_iter().map(|x| x + 1).collect() }\n";
    assert_eq!(fire(NET, src, RuleId::OrderedMerge), 1);
    let byref = "fn f(xs: &[u64]) -> u64 { xs.par_iter().map(|&x| x).count() as u64 }\n";
    assert_eq!(fire(NET, byref, RuleId::OrderedMerge), 1);
}

#[test]
fn ordered_merge_silent_on_the_helper_and_inside_the_shim() {
    let src = "fn f(xs: Vec<u64>) -> Vec<u64> { rayon::det::map_ordered(xs, |x| x + 1) }\n";
    assert_eq!(fire(NET, src, RuleId::OrderedMerge), 0);
    // The shim itself defines the parallel surface.
    let shim = "pub fn into_par_iter(self) -> ParIter<T> { ParIter { items: self } }\n";
    assert_eq!(
        fire("crates/shims/rayon/src/lib.rs", shim, RuleId::OrderedMerge),
        0
    );
}

// ------------------------------------------------------------- shard_exchange

#[test]
fn shard_exchange_fires_on_sync_primitives_in_the_engine_crate() {
    let lock = "fn f() { let shared = std::sync::Mutex::new(Vec::<u64>::new()); }\n";
    assert_eq!(fire(NET, lock, RuleId::ShardExchange), 1);
    let rw = "fn f() { let shared = std::sync::RwLock::new(0u64); }\n";
    assert_eq!(fire(NET, rw, RuleId::ShardExchange), 1);
    let atomic = "fn f() { let n = std::sync::atomic::AtomicU64::new(0); }\n";
    assert_eq!(fire(NET, atomic, RuleId::ShardExchange), 1);
    let chan = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u64>(); }\n";
    assert_eq!(fire(NET, chan, RuleId::ShardExchange), 1);
    let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(fire(NET, spawn, RuleId::ShardExchange), 1);
    let scope = "fn f() { std::thread::scope(|s| {}); }\n";
    assert_eq!(fire(NET, scope, RuleId::ShardExchange), 1);
}

#[test]
fn shard_exchange_silent_on_the_epoch_exchange_and_outside_the_engine() {
    // The sanctioned path: one core stepped through its epoch chunks, and
    // trials merged in order by the rayon shim's helper.
    let ok = "fn step(core: &mut EngineCore) {\n  while !core.is_done() { core.run_until(limit); }\n  let trials = rayon::det::map_indexed_ordered(4, |t| trial(t));\n}\n";
    assert_eq!(fire(NET, ok, RuleId::ShardExchange), 0);
    // The rayon shim holds the scoped threads; bench code times freely.
    let shim = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert_eq!(
        fire("crates/shims/rayon/src/lib.rs", shim, RuleId::ShardExchange),
        0
    );
    assert_eq!(
        fire(
            "crates/bench/benches/net_campus.rs",
            shim,
            RuleId::ShardExchange
        ),
        0
    );
    // Plain identifiers that merely *contain* the words are no hazard.
    let vocab = "fn f() { let atomic_swap_count = 3; thread_local_name(); }\n";
    assert_eq!(fire(NET, vocab, RuleId::ShardExchange), 0);
}

// -------------------------------------------------------------------- pragmas

#[test]
fn justified_pragma_suppresses_line_below_and_same_line() {
    let above = "// detlint: allow(hash_iter): scratch table, never iterated, test-only\nfn f() { let m = HashMap::<u8, u8>::new(); }\n";
    assert!(scan_source(NET, above).is_empty());
    let trailing =
        "fn f() { let m = HashMap::<u8, u8>::new(); } // detlint: allow(hash_iter): scratch table, never iterated\n";
    assert!(scan_source(NET, trailing).is_empty());
}

#[test]
fn pragma_does_not_leak_past_the_next_line() {
    let src = "// detlint: allow(hash_iter): covers only the next line\nfn f() { let m = HashMap::<u8, u8>::new(); }\nfn g() { let m = HashMap::<u8, u8>::new(); }\n";
    let f = scan_source(NET, src);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 3);
}

#[test]
fn pragma_for_the_wrong_rule_does_not_suppress() {
    let src = "// detlint: allow(wall_clock): wrong rule named here\nfn f() { let m = HashMap::<u8, u8>::new(); }\n";
    let f = scan_source(NET, src);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, RuleId::HashIter);
}

#[test]
fn unjustified_pragma_is_a_finding_and_suppresses_nothing() {
    let src = "// detlint: allow(hash_iter)\nfn f() { let m = HashMap::<u8, u8>::new(); }\n";
    let f = scan_source(NET, src);
    let rules: Vec<RuleId> = f.iter().map(|x| x.rule).collect();
    assert!(rules.contains(&RuleId::BadPragma));
    assert!(rules.contains(&RuleId::HashIter));
}
