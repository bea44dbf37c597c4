//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment has no cargo-registry access, so this crate vendors
//! only what the workspace calls: the ordered-merge helpers in [`det`]. Work
//! is split into contiguous chunks across `std::thread::scope` workers (one
//! per available core, the calling thread among them), so order is
//! preserved and results are identical to the sequential equivalent — only
//! wall-clock time changes. rayon's raw parallel iterators are not
//! provided; the workspace clippy config bans them by path.

use std::num::NonZeroUsize;

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn parallel_map<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = available_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Split into `threads` contiguous chunks; each worker maps its chunk and
    // the results are concatenated in order.
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items.into_iter();
    loop {
        let c: Vec<T> = items.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    // The calling thread maps the first chunk itself once the others are
    // spawned, saving one thread (and its allocator arena) per call.
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("n > 1 items make at least one chunk");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut results = Vec::with_capacity(n);
        results.extend(first.into_iter().map(f));
        for h in handles {
            results.extend(h.join().expect("rayon-shim worker panicked"));
        }
        results
    })
}

/// Deterministic-merge helpers: the sanctioned entry points for parallel
/// work in the simulation crates.
///
/// Raw parallel-iterator chains would leave the merge discipline at every
/// call site; these helpers bake it in — results always come back **in input
/// order**, regardless of which worker finished first, so a parallel run
/// is byte-identical to the sequential equivalent. The workspace clippy
/// config bans the raw iterators and steers all callers here
/// (`net::run_trials` maps its Monte-Carlo trials, and `sim`'s Fig. 11
/// its waveform packet trials, through [`det::map_indexed_ordered`]).
pub mod det {
    /// Maps `f` over `items` across worker threads and returns the
    /// results in input order (the deterministic merge).
    pub fn map_ordered<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        super::parallel_map(items, &f)
    }

    /// [`map_ordered`] over an index range — the common "N independent
    /// trials" shape without materializing the input vector at call sites.
    pub fn map_indexed_ordered<U, F>(n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        map_ordered((0..n).collect(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::det::{map_indexed_ordered, map_ordered};

    #[test]
    fn map_collect_preserves_order() {
        let out = map_indexed_ordered(1000, |i| i * 2);
        let expected: Vec<usize> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn det_merge_preserves_input_order() {
        let out = map_ordered((0u64..500).collect(), |i| i * 3);
        let expected: Vec<u64> = (0u64..500).map(|i| i * 3).collect();
        assert_eq!(out, expected);
        let idx = map_indexed_ordered(100, |i| i + 1);
        let expected: Vec<usize> = (1..=100).collect();
        assert_eq!(idx, expected);
        let doubled = map_ordered(vec![3, 1, 4, 1, 5], |x| x * 2);
        assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn empty_and_single() {
        assert!(map_ordered(Vec::<u8>::new(), |x| x).is_empty());
        assert!(map_indexed_ordered(0, |i| i).is_empty());
        assert_eq!(map_ordered(vec![5u32], |i| i * i), vec![25]);
        assert_eq!(map_indexed_ordered(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn calling_thread_maps_the_first_chunk() {
        let ids = map_indexed_ordered(64, |_| std::thread::current().id());
        assert_eq!(ids[0], std::thread::current().id());
    }
}
