//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment has no cargo-registry access, so this crate vendors
//! the parallel-iterator subset the workspace uses: `into_par_iter()` /
//! `par_iter()` on vectors, slices and integer ranges, followed by `map` and
//! `collect::<Vec<_>>()`. Work is split into contiguous chunks across
//! `std::thread::scope` workers (one per available core, the calling thread
//! among them), so order is preserved and results are identical to the
//! sequential equivalent — only wall-clock time changes.

use std::num::NonZeroUsize;

/// A collection of items about to be processed in parallel.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A [`ParIter`] with a pending map operation.
pub struct MapParIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel (lazily, at `collect`).
    pub fn map<U, F>(self, f: F) -> MapParIter<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        MapParIter {
            items: self.items,
            f,
        }
    }

    /// Collects the items unchanged.
    pub fn collect<C: FromParIter<T>>(self) -> C {
        C::from_vec(self.items)
    }
}

impl<T, U, F> MapParIter<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Runs the pending map across worker threads and gathers the results
    /// in input order.
    pub fn collect<C: FromParIter<U>>(self) -> C {
        C::from_vec(parallel_map(self.items, &self.f))
    }
}

/// Collection types a parallel iterator can finish into.
pub trait FromParIter<T> {
    /// Builds the collection from items already in order.
    fn from_vec(items: Vec<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_vec(items: Vec<T>) -> Self {
        items
    }
}

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

/// Conversion into a [`ParIter`], mirroring rayon's trait of the same name.
pub trait IntoParallelIterator {
    /// The item type produced.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$ty> {
            type Item = $ty;
            fn into_par_iter(self) -> ParIter<$ty> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range!(u32, u64, usize, i32, i64);

/// Reference-iteration over slices, mirroring rayon's trait of the same
/// name.
pub trait IntoParallelRefIterator<'a> {
    /// The reference item type produced.
    type Item: Send;
    /// Iterates the collection's elements by reference, in parallel.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The glob-importable prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Deterministic-merge helpers: the sanctioned entry points for parallel
/// work in the simulation crates.
///
/// Raw parallel-iterator chains leave the merge discipline at every call
/// site; these helpers bake it in — results always come back **in input
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
#[expect(
    clippy::disallowed_methods,
    reason = "these tests exercise the raw parallel iterators the shim defines"
)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|i| i * 2).collect();
        let expected: Vec<u64> = (0u64..1000).map(|i| i * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn vec_and_slice_sources() {
        let v = vec![3, 1, 4, 1, 5];
        let doubled: Vec<i32> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
        let referenced: Vec<i32> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(referenced, vec![4, 2, 5, 2, 6]);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<u32> = (0u32..0).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
        let one: Vec<u32> = (5u32..6).into_par_iter().map(|i| i * i).collect();
        assert_eq!(one, vec![25]);
    }

    #[test]
    fn det_merge_preserves_input_order() {
        let out = super::det::map_ordered((0u64..500).collect(), |i| i * 3);
        let expected: Vec<u64> = (0u64..500).map(|i| i * 3).collect();
        assert_eq!(out, expected);
        let idx = super::det::map_indexed_ordered(100, |i| i + 1);
        let expected: Vec<usize> = (1..=100).collect();
        assert_eq!(idx, expected);
        assert!(super::det::map_ordered(Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn calling_thread_maps_the_first_chunk() {
        let ids = super::det::map_indexed_ordered(64, |_| std::thread::current().id());
        assert_eq!(ids[0], std::thread::current().id());
    }
}
