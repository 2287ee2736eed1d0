//! Offline drop-in replacement for the subset of the `rayon` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so parallel grid
//! evaluation runs on this minimal work-chunking engine built on
//! `std::thread::scope`: `par_iter()` over slices with `map`, `flat_map`,
//! and `collect`. Adapters stay lazy; evaluation fans out over
//! `available_parallelism` threads at the terminal `collect`.

/// Evaluates `f` over `items`, splitting into per-thread chunks. Order of
/// results matches the input order.
fn par_map_vec<T: Send, O: Send, F: Fn(T) -> O + Sync>(items: Vec<T>, f: &F) -> Vec<O> {
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = n.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let per_chunk: Vec<Vec<O>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<O>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// A lazily evaluated parallel computation over a sequence of items.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Evaluates the computation (parallelizing where profitable) and
    /// returns the results in input order.
    fn drive(self) -> Vec<Self::Item>;

    /// Maps each item through `f`.
    fn map<O: Send, F: Fn(Self::Item) -> O + Sync>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Maps each item to an iterable and flattens the results.
    fn flat_map<I, F>(self, f: F) -> FlatMap<Self, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Sync,
    {
        FlatMap { inner: self, f }
    }

    /// Evaluates and gathers the results into any `FromIterator` collection.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Evaluates `f` on every item for its side effects.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        par_map_vec(self.drive(), &f);
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn drive(self) -> Vec<&'a T> {
        self.items.iter().collect()
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P: ParallelIterator, O: Send, F: Fn(P::Item) -> O + Sync> ParallelIterator for Map<P, F> {
    type Item = O;
    fn drive(self) -> Vec<O> {
        par_map_vec(self.inner.drive(), &self.f)
    }
}

/// See [`ParallelIterator::flat_map`].
pub struct FlatMap<P, F> {
    inner: P,
    f: F,
}

impl<P, I, F> ParallelIterator for FlatMap<P, F>
where
    P: ParallelIterator,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(P::Item) -> I + Sync,
{
    type Item = I::Item;
    fn drive(self) -> Vec<I::Item> {
        let f = &self.f;
        let groups = par_map_vec(self.inner.drive(), &|item| {
            f(item).into_iter().collect::<Vec<_>>()
        });
        groups.into_iter().flatten().collect()
    }
}

/// Conversion of `&self` into a parallel iterator (rayon's entry point).
pub trait IntoParallelRefIterator<'data> {
    /// The borrowing parallel iterator type.
    type Iter: ParallelIterator;

    /// Returns a parallel iterator over borrowed items.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = ParIter<'data, T>;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_flattens_in_order() {
        let v = [1usize, 2, 3];
        let out: Vec<usize> = v.par_iter().flat_map(|&n| vec![n; n]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn nested_par_iter_works() {
        let outer = [10usize, 20];
        let inner = [1usize, 2, 3];
        let out: Vec<usize> = outer
            .par_iter()
            .flat_map(|&o| inner.par_iter().map(move |&i| o + i).collect::<Vec<_>>())
            .collect();
        assert_eq!(out, vec![11, 12, 13, 21, 22, 23]);
    }

    #[test]
    fn works_on_arrays_and_vecs() {
        let arr = [(false, false), (true, true)];
        let n: Vec<bool> = arr.par_iter().map(|&(a, b)| a && b).collect();
        assert_eq!(n, vec![false, true]);
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
