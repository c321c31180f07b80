//! Chunked parallel map over a slice.
//!
//! The input slice is split into roughly equal contiguous chunks, one per
//! worker, and the mapped chunks are concatenated in input order. The
//! XGBoost scanner baseline scores its candidate addresses this way.
//!
//! CPU-bound work belongs on plain threads, not an async runtime, so workers
//! are crossbeam *scoped* threads: they may borrow the input slice and no
//! `'static` bound or `Arc` cloning is needed.

/// Number of workers to use when the caller asks for auto-detection.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Parallel map over a slice, preserving order.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if workers <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let workers = workers.min(items.len());
    let chunk_size = items.len().div_ceil(workers);

    let f = &f;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move |_| chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("engine worker panicked"));
        }
        out
    })
    .expect("engine scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_of_nothing_is_empty() {
        let items: Vec<u64> = vec![];
        assert!(par_map(&items, 8, |x: &u64| *x).is_empty());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        for workers in [1, 2, 7, 16] {
            let got = par_map(&items, workers, |x| x * 2);
            let want: Vec<u32> = items.iter().map(|x| x * 2).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }
}
