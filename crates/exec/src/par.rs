//! Deterministic fork/join over slices, results in input order.
//!
//! Nothing in the library fans out: the operator path is serial
//! ([`crate::driver`]) — a page costs a few microseconds of kernel time,
//! less than handing it to another thread — and the scheduler drives every
//! device of a system from its one event-loop thread. [`parallel_map`]
//! stays as the fork/join the benchmark's `exec.fanout_ns_per_call` probe
//! prices.

/// Batch size below which [`parallel_map`] runs serially: thread spawn
/// overhead dominates small batches.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Maps `items` through `f` on scoped worker threads, one contiguous chunk
/// each, returning results in input order. Falls back to a plain serial map
/// for small batches, where thread spawn overhead would dominate.
pub fn parallel_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if workers <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(&f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let chunks = items.chunks(items.len().div_ceil(workers));
        let handles: Vec<_> = chunks
            .map(|c| scope.spawn(move || c.iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fork/join worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 4, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn small_batches_run_inline() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 8, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: [u32; 0] = [];
        assert!(parallel_map(&items, 4, |&x| x).is_empty());
    }
}
