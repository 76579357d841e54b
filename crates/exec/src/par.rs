//! Deterministic fork/join over slices, results in input order.
//!
//! The operator path is serial ([`crate::driver`]): a page costs a few
//! microseconds of kernel time, less than handing it to another thread.
//! What fans out is coarse — [`parallel_try_each_mut`] runs a fleet's
//! per-device executions side by side — and [`parallel_map`] stays as the
//! fork/join the benchmark's `exec.fanout_ns_per_call` probe prices.

/// Batch size below which [`parallel_map`] runs serially: thread spawn
/// overhead dominates small batches.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Maps `items` through `f` on scoped worker threads, returning results in
/// input order. Falls back to a plain serial map for small batches, where
/// thread spawn overhead would dominate.
pub fn parallel_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if workers <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(&f).collect();
    }
    fork_join(items.chunks(items.len().div_ceil(workers)), |chunk| {
        chunk.iter().map(&f).collect()
    })
}

/// Runs `f` on every item through its `&mut`, on at most `workers` scoped
/// threads (contiguous chunks; inline when that is one thread). Items here
/// are coarse — a whole device execution each — so unlike [`parallel_map`]
/// there is no minimum batch. What an item produces it leaves in itself.
///
/// Each call runs under `catch_unwind`: every other item still completes,
/// and the caught panics come back as `(item index, message)` in input
/// order — an empty vector, which allocates nothing, when none did.
pub fn parallel_try_each_mut<T, F>(items: &mut [T], workers: usize, f: F) -> Vec<(usize, String)>
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let guarded = |(i, item): (usize, &mut T)| {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
        caught.err().map(|payload| (i, panic_message(payload)))
    };
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter_mut().enumerate().filter_map(guarded).collect();
    }
    let size = items.len().div_ceil(workers);
    fork_join(items.chunks_mut(size).enumerate(), |(c, chunk)| {
        let at = |(i, item)| guarded((c * size + i, item));
        chunk.iter_mut().enumerate().filter_map(at).collect()
    })
}

/// One scoped thread per chunk; results concatenated in chunk order.
fn fork_join<C, U>(chunks: impl Iterator<Item = C>, run: impl Fn(C) -> Vec<U> + Sync) -> Vec<U>
where
    C: Send,
    U: Send,
{
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = chunks.map(|c| scope.spawn(move || run(c))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fork/join worker thread panicked"))
            .collect()
    })
}

/// Best-effort text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count for the fleet scatter: the machine's parallelism, capped so
/// a wide simulation sweep doesn't oversubscribe the host.
///
/// Queried once and cached: `available_parallelism` re-reads cgroup limits
/// from the filesystem on every call (microseconds of syscalls), which is
/// far too slow to pay per query.
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
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
        let mut none: [u32; 0] = [];
        assert!(parallel_try_each_mut(&mut none, 4, |x| *x += 1).is_empty());
    }

    #[test]
    fn a_panicking_item_is_a_typed_error_and_the_rest_complete() {
        for workers in [1, 3, 16] {
            let mut items: Vec<u32> = (0..10).collect();
            let panics = parallel_try_each_mut(&mut items, workers, |x| {
                assert!(*x != 4, "item {x} exploded");
                *x += 100;
            });
            // The one panic, under its item's index, with its text.
            assert_eq!(panics.len(), 1, "{workers} workers");
            assert_eq!(panics[0].0, 4, "{workers} workers");
            assert!(panics[0].1.contains("item 4 exploded"), "{}", panics[0].1);
            // Every other item was mutated through its `&mut`.
            let expected: Vec<u32> = (0..10).map(|i| if i == 4 { 4 } else { i + 100 }).collect();
            assert_eq!(items, expected, "{workers} workers");
        }
    }
}
