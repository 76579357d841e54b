//! Deterministic fork/join over page batches.
//!
//! Kernel execution is split into two phases by the engines: page reads
//! stay serial (device state mutates in LBA order, so error injection and
//! timing draws are unaffected), then the pure per-page kernel work fans
//! out here. Results come back in input order, and the caller replays CPU
//! charges and output merges in that order — so parallel execution is
//! bit-identical to the serial loop, just faster in wall-clock terms.

use crate::kernels::ScanScratch;
use crate::work::WorkCounts;

/// Batch size below which [`parallel_map`] runs serially: thread spawn
/// overhead dominates per-page kernel work for small tables.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Whether [`parallel_map`] runs `len` items serially — also where
/// [`fold_pages`] switches to its single-threaded formulation.
fn runs_serial(len: usize, workers: usize) -> bool {
    workers.clamp(1, len.max(1)) == 1 || len < MIN_PARALLEL_ITEMS
}

/// Maps `items` through `f` on scoped worker threads, returning results in
/// input order. Falls back to a plain serial map for small batches, where
/// thread spawn overhead would dominate.
pub fn parallel_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if runs_serial(items.len(), workers) {
        return items.iter().map(&f).collect();
    }
    fork_join(items.chunks(items.len().div_ceil(workers)), |chunk| {
        chunk.iter().map(&f).collect()
    })
}

/// Runs a page kernel over `pages` and folds the results into `acc`, in
/// page order — the one place the engines' operators choose between the
/// serial and the fanned-out formulation.
///
/// Serially ([`parallel_map`]'s own rule: one worker, or a batch too small
/// to pay for threads) `kernel` folds every page straight
/// into `acc` with one [`ScanScratch`] for the whole execution: no per-page
/// partial, no per-page buffer. Fanned out, each page gets a `new_partial()`
/// and a fresh scratch on a worker, and `merge` folds the partials into
/// `acc` in page order. Either way `after(page, acc, receipt)` then runs for
/// that page, in page order, with the page's own [`WorkCounts`] — where the
/// caller charges simulated CPU time and cuts result batches. Partials merge
/// exactly (integer aggregate states, appended rows), so both formulations
/// leave the same `acc` and hand `after` the same receipts.
pub fn fold_pages<T, A>(
    pages: &[T],
    workers: usize,
    acc: &mut A,
    new_partial: impl Fn() -> A + Sync,
    kernel: impl Fn(&mut ScanScratch, &T, &mut A, &mut WorkCounts) + Sync,
    merge: impl Fn(&mut A, A),
    mut after: impl FnMut(&T, &mut A, &WorkCounts),
) where
    T: Sync,
    A: Send,
{
    if runs_serial(pages.len(), workers) {
        let mut scratch = ScanScratch::new();
        for page in pages {
            let mut w = WorkCounts::default();
            kernel(&mut scratch, page, acc, &mut w);
            after(page, acc, &w);
        }
        return;
    }
    let partials = parallel_map(pages, workers, |page| {
        let mut partial = new_partial();
        let mut w = WorkCounts::default();
        kernel(&mut ScanScratch::new(), page, &mut partial, &mut w);
        (partial, w)
    });
    for (page, (partial, w)) in pages.iter().zip(partials) {
        merge(acc, partial);
        after(page, acc, &w);
    }
}

/// Runs `f` on every item through its `&mut`, on at most `workers` scoped
/// threads (contiguous chunks; inline when that is one thread), returning
/// the results in input order. Items here are coarse — a whole device
/// execution each — so unlike [`parallel_map`] there is no minimum batch.
///
/// Each call runs under `catch_unwind`: a panicking item yields
/// `Err(message)` in its slot and every other item still completes.
pub fn parallel_try_each_mut<T, U, F>(
    items: &mut [T],
    workers: usize,
    f: F,
) -> Vec<Result<U, String>>
where
    T: Send,
    U: Send,
    F: Fn(&mut T) -> U + Sync,
{
    let guarded = |item: &mut T| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(panic_message)
    };
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter_mut().map(guarded).collect();
    }
    let chunk = items.len().div_ceil(workers);
    fork_join(items.chunks_mut(chunk), |chunk| {
        chunk.iter_mut().map(guarded).collect()
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
            .flat_map(|h| h.join().expect("kernel worker thread panicked"))
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

/// Worker count for kernel fan-out: the machine's parallelism, capped so
/// a wide simulation sweep doesn't oversubscribe the host.
///
/// Queried once and cached: `available_parallelism` re-reads cgroup limits
/// from the filesystem on every call (microseconds of syscalls), which is
/// far too slow for a per-operator hot path.
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
        assert!(parallel_try_each_mut(&mut none, 4, |x| *x).is_empty());
    }

    #[test]
    fn a_panicking_item_is_a_typed_error_and_the_rest_complete() {
        for workers in [1, 3, 16] {
            let mut items: Vec<u32> = (0..10).collect();
            let out = parallel_try_each_mut(&mut items, workers, |x| {
                assert!(*x != 4, "item {x} exploded");
                *x += 100;
                *x
            });
            // Input order, one slot per item, the panic's text in its slot.
            assert_eq!(out.len(), 10, "{workers} workers");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i as u32 + 100),
                    Err(m) => {
                        assert_eq!(i, 4);
                        assert!(m.contains("item 4 exploded"), "{m}");
                    }
                }
            }
            // Every other item was mutated through its `&mut`.
            let expected: Vec<u32> = (0..10).map(|i| if i == 4 { 4 } else { i + 100 }).collect();
            assert_eq!(items, expected, "{workers} workers");
        }
    }

    #[test]
    fn fold_is_the_same_serial_and_fanned_out() {
        // 100 items clears MIN_PARALLEL_ITEMS, so 4 workers fan out.
        let items: Vec<u64> = (0..100).collect();
        let run = |workers| {
            let mut acc: Vec<u64> = Vec::new();
            let mut receipts = Vec::new();
            fold_pages(
                &items,
                workers,
                &mut acc,
                Vec::new,
                |_, x, acc, w| {
                    acc.push(x * 2);
                    w.pages += x;
                },
                |acc, mut part| acc.append(&mut part),
                |x, acc, w| receipts.push((*x, acc.len(), w.pages)),
            );
            (acc, receipts)
        };
        assert!(runs_serial(items.len(), 1) && !runs_serial(items.len(), 4));
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial.0, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(serial.1[7], (7, 8, 7));
    }
}
