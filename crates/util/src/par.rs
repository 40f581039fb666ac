//! Deterministic data parallelism for work outside the simulation.
//!
//! [`map_chunks`] splits a slice into a fixed number of contiguous index
//! chunks, maps each chunk on its own scoped thread and returns the
//! per-chunk results in index order. Which items share a chunk depends
//! only on the slice length and the chunk count, never on scheduling, so a
//! caller that combines the results in order (an integer sum, a
//! concatenation) gets the same answer at any thread count.
//!
//! It is for independent, read-only work over finished inputs, such as
//! attacking the protected observations of Fig. 5. Nothing inside a
//! simulation calls it, and no simulated outcome may depend on the thread
//! count a caller passes.

use std::ops::Range;
use std::panic;

/// The index range of chunk `index` when `len` items are cut into `chunks`
/// contiguous chunks whose lengths differ by at most one (the longer ones
/// first).
fn chunk_range(len: usize, chunks: usize, index: usize) -> Range<usize> {
    let (base, longer) = (len / chunks, len % chunks);
    let start = index * base + index.min(longer);
    start..start + base + usize::from(index < longer)
}

/// Maps `f` over `items` cut into `threads.clamp(1, items.len())`
/// contiguous chunks and returns one result per chunk, in chunk order.
/// Empty `items` yield no chunk and an empty result.
///
/// The calling thread maps the first chunk; every other chunk runs on a
/// scoped thread of its own. If any chunk panics, the panic of the first
/// panicking chunk (in index order) is re-raised on the caller once every
/// chunk has finished.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunks = threads.clamp(1, items.len());
    let chunk = |index| &items[chunk_range(items.len(), chunks, index)];
    let f = &f;
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..chunks)
            .map(|index| {
                let chunk = chunk(index);
                scope.spawn(move || f(chunk))
            })
            .collect();
        // A panic here unwinds through the scope, which joins the others
        // first.
        let first = f(chunk(0));
        let mut results = Vec::with_capacity(chunks);
        results.push(first);
        let mut panicked = None;
        for thread in others {
            match thread.join() {
                Ok(result) => results.push(result),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chunks `map_chunks` cuts, as index ranges.
    fn chunk_bounds(len: usize, threads: usize) -> Vec<Range<usize>> {
        let items: Vec<usize> = (0..len).collect();
        map_chunks(&items, threads, |chunk| {
            chunk
                .first()
                .map_or(0..0, |&first| first..first + chunk.len())
        })
    }

    #[test]
    fn empty_input_yields_no_chunk() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let results = map_chunks(&[] as &[u8], 4, |_| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        });
        assert!(results.is_empty());
        assert_eq!(calls.into_inner(), 0);
    }

    #[test]
    fn fewer_items_than_threads_gives_one_item_per_chunk() {
        assert_eq!(chunk_bounds(3, 8), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn zero_threads_runs_as_one() {
        assert_eq!(chunk_bounds(5, 0), vec![0..5]);
        assert_eq!(chunk_bounds(5, 1), vec![0..5]);
    }

    #[test]
    fn seven_threads_cut_seven_contiguous_balanced_chunks() {
        // More chunks than this host may have cores: the count is the
        // argument's, not the machine's.
        let bounds = chunk_bounds(20, 7);
        assert_eq!(
            bounds,
            vec![0..3, 3..6, 6..9, 9..12, 12..15, 15..18, 18..20]
        );
    }

    #[test]
    fn results_are_in_index_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let pure = |x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        let sequential: Vec<u64> = items.iter().map(pure).collect();
        for threads in [1, 2, 3, 7] {
            let chunked = map_chunks(&items, threads, |chunk| {
                chunk.iter().map(pure).collect::<Vec<_>>()
            });
            assert_eq!(chunked.len(), threads);
            assert_eq!(chunked.concat(), sequential, "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_chunk_is_reraised_on_the_caller() {
        let items: Vec<u32> = (0..10).collect();
        // Item 0 sits in the caller's own chunk, item 9 in the last one.
        for (bad, threads) in [0, 9]
            .into_iter()
            .flat_map(|bad| [1, 2, 3].map(|t| (bad, t)))
        {
            let finished = std::sync::atomic::AtomicUsize::new(0);
            let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                map_chunks(&items, threads, |chunk| {
                    if chunk.contains(&bad) {
                        panic!("the chunk holding the bad item");
                    }
                    finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                })
            }));
            let payload = outcome.expect_err("the chunk's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"the chunk holding the bad item")
            );
            // Every other chunk ran to completion before the re-raise.
            assert_eq!(
                finished.into_inner(),
                threads - 1,
                "item {bad}, {threads} threads"
            );
        }
    }
}
