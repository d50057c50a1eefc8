//! Work-stealing parallel map over a shared atomic cursor.
//!
//! Every dataset-scale pass in PRESS — batch compression
//! (`Press::compress_batch` in `press-core`), HSC corpus training
//! (`sp_compress` over the training paths), and hub-label construction
//! ([`HubLabels`](crate::hub_labels::HubLabels), one label search per
//! node) — has the same shape: per-item costs vary wildly (path length,
//! label sizes), so fixed chunking idles threads behind
//! the slowest slice, while stealing one index at a time from a shared
//! atomic cursor keeps every worker busy until the input drains. This
//! module is that one shared loop; output order is preserved (workers
//! write results back by index), so a parallel pass is bit-for-bit
//! identical to the sequential map for any thread count. It lives in
//! `press-network` (the lowest compute crate) and is re-exported as
//! `press_core::parallel` for the historical call sites.
//!
//! [`work_steal_map_indexed`] is the same loop for passes whose items
//! need heavyweight reusable state (the batched CH contraction's witness
//! searches): the caller owns a pool of per-worker scratch that survives
//! across calls, so repeated rounds pay zero allocation churn.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` with `threads` workers stealing indices from a
/// shared atomic cursor. Results come back in input order.
///
/// Falls back to a plain sequential map when `threads <= 1` or the input
/// is too small to amortize thread startup (< 2 items per worker). `f`
/// receives `(index, item)`; it must be `Sync` because all workers share
/// it.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn work_steal_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1);
    let workers = if items.len() < 2 * threads {
        1
    } else {
        threads
    };
    steal_loop(items, &mut vec![(); workers], |_: &mut (), i, t: &T| {
        f(i, t)
    })
}

/// [`work_steal_map`] without the small-input sequential shortcut: the
/// variant for *few heavy items* — per-shard journal replay in
/// `press-serve` recovers a handful of shards, each of which may replay
/// millions of frames, so "< 2 items per worker" is exactly the input
/// shape that still wants real threads. Spawns `min(threads,
/// items.len())` workers; sequential only when that is 1. Output order
/// and results are bit-identical to [`work_steal_map`].
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn work_steal_map_eager<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    steal_loop(items, &mut vec![(); workers], |_: &mut (), i, t: &T| {
        f(i, t)
    })
}

/// [`work_steal_map`] with a caller-owned pool of per-worker scratch
/// state — the variant for passes whose per-item work needs large
/// reusable buffers (the batched contraction's witness searches carry
/// `O(|V|)` versioned distance arrays).
///
/// `scratch` supplies one slot per worker; its length *is* the thread
/// count. Worker `w` gets exclusive `&mut` access to `scratch[w]` for the
/// whole call, so the pool survives across calls with no per-call (let
/// alone per-item) allocation churn — reset stays whatever cheap scheme
/// the scratch itself uses (typically version stamps). Results come back
/// in input order, so the map is bit-for-bit identical to the sequential
/// fold for any pool size.
///
/// Falls back to a plain sequential map over `scratch[0]` when the pool
/// has one slot or the input is too small to amortize thread startup.
///
/// # Panics
///
/// Panics if `scratch` is empty; propagates a panic from `f` (the scope
/// joins all workers first).
pub fn work_steal_map_indexed<T, R, S, F>(items: &[T], scratch: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    assert!(
        !scratch.is_empty(),
        "work_steal_map_indexed needs at least one scratch slot"
    );
    let workers = if items.len() < 2 * scratch.len() {
        1
    } else {
        scratch.len()
    };
    steal_loop(items, &mut scratch[..workers], f)
}

/// The one spawn/steal/reassemble body behind the three public maps: one
/// worker per `scratch` slot (worker `w` owns `scratch[w]`), each stealing
/// the next index from a shared atomic cursor; results are written back
/// by index, so the output is in input order. A single slot runs the map
/// sequentially on the calling thread. Callers choose the slot count.
fn steal_loop<T, R, S, F>(items: &[T], scratch: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = scratch.len();
    if threads == 1 {
        let s = &mut scratch[0];
        return items.iter().enumerate().map(|(i, t)| f(s, i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratch
            .iter_mut()
            .map(|s| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(items.len() / threads + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        local.push((i, f(s, i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("work-stealing worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("all indices drained"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16, 200] {
            let parallel = work_steal_map(&items, threads, |_, &x| x * x + 1);
            assert_eq!(sequential, parallel, "order broken at {threads} threads");
        }
    }

    #[test]
    fn eager_variant_parallelizes_tiny_inputs_and_matches_sequential() {
        // Fewer items than 2*threads — work_steal_map would go
        // sequential; the eager variant must still produce identical
        // output (and visit every item exactly once) with real workers.
        let items: Vec<u64> = (0..3).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7 + 2).collect();
        for threads in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let out = work_steal_map_eager(&items, threads, |_, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * 7 + 2
            });
            assert_eq!(out, expect, "order broken at {threads} threads");
            assert_eq!(calls.load(Ordering::Relaxed), items.len());
        }
        let empty: Vec<u32> = Vec::new();
        assert!(work_steal_map_eager(&empty, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn passes_the_item_index_through() {
        let items = vec!["a", "b", "c", "d", "e", "f", "g", "h"];
        let out = work_steal_map(&items, 4, |i, &s| (i, s.to_string()));
        for (i, (j, s)) in out.iter().enumerate() {
            assert_eq!(i, *j);
            assert_eq!(*s, items[i]);
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let items: Vec<usize> = (0..64).collect();
        let calls = AtomicUsize::new(0);
        let out = work_steal_map(&items, 8, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(work_steal_map(&empty, 8, |_, &x| x).is_empty());
        // Below the 2*threads threshold: the sequential path runs.
        let tiny = vec![1u32, 2, 3];
        assert_eq!(work_steal_map(&tiny, 8, |_, &x| x + 1), vec![2, 3, 4]);
        // threads = 0 is clamped to 1.
        assert_eq!(work_steal_map(&tiny, 0, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn indexed_variant_matches_sequential_and_reuses_scratch() {
        // Scratch counts how many items each worker handled; results must
        // come back in input order for any pool size, and every slot must
        // be an independent accumulator (no cross-worker sharing).
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for pool_size in [1usize, 2, 3, 7, 16] {
            let mut pool = vec![0usize; pool_size];
            let out = work_steal_map_indexed(&items, &mut pool, |count, _, &x| {
                *count += 1;
                x * 3 + 1
            });
            assert_eq!(out, expect, "order broken with {pool_size} scratch slots");
            assert_eq!(
                pool.iter().sum::<usize>(),
                items.len(),
                "every item must be handled exactly once"
            );
        }
    }

    #[test]
    fn indexed_variant_keeps_scratch_state_across_calls() {
        let items: Vec<u32> = (0..40).collect();
        let mut pool = vec![Vec::<u32>::new(); 3];
        let _ = work_steal_map_indexed(&items, &mut pool, |seen, _, &x| {
            seen.push(x);
            x
        });
        let first: usize = pool.iter().map(Vec::len).sum();
        assert_eq!(first, items.len());
        // The pool persists: a second call keeps accumulating into it.
        let _ = work_steal_map_indexed(&items, &mut pool, |seen, _, &x| {
            seen.push(x);
            x
        });
        assert_eq!(pool.iter().map(Vec::len).sum::<usize>(), 2 * items.len());
    }

    #[test]
    #[should_panic(expected = "at least one scratch slot")]
    fn indexed_variant_rejects_an_empty_pool() {
        let items = [1u8, 2, 3];
        let mut pool: Vec<()> = Vec::new();
        let _ = work_steal_map_indexed(&items, &mut pool, |_, _, &x| x);
    }

    #[test]
    fn uneven_workloads_still_complete() {
        // Items with wildly different costs (the motivating case).
        let items: Vec<u64> = (0..40)
            .map(|i| if i % 7 == 0 { 20_000 } else { 10 })
            .collect();
        let out = work_steal_map(&items, 4, |_, &n| (0..n).sum::<u64>());
        let expect: Vec<u64> = items.iter().map(|&n| (0..n).sum()).collect();
        assert_eq!(out, expect);
    }
}
