//! The shared compute pool every parallel federated step runs on.
//!
//! Client-side local training and per-client evaluation execute inside
//! one rayon pool so the simulation has a single, configurable
//! parallelism knob instead of ad-hoc scoped threads per call site. An
//! executor's `threads: Some(n)` (e.g. `FederationBuilder::threads`) pins
//! its pool; `None` inherits the pool of the enclosing [`install`], or the
//! hardware thread count at top level.
//!
//! The parallel unit is a client (or lane): [`for_each_slot`] and
//! `for_each_pair` fork one task per slot. Below them only
//! `goldfish_tensor::engine::gemm` forks, splitting the rows of a product
//! large enough to run alone (evaluation's first dense layer); every other
//! kernel and the aggregation fold run on the calling thread.
//!
//! Thread count never changes results: every task writes to a
//! pre-partitioned disjoint output slot and every reduction fixes its
//! per-element summation order.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rayon::{ThreadPool, ThreadPoolBuilder};

/// Resolves an optional executor override: `Some(n)` wins, otherwise
/// the current pool's size — the enclosing [`install`]'s, or the
/// hardware thread count outside any.
pub(crate) fn effective_threads(overriding: Option<usize>) -> usize {
    match overriding {
        Some(n) if n > 0 => n,
        _ => rayon::current_num_threads(),
    }
}

/// Returns the shared pool for a given thread count, building it on
/// first use. Pools are cached process-wide so repeated
/// [`install`] calls (several per federated round) stay cheap and the
/// vendored rayon can be swapped for the real crate — where pool
/// construction spawns OS threads and can fail — without changing the
/// call-site cost model.
fn pool_for(threads: usize) -> Arc<ThreadPool> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("pool cache poisoned");
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building a compute pool"),
        )
    }))
}

/// Runs `f` inside a pool of `effective_threads(overriding)` threads;
/// all rayon scopes reached from `f` (the per-client fan-out and `gemm`'s
/// row split) use that pool size.
pub fn install<R>(overriding: Option<usize>, f: impl FnOnce() -> R) -> R {
    pool_for(effective_threads(overriding)).install(f)
}

/// Runs one closure per item of `slots` in parallel on the current pool,
/// giving each closure its index and exclusive `&mut` access to its slot.
/// This is the shared "for each client in parallel" primitive.
pub fn for_each_slot<T: Send, F>(slots: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Send + Sync,
{
    // One task or one thread: run inline. Same results (slot writes are
    // disjoint either way), but the steady-state hot loops pinned by the
    // counting-allocator tests stay off the scope machinery, which heap-
    // allocates its task queue.
    if slots.len() <= 1 || rayon::current_num_threads() <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }
    let f = &f;
    rayon::scope(|s| {
        for (i, slot) in slots.iter_mut().enumerate() {
            s.spawn(move |_| f(i, slot));
        }
    });
}

/// [`for_each_slot`] over two slices in lockstep: one closure per index
/// `i < a.len().min(b.len())`, given `&mut a[i]` and `&mut b[i]` — how an
/// executor pairs its reusable lanes with the clients of one wave.
pub(crate) fn for_each_pair<A: Send, B: Send, F>(a: &mut [A], b: &mut [B], f: F)
where
    F: Fn(usize, &mut A, &mut B) + Send + Sync,
{
    let pairs = a.iter_mut().zip(b.iter_mut()).enumerate();
    if pairs.len() <= 1 || rayon::current_num_threads() <= 1 {
        for (i, (x, y)) in pairs {
            f(i, x, y);
        }
        return;
    }
    let f = &f;
    rayon::scope(|s| {
        for (i, (x, y)) in pairs {
            s.spawn(move |_| f(i, x, y));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_pair_stops_at_the_shorter_slice() {
        let mut a = vec![0usize; 3];
        let mut b = vec![1usize; 5];
        install(Some(2), || {
            for_each_pair(&mut a, &mut b, |i, x, y| {
                *x = i + *y;
                *y = 0;
            });
        });
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn override_beats_default() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
        // `None` inherits the enclosing pool.
        for n in [1, 2, 8] {
            assert_eq!(install(Some(n), || effective_threads(None)), n);
            assert_eq!(
                install(Some(n), || install(None, rayon::current_num_threads)),
                n
            );
        }
    }

    #[test]
    fn for_each_slot_fills_every_slot() {
        let mut out = vec![0usize; 32];
        install(Some(4), || {
            for_each_slot(&mut out, |i, slot| *slot = i * i);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads| {
            let mut out = vec![0.0f64; 100];
            install(Some(threads), || {
                for_each_slot(&mut out, |i, slot| *slot = (i as f64).sqrt());
            });
            out
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }
}
