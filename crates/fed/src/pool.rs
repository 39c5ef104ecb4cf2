//! The shared compute pool every parallel federated step runs on.
//!
//! Client-side local training, per-client evaluation and server-side
//! aggregation all execute inside one rayon pool so the simulation has a
//! single, configurable parallelism knob instead of ad-hoc scoped threads
//! per call site. The default is the hardware thread count; override it
//! process-wide with [`set_default_threads`] or per federation via
//! `FederationBuilder::threads`.
//!
//! Thread count never changes results: every task writes to a
//! pre-partitioned disjoint output slot and every reduction fixes its
//! per-element summation order (see `aggregate::weighted_mean`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rayon::{ThreadPool, ThreadPoolBuilder};

/// Process-wide default thread count; 0 = hardware parallelism.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count for federated compute.
/// `0` restores the hardware default.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Resolves an optional per-federation override against the process
/// default: `Some(n)` wins, then [`set_default_threads`], then the
/// hardware thread count.
pub fn effective_threads(overriding: Option<usize>) -> usize {
    match overriding {
        Some(n) if n > 0 => n,
        _ => {
            let d = DEFAULT_THREADS.load(Ordering::Relaxed);
            if d > 0 {
                d
            } else {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }
        }
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

/// Runs `f` inside a pool of [`effective_threads`]`(overriding)` threads;
/// all rayon scopes reached from `f` (client training, evaluation,
/// aggregation, tensor kernels) use that pool size.
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
pub fn for_each_pair<A: Send, B: Send, F>(a: &mut [A], b: &mut [B], f: F)
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
