//! The metrics registry: preregistered counters, gauges and
//! fixed-bucket histograms behind plain atomics.
//!
//! Registration (startup) allocates; updates never do. Handles are
//! cheap `Arc` clones, safe to stash in hot structs and move into
//! closures. Registering the same name twice returns the existing
//! handle, so subsystems that share a metric (e.g. the coordinator and
//! its transport) converge on one cell instead of shadowing each other.
//!
//! Label sets are baked into the registered name
//! (`goldfish_updates_rejected_total{kind="non_finite"}`): the exporter
//! groups `# HELP`/`# TYPE` lines by the base name before `{`, which
//! keeps the registry itself allocation- and hashing-free on the update
//! path while still producing well-formed Prometheus exposition.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency bucket upper bounds, in nanoseconds: 100 µs to 10 s
/// in roughly 1-2.5-5 steps — wide enough for everything from a frame
/// read to a drain pass.
pub(crate) const LATENCY_BOUNDS_NANOS: &[u64] = &[
    100_000,        // 100 µs
    250_000,        // 250 µs
    500_000,        // 500 µs
    1_000_000,      // 1 ms
    2_500_000,      // 2.5 ms
    5_000_000,      // 5 ms
    10_000_000,     // 10 ms
    25_000_000,     // 25 ms
    50_000_000,     // 50 ms
    100_000_000,    // 100 ms
    250_000_000,    // 250 ms
    500_000_000,    // 500 ms
    1_000_000_000,  // 1 s
    2_500_000_000,  // 2.5 s
    5_000_000_000,  // 5 s
    10_000_000_000, // 10 s
];

/// A monotonically increasing counter. Updates are relaxed atomic adds
/// — no lock, no allocation. `Default` is a *detached* counter: it
/// counts but is not exported; [`Counter::transfer_into`] moves its
/// total into a registered handle once a registry shows up (the TCP
/// transport counts handshake bytes before the coordinator exists).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counting handle not attached to any registry.
    pub(crate) fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Moves this handle's accumulated total into `target` and rebinds
    /// `self` to `target`'s cell — how a detached counter joins a
    /// registry without losing pre-registration counts.
    pub fn transfer_into(&mut self, target: &Counter) {
        if Arc::ptr_eq(&self.0, &target.0) {
            return;
        }
        let carried = self.0.swap(0, Ordering::Relaxed);
        target.0.fetch_add(carried, Ordering::Relaxed);
        self.0 = Arc::clone(&target.0);
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::detached()
    }
}

/// A gauge: a settable signed value (queue depths, cohort sizes).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` exceeds the current value (peak
    /// tracking).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::detached()
    }
}

/// Shared storage of one histogram: fixed bounds chosen at
/// registration, one atomic per bucket. `observe` is a linear scan over
/// at most a few dozen bounds — no lock, no allocation.
#[derive(Debug)]
pub(crate) struct HistCore {
    /// Upper bounds in nanoseconds, ascending; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<u64>,
    /// Non-cumulative per-bucket hit counts; `buckets.len() ==
    /// bounds.len() + 1` (the last is `+Inf`).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A fixed-bucket latency histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// A histogram with the given bounds, not attached to any registry.
    pub(crate) fn detached(bounds_nanos: &[u64]) -> Histogram {
        let mut buckets = Vec::with_capacity(bounds_nanos.len() + 1);
        for _ in 0..=bounds_nanos.len() {
            buckets.push(AtomicU64::new(0));
        }
        Histogram(Arc::new(HistCore {
            bounds: bounds_nanos.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }))
    }

    /// Records one observation of `nanos`.
    pub fn observe_nanos(&self, nanos: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.0.sum_nanos.load(Ordering::Relaxed)
    }

    /// `(upper_bound_nanos, cumulative_count)` per bound, ending with
    /// the `+Inf` bucket as `(u64::MAX, total)`. Allocates — exporter
    /// use only.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let core = &self.0;
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(core.bounds.len() + 1);
        for (i, &b) in core.bounds.iter().enumerate() {
            acc += core.buckets[i].load(Ordering::Relaxed);
            out.push((b, acc));
        }
        acc += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
        out.push((u64::MAX, acc));
        out
    }
}

impl Default for Histogram {
    /// A detached histogram with the default latency bounds.
    fn default() -> Histogram {
        Histogram::detached(LATENCY_BOUNDS_NANOS)
    }
}

/// One registered metric, as the exporter sees it.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A counter's name, help text and handle.
    Counter(String, String, Counter),
    /// A gauge's name, help text and handle.
    Gauge(String, String, Gauge),
    /// A histogram's name, help text and handle.
    Histogram(String, String, Histogram),
}

impl Metric {
    /// The full registered name (labels included).
    pub fn name(&self) -> &str {
        match self {
            Metric::Counter(n, _, _) | Metric::Gauge(n, _, _) | Metric::Histogram(n, _, _) => n,
        }
    }
}

/// The registry: a startup-time name → handle table. Cloned handles
/// outlive it; the registry itself is only consulted at registration
/// and export.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = self.lock();
        for m in metrics.iter() {
            if let Metric::Counter(n, _, c) = m {
                if n == name {
                    return c.clone();
                }
            }
        }
        let c = Counter::detached();
        metrics.push(Metric::Counter(
            name.to_string(),
            help.to_string(),
            c.clone(),
        ));
        c
    }

    /// Registers (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut metrics = self.lock();
        for m in metrics.iter() {
            if let Metric::Gauge(n, _, g) = m {
                if n == name {
                    return g.clone();
                }
            }
        }
        let g = Gauge::detached();
        metrics.push(Metric::Gauge(name.to_string(), help.to_string(), g.clone()));
        g
    }

    /// Registers (or retrieves) the histogram `name` with the default
    /// latency bounds.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with_bounds(name, help, LATENCY_BOUNDS_NANOS)
    }

    /// Registers (or retrieves) the histogram `name` with explicit
    /// bucket bounds (nanoseconds).
    pub(crate) fn histogram_with_bounds(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
    ) -> Histogram {
        let mut metrics = self.lock();
        for m in metrics.iter() {
            if let Metric::Histogram(n, _, h) = m {
                if n == name {
                    return h.clone();
                }
            }
        }
        let h = Histogram::detached(bounds);
        metrics.push(Metric::Histogram(
            name.to_string(),
            help.to_string(),
            h.clone(),
        ));
        h
    }

    /// A snapshot of every registered metric, in registration order.
    pub fn metrics(&self) -> Vec<Metric> {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total", "a");
        let b = r.counter("x_total", "ignored");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "same name, same cell");
        assert_eq!(r.metrics().len(), 1);
    }

    #[test]
    fn counter_transfer_carries_pre_registration_counts() {
        let mut detached = Counter::detached();
        detached.add(7);
        let r = Registry::new();
        let reg = r.counter("bytes_total", "");
        reg.add(1);
        detached.transfer_into(&reg);
        assert_eq!(reg.get(), 8);
        detached.add(2); // now writes through to the registered cell
        assert_eq!(reg.get(), 10);
        // Transferring again is a no-op (same cell).
        let mut d2 = detached.clone();
        d2.transfer_into(&reg);
        assert_eq!(reg.get(), 10);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let h = Histogram::detached(&[10, 100]);
        h.observe_nanos(5);
        h.observe_nanos(50);
        h.observe_nanos(5_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_nanos(), 5_055);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(10, 1), (100, 2), (u64::MAX, 3)]
        );
    }

    #[test]
    fn gauge_set_max_tracks_peaks() {
        let g = Gauge::detached();
        g.set_max(3);
        g.set_max(1);
        assert_eq!(g.get(), 3);
        g.set(-2);
        g.add(1);
        assert_eq!(g.get(), -1);
    }
}
