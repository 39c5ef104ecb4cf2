//! The coordinator's observability surface: one shared registry of
//! preregistered counters/gauges/histograms plus the structured event
//! trace, wired through the round loop, the TCP transport, the
//! unlearning queue and the durable store.
//!
//! Three rules (inherited from `goldfish_telemetry` and pinned by
//! `tests/alloc_free_round.rs` and the serve identity suites):
//!
//! 1. **Zero allocation after registration.** Every metric is created
//!    here, once; hot-path updates are relaxed atomic ops.
//! 2. **Off the numeric path.** Telemetry observes rounds, it never
//!    feeds back into them — all bitwise identity gates pass with
//!    telemetry enabled.
//! 3. **Injected time.** Every span duration and trace timestamp comes
//!    from the [`Clock`] handed in at construction, so tests drive a
//!    manual clock and production pays one monotonic read per span
//!    edge.
//!
//! Subsystems that exist before (or without) a coordinator — the TCP
//! transport counts handshake bytes from `accept` on — start with
//! *detached* handles (`WireTelemetry::default`) and join the shared
//! registry later via `transfer_into`, so no byte is ever lost to
//! wiring order.

use std::sync::Arc;

use goldfish_fed::transport::RoundMetrics;
use goldfish_telemetry::clock::Clock;
use goldfish_telemetry::events::Trace;
use goldfish_telemetry::export;
use goldfish_telemetry::registry::{Counter, Gauge, Histogram, Registry};

use crate::transport::WireStats;

/// Every metric the serving stack exports, preregistered in one
/// registry. Construct once per daemon (wrapped in an [`Arc`] so the
/// admin endpoint, the coordinator and the transport share it) and
/// hand it to [`crate::coordinator::CoordinatorConfig::with_telemetry`].
#[derive(Debug)]
pub struct ServeTelemetry {
    /// The registry behind every handle below (what the admin endpoint
    /// exports).
    pub registry: Registry,
    /// The time source for every span and trace timestamp.
    pub clock: Clock,
    /// The structured event ring (disabled unless the daemon passed
    /// `--trace-out`).
    pub trace: Trace,
    /// The round-loop metrics (`goldfish_fed`'s instrumentation),
    /// registered into the shared registry.
    pub round: RoundMetrics,
    /// Frame bytes written to workers (handshake, broadcast, control
    /// and shutdown frames included).
    pub wire_sent_bytes: Counter,
    /// Frame bytes read from workers (handshake and update frames).
    pub wire_received_bytes: Counter,
    /// Frame buffers the reactor currently has leased — replies being
    /// read. `0` between fan-outs.
    pub frame_buffers_leased: Gauge,
    /// The most frame buffers ever leased at once: how bursty the fleet
    /// actually is (bounded by the cohort, never by the registry).
    pub frame_buffers_high_water: Gauge,
    /// Encode-once broadcast serialization time per round.
    pub broadcast_encode_seconds: Histogram,
    /// Time spent blocked in the readiness poller per wakeup.
    pub poll_wait_seconds: Histogram,
    /// Wall time from a reply being armed for reading — its request
    /// flushed and every lower cohort slot done — to its last byte (per
    /// completed frame read).
    pub frame_read_seconds: Histogram,
    /// End-to-end wall time of one training round (hot path).
    pub round_seconds: Histogram,
    /// WAL append+fsync time per accepted unlearning submit.
    pub wal_append_seconds: Histogram,
    /// Checkpoint write+fsync+rename time per commit.
    pub checkpoint_fsync_seconds: Histogram,
    /// End-to-end wall time of one unlearning drain batch.
    pub drain_seconds: Histogram,
    /// Current unlearning-queue depth (distinct clients pending).
    pub unlearn_queue_depth: Gauge,
    /// Deletion requests accepted into the queue, lifetime.
    pub unlearn_submitted_total: Counter,
    /// Submits merged into an existing pending request (same client).
    pub unlearn_merged_total: Counter,
    /// Unlearning requests served across all drains.
    pub unlearn_requests_served_total: Counter,
    /// Drain batches executed.
    pub drain_batches_total: Counter,
    /// Requests served by the most recent drain.
    pub drain_last_batch_requests: Gauge,
    /// Shard retrain tasks completed across all shard drains.
    pub shard_tasks_total: Counter,
    /// Shard checkpoints reconstructed from XOR parity (owner straggled).
    pub shard_reconstructions_total: Counter,
    /// Shard tasks committed via the degraded (delegated) path.
    pub shard_degraded_drains_total: Counter,
    /// Shard tasks re-enqueued because the drain deadline expired.
    pub shard_tasks_requeued_total: Counter,
    /// Shard retrain tasks currently pending in the shard queue.
    pub shard_tasks_pending: Gauge,
}

impl ServeTelemetry {
    /// Builds the full metric catalog in a fresh registry. The only
    /// allocating call in this module — everything after is atomics.
    pub fn new(clock: Clock, trace: Trace) -> ServeTelemetry {
        let registry = Registry::new();
        let round = RoundMetrics::register(&registry, clock.clone(), trace.clone());
        ServeTelemetry {
            round,
            wire_sent_bytes: registry.counter(
                "goldfish_wire_sent_bytes_total",
                "Frame bytes written to workers (all frame kinds)",
            ),
            wire_received_bytes: registry.counter(
                "goldfish_wire_received_bytes_total",
                "Frame bytes read from workers (all frame kinds)",
            ),
            frame_buffers_leased: registry.gauge(
                "goldfish_frame_buffers_leased",
                "Frame buffers currently leased to in-flight reply frames",
            ),
            frame_buffers_high_water: registry.gauge(
                "goldfish_frame_buffers_high_water",
                "Most frame buffers ever leased at once",
            ),
            broadcast_encode_seconds: registry.histogram(
                "goldfish_broadcast_encode_seconds",
                "Encode-once broadcast serialization time per round",
            ),
            poll_wait_seconds: registry.histogram(
                "goldfish_poll_wait_seconds",
                "Time blocked in the readiness poller per wakeup",
            ),
            frame_read_seconds: registry.histogram(
                "goldfish_frame_read_seconds",
                "Armed-to-last-byte wall time per completed reply read",
            ),
            round_seconds: registry.histogram(
                "goldfish_round_seconds",
                "End-to-end wall time of one training round",
            ),
            wal_append_seconds: registry.histogram(
                "goldfish_wal_append_seconds",
                "WAL append+fsync time per accepted unlearning submit",
            ),
            checkpoint_fsync_seconds: registry.histogram(
                "goldfish_checkpoint_fsync_seconds",
                "Checkpoint write+fsync+rename time per commit",
            ),
            drain_seconds: registry.histogram(
                "goldfish_drain_seconds",
                "End-to-end wall time of one unlearning drain batch",
            ),
            unlearn_queue_depth: registry.gauge(
                "goldfish_unlearn_queue_depth",
                "Distinct clients with a pending deletion request",
            ),
            unlearn_submitted_total: registry.counter(
                "goldfish_unlearn_submitted_total",
                "Deletion requests accepted into the queue",
            ),
            unlearn_merged_total: registry.counter(
                "goldfish_unlearn_merged_total",
                "Submits merged into an existing pending request",
            ),
            unlearn_requests_served_total: registry.counter(
                "goldfish_unlearn_requests_served_total",
                "Unlearning requests served across all drains",
            ),
            drain_batches_total: registry.counter(
                "goldfish_drain_batches_total",
                "Unlearning drain batches executed",
            ),
            drain_last_batch_requests: registry.gauge(
                "goldfish_drain_last_batch_requests",
                "Requests served by the most recent drain",
            ),
            shard_tasks_total: registry.counter(
                "goldfish_shard_tasks_total",
                "Shard retrain tasks completed across all shard drains",
            ),
            shard_reconstructions_total: registry.counter(
                "goldfish_shard_reconstructions_total",
                "Shard checkpoints reconstructed from XOR parity",
            ),
            shard_degraded_drains_total: registry.counter(
                "goldfish_shard_degraded_drains_total",
                "Shard tasks committed via the degraded (delegated) path",
            ),
            shard_tasks_requeued_total: registry.counter(
                "goldfish_shard_tasks_requeued_total",
                "Shard tasks re-enqueued past an expired drain deadline",
            ),
            shard_tasks_pending: registry.gauge(
                "goldfish_shard_tasks_pending",
                "Shard retrain tasks currently pending",
            ),
            registry,
            clock,
            trace,
        }
    }

    /// A detached catalog on the system clock with tracing off — what a
    /// coordinator uses when no telemetry was configured. Metrics still
    /// count (accessors like `drain_stats()` read them) but nothing is
    /// exported.
    pub(crate) fn disabled() -> Arc<ServeTelemetry> {
        Arc::new(ServeTelemetry::new(Clock::system(), Trace::disabled()))
    }

    /// Nanoseconds since the telemetry clock's epoch (daemon start).
    pub(crate) fn uptime_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The Prometheus exposition of the registry.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.registry)
    }

    /// The JSON snapshot of the registry.
    pub(crate) fn json_snapshot(&self) -> String {
        export::json_snapshot(&self.registry, self.uptime_nanos(), self.trace.dropped())
    }

    /// The human-readable status table (`goldfish-coordinator --status`).
    pub(crate) fn status_table(&self) -> String {
        export::status_table(&self.registry, self.uptime_nanos())
    }
}

/// The wire-side handle bundle a [`crate::tcp::TcpTransport`] carries.
/// `Default` is fully detached — the transport counts every handshake
/// byte from `accept` on even before a coordinator (and its registry)
/// exists; [`WireTelemetry::attach`] later moves those counts into the
/// shared cells without losing a byte.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireTelemetry {
    /// Span clock for poll/encode/frame timings.
    pub clock: Clock,
    /// Frame bytes written (all frame kinds, fan-out and control).
    pub sent_bytes: Counter,
    /// Frame bytes read (all frame kinds).
    pub received_bytes: Counter,
    /// Encode-once broadcast serialization time.
    pub broadcast_encode_seconds: Histogram,
    /// Time blocked in the readiness poller.
    pub poll_wait_seconds: Histogram,
    /// Armed-to-last-byte time per completed reply read.
    pub frame_read_seconds: Histogram,
}

impl WireTelemetry {
    /// Joins the shared catalog: byte counts accumulated so far move
    /// into the registered cells, and the span histograms/clock rebind
    /// to the shared ones.
    pub(crate) fn attach(&mut self, t: &ServeTelemetry) {
        self.clock = t.clock.clone();
        self.sent_bytes.transfer_into(&t.wire_sent_bytes);
        self.received_bytes.transfer_into(&t.wire_received_bytes);
        self.broadcast_encode_seconds = t.broadcast_encode_seconds.clone();
        self.poll_wait_seconds = t.poll_wait_seconds.clone();
        self.frame_read_seconds = t.frame_read_seconds.clone();
    }

    /// The byte counters as the legacy [`WireStats`] snapshot.
    pub(crate) fn wire_stats(&self) -> WireStats {
        WireStats {
            bytes_sent: self.sent_bytes.get(),
            bytes_received: self.received_bytes.get(),
        }
    }
}

/// A [`crate::queue::MergeQueue`]'s handle bundle. `Default` is detached
/// (the queue still counts; nothing exports).
#[derive(Debug, Clone, Default)]
pub(crate) struct QueueTelemetry {
    /// Current queue depth (distinct merge targets pending).
    pub depth: Gauge,
    /// Requests accepted, lifetime.
    pub submitted_total: Counter,
    /// Submits merged into an existing pending request.
    pub merged_total: Counter,
    /// The structured event ring (`unlearn_queued` /
    /// `shard_task_queued` events).
    pub trace: Trace,
}

impl QueueTelemetry {
    /// The shared catalog's queue handles.
    pub(crate) fn from_serve(t: &ServeTelemetry) -> QueueTelemetry {
        QueueTelemetry {
            depth: t.unlearn_queue_depth.clone(),
            submitted_total: t.unlearn_submitted_total.clone(),
            merged_total: t.unlearn_merged_total.clone(),
            trace: t.trace.clone(),
        }
    }

    /// The shared catalog's handles for the shard-task queue: depth is
    /// `goldfish_shard_tasks_pending` and merges count into the same
    /// `goldfish_unlearn_merged_total`; `submitted_total` stays detached
    /// because the exported submit counter is per *request* (the
    /// coordinator bumps it once per routed deletion), not per task.
    pub(crate) fn for_shard_tasks(t: &ServeTelemetry) -> QueueTelemetry {
        QueueTelemetry {
            depth: t.shard_tasks_pending.clone(),
            submitted_total: Counter::default(),
            merged_total: t.unlearn_merged_total.clone(),
            trace: t.trace.clone(),
        }
    }
}

/// The durable store's handle bundle: fsync spans. `Default` is
/// detached.
#[derive(Debug, Clone, Default)]
pub(crate) struct DurabilityTelemetry {
    /// Span clock.
    pub clock: Clock,
    /// WAL append+fsync time per accepted submit.
    pub wal_append_seconds: Histogram,
    /// Checkpoint write+fsync+rename time per commit.
    pub checkpoint_fsync_seconds: Histogram,
}

impl DurabilityTelemetry {
    /// The shared catalog's durability handles.
    pub(crate) fn from_serve(t: &ServeTelemetry) -> DurabilityTelemetry {
        DurabilityTelemetry {
            clock: t.clock.clone(),
            wal_append_seconds: t.wal_append_seconds.clone(),
            checkpoint_fsync_seconds: t.checkpoint_fsync_seconds.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_every_family_once() {
        let t = ServeTelemetry::new(Clock::manual(), Trace::disabled());
        let names: Vec<String> = t
            .registry
            .metrics()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        for want in [
            "goldfish_rounds_total",
            "goldfish_wire_sent_bytes_total",
            "goldfish_wire_received_bytes_total",
            "goldfish_frame_buffers_leased",
            "goldfish_frame_buffers_high_water",
            "goldfish_round_seconds",
            "goldfish_unlearn_queue_depth",
            "goldfish_checkpoint_fsync_seconds",
            "goldfish_shard_tasks_total",
            "goldfish_shard_reconstructions_total",
            "goldfish_shard_degraded_drains_total",
            "goldfish_shard_tasks_requeued_total",
            "goldfish_shard_tasks_pending",
        ] {
            assert!(
                names.iter().any(|n| n == want),
                "missing {want} in {names:?}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registrations");
    }

    #[test]
    fn wire_telemetry_attach_carries_preregistration_bytes() {
        let mut wire = WireTelemetry::default();
        wire.sent_bytes.add(100);
        wire.received_bytes.add(40);
        let t = ServeTelemetry::new(Clock::manual(), Trace::disabled());
        wire.attach(&t);
        assert_eq!(t.wire_sent_bytes.get(), 100);
        assert_eq!(t.wire_received_bytes.get(), 40);
        wire.sent_bytes.add(1); // now writes through
        assert_eq!(t.wire_sent_bytes.get(), 101);
        assert_eq!(wire.wire_stats().total(), 141);
    }
}
