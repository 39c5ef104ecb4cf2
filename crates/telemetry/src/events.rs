//! Structured event tracing: a bounded ring of typed round and
//! connection events, drainable as JSONL (`--trace-out`).
//!
//! Events are `Copy` with numeric-only payloads, so recording one is a
//! mutex lock plus a slot write into a preallocated ring — no
//! allocation on the steady-state path. When the ring is full the
//! oldest event is overwritten and a drop counter increments; the
//! JSONL drain reports the drop count so a truncated trace is never
//! mistaken for a complete one.

use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// What happened. Every payload is numeric so events stay `Copy` and
/// recording stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A training round began with this cohort size.
    RoundStarted {
        /// Round index.
        round: u64,
        /// Clients contacted this round.
        cohort: u64,
    },
    /// A training round committed.
    RoundCommitted {
        /// Round index.
        round: u64,
        /// Updates folded into the global.
        reported: u64,
        /// Clients contacted.
        cohort: u64,
        /// 1 when the round committed on a quorum (partial) fold.
        degraded: u64,
    },
    /// The round driver re-contacted survivors after drops/rejections.
    ReRound {
        /// Round index.
        round: u64,
        /// 1-based retry attempt within the round.
        attempt: u64,
    },
    /// A client's update was rejected by the admission layer.
    ClientRejected {
        /// Round index.
        round: u64,
        /// Client id.
        client: u64,
        /// The violation's stable numeric code (1 = non-finite, 2 =
        /// delta-norm, 3 = stale nonce, 4 = duplicate, 5 = handler
        /// panic).
        violation: u64,
        /// The client's strike count after this rejection.
        strikes: u64,
    },
    /// A client crossed the strike budget and was quarantined.
    Quarantined {
        /// Client id.
        client: u64,
        /// Strikes at eviction.
        strikes: u64,
    },
    /// An unlearning request entered the queue.
    UnlearnQueued {
        /// Requesting client id.
        client: u64,
        /// Samples requested for removal.
        removed: u64,
        /// Queue depth after the submit.
        depth: u64,
    },
    /// An unlearning drain began.
    DrainStarted {
        /// Requests staged into the batch.
        pending: u64,
    },
    /// An unlearning drain committed.
    DrainCommitted {
        /// Requests served by the batch.
        requests: u64,
        /// Distillation rounds the batch cost.
        rounds: u64,
    },
    /// Recovery replayed WAL entries into the queue at startup.
    RecoveryReplayed {
        /// Round the run resumes from.
        next_round: u64,
        /// WAL entries replayed.
        replayed: u64,
    },
    /// A shard retrain task entered the shard queue.
    ShardTaskQueued {
        /// Owning client id.
        client: u64,
        /// Shard index within the client.
        shard: u64,
        /// Shard-queue depth after the submit.
        depth: u64,
    },
    /// A shard drain fell back to the coded degraded path: the owner
    /// straggled past the deadline, the checkpoint was reconstructed
    /// from parity and a delegate retrained the shard.
    ShardDegraded {
        /// Straggling owner client id.
        client: u64,
        /// Shard index within the owner.
        shard: u64,
        /// Healthy group member that executed the retrain.
        delegate: u64,
    },
    /// A shard task was re-enqueued because the drain deadline expired
    /// before it could run; the batch committed partial progress.
    ShardRequeued {
        /// Owning client id.
        client: u64,
        /// Shard index within the client.
        shard: u64,
        /// Tasks still pending after the requeue.
        remaining: u64,
    },
}

impl EventKind {
    /// The event's JSONL `kind` tag.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::RoundStarted { .. } => "round_started",
            EventKind::RoundCommitted { .. } => "round_committed",
            EventKind::ReRound { .. } => "re_round",
            EventKind::ClientRejected { .. } => "client_rejected",
            EventKind::Quarantined { .. } => "quarantined",
            EventKind::UnlearnQueued { .. } => "unlearn_queued",
            EventKind::DrainStarted { .. } => "drain_started",
            EventKind::DrainCommitted { .. } => "drain_committed",
            EventKind::RecoveryReplayed { .. } => "recovery_replayed",
            EventKind::ShardTaskQueued { .. } => "shard_task_queued",
            EventKind::ShardDegraded { .. } => "shard_degraded",
            EventKind::ShardRequeued { .. } => "shard_requeued",
        }
    }

    /// The payload as `(field, value)` pairs, for the JSONL writer.
    fn fields(&self) -> [Option<(&'static str, u64)>; 4] {
        match *self {
            EventKind::RoundStarted { round, cohort } => {
                [Some(("round", round)), Some(("cohort", cohort)), None, None]
            }
            EventKind::RoundCommitted {
                round,
                reported,
                cohort,
                degraded,
            } => [
                Some(("round", round)),
                Some(("reported", reported)),
                Some(("cohort", cohort)),
                Some(("degraded", degraded)),
            ],
            EventKind::ReRound { round, attempt } => [
                Some(("round", round)),
                Some(("attempt", attempt)),
                None,
                None,
            ],
            EventKind::ClientRejected {
                round,
                client,
                violation,
                strikes,
            } => [
                Some(("round", round)),
                Some(("client", client)),
                Some(("violation", violation)),
                Some(("strikes", strikes)),
            ],
            EventKind::Quarantined { client, strikes } => [
                Some(("client", client)),
                Some(("strikes", strikes)),
                None,
                None,
            ],
            EventKind::UnlearnQueued {
                client,
                removed,
                depth,
            } => [
                Some(("client", client)),
                Some(("removed", removed)),
                Some(("depth", depth)),
                None,
            ],
            EventKind::DrainStarted { pending } => [Some(("pending", pending)), None, None, None],
            EventKind::DrainCommitted { requests, rounds } => [
                Some(("requests", requests)),
                Some(("rounds", rounds)),
                None,
                None,
            ],
            EventKind::RecoveryReplayed {
                next_round,
                replayed,
            } => [
                Some(("next_round", next_round)),
                Some(("replayed", replayed)),
                None,
                None,
            ],
            EventKind::ShardTaskQueued {
                client,
                shard,
                depth,
            } => [
                Some(("client", client)),
                Some(("shard", shard)),
                Some(("depth", depth)),
                None,
            ],
            EventKind::ShardDegraded {
                client,
                shard,
                delegate,
            } => [
                Some(("client", client)),
                Some(("shard", shard)),
                Some(("delegate", delegate)),
                None,
            ],
            EventKind::ShardRequeued {
                client,
                shard,
                remaining,
            } => [
                Some(("client", client)),
                Some(("shard", shard)),
                Some(("remaining", remaining)),
                None,
            ],
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Clock nanoseconds at record time.
    pub at_nanos: u64,
    /// Monotonic sequence number (survives ring overwrites, so gaps in
    /// a drained trace are visible).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The preallocated bounded ring.
#[derive(Debug)]
struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    next_seq: u64,
    dropped: u64,
}

impl EventRing {
    fn push(&mut self, at_nanos: u64, kind: EventKind) {
        let ev = Event {
            at_nanos,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        if self.buf.len() < self.cap {
            // Within preallocated capacity: no allocation.
            self.buf.push(ev);
        } else if self.cap > 0 {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn iter_in_order(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.start..]
            .iter()
            .chain(self.buf[..self.start].iter())
    }
}

/// A cloneable recording handle. `Default` is disabled: recording into
/// it is a no-op branch, so uninstrumented paths cost nothing.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ring: Option<Arc<Mutex<EventRing>>>,
    clock: Clock,
}

impl Trace {
    /// An enabled trace holding up to `capacity` events, stamped by
    /// `clock`. The ring is allocated once, here.
    pub fn bounded(capacity: usize, clock: Clock) -> Trace {
        Trace {
            ring: Some(Arc::new(Mutex::new(EventRing {
                buf: Vec::with_capacity(capacity),
                cap: capacity,
                start: 0,
                next_seq: 0,
                dropped: 0,
            }))),
            clock,
        }
    }

    /// A disabled trace (recording is a no-op).
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records `kind` stamped with the trace's clock. Steady-state
    /// cost: one mutex lock and a slot write — no allocation.
    pub fn record(&self, kind: EventKind) {
        if let Some(ring) = &self.ring {
            let at = self.clock.now_nanos();
            ring.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(at, kind);
        }
    }

    /// Events recorded but overwritten before a drain.
    pub fn dropped(&self) -> u64 {
        self.ring
            .as_ref()
            .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()).dropped)
            .unwrap_or(0)
    }

    /// Serializes the ring's contents (oldest first) as JSON Lines into
    /// `out`, leaving the ring intact. Returns the number of events
    /// written.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<usize> {
        let Some(ring) = &self.ring else {
            return Ok(0);
        };
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut n = 0;
        for ev in ring.iter_in_order() {
            write!(
                out,
                "{{\"seq\":{},\"at_nanos\":{},\"kind\":\"{}\"",
                ev.seq,
                ev.at_nanos,
                ev.kind.name()
            )?;
            for (k, v) in ev.kind.fields().iter().flatten() {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let clock = Clock::manual();
        let t = Trace::bounded(2, clock.clone());
        for round in 0..5 {
            clock.advance(10);
            t.record(EventKind::RoundStarted { round, cohort: 4 });
        }
        assert_eq!(t.dropped(), 3);
        let mut buf = Vec::new();
        let n = t.write_jsonl(&mut buf).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"seq\":3") && lines[0].contains("\"round\":3"));
        assert!(lines[1].contains("\"seq\":4") && lines[1].contains("\"round\":4"));
        assert!(lines[0].contains("\"at_nanos\":40"));
    }

    #[test]
    fn disabled_trace_is_a_no_op() {
        let t = Trace::disabled();
        t.record(EventKind::DrainStarted { pending: 1 });
        assert!(!t.is_enabled());
        let mut buf = Vec::new();
        assert_eq!(t.write_jsonl(&mut buf).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn every_kind_serializes_its_fields() {
        let t = Trace::bounded(16, Clock::manual());
        t.record(EventKind::RoundCommitted {
            round: 1,
            reported: 3,
            cohort: 4,
            degraded: 0,
        });
        t.record(EventKind::ReRound {
            round: 1,
            attempt: 1,
        });
        t.record(EventKind::ClientRejected {
            round: 1,
            client: 2,
            violation: 3,
            strikes: 1,
        });
        t.record(EventKind::Quarantined {
            client: 2,
            strikes: 3,
        });
        t.record(EventKind::UnlearnQueued {
            client: 0,
            removed: 5,
            depth: 1,
        });
        t.record(EventKind::DrainCommitted {
            requests: 1,
            rounds: 2,
        });
        t.record(EventKind::RecoveryReplayed {
            next_round: 7,
            replayed: 2,
        });
        t.record(EventKind::ShardTaskQueued {
            client: 1,
            shard: 2,
            depth: 3,
        });
        t.record(EventKind::ShardDegraded {
            client: 1,
            shard: 2,
            delegate: 0,
        });
        t.record(EventKind::ShardRequeued {
            client: 1,
            shard: 2,
            remaining: 4,
        });
        let mut buf = Vec::new();
        assert_eq!(t.write_jsonl(&mut buf).unwrap(), 10);
        let text = String::from_utf8(buf).unwrap();
        for tag in [
            "round_committed",
            "re_round",
            "client_rejected",
            "quarantined",
            "unlearn_queued",
            "drain_committed",
            "recovery_replayed",
            "shard_task_queued",
            "shard_degraded",
            "shard_requeued",
        ] {
            assert!(text.contains(tag), "missing {tag} in {text}");
        }
        assert!(text.contains("\"degraded\":0"));
        assert!(text.contains("\"violation\":3"));
        assert!(text.contains("\"delegate\":0"));
        assert!(text.contains("\"remaining\":4"));
    }
}
