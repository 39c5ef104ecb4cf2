//! The server's FIFO unlearning request queue.
//!
//! Deletion requests arrive while training is in progress; the
//! coordinator queues them and drains the queue **between** federated
//! rounds (the paper's request-then-retrain flow — a request never
//! interrupts a round mid-flight). Requests are deduplicated per client:
//! a second request from a client that already has one pending merges
//! its indices into the pending entry (keeping the original FIFO
//! position), so one distillation pass serves both.
//!
//! The queue itself is [`MergeQueue`], generic over what is [`Pending`]:
//! whole-client requests here (`UnlearnQueue`), shard retrain tasks in
//! shard mode (`crate::shard::ShardTaskQueue`) — same submit / merge /
//! drain / restore semantics and the same telemetry, keyed by client or
//! by `(client, shard)`.

use goldfish_telemetry::events::EventKind;

use crate::telemetry::QueueTelemetry;

/// One deletion request: a client asks the server to unlearn some of its
/// local samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnlearnRequest {
    /// The requesting client.
    pub client_id: usize,
    /// Indices into that client's local dataset, sorted and deduplicated
    /// by `UnlearnQueue::submit`.
    pub removed: Vec<usize>,
}

impl UnlearnRequest {
    /// A request to forget `removed` samples of `client_id`.
    pub fn new(client_id: usize, mut removed: Vec<usize>) -> Self {
        normalize(&mut removed);
        UnlearnRequest { client_id, removed }
    }
}

/// What a [`MergeQueue`] holds: a deletion waiting for its drain,
/// addressed to one merge target.
pub trait Pending {
    /// Whether `other` addresses the same target, so that it merges into
    /// this entry instead of queueing behind it.
    fn same_target(&self, other: &Self) -> bool;

    /// The entry's row list, which the queue keeps sorted and
    /// deduplicated.
    fn rows_mut(&mut self) -> &mut Vec<usize>;

    /// The trace event recording this submission, `depth` being the
    /// queue depth once it is in.
    fn queued_event(&self, depth: u64) -> EventKind;
}

impl Pending for UnlearnRequest {
    fn same_target(&self, other: &Self) -> bool {
        self.client_id == other.client_id
    }

    fn rows_mut(&mut self) -> &mut Vec<usize> {
        &mut self.removed
    }

    fn queued_event(&self, depth: u64) -> EventKind {
        EventKind::UnlearnQueued {
            client: self.client_id as u64,
            removed: self.removed.len() as u64,
            depth,
        }
    }
}

/// FIFO queue of pending [`UnlearnRequest`]s with per-client dedupe.
pub(crate) type UnlearnQueue = MergeQueue<UnlearnRequest>;

/// FIFO queue of [`Pending`] entries with per-target dedupe: the one
/// pending-deletion queue behind both drain modes.
#[derive(Debug)]
pub struct MergeQueue<T> {
    pending: Vec<T>,
    submitted: usize,
    merged: usize,
    /// Registry handles (detached by default: counting is unconditional,
    /// export happens only once a coordinator attaches its catalog).
    telemetry: QueueTelemetry,
}

impl<T> Default for MergeQueue<T> {
    fn default() -> Self {
        MergeQueue {
            pending: Vec::new(),
            submitted: 0,
            merged: 0,
            telemetry: QueueTelemetry::default(),
        }
    }
}

/// Sorts and deduplicates a row list — the one normal form every
/// pending entry's rows are kept in.
pub(crate) fn normalize(rows: &mut Vec<usize>) {
    rows.sort_unstable();
    rows.dedup();
}

impl<T: Pending> MergeQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        MergeQueue::default()
    }

    /// Rebinds the queue's depth gauge and submit/merge counters to a
    /// shared catalog's cells (carrying current values forward).
    pub(crate) fn set_telemetry(&mut self, telemetry: QueueTelemetry) {
        telemetry.submitted_total.add(self.submitted as u64);
        telemetry.merged_total.add(self.merged as u64);
        telemetry.depth.set(self.pending.len() as i64);
        self.telemetry = telemetry;
    }

    /// Enqueues an entry. If one with the same target is already pending
    /// the rows are merged into it (union, sorted) and the existing
    /// FIFO position is kept; otherwise the entry joins the tail.
    pub(crate) fn submit(&mut self, mut entry: T) {
        self.submitted += 1;
        self.telemetry.submitted_total.inc();
        normalize(entry.rows_mut());
        let target = self.pending.iter().position(|p| p.same_target(&entry));
        let depth = self.pending.len() + usize::from(target.is_none());
        let event = entry.queued_event(depth as u64);
        match target {
            Some(at) => {
                let rows = self.pending[at].rows_mut();
                rows.append(entry.rows_mut());
                normalize(rows);
                self.merged += 1;
                self.telemetry.merged_total.inc();
            }
            None => self.pending.push(entry),
        }
        self.telemetry.depth.set(depth as i64);
        self.telemetry.trace.record(event);
    }

    /// Removes and returns every pending entry, in FIFO order.
    pub(crate) fn drain(&mut self) -> Vec<T> {
        self.telemetry.depth.set(0);
        std::mem::take(&mut self.pending)
    }

    /// Removes and returns at most `limit` entries from the head of
    /// the queue, in FIFO order. Entries left behind keep their
    /// positions; a target whose entry was just drained and which is
    /// submitted again starts a **new** tail entry (drained entries are
    /// served — they are no longer merge targets).
    pub fn drain_batch(&mut self, limit: usize) -> Vec<T> {
        let n = limit.min(self.pending.len());
        let batch: Vec<T> = self.pending.drain(..n).collect();
        self.telemetry.depth.set(self.pending.len() as i64);
        batch
    }

    /// Re-enqueues a drain's unfinished remainder **at the front**, in
    /// order — those entries were first in line and stay first.
    pub(crate) fn requeue_front(&mut self, mut remainder: Vec<T>) {
        remainder.append(&mut self.pending);
        self.restore(remainder);
    }

    /// A read-only view of the pending entries, in FIFO order — what a
    /// durability checkpoint persists.
    pub(crate) fn pending(&self) -> &[T] {
        &self.pending
    }

    /// Replaces the pending queue wholesale — the recovery path,
    /// rebuilding the exact pre-crash queue from checkpoint + WAL
    /// replay. Counters are not touched: they describe this process's
    /// observations, not the durable state.
    pub(crate) fn restore(&mut self, pending: Vec<T>) {
        self.pending = pending;
        self.telemetry.depth.set(self.pending.len() as i64);
    }

    /// Pending entry count (after dedupe).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total submissions observed (including merged ones).
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Submissions that merged into an already-pending entry.
    pub fn merged(&self) -> usize {
        self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_kept() {
        let mut q = UnlearnQueue::new();
        q.submit(UnlearnRequest::new(2, vec![1]));
        q.submit(UnlearnRequest::new(0, vec![3]));
        let drained = q.drain();
        assert_eq!(drained[0].client_id, 2);
        assert_eq!(drained[1].client_id, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn per_client_requests_merge_in_place() {
        let mut q = UnlearnQueue::new();
        q.submit(UnlearnRequest::new(1, vec![5, 3]));
        q.submit(UnlearnRequest::new(0, vec![9]));
        q.submit(UnlearnRequest::new(1, vec![3, 7]));
        assert_eq!(q.len(), 2);
        assert_eq!(q.submitted(), 3);
        assert_eq!(q.merged(), 1);
        let drained = q.drain();
        // Client 1 keeps its original (first) position; indices merged,
        // sorted, deduplicated.
        assert_eq!(drained[0], UnlearnRequest::new(1, vec![3, 5, 7]));
        assert_eq!(drained[1], UnlearnRequest::new(0, vec![9]));
    }

    #[test]
    fn new_normalizes_indices() {
        let r = UnlearnRequest::new(0, vec![4, 1, 4, 2]);
        assert_eq!(r.removed, vec![1, 2, 4]);
    }

    #[test]
    fn duplicate_sample_ids_merge_to_one_occurrence() {
        let mut q = UnlearnQueue::new();
        // Duplicates both within one submission and across merged
        // submissions must collapse: a sample can only be forgotten
        // once.
        q.submit(UnlearnRequest {
            client_id: 0,
            removed: vec![7, 7, 3, 7],
        });
        q.submit(UnlearnRequest {
            client_id: 0,
            removed: vec![3, 9, 9],
        });
        let drained = q.drain();
        assert_eq!(drained, vec![UnlearnRequest::new(0, vec![3, 7, 9])]);
    }

    #[test]
    fn merge_after_partial_drain_starts_a_fresh_entry() {
        let mut q = UnlearnQueue::new();
        q.submit(UnlearnRequest::new(1, vec![5]));
        q.submit(UnlearnRequest::new(2, vec![6]));
        let first = q.drain_batch(1);
        assert_eq!(first, vec![UnlearnRequest::new(1, vec![5])]);
        assert_eq!(q.len(), 1);

        // Client 1's earlier request is being served; a new submission
        // must NOT merge into the drained (already in-flight) batch —
        // it queues behind client 2.
        q.submit(UnlearnRequest::new(1, vec![8]));
        let rest = q.drain();
        assert_eq!(
            rest,
            vec![
                UnlearnRequest::new(2, vec![6]),
                UnlearnRequest::new(1, vec![8]),
            ]
        );
    }

    #[test]
    fn submit_while_draining_lands_in_the_next_batch() {
        let mut q = UnlearnQueue::new();
        q.submit(UnlearnRequest::new(0, vec![1]));
        let batch = q.drain();
        // The drained batch is a snapshot: a submission arriving while
        // it is being served neither appears in it nor is lost.
        q.submit(UnlearnRequest::new(3, vec![2]));
        assert_eq!(batch, vec![UnlearnRequest::new(0, vec![1])]);
        assert_eq!(q.drain(), vec![UnlearnRequest::new(3, vec![2])]);
    }

    #[test]
    fn drain_batch_bounds_and_preserves_order() {
        let mut q = UnlearnQueue::new();
        for c in 0..5 {
            q.submit(UnlearnRequest::new(c, vec![c]));
        }
        assert_eq!(q.drain_batch(0), vec![]);
        let two = q.drain_batch(2);
        assert_eq!(two.iter().map(|r| r.client_id).collect::<Vec<_>>(), [0, 1]);
        let rest = q.drain_batch(99);
        assert_eq!(
            rest.iter().map(|r| r.client_id).collect::<Vec<_>>(),
            [2, 3, 4]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn restore_rebuilds_the_exact_queue() {
        let mut q = UnlearnQueue::new();
        q.restore(vec![
            UnlearnRequest::new(2, vec![1]),
            UnlearnRequest::new(0, vec![4]),
        ]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending()[0].client_id, 2);
        // Replayed WAL submissions merge into restored entries exactly
        // as the original submissions did.
        q.submit(UnlearnRequest::new(2, vec![9]));
        assert_eq!(q.pending()[0], UnlearnRequest::new(2, vec![1, 9]));
    }
}
