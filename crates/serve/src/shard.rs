//! Shard-isolated unlearning with coded straggler tolerance
//! (DESIGN.md §16).
//!
//! The paper's per-client sharding (Eqs 8–10, `ShardedClient`) lives in
//! `goldfish_core`; this module ports the *architecture* of "Scalable
//! Federated Unlearning via Isolated and Coded Sharding" (Lin et al.
//! 2024) onto the coordinator:
//!
//! * [`ShardMap`] — the coordinator-owned mirror of every client's
//!   shard states and sizes (the Eq 8/9 arithmetic view), plus
//!   **tombstones**: deletion requests always address the client's
//!   *original* dataset ordering, and removed rows accumulate per shard
//!   instead of shifting indices — so queued tasks stay valid across
//!   drains and crash-restarts.
//! * `ShardTaskQueue` — the shard-granular work queue: a deletion
//!   drains as O(affected shards) retrain tasks, with per-`(client,
//!   shard)` dedupe/merge mirroring the whole-client queue's FIFO
//!   semantics.
//! * **XOR parity groups** — clients are chunked (by id) into
//!   redundancy groups of `group` members; each group keeps one parity
//!   block, the bitwise XOR of its members' flattened shard-state
//!   matrices. When a shard's owner misses the drain deadline, the
//!   owner's states are [reconstructed](ShardMap::reconstruct) from
//!   parity ⊕ the healthy members — XOR is exact on f32 bit patterns,
//!   so the Eq 9 checkpoint computed from the reconstruction is
//!   **bitwise identical** to the healthy path, and a degraded drain
//!   commits the same bytes a healthy one would.
//!
//! Everything here is pure bookkeeping: retrains execute on the
//! transport (`ServeTransport::shard_retrain`, sharing
//! `goldfish_core::optimization::retrain_shard` with the in-core
//! deletion path), and persistence rides the checkpoint/WAL layer via
//! [`ShardSnapshot`] — a view that borrows the map, so a commit encodes
//! the states in place, one per spill, and copies none of them.

use std::borrow::Cow;
use std::convert::Infallible;

use goldfish_core::ShardedLocalModel;
use goldfish_data::partition;
use goldfish_fed::trainer::TrainConfig;
use goldfish_telemetry::events::EventKind;
use goldfish_tensor::serialize;

use crate::codec::{put_rows, Reader};

/// Shard-mode policy knobs (`--shards`, `--shard-group`,
/// `--drain-deadline-ms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Shards per client (τ, round-robin sample → shard `g % τ`).
    pub tau: usize,
    /// Redundancy-group size: clients `[g·k, (g+1)·k)` form group `g`
    /// and share one XOR parity block. `1` disables delegation (a group
    /// of one has no healthy member to delegate to).
    pub group: usize,
    /// Drain deadline in milliseconds; `0` = unbounded. A task whose
    /// executor would push the drain's consumed budget past the
    /// deadline is re-enqueued for the next drain; an owner whose
    /// injected straggle alone meets the deadline is bypassed via
    /// parity reconstruction + delegation.
    pub deadline_ms: u64,
}

impl ShardPolicy {
    /// The redundancy group client `id` belongs to.
    pub(crate) fn group_of(&self, id: usize) -> usize {
        id / self.group.max(1)
    }

    /// The member ids of group `g` over an `n`-client registry.
    pub(crate) fn members(&self, g: usize, n: usize) -> Vec<usize> {
        let k = self.group.max(1);
        (g * k..((g + 1) * k).min(n)).collect()
    }
}

/// One shard-granular retrain task: remove `rows` (original-order
/// sample indices) from `(client_id, shard)` and retrain that shard
/// from its Eq 9 checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTask {
    /// The client whose shard is affected.
    pub client_id: usize,
    /// The affected shard index.
    pub shard: usize,
    /// Newly removed rows, as indices into the client's **original**
    /// dataset ordering — sorted, deduplicated.
    pub rows: Vec<usize>,
}

impl ShardTask {
    /// Builds a task, sorting and deduplicating `rows`.
    pub fn new(client_id: usize, shard: usize, mut rows: Vec<usize>) -> Self {
        crate::queue::normalize(&mut rows);
        ShardTask {
            client_id,
            shard,
            rows,
        }
    }
}

impl crate::queue::Pending for ShardTask {
    fn same_target(&self, other: &Self) -> bool {
        self.client_id == other.client_id && self.shard == other.shard
    }

    fn rows_mut(&mut self) -> &mut Vec<usize> {
        &mut self.rows
    }

    fn queued_event(&self, depth: u64) -> EventKind {
        EventKind::ShardTaskQueued {
            client: self.client_id as u64,
            shard: self.shard as u64,
            depth,
        }
    }
}

/// FIFO queue of shard retrain tasks with per-`(client, shard)` merge:
/// a second deletion hitting a shard whose task is still pending merges
/// into it (keeping the earlier FIFO position) instead of queueing a
/// second retrain of the same shard. The whole-client queue's
/// [`crate::queue::MergeQueue`], keyed by shard.
pub(crate) type ShardTaskQueue = crate::queue::MergeQueue<ShardTask>;

/// What a transport executes for one shard retrain — the serve-layer
/// analogue of `ShardedClient`'s internal retrain job. Only in-process
/// transports execute one: shard mode is loopback-only (DESIGN.md
/// §16.6).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRetrainAssign {
    /// The client whose data the shard belongs to.
    pub owner: usize,
    /// The group member running the retrain (`owner` on the healthy
    /// path; a delegate when the owner straggled past the deadline).
    pub executor: usize,
    /// The affected shard index.
    pub shard: usize,
    /// Shards per client (τ) — the executor re-derives shard membership
    /// from it.
    pub tau: usize,
    /// Surviving rows of the shard, as indices into the owner's
    /// **original** dataset ordering.
    pub keep_rows: Vec<usize>,
    /// The Eq 9 restart checkpoint (all-zero means fresh init — the
    /// τ = 1 degenerate case).
    pub checkpoint: Vec<f32>,
    /// Local training hyperparameters.
    pub cfg: TrainConfig,
    /// The retrain seed.
    pub seed: u64,
}

/// Per-client mirror: shard states + remaining sizes (the Eq 8/9
/// arithmetic view) plus the removed-row tombstones.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientShards {
    /// States + remaining sizes, the Eqs 8–10 arithmetic.
    pub model: ShardedLocalModel,
    /// Per-shard removed rows (original-order indices), sorted.
    pub removed: Vec<Vec<usize>>,
    /// The client's original dataset length (never shrinks — removal
    /// indices always address this ordering).
    pub original_len: usize,
}

/// The coordinator-owned shard map: every client's shard mirror plus
/// the XOR parity blocks of the redundancy groups.
#[derive(Debug, Clone)]
pub struct ShardMap {
    policy: ShardPolicy,
    clients: Vec<ClientShards>,
    /// Per-group parity: XOR of members' flattened shard-state bit
    /// matrices (`tau · state_len` words per group). Derived state —
    /// rebuilt from the states on recovery, never persisted.
    parity: Vec<Vec<u32>>,
    state_len: usize,
}

impl ShardMap {
    /// Builds the map for `client_lens` clients, every shard starting
    /// from the same `init_state` (the factory's `init_seed` state —
    /// the common initialisation Eq 8 requires).
    ///
    /// # Panics
    ///
    /// Panics if `policy.tau` is zero or `init_state` is empty.
    pub fn new(policy: ShardPolicy, client_lens: &[usize], init_state: &[f32]) -> Self {
        assert!(policy.tau > 0, "need at least one shard");
        assert!(!init_state.is_empty(), "empty init state");
        let clients = client_lens
            .iter()
            .map(|&len| {
                let indices: Vec<usize> = (0..len).collect();
                let sizes: Vec<usize> = partition::shards(&indices, policy.tau)
                    .iter()
                    .map(|p| p.len())
                    .collect();
                let states = vec![init_state.to_vec(); policy.tau];
                ClientShards {
                    model: ShardedLocalModel::new(states, sizes),
                    removed: vec![Vec::new(); policy.tau],
                    original_len: len,
                }
            })
            .collect();
        let mut map = ShardMap {
            policy,
            clients,
            parity: Vec::new(),
            state_len: init_state.len(),
        };
        map.rebuild_parity();
        map
    }

    /// Rebuilds every group's parity block from the current states
    /// (used at construction and after a checkpoint restore — parity is
    /// derived state).
    fn rebuild_parity(&mut self) {
        let n = self.clients.len();
        let k = self.policy.group.max(1);
        let groups = n.div_ceil(k);
        let words = self.policy.tau * self.state_len;
        self.parity = vec![vec![0u32; words]; groups];
        for (id, c) in self.clients.iter().enumerate() {
            let block = &mut self.parity[self.policy.group_of(id)];
            for shard in 0..self.policy.tau {
                let base = shard * self.state_len;
                for (j, &v) in c.model.shard_state(shard).iter().enumerate() {
                    block[base + j] ^= v.to_bits();
                }
            }
        }
    }

    /// The policy this map was built with.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// Registered clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// A client's mirror (states, sizes, tombstones).
    pub fn client(&self, id: usize) -> &ClientShards {
        &self.clients[id]
    }

    /// A client's original dataset length.
    pub(crate) fn original_len(&self, id: usize) -> usize {
        self.clients[id].original_len
    }

    /// A client's remaining (post-tombstone) sample count.
    pub fn remaining(&self, id: usize) -> usize {
        self.clients[id].model.total_size()
    }

    /// Routes a deletion request to its affected shards: rows group by
    /// `g % τ`, already-tombstoned rows drop out (deletion is
    /// idempotent). Returns `(shard, rows)` pairs, ascending by shard.
    pub fn route(&self, client: usize, rows: &[usize]) -> Vec<(usize, Vec<usize>)> {
        let tau = self.policy.tau;
        let c = &self.clients[client];
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); tau];
        for &g in rows {
            let shard = g % tau;
            if !c.removed[shard].contains(&g) {
                per_shard[shard].push(g);
            }
        }
        per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(shard, mut v)| {
                v.sort_unstable();
                v.dedup();
                (shard, v)
            })
            .collect()
    }

    /// The surviving rows of `(client, shard)` after the existing
    /// tombstones *and* `extra_removed` — original-order indices,
    /// ascending (what a retrain assign ships as `keep_rows`).
    pub fn keep_rows(&self, client: usize, shard: usize, extra_removed: &[usize]) -> Vec<usize> {
        let tau = self.policy.tau;
        let c = &self.clients[client];
        (0..c.original_len)
            .filter(|&g| {
                g % tau == shard && !c.removed[shard].contains(&g) && !extra_removed.contains(&g)
            })
            .collect()
    }

    /// The Eq 9 restart checkpoint of `(client, shard)` from the
    /// client's **current** shard states.
    pub fn checkpoint_for(&self, client: usize, shard: usize) -> Vec<f32> {
        self.clients[client].model.checkpoint_without(shard)
    }

    /// The client's Eq 8 aggregate over its current shard states.
    ///
    /// # Panics
    ///
    /// Panics when every sample of the client has been removed.
    pub fn client_aggregate(&self, client: usize) -> Vec<f32> {
        self.clients[client].model.aggregate()
    }

    /// Commits one executed task: tombstones `rows`, installs the
    /// retrained `state` and updates the owning group's parity (XOR out
    /// the old bits, XOR in the new — exact, O(state)).
    pub fn apply_retrain(&mut self, client: usize, shard: usize, state: Vec<f32>, rows: &[usize]) {
        assert_eq!(state.len(), self.state_len, "shard state dimension changed");
        let g = self.policy.group_of(client);
        let base = shard * self.state_len;
        {
            let c = &self.clients[client];
            let block = &mut self.parity[g];
            for (j, (&old, &new)) in c
                .model
                .shard_state(shard)
                .iter()
                .zip(state.iter())
                .enumerate()
            {
                block[base + j] ^= old.to_bits() ^ new.to_bits();
            }
        }
        let c = &mut self.clients[client];
        c.removed[shard].extend_from_slice(rows);
        crate::queue::normalize(&mut c.removed[shard]);
        let tau = self.policy.tau;
        let remaining = (0..c.original_len)
            .filter(|&g| g % tau == shard && !c.removed[shard].contains(&g))
            .count();
        c.model.set_shard(shard, state, remaining);
    }

    /// Reconstructs a straggling member's full shard-state matrix from
    /// its group's parity block XOR the healthy members' states. XOR on
    /// bit patterns is exact: the result is **bitwise identical** to
    /// the states the coordinator holds (asserted by the degraded-drain
    /// tests), which is what makes a degraded drain commit the same
    /// bytes as a healthy one.
    pub fn reconstruct(&self, client: usize) -> Vec<Vec<f32>> {
        let g = self.policy.group_of(client);
        let mut bits = self.parity[g].clone();
        for m in self.policy.members(g, self.clients.len()) {
            if m == client {
                continue;
            }
            for shard in 0..self.policy.tau {
                let base = shard * self.state_len;
                for (j, &v) in self.clients[m].model.shard_state(shard).iter().enumerate() {
                    bits[base + j] ^= v.to_bits();
                }
            }
        }
        (0..self.policy.tau)
            .map(|shard| {
                let base = shard * self.state_len;
                bits[base..base + self.state_len]
                    .iter()
                    .map(|&b| f32::from_bits(b))
                    .collect()
            })
            .collect()
    }

    /// The Eq 9 checkpoint of `(client, shard)` computed from a
    /// [reconstructed](Self::reconstruct) state matrix instead of the
    /// stored one — the degraded path's checkpoint source.
    pub(crate) fn checkpoint_from_states(
        &self,
        client: usize,
        shard: usize,
        states: &[Vec<f32>],
    ) -> Vec<f32> {
        let sizes = self.clients[client].model.sizes().to_vec();
        let model = ShardedLocalModel::new(states.to_vec(), sizes);
        model.checkpoint_without(shard)
    }

    /// Borrows the persistent part of the map (states, sizes,
    /// tombstones — parity is derived) plus the pending task queue.
    /// Copies nothing: a checkpoint encodes straight from the map.
    pub fn snapshot<'a>(&'a self, tasks: &'a [ShardTask]) -> ShardSnapshot<'a> {
        ShardSnapshot {
            tau: self.policy.tau,
            group: self.policy.group,
            deadline_ms: self.policy.deadline_ms,
            clients: Cow::Borrowed(&self.clients),
            tasks: Cow::Borrowed(tasks),
        }
    }

    /// Rebuilds the map bitwise from a recovered snapshot, taking over
    /// its client mirrors (parity is recomputed from the restored states
    /// — deterministic). Take the snapshot's `tasks` out first to keep
    /// them.
    pub fn restore(snapshot: ShardSnapshot<'_>) -> Self {
        let policy = ShardPolicy {
            tau: snapshot.tau,
            group: snapshot.group,
            deadline_ms: snapshot.deadline_ms,
        };
        let state_len = snapshot
            .clients
            .first()
            .map(|c| c.model.shard_state(0).len())
            .unwrap_or(0);
        let mut map = ShardMap {
            policy,
            clients: snapshot.clients.into_owned(),
            parity: Vec::new(),
            state_len,
        };
        map.rebuild_parity();
        map
    }
}

/// The checkpoint-persisted image of the shard pipeline: every client's
/// shard mirror plus the pending task queue. Encoded into checkpoint v2
/// files behind a presence flag.
///
/// [`ShardMap::snapshot`] borrows both lists from the live map and
/// queue; `ShardSnapshot::decode` owns what it read.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot<'a> {
    /// Shards per client.
    pub tau: usize,
    /// Redundancy-group size.
    pub group: usize,
    /// Drain deadline (ms).
    pub deadline_ms: u64,
    /// Per-client mirrors, by client id.
    pub clients: Cow<'a, [ClientShards]>,
    /// Pending shard tasks, FIFO order.
    pub tasks: Cow<'a, [ShardTask]>,
}

impl ShardSnapshot<'_> {
    /// A view of this snapshot that borrows its lists (a checkpoint
    /// encodes through one without copying them).
    pub(crate) fn borrowed(&self) -> ShardSnapshot<'_> {
        ShardSnapshot {
            tau: self.tau,
            group: self.group,
            deadline_ms: self.deadline_ms,
            clients: Cow::Borrowed(&self.clients),
            tasks: Cow::Borrowed(&self.tasks),
        }
    }

    /// Appends the snapshot's encoding to `out` (length-delimited, so
    /// the checkpoint codec can keep parsing after it).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let Ok(()) = self.encode_with(out, &mut |_| Ok::<(), Infallible>(()));
    }

    /// The one snapshot encoder: appends the encoding to `out` and hands
    /// `out` to `spill` after every shard state, so a sink that writes
    /// and clears it holds one state's encoding at a time, never the
    /// map. [`ShardSnapshot::encode_into`] is the sink that keeps it all.
    ///
    /// # Errors
    ///
    /// The first error `spill` returns; encoding stops there.
    pub(crate) fn encode_with<E>(
        &self,
        out: &mut Vec<u8>,
        spill: &mut impl FnMut(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        out.extend_from_slice(&(self.tau as u32).to_le_bytes());
        out.extend_from_slice(&(self.group as u32).to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&(self.clients.len() as u32).to_le_bytes());
        for c in self.clients.iter() {
            out.extend_from_slice(&(c.original_len as u64).to_le_bytes());
            for shard in 0..self.tau {
                out.extend_from_slice(&(c.model.sizes()[shard] as u64).to_le_bytes());
                put_rows(out, c.removed[shard].iter().map(|&r| r as u64));
                serialize::params_write_into(out, c.model.shard_state(shard));
                spill(out)?;
            }
        }
        out.extend_from_slice(&(self.tasks.len() as u32).to_le_bytes());
        for t in self.tasks.iter() {
            out.extend_from_slice(&(t.client_id as u64).to_le_bytes());
            out.extend_from_slice(&(t.shard as u32).to_le_bytes());
            put_rows(out, t.rows.iter().map(|&r| r as u64));
        }
        Ok(())
    }
}

impl ShardSnapshot<'static> {
    /// Decodes a snapshot from the front of `b`, returning it plus the
    /// bytes consumed. `None` = truncated/malformed.
    pub(crate) fn decode(b: &[u8]) -> Option<(Self, usize)> {
        let total = b.len();
        let mut c = Reader { b };
        let tau = c.u32()? as usize;
        if tau == 0 {
            return None;
        }
        let group = c.u32()? as usize;
        let deadline_ms = c.u64()?;
        let n_clients = c.u32()? as usize;
        let mut clients = Vec::with_capacity(n_clients.min(1 << 16));
        for _ in 0..n_clients {
            let original_len = c.u64()? as usize;
            let mut sizes = Vec::with_capacity(tau);
            let mut removed = Vec::with_capacity(tau);
            let mut states = Vec::with_capacity(tau);
            for _ in 0..tau {
                sizes.push(c.u64()? as usize);
                removed.push(c.rows()?);
                states.push(c.f32s()?);
            }
            clients.push(ClientShards {
                model: ShardedLocalModel::new(states, sizes),
                removed,
                original_len,
            });
        }
        let n_tasks = c.u32()? as usize;
        let mut tasks = Vec::with_capacity(n_tasks.min(1 << 16));
        for _ in 0..n_tasks {
            let client_id = c.u64()? as usize;
            let shard = c.u32()? as usize;
            tasks.push(ShardTask {
                client_id,
                shard,
                rows: c.rows()?,
            });
        }
        let used = total - c.b.len();
        Some((
            ShardSnapshot {
                tau,
                group,
                deadline_ms,
                clients: Cow::Owned(clients),
                tasks: Cow::Owned(tasks),
            },
            used,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(tau: usize, group: usize) -> ShardPolicy {
        ShardPolicy {
            tau,
            group,
            deadline_ms: 0,
        }
    }

    fn seeded_state(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((seed.wrapping_mul(31).wrapping_add(i as u64) % 97) as f32) * 0.13 - 3.0)
            .collect()
    }

    #[test]
    fn routing_splits_by_residue_and_skips_tombstones() {
        let mut map = ShardMap::new(policy(3, 2), &[10, 7], &[0.0f32; 4]);
        let routed = map.route(0, &[0, 3, 4, 7, 4]);
        // 0,3 → shard 0; 4,7 → shard 1; dup 4 deduped.
        assert_eq!(routed, vec![(0, vec![0, 3]), (1, vec![4, 7])]);
        map.apply_retrain(0, 0, vec![1.0; 4], &[0, 3]);
        // Already-tombstoned rows drop out; shard 0 contributes nothing.
        assert_eq!(map.route(0, &[0, 3, 6]), vec![(0, vec![6])]);
        assert_eq!(map.remaining(0), 8);
    }

    #[test]
    fn keep_rows_excludes_tombstones_and_extras() {
        let map = ShardMap::new(policy(2, 1), &[9], &[0.0f32; 2]);
        // Shard 1 holds odd rows 1,3,5,7.
        assert_eq!(map.keep_rows(0, 1, &[3]), vec![1, 5, 7]);
    }

    #[test]
    fn queue_merges_per_shard_keeping_fifo_position() {
        let mut q = ShardTaskQueue::new();
        q.submit(ShardTask::new(0, 1, vec![3]));
        q.submit(ShardTask::new(1, 0, vec![2]));
        q.submit(ShardTask::new(0, 1, vec![5, 3]));
        assert_eq!(q.len(), 2);
        assert_eq!(q.merged(), 1);
        assert_eq!(q.pending()[0], ShardTask::new(0, 1, vec![3, 5]));
        // drain_batch removes merge targets.
        let first = q.drain_batch(1);
        assert_eq!(first[0].client_id, 0);
        q.submit(ShardTask::new(0, 1, vec![7]));
        assert_eq!(q.len(), 2, "drained task is no longer a merge target");
        // Remainder requeues at the front.
        q.requeue_front(first);
        assert_eq!(q.pending()[0], ShardTask::new(0, 1, vec![3, 5]));
    }

    #[test]
    fn parity_reconstruction_is_bitwise_exact() {
        let dim = 6;
        let mut map = ShardMap::new(policy(2, 3), &[8, 8, 8, 8], &seeded_state(1, dim));
        // Mutate states so members differ, including updates that move
        // parity.
        map.apply_retrain(0, 0, seeded_state(7, dim), &[0]);
        map.apply_retrain(1, 1, seeded_state(9, dim), &[1]);
        map.apply_retrain(2, 0, seeded_state(11, dim), &[2]);
        for client in 0..3 {
            let rec = map.reconstruct(client);
            for (shard, rec_shard) in rec.iter().enumerate().take(2) {
                let want: Vec<u32> = map
                    .client(client)
                    .model
                    .shard_state(shard)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u32> = rec_shard.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "client {client} shard {shard}");
            }
        }
        // The last (singleton) group reconstructs trivially too.
        let rec = map.reconstruct(3);
        assert_eq!(rec[0], map.client(3).model.shard_state(0));
    }

    #[test]
    fn snapshot_roundtrips_bitwise_with_trailing_bytes() {
        let mut map = ShardMap::new(policy(2, 2), &[5, 6], &seeded_state(3, 4));
        map.apply_retrain(1, 0, seeded_state(5, 4), &[2, 4]);
        let tasks = vec![ShardTask::new(0, 1, vec![1, 3])];
        let snap = map.snapshot(&tasks);
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        let tail_marker = bytes.len();
        bytes.extend_from_slice(b"TRAILER");
        let (back, used) = ShardSnapshot::decode(&bytes).unwrap();
        assert_eq!(used, tail_marker);
        assert_eq!(back.tasks, tasks);
        let restored = ShardMap::restore(back);
        for id in 0..2 {
            assert_eq!(
                restored.client(id).model.sizes(),
                map.client(id).model.sizes()
            );
            assert_eq!(restored.client(id).removed, map.client(id).removed);
            for shard in 0..2 {
                let a: Vec<u32> = restored
                    .client(id)
                    .model
                    .shard_state(shard)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let b: Vec<u32> = map
                    .client(id)
                    .model
                    .shard_state(shard)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(a, b);
            }
        }
        // Parity rebuilt identically: reconstruction still exact.
        assert_eq!(restored.reconstruct(0), map.reconstruct(0));
        // Truncation never parses.
        for cut in 0..tail_marker {
            assert!(ShardSnapshot::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }
}
