//! `goldfish-serve` — the networked federation layer (DESIGN.md §10).
//!
//! PRs 1–3 built the Goldfish stack as a single-process library; this
//! crate turns it into a client/server system on plain `std::net`:
//!
//! * [`wire`] — the versioned, length-prefixed binary protocol
//!   ([`wire::Msg`] frames riding `goldfish_tensor::serialize`'s bulk
//!   f32 codec, with explicit max-frame-size and version checks),
//! * [`tcp`] — the coordinator-side [`tcp::TcpTransport`] implementing
//!   `goldfish_fed::transport::RoundTransport` and
//!   `goldfish_core::transport::DistillTransport`: a single-threaded
//!   readiness reactor (DESIGN.md §14) owning every worker socket
//!   behind one `polling`-style poller — non-blocking framed I/O with
//!   per-connection state machines, per-client deadlines enforced via
//!   the poll timeout, and reply-handler panics contained to typed
//!   per-client failures,
//! * [`nio`] — the resumable non-blocking frame
//!   reader/writer state machines the reactor and fleet host drive, and
//!   the `nio::FramePool` both lease their frame buffers from,
//! * [`fleet`] — [`fleet::run_fleet`]: any number of worker runtimes
//!   served from one thread behind one poller (the 4096-connection
//!   bench harness),
//! * [`transport`] — the in-process [`transport::LoopbackTransport`]:
//!   the same contract over `goldfish_fed`'s/`goldfish_core`'s loopback
//!   executors, the reference every TCP run is bitwise-checked against,
//! * [`worker`] — the worker-side state machine
//!   ([`worker::WorkerRuntime`]) and connection loop shared by the
//!   `goldfish-worker` daemon and the tests,
//! * [`queue`] — the one FIFO pending-deletion queue
//!   ([`queue::MergeQueue`]; `queue::UnlearnQueue` dedupes per client),
//!   drained between training rounds (the paper's request-then-retrain
//!   flow),
//! * [`shard`] — shard-isolated unlearning (DESIGN.md §16): the
//!   coordinator-owned [`shard::ShardMap`] (Eqs 8–10 mirrors +
//!   tombstones), the same queue keyed by `(client, shard)`, and the XOR
//!   parity groups backing deadline-degraded drains,
//! * [`coordinator`] — the [`coordinator::Coordinator`]: owns the global
//!   state and the queue, drives training rounds and unlearning requests
//!   over any transport, with straggler drop + re-round,
//!   arrival-order-independent aggregation, and deterministic seeded
//!   cohort sampling (`cohort_fraction`, DESIGN.md §14),
//! * [`demo`] — the deterministic demo workload both daemons derive
//!   from `(seed, clients, samples)` so they agree on data without any
//!   file exchange,
//! * [`durability`] — crash safety (DESIGN.md §12): versioned,
//!   checksummed, atomically-renamed checkpoints plus a write-ahead log
//!   for the unlearning queue (fsync-before-ack), replayed on restart
//!   so a recovered coordinator resumes the exact round stream,
//! * [`audit`] — the hash-chained append-only log of served unlearning
//!   requests (`goldfish-coordinator --verify-audit` re-walks it),
//! * [`digest`] — dependency-free SHA-256 backing checkpoints, the WAL,
//!   the audit chain and the `Digest` wire frame,
//! * [`fault`] — the seeded fault-injection harness
//!   ([`fault::FaultyTransport`]) the crash-kill-restart tests drive,
//! * [`telemetry`] — the observability surface (DESIGN.md §15): the
//!   preregistered metric catalog ([`telemetry::ServeTelemetry`])
//!   threaded through the round loop, the TCP reactor, the queue and
//!   the durable store — zero allocation on the steady-state path,
//!   never on the numeric path,
//! * [`admin`] — the read-only `--metrics-addr` endpoint serving the
//!   registry as Prometheus text, JSON and a status table.
//!
//! Daemons: `goldfish-coordinator` and `goldfish-worker` (see the root
//! README for a quickstart); `goldfish-benchmark`'s `fanout_tcp`
//! workload measures rounds/sec and wire bytes/round over real sockets
//! beside a loopback twin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod audit;
mod codec;
pub mod coordinator;
pub mod demo;
pub mod digest;
pub mod durability;
pub mod fault;
pub mod fleet;
pub mod nio;
pub mod queue;
pub mod shard;
pub mod tcp;
pub mod telemetry;
pub mod transport;
pub mod wire;
pub mod worker;
