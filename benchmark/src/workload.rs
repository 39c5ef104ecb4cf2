//! The four workloads: their specs, the federation each one builds
//! through the public serving API, and the seeded op schedule of one
//! cycle. Everything here is a pure function of `--seed`; the library
//! only ever sees generated inputs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::ModelFactory;
use goldfish_nn::zoo;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::durability::DurableStore;
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::fleet::{run_fleet, FleetReport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardPolicy;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::WorkerRuntime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Tracer;

/// Training rounds every set-up runs before anything is timed.
pub const PRETRAIN_ROUNDS: usize = 6;
/// Server-side held-out samples (`test_acc` resolves 1/400).
pub const TEST_SAMPLES: usize = 400;
/// Shards per client (τ) of `unlearn_shard`.
pub const TAU: usize = 4;
/// Redundancy-group width of `unlearn_shard`.
const GROUP: usize = 2;
/// Drain deadline of `unlearn_shard`, below the scripted lateness so
/// every request to the straggler takes the coded degraded path.
const DEADLINE_MS: u64 = 400;
const STRAGGLE_MS: u64 = 500;
/// Rows per deletion request.
const DISTILL_ROWS: usize = 2;
const SHARD_ROWS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    /// LeNet-5 on 1×28×28 (34,622 parameters) — the paper's MNIST model.
    LeNet5,
    /// MLP 784→128→10 (101,770 parameters, 407 KB frames).
    Mlp,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Cycle = one training round.
    Train,
    /// Cycle = round, then one Goldfish distillation deletion.
    Distill,
    /// Cycle = round, then a burst of shard-routed deletions + one drain.
    Shard,
}

/// One workload: what it builds and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    pub kind: Kind,
    pub clients: usize,
    pub per_client: usize,
    pub batch: usize,
    pub tcp: bool,
    pub store: bool,
    /// `test_acc` below this fails the run.
    pub acc_floor: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "lenet_train",
        why: "LeNet-5 rounds over loopback, no store: kernels, nn runtime and pool dispatch are >90% of the work",
        model: Model::LeNet5,
        kind: Kind::Train,
        clients: 8,
        per_client: 200,
        batch: 25,
        tcp: false,
        store: false,
        acc_floor: 0.95,
    },
    Spec {
        name: "fanout_tcp",
        why: "64 tiny-compute workers on real sockets with 407 KB frames: codec, reactor and aggregation fold dominate",
        model: Model::Mlp,
        kind: Kind::Train,
        clients: 64,
        per_client: 2,
        batch: 2,
        tcp: true,
        store: false,
        acc_floor: 0.70,
    },
    Spec {
        name: "unlearn_distill",
        why: "request-then-distil deletions under durability: core loss/distillation plus WAL, audit and checkpoint fsyncs",
        model: Model::LeNet5,
        kind: Kind::Distill,
        clients: 4,
        per_client: 200,
        batch: 25,
        tcp: false,
        store: true,
        acc_floor: 0.80,
    },
    Spec {
        name: "unlearn_shard",
        why: "the same job via shard retrains with a straggler: dedupe/merge, XOR-parity degraded drains, big shard checkpoints",
        model: Model::LeNet5,
        kind: Kind::Shard,
        clients: 8,
        per_client: 200,
        batch: 25,
        tcp: false,
        store: true,
        acc_floor: 0.80,
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn factory(&self) -> ModelFactory {
        match self.model {
            Model::LeNet5 => Arc::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                zoo::lenet5(1, 28, 28, 10, &mut rng)
            }),
            Model::Mlp => Arc::new(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                zoo::mlp(784, &[128], 10, &mut rng)
            }),
        }
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            local_epochs: 1,
            batch_size: self.batch,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// The distillation settings that keep accuracy after repeated
    /// deletions (each drain re-initialises the global model and
    /// distils it back): 2 rounds × 2 local epochs.
    pub fn unlearn_method(&self) -> (GoldfishUnlearning, usize) {
        let local = GoldfishLocalConfig {
            epochs: 2,
            batch_size: self.batch,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        };
        (GoldfishUnlearning::default().with_local(local), 2)
    }

    pub fn shard_policy(&self) -> ShardPolicy {
        ShardPolicy {
            tau: TAU,
            group: GROUP,
            deadline_ms: DEADLINE_MS,
        }
    }

    /// `(client shards, test set)`, deterministic in `seed`.
    pub fn data(&self, seed: u64) -> (Vec<Dataset>, Dataset) {
        let (train, test) = synthetic::generate(
            &SyntheticSpec::mnist(),
            self.clients * self.per_client,
            TEST_SAMPLES,
            seed,
        );
        let shards = (0..self.clients)
            .map(|id| {
                let rows: Vec<usize> = (id * self.per_client..(id + 1) * self.per_client).collect();
                train.subset(&rows)
            })
            .collect();
        (shards, test)
    }

    pub fn coordinator_config(
        &self,
        seed: u64,
        telemetry: Option<Arc<ServeTelemetry>>,
    ) -> CoordinatorConfig {
        let (method, unlearn_rounds) = self.unlearn_method();
        let cfg = CoordinatorConfig {
            train: self.train_config(),
            method,
            unlearn_rounds,
            init_seed: seed.wrapping_add(1),
            // The daemons' default: the pool is `available_parallelism`.
            threads: None,
            telemetry,
            ..CoordinatorConfig::default()
        };
        if self.kind == Kind::Shard {
            cfg.with_shards(self.shard_policy())
        } else {
            cfg
        }
    }
}

/// A state directory removed when dropped.
pub struct StateDir(pub PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a run may write: state directories and the span file live under
/// `out_dir`, which defaults to a directory beside the executable — inside
/// the checkout's build directory, so the benchmark never writes outside
/// the checkout whatever the cwd is.
pub struct Env {
    pub out_dir: PathBuf,
    /// `Some` on traced runs: the catalog the coordinator records into
    /// (event ring enabled), read back for the registry metrics.
    pub telemetry: Option<Arc<ServeTelemetry>>,
}

impl Env {
    pub fn fresh_state_dir(&self) -> StateDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = self
            .out_dir
            .join(format!("state-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }
}

/// The seeded deletion schedule and the bookkeeping the post-window
/// checks compare the coordinator against.
pub struct Schedule {
    rng: StdRng,
    /// Rows removed so far, per client.
    pub removed: Vec<usize>,
    /// Next fresh row slot per `(client, shard)` (shard mode addresses
    /// the original ordering forever, so rows must never repeat).
    cursor: Vec<[usize; TAU]>,
    /// Deletion requests the coordinator acknowledged.
    pub submitted: usize,
    /// Acknowledged requests expected to merge into a pending one.
    pub merged: usize,
    /// Shard tasks expected to drain degraded (owner = the straggler).
    pub degraded: usize,
}

impl Schedule {
    fn new(spec: &Spec, seed: u64) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(seed ^ 0xD31E_7E5C_4ED0_0001),
            removed: vec![0; spec.clients],
            cursor: vec![[0; TAU]; spec.clients],
            submitted: 0,
            merged: 0,
            degraded: 0,
        }
    }

    /// `DISTILL_ROWS` distinct live rows of the cycle's client. Distilled
    /// deletions shrink the dataset, so any in-range index is fresh.
    fn distill_request(&mut self, spec: &Spec, cycle: usize) -> UnlearnRequest {
        let client = cycle % spec.clients;
        let len = spec.per_client - self.removed[client];
        // A random start and random strides; `UnlearnRequest::new` dedups
        // should two ever land on one row.
        let first = self.rng.gen_range(0..len);
        let rows = (0..DISTILL_ROWS)
            .map(|j| (first + j * (1 + self.rng.gen_range(0..len / DISTILL_ROWS))) % len)
            .collect();
        UnlearnRequest::new(client, rows)
    }

    /// `SHARD_ROWS` never-used rows of one `(client, shard)`; fewer (or
    /// none) once that shard's rows are exhausted.
    fn shard_rows(&mut self, spec: &Spec, client: usize, shard: usize) -> Vec<usize> {
        let capacity = (spec.per_client - shard).div_ceil(TAU);
        let from = self.cursor[client][shard];
        let to = (from + SHARD_ROWS).min(capacity);
        self.cursor[client][shard] = to;
        (from..to).map(|j| shard + TAU * j).collect()
    }
}

/// A built federation plus the schedule cursors the cycles advance.
pub struct Fed<T: ServeTransport> {
    pub coord: Coordinator<T>,
    fleet: Option<JoinHandle<Result<FleetReport, String>>>,
    pub state_dir: Option<StateDir>,
    /// Next training round index.
    pub round: usize,
    /// Next cycle index.
    pub cycle: usize,
    pub sched: Schedule,
    /// Wall time of the 64-worker accept/handshake (TCP only).
    pub accept_ms: f64,
}

impl<T: ServeTransport> Fed<T> {
    /// Sends the goodbye frames, drops the coordinator (closing the
    /// store) and joins the fleet thread. The state directory survives
    /// in the returned guard for the recovery check.
    pub fn teardown(mut self) -> (Option<StateDir>, Option<Result<FleetReport, String>>) {
        self.coord.transport_mut().shutdown();
        drop(self.coord);
        let report = self.fleet.take().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("fleet thread panicked".into()))
        });
        (self.state_dir.take(), report)
    }
}

/// Per-op outcomes of a measured window.
#[derive(Default)]
pub struct Recorder {
    pub round_ms: Vec<f64>,
    /// Submit call start → drain returned committed (for a burst: from
    /// its first submit).
    pub deletion_ms: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    /// Test accuracy the library reported after each distillation drain's
    /// last round.
    pub drain_acc: Vec<f64>,
    /// Deletion requests committed by a drain.
    pub committed: usize,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Recorder {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Attaches a fresh durable store (store workloads), runs the
/// pretraining rounds and one untimed warm-up cycle.
fn finish_setup<T: ServeTransport>(
    spec: &Spec,
    seed: u64,
    env: &Env,
    coord: Coordinator<T>,
    fleet: Option<JoinHandle<Result<FleetReport, String>>>,
    accept_ms: f64,
) -> Result<Fed<T>, String> {
    let mut fed = Fed {
        coord,
        fleet,
        state_dir: None,
        round: 0,
        cycle: 0,
        sched: Schedule::new(spec, seed),
        accept_ms,
    };
    if spec.store {
        let dir = env.fresh_state_dir();
        let (store, recovered) = DurableStore::open(&dir.0).map_err(|e| e.to_string())?;
        fed.coord
            .attach_durability(store, recovered)
            .map_err(|e| e.to_string())?;
        fed.state_dir = Some(dir);
    }
    for _ in 0..PRETRAIN_ROUNDS {
        fed.coord
            .train_round_hot(fed.round, round_seed(seed, fed.round))
            .map_err(|e| format!("pretraining round {}: {e}", fed.round))?;
        fed.round += 1;
    }
    if spec.kind != Kind::Train {
        // Warm-up cycle: lazy shard-map build, first WAL/audit/checkpoint
        // writes and the distillation arenas all happen before timing.
        let mut warm = Recorder::default();
        run_cycle(&mut fed, spec, seed, &mut Tracer::new(false), &mut warm);
        if warm.failed > 0 {
            return Err(format!("warm-up cycle failed: {:?}", warm.errors));
        }
    }
    Ok(fed)
}

pub fn build_loopback(spec: &Spec, seed: u64, env: &Env) -> Result<Fed<LoopbackTransport>, String> {
    let (shards, test) = spec.data(seed);
    let transport = LoopbackTransport::new(spec.factory(), shards, None);
    let coord = Coordinator::new(
        spec.factory(),
        test,
        transport,
        spec.coordinator_config(seed, env.telemetry.clone()),
    );
    finish_setup(spec, seed, env, coord, None, 0.0)
}

/// The shard workloads' transport: loopback behind the fault harness, with
/// `straggler` (if any) scripted late past the drain deadline.
pub fn shard_transport(
    spec: &Spec,
    shards: Vec<Dataset>,
    straggler: Option<usize>,
) -> FaultyTransport<LoopbackTransport> {
    let plan = match straggler {
        Some(c) => FaultPlan::new().byzantine(c, ByzantineScript::Straggle { ms: STRAGGLE_MS }),
        None => FaultPlan::new(),
    };
    FaultyTransport::new(LoopbackTransport::new(spec.factory(), shards, None), plan)
}

/// `unlearn_shard`: the last client is the straggler.
pub fn build_shard(
    spec: &Spec,
    seed: u64,
    env: &Env,
) -> Result<Fed<FaultyTransport<LoopbackTransport>>, String> {
    let (shards, test) = spec.data(seed);
    let coord = Coordinator::new(
        spec.factory(),
        test,
        shard_transport(spec, shards, Some(spec.clients - 1)),
        spec.coordinator_config(seed, env.telemetry.clone()),
    );
    finish_setup(spec, seed, env, coord, None, 0.0)
}

/// Real `127.0.0.1:0` sockets: every worker runtime is hosted by
/// `run_fleet` on one extra thread, the coordinator's reactor owns the
/// other end.
pub fn build_tcp(spec: &Spec, seed: u64, env: &Env) -> Result<Fed<TcpTransport>, String> {
    let (shards, test) = spec.data(seed);
    let (listener, addr) = bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let factory = spec.factory();
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| WorkerRuntime::new(id, factory.clone(), shard))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).map_err(|e| e.to_string())
    });
    let state_len = (spec.factory())(0).state_len();
    let t = Instant::now();
    let accepted = TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default());
    let accept_ms = ms_since(t);
    let transport = match accepted {
        Ok(t) => t,
        Err(e) => {
            // Closing the listener ends the fleet's dial loop.
            drop(listener);
            let _ = fleet.join();
            return Err(format!("fleet handshake: {e}"));
        }
    };
    let coord = Coordinator::new(
        spec.factory(),
        test,
        transport,
        spec.coordinator_config(seed, env.telemetry.clone()),
    );
    finish_setup(spec, seed, env, coord, Some(fleet), accept_ms)
}

/// The `(client, shard)` targets of one `unlearn_shard` burst. Three
/// clients rotate through the fleet; the fourth request hits the first
/// one's client and shard again, so it merges into the pending task
/// instead of queueing a second retrain. The shard index advances once
/// more every time the client rotation wraps, so each client's deletions
/// spread over all its shards instead of draining one of them.
fn shard_burst(spec: &Spec, cycle: usize) -> [(usize, usize); 4] {
    let c = spec.clients;
    let shard = cycle + cycle / c;
    [
        ((3 * cycle) % c, shard % TAU),
        ((3 * cycle + 1) % c, (shard + 1) % TAU),
        ((3 * cycle + 2) % c, (shard + 2) % TAU),
        ((3 * cycle) % c, shard % TAU),
    ]
}

/// One closed-loop cycle of the workload: a training round, then (on the
/// unlearn workloads) the cycle's deletion requests and one drain. Every
/// op is counted in `attempted`; an op that errors is a failed op.
pub fn run_cycle<T: ServeTransport>(
    fed: &mut Fed<T>,
    spec: &Spec,
    seed: u64,
    tr: &mut Tracer,
    rec: &mut Recorder,
) {
    let op = fed.cycle as i64;
    let cycle_start = Instant::now();
    let round = fed.round;

    let span = tr.begin("round", op);
    let t = Instant::now();
    let outcome = fed.coord.train_round_hot(round, round_seed(seed, round));
    let round_ms = ms_since(t);
    tr.end(span);
    rec.attempted += 1;
    match outcome {
        Ok(()) => {
            rec.round_ms.push(round_ms);
            fed.round += 1;
        }
        Err(e) => rec.fail(format!("round {round}: {e}")),
    }

    match spec.kind {
        Kind::Train => {}
        Kind::Distill => {
            let req = fed.sched.distill_request(spec, fed.cycle);
            let (client, rows) = (req.client_id, req.removed.len());
            rec.attempted += 1;
            let t = Instant::now();
            let span = tr.begin("submit", op);
            let submitted = fed.coord.submit_unlearn(req);
            tr.end(span);
            let span = tr.begin("drain", op);
            let drained = fed.coord.drain_unlearning(drain_seed(seed, round));
            let deletion_ms = ms_since(t);
            tr.end(span);
            match (submitted, drained) {
                (Ok(()), Ok(Some(summary))) if summary.requests.len() == 1 => {
                    fed.sched.submitted += 1;
                    fed.sched.removed[client] += rows;
                    rec.committed += 1;
                    rec.deletion_ms.push(deletion_ms);
                    rec.drain_acc.extend(summary.round_accuracies.last());
                }
                (s, d) => rec.fail(format!(
                    "deletion in cycle {op}: submit {s:?}, drain {:?}",
                    d.map(|o| o.map(|u| u.requests.len()))
                )),
            }
        }
        Kind::Shard => {
            let targets = shard_burst(spec, fed.cycle);
            let straggler = spec.clients - 1;
            let t = Instant::now();
            let mut acked = 0;
            let mut tasks = std::collections::BTreeSet::new();
            for (client, shard) in targets {
                let rows = fed.sched.shard_rows(spec, client, shard);
                if rows.is_empty() {
                    continue;
                }
                let n = rows.len();
                rec.attempted += 1;
                let span = tr.begin("submit", op);
                let submitted = fed.coord.submit_unlearn(UnlearnRequest::new(client, rows));
                tr.end(span);
                match submitted {
                    Ok(()) => {
                        acked += 1;
                        fed.sched.submitted += 1;
                        fed.sched.removed[client] += n;
                        if !tasks.insert((client, shard)) {
                            fed.sched.merged += 1;
                        } else if client == straggler {
                            fed.sched.degraded += 1;
                        }
                    }
                    Err(e) => rec.fail(format!("submit in cycle {op}: {e}")),
                }
            }
            let span = tr.begin("drain", op);
            let drained = fed.coord.drain_shard_tasks(drain_seed(seed, round));
            let deletion_ms = ms_since(t);
            tr.end(span);
            match drained {
                Ok(Some(s)) if s.requeued == 0 && s.completed.len() == tasks.len() => {
                    rec.committed += acked;
                    rec.deletion_ms.push(deletion_ms);
                }
                Ok(None) if tasks.is_empty() => {}
                other => {
                    // The burst's requests were acknowledged but not served.
                    for _ in 0..acked.max(1) {
                        rec.fail(format!("drain in cycle {op}: {other:?}"));
                    }
                }
            }
        }
    }
    rec.cycle_ms.push(ms_since(cycle_start));
    fed.cycle += 1;
}

/// The executable's directory: inside the checkout's build directory.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("goldfish-benchmark-out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed_and_rows_stay_fresh() {
        let spec = spec_by_name("unlearn_shard").unwrap();
        let mut a = Schedule::new(spec, 7);
        let mut b = Schedule::new(spec, 7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let rows = a.shard_rows(spec, 3, 2);
            assert_eq!(rows, b.shard_rows(spec, 3, 2));
            for r in rows {
                assert!(r < spec.per_client && r % TAU == 2);
                assert!(seen.insert(r), "row {r} handed out twice");
            }
        }
        // 50 rows of shard 2 exist; the schedule stops handing them out.
        assert_eq!(seen.len(), spec.per_client / TAU);

        // 64 bursts touch every (client, shard) pair equally often, and the
        // fourth target always repeats the first.
        let mut hits = std::collections::BTreeMap::new();
        for cycle in 0..64 {
            let burst = shard_burst(spec, cycle);
            assert_eq!(burst[3], burst[0]);
            for target in burst {
                *hits.entry(target).or_insert(0) += 1;
            }
        }
        assert_eq!(hits.len(), spec.clients * TAU);
        assert!(hits.values().all(|&n| n == 64 * 4 / (spec.clients * TAU)));

        let spec = spec_by_name("unlearn_distill").unwrap();
        let (mut a, mut b) = (Schedule::new(spec, 9), Schedule::new(spec, 9));
        for cycle in 0..20 {
            let (ra, rb) = (
                a.distill_request(spec, cycle),
                b.distill_request(spec, cycle),
            );
            assert_eq!(ra, rb);
            assert_eq!(ra.client_id, cycle % spec.clients);
            assert_eq!(ra.removed.len(), DISTILL_ROWS, "two distinct rows");
        }
        assert_ne!(
            Schedule::new(spec, 1).distill_request(spec, 0),
            Schedule::new(spec, 2).distill_request(spec, 0)
        );
    }
}
