//! One benchmark run: set-up → checks → one fixed timed window →
//! checks → teardown, in a closed loop with a single driver (the
//! coordinator is a synchronous single-caller API, so that is the real
//! traffic shape).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use goldfish_serve::audit::{self, audit_kind};
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator};
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::ServeTransport;
use goldfish_telemetry::clock::Clock;
use goldfish_telemetry::events::Trace;

use crate::catalog::END_TO_END;
use crate::layers::{self, Cells, Observed};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::{
    build_loopback, build_shard, build_tcp, run_cycle, shard_transport, Env, Fed, Kind, Recorder,
    Spec, PRETRAIN_ROUNDS,
};

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median (3, or 1 with `--quick`).
    pub setup_repeats: usize,
    pub out_dir: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub threads: usize,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Sample counts behind `round_p50_ms` / `deletion_p50_ms`.
    pub rounds: usize,
    pub deletions: usize,
    /// Every end-to-end metric that exists on this workload.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub span_file: Option<PathBuf>,
}

/// Correctness checks; each one is an attempted op of the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        check: impl FnOnce() -> Result<(), String>,
    ) {
        let span = tr.begin(name, -1);
        let outcome = check();
        tr.end(span);
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(format!("{name}: {e}"));
        }
    }
}

/// Process user+system CPU time in milliseconds (`/proc/self/stat`
/// fields 14 and 15, in clock ticks; Linux's USER_HZ is 100). Covers
/// every thread, including pool threads that already exited.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn bits(state: &[f32]) -> Vec<u32> {
    state.iter().map(|v| v.to_bits()).collect()
}

/// One measured window.
pub struct Window {
    pub rec: Recorder,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub wire_bytes: u64,
}

/// Runs cycles back to back until `seconds` have elapsed (a cycle that
/// started inside the window finishes; throughput divides by the time the
/// cycles really took). Stops early on the first failed op: a coordinator
/// that errors once is not measuring steady state any more.
///
/// With a `baseline` federation (traced runs) the two alternate cycle by
/// cycle, each for `seconds` of its own cycles, so both see the same
/// weather: their difference is the tracing overhead, not the minute.
pub fn measure_window<T: ServeTransport>(
    fed: &mut Fed<T>,
    mut baseline: Option<&mut Fed<T>>,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> (Window, Option<Window>) {
    fn lane<T: ServeTransport>(
        fed: &mut Fed<T>,
        w: &mut Window,
        spec: &Spec,
        seed: u64,
        tr: &mut Tracer,
    ) {
        let (cpu0, t0) = (cpu_ms(), Instant::now());
        run_cycle(fed, spec, seed, tr, &mut w.rec);
        w.wall_s += t0.elapsed().as_secs_f64();
        w.cpu_ms += cpu_ms() - cpu0;
    }
    let empty = || Window {
        rec: Recorder::default(),
        wall_s: 0.0,
        cpu_ms: 0.0,
        wire_bytes: 0,
    };
    let wire = |f: &Fed<T>| f.coord.transport().wire_stats().total();
    let (wire0, base_wire0) = (wire(fed), baseline.as_deref().map(wire));
    let (mut w, mut base) = (empty(), baseline.as_ref().map(|_| empty()));
    let mut off = Tracer::new(false);
    while w.wall_s < seconds && w.rec.failed == 0 {
        if let (Some(b), Some(bw)) = (baseline.as_deref_mut(), base.as_mut()) {
            lane(b, bw, spec, seed, &mut off);
        }
        lane(fed, &mut w, spec, seed, tr);
    }
    w.wire_bytes = wire(fed) - wire0;
    if let (Some(b), Some(bw), Some(w0)) = (baseline.as_deref(), base.as_mut(), base_wire0) {
        bw.wire_bytes = wire(b) - w0;
    }
    (w, base)
}

/// `unlearn_shard`'s identity gate: a degraded drain (owner straggling
/// past the deadline → XOR-parity reconstruction + delegate) must commit
/// the exact bits of a healthy drain. Run on one redundancy group (two
/// clients) of the workload's own model and shard policy.
fn check_degraded_equals_healthy(spec: &Spec, seed: u64) -> Result<(), String> {
    let small = Spec {
        clients: 2,
        ..*spec
    };
    let run = |straggler: Option<usize>| -> Result<(Vec<u32>, usize), String> {
        let (shards, test) = small.data(seed);
        let mut c = Coordinator::new(
            small.factory(),
            test,
            shard_transport(&small, shards, straggler),
            small.coordinator_config(seed, None),
        );
        c.train_round_hot(0, round_seed(seed, 0))
            .map_err(|e| e.to_string())?;
        c.submit_unlearn(UnlearnRequest::new(1, vec![1, 5, 9]))
            .map_err(|e| e.to_string())?;
        let summary = c
            .drain_shard_tasks(drain_seed(seed, 0))
            .map_err(|e| e.to_string())?
            .ok_or("nothing drained")?;
        Ok((bits(c.global_state()), summary.degraded.len()))
    };
    let (healthy, h_degraded) = run(None)?;
    let (lame, l_degraded) = run(Some(1))?;
    if h_degraded != 0 || l_degraded == 0 {
        return Err(format!(
            "expected 0 / >0 degraded tasks, got {h_degraded} / {l_degraded}"
        ));
    }
    if healthy != lame {
        return Err("degraded drain diverged from the healthy drain".into());
    }
    Ok(())
}

/// The audit chain verifies and records exactly the served deletions
/// (and, in shard mode, exactly the degraded verdicts the schedule
/// predicts).
pub fn check_audit(
    dir: &std::path::Path,
    expect_served: usize,
    expect_degraded: usize,
) -> Result<(), String> {
    let summary = audit::verify_file(&audit_path(dir)).map_err(|e| e.to_string())?;
    let count = |kind: u8| summary.entries.iter().filter(|e| e.kind == kind).count();
    let (served, degraded) = (
        count(audit_kind::UNLEARN_SERVED),
        count(audit_kind::DEGRADED_DRAIN),
    );
    if (served, degraded) != (expect_served, expect_degraded) {
        return Err(format!(
            "chain holds {served} served / {degraded} degraded entries, schedule says \
             {expect_served} / {expect_degraded}"
        ));
    }
    Ok(())
}

/// Post-window checks on a live federation. Returns `test_acc`.
fn post_checks<T: ServeTransport>(
    fed: &Fed<T>,
    spec: &Spec,
    drain_acc: &[f64],
    checks: &mut Checks,
    tr: &mut Tracer,
) -> f64 {
    let sched = &fed.sched;
    if spec.kind != Kind::Train {
        // Shard mode counts tasks; a merged request adds no task.
        let expect_served = sched.submitted - sched.merged;
        if let Some(dir) = &fed.state_dir {
            checks.run(tr, "check.audit_chain", || {
                check_audit(&dir.0, expect_served, sched.degraded)
            });
        }
        checks.run(tr, "check.served_once", || {
            let served = fed.coord.drain_stats().requests_served;
            let (queued, merged, pending) = if spec.kind == Kind::Shard {
                let q = fed.coord.shard_tasks();
                (q.submitted(), q.merged(), q.len())
            } else {
                let q = fed.coord.queue();
                (q.submitted(), q.merged(), q.len())
            };
            if served != queued - merged || served != expect_served || pending != 0 {
                return Err(format!(
                    "served {served}, queue saw {queued} submits / {merged} merges / \
                     {pending} pending, schedule says {expect_served}"
                ));
            }
            Ok(())
        });
        checks.run(tr, "check.rows_removed", || {
            let live: Vec<usize> = match fed.coord.shard_map() {
                Some(map) => (0..spec.clients).map(|c| map.remaining(c)).collect(),
                None => fed.coord.transport().client_sizes(),
            };
            let want: Vec<usize> = sched.removed.iter().map(|r| spec.per_client - r).collect();
            if live != want {
                return Err(format!("client sizes {live:?}, schedule says {want:?}"));
            }
            Ok(())
        });
    }
    // The model after the last op. A distillation drain re-initialises
    // the global and distils it back, and what that reaches varies from
    // drain to drain (0.75–0.97 here, the odd collapse below 0.5), so the
    // distil workload reports the median over the window's drains of the
    // accuracy `unlearn_over` already evaluates after each one — a
    // reading that does not hinge on which drain the window ended with.
    let acc = if drain_acc.is_empty() {
        fed.coord.global_accuracy()
    } else {
        stats::median_of(drain_acc)
    };
    checks.run(tr, "check.test_acc", || {
        if acc >= spec.acc_floor {
            Ok(())
        } else {
            Err(format!(
                "test accuracy {acc} below floor {}",
                spec.acc_floor
            ))
        }
    });
    acc
}

/// Tears the federation down and runs the checks that need it gone: the
/// fleet's wind-down report and a reopened store recovering the live
/// global bitwise.
fn teardown_checks<T: ServeTransport>(
    fed: Fed<T>,
    spec: &Spec,
    checks: &mut Checks,
    tr: &mut Tracer,
) {
    let live = bits(fed.coord.global_state());
    let round = fed.round;
    let span = tr.begin("teardown", -1);
    let (state_dir, fleet) = fed.teardown();
    tr.end(span);
    if let Some(report) = fleet {
        checks.run(tr, "check.fleet_shutdown", || {
            let r = report?;
            if (r.clean_shutdowns, r.dropped) != (spec.clients, 0) {
                return Err(format!(
                    "{} clean shutdowns, {} dropped of {} workers",
                    r.clean_shutdowns, r.dropped, spec.clients
                ));
            }
            Ok(())
        });
    }
    if let Some(dir) = state_dir {
        checks.run(tr, "check.recovery", || {
            let (_store, rec) = DurableStore::open(&dir.0).map_err(|e| e.to_string())?;
            if !rec.resumed || rec.round_next != round || bits(&rec.global) != live {
                return Err(format!(
                    "reopened store resumed={} at round {} (live {round}), global {}",
                    rec.resumed,
                    rec.round_next,
                    if bits(&rec.global) == live {
                        "equal"
                    } else {
                        "differs"
                    }
                ));
            }
            if (spec.kind == Kind::Shard) != rec.shard.is_some() {
                return Err("shard section presence does not match the mode".into());
            }
            Ok(())
        });
    }
}

pub fn run_workload(spec: &'static Spec, opts: &Opts) -> Result<RunResult, String> {
    match (spec.tcp, spec.kind) {
        (true, _) => drive(spec, opts, build_tcp),
        (false, Kind::Shard) => drive(spec, opts, build_shard),
        (false, _) => drive(spec, opts, build_loopback),
    }
}

type Build<T> = fn(&Spec, u64, &Env) -> Result<Fed<T>, String>;

fn drive<T: ServeTransport>(
    spec: &'static Spec,
    opts: &Opts,
    build: Build<T>,
) -> Result<RunResult, String> {
    let seed = opts.seed;
    let mut tr = Tracer::new(opts.trace);
    let mut checks = Checks::default();
    let plain = Env {
        out_dir: opts.out_dir.clone(),
        telemetry: None,
    };

    // A traced run keeps a first, untraced federation as the baseline
    // `telemetry.overhead_share` is measured against, and builds the
    // measured one with the event ring and harness spans on.
    let mut setup_s = Vec::new();
    let mut baseline = None;
    let mut telemetry = None;
    if opts.trace {
        baseline = Some(build(spec, seed, &plain)?);
        let clock = Clock::system();
        telemetry = Some(Arc::new(ServeTelemetry::new(
            clock.clone(),
            Trace::bounded(4096, clock),
        )));
    }
    let env = Env {
        out_dir: opts.out_dir.clone(),
        telemetry,
    };
    let span = tr.begin("setup", -1);
    let t = Instant::now();
    let mut fed = build(spec, seed, &env)?;
    setup_s.push(t.elapsed().as_secs_f64());
    tr.end(span);

    // Pre-window checks. `fanout_tcp`'s identity gate: the pretraining
    // prefix over real sockets must equal the same schedule over
    // `LoopbackTransport` bitwise. The loopback twin stays alive: a traced
    // run times its rounds beside the socket federation's.
    let mut twin = None;
    if spec.tcp {
        let tcp_bits = bits(fed.coord.global_state());
        checks.run(&mut tr, "check.tcp_identity", || {
            let loopback = Spec {
                tcp: false,
                ..*spec
            };
            let t = build_loopback(&loopback, seed, &plain)?;
            let same = bits(t.coord.global_state()) == tcp_bits;
            twin = Some(t);
            if same {
                Ok(())
            } else {
                Err(format!(
                    "TCP and loopback diverged over the {PRETRAIN_ROUNDS}-round prefix"
                ))
            }
        });
    }
    if spec.kind == Kind::Shard {
        checks.run(&mut tr, "check.degraded_identity", || {
            check_degraded_equals_healthy(spec, seed)
        });
    }

    // The timed window.
    let before = Cells::read(&fed);
    let span = tr.begin("window", -1);
    let (w, baseline_w) = measure_window(
        &mut fed,
        baseline.as_mut(),
        spec,
        seed,
        opts.seconds,
        &mut tr,
    );
    tr.end(span);
    if let Some(b) = baseline {
        b.teardown();
    }
    let observed = Observed::since(&before, &fed, &w);

    let test_acc = post_checks(&fed, spec, &w.rec.drain_acc, &mut checks, &mut tr);
    let rss = peak_rss_mib();

    // Per-layer probes run after the window, before teardown (they read
    // the state directory the window wrote and pair rounds with the twin).
    let layer_metrics = match &baseline_w {
        Some(baseline_w) => layers::collect(
            spec,
            seed,
            &env,
            &mut tr,
            &w,
            baseline_w,
            &observed,
            &mut fed,
            twin.as_mut(),
        )?,
        None => Vec::new(),
    };
    drop(twin);
    teardown_checks(fed, spec, &mut checks, &mut tr);

    // `setup_s` is a median, so an untraced run sets up again — after
    // `VmHWM` was read: memory the allocator keeps from earlier
    // federations made `peak_rss_mib` bimodal (85 or 120 MiB on
    // `unlearn_shard`) when the repeats came first.
    if !opts.trace {
        for _ in 1..opts.setup_repeats {
            let t = Instant::now();
            let again = build(spec, seed, &plain)?;
            setup_s.push(t.elapsed().as_secs_f64());
            again.teardown();
        }
    }

    let rec = &w.rec;
    let cycles = rec.cycle_ms.len().max(1) as f64;
    let rounds = rec.round_ms.len();
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median_of(&setup_s),
            "rounds_per_s" => rounds as f64 / w.wall_s,
            "round_p50_ms" => stats::median_of(&rec.round_ms),
            "round_p10_ms" => stats::p10_of(&rec.round_ms),
            "cycle_p10_ms" => stats::p10_of(&rec.cycle_ms),
            "deletions_per_s" => rec.committed as f64 / w.wall_s,
            "deletion_p50_ms" => stats::median_of(&rec.deletion_ms),
            "deletion_p10_ms" => stats::p10_of(&rec.deletion_ms),
            "cpu_ms_per_op" => w.cpu_ms / cycles,
            "wire_bytes_per_round" => w.wire_bytes as f64 / rounds.max(1) as f64,
            "peak_rss_mib" => rss,
            "test_acc" => test_acc,
            other => unreachable!("metric {other} has no measurement"),
        }
    };
    let mut e2e: Vec<Metric> = END_TO_END
        .iter()
        .filter(|m| (m.applies)(spec) && m.name != "failed_share")
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect();
    // A reading that is not a number is a broken measurement, not a result.
    checks.run(&mut tr, "check.metrics_finite", || {
        match e2e
            .iter()
            .chain(&layer_metrics)
            .find(|m| !m.value.is_finite())
        {
            Some(m) => Err(format!("{} is not finite", m.name)),
            None => Ok(()),
        }
    });
    let attempted = rec.attempted + checks.attempted;
    let failed = rec.failed + checks.failed;
    e2e.push(Metric {
        name: "failed_share",
        value: failed as f64 / attempted as f64,
        unit: "fraction",
    });
    let mut errors = rec.errors.clone();
    errors.extend(checks.errors);

    let span_file = if opts.trace {
        let path = opts.out_dir.join(format!("{}.spans.jsonl", spec.name));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    Ok(RunResult {
        workload: spec.name,
        seed,
        trace: opts.trace,
        seconds: opts.seconds,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        correct: failed == 0,
        attempted,
        failed,
        errors,
        rounds,
        deletions: rec.deletion_ms.len(),
        e2e,
        layers: layer_metrics,
        span_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_serve::coordinator::DrainStats;
    use goldfish_serve::digest;

    /// Two committed drains in a scratch store: the audit check passes,
    /// miscounts are caught, and one flipped byte anywhere in an entry
    /// makes it fail.
    #[test]
    fn audit_check_catches_miscounts_and_a_corrupted_log() {
        let env = Env {
            out_dir: crate::workload::default_out_dir(),
            telemetry: None,
        };
        let dir = env.fresh_state_dir();
        let (mut store, recovered) = DurableStore::open(&dir.0).unwrap();
        assert!(!recovered.resumed);
        let global = vec![0.25f32; 64];
        for serial in 0..2u64 {
            let served = [UnlearnRequest::new(serial as usize, vec![1, 2])];
            store
                .commit_drain(
                    1,
                    serial,
                    &served,
                    &digest::state_digest(1, &global),
                    1,
                    &global,
                    &[],
                    DrainStats::default(),
                )
                .unwrap();
        }
        drop(store);
        assert_eq!(check_audit(&dir.0, 2, 0), Ok(()));
        assert!(
            check_audit(&dir.0, 3, 0).is_err(),
            "a lost deletion must be noticed"
        );
        assert!(
            check_audit(&dir.0, 2, 1).is_err(),
            "a missing degraded verdict too"
        );

        let path = audit_path(&dir.0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = check_audit(&dir.0, 2, 0).unwrap_err();
        assert!(
            !err.contains("schedule says"),
            "must fail in verification: {err}"
        );
    }

    #[test]
    fn proc_readers_return_live_numbers() {
        let before = cpu_ms();
        let mut x = 0u64;
        while cpu_ms() - before < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() > before);
        assert!(peak_rss_mib() > 1.0);
    }
}
