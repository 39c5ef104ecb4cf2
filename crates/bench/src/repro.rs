//! The paper-reproduction catalogue: one row per table/figure of the
//! Goldfish paper, each printing its results as aligned text tables
//! (`DESIGN.md` §4).
//!
//! Twin experiments share one body: Figs 6 and 7 run `sharded_curve`
//! (Fig 6 without the deletion event), Figs 8 and 9 one federation-curve
//! body over an uneven or IID partition, Tables X and XI one checkpointed
//! `train_distill` body over a list of losses, and Fig 5 and Tables VII–IX
//! one `(workload, rate)` cell that runs Ours, B1 and B3.

use std::sync::Arc;
use std::time::Instant;

use goldfish_core::baselines::{state_probs, IncompetentTeacher, RapidRetrain, RetrainFromScratch};
use goldfish_core::basic_model::{network_from_state, train_distill, GoldfishLocalConfig};
use goldfish_core::loss::{GoldfishLoss, LossWeights};
use goldfish_core::method::{UnlearnSetup, UnlearningMethod};
use goldfish_core::optimization::ShardedClient;
use goldfish_core::unlearner::GoldfishUnlearning;
use goldfish_data::partition;
use goldfish_fed::eval;
use goldfish_fed::federation::Federation;
use goldfish_metrics::divergence::{jsd_mean, l2_mean};
use goldfish_metrics::stats::{welch_t_test, Summary};
use goldfish_nn::loss::{CrossEntropy, Focal, HardLoss, Nll};
use goldfish_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::cli::Options;
use crate::report::{heading, num, pct, Table};
use crate::workloads::{
    build_unlearning_experiment, eval_state, BuiltExperiment, Workload, DELETION_RATES,
};

/// One experiment of the catalogue.
#[derive(Debug)]
pub struct Row {
    /// The name `--only` selects it by.
    pub(crate) name: &'static str,
    /// Runs the experiment, printing its tables to stdout.
    pub run: fn(&Options),
}

const fn row(name: &'static str, run: fn(&Options)) -> Row {
    Row { name, run }
}

/// Every experiment, in the order a run without `--only` prints them.
pub(crate) const CATALOGUE: &[Row] = &[
    row("fig4_retraining", fig4_retraining),
    row("fig4_delta_sweep", fig4_delta_sweep),
    row("fig5_tables3_6", fig5_tables3_6),
    row("fig6_shards", fig6_shards),
    row("fig7_shard_deletion", fig7_shard_deletion),
    row("fig8_heterogeneous", fig8_heterogeneous),
    row("fig9_iid", fig9_iid),
    row("table10_ablation", table10_ablation),
    row("table11_loss_compat", table11_loss_compat),
    row("tables7_9_divergence", tables7_9_divergence),
];

/// Goldfish (Ours) with the workload's local configuration; the loss
/// weights are the paper's §IV-B setting (T = 3, µd = 1.0, µc = 0.25).
fn goldfish(w: &Workload) -> GoldfishUnlearning {
    GoldfishUnlearning::default().with_local(w.goldfish_local())
}

/// A table header: `first`, then `"{side} {stat}"` for every side and
/// each of its stats.
fn header(first: &str, sides: &[&str], stats: &[&str]) -> Vec<String> {
    let mut header = vec![first.to_string()];
    for side in sides {
        header.extend(stats.iter().map(|stat| format!("{side} {stat}")));
    }
    header
}

/// Fig 4's workloads: the retraining curves run 8 rounds (3 at smoke
/// scale) at a 6 % deletion rate; the curves are rate-insensitive.
fn fig4_experiments(
    o: &Options,
    all: Vec<Workload>,
) -> impl Iterator<Item = (Workload, BuiltExperiment)> + '_ {
    o.workloads(all).map(|mut w| {
        w.rounds = o.pick(3, 8);
        let built = build_unlearning_experiment(&w, 0.06, o.seed);
        (w, built)
    })
}

/// Runs the method over `seeds` and returns (per-round mean accuracy,
/// wall-clock of the last run). Round-1 accuracy after a fresh
/// reinitialisation is high-variance, so single-seed curves mislead.
fn run_timed(
    method: &dyn UnlearningMethod,
    setup: &UnlearnSetup,
    seeds: &[u64],
) -> (Vec<f64>, f64) {
    let mut mean = vec![0.0f64; setup.rounds];
    let mut secs = 0.0;
    for &seed in seeds {
        let t0 = Instant::now();
        let out = method.unlearn(setup, seed);
        secs = t0.elapsed().as_secs_f64();
        for (m, a) in mean.iter_mut().zip(out.round_accuracies.iter()) {
            *m += a / seeds.len() as f64;
        }
    }
    (mean, secs)
}

/// **Fig 4 (a–e)**: retraining accuracy curves — Goldfish (Ours) vs B1
/// (retrain from scratch) vs B2 (rapid retraining) on all five workloads,
/// plus wall-clock per method (the paper's efficiency claim).
fn fig4_retraining(o: &Options) {
    for (w, built) in fig4_experiments(o, Workload::all()) {
        heading(&format!("Fig 4 analogue — {}", w.name));
        println!("teacher (origin) accuracy: {} %", pct(built.original_acc));
        let seeds: Vec<u64> = o.pick(vec![o.seed], vec![o.seed, o.seed + 1, o.seed + 2]);
        println!("(accuracy curves averaged over {} seeds)", seeds.len());
        let methods: [&dyn UnlearningMethod; 3] =
            [&goldfish(&w), &RetrainFromScratch, &RapidRetrain::default()];
        let runs = methods.map(|m| run_timed(m, &built.setup, &seeds));

        let mut table = Table::new(&header("round", &["ours", "b1", "b2"], &["acc"]));
        for r in 0..w.rounds {
            let mut cells = vec![format!("{}", r + 1)];
            cells.extend(runs.iter().map(|(curve, _)| pct(curve[r])));
            table.row(cells);
        }
        table.print();
        println!(
            "wall-clock: ours {:.1}s | b1 {:.1}s | b2 {:.1}s (same round budget)",
            runs[0].1, runs[1].1, runs[2].1
        );
    }
}

/// The early-termination δ ablation on Fig 4's MNIST experiment: Goldfish
/// with four times the local epochs and Eq 7's δ (an extension beyond the
/// paper's tables; `DESIGN.md` §4).
fn fig4_delta_sweep(o: &Options) {
    for (w, built) in fig4_experiments(o, vec![Workload::mnist()]) {
        heading("Early-termination δ sweep (ablation, MNIST)");
        let mut sweep = Table::new(&["delta", "final acc", "time s"]);
        for delta in [0.05f32, 0.1, 0.25, 0.5] {
            let method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
                epochs: w.local_epochs * 4,
                early_termination: Some(delta),
                ..w.goldfish_local()
            });
            let (acc, secs) = run_timed(&method, &built.setup, &[o.seed]);
            sweep.row(vec![
                format!("{delta}"),
                pct(*acc.last().unwrap_or(&0.0)),
                num(secs, 1),
            ]);
        }
        sweep.print();
    }
}

/// Fig 5 and Tables VII–IX's body: for each of `picks`, a table with one
/// row per deletion rate. A row is the rate, then what `metrics` reads
/// from that `(workload, rate)` cell: the experiment and the global states
/// Ours, B1 and B3 unlearn it to.
fn rate_tables(
    o: &Options,
    picks: Vec<Workload>,
    title: impl Fn(&Workload) -> String,
    header: Vec<String>,
    metrics: impl Fn(&BuiltExperiment, [Vec<f32>; 3]) -> Vec<String>,
) {
    for w in o.workloads(picks) {
        heading(&title(&w));
        let mut table = Table::new(&header);
        for &rate in o.pick(&[0.02, 0.10][..], &DELETION_RATES) {
            let t0 = Instant::now();
            let built = build_unlearning_experiment(&w, rate, o.seed);
            let methods: [&dyn UnlearningMethod; 3] = [
                &goldfish(&w),
                &RetrainFromScratch,
                &IncompetentTeacher::default(),
            ];
            let states = methods.map(|m| m.unlearn(&built.setup, o.seed).global_state);
            eprintln!(
                "[{}] rate {:.0}% done in {:.1?}",
                w.name,
                rate * 100.0,
                t0.elapsed()
            );
            let mut cells = vec![format!("{:.0}", rate * 100.0)];
            cells.extend(metrics(&built, states));
            table.row(cells);
        }
        table.print();
    }
}

/// **Fig 5 (a–e) + Tables III–VI**: test accuracy and backdoor attack
/// success rate under deletion rates 2–12 %, comparing the original model,
/// Goldfish (Ours), B1 (retrain from scratch) and B3 (incompetent
/// teacher), across all five dataset/model workloads.
fn fig5_tables3_6(o: &Options) {
    let title = |w: &Workload| {
        let (name, n, clients) = (&w.name, w.train_n, w.clients);
        format!("Table III–VI analogue — {name} ({n} train, {clients} clients)")
    };
    let header = header("rate%", &["origin", "ours", "b1", "b3"], &["acc", "bd"]);
    rate_tables(o, Workload::all(), title, header, |built, states| {
        let setup = &built.setup;
        let mut cells = vec![pct(built.original_acc), pct(built.original_asr)];
        for state in &states {
            let (acc, bd) = eval_state(&setup.factory, state, &setup.test, &built.backdoor);
            cells.extend([pct(acc), pct(bd)]);
        }
        cells
    });
}

/// Per-sample max-softmax confidence of each row.
fn confidences(probs: &Tensor) -> Vec<f64> {
    let (_, c) = probs.dims2();
    probs
        .as_slice()
        .chunks(c)
        .map(|row| row.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64)
        .collect()
}

/// **Tables VII–IX**: distributional similarity of the unlearned models to
/// the retrained-from-scratch reference (B1), and a t-test against the
/// original (backdoored) model — on the MNIST, FMNIST and CIFAR-10
/// analogues.
///
/// * JSD / L2 — between the unlearned model's and B1's predictive
///   distributions on the test set (smaller = closer to the gold-standard
///   retrained model).
/// * t-test — Welch's test between per-sample max-softmax confidences of
///   the unlearned model and the *original* model on the **triggered
///   probe**; a small p-value means the unlearned model's prediction
///   pattern differs significantly from the backdoored one.
fn tables7_9_divergence(o: &Options) {
    let picks = vec![
        Workload::mnist(),
        Workload::fmnist(),
        Workload::cifar10_lenet(),
    ];
    let title = |w: &Workload| format!("Table VII–IX analogue — {}", w.name);
    let header = header("rate%", &["b3", "ours"], &["JSD", "L2", "p"]);
    rate_tables(o, picks, title, header, |built, [ours, b1, b3]| {
        let setup = &built.setup;
        let probs = |state: &[f32], data| state_probs(&setup.factory, state, data);
        let p_b1 = probs(&b1, &setup.test);
        let probe = built.backdoor.stamp_dataset(&setup.test);
        let c_origin = confidences(&probs(&setup.original_global, &probe));
        let mut cells = Vec::new();
        for state in [b3, ours] {
            let p = probs(&state, &setup.test);
            let c = confidences(&probs(&state, &probe));
            let p_value = welch_t_test(&c, &c_origin).p_value;
            cells.extend([jsd_mean(&p, &p_b1), l2_mean(&p, &p_b1), p_value].map(|x| num(x, 2)));
        }
        cells
    });
}

/// Figs 6 and 7's body: one [`ShardedClient`] per shard count in `taus`
/// over `w`'s training set, trained in lockstep for `rounds` rounds. Row
/// `r` holds the round number and every client's test accuracy after it.
///
/// With `deletion = Some((before, rate))`, a `rate` share of the training
/// set is deleted before round `before` (0-based). The deleted samples
/// fill shard 0 first, then shard 1, … so the number of *affected* shards
/// grows with the deletion rate as the paper describes: at 2 % only one
/// shard retrains, at 10 % several do, and with τ = 1 the whole model
/// always retrains.
pub(crate) fn sharded_curve(
    w: &Workload,
    seed: u64,
    taus: &[usize],
    rounds: usize,
    deletion: Option<(usize, f64)>,
) -> Vec<Vec<String>> {
    let (train, test) = w.datasets(seed);
    let factory = w.factory();
    let mut clients: Vec<ShardedClient> = taus
        .iter()
        .map(|&tau| ShardedClient::new(&train, tau, factory.clone(), w.train_config(), seed))
        .collect();
    (0..rounds)
        .map(|round| {
            if let Some((_, rate)) = deletion.filter(|&(before, _)| before == round) {
                let n_delete = ((train.len() as f64) * rate).round() as usize;
                for (client, &tau) in clients.iter_mut().zip(taus) {
                    // Sample g lives in shard g % tau.
                    let doomed: Vec<usize> = (0..tau)
                        .flat_map(|shard| (shard..train.len()).step_by(tau))
                        .take(n_delete)
                        .collect();
                    let impact = client.delete_samples(&doomed, seed ^ 0xDEAD);
                    eprintln!(
                        "tau={tau}: deletion touched {} partial / {} emptied shards",
                        impact.partial.len(),
                        impact.emptied.len()
                    );
                }
            }
            let mut cells = vec![format!("{}", round + 1)];
            for client in clients.iter_mut() {
                client.train_round(seed.wrapping_add(round as u64));
                let mut net = network_from_state(&factory, &client.local_state(), 0);
                cells.push(pct(eval::accuracy(&mut net, &test)));
            }
            cells
        })
        .collect()
}

/// Prints [`sharded_curve`]'s rows under a `round | tau=…` header.
fn print_tau_table(taus: &[usize], rows: Vec<Vec<String>>) {
    let mut header = vec!["round".to_string()];
    header.extend(taus.iter().map(|t| format!("tau={t}")));
    let mut table = Table::new(&header);
    for row in rows {
        table.row(row);
    }
    table.print();
}

/// **Fig 6**: convergence of a sharded local model on the MNIST analogue
/// for shard counts τ ∈ {1, 3, 6, 9, 12, 15, 18} — accuracy per round.
fn fig6_shards(o: &Options) {
    for w in o.workloads(vec![Workload::mnist()]) {
        let taus = o.pick(&[1, 3, 6][..], &[1, 3, 6, 9, 12, 15, 18]);
        let rows = sharded_curve(&w, o.seed, taus, o.pick(3, 8), None);
        heading("Fig 6 analogue — sharded convergence (MNIST)");
        print_tau_table(taus, rows);
        println!(
            "(accuracy improvement decelerates as tau grows — each shard model \
             sees only 1/tau of the data per round)"
        );
    }
}

/// The round Fig 7's deletion event comes after.
const FIG7_ROUNDS_BEFORE: usize = 3;

/// **Fig 7 (a–c)**: local-model accuracy around a deletion event (after
/// round 3) for shard counts τ ∈ {1, 3, 6, 9} at deletion rates 2 %, 6 %
/// and 10 % — the resilience benefit of the data-sharding optimization.
fn fig7_shard_deletion(o: &Options) {
    for w in o.workloads(vec![Workload::mnist()]) {
        let taus = o.pick(&[1, 3][..], &[1, 3, 6, 9]);
        for &rate in o.pick(&[0.02][..], &[0.02, 0.06, 0.10]) {
            let rounds = FIG7_ROUNDS_BEFORE + o.pick(2, 5);
            let deletion = Some((FIG7_ROUNDS_BEFORE, rate));
            let rows = sharded_curve(&w, o.seed, taus, rounds, deletion);
            heading(&format!(
                "Fig 7 analogue — deletion of {:.0}% after round {FIG7_ROUNDS_BEFORE} (MNIST)",
                rate * 100.0
            ));
            print_tau_table(taus, rows);
            println!("(deletion occurs before round {})", FIG7_ROUNDS_BEFORE + 1);
        }
    }
}

/// How Figs 8 and 9 split `n` samples among `clients`.
type Split = fn(n: usize, clients: usize, rng: &mut StdRng) -> Vec<Vec<usize>>;

/// Figs 8 and 9's body: FedAvg vs the adaptive-weight aggregation (Ours)
/// on the MNIST analogue with 5, 15 and 25 clients holding `data` split by
/// `split`, per-round global accuracy. With `per_client`, each side also
/// reports the min/max test accuracy of the clients' own models, and
/// Table XII's heterogeneity statistics (from FedAvg's round-1 client
/// models) follow.
fn federation_curves(o: &Options, figure: &str, data: &str, split: Split, per_client: bool) {
    for w in o.workloads(vec![Workload::mnist()]) {
        let (train, test) = w.datasets(o.seed);
        let factory = w.factory();
        let rounds = o.pick(3, 8);
        let mut hetero = Table::new(&["clients", "size variance", "min acc", "max acc"]);
        for &n_clients in o.pick(&[5][..], &[5, 15, 25]) {
            let mut rng = StdRng::seed_from_u64(o.seed ^ (n_clients as u64));
            let parts = split(train.len(), n_clients, &mut rng);
            heading(&format!(
                "{figure} analogue — {data}, {n_clients} clients (MNIST)"
            ));
            let [fedavg, ours] = [false, true].map(|adaptive| {
                Federation::builder(factory.clone(), test.clone())
                    .train_config(w.train_config())
                    .clients(parts.iter().map(|p| train.subset(p)))
                    .eval_clients(per_client)
                    .adaptive_aggregation(adaptive)
                    .init_seed(o.seed)
                    .build()
                    .train_rounds(rounds, o.seed)
            });

            let stats = if per_client {
                &["acc", "min", "max"][..]
            } else {
                &["acc"]
            };
            let mut table = Table::new(&header("round", &["fedavg", "ours"], stats));
            for r in 0..rounds {
                let mut cells = vec![format!("{}", r + 1)];
                for run in [&fedavg, &ours] {
                    let round = &run.rounds[r];
                    cells.push(pct(round.global_accuracy));
                    if per_client {
                        let s = Summary::of(&round.client_accuracies);
                        cells.extend([pct(s.min), pct(s.max)]);
                    }
                }
                table.row(cells);
            }
            table.print();

            let s = Summary::of(&fedavg.rounds[0].client_accuracies);
            hetero.row(vec![
                format!("{n_clients}"),
                format!("{:.2e}", partition::size_variance(&parts)),
                pct(s.min),
                pct(s.max),
            ]);
        }
        if per_client {
            heading("Table XII analogue — representation of data heterogeneity");
            hetero.print();
        }
    }
}

/// **Fig 8 (a–c) + Table XII**: the aggregation rules under
/// *heterogeneous* client data, with min/max error bars over the clients'
/// own models.
fn fig8_heterogeneous(o: &Options) {
    let uneven: Split = |n, clients, rng| partition::uneven(n, clients, 0.02, rng);
    federation_curves(o, "Fig 8", "heterogeneous data", uneven, true);
}

/// **Fig 9**: the aggregation rules with IID client data, where they
/// should behave near-identically.
fn fig9_iid(o: &Options) {
    federation_curves(o, "Fig 9", "IID data", partition::iid, false);
}

/// Tables X and XI's body, a centralised study on the CIFAR-10 analogue
/// with the ResNet-mini (the paper's ResNet32 stand-in): every client's
/// data merged into one, 6 % of it backdoored and requested for deletion.
/// Each `(column, loss)` trains its own student from the seed salted with
/// `salt` against the original model as teacher, in equal `train_distill`
/// segments; test accuracy and backdoor success are reported at every
/// checkpoint (10/20/30/40 epochs, 2/4 at smoke scale).
fn distill_table(o: &Options, title: &str, salt: u64, columns: Vec<(&str, GoldfishLoss)>) {
    for w in o.workloads(vec![Workload::cifar10_resnet()]) {
        let checkpoints = o.pick(vec![2usize, 4], vec![10, 20, 30, 40]);
        let built = build_unlearning_experiment(&w, 0.06, o.seed);
        let setup = &built.setup;
        let mut full = setup.clients[0].clone();
        for c in &setup.clients[1..] {
            full.remaining = full.remaining.concat(&c.remaining);
            full.forget = full.forget.concat(&c.forget);
        }
        // The loss carries its own weights; the config's only set the
        // temperature, which every column shares.
        let cfg = GoldfishLocalConfig {
            epochs: checkpoints[0],
            ..w.goldfish_local()
        };

        // (column → per-checkpoint [acc, asr])
        let results: Vec<Vec<[f64; 2]>> = columns
            .iter()
            .map(|(name, loss)| {
                let mut student = (setup.factory)(o.seed ^ salt);
                let mut teacher = network_from_state(&setup.factory, &setup.original_global, 0);
                let curve = (0..checkpoints.len())
                    .map(|i| {
                        let seed = o.seed.wrapping_add(i as u64);
                        train_distill(
                            &mut student,
                            &mut teacher,
                            &full.remaining,
                            &full.forget,
                            loss,
                            &cfg,
                            None,
                            seed,
                        );
                        let acc = eval::accuracy(&mut student, &setup.test);
                        let asr =
                            eval::attack_success_rate(&mut student, &setup.test, &built.backdoor);
                        [acc, asr]
                    })
                    .collect();
                eprintln!("'{name}' done");
                curve
            })
            .collect();

        heading(title);
        let mut header = vec!["epoch", "metric"];
        header.extend(columns.iter().map(|(name, _)| *name));
        let mut table = Table::new(&header);
        for (ci, cp) in checkpoints.iter().enumerate() {
            for (m, metric) in ["acc", "backdoor"].into_iter().enumerate() {
                let mut cells = vec![format!("{cp}"), metric.to_string()];
                cells.extend(results.iter().map(|r| pct(r[ci][m])));
                table.row(cells);
            }
        }
        table.print();
    }
}

/// **Table X**: ablation of the loss-function components — hard loss
/// only, without distillation loss, without confusion loss, and the total
/// loss, all over cross-entropy.
fn table10_ablation(o: &Options) {
    let ce = |weights| GoldfishLoss::new(Arc::new(CrossEntropy), weights);
    let columns = vec![
        ("hard only", ce(LossWeights::hard_only())),
        ("w/o distill", ce(LossWeights::without_distillation())),
        ("w/o confusion", ce(LossWeights::without_confusion())),
        ("total loss", ce(LossWeights::default())),
    ];
    let title = "Table X analogue — loss ablation (CIFAR-10, ResNet-mini)";
    distill_table(o, title, 0xAB1, columns);
}

/// **Table XI**: hard-loss compatibility — the total Goldfish loss with
/// cross-entropy (α), focal loss (β) and NLL (γ) as the hard component.
fn table11_loss_compat(o: &Options) {
    let total = |hard: Arc<dyn HardLoss>| GoldfishLoss::new(hard, LossWeights::default());
    let columns = vec![
        ("total α (CE)", total(Arc::new(CrossEntropy))),
        ("total β (Focal)", total(Arc::new(Focal::new(2.0)))),
        ("total γ (NLL)", total(Arc::new(Nll))),
    ];
    let title = "Table XI analogue — hard-loss compatibility (CIFAR-10, ResNet-mini)";
    distill_table(o, title, 0xAB2, columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 7 trains on the same path as Fig 6 until its deletion event:
    /// at smoke scale its first three rows equal Fig 6's for the shard
    /// counts both figures use (τ = 1 and τ = 3).
    #[test]
    fn fig7_matches_fig6_before_the_deletion() {
        let w = Workload::mnist().quick();
        let fig6 = sharded_curve(&w, 42, &[1, 3, 6], 3, None);
        let fig7 = sharded_curve(&w, 42, &[1, 3], 5, Some((FIG7_ROUNDS_BEFORE, 0.02)));
        assert_eq!(fig7.len(), 5);
        for (r6, r7) in fig6.iter().zip(&fig7[..FIG7_ROUNDS_BEFORE]) {
            assert_eq!(r6[..3], r7[..]);
        }
    }
}
