//! **Fig 8 (a–c) + Table XII**: FedAvg vs the adaptive-weight aggregation
//! (Ours) under *heterogeneous* client data — 5, 15 and 25 clients with
//! wildly uneven dataset sizes; per-round global accuracy with min/max
//! error bars over the clients' own models, plus the heterogeneity
//! statistics of Table XII.
//!
//! ```text
//! cargo run -p goldfish-bench --release --bin fig8_heterogeneous [--quick] [--seed N]
//! ```

use goldfish_bench::{args, report, workloads};
use goldfish_data::partition;
use goldfish_fed::federation::Federation;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let seed = args::seed();
    let quick = args::quick();
    let workload = if quick {
        workloads::Workload::mnist().quick()
    } else {
        workloads::Workload::mnist()
    };
    let client_counts: &[usize] = if quick { &[5] } else { &[5, 15, 25] };
    let rounds = if quick { 3 } else { 8 };

    let (train, test) = workload.datasets(seed);
    let factory = workload.factory();

    let mut hetero_table = report::Table::new(&["clients", "size variance", "min acc", "max acc"]);

    for &n_clients in client_counts {
        report::heading(&format!(
            "Fig 8 analogue — heterogeneous data, {n_clients} clients (MNIST)"
        ));
        let mut rng = StdRng::seed_from_u64(seed ^ (n_clients as u64));
        let parts = partition::uneven(train.len(), n_clients, 0.02, &mut rng);
        let variance = partition::size_variance(&parts);

        let run = |adaptive: bool| {
            let mut fed = Federation::builder(factory.clone(), test.clone())
                .train_config(workload.train_config())
                .clients(parts.iter().map(|p| train.subset(p)))
                .eval_clients(true)
                .adaptive_aggregation(adaptive)
                .init_seed(seed)
                .build();
            fed.train_rounds(rounds, seed)
        };
        let fedavg = run(false);
        let ours = run(true);

        let mut table = report::Table::new(&[
            "round",
            "fedavg acc",
            "fedavg min",
            "fedavg max",
            "ours acc",
            "ours min",
            "ours max",
        ]);
        for r in 0..rounds {
            let fa = &fedavg.rounds[r];
            let ou = &ours.rounds[r];
            let stats = |accs: &[f64]| {
                let s = goldfish_metrics::stats::Summary::of(accs);
                (s.min, s.max)
            };
            let (fa_min, fa_max) = stats(&fa.client_accuracies);
            let (ou_min, ou_max) = stats(&ou.client_accuracies);
            table.row(vec![
                format!("{}", r + 1),
                report::pct(fa.global_accuracy),
                report::pct(fa_min),
                report::pct(fa_max),
                report::pct(ou.global_accuracy),
                report::pct(ou_min),
                report::pct(ou_max),
            ]);
        }
        table.print();

        // Table XII row: heterogeneity statistics from round-1 client models.
        let first = &fedavg.rounds[0];
        let s = goldfish_metrics::stats::Summary::of(&first.client_accuracies);
        hetero_table.row(vec![
            format!("{n_clients}"),
            format!("{:.2e}", variance),
            report::pct(s.min),
            report::pct(s.max),
        ]);
    }

    report::heading("Table XII analogue — representation of data heterogeneity");
    hetero_table.print();
}
