//! **Fig 9**: FedAvg vs the adaptive-weight aggregation (Ours) with IID
//! client data — 5, 15 and 25 clients on the MNIST analogue. Under uniform
//! data the two aggregation rules should behave near-identically.
//!
//! ```text
//! cargo run -p goldfish-bench --release --bin fig9_iid [--quick] [--seed N]
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

    for &n_clients in client_counts {
        report::heading(&format!(
            "Fig 9 analogue — IID data, {n_clients} clients (MNIST)"
        ));
        let mut rng = StdRng::seed_from_u64(seed ^ (n_clients as u64));
        let parts = partition::iid(train.len(), n_clients, &mut rng);

        let run = |adaptive: bool| {
            let mut fed = Federation::builder(factory.clone(), test.clone())
                .train_config(workload.train_config())
                .clients(parts.iter().map(|p| train.subset(p)))
                .adaptive_aggregation(adaptive)
                .init_seed(seed)
                .build();
            fed.train_rounds(rounds, seed)
        };
        let fedavg = run(false);
        let ours = run(true);

        let mut table = report::Table::new(&["round", "fedavg acc", "ours acc"]);
        for r in 0..rounds {
            table.row(vec![
                format!("{}", r + 1),
                report::pct(fedavg.rounds[r].global_accuracy),
                report::pct(ours.rounds[r].global_accuracy),
            ]);
        }
        table.print();
    }
}
