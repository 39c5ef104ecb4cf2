//! `goldfish-repro`: runs the paper-reproduction catalogue; the
//! `goldfish_bench` crate docs list its flags.

use goldfish_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("goldfish-repro: {e}\n{}", cli::usage());
        std::process::exit(2);
    });
    for row in &opts.rows {
        (row.run)(&opts);
    }
}
