//! `goldfish-benchmark` — the repo's benchmark (see `README.md` beside
//! this package and `/BENCHMARK.json`).
//!
//! ```text
//! goldfish-benchmark --workload NAME|all --seed N --seconds S --trace 0|1
//!                    [--out FILE] [--out-dir DIR] [--runs N] [--quick]
//! goldfish-benchmark --compare A.json B.json
//! ```
//!
//! A single-workload invocation prints every metric by name and unit and,
//! as the last line of stdout, the contract's result object. `--out`
//! appends the full result as one JSON line, so repeated invocations
//! build the run sets `--compare` judges.

mod catalog;
mod compare;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use run::{Opts, RunResult};

/// `run_seconds` of `/BENCHMARK.json`; the default window.
const RUN_SECONDS: f64 = 10.0;
const QUICK_SECONDS: f64 = 2.0;
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage: goldfish-benchmark --workload NAME|all [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--out-dir DIR] [--runs N] [--quick]\n       \
goldfish-benchmark --compare A.json B.json\nworkloads: lenet_train fanout_tcp unlearn_distill \
unlearn_shard";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    runs: usize,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        out_dir: None,
        runs: 1,
        quick: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--out-dir" => cli.out_dir = Some(PathBuf::from(value()?)),
            "--runs" => {
                cli.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn metrics_object(metrics: &[&run::Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        )
    }))
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every `end_to_end` metric of `/BENCHMARK.json` on an
/// untraced run, every `per_layer` metric on a traced one.
fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<&run::Metric> = if r.trace {
        r.layers.iter().collect()
    } else {
        r.e2e
            .iter()
            .filter(|m| catalog::end_to_end(m.name).is_some_and(|d| d.contract))
            .collect()
    };
    Value::obj([
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_object(&metrics)),
    ])
    .render()
}

/// The `--out` record: the run's identity plus every metric it measured.
fn ledger_line(r: &RunResult) -> String {
    let metrics: Vec<&run::Metric> = if r.trace {
        r.layers.iter().collect()
    } else {
        r.e2e.iter().collect()
    };
    Value::obj([
        ("schema", Value::Str("goldfish-benchmark-run-v1".into())),
        ("workload", Value::Str(r.workload.into())),
        ("seed", Value::Num(r.seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(r.trace)))),
        ("seconds", Value::Num(r.seconds)),
        ("threads", Value::Num(r.threads as f64)),
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("rounds", Value::Num(r.rounds as f64)),
        ("deletions", Value::Num(r.deletions as f64)),
        ("metrics", metrics_object(&metrics)),
    ])
    .render()
}

fn print_report(r: &RunResult) {
    println!(
        "goldfish-benchmark: workload {} seed {} window {} s trace {} threads {}",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace),
        r.threads
    );
    if let Some(spec) = workload::spec_by_name(r.workload) {
        println!("why: {}", spec.why);
    }
    println!(
        "end-to-end ({}):",
        if r.trace {
            "traced — informational only"
        } else {
            "untraced"
        }
    );
    for def in &catalog::END_TO_END {
        match r.e2e.iter().find(|m| m.name == def.name) {
            Some(m) => {
                let n = match def.name {
                    "round_p50_ms" => format!("  (n = {})", r.rounds),
                    "deletion_p50_ms" => format!("  (n = {})", r.deletions),
                    "failed_share" => format!("  ({} of {})", r.failed, r.attempted),
                    _ => String::new(),
                };
                println!("  {:<24} {:>16.6} {}{n}", m.name, m.value, m.unit);
            }
            None => println!(
                "  {:<24} {:>16} (not defined on this workload)",
                def.name, "n/a"
            ),
        }
    }
    if r.trace {
        println!("per-layer:");
        for m in &r.layers {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        if let Some(p) = &r.span_file {
            println!("spans: {}", p.display());
        }
    }
    for e in &r.errors {
        println!("FAILED: {e}");
    }
}

fn run_single(cli: &Cli, name: &str) -> ExitCode {
    let Some(spec) = workload::spec_by_name(name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        }),
        trace: cli.trace,
        setup_repeats: if cli.quick { 1 } else { SETUP_REPEATS },
        out_dir: cli
            .out_dir
            .clone()
            .unwrap_or_else(workload::default_out_dir),
    };
    let result = match run::run_workload(spec, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("goldfish-benchmark: {name}: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    print_report(&result);
    if let Some(path) = &cli.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", ledger_line(&result)));
        if let Err(e) = appended {
            eprintln!("goldfish-benchmark: appending to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", contract_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`, `--runs N` and `--quick` run one child process per
/// (workload, run): a fresh process is what the contract measures, and
/// `VmHWM` is per process. Children inherit stdout; each is waited for.
fn run_children(cli: &Cli, names: &[&str]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("goldfish-benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for name in names {
        for _ in 0..cli.runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &cli.seed.to_string()]);
            cmd.args(["--trace", if cli.trace { "1" } else { "0" }]);
            if let Some(s) = cli.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if cli.quick {
                cmd.arg("--quick");
            }
            if let Some(p) = &cli.out {
                cmd.arg("--out").arg(p);
            }
            if let Some(p) = &cli.out_dir {
                cmd.arg("--out-dir").arg(p);
            }
            match cmd.status() {
                Ok(status) => worst = worst.max(status.code().map_or(2, |c| c.clamp(0, 255) as u8)),
                Err(e) => {
                    eprintln!("goldfish-benchmark: spawning child for {name}: {e}");
                    worst = worst.max(2);
                }
            }
        }
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("goldfish-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b);
    }
    let all: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    match cli.workload.as_deref() {
        Some("all") => run_children(&cli, &all),
        None if cli.quick => run_children(&cli, &all),
        Some(name) if cli.runs > 1 => run_children(&cli, &[name]),
        Some(name) => run_single(&cli, name),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
