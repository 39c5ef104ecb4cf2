//! `--compare A.json B.json`: judges run set B (the change) against run
//! set A (the parent) per workload × end-to-end metric, by the rules of
//! the choosing-metrics guide §6–§8. A set is what repeated `--out FILE`
//! invocations append: one run object per line (a JSON array of run
//! objects is accepted too).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::catalog::{Better, MetricDef, END_TO_END};
use crate::json::{self, Value};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so "no regression"
    /// cannot be shown either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for one metric given the parent's (`a`) and the change's (`b`)
/// ascending samples.
///
/// * worse — B's median is worse than A's by more than the bound (for a
///   zero bound: worse at all);
/// * better — every B run beats every A run, or B's median beats A's by
///   more than A's own quartile distance with at least nine tenths of B's
///   runs beating A's median;
/// * unresolved — neither of the above and either set's quartile distance
///   is wider than the bound;
/// * unchanged — otherwise.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Orient so that larger is worse.
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let base = ma.abs();
    let worsening = if base > 0.0 {
        sign * (mb - ma) / base
    } else {
        sign * (mb - ma)
    };
    if worsening > def.bound {
        return Verdict::Worse;
    }
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = !a.is_empty() && b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if all_better {
        return Verdict::Better;
    }
    let (qa1, qa3) = stats::quartiles(a);
    let a_spread = if base > 0.0 { (qa3 - qa1) / base } else { 0.0 };
    let winners = b.iter().filter(|&&x| beats(x, ma)).count();
    if -worsening > a_spread && winners * 10 >= b.len() * 9 && !b.is_empty() {
        return Verdict::Better;
    }
    if a_spread.max(stats::spread_share(b)) > def.bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// workload → metric → values, plus whether every run was correct.
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect_runs: usize,
    runs: usize,
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let runs: Vec<Value> = match json::parse(&text) {
        Ok(Value::Arr(items)) => items,
        Ok(single @ Value::Obj(_)) => vec![single],
        _ => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(json::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?,
    };
    let mut set = RunSet {
        values: BTreeMap::new(),
        incorrect_runs: 0,
        runs: 0,
    };
    for run in &runs {
        // Traced runs carry per-layer metrics; end-to-end numbers only
        // ever come from untraced runs.
        if run.get("trace").and_then(Value::as_f64) == Some(1.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: run without a workload", path.display()))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: run without metrics", path.display()))?;
        set.runs += 1;
        if run.get("correct") != Some(&Value::Bool(true)) {
            set.incorrect_runs += 1;
        }
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if set.runs == 0 {
        return Err(format!("{}: no untraced runs", path.display()));
    }
    Ok(set)
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("goldfish-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "A = {} ({} runs)   B = {} ({} runs)   ratio = B median / A median (base: A)",
        a_path.display(),
        a.runs,
        b_path.display(),
        b.runs
    );
    println!(
        "{:<16} {:<22} {:>14} {:>8} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "ratio", "bound%"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            println!("{workload:<16} missing from B");
            regressions += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(def.name), b_metrics.get(def.name)) else {
                continue;
            };
            let (av, bv) = (stats::sorted(av.clone()), stats::sorted(bv.clone()));
            let v = verdict(def, &av, &bv);
            match v {
                Verdict::Worse => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            let (ma, mb) = (stats::median(&av), stats::median(&bv));
            let ratio = if ma != 0.0 {
                format!("{:.4}", mb / ma)
            } else {
                "-".into()
            };
            println!(
                "{:<16} {:<22} {:>14.6} {:>8.2} {:>14.6} {:>8.2} {:>8} {:>7.2}  {}",
                workload,
                format!("{} [{}]", def.name, def.unit),
                ma,
                100.0 * stats::spread_share(&av),
                mb,
                100.0 * stats::spread_share(&bv),
                ratio,
                100.0 * def.bound,
                v.label()
            );
        }
    }
    if b.incorrect_runs > 0 {
        println!(
            "B has {} run(s) that failed a check or an op",
            b.incorrect_runs
        );
        regressions += 1;
    }
    println!("{regressions} worse, {unresolved} unresolved");
    if regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (-5..5).map(|i| center + step * f64::from(i)).collect()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let lower = end_to_end("round_p50_ms").unwrap(); // bound 10 %
        let higher = end_to_end("rounds_per_s").unwrap(); // bound 10 %
        let tight = around(100.0, 0.2);

        // Same distribution: unchanged.
        assert_eq!(verdict(lower, &tight, &tight), Verdict::Unchanged);
        // 15 % slower than a 10 % bound: worse, whichever way "better" points.
        assert_eq!(verdict(lower, &tight, &around(115.0, 0.2)), Verdict::Worse);
        assert_eq!(verdict(higher, &tight, &around(85.0, 0.2)), Verdict::Worse);
        // 15 % faster with disjoint samples: better.
        assert_eq!(verdict(lower, &tight, &around(85.0, 0.2)), Verdict::Better);
        assert_eq!(
            verdict(higher, &tight, &around(115.0, 0.2)),
            Verdict::Better
        );
        // 5 % slower: inside the bound, spreads tight: unchanged.
        assert_eq!(
            verdict(lower, &tight, &around(105.0, 0.2)),
            Verdict::Unchanged
        );
        // Same medians but a quartile distance of ~22 % > bound: unresolved.
        let noisy = around(100.0, 4.0);
        assert_eq!(verdict(lower, &noisy, &noisy), Verdict::Unresolved);
        // A median worse than the bound stays worse even when noisy.
        assert_eq!(verdict(lower, &noisy, &around(125.0, 4.0)), Verdict::Worse);
    }

    #[test]
    fn zero_bound_metrics_regress_on_any_increase() {
        let failed = end_to_end("failed_share").unwrap();
        let zeros = vec![0.0; 10];
        assert_eq!(verdict(failed, &zeros, &zeros), Verdict::Unchanged);
        let mut some = zeros.clone();
        some[5..].fill(0.01);
        some[4] = 0.01;
        assert_eq!(verdict(failed, &zeros, &some), Verdict::Worse);
    }
}
