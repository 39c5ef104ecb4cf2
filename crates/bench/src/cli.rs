//! `goldfish-repro`'s command line, parsed by a pure function so a typo is
//! a usage error rather than a silent misrun.

use std::fmt;

use crate::repro::{Row, CATALOGUE};
use crate::workloads::Workload;

/// What one `goldfish-repro` run does.
#[derive(Debug)]
pub struct Options {
    /// The catalogue rows to run, in order (`--only a,b`; default all).
    pub rows: Vec<&'static Row>,
    /// Smoke-test scale (`--quick`).
    pub(crate) quick: bool,
    /// The experiment seed (`--seed N`, default 42).
    pub(crate) seed: u64,
    /// Restricts every row to the workload of this name (`--workload`).
    pub(crate) workload: Option<String>,
}

impl Options {
    /// `quick` at smoke scale, `full` otherwise.
    pub(crate) fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The workloads of `all` that pass the `--workload` filter, shrunk
    /// under `--quick`.
    pub(crate) fn workloads(&self, all: Vec<Workload>) -> impl Iterator<Item = Workload> + '_ {
        all.into_iter()
            .filter(|w| self.workload.as_ref().is_none_or(|name| *name == w.name))
            .map(|w| if self.quick { w.quick() } else { w })
    }
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// `--only` names a row the catalogue does not have.
    UnknownRow(String),
    /// An argument that is not one of the four flags.
    UnknownFlag(String),
    /// `--workload` names no paper workload.
    UnknownWorkload(String),
    /// A flag that takes a value came last.
    MissingValue(&'static str),
    /// `--seed` was given something other than an unsigned integer.
    BadSeed(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownRow(r) => write!(f, "unknown row `{r}`"),
            UsageError::UnknownFlag(a) => write!(f, "unknown argument `{a}`"),
            UsageError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            UsageError::MissingValue(flag) => write!(f, "{flag} expects a value"),
            UsageError::BadSeed(v) => write!(f, "--seed expects an integer, got `{v}`"),
        }
    }
}

/// The usage text, listing the catalogue and the workloads.
pub fn usage() -> String {
    let rows: Vec<&str> = CATALOGUE.iter().map(|r| r.name).collect();
    let workloads: Vec<String> = Workload::all().into_iter().map(|w| w.name).collect();
    format!(
        "usage: goldfish-repro [--only ROW[,ROW...]] [--quick] [--seed N] [--workload NAME]\n\
         rows: {}\nworkloads: {}",
        rows.join(" "),
        workloads.join(" ")
    )
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// [`UsageError`] on an unknown row, flag or workload, a flag missing its
/// value, or a `--seed` that is not an unsigned integer.
pub fn parse(args: &[String]) -> Result<Options, UsageError> {
    let mut opts = Options {
        rows: CATALOGUE.iter().collect(),
        quick: false,
        seed: 42,
        workload: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &'static str| args.next().ok_or(UsageError::MissingValue(flag));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| UsageError::BadSeed(v.clone()))?;
            }
            "--only" => {
                opts.rows = value("--only")?
                    .split(',')
                    .map(|name| {
                        CATALOGUE
                            .iter()
                            .find(|r| r.name == name)
                            .ok_or_else(|| UsageError::UnknownRow(name.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--workload" => {
                let v = value("--workload")?;
                if !Workload::all().iter().any(|w| w.name == *v) {
                    return Err(UsageError::UnknownWorkload(v.clone()));
                }
                opts.workload = Some(v.clone());
            }
            other => return Err(UsageError::UnknownFlag(other.to_string())),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Options, UsageError> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn row_names(opts: &Options) -> Vec<&'static str> {
        opts.rows.iter().map(|r| r.name).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let opts = parse_strs(&[]).unwrap();
        assert_eq!(opts.seed, 42);
        assert!(!opts.quick);
        assert_eq!(opts.workload, None);
        assert_eq!(opts.rows.len(), CATALOGUE.len());
    }

    #[test]
    fn parses_every_flag() {
        let opts = parse_strs(&[
            "--quick",
            "--seed",
            "7",
            "--only",
            "fig9_iid,fig6_shards",
            "--workload",
            "mnist",
        ])
        .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        assert_eq!(row_names(&opts), ["fig9_iid", "fig6_shards"]);
        assert_eq!(opts.workload.as_deref(), Some("mnist"));
    }

    #[test]
    fn rejects_unknown_row() {
        assert_eq!(
            parse_strs(&["--only", "fig6_shards,fig10"]).unwrap_err(),
            UsageError::UnknownRow("fig10".into())
        );
    }

    #[test]
    fn rejects_unknown_flag() {
        assert_eq!(
            parse_strs(&["--quik"]).unwrap_err(),
            UsageError::UnknownFlag("--quik".into())
        );
    }

    #[test]
    fn rejects_unknown_workload() {
        assert_eq!(
            parse_strs(&["--quick", "--workload", "mnsit"]).unwrap_err(),
            UsageError::UnknownWorkload("mnsit".into())
        );
    }

    #[test]
    fn rejects_missing_or_non_integer_seed() {
        assert_eq!(
            parse_strs(&["--seed"]).unwrap_err(),
            UsageError::MissingValue("--seed")
        );
        for bad in ["x", "-1", "1.5"] {
            assert_eq!(
                parse_strs(&["--seed", bad]).unwrap_err(),
                UsageError::BadSeed(bad.into())
            );
        }
    }

    #[test]
    fn usage_lists_the_catalogue() {
        let text = usage();
        for row in CATALOGUE {
            assert!(text.contains(row.name), "usage misses {}", row.name);
        }
        assert!(text.contains("cifar10-resnet"));
    }
}
