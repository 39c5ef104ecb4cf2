//! Experiment harness for the Goldfish reproduction.
//!
//! One binary, `goldfish-repro`, runs the paper's tables and figures as
//! rows of a static catalogue (`repro::CATALOGUE`), built on the shared
//! [`workloads`] module which defines the five dataset workloads at CPU
//! scale, pretrains the original ("origin") federated model, and
//! assembles [`goldfish_core::UnlearnSetup`]s at any deletion rate.
//! Its flags:
//!
//! * `--only ROW[,ROW...]` — run these rows, in this order (default: all),
//! * `--quick` — shrink every workload (CI smoke run),
//! * `--seed N` — change the experiment seed (default 42),
//! * `--workload NAME` — keep only this workload in every row.
//!
//! A bad command line exits 2 with the usage text ([`cli::parse`]).
//! Outputs are printed as aligned text tables mirroring the paper's
//! layout (see `DESIGN.md` §4). Performance is measured elsewhere: the
//! standalone `goldfish-benchmark` package under `benchmark/` is the
//! repository's one timing surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod report;
pub mod repro;
pub mod workloads;
