//! Experiment harness for the Goldfish reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`), built on the
//! shared [`workloads`] module which defines the four dataset workloads at
//! CPU scale, pretrains the original ("origin") federated model, and
//! assembles [`goldfish_core::UnlearnSetup`]s at any deletion rate.
//!
//! Every binary accepts:
//!
//! * `--quick` — shrink the workload (CI smoke run),
//! * `--seed N` — change the experiment seed (default 42).
//!
//! Outputs are printed as aligned text tables mirroring the paper's
//! layout (see `DESIGN.md` §4). Performance is measured elsewhere: the
//! standalone `goldfish-benchmark` package under `benchmark/` is the
//! repository's one timing surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod report;
pub mod workloads;
