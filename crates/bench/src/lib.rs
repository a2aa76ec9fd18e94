//! # llmsim-bench — paper table/figure regeneration and benchmarks
//!
//! One experiment module per table and figure of the paper (see the
//! DESIGN.md experiment index), an ordered parallel runner, and Criterion
//! benchmarks of the simulator's own kernels.
//!
//! [`experiments::EXPERIMENTS`] is the one registry of rendered artifacts:
//! `all_experiments` prints them all in paper order, `--only <name>` picks
//! one (`fig08_icl_vs_spr`, …), and `--out <dir>` writes `<name>.txt` files
//! — the committed `results/` directory, pinned by a golden test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
