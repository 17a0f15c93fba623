//! # gsi-bench — reproduction harness for every table and figure
//!
//! The `paper` binary regenerates each experiment of the paper's §VII on the
//! simulated-GPU substrate (see DESIGN.md for the substitution contract):
//!
//! ```text
//! cargo run --release -p gsi-bench --bin paper -- all
//! cargo run --release -p gsi-bench --bin paper -- table6 --queries 10
//! cargo run --release -p gsi-bench --bin paper -- fig13 --scale 2.0
//! ```
//!
//! Criterion micro-benchmarks cover the same comparisons at fixed small
//! sizes (`cargo bench --workspace`).

pub mod experiments;
pub mod fmt;
pub mod runner;
pub mod workloads;
