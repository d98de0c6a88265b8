//! # recross-bench
//!
//! The benchmark harness of the ReCross reproduction: one runner per paper
//! table/figure ([`experiments`]), the standard workload configurations
//! ([`workloads`]), the serving-mode sweeps ([`serving`]), and the `repro`
//! binary that prints every row the paper reports (its flag parsing lives
//! in [`cli`]). Closed-loop trace capture for `repro run` lives in
//! [`runtrace`].

pub mod cli;
pub mod experiments;
pub mod runtrace;
pub mod serving;
pub mod workloads;
