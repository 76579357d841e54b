#![warn(missing_docs)]

//! Experiment harness: one function per table/figure of the paper.
//!
//! Every experiment in the paper's Section 4 (plus the Discussion-section
//! extensions) is a function in [`experiments`] returning a
//! [`report::Report`], listed once in [`experiments::REGISTRY`]; the `repro`
//! binary looks a subcommand up there and prints/writes the report, and the
//! Criterion benches in `benches/` track the system builders' runtime. See
//! DESIGN.md for the design and EXPERIMENTS.md for paper-vs-measured numbers.

pub mod experiments;
pub mod report;
pub mod scale;

pub use experiments::*;
pub use scale::Scales;
