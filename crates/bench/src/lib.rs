//! Paper-reproduction experiments behind the `repro` binary.
//!
//! * [`study`] — runs the curation pipeline over any subset of the 30 study
//!   cities, in parallel, at a configurable sampling scale;
//! * [`experiments`] — one function per paper table/figure, each returning a
//!   plain-text report with the same rows/series the paper plots;
//! * [`determinism`] — the cross-thread determinism probe;
//! * [`registry`] — every experiment as a value behind one
//!   [`Experiment`](registry::Experiment) trait; the `repro` binary is
//!   argument parsing plus one lookup;
//! * [`serve_exp`] — the `repro serve` plan-serving campaign: thread
//!   sweep, byte-identity digests and the SLO dashboard;
//! * [`tail_exp`] — the `repro tail` tail-latency attribution: slowest-
//!   trace exemplars, critical-path decomposition and the deterministic
//!   `trace.json` export.
//!
//! Performance is measured end to end by divide-bench
//! (`src/bin/divide-bench/`), a package of its own.

pub mod determinism;
pub mod experiments;
pub mod experiments_ext;
pub mod registry;
pub mod serve_exp;
pub mod study;
pub mod tail_exp;

pub use registry::{Experiment, ExperimentAction, ExperimentCtx, FnExperiment};
pub use study::{run_study, Scale, StudyDataset};
