//! Experiment runner for the PRE reproduction.
//!
//! This crate turns the simulator (`pre-core`), the workload suite
//! (`pre-workloads`) and the energy model (`pre-energy`) into the experiments
//! of the paper's evaluation section. Each figure, table and headline text
//! statistic has a binary under `src/bin/` that regenerates it; the shared
//! machinery lives here:
//!
//! * [`runner`] — run one (workload, technique) pair and collect statistics
//!   plus energy.
//! * [`batch`] — the supervised batch runner every fan-out goes through:
//!   independent runs over a [`pre_par`] worker pool (`PRE_THREADS` caps
//!   the worker count), with retries, fail-fast and per-run failure
//!   records.
//! * [`matrix`] — run the full evaluation matrix (a batch) and compute the
//!   normalized metrics the figures plot (speedup over the out-of-order
//!   baseline, energy savings, invocation ratios, …).
//! * [`experiments`] — the per-figure/per-stat experiment definitions,
//!   the reduced default budgets that keep runs tractable on a laptop, and
//!   the command-line parser every binary shares.
//! * [`stores`] — warm-up snapshot sharing and the content-addressed result
//!   cache (in-memory always, on disk under `PRE_CACHE_DIR`).
//! * [`sample`] — SimPoint-style interval sampling: profile → cluster →
//!   simulate representatives → extrapolate, with sampling metadata on the
//!   result (`--sample` on the binaries).
//! * [`sweep`] — declarative parameter-grid sweeps expanded over the worker
//!   pool, cache-aware, with JSON/CSV emission (the `sweep` binary).
//! * [`report`] — plain-text table and CSV rendering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod experiments;
pub mod fault;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod sample;
pub mod stores;
pub mod sweep;

pub use batch::{run_batch, BatchFailure, BatchPolicy};
pub use matrix::{EvaluationMatrix, MatrixRun};
pub use runner::{cell_name, run_one, run_one_traced, RunResult, RunSpec};
pub use sample::{run_sampled, RepWeight, SampleMeta, SampleSpec};
pub use sweep::{Sweep, SweepPoint, SweepRun};
