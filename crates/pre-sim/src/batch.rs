//! The supervised batch runner: the one fan-out behind every set of
//! independent runs.
//!
//! The evaluation matrix, parameter sweeps, the representative slices of a
//! sampled run and `quick_check` are all batches of [`RunSpec`]s. Each of
//! them is a thin view over [`run_batch`], which runs the specs over the
//! [`pre_par::try_par_map`] worker pool (`PRE_THREADS` caps the workers)
//! and returns one outcome per spec.
//!
//! Semantics:
//!
//! * **Ordering.** Outcomes come back in spec order, whatever order the
//!   workers finished in. Every run is deterministic, so a batch's outcomes
//!   do not depend on the worker count.
//! * **Progress.** `progress(index, result)` fires once per successful
//!   spec, on the worker thread that ran it, right after the run returns.
//!   Calls are serialized (the callback sits behind a mutex), and under
//!   parallel execution they arrive in completion order, not spec order.
//!   Failed specs never reach it.
//! * **Retries.** A spec whose run errors or panics is re-run up to
//!   [`BatchPolicy::max_retries`] extra times. Every attempt runs under its
//!   own `catch_unwind`, so retries cover panics as well as errors; the
//!   failure keeps the last attempt's error and the attempt count.
//! * **Fail-fast.** With [`BatchPolicy::fail_fast`], the first spec that
//!   exhausts its attempts stops the batch from launching new runs. Runs
//!   already in flight finish; specs not yet started fail with
//!   [`SimError::Skipped`] and zero attempts. Which specs were in flight is
//!   scheduling-dependent (deterministic under `PRE_THREADS=1`).
//! * **Fault injection.** `PRE_FAULT=panic:cell=<N>` panics the spec at
//!   index `N` of *this* batch ([`crate::fault`]), on every attempt. Indices
//!   are per batch: a sampled run's slices form their own batch nested
//!   inside the matrix's, so `cell=1` also faults slice 1 of every sampled
//!   cell.

use crate::runner::{run_one, RunResult, RunSpec};
use pre_model::error::SimError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// How a batch treats failing runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Extra attempts for a spec whose run errors or panics.
    pub max_retries: u32,
    /// Stop launching new specs once one has failed every attempt.
    pub fail_fast: bool,
}

/// One spec that produced no result.
#[derive(Debug)]
pub struct BatchFailure {
    /// Index of the spec in the batch.
    pub index: usize,
    /// What the spec ran: the cell name for matrix cells, the grid settings
    /// for sweep points.
    pub label: String,
    /// The last attempt's error (a caught panic is [`SimError::Panic`]).
    pub error: SimError,
    /// Attempts made (`1 + retries`; 0 when skipped by fail-fast).
    pub attempts: u32,
}

impl fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} ({}): {}", self.index, self.label, self.error)
    }
}

/// The error to report for a failed batch: the first real failure in spec
/// order, preferring a concrete error over a fail-fast
/// [`SimError::Skipped`] marker. `None` when nothing failed.
pub fn first_error(failures: Vec<BatchFailure>) -> Option<SimError> {
    let pos = failures
        .iter()
        .position(|f| !matches!(f.error, SimError::Skipped))
        .unwrap_or(0);
    failures.into_iter().nth(pos).map(|f| f.error)
}

/// Runs every spec over the supervised worker pool; see the module docs for
/// the ordering, progress, retry, fail-fast and fault-index semantics.
pub fn run_batch(
    specs: &[RunSpec],
    policy: &BatchPolicy,
    progress: impl FnMut(usize, &RunResult) + Send,
) -> Vec<Result<RunResult, BatchFailure>> {
    let progress = Mutex::new(progress);
    let abort = AtomicBool::new(false);
    let attempts_allowed = policy.max_retries.saturating_add(1);
    let indices: Vec<usize> = (0..specs.len()).collect();
    let outcomes = pre_par::try_par_map(&indices, |&i| {
        if policy.fail_fast && abort.load(Ordering::Relaxed) {
            return Err((SimError::Skipped, 0));
        }
        let mut last_error = SimError::Skipped;
        for _ in 0..attempts_allowed {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                crate::fault::panic_if_cell_faulted(i);
                run_one(&specs[i])
            }));
            match attempt {
                Ok(Ok(result)) => {
                    // The callback only reports progress, so a lock poisoned
                    // by an earlier panicking callback is safe to recover.
                    let mut report = progress.lock().unwrap_or_else(PoisonError::into_inner);
                    (*report)(i, &result);
                    return Ok(result);
                }
                Ok(Err(error)) => last_error = error,
                Err(payload) => {
                    last_error = SimError::Panic {
                        detail: pre_par::panic_message(payload.as_ref()),
                    }
                }
            }
        }
        if policy.fail_fast {
            abort.store(true, Ordering::Relaxed);
        }
        Err((last_error, attempts_allowed))
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| {
            let (error, attempts) = match outcome {
                Ok(Ok(result)) => return Ok(result),
                Ok(Err(failed)) => failed,
                // Only `progress` can panic outside an attempt, and it runs
                // after the one attempt that succeeded.
                Err(job) => (
                    SimError::Panic {
                        detail: job.payload,
                    },
                    1,
                ),
            };
            Err(BatchFailure {
                index,
                label: specs[index].cell_name(),
                error,
                attempts,
            })
        })
        .collect()
}
