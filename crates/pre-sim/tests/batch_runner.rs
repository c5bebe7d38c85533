//! The batch runner's progress contract, checked through both of its views
//! (the evaluation matrix and the parameter sweep): `progress` fires once per
//! successful operation, never for a failed one, on the pool's worker
//! threads rather than the caller's.

use pre_model::config::SimConfig;
use pre_runahead::Technique;
use pre_sim::matrix::EvaluationMatrix;
use pre_sim::runner::{cell_name, RunSpec};
use pre_sim::sweep::Sweep;
use pre_workloads::{Workload, WorkloadParams};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};

/// Sets `PRE_THREADS`/`PRE_FAULT` for one test and clears them after. The
/// tests share the lock because the variables are process-global.
struct Env {
    _lock: MutexGuard<'static, ()>,
}

impl Env {
    fn set(fault: &str) -> Env {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("PRE_THREADS", "2");
        std::env::set_var("PRE_FAULT", fault);
        std::env::remove_var("PRE_CACHE_DIR");
        Env { _lock: guard }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        std::env::remove_var("PRE_THREADS");
        std::env::remove_var("PRE_FAULT");
    }
}

/// Asserts every progress call came from a pool worker and names each
/// expected operation exactly once.
fn assert_worker_calls(calls: Vec<(ThreadId, String)>, mut expected: Vec<String>) {
    let caller = thread::current().id();
    assert!(
        calls.iter().all(|(thread, _)| *thread != caller),
        "progress ran on the calling thread: {calls:?}"
    );
    let mut seen: Vec<String> = calls.into_iter().map(|(_, label)| label).collect();
    seen.sort();
    expected.sort();
    assert_eq!(seen, expected, "one progress call per successful operation");
}

#[test]
fn matrix_progress_fires_on_workers_once_per_successful_cell() {
    let _env = Env::set("panic:cell=1");
    let specs: Vec<RunSpec> = [Workload::ComputeBound, Workload::McfLike]
        .into_iter()
        .flat_map(|w| [Technique::OutOfOrder, Technique::Pre].map(|t| (w, t)))
        .map(|(w, t)| {
            RunSpec::new(w, t)
                .with_budget(1_500)
                .with_config(SimConfig::small_for_tests())
                .with_params(WorkloadParams::short(50))
        })
        .collect();
    let calls = Mutex::new(Vec::new());
    let run = EvaluationMatrix::run_specs_isolated(&specs, |r| {
        let label = cell_name(r.workload, r.technique);
        calls.lock().unwrap().push((thread::current().id(), label));
    });
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].index, 1);
    let survivors = specs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, s)| s.cell_name())
        .collect();
    assert_worker_calls(calls.into_inner().unwrap(), survivors);
}

#[test]
fn sweep_progress_fires_on_workers_once_per_successful_point() {
    let _env = Env::set("panic:cell=1");
    let mut sweep = Sweep::new(Workload::ComputeBound, Technique::OutOfOrder)
        .with_dim("rob=128,160,192".parse().expect("grid"));
    sweep.budget = 1_500;
    sweep.params = WorkloadParams::short(50);
    sweep.base_config = SimConfig::small_for_tests();
    // Retried attempts of the faulted point must not reach `progress` either.
    sweep.max_retries = 1;
    let calls = Mutex::new(Vec::new());
    let run = sweep.run_isolated(|p| {
        calls
            .lock()
            .unwrap()
            .push((thread::current().id(), p.label()));
    });
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].label, "rob=160");
    assert_eq!(run.failures[0].attempts, 2);
    assert_worker_calls(
        calls.into_inner().unwrap(),
        vec!["rob=128".to_string(), "rob=192".to_string()],
    );
}
