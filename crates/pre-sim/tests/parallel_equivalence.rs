//! The parallel evaluation matrix must be a pure speedup: same cells, same
//! order, bit-identical statistics as the serial reference path.

use pre_runahead::Technique;
use pre_sim::matrix::EvaluationMatrix;
use pre_sim::runner::{run_one, RunSpec};
use pre_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const WORKLOADS: [Workload; 2] = [Workload::LbmLike, Workload::McfLike];
const TECHNIQUES: [Technique; 2] = [Technique::OutOfOrder, Technique::Pre];

/// The `workloads` × `techniques` cells in matrix (workload-major) order.
fn specs(workloads: &[Workload], techniques: &[Technique], uops: u64) -> Vec<RunSpec> {
    workloads
        .iter()
        .flat_map(|&w| {
            techniques
                .iter()
                .map(move |&t| RunSpec::new(w, t).with_budget(uops))
        })
        .collect()
}

/// The parallel path: one supervised batch over the worker pool.
fn run_parallel(specs: &[RunSpec]) -> EvaluationMatrix {
    EvaluationMatrix::run_specs_isolated(specs, |_| {})
        .into_result()
        .expect("parallel matrix runs")
}

/// The serial reference: each cell on the calling thread, in order.
fn run_serial(specs: &[RunSpec]) -> EvaluationMatrix {
    let mut matrix = EvaluationMatrix::new();
    for spec in specs {
        matrix.push(run_one(spec).expect("serial cell runs"));
    }
    matrix
}

/// Serializes the tests in this binary: one of them mutates the
/// process-global `PRE_THREADS` variable, which `pre-par` reads on every
/// call, so concurrent tests could otherwise observe a serial pool and pass
/// vacuously.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A tiny 2×2 (workload × technique) matrix runs to completion and yields
/// identical statistics whether run serially or in parallel.
#[test]
fn parallel_matrix_matches_serial_bit_for_bit() {
    let _guard = ENV_LOCK.lock().unwrap();
    let specs = specs(&WORKLOADS, &TECHNIQUES, 4_000);
    let serial = run_serial(&specs);
    let parallel = run_parallel(&specs);

    assert_eq!(serial.results().len(), 4);
    assert_eq!(parallel.results().len(), 4);
    for (s, p) in serial.results().iter().zip(parallel.results()) {
        assert_eq!(s.workload, p.workload, "cell order must match");
        assert_eq!(s.technique, p.technique, "cell order must match");
        assert_eq!(
            s.stats, p.stats,
            "{}/{:?} diverged",
            s.workload, s.technique
        );
        assert_eq!(
            s.energy.total_mj().to_bits(),
            p.energy.total_mj().to_bits(),
            "energy must be bit-identical"
        );
        assert_eq!(s.deadlocked, p.deadlocked);
    }

    // Derived figure metrics agree exactly too.
    for &w in &WORKLOADS {
        assert_eq!(
            serial.speedup(w, Technique::Pre).map(f64::to_bits),
            parallel.speedup(w, Technique::Pre).map(f64::to_bits),
        );
    }
}

/// The progress callback fires exactly once per cell under both paths.
#[test]
fn progress_fires_once_per_cell() {
    let _guard = ENV_LOCK.lock().unwrap();
    let count = AtomicUsize::new(0);
    EvaluationMatrix::run_specs_isolated(&specs(&WORKLOADS, &TECHNIQUES, 2_000), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    })
    .into_result()
    .expect("matrix runs");
    assert_eq!(count.load(Ordering::Relaxed), 4);
}

/// Forcing a single worker thread must not change results either (the
/// parallel path degenerates to the serial one).
#[test]
fn single_threaded_parallel_path_is_identical() {
    // `PRE_THREADS` is read per call inside pre-par and is process-global;
    // ENV_LOCK keeps the other tests from seeing it.
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("PRE_THREADS", "1");
    let specs = specs(&[Workload::LbmLike], &[Technique::Pre], 2_000);
    let one = run_parallel(&specs);
    std::env::remove_var("PRE_THREADS");
    let reference = run_serial(&specs);
    assert_eq!(one.results()[0].stats, reference.results()[0].stats);
}
