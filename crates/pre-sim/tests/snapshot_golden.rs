//! Golden bit-identity tests for the checkpoint/cache layer.
//!
//! The contract of warm-up snapshots and the result cache is *exactness*:
//! forking a shared snapshot, restoring a serialized snapshot, or answering
//! from the cache must be bit-identical to doing the work from scratch —
//! never "close enough". These tests pin that contract across the mixed
//! workload matrix, every technique and both scheduler implementations.

use pre_core::{OooCore, WarmedState};
use pre_model::config::SimConfig;
use pre_model::snapshot::SimSnapshot;
use pre_runahead::Technique;
use pre_sim::experiments::Suite;
use pre_sim::runner::{run_one, RunSpec};
use pre_sim::stores;
use pre_workloads::{Workload, WorkloadParams};

const BUDGET: u64 = 1_500;
const WARMUP: u64 = 800;

fn golden_params() -> WorkloadParams {
    WorkloadParams::short(400)
}

/// Runs `spec`'s cell from a *freshly captured* snapshot, bypassing the
/// global stores entirely: capture the warm-up, derive the warmed state,
/// build the core, run. This is the "cold end-to-end" reference the
/// store-forked runs must match bit-for-bit.
fn fresh_end_to_end(spec: &RunSpec) -> pre_model::stats::SimStats {
    let program = spec.workload.build(&spec.params);
    let snap = SimSnapshot::capture(&program, spec.warmup_uops);
    let warmed = WarmedState::build(&spec.config, &snap.trace);
    let mut core = OooCore::from_snapshot(&spec.config, &program, spec.technique, &snap, &warmed)
        .expect("valid configuration");
    core.run(spec.max_uops, spec.max_cycles);
    core.stats().clone()
}

#[test]
fn snapshot_fork_matches_cold_capture_across_matrix_and_schedulers() {
    for reference_scheduler in [false, true] {
        let mut config = SimConfig::haswell_like();
        config.core.reference_scheduler = reference_scheduler;
        for (workload, technique) in Suite::Mixed.quick_cells() {
            let spec = RunSpec::new(workload, technique)
                .with_budget(BUDGET)
                .with_config(config.clone())
                .with_params(golden_params())
                .with_warmup(WARMUP);
            // First run captures (or reuses) the shared snapshot; the second
            // is guaranteed to fork the stored one.
            let first = run_one(&spec).expect("valid run");
            let second = run_one(&spec).expect("valid run");
            let reference = fresh_end_to_end(&spec);
            let cell = spec.cell_name();
            assert_eq!(
                first.stats, reference,
                "{cell} (ref_sched={reference_scheduler}): store-built run diverged from fresh capture"
            );
            assert_eq!(
                second.stats, reference,
                "{cell} (ref_sched={reference_scheduler}): forked run diverged from fresh capture"
            );
            // Cell-by-cell including the histogram/average fields the struct
            // equality treats loosely: the serialized form must match too.
            assert_eq!(first.stats.to_kv(), reference.to_kv(), "{cell} kv");
            assert_eq!(second.stats.to_kv(), reference.to_kv(), "{cell} kv");
        }
    }
}

#[test]
fn serialized_snapshot_restores_bit_identically() {
    let params = WorkloadParams::short(500);
    let chase: Workload = "asm-chase-large".parse().expect("known workload");
    // No image, full image pages, and scattered words over many pages: the
    // serialized form is relative to each program's image.
    for workload in [Workload::LbmLike, chase, Workload::McfLike] {
        let program = workload.build(&params);
        let snap = SimSnapshot::capture(&program, WARMUP);
        let restored = SimSnapshot::from_text(&snap.to_text(), &program).expect("roundtrips");
        assert_eq!(restored, snap);
        let config = SimConfig::haswell_like();
        for technique in Technique::ALL {
            let run = |s: &SimSnapshot| {
                let warmed = WarmedState::build(&config, &s.trace);
                let mut core = OooCore::from_snapshot(&config, &program, technique, s, &warmed)
                    .expect("valid configuration");
                core.run(BUDGET, 1_000_000);
                core.stats().clone()
            };
            let a = run(&snap);
            let b = run(&restored);
            assert_eq!(a.to_kv(), b.to_kv(), "{workload:?}/{technique:?}");
        }
    }
}

#[test]
fn forks_never_write_through_to_the_shared_snapshot() {
    // Forked cores share the snapshot's memory pages until they store to
    // them; running two of them to completion must leave the snapshot
    // exactly as a fresh capture.
    let program = Workload::McfLike.build(&WorkloadParams::short(500));
    let snap = SimSnapshot::capture(&program, WARMUP);
    let config = SimConfig::haswell_like();
    let warmed = WarmedState::build(&config, &snap.trace);
    let stats: Vec<_> = [Technique::OutOfOrder, Technique::Pre]
        .into_iter()
        .map(|technique| {
            let mut core = OooCore::from_snapshot(&config, &program, technique, &snap, &warmed)
                .expect("valid configuration");
            core.run(BUDGET, 1_000_000);
            assert!(core.stats().committed_stores > 0, "{technique:?} stored");
            core.stats().clone()
        })
        .collect();
    let fresh = SimSnapshot::capture(&program, WARMUP);
    assert_eq!(snap, fresh, "a fork wrote through to the shared snapshot");
    assert_eq!(snap.to_text(), fresh.to_text());
    // And a core forked after them still behaves as the first one did.
    let mut again =
        OooCore::from_snapshot(&config, &program, Technique::OutOfOrder, &snap, &warmed)
            .expect("valid configuration");
    again.run(BUDGET, 1_000_000);
    assert_eq!(again.stats().to_kv(), stats[0].to_kv());
}

#[test]
fn cache_hit_is_byte_identical_to_the_miss_that_filled_it() {
    // Distinct params keep this test's cache keys disjoint from the other
    // tests (the stores are process-global and tests run concurrently).
    let params = WorkloadParams {
        iterations: 777,
        ..WorkloadParams::default()
    };
    let chase: Workload = "asm-chase-large".parse().expect("known workload");
    for (workload, technique) in [
        (Workload::LbmLike, Technique::PreEmq),
        (chase, Technique::Runahead),
        (Workload::ComputeBound, Technique::OutOfOrder),
    ] {
        let spec = RunSpec::new(workload, technique)
            .with_budget(BUDGET)
            .with_params(params)
            .with_warmup(WARMUP)
            .with_result_cache(true);
        let miss = run_one(&spec).expect("valid run");
        assert!(!miss.cache_hit, "first run must simulate");
        let hit = run_one(&spec).expect("valid run");
        assert!(hit.cache_hit, "second run must answer from cache");
        // Byte-identical: the serialized cache-file form of both results is
        // the same string, and every stats field matches.
        let program = spec.workload.build(&spec.params);
        let (_, desc) = stores::result_key(&spec, &program);
        assert_eq!(
            stores::result_to_text(&desc, &hit),
            stores::result_to_text(&desc, &miss),
            "{}: cache hit differs from the miss that filled it",
            spec.cell_name()
        );
        assert_eq!(hit.stats, miss.stats);
        assert_eq!(hit.energy, miss.energy);
    }
}
