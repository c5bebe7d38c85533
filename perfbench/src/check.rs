//! The output check every run makes. Each failed operation counts once in
//! `failed`, whatever the reasons.

use crate::bench::{Batch, Bench, Plan, DEFAULT_SEED};
use crate::digest::{digest, Lookup, Table};
use pre_model::stats::{SimStats, TerminationKind};
use pre_sim::{stores, RunResult};
use std::collections::HashMap;

/// Checks batches of one run against the pinned digests, against each
/// other and, for the traced run, against the untraced reference.
#[derive(Debug)]
pub struct Checker<'a> {
    bench: Bench,
    seed: u64,
    pinned: &'a Table,
    first: HashMap<String, u64>,
}

impl<'a> Checker<'a> {
    /// A checker for `bench` at `seed`.
    pub fn new(bench: Bench, seed: u64, pinned: &'a Table) -> Self {
        Checker {
            bench,
            seed,
            pinned,
            first: HashMap::new(),
        }
    }

    /// The failed operations of `batch`, as `(label, reason)`. An operation
    /// fails when it errored or panicked, did not end `Completed`, differs
    /// from the same operation earlier in this run, from its pinned digest
    /// (or, at the default seed, has none), from `reference` (the untraced
    /// stats, for a traced batch), or, for a sweep point, when the cache
    /// did not answer exactly the repeated points with byte-equal results.
    pub fn check(
        &mut self,
        plan: &Plan,
        batch: &Batch,
        reference: Option<&HashMap<String, SimStats>>,
    ) -> Vec<(String, String)> {
        let by_label: HashMap<&str, &RunResult> = plan
            .ops()
            .zip(&batch.outcomes)
            .filter_map(|(op, out)| Some((op.label.as_str(), out.as_ref().ok()?)))
            .collect();
        let mut failures = Vec::new();
        for (op, outcome) in plan.ops().zip(&batch.outcomes) {
            let result = match outcome {
                Ok(r) => r,
                Err(e) => {
                    failures.push((op.label.clone(), e.clone()));
                    continue;
                }
            };
            let mut reasons = Vec::new();
            if result.deadlocked || result.terminated() != TerminationKind::Completed {
                reasons.push(format!("terminated {:?}", result.terminated()));
            }
            let d = digest(result);
            let first = *self.first.entry(op.label.clone()).or_insert(d);
            if first != d {
                reasons.push(format!(
                    "digest {d:016x} differs from this run's first {first:016x}"
                ));
            }
            match self.pinned.get(self.bench.name(), &op.label, op.program) {
                Lookup::Pinned(want) if want != d => {
                    reasons.push(format!("digest {d:016x} != pinned {want:016x}"));
                }
                Lookup::Unpinned if self.seed == DEFAULT_SEED => {
                    reasons.push("no pinned digest at the default seed".to_string());
                }
                _ => {}
            }
            if let Some(reference) = reference {
                if reference.get(&op.label) != Some(&result.stats) {
                    reasons.push("traced SimStats differ from the untraced run".to_string());
                }
            }
            if self.bench == Bench::SweepCache {
                let expect_hit = op.repeats.is_some();
                if result.cache_hit != expect_hit {
                    reasons.push(format!(
                        "cache_hit {} (expected {expect_hit})",
                        result.cache_hit
                    ));
                }
                if let Some(first) = op.repeats.as_ref().and_then(|l| by_label.get(l.as_str())) {
                    let text = |r| stores::result_to_text(&op.label, r);
                    if text(result) != text(first) {
                        reasons.push("disk hit differs from the pass-1 result".to_string());
                    }
                }
            }
            if !reasons.is_empty() {
                failures.push((op.label.clone(), reasons.join("; ")));
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{run_traced, run_untraced, Group, Layers, Op};
    use crate::spans::Recorder;
    use pre_runahead::Technique;
    use pre_sim::{run_one, RunSpec, SampleSpec};
    use pre_workloads::Workload;

    fn tiny_plan() -> Plan {
        let specs = [
            RunSpec::new(Workload::McfLike, Technique::Runahead).with_budget(3_000),
            RunSpec::new(Workload::ASM_SUITE[0], Technique::Pre).with_budget(3_000),
            RunSpec::new(Workload::LbmLike, Technique::PreEmq).with_budget(3_000),
            RunSpec::new(Workload::ComputeBound, Technique::OutOfOrder)
                .with_budget(12_000)
                .sampled(SampleSpec::new(2, 3_000)),
        ];
        let ops = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Op {
                id: i as u64 + 1,
                label: spec.cell_name(),
                repeats: None,
                program: stores::program_for(spec.workload, &spec.params).content_hash(),
                spec,
            })
            .collect();
        Plan {
            bench: Bench::MatrixMixed,
            groups: vec![Group {
                ops,
                sweep: None,
                clear_before: false,
            }],
        }
    }

    fn pinned_from(plan: &Plan, batch: &Batch) -> Table {
        let mut t = Table::default();
        for (op, out) in plan.ops().zip(&batch.outcomes) {
            t.insert(
                "matrix-mixed",
                &op.label,
                op.program,
                digest(out.as_ref().unwrap()),
            );
        }
        t
    }

    #[test]
    fn digests_repeat_across_batches_pool_widths_and_the_traced_replay() {
        let plan = tiny_plan();
        let a = run_untraced(&plan, None).unwrap();
        let b = run_untraced(&plan, None).unwrap();
        let serial: Vec<u64> = plan
            .ops()
            .map(|op| digest(&run_one(&op.spec).unwrap()))
            .collect();
        let da: Vec<u64> = a
            .outcomes
            .iter()
            .map(|o| digest(o.as_ref().unwrap()))
            .collect();
        let db: Vec<u64> = b
            .outcomes
            .iter()
            .map(|o| digest(o.as_ref().unwrap()))
            .collect();
        assert_eq!(da, db);
        assert_eq!(da, serial);

        let pinned = pinned_from(&plan, &a);
        let reference: HashMap<String, SimStats> = plan
            .ops()
            .zip(&a.outcomes)
            .map(|(op, o)| (op.label.clone(), o.as_ref().unwrap().stats.clone()))
            .collect();
        let traced = run_traced(&plan, &Recorder::new(), &Layers::default(), None);
        let mut checker = Checker::new(Bench::MatrixMixed, DEFAULT_SEED, &pinned);
        assert_eq!(checker.check(&plan, &a, None), vec![]);
        assert_eq!(checker.check(&plan, &b, None), vec![]);
        assert_eq!(checker.check(&plan, &traced, Some(&reference)), vec![]);
    }

    #[test]
    fn a_wrong_or_missing_pinned_digest_fails_the_operation() {
        let plan = tiny_plan();
        let batch = run_untraced(&plan, None).unwrap();
        let good = pinned_from(&plan, &batch);
        let ops: Vec<&Op> = plan.ops().collect();

        let mut wrong = good.clone();
        let d = digest(batch.outcomes[1].as_ref().unwrap());
        wrong.insert("matrix-mixed", &ops[1].label, ops[1].program, d ^ 1);
        let failures = Checker::new(Bench::MatrixMixed, 7, &wrong).check(&plan, &batch, None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!(failures[0].0, ops[1].label);
        assert!(failures[0].1.contains("pinned"), "{failures:?}");

        // At the default seed every operation needs an entry; elsewhere an
        // entry for another program (another seed) is simply not applied.
        let mut other_program = good.clone();
        other_program.insert("matrix-mixed", &ops[0].label, ops[0].program ^ 1, 0);
        let at_default = Checker::new(Bench::MatrixMixed, DEFAULT_SEED, &other_program)
            .check(&plan, &batch, None);
        assert_eq!(at_default.len(), 1, "{at_default:?}");
        assert!(Checker::new(Bench::MatrixMixed, 7, &other_program)
            .check(&plan, &batch, None)
            .is_empty());
    }

    #[test]
    fn a_traced_mismatch_fails_the_operation() {
        let plan = tiny_plan();
        let batch = run_untraced(&plan, None).unwrap();
        let pinned = pinned_from(&plan, &batch);
        let mut reference: HashMap<String, SimStats> = plan
            .ops()
            .zip(&batch.outcomes)
            .map(|(op, o)| (op.label.clone(), o.as_ref().unwrap().stats.clone()))
            .collect();
        let label = plan.ops().nth(2).unwrap().label.clone();
        reference.get_mut(&label).unwrap().cycles += 1;
        let failures = Checker::new(Bench::MatrixMixed, DEFAULT_SEED, &pinned).check(
            &plan,
            &batch,
            Some(&reference),
        );
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, label);
    }
}
