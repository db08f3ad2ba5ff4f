//! Differential oracle for the service's delta re-plan.
//!
//! After a write to one relation, a cached shape that reads it misses, and
//! the service re-plans it as a delta of the stale generation: every
//! sub-join over unchanged relations keeps the stale plan's bound.  The
//! oracle is a fresh sequential `Optimizer::plan` on the new snapshot, for
//! every JOB-like shape q1–q6 and every relation it reads (replaced in turn
//! with different rows, so deltas also chain).
//!
//! The served plan must prove the oracle's bound for every connected
//! sub-join, predict the same cost and split the same number of parts.
//! Where the oracle's choice is strict, it must also have the same strategy
//! tree, atom order and certificates.  The bottleneck DP breaks ties
//! between equally bounded plans by the last bits of the LP optima, which
//! depend on the warm start that reached each optimum, and JOB-like shapes
//! tie often (joining a dimension on its key does not raise a bound).  So
//! a served tree that differs from the oracle's must be tied with it: same
//! bounds and same predicted cost within 1e-9.
//!
//! The delta must also do only the work the write forces: the connected
//! multi-atom sub-joins containing a replaced atom, plus the partition
//! search's LPs.

use lpb_core::{BatchEstimator, JoinQuery};
use lpb_data::{Catalog, Relation};
use lpb_datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpb_exec::{true_cardinality, LogicalPlan, Optimizer};
use lpb_serve::{QueryService, ServeConfig};
use std::time::Duration;

fn catalog() -> Catalog {
    job_like_catalog(&JobLikeConfig {
        movies: 200,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    })
}

/// `relation` without every third row: same name and schema, other rows.
fn with_other_rows(relation: &Relation) -> Relation {
    let part_of: Vec<usize> = (0..relation.len())
        .map(|i| usize::from(i % 3 == 0))
        .collect();
    let kept = relation
        .split_rows(
            vec![relation.name().to_string(), "dropped".to_string()],
            &part_of,
        )
        .swap_remove(0);
    assert!(!kept.is_empty() && kept.len() < relation.len());
    kept
}

/// The connected sub-joins of two or more atoms that contain an atom over
/// `relation`.
fn subjoins_over(query: &JoinQuery, relation: &str) -> usize {
    let touched: u64 = query
        .atoms()
        .iter()
        .enumerate()
        .filter(|(_, atom)| atom.relation == relation)
        .map(|(j, _)| 1u64 << j)
        .sum();
    LogicalPlan::of(query)
        .connected_subsets()
        .into_iter()
        .filter(|s| s.count_ones() >= 2 && s & touched != 0)
        .count()
}

#[test]
fn delta_replans_match_fresh_plans_and_solve_only_touched_subjoins() {
    let (mut checked, mut identical) = (0, 0);
    for shape in job_like_queries().into_iter().take(6) {
        let query = shape.query;
        let service = QueryService::with_config(
            ServeConfig {
                gather_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            catalog(),
        );
        let estimator = service.optimizer().estimator();
        assert!(!service.execute(&query).unwrap().cache_hit);
        let mut relations: Vec<String> = Vec::new();
        for atom in query.atoms() {
            if !relations.contains(&atom.relation) {
                relations.push(atom.relation.clone());
            }
        }
        for relation in &relations {
            let current = service.snapshot().get(relation).unwrap();
            service.replace_relation(with_other_rows(&current));
            let snapshot = service.snapshot();

            let lps_before = estimator.lps_estimated();
            let served = service.execute(&query).unwrap();
            let lps = estimator.lps_estimated() - lps_before;
            let label = format!("q{} after replacing {relation}", shape.id);
            assert!(!served.cache_hit, "{label}: stale plan served");
            assert_eq!(
                served.output_size as u128,
                true_cardinality(&query, &snapshot).unwrap(),
                "{label}"
            );
            assert_eq!(served.certificate_violations, 0, "{label}");

            let fresh = Optimizer::new()
                .with_estimator(BatchEstimator::default().sequential())
                .plan(&query, &snapshot)
                .unwrap();
            let plan = &served.plan;
            for mask in LogicalPlan::of(&query).connected_subsets() {
                let (got, want) = (plan.bounds.get(mask), fresh.bounds.get(mask));
                let (got, want) = (got.unwrap(), want.unwrap());
                assert!(
                    (got - want).abs() <= 1e-9,
                    "{label}: sub-join {mask:#b} bounded 2^{got} by delta, 2^{want} fresh"
                );
            }
            assert_eq!(plan.parts_planned, fresh.parts_planned, "{label}");
            for (got, want) in [
                (plan.predicted_log2_cost, fresh.predicted_log2_cost),
                (
                    plan.monolithic_predicted_log2_cost,
                    fresh.monolithic_predicted_log2_cost,
                ),
            ] {
                assert!(
                    (got - want).abs() <= 1e-9,
                    "{label}: cost 2^{got} vs 2^{want}"
                );
            }
            if plan.physical.describe() == fresh.physical.describe() {
                assert_eq!(plan.order, fresh.order, "{label}");
                let (got, want) = (plan.physical.certificates(), fresh.physical.certificates());
                assert_eq!(got.len(), want.len(), "{label}");
                for ((got_node, got), (want_node, want)) in got.iter().zip(&want) {
                    assert_eq!(got_node, want_node, "{label}");
                    assert!(
                        (got - want).abs() <= 1e-9,
                        "{label}: {got_node} certified 2^{got} by delta, 2^{want} fresh"
                    );
                }
                identical += 1;
            }

            // Work: the monolithic table re-bounds exactly the sub-joins
            // over the replaced relation; the rest of the LPs are the
            // partition search's.
            let touched = subjoins_over(&query, relation);
            assert_eq!(
                plan.subqueries_bounded + plan.bound_fallbacks,
                touched,
                "{label}"
            );
            assert_eq!(
                lps,
                touched + plan.partition_subqueries_bounded + plan.partition_bound_fallbacks,
                "{label}"
            );
            assert!(
                touched < fresh.subqueries_bounded,
                "{label}: nothing reused"
            );
            checked += 1;
        }
        assert!(service.execute(&query).unwrap().cache_hit);
        assert_eq!(service.stats().cached_plans, 1);
    }
    assert!(
        checked >= 24,
        "only {checked} (shape, relation) cases checked"
    );
    assert!(identical > 0, "no served plan matched its oracle's tree");
}
