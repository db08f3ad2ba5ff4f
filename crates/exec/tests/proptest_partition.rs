//! Partition-correctness property tests: on random skewed inputs the
//! degree partition must be a true partition (disjoint, complete, strongly
//! satisfying), the light/heavy coarsening must preserve the tuples, and
//! every part's true sub-join size must stay under its per-part LP bound —
//! the soundness the partition-aware planner's certificates rest on.

use lpb_core::{BatchEstimator, CollectConfig, JoinQuery};
use lpb_data::{Catalog, Norm, Relation, RelationBuilder, Schema};
use lpb_exec::{partition_by_degree, partition_for_statistic, split_light_heavy, true_cardinality};
use proptest::prelude::*;
use std::collections::HashMap;

#[path = "support/skewed.rs"]
mod skewed;
use skewed::arb_skewed_pairs;

const ATTRS: [&str; 4] = ["a", "b", "c", "d"];

/// A relation of arity 1–4 over small domains, built with `from_columns`
/// (which keeps duplicate rows), possibly empty, with a conditional
/// `(V | U)`: |U| ∈ 0..=2 and |V| ∈ 1..=2 distinct attributes each.
fn arb_conditional() -> impl Strategy<Value = (Relation, Vec<&'static str>, Vec<&'static str>)> {
    (
        1usize..5,
        proptest::collection::vec((0u64..5, 0u64..9, 0u64..4, 0u64..3), 0..80),
        0usize..3,
        1usize..3,
        0u64..1_000_000,
    )
        .prop_map(|(arity, rows, u_len, v_len, pick)| {
            let all: [Vec<u64>; 4] = [
                rows.iter().map(|r| r.0).collect(),
                rows.iter().map(|r| r.1).collect(),
                rows.iter().map(|r| r.2).collect(),
                rows.iter().map(|r| r.3).collect(),
            ];
            let schema = Schema::new(ATTRS[..arity].iter().copied()).unwrap();
            let rel = Relation::from_columns("R", schema, all[..arity].to_vec()).unwrap();
            let choose = |len: usize, mut pick: u64| {
                let mut pool: Vec<&'static str> = ATTRS[..arity].to_vec();
                let mut out = Vec::new();
                while out.len() < len.min(arity) {
                    out.push(pool.remove((pick % pool.len() as u64) as usize));
                    pick /= 7;
                }
                out
            };
            (rel, choose(v_len, pick / 1000), choose(u_len, pick))
        })
}

/// The degree partition the kernel replaced: rows grouped by a `Vec` key in
/// a `HashMap`, each group's distinct `V`-keys counted, and every bucket's
/// rows pushed through a `RelationBuilder`.  Returns `(part, bucket, max
/// degree, distinct U)` per bucket, in bucket order.
fn oracle_partition(rel: &Relation, v: &[&str], u: &[&str]) -> Vec<(Relation, u32, u64, usize)> {
    let u_pos = rel.schema().positions(u.iter().copied()).unwrap();
    let v_pos = rel.schema().positions(v.iter().copied()).unwrap();
    let mut groups: HashMap<Vec<u64>, Vec<Vec<u64>>> = HashMap::new();
    for row in 0..rel.len() {
        groups
            .entry(rel.key(row, &u_pos))
            .or_default()
            .push(rel.key(row, &v_pos));
    }
    let degree_of: HashMap<Vec<u64>, u64> = groups
        .into_iter()
        .map(|(key, mut vals)| {
            vals.sort_unstable();
            vals.dedup();
            (key, vals.len() as u64)
        })
        .collect();
    let bucket_of = |d: u64| {
        let mut b = 1u32;
        while (1u64 << b) < d {
            b += 1;
        }
        b
    };
    let mut buckets: Vec<u32> = degree_of.values().map(|&d| bucket_of(d)).collect();
    buckets.sort_unstable();
    buckets.dedup();
    buckets
        .into_iter()
        .map(|bucket| {
            let mut builder = RelationBuilder::new(
                format!("{}#deg{bucket}", rel.name()),
                rel.schema().attrs().to_vec(),
            )
            .unwrap();
            for row in 0..rel.len() {
                if bucket_of(degree_of[&rel.key(row, &u_pos)]) == bucket {
                    builder.push_codes(&rel.row(row)).unwrap();
                }
            }
            let in_bucket: Vec<u64> = degree_of
                .values()
                .copied()
                .filter(|&d| bucket_of(d) == bucket)
                .collect();
            let max_degree = in_bucket.iter().copied().max().unwrap();
            (builder.build(), bucket, max_degree, in_bucket.len())
        })
        .collect()
}

/// The light/heavy coarsening over the oracle partition: buckets whose max
/// degree is at most the geometric mean of the extreme maxima are light.
fn oracle_light_heavy(rel: &Relation, v: &[&str], u: &[&str]) -> Option<(Relation, Relation)> {
    let parts = oracle_partition(rel, v, u);
    if parts.len() < 2 {
        return None;
    }
    let log_deg = |d: u64| (d.max(1) as f64).log2();
    let dmin = parts
        .iter()
        .map(|p| log_deg(p.2))
        .fold(f64::INFINITY, f64::min);
    let dmax = parts
        .iter()
        .map(|p| log_deg(p.2))
        .fold(f64::NEG_INFINITY, f64::max);
    if dmax <= dmin {
        return None;
    }
    let tau = (dmin + dmax) / 2.0;
    let merge = |label: &str, heavy: bool| {
        let mut builder = RelationBuilder::new(
            format!("{}#{label}", rel.name()),
            rel.schema().attrs().to_vec(),
        )
        .unwrap();
        for part in parts.iter().filter(|p| (log_deg(p.2) > tau) == heavy) {
            for row in part.0.rows() {
                builder.push_codes(&row).unwrap();
            }
        }
        builder.build()
    };
    Some((merge("light", false), merge("heavy", true)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `partition_by_degree` produces exactly the oracle's parts — equal as
    /// relations (names, rows, row order) and in bucket, max degree and
    /// U-count — on random relations with duplicates and empty inputs.
    #[test]
    fn partition_by_degree_matches_the_oracle((rel, v, u) in arb_conditional()) {
        let parts = partition_by_degree(&rel, &v, &u).unwrap();
        let expected = oracle_partition(&rel, &v, &u);
        prop_assert_eq!(parts.len(), expected.len());
        for (part, (relation, bucket, max_degree, distinct_u)) in parts.iter().zip(&expected) {
            prop_assert_eq!(&part.relation, relation);
            prop_assert_eq!(part.bucket, *bucket);
            prop_assert_eq!(part.max_degree, *max_degree);
            prop_assert_eq!(part.distinct_u, *distinct_u);
        }
    }

    /// `split_light_heavy` produces exactly the oracle's two parts (or
    /// declines exactly when the oracle does).
    #[test]
    fn split_light_heavy_matches_the_oracle((rel, v, u) in arb_conditional()) {
        let split = split_light_heavy(&rel, &v, &u).unwrap();
        prop_assert_eq!(split, oracle_light_heavy(&rel, &v, &u));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `partition_by_degree` output is a true partition: the parts' tuples
    /// are exactly the input tuples (sorted-row equality implies both
    /// disjointness and completeness on a deduplicated relation), and the
    /// Lemma 2.5 refinement strongly satisfies the relation's own ℓp
    /// statistic in every part.
    #[test]
    fn degree_partition_is_disjoint_complete_and_strongly_satisfying(
        pairs in arb_skewed_pairs()
    ) {
        let rel = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let mut rows: Vec<Vec<u64>> = parts
            .iter()
            .flat_map(|p| p.relation.rows().collect::<Vec<_>>())
            .collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        prop_assert_eq!(&rows, &orig);

        let deg = rel.degree_sequence(&["x"], &["y"]).unwrap();
        for p in [1.0, 2.0, 3.0] {
            let log_b = deg.log2_lp_norm(Norm::finite(p)).unwrap();
            let refined =
                partition_for_statistic(&rel, &["x"], &["y"], Norm::finite(p), log_b).unwrap();
            let total: usize = refined.iter().map(|part| part.relation.len()).sum();
            prop_assert_eq!(total, rel.len());
            for part in &refined {
                prop_assert!(
                    part.strongly_satisfies(Norm::finite(p), log_b),
                    "bucket {} violates strong ℓ{} satisfaction",
                    part.bucket,
                    p
                );
            }
        }
    }

    /// The light/heavy coarsening preserves the tuples and genuinely
    /// separates degrees whenever it splits at all.
    #[test]
    fn light_heavy_split_partitions_the_tuples(pairs in arb_skewed_pairs()) {
        let rel = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let Some((light, heavy)) = split_light_heavy(&rel, &["x"], &["y"]).unwrap() else {
            // A single degree bucket: nothing to split, nothing to check.
            return Ok(());
        };
        prop_assert_eq!(light.len() + heavy.len(), rel.len());
        let mut rows: Vec<Vec<u64>> = light.rows().chain(heavy.rows()).collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        prop_assert_eq!(&rows, &orig);
        let max_of = |r: &lpb_data::Relation| {
            r.degree_sequence(&["x"], &["y"]).map(|d| d.max_degree()).unwrap_or(0)
        };
        prop_assert!(!light.is_empty() && !heavy.is_empty());
        prop_assert!(max_of(&light) < max_of(&heavy));
    }

    /// Per-part bound soundness: binding one part of a degree split into a
    /// join query, the part's LP bound upper-bounds the part's true
    /// sub-join size — on every part, for random skewed inputs.
    #[test]
    fn per_part_bounds_dominate_true_part_subjoin_sizes(
        pairs in arb_skewed_pairs(),
        spairs in proptest::collection::vec((0u64..12, 0u64..30), 1..80)
    ) {
        let r = RelationBuilder::binary_from_pairs("R", "x", "y", pairs);
        let s = RelationBuilder::binary_from_pairs("S", "y", "z", spairs);
        let mut catalog = Catalog::new();
        catalog.insert(r.clone());
        catalog.insert(s);
        let query = JoinQuery::single_join("R", "S");
        let estimator = BatchEstimator::new().sequential();

        let mut parts: Vec<lpb_data::Relation> = partition_by_degree(&r, &["x"], &["y"])
            .unwrap()
            .into_iter()
            .map(|p| p.relation)
            .collect();
        if let Some((light, heavy)) = split_light_heavy(&r, &["x"], &["y"]).unwrap() {
            parts.push(light);
            parts.push(heavy);
        }
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let part_query = query.with_atom_relation(0, part.name()).unwrap();
            let part_catalog = catalog.derive_with(part);
            let bounds = estimator.bound_subqueries(
                &part_query,
                &part_catalog,
                &[vec![0, 1]],
                &CollectConfig::with_max_norm(3),
            );
            let bound = bounds[0].as_ref().unwrap();
            prop_assert!(bound.is_bounded());
            let truth = true_cardinality(&part_query, &part_catalog).unwrap() as f64;
            prop_assert!(
                bound.bound() >= truth - 1e-6,
                "part {}: bound {} below truth {}",
                part_query.atoms()[0].relation,
                bound.bound(),
                truth
            );
        }
    }
}
