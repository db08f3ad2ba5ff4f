//! Degree-based relation partitioning — Lemma 2.5 of the paper.
//!
//! Given a relation satisfying an ℓp statistic `‖deg_R(V|U)‖_p ≤ B`, the
//! relation can be split into `O(log N)` parts, bucketing the `U`-values by
//! degree (powers of two), such that every part *strongly satisfies* the
//! statistic: within a part all degrees are within a factor of two, so the
//! ℓp assertion is equivalent to an ℓ1 assertion on `|Π_U|` together with an
//! ℓ∞ assertion on the maximum degree (eq. 22).  This is the reduction that
//! lets the PANDA-style evaluation handle arbitrary ℓp statistics.
//!
//! Partitioning is not only an evaluation device ([`crate::
//! partitioned_join_count`]) — it is a **planning** device: the ℓp-norm
//! bound of a skewed relation is dominated by its few heavy `U`-values, so
//! the sum of per-part bounds can undercut the monolithic bound by orders
//! of magnitude (the PANDA-style sum-of-parts argument).
//! [`split_light_heavy`] coarsens the Lemma 2.5 buckets into the two-part
//! **light/heavy** split the bound-driven [`crate::Optimizer`] plans with:
//! the light part has a small maximum degree (tight ℓ∞), the heavy part has
//! few distinct `U`-values (small ℓ1 on the conditioning side), and the
//! planner bounds and plans each part independently before executing them
//! under a [`crate::PhysicalNode::PartitionedUnion`].
//!
//! All three splits share the degree kernel of `lpb-data`
//! ([`Relation::degree_runs`]): **one sort** of the relation by `(U, V)`
//! yields every `U`-value's rows and degree, each part's maximum degree and
//! `U`-count are read off those runs, and the parts are cut from the
//! relation's columns by [`Relation::split_rows`] — no per-row keys, no
//! hash grouping, and no second scan of any part.

use crate::error::ExecError;
use lpb_data::{DegreeRuns, Norm, Relation};
use std::collections::BTreeMap;

/// One part of a degree partition.
#[derive(Debug, Clone)]
pub struct DegreePart {
    /// The tuples of this part (same schema as the input relation).
    pub relation: Relation,
    /// Bucket index `i ≥ 1`: every `U`-value in this part has degree in
    /// `(2^{i−1}, 2^i]` (bucket 1 holds degrees exactly 1 and 2).
    pub bucket: u32,
    /// The maximum degree within the part.
    pub max_degree: u64,
    /// The number of distinct `U`-values within the part.
    pub distinct_u: usize,
}

impl DegreePart {
    /// Check the *strong satisfaction* condition of §2.2 against an ℓp
    /// statistic `‖deg(V|U)‖_p ≤ B` (given as `log₂ B`): there must exist a
    /// `d` with `‖deg‖_∞ ≤ d` and `|Π_U| ≤ B^p / d^p`.  Within a bucket the
    /// natural choice is `d = max_degree`.
    pub fn strongly_satisfies(&self, norm: Norm, log2_b: f64) -> bool {
        let d = self.max_degree.max(1) as f64;
        match norm {
            Norm::Infinity => d.log2() <= log2_b + 1e-9,
            Norm::Finite(p) => {
                let allowed_u = p * (log2_b - d.log2());
                ((self.distinct_u.max(1)) as f64).log2() <= allowed_u + 1e-9
            }
        }
    }
}

/// Bucket index of a degree `d ≥ 1`: `⌈log₂ d⌉`, with bucket 1 for
/// `d ∈ {1, 2}`.
fn bucket_of(d: u64) -> u32 {
    d.max(2).next_power_of_two().trailing_zeros()
}

/// Each Lemma 2.5 bucket's maximum degree and number of `U`-values.
fn bucket_stats(runs: &DegreeRuns) -> BTreeMap<u32, (u64, usize)> {
    let mut stats = BTreeMap::new();
    for (degree, _) in runs.iter() {
        let (max_degree, distinct_u) = stats.entry(bucket_of(degree)).or_insert((0, 0));
        *max_degree = degree.max(*max_degree);
        *distinct_u += 1;
    }
    stats
}

/// Cut `rel` into one part per distinct key `key_of` gives a run (one
/// `U`-value and its degree, visited in ascending `U` order).  Parts come
/// out in ascending key order, named by `name_of`, each with its maximum
/// degree and `U`-count.
fn split_runs<K: Ord + Copy>(
    rel: &Relation,
    runs: &DegreeRuns,
    mut key_of: impl FnMut(u64) -> K,
    name_of: impl Fn(K) -> String,
) -> Vec<(K, DegreePart)> {
    let keys: Vec<K> = runs.iter().map(|(degree, _)| key_of(degree)).collect();
    let mut distinct = keys.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let mut part_of = vec![0; rel.len()];
    let mut stats = vec![(0, 0); distinct.len()];
    for (key, (degree, rows)) in keys.iter().zip(runs.iter()) {
        let part = distinct
            .binary_search(key)
            .expect("every key was collected");
        stats[part].0 = degree.max(stats[part].0);
        stats[part].1 += 1;
        for &row in rows {
            part_of[row] = part;
        }
    }
    let names = distinct.iter().map(|&k| name_of(k)).collect();
    let relations = rel.split_rows(names, &part_of);
    distinct
        .into_iter()
        .zip(relations)
        .zip(stats)
        .map(|((key, relation), (max_degree, distinct_u))| {
            let part = DegreePart {
                relation,
                // Set by the caller, which knows how keys map to buckets.
                bucket: 0,
                max_degree,
                distinct_u,
            };
            (key, part)
        })
        .collect()
}

/// Partition `rel` into degree buckets of the conditional `(V | U)` given by
/// attribute names.  Every input tuple lands in exactly one part; parts with
/// no tuples are omitted, so at most `⌈log₂ N⌉ + 1` parts are returned.
pub fn partition_by_degree(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
) -> Result<Vec<DegreePart>, ExecError> {
    let runs = rel.degree_runs(v, u)?;
    let parts = split_runs(rel, &runs, bucket_of, |bucket| {
        format!("{}#deg{bucket}", rel.name())
    });
    Ok(parts
        .into_iter()
        .map(|(bucket, part)| DegreePart { bucket, ..part })
        .collect())
}

/// The full Lemma 2.5 partition for one ℓp statistic `‖deg(V|U)‖_p ≤ 2^{log2_b}`:
/// first bucket the `U`-values by degree (powers of two), then split each
/// bucket's `U`-values into at most `⌈2^p⌉` groups so that every resulting
/// part *strongly satisfies* the statistic (its `|Π_U|` fits under
/// `B^p / d^p` for `d` the part's maximum degree).
///
/// The number of parts is at most `⌈2^p⌉·(⌈log₂ N⌉ + 1)`, matching the
/// lemma.  Every input tuple lands in exactly one part.
pub fn partition_for_statistic(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
    norm: Norm,
    log2_b: f64,
) -> Result<Vec<DegreePart>, ExecError> {
    let p = match norm {
        // For ℓ∞ the degree buckets already strongly satisfy the statistic
        // (every degree is at most the global maximum).
        Norm::Infinity => return partition_by_degree(rel, v, u),
        Norm::Finite(p) => p,
    };
    let runs = rel.degree_runs(v, u)?;
    // Per bucket, the largest U-value count a part with the bucket's max
    // degree may have — ⌊B^p / d^p⌋, at least 1 (a single U-value always
    // fits, because its own degree contributes d^p ≤ B^p) — when the
    // bucket holds more U-values than that.
    let caps: BTreeMap<u32, Option<usize>> = bucket_stats(&runs)
        .into_iter()
        .map(|(bucket, (max_degree, distinct_u))| {
            let cap = (p * (log2_b - (max_degree.max(1) as f64).log2()))
                .exp2()
                .floor()
                .max(1.0) as usize;
            (bucket, (distinct_u > cap).then_some(cap))
        })
        .collect();
    // Split an over-full bucket's U-values, in ascending U order, into
    // chunks of at most `cap` values.
    let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
    let key_of = |degree: u64| {
        let bucket = bucket_of(degree);
        let rank = seen.entry(bucket).or_insert(0);
        *rank += 1;
        (bucket, caps[&bucket].map(|cap| (*rank - 1) / cap))
    };
    let parts = split_runs(rel, &runs, key_of, |(bucket, chunk)| match chunk {
        None => format!("{}#deg{bucket}", rel.name()),
        Some(chunk) => format!("{}#deg{bucket}#u{chunk}", rel.name()),
    });
    Ok(parts
        .into_iter()
        .map(|((bucket, _), part)| DegreePart { bucket, ..part })
        .collect())
}

/// Coarsen the degree buckets of `(V | U)` into a two-way **light/heavy**
/// split: bucket the `U`-values by degree (as [`partition_by_degree`]
/// does), then put every bucket whose maximum degree is at most the
/// geometric mean of the extreme bucket maxima into the *light* part and
/// the rest into the *heavy* part.  Returns `None` when the relation has
/// fewer than two degree buckets (no skew worth splitting).
///
/// The parts are named `{rel}#light` / `{rel}#heavy`, keep the input
/// schema, and partition the input tuples (disjoint and complete) — the
/// shape [`crate::Optimizer`] feeds per-part planning and the
/// [`crate::PhysicalNode::PartitionedUnion`] executor.
pub fn split_light_heavy(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
) -> Result<Option<(Relation, Relation)>, ExecError> {
    let runs = rel.degree_runs(v, u)?;
    let log_max: BTreeMap<u32, f64> = bucket_stats(&runs)
        .into_iter()
        .map(|(bucket, (max_degree, _))| (bucket, (max_degree.max(1) as f64).log2()))
        .collect();
    if log_max.len() < 2 {
        return Ok(None);
    }
    let dmin = log_max.values().copied().fold(f64::INFINITY, f64::min);
    let dmax = log_max.values().copied().fold(f64::NEG_INFINITY, f64::max);
    if dmax <= dmin {
        return Ok(None);
    }
    let tau = (dmin + dmax) / 2.0;
    let parts = split_runs(
        rel,
        &runs,
        |degree| log_max[&bucket_of(degree)] > tau,
        |heavy| format!("{}#{}", rel.name(), if heavy { "heavy" } else { "light" }),
    );
    // Light (`false`) sorts first; the lightest bucket is light and the
    // heaviest heavy, so both parts exist.
    let mut parts = parts.into_iter().map(|(_, part)| part.relation);
    let light = parts.next().expect("the lightest bucket is light");
    let heavy = parts.next().expect("the heaviest bucket is heavy");
    Ok(Some((light, heavy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;

    /// A relation whose y-degrees span several powers of two.
    fn skewed_relation() -> Relation {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        // y = 0: degree 16; y = 1: degree 5; y = 2: degree 2; y = 3..=10: degree 1.
        for i in 0..16u64 {
            pairs.push((1000 + i, 0));
        }
        for i in 0..5u64 {
            pairs.push((2000 + i, 1));
        }
        pairs.push((3000, 2));
        pairs.push((3001, 2));
        for y in 3..=10u64 {
            pairs.push((4000 + y, y));
        }
        RelationBuilder::binary_from_pairs("R", "x", "y", pairs)
    }

    #[test]
    fn partition_is_a_partition_of_the_tuples() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let total: usize = parts.iter().map(|p| p.relation.len()).sum();
        assert_eq!(total, rel.len());
        // Buckets: degree 16 → bucket 4, degree 5 → bucket 3, degree 2 and 1 → bucket 1.
        let buckets: Vec<u32> = parts.iter().map(|p| p.bucket).collect();
        assert_eq!(buckets, vec![1, 3, 4]);
    }

    #[test]
    fn degrees_within_a_part_are_within_a_factor_of_two() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        for part in &parts {
            let deg = part.relation.degree_sequence(&["x"], &["y"]).unwrap();
            let max = deg.max_degree();
            let min = deg.as_slice().iter().copied().min().unwrap();
            assert!(
                max <= 2 * min,
                "bucket {}: degrees {min}..{max}",
                part.bucket
            );
            assert!(max <= 1 << part.bucket);
            assert!(part.bucket == 1 || max > 1 << (part.bucket - 1));
        }
    }

    #[test]
    fn parts_strongly_satisfy_the_source_statistic() {
        let rel = skewed_relation();
        // The source relation satisfies ‖deg(x|y)‖_p ≤ its own ℓp norm; the
        // Lemma 2.5 partition for that statistic must make every part
        // strongly satisfy it, while covering all tuples.
        let deg = rel.degree_sequence(&["x"], &["y"]).unwrap();
        for p in [1.0, 2.0, 3.0] {
            let log_b = deg.log2_lp_norm(Norm::finite(p)).unwrap();
            let parts =
                partition_for_statistic(&rel, &["x"], &["y"], Norm::finite(p), log_b).unwrap();
            let total: usize = parts.iter().map(|part| part.relation.len()).sum();
            assert_eq!(total, rel.len(), "p={p}");
            for part in &parts {
                assert!(
                    part.strongly_satisfies(Norm::finite(p), log_b),
                    "bucket {} does not strongly satisfy ℓ{p} ≤ 2^{log_b}",
                    part.bucket
                );
            }
            // Lemma 2.5 part count: ⌈2^p⌉·(⌈log₂ N⌉ + 1).
            let limit = (2f64.powf(p).ceil()) * ((rel.len() as f64).log2().ceil() + 1.0);
            assert!(parts.len() as f64 <= limit, "p={p}: {} parts", parts.len());
        }
        let log_inf = deg.log2_lp_norm(Norm::Infinity).unwrap();
        for part in partition_for_statistic(&rel, &["x"], &["y"], Norm::Infinity, log_inf).unwrap()
        {
            assert!(part.strongly_satisfies(Norm::Infinity, log_inf));
        }
    }

    #[test]
    fn number_of_parts_is_logarithmic() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let n = rel.len() as f64;
        assert!(parts.len() as f64 <= n.log2().ceil() + 1.0);
    }

    #[test]
    fn unknown_attributes_error() {
        let rel = skewed_relation();
        assert!(partition_by_degree(&rel, &["nope"], &["y"]).is_err());
        assert!(split_light_heavy(&rel, &["nope"], &["y"]).is_err());
    }

    #[test]
    fn light_heavy_split_partitions_and_separates_degrees() {
        let rel = skewed_relation();
        let (light, heavy) = split_light_heavy(&rel, &["x"], &["y"])
            .unwrap()
            .expect("several degree buckets");
        assert_eq!(light.name(), "R#light");
        assert_eq!(heavy.name(), "R#heavy");
        // Complete and disjoint: the parts' rows are exactly the input rows.
        let mut rows: Vec<Vec<u64>> = light.rows().chain(heavy.rows()).collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        assert_eq!(rows, orig);
        // Degrees separate: the geometric-mean cut lands at 2^2.5, so the
        // degree-16 bucket is heavy and the degree-1..5 buckets are light.
        let light_max = light
            .degree_sequence(&["x"], &["y"])
            .map(|d| d.max_degree())
            .unwrap();
        let heavy_min_bucket = heavy
            .degree_sequence(&["x"], &["y"])
            .map(|d| d.as_slice().iter().copied().min().unwrap())
            .unwrap();
        assert!(light_max < heavy_min_bucket);
        assert_eq!(
            heavy.degree_sequence(&["x"], &["y"]).unwrap().max_degree(),
            16
        );
    }

    #[test]
    fn uniform_relations_do_not_split() {
        let rel =
            RelationBuilder::binary_from_pairs("U", "x", "y", (0..20u64).map(|i| (i, i % 10)));
        // Every y has degree 2: one bucket, nothing to split.
        assert!(split_light_heavy(&rel, &["x"], &["y"]).unwrap().is_none());
    }
}
