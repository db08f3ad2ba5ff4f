//! Differential property tests for the degree kernel: on random relations —
//! arity 1–4, duplicate rows, empty relations — the one-sort kernel must
//! agree with the per-row `Vec` grouping it replaced, and the collector
//! built on it must record exactly what one `log_norm` call per statistic
//! records.

use lpb_data::{Catalog, Norm, Relation, RelationBuilder, Schema, StatisticsCollector, StatsKey};
use proptest::prelude::*;

const ATTRS: [&str; 4] = ["a", "b", "c", "d"];

/// A relation of arity 1–4 over small domains, built with `from_columns`
/// (which keeps duplicate rows), possibly empty.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (
        1usize..5,
        proptest::collection::vec((0u64..6, 0u64..4, 0u64..5, 0u64..3), 0..60),
    )
        .prop_map(|(arity, rows)| {
            let all: [Vec<u64>; 4] = [
                rows.iter().map(|r| r.0).collect(),
                rows.iter().map(|r| r.1).collect(),
                rows.iter().map(|r| r.2).collect(),
                rows.iter().map(|r| r.3).collect(),
            ];
            let schema = Schema::new(ATTRS[..arity].iter().copied()).unwrap();
            Relation::from_columns("R", schema, all[..arity].to_vec()).unwrap()
        })
}

/// `len` distinct attributes of an `arity`-ary relation, chosen by `pick`.
fn attrs_from(arity: usize, len: usize, mut pick: u64) -> Vec<&'static str> {
    let mut pool: Vec<&'static str> = ATTRS[..arity].to_vec();
    let mut out = Vec::new();
    while out.len() < len.min(arity) {
        out.push(pool.remove((pick % pool.len() as u64) as usize));
        pick /= 7;
    }
    out
}

/// The grouping the kernel replaced: a `(U-key, V-key)` pair of `Vec`s per
/// row, sorted and deduplicated, then counted per `U`-key.
fn oracle_degrees(rel: &Relation, v: &[&str], u: &[&str]) -> Vec<u64> {
    let u_pos = rel.schema().positions(u.iter().copied()).unwrap();
    let v_pos = rel.schema().positions(v.iter().copied()).unwrap();
    let mut pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..rel.len())
        .map(|r| (rel.key(r, &u_pos), rel.key(r, &v_pos)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut counts: Vec<u64> = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        if i > 0 && pairs[i - 1].0 == pair.0 {
            *counts.last_mut().unwrap() += 1;
        } else {
            counts.push(1);
        }
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

/// What the collector recorded before it shared one sort per attribute:
/// one `log_norm` call per statistic, in collection order.
fn oracle_collect(catalog: &Catalog, relation: &str, norms: &[Norm]) -> Vec<(StatsKey, f64)> {
    let rel = catalog.get(relation).unwrap();
    let attrs: Vec<&str> = rel.schema().attrs().iter().map(String::as_str).collect();
    let mut out = Vec::new();
    let mut record = |v: &[&str], u: &[&str], norm: Norm| {
        let value = catalog.log_norm(relation, v, u, norm).unwrap();
        out.push((StatsKey::new(relation, v, u, norm), value));
    };
    record(&attrs, &[], Norm::L1);
    for x in &attrs {
        record(&[x], &[], Norm::L1);
        let rest: Vec<&str> = attrs.iter().copied().filter(|a| a != x).collect();
        if rest.is_empty() {
            continue;
        }
        for &norm in norms {
            record(&rest, &[x], norm);
        }
    }
    out
}

fn catalog_of(rel: &Relation) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.insert(rel.clone());
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The kernel's degree sequence equals the oracle's for |U| ∈ 0..=2 and
    /// |V| ∈ 1..=2 (overlapping or not), and its runs cover every row once,
    /// each run's rows sharing one U-value.
    #[test]
    fn degree_sequence_matches_the_vec_grouping(
        rel in arb_relation(),
        u_len in 0usize..3,
        v_len in 1usize..3,
        pick in 0u64..1_000_000,
    ) {
        let u = attrs_from(rel.arity(), u_len, pick);
        let v = attrs_from(rel.arity(), v_len, pick / 1000);
        let deg = rel.degree_sequence(&v, &u).unwrap();
        let expected = oracle_degrees(&rel, &v, &u);
        prop_assert_eq!(deg.as_slice(), expected.as_slice());

        let runs = rel.degree_runs(&v, &u).unwrap();
        prop_assert_eq!(runs.iter().count(), deg.len());
        let u_pos = rel.schema().positions(u.iter().copied()).unwrap();
        let mut seen: Vec<usize> = Vec::new();
        for (_, rows) in runs.iter() {
            prop_assert!(rows.iter().all(|&r| rel.key(r, &u_pos) == rel.key(rows[0], &u_pos)));
            seen.extend_from_slice(rows);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..rel.len()).collect::<Vec<_>>());
    }

    /// `split_rows` cuts the same parts a `RelationBuilder` per part builds
    /// from the same rows: names, rows and row order.
    #[test]
    fn split_rows_matches_per_part_builders(rel in arb_relation(), parts in 1usize..4) {
        // Assign parts by row content, so duplicate rows share a part.
        let part_of: Vec<usize> = (0..rel.len())
            .map(|r| (rel.row(r).iter().sum::<u64>() as usize) % parts)
            .collect();
        let names: Vec<String> = (0..parts).map(|i| format!("R#{i}")).collect();
        let split = rel.split_rows(names.clone(), &part_of);
        prop_assert_eq!(split.len(), parts);
        for (i, part) in split.iter().enumerate() {
            let mut builder = RelationBuilder::new(names[i].clone(), rel.schema().attrs().to_vec())
                .unwrap();
            for r in (0..rel.len()).filter(|&r| part_of[r] == i) {
                builder.push_codes(&rel.row(r)).unwrap();
            }
            prop_assert_eq!(part, &builder.build());
        }
    }

    /// The collector records the same keys, in the same order, with
    /// bit-equal values as one `log_norm` call per statistic — and caches
    /// exactly as many entries.
    #[test]
    fn materialize_matches_one_log_norm_per_statistic(rel in arb_relation(), max_p in 1u32..5) {
        let collector = StatisticsCollector::standard(max_p);
        let fast = catalog_of(&rel);
        let set = collector.materialize_relation(&fast, "R").unwrap();
        let slow = catalog_of(&rel);
        let expected = oracle_collect(&slow, "R", collector.norms());
        prop_assert_eq!(set.len(), expected.len());
        for (entry, (key, value)) in set.entries().iter().zip(&expected) {
            prop_assert_eq!(&entry.key, key);
            prop_assert_eq!(entry.log_norm.to_bits(), value.to_bits(), "{:?}", key);
        }
        prop_assert_eq!(fast.cached_stats(), slow.cached_stats());
        // Multi-norm lookups agree with single ones, bit for bit.
        let norms = collector.norms();
        let attrs: Vec<&str> = rel.schema().attrs().iter().map(String::as_str).collect();
        let (v, u) = if attrs.len() > 1 { (&attrs[1..], &attrs[..1]) } else { (&attrs[..], &[][..]) };
        let many = catalog_of(&rel).log_norms("R", v, u, norms).unwrap();
        for (&norm, got) in norms.iter().zip(many) {
            let one = slow.log_norm("R", v, u, norm).unwrap();
            prop_assert_eq!(got.to_bits(), one.to_bits());
        }
    }

    /// A collection pass never overwrites an exact observed entry, even
    /// when it derives fresh values for the statistics around it.
    #[test]
    fn materialize_keeps_exact_observed_entries(rel in arb_relation(), max_p in 1u32..4) {
        let absorbed = Catalog::new().absorb_observed(rel.clone(), max_p).unwrap();
        let attrs: Vec<&str> = rel.schema().attrs().iter().map(String::as_str).collect();
        let key = StatsKey::new("R", &attrs, &[], Norm::L1);
        // A distinguishable exact value: no recomputation produces 42.
        prop_assert!(absorbed.record_statistic(key.clone(), 42.0, true));
        let exact = absorbed.exact_stats();
        // More norms than were absorbed, so the pass misses and derives.
        let set = StatisticsCollector::standard(max_p + 1)
            .materialize_relation(&absorbed, "R")
            .unwrap();
        prop_assert_eq!(set.log_norm("R", &attrs, &[], Norm::L1), Some(42.0));
        prop_assert_eq!(absorbed.log_norm("R", &attrs, &[], Norm::L1).unwrap(), 42.0);
        prop_assert_eq!(absorbed.exact_stats(), exact);
        prop_assert!(!absorbed.record_statistic(key, 7.0, false));
    }
}
