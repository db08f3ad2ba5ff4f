//! Eager materialization of ℓp-norm degree statistics.
//!
//! The paper assumes every ℓp-norm a bound computation needs is precomputed
//! (§1.2, §2.1), and [`Catalog::log_norm`] honours that lazily: the first
//! request pays for a degree-sequence scan, later requests are cache hits.
//! A query *optimizer* cannot afford the lazy variant — plan enumeration
//! asks for the statistics of hundreds of sub-joins, and the first
//! optimization call would serialize all those scans inside the planning
//! hot path.  [`StatisticsCollector`] is the eager counterpart: it walks a
//! relation's *simple* conditionals — `(rest | x)` for every attribute `x`,
//! plus the cardinality conditionals `(all | ∅)` and `({x} | ∅)` — and
//! materializes `log₂ ‖deg(V|U)‖_p` for a configurable norm set
//! ([`Norm::standard_set`] by default) into the catalog's cache and into a
//! [`StatisticsSet`] snapshot with direct lookup.
//!
//! After [`StatisticsCollector::materialize_catalog`] runs, every plan-time
//! statistics harvest over base relations is a pure hash-map lookup.
//!
//! **Cost.** Collecting one relation of arity `k ≥ 2` sorts it `k` times —
//! once per attribute `x`, for `deg(rest | x)` — however many norms are
//! configured: every norm, `|Π_x R|` (the sequence's length) and `|R|` (its
//! sum) are derived from that one sequence.  A unary relation costs one
//! sort.  Statistics already cached are not recomputed.

use crate::catalog::{Catalog, StatsKey};
use crate::degree::DegreeSequence;
use crate::error::DataError;
use crate::norms::Norm;
use std::collections::HashMap;

/// One materialized statistic: its identifying key and the value
/// `log₂ ‖deg_R(V|U)‖_p`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatisticEntry {
    /// Relation, attribute sets and norm identifying the statistic.
    pub key: StatsKey,
    /// `log₂` of the ℓp-norm.
    pub log_norm: f64,
}

/// A materialized set of degree-sequence statistics (the data-level
/// counterpart of the bound engine's abstract statistics set): every entry
/// the collector computed, with direct lookup by key.
#[derive(Debug, Clone, Default)]
pub struct StatisticsSet {
    entries: Vec<StatisticEntry>,
    index: HashMap<StatsKey, f64>,
}

impl StatisticsSet {
    /// The entries in collection order.
    pub fn entries(&self) -> &[StatisticEntry] {
        &self.entries
    }

    /// Number of materialized statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was materialized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `log₂ ‖deg_relation(v|u)‖_norm`, if it was materialized.
    pub fn log_norm(&self, relation: &str, v: &[&str], u: &[&str], norm: Norm) -> Option<f64> {
        self.index
            .get(&StatsKey::new(relation, v, u, norm))
            .copied()
    }

    fn push(&mut self, key: StatsKey, log_norm: f64) {
        self.index.insert(key.clone(), log_norm);
        self.entries.push(StatisticEntry { key, log_norm });
    }
}

/// Materializes degree sequences and their ℓp-norms for whole relations (or
/// catalogs) ahead of time; see the module docs.
#[derive(Debug, Clone)]
pub struct StatisticsCollector {
    norms: Vec<Norm>,
}

impl StatisticsCollector {
    /// A collector over [`Norm::standard_set`]`(max_p)` — the norms
    /// `{1, …, max_p, ∞}` the paper's experiments use.
    pub fn standard(max_p: u32) -> Self {
        StatisticsCollector {
            norms: Norm::standard_set(max_p),
        }
    }

    /// A collector over an explicit norm list.
    pub fn with_norms(norms: Vec<Norm>) -> Self {
        StatisticsCollector { norms }
    }

    /// The norms this collector materializes per degree conditional.
    pub fn norms(&self) -> &[Norm] {
        &self.norms
    }

    /// Materialize every simple statistic of one relation into the
    /// catalog's cache, returning the computed entries.
    ///
    /// Per attribute `x` this records `‖deg(rest | x)‖_p` for every
    /// configured norm (the degree conditionals), plus the ℓ1 cardinalities
    /// `‖deg(all | ∅)‖₁ = |R|` and `‖deg({x} | ∅)‖₁ = |Π_x R|`.
    ///
    /// **Cost: one sort per attribute.**  Every value recorded for `x` is
    /// derived from the single sequence `deg(rest | x)` — its norms, its
    /// length `|Π_x R|`, and (for the first attribute) its sum `|R|` — so a
    /// binary relation costs two sorts whatever the norm count, and a unary
    /// one a single sort.  Reads are cache-first per statistic and writes
    /// never overwrite exact observed entries (see [`Catalog::log_norms`]);
    /// when every statistic of an attribute is cached, nothing is sorted.
    pub fn materialize_relation(
        &self,
        catalog: &Catalog,
        relation: &str,
    ) -> Result<StatisticsSet, DataError> {
        let rel = catalog.get(relation)?;
        let attrs: Vec<&str> = rel.schema().attrs().iter().map(String::as_str).collect();
        let all_key = StatsKey::new(relation, &attrs, &[], Norm::L1);
        let mut out = StatisticsSet::default();

        if attrs.len() < 2 {
            // No degree conditional: |R| = |Π_x R| is the whole statistic
            // set (and an empty schema is reported by the lookup).
            let card = catalog.log_norms(relation, &attrs, &[], &[Norm::L1])?[0];
            out.push(all_key, card);
            for x in &attrs {
                out.push(StatsKey::new(relation, &[x], &[], Norm::L1), card);
            }
            return Ok(out);
        }

        // The ℓ1 norm of a one-entry sequence, exactly as `log_norm`
        // computes the cardinality statistics `(… | ∅)`.
        let cardinality = |n: u64| {
            DegreeSequence::from_counts(vec![n])
                .log2_lp_norm(Norm::L1)
                .unwrap_or(0.0)
        };
        for (i, x) in attrs.iter().enumerate() {
            let x_ref = [*x];
            let rest: Vec<&str> = attrs.iter().copied().filter(|a| a != x).collect();
            // In collection order: |R| (first attribute only), |Π_x R|, and
            // the degree norms.
            let mut keys = Vec::new();
            if i == 0 {
                keys.push(all_key.clone());
            }
            keys.push(StatsKey::new(relation, &x_ref, &[], Norm::L1));
            keys.extend(
                self.norms
                    .iter()
                    .map(|&norm| StatsKey::new(relation, &rest, &x_ref, norm)),
            );
            let values = catalog.cached_or_derive(&keys, || {
                let deg = rel.degree_sequence(&rest, &x_ref)?;
                let mut values = Vec::with_capacity(keys.len());
                if i == 0 {
                    values.push(cardinality(deg.total()));
                }
                values.push(cardinality(deg.len() as u64));
                values.extend(
                    self.norms
                        .iter()
                        .map(|&norm| deg.log2_lp_norm(norm).unwrap_or(0.0)),
                );
                Ok(values)
            })?;
            for (key, value) in keys.into_iter().zip(values) {
                out.push(key, value);
            }
        }
        Ok(out)
    }

    /// Materialize every relation of the catalog (see
    /// [`materialize_relation`](Self::materialize_relation)); entries of all
    /// relations land in one combined set.
    pub fn materialize_catalog(&self, catalog: &Catalog) -> Result<StatisticsSet, DataError> {
        let mut names = catalog.relation_names();
        names.sort();
        let mut out = StatisticsSet::default();
        for name in names {
            let one = self.materialize_relation(catalog, &name)?;
            for e in one.entries {
                out.push(e.key, e.log_norm);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "R",
            "x",
            "y",
            vec![(1, 10), (1, 11), (2, 10), (3, 12)],
        ));
        c.insert(RelationBuilder::binary_from_pairs(
            "S",
            "y",
            "z",
            vec![(10, 7), (11, 7)],
        ));
        c
    }

    #[test]
    fn materializes_cardinalities_and_degree_norms() {
        let c = catalog();
        let collector = StatisticsCollector::standard(3);
        let set = collector.materialize_relation(&c, "R").unwrap();
        // 1 atom cardinality + per attribute (1 unary + 4 norms) = 1 + 2·5.
        assert_eq!(set.len(), 11);
        assert!(!set.is_empty());
        // |R| = 4.
        let card = set.log_norm("R", &["x", "y"], &[], Norm::L1).unwrap();
        assert!((card - 4.0f64.log2()).abs() < 1e-12);
        // deg(y|x) = [2, 1, 1]: ℓ1 = 4, ℓ∞ = 2.
        let l1 = set.log_norm("R", &["y"], &["x"], Norm::L1).unwrap();
        assert!((l1 - 4.0f64.log2()).abs() < 1e-12);
        let linf = set.log_norm("R", &["y"], &["x"], Norm::Infinity).unwrap();
        assert!((linf - 1.0).abs() < 1e-12);
        // Attribute order in the lookup key is normalized.
        assert_eq!(
            set.log_norm("R", &["y", "x"], &[], Norm::L1),
            set.log_norm("R", &["x", "y"], &[], Norm::L1)
        );
        assert_eq!(set.log_norm("R", &["y"], &["x"], Norm::Finite(9.0)), None);
    }

    #[test]
    fn materialization_prewarms_the_catalog_cache() {
        let c = catalog();
        assert_eq!(c.cached_stats(), 0);
        let set = StatisticsCollector::standard(2)
            .materialize_catalog(&c)
            .unwrap();
        let warmed = c.cached_stats();
        assert_eq!(warmed, set.len());
        // Re-reading any entry is served from the cache (count unchanged).
        for e in set.entries() {
            let v: Vec<&str> = e.key.v.iter().map(String::as_str).collect();
            let u: Vec<&str> = e.key.u.iter().map(String::as_str).collect();
            let again = c.log_norm(&e.key.relation, &v, &u, e.key.norm()).unwrap();
            assert_eq!(again, e.log_norm);
        }
        assert_eq!(c.cached_stats(), warmed);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let c = catalog();
        let collector = StatisticsCollector::with_norms(vec![Norm::L2]);
        assert!(collector.materialize_relation(&c, "MISSING").is_err());
        assert_eq!(collector.norms(), &[Norm::L2]);
    }
}
