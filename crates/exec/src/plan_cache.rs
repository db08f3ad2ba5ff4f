//! A concurrent plan cache: one [`OptimizedPlan`] generation per canonical
//! query shape, keyed by the versions of the relations the shape reads.
//!
//! Planning is the expensive half of a request — an LP batch over every
//! connected sub-join plus the bottleneck DP — and fleet workloads repeat a
//! small set of query *shapes* endlessly.  This cache lets a repeat shape
//! skip LP and DP entirely: the hit path is one canonicalization, one
//! `HashMap` probe, one version check per relation and an `Arc` clone.
//!
//! ## Keying discipline
//!
//! A probe hits when the shape's cached generation was planned on the same
//! versions of the relations the shape reads:
//!
//! * **Canonical shape** ([`canonical_shape`]): relation names in atom
//!   order, with variables renamed `v0, v1, …` by first appearance.  Two
//!   queries with the same canon join the same relations over the same
//!   variable-sharing pattern, so the optimizer would derive the same
//!   bounds and pick the same plan — and an [`OptimizedPlan`] references
//!   atoms by *index*, so replaying it against any query with the same
//!   canon executes correctly regardless of what the variables are called
//!   (output columns take their names from the executed query, not the
//!   cached plan).  Query *names* are deliberately excluded.
//! * **Relation versions** ([`lpb_data::Catalog::relation_version`]) of
//!   the distinct relations the shape reads, in atom order.  A sub-join's
//!   bound LP reads only the ℓp-norm statistics of the relations in that
//!   sub-join, and a shape's plan only its own relations (scan sizes,
//!   statistics, degree-partition parts), so a plan stays exact on every
//!   snapshot that agrees on those versions.  A write — a relation
//!   replaced via [`lpb_data::Catalog::successor_with`], observed rows
//!   absorbed via [`lpb_data::Catalog::absorb_observed`] — moves only the
//!   written name's version, so it invalidates exactly the shapes that read
//!   it; every other shape keeps hitting on the new snapshot.
//!
//! The corollary: one `PlanCache` must serve **one catalog lineage** (e.g.
//! one [`lpb_data::SnapshotCatalog`] cell).  Versions are epochs of that
//! lineage, and along it each relation's version only grows and moves
//! exactly when the relation's statistics change.  Equal versions therefore
//! mean equal statistics, and comparing versions element by element orders
//! two generations of a shape.  Versions from unrelated catalogs are
//! incomparable, and mixing them in one cache could alias.  Same-epoch
//! *views* ([`lpb_data::Catalog::derive_with`]) keep the version of a name
//! they rebind, so they intentionally share entries — they are defined to
//! carry the same statistics.
//!
//! ## Generations
//!
//! Each shape holds one generation: a plan and the versions it was planned
//! on.  A probe on other versions misses, and the stale generation becomes
//! the re-plan's *prior* ([`PlanCache::prior`]): its monolithic bound table
//! ([`OptimizedPlan::bounds`]) already proves every sub-join whose
//! relations kept their version.  An insert replaces a generation only
//! with one at least as new in every version.  A request admitted before a
//! publish may finish planning after one admitted after it; its plan is
//! returned to it (it executes on its own snapshot) but never displaces
//! the newer generation.
//!
//! Capacity is bounded in shapes: an insert past
//! [`PlanCache::with_capacity`]'s limit evicts the shape whose generation
//! was inserted longest ago.

use crate::error::ExecError;
use crate::optimizer::{OptimizedPlan, Optimizer};
use lpb_core::JoinQuery;
use lpb_data::Catalog;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The canonical shape of a query: relation names in atom order with
/// variables interned as `v0, v1, …` by first appearance.  Queries with
/// equal canons are interchangeable to the planner (same relations, same
/// sharing pattern ⇒ same statistics ⇒ same plan) and to the executor
/// (plans address atoms by index).
pub fn canonical_shape(query: &JoinQuery) -> String {
    let mut interned: HashMap<&str, usize> = HashMap::new();
    let mut out = String::new();
    for atom in query.atoms() {
        out.push_str(&atom.relation);
        out.push('(');
        for (i, var) in atom.vars.iter().enumerate() {
            let next = interned.len();
            let id = *interned.entry(var.as_str()).or_insert(next);
            if i > 0 {
                out.push(',');
            }
            out.push('v');
            out.push_str(&id.to_string());
        }
        out.push(')');
        out.push(';');
    }
    out
}

/// The distinct relations `query` reads, in atom order.
fn relations(query: &JoinQuery) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for atom in query.atoms() {
        if !names.contains(&atom.relation.as_str()) {
            names.push(&atom.relation);
        }
    }
    names
}

/// `catalog`'s version of each relation `query` reads (see [`relations`]);
/// `None` when one is missing, which no plan can be cached for.
fn versions(query: &JoinQuery, catalog: &Catalog) -> Option<Vec<u64>> {
    relations(query)
        .into_iter()
        .map(|name| catalog.relation_version(name))
        .collect()
}

/// One shape's cached plan and the relation versions it was planned on.
#[derive(Debug)]
struct Generation {
    versions: Vec<u64>,
    plan: Arc<OptimizedPlan>,
}

/// Map + insertion queue behind the one short-lived lock.  The lock covers
/// lookup/insert/evict only — never planning; see [`PlanCache::get_or_plan`].
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Generation>,
    order: VecDeque<String>,
}

/// A bounded, concurrent `shape → (relation versions, Arc<OptimizedPlan>)`
/// cache; see the module docs for the keying discipline.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` shapes (oldest-insert eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up the plan cached for `query`'s shape on `catalog`'s versions
    /// of the relations it reads.  Counts toward [`hits`](Self::hits) /
    /// [`misses`](Self::misses).
    pub fn get(&self, query: &JoinQuery, catalog: &Catalog) -> Option<Arc<OptimizedPlan>> {
        let found = versions(query, catalog).and_then(|current| {
            let shape = canonical_shape(query);
            let inner = self.inner.lock().expect("plan cache lock poisoned");
            let generation = inner.map.get(&shape)?;
            (generation.versions == current).then(|| Arc::clone(&generation.plan))
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The prior for re-planning `query` on `catalog`: the plan cached for
    /// its shape (whose [`OptimizedPlan::bounds`] the re-plan reuses), and
    /// per atom `Some(j)` when the atom's relation has the version that plan
    /// was planned on, `None` otherwise — the `atom_map` of an
    /// [`Optimizer::plan_many`] prior.  `None` when the shape has no cached
    /// generation.  Not counted as a probe.
    pub fn prior(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Option<(Arc<OptimizedPlan>, Vec<Option<usize>>)> {
        let shape = canonical_shape(query);
        let names = relations(query);
        let inner = self.inner.lock().expect("plan cache lock poisoned");
        let generation = inner.map.get(&shape)?;
        let atom_map = query
            .atoms()
            .iter()
            .enumerate()
            .map(|(j, atom)| {
                let i = names.iter().position(|n| *n == atom.relation)?;
                let current = catalog.relation_version(&atom.relation)?;
                (generation.versions[i] == current).then_some(j)
            })
            .collect();
        Some((Arc::clone(&generation.plan), atom_map))
    }

    /// Cache `plan` for `query`'s shape on `catalog`'s relation versions,
    /// returning the shared handle.  A concurrent insert on the same
    /// versions wins the race once — later inserts return the
    /// already-cached plan, so every caller agrees on one handle per
    /// generation.  A plan older than the cached generation in any version
    /// is returned to its caller uncached.
    pub fn insert(
        &self,
        query: &JoinQuery,
        catalog: &Catalog,
        plan: OptimizedPlan,
    ) -> Arc<OptimizedPlan> {
        let Some(versions) = versions(query, catalog) else {
            return Arc::new(plan);
        };
        let shape = canonical_shape(query);
        let mut inner = self.inner.lock().expect("plan cache lock poisoned");
        if let Some(cached) = inner.map.get(&shape) {
            if cached.versions == versions {
                return Arc::clone(&cached.plan);
            }
            if versions
                .iter()
                .zip(&cached.versions)
                .any(|(new, old)| new < old)
            {
                return Arc::new(plan);
            }
            inner.order.retain(|s| *s != shape);
        }
        let plan = Arc::new(plan);
        inner.map.insert(
            shape.clone(),
            Generation {
                versions,
                plan: Arc::clone(&plan),
            },
        );
        inner.order.push_back(shape);
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
        plan
    }

    /// The hit path composed: probe the cache, and on a miss plan with
    /// `optimizer` — as a delta of the shape's stale generation when there
    /// is one ([`prior`](Self::prior)) — and cache the result.  Returns the
    /// plan plus whether it was a hit.  The cache lock is **never** held
    /// while planning, so a slow cold plan never blocks other requests'
    /// hits; two concurrent misses of the same shape may both plan, and the
    /// insert race then converges them on one cached handle.
    pub fn get_or_plan(
        &self,
        optimizer: &Optimizer,
        query: &JoinQuery,
        catalog: &Catalog,
    ) -> Result<(Arc<OptimizedPlan>, bool), ExecError> {
        if let Some(plan) = self.get(query, catalog) {
            return Ok((plan, true));
        }
        let prior = self.prior(query, catalog);
        let prior = prior
            .as_ref()
            .map(|(stale, atom_map)| (&stale.bounds, atom_map.as_slice()));
        let plan = optimizer
            .plan_many(&[(query, catalog, prior)])
            .pop()
            .expect("one result per request")?;
        Ok((self.insert(query, catalog, plan), false))
    }

    /// Cache probes that found a plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache probes that found nothing current (including probes that
    /// found a generation planned on other relation versions).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of shapes currently cached (one generation each).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache lock poisoned")
            .map
            .len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..40u64).flat_map(|i| [(i % 8, (i + 1) % 8), ((i + 3) % 8, i % 8)]),
        ));
        c
    }

    #[test]
    fn canonical_shape_ignores_names_and_variable_spelling() {
        let a = JoinQuery::triangle("E", "E", "E");
        // Same shape, different query name and variable names.
        let b = JoinQuery::new(
            "renamed",
            vec![
                lpb_core::Atom::new("E", &["p", "q"]),
                lpb_core::Atom::new("E", &["q", "r"]),
                lpb_core::Atom::new("E", &["r", "p"]),
            ],
        )
        .unwrap();
        assert_eq!(canonical_shape(&a), canonical_shape(&b));
        // A path shares relations but not the sharing pattern.
        let c = JoinQuery::path(&["E", "E", "E"]);
        assert_ne!(canonical_shape(&a), canonical_shape(&c));
        // Relation identity matters.
        let d = JoinQuery::triangle("E", "E", "F");
        assert_ne!(canonical_shape(&a), canonical_shape(&d));
    }

    #[test]
    fn hit_path_reuses_the_cached_plan_for_isomorphic_queries() {
        let catalog = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let (first, hit) = cache.get_or_plan(&optimizer, &q, &catalog).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_plan(&optimizer, &q, &catalog).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &again));
        // An isomorphic query (different variable spelling) hits too, and
        // its execution against its own variables is correct.
        let iso = JoinQuery::new(
            "other_user",
            vec![
                lpb_core::Atom::new("E", &["x1", "x2"]),
                lpb_core::Atom::new("E", &["x2", "x3"]),
                lpb_core::Atom::new("E", &["x3", "x1"]),
            ],
        )
        .unwrap();
        let (shared, hit) = cache.get_or_plan(&optimizer, &iso, &catalog).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &shared));
        let run = crate::physical::execute_physical(&iso, &catalog, &shared.physical).unwrap();
        let direct = crate::physical::execute_physical(&q, &catalog, &first.physical).unwrap();
        assert_eq!(run.output_size(), direct.output_size());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    /// Invalidation, write path: plan → hit → replace a relation the shape
    /// reads through an epoch-bumping successor → the stale plan must miss
    /// and a re-plan must replace it as the shape's one generation.
    #[test]
    fn epoch_bump_from_relation_replace_invalidates() {
        let base = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let (cold, hit) = cache.get_or_plan(&optimizer, &q, &base).unwrap();
        assert!(!hit);
        assert!(cache.get_or_plan(&optimizer, &q, &base).unwrap().1);

        // A same-epoch derived view intentionally still hits: same stats.
        let view = base.derive_with(RelationBuilder::binary_from_pairs(
            "F",
            "a",
            "b",
            vec![(1, 1)],
        ));
        assert!(cache.get_or_plan(&optimizer, &q, &view).unwrap().1);

        // An epoch-bumping successor of a relation the shape reads must
        // miss and re-plan.
        let successor = base.successor_with(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..4u64).map(|i| (i, i + 1)),
        ));
        assert_eq!(successor.epoch(), base.epoch() + 1);
        let (fresh, hit) = cache.get_or_plan(&optimizer, &q, &successor).unwrap();
        assert!(!hit, "stale plan served after a relation replace");
        assert!(!Arc::ptr_eq(&cold, &fresh));
        // The new generation replaced the old one: the successor hits, and
        // the old snapshot no longer does.
        assert!(cache.get_or_plan(&optimizer, &q, &successor).unwrap().1);
        assert!(cache.get(&q, &base).is_none());
        assert_eq!(cache.len(), 1);
    }

    /// Invalidation, feedback path: an `absorb_observed` epoch bump (the
    /// adaptive executor's statistics feedback) of a relation the shape
    /// reads must invalidate exactly like a relation replace; absorbing a
    /// relation the shape does not read leaves the plan live.
    #[test]
    fn epoch_bump_from_absorb_observed_invalidates() {
        let base = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        cache.get_or_plan(&optimizer, &q, &base).unwrap();
        assert!(cache.get_or_plan(&optimizer, &q, &base).unwrap().1);

        let max_norm = optimizer.config().max_norm;
        let unrelated = base
            .absorb_observed(
                RelationBuilder::binary_from_pairs("Obs", "a", "b", (0..6u64).map(|i| (i, i))),
                max_norm,
            )
            .unwrap();
        assert_eq!(unrelated.epoch(), base.epoch() + 1);
        assert!(
            cache.get_or_plan(&optimizer, &q, &unrelated).unwrap().1,
            "a write to a relation the shape does not read invalidated it"
        );

        let absorbed = unrelated
            .absorb_observed(base.get("E").unwrap(), max_norm)
            .unwrap();
        assert_eq!(absorbed.epoch(), base.epoch() + 2);
        let (_, hit) = cache.get_or_plan(&optimizer, &q, &absorbed).unwrap();
        assert!(!hit, "stale plan served after absorb_observed");
        assert!(cache.get_or_plan(&optimizer, &q, &absorbed).unwrap().1);
    }

    /// A request admitted on an older snapshot may finish planning after a
    /// newer generation was cached: its plan comes back to it, uncached,
    /// and the newer generation stays.
    #[test]
    fn an_older_insert_never_displaces_a_newer_generation() {
        let base = catalog();
        let cache = PlanCache::default();
        let optimizer = Optimizer::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let p = JoinQuery::path(&["E", "E"]);
        let successor = base.successor_with(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..4u64).map(|i| (i, i + 1)),
        ));
        let (newer, _) = cache.get_or_plan(&optimizer, &q, &successor).unwrap();
        let late = cache.insert(&q, &base, optimizer.plan(&q, &base).unwrap());
        assert!(!Arc::ptr_eq(&late, &newer));
        assert!(Arc::ptr_eq(&cache.get(&q, &successor).unwrap(), &newer));
        assert!(cache.get(&q, &base).is_none());
        assert_eq!(cache.len(), 1);
        // A stale probe still gets the newer generation as a prior, with
        // every atom marked changed (its relation's version differs).
        let (prior, atom_map) = cache.prior(&q, &base).unwrap();
        assert!(Arc::ptr_eq(&prior, &newer));
        assert_eq!(atom_map, vec![None; 3]);
        // Racing inserts on one snapshot converge on the first handle.
        let first = cache.insert(&p, &successor, optimizer.plan(&p, &successor).unwrap());
        let second = cache.insert(&p, &successor, optimizer.plan(&p, &successor).unwrap());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 2);
        // A newer generation replaces the older one and re-queues its
        // shape: at capacity the other shape is evicted first.
        let small = PlanCache::with_capacity(2);
        small.get_or_plan(&optimizer, &q, &base).unwrap();
        small.get_or_plan(&optimizer, &p, &base).unwrap();
        small.get_or_plan(&optimizer, &q, &successor).unwrap();
        assert_eq!(small.len(), 2);
        small
            .get_or_plan(&optimizer, &JoinQuery::path(&["E", "E", "E"]), &base)
            .unwrap();
        assert!(small.get(&q, &successor).is_some());
        assert!(small.get(&p, &base).is_none());
    }

    #[test]
    fn capacity_evicts_oldest_inserts_first() {
        let catalog = catalog();
        let cache = PlanCache::with_capacity(2);
        let optimizer = Optimizer::new();
        let queries = [
            JoinQuery::triangle("E", "E", "E"),
            JoinQuery::path(&["E", "E"]),
            JoinQuery::path(&["E", "E", "E"]),
        ];
        for q in &queries {
            cache.get_or_plan(&optimizer, q, &catalog).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // The oldest (triangle) was evicted; the two newest survive.
        assert!(cache.get(&queries[0], &catalog).is_none());
        assert!(cache.get(&queries[1], &catalog).is_some());
        assert!(cache.get(&queries[2], &catalog).is_some());
    }
}
