//! # lpb-serve — a long-lived, concurrent query service
//!
//! Everything below this crate is a one-shot library call: every request
//! pays full planning (an LP batch over every connected sub-join plus the
//! bottleneck DP) even when an identical query shape was planned
//! microseconds ago.  This crate adds the resident process the "millions
//! of users" north star needs — a thread-per-worker service in front of the
//! planner/executor stack that turns *per-query* amortization into
//! *per-fleet* amortization.  Three layers:
//!
//! 1. **Plan cache** ([`lpb_exec::PlanCache`], owned by [`QueryService`]) —
//!    one [`lpb_exec::OptimizedPlan`] per canonicalized query shape, keyed
//!    by the versions ([`lpb_data::Catalog::relation_version`]) of the
//!    relations the shape reads.  The hit path skips LP and DP entirely:
//!    one canonicalization, one map probe, one `Arc` clone.
//!
//!    *Cache keying discipline*: the shape canon renames variables by
//!    first appearance and drops query names, so isomorphic queries from
//!    different users share one entry.  A sub-join's bound LP reads only
//!    the statistics of its own relations, so a write — a relation
//!    replaced, observed intermediates absorbed by the adaptive executor —
//!    moves only the written relation's version and invalidates only the
//!    shapes that read it; every other shape keeps hitting on the new
//!    snapshot.  A shape that misses this way re-plans as a **delta** of
//!    its stale plan: the stale plan's bound table proves every sub-join
//!    over unchanged relations, and only the sub-joins over the written
//!    relation are re-solved (the partition search then runs as usual).
//!    A re-plan replaces the shape's stale plan, and a plan planned on an
//!    older snapshot never displaces a newer one.  One cache serves one
//!    catalog lineage; see `lpb_exec::plan_cache` for the full argument.
//!
//! 2. **Snapshot catalog** ([`lpb_data::SnapshotCatalog`]) — readers grab
//!    an `Arc<Catalog>` from an epoch-swapped cell and run their whole
//!    request against it; writers build a successor catalog off to the
//!    side and publish it with a single pointer store (the Noria
//!    left-right/epoch-swap idiom).
//!
//!    *Snapshot lifetime rules*: a request plans **and executes** on the
//!    one snapshot it grabbed at admission, so its bound certificates are
//!    judged against exactly the statistics that produced them — a
//!    concurrent publish can never induce a certificate violation.  Old
//!    snapshots stay alive until their last in-flight request drops the
//!    `Arc`; readers never block on writers (proven by rendezvous tests,
//!    not wall-clock).
//!
//! 3. **Cross-query LP coalescing** ([`Coalescer`]) — concurrent
//!    cache-missing plan requests that arrive within a short gather window
//!    are folded into **one** [`lpb_exec::Optimizer::plan_many`] batch, so
//!    sub-joins sharing an LP shape re-solve from one cold solve via dual
//!    warm starts across *users*, not just across one query's subsets.
//!
//!    *Coalescing window semantics*: the first cache-missing request opens
//!    a round and becomes its **leader**; requests arriving during the
//!    window join as **followers**.  When the window closes the round is
//!    sealed (later arrivals open a new round), the leader plans the whole
//!    batch on its own thread — the service estimator is sequential, so
//!    [`lpb_lp::SolverStats::thread_snapshot`] deltas give exact
//!    pivots-per-batch — and followers are woken with their shared
//!    `Arc`'d plans.  If planning panics, every member of the round gets
//!    a [`ServeError`] at once and the panic resumes on the leader, so no
//!    follower waits out the round timeout.  A window of zero disables
//!    gathering without changing semantics.
//!
//! Entry points: [`QueryService`] (shared, `Arc` it across threads) and
//! [`Worker`] (one per serving thread; adds the lock-free
//! [`lpb_data::SnapshotReader`] fast path for snapshot acquisition).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod service;

pub use coalesce::{CoalescedPlan, Coalescer};
pub use service::{QueryResponse, QueryService, ServeConfig, ServeStats, Worker};

/// A serve-layer failure, cloneable so one failed coalesced batch can be
/// reported to every request that joined it.  Wraps the underlying
/// planner/executor/data error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        ServeError {
            message: message.into(),
        }
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve error: {}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<lpb_exec::ExecError> for ServeError {
    fn from(e: lpb_exec::ExecError) -> Self {
        ServeError::new(e.to_string())
    }
}

impl From<lpb_data::DataError> for ServeError {
    fn from(e: lpb_data::DataError) -> Self {
        ServeError::new(e.to_string())
    }
}
