//! The distinct queries of a workload, their ground truth, and the two
//! untimed passes over them: the deterministic quality pass (every run)
//! and the layer pass (traced runs).

use crate::metrics::Observations;
use crate::trace::Tracer;
use lpb_core::{BatchEstimator, CollectConfig, JoinQuery};
use lpb_data::{Catalog, SnapshotCatalog, StatisticsCollector};
use lpb_exec::{
    execute_physical_mode, true_cardinality, AdaptiveExecutor, AdaptiveRun, ExecMode,
    OptimizedPlan, Optimizer, PhysicalNode, PhysicalPlan, PlannerConfig,
};
use lpb_lp::SolverStats;
use lpb_serve::{QueryService, ServeConfig, Worker};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One distinct query of a workload.
pub struct Case {
    pub name: String,
    pub query: JoinQuery,
    /// The data, with an empty statistics cache; never planned against.
    base: Catalog,
    /// Persisted statistics loaded into every fresh catalog (the
    /// `stale-stats` adversary's lying statistics).
    stats_file: Option<PathBuf>,
    /// True output size, computed once by counting (Yannakakis for acyclic
    /// queries, the generic join otherwise), never by the measured plan.
    pub truth: usize,
    /// Statistics deliberately lie: certificate violations are expected
    /// and handled by re-planning, and the bound gap is not meaningful.
    pub adversarial: bool,
}

impl Case {
    /// `catalog`'s relations with no cached statistics.
    pub fn new(
        name: &str,
        query: JoinQuery,
        catalog: &Catalog,
        stats_file: Option<PathBuf>,
    ) -> Result<Case, String> {
        let mut names = catalog.relation_names();
        names.sort();
        let mut base = Catalog::new();
        for n in &names {
            base.insert((*catalog.get(n).map_err(|e| e.to_string())?).clone());
        }
        let truth = true_cardinality(&query, &base).map_err(|e| format!("{name}: {e}"))?;
        Ok(Case {
            name: name.to_string(),
            query,
            base,
            adversarial: stats_file.is_some(),
            stats_file,
            truth: usize::try_from(truth).map_err(|_| format!("{name}: output too large"))?,
        })
    }

    /// A catalog over the case's data with statistics reset to the
    /// workload's initial state.
    pub fn fresh_catalog(&self) -> Result<Catalog, String> {
        let first = self.query.atoms()[0].relation.as_str();
        let catalog = self
            .base
            .derive_with(self.base.get(first).map_err(|e| e.to_string())?);
        if let Some(path) = &self.stats_file {
            catalog.load_statistics(path).map_err(|e| e.to_string())?;
        }
        Ok(catalog)
    }

    /// Distinct relation names the query reads, in atom order.
    pub fn relations(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for atom in self.query.atoms() {
            if !out.contains(&atom.relation) {
                out.push(atom.relation.clone());
            }
        }
        out
    }

    /// Whether an adaptive run answered correctly: right output size, and
    /// no certificate violation left unanswered (none at all unless the
    /// statistics are adversarial).
    pub fn check_adaptive(&self, run: &AdaptiveRun) -> bool {
        run.output.len() == self.truth
            && if self.adversarial {
                run.unhandled_violations() == 0
            } else {
                run.counters.certificate_violations() == 0
            }
    }
}

/// Materialize the degree-sequence statistics the planner's prewarm
/// computes, through the public collector.  Returns how many statistics
/// the catalog gained.
pub fn collect_statistics(case: &Case, catalog: &Catalog) -> Result<usize, String> {
    let collector = StatisticsCollector::with_norms(
        CollectConfig::with_max_norm(PlannerConfig::default().max_norm).norms,
    );
    let before = catalog.cached_stats();
    for rel in case.relations() {
        collector
            .materialize_relation(catalog, &rel)
            .map_err(|e| e.to_string())?;
    }
    Ok(catalog.cached_stats() - before)
}

/// Record a produced plan's planner counters.
pub fn push_plan(obs: &mut Observations, plan: &OptimizedPlan) {
    obs.push("planned", 1.0);
    obs.push("exec.subqueries_bounded", plan.subqueries_bounded as f64);
    obs.push(
        "exec.partition_subqueries_bounded",
        plan.partition_subqueries_bounded as f64,
    );
    obs.push(
        "exec.bound_fallbacks",
        (plan.bound_fallbacks + plan.partition_bound_fallbacks) as f64,
    );
    if plan.partition_subqueries_bounded > 0 {
        obs.push("exec.partition_searches", 1.0);
        obs.push("exec.partition_wins", (plan.parts_planned > 0) as u8 as f64);
    }
}

/// Record the LP work behind one planned query: all of a request's work,
/// or one member's `share` of a coalesced batch.
pub fn push_lp(obs: &mut Observations, query: &str, stats: &SolverStats, share: f64) {
    obs.push_pivots(query, stats.total_pivots() as f64 * share);
    obs.push("lp.pivots", stats.total_pivots() as f64 * share);
    obs.push("lp.dual_pivots", stats.dual_pivots as f64 * share);
    obs.push("lp.refactorizations", stats.refactorizations as f64 * share);
    obs.push("lp.rows_appended", stats.rows_appended as f64 * share);
}

/// Record the estimator's LP count and warm-start cache use since `before`
/// (`(lps, hits, misses)` as read from the estimator).
pub fn push_estimator(obs: &mut Observations, est: &BatchEstimator, before: (usize, usize, usize)) {
    obs.push("core.lps", (est.lps_estimated() - before.0) as f64);
    obs.push("core.warm_hits", (est.shape_cache_hits() - before.1) as f64);
    obs.push(
        "core.cold_solves",
        (est.shape_cache_misses() - before.2) as f64,
    );
}

pub fn estimator_counts(est: &BatchEstimator) -> (usize, usize, usize) {
    (
        est.lps_estimated(),
        est.shape_cache_hits(),
        est.shape_cache_misses(),
    )
}

/// Record an adaptive run's executor counters.
pub fn push_run(obs: &mut Observations, run: &AdaptiveRun) {
    obs.push("exec.runs", 1.0);
    obs.push("exec.max_intermediate_rows", run.max_intermediate() as f64);
    obs.push(
        "exec.certificates_checked",
        run.counters.certificates_checked() as f64,
    );
    obs.push("exec.replans", run.replans as f64);
    obs.push("exec.bounds_reused", run.bounds_reused as f64);
}

/// `log₂` of the certificate on a plan's output.
fn output_certificate(plan: &PhysicalPlan) -> Option<f64> {
    match plan.root() {
        PhysicalNode::Scan { log2_bound, .. }
        | PhysicalNode::HashJoin { log2_bound, .. }
        | PhysicalNode::Wcoj { log2_bound, .. }
        | PhysicalNode::PartitionedUnion { log2_bound, .. } => *log2_bound,
        PhysicalNode::HashChain { step_bounds, .. } | PhysicalNode::Reduced { step_bounds, .. } => {
            step_bounds.last().copied().flatten()
        }
    }
}

/// Result of the deterministic quality pass.
pub struct Quality {
    /// Sum over cases of the executed plan's largest intermediate.
    pub plan_peak_rows: f64,
    /// Mean over non-adversarial cases of log₂(output certificate / true
    /// output).
    pub bound_gap_log2: f64,
    /// Cases that failed (error, wrong answer, missing certificate).
    pub failures: Vec<String>,
}

/// Plan every case once with a sequential estimator, so no solve races
/// another, and execute the plan the way the workload does: the service's
/// static vectorized execution for `serve-*`, the adaptive executor for
/// `plan-*`.  The bounds are LP optima, so for a given seed the plans, their
/// peaks and the bound gaps repeat from run to run.
pub fn quality_pass(cases: &[Case], adaptive: bool) -> Quality {
    let mut peak = 0.0;
    let mut gaps = Vec::new();
    let mut failures = Vec::new();
    for case in cases {
        let outcome = (|| -> Result<(usize, Option<f64>), String> {
            let catalog = case.fresh_catalog()?;
            let optimizer = Optimizer::new().with_estimator(BatchEstimator::default().sequential());
            let plan = optimizer
                .plan(&case.query, &catalog)
                .map_err(|e| e.to_string())?;
            let peak = if adaptive {
                let run = AdaptiveExecutor::new(optimizer)
                    .run(&case.query, &catalog, &plan.physical, ExecMode::Vectorized)
                    .map_err(|e| e.to_string())?;
                if !case.check_adaptive(&run) {
                    return Err("wrong answer or unhandled certificate violation".into());
                }
                run.max_intermediate()
            } else {
                let run = execute_physical_mode(
                    &case.query,
                    &catalog,
                    &plan.physical,
                    ExecMode::Vectorized,
                )
                .map_err(|e| e.to_string())?;
                if run.output_size() != case.truth || run.certificate_violations() != 0 {
                    return Err("wrong answer or certificate violation".into());
                }
                run.max_intermediate()
            };
            if case.adversarial {
                return Ok((peak, None));
            }
            let bound = output_certificate(&plan.physical)
                .ok_or_else(|| "plan output carries no certificate".to_string())?;
            Ok((peak, Some(bound - (case.truth.max(1) as f64).log2())))
        })();
        match outcome {
            Ok((p, gap)) => {
                peak += p as f64;
                gaps.extend(gap);
            }
            Err(e) => failures.push(format!("quality pass, {}: {e}", case.name)),
        }
    }
    Quality {
        plan_peak_rows: peak,
        bound_gap_log2: crate::metrics::avg(&gaps),
        failures,
    }
}

/// One request on the library path, on a catalog whose statistics were
/// just reset: collect statistics, plan with a fresh `Optimizer` (default
/// configuration, parallel estimator), and run the plan adaptively in
/// vectorized mode.  With `bound_probe`, a cold sub-join bound batch on an
/// optimizer of its own precedes planning, so the planning call still
/// starts cold.  Returns how long statistics collection took, in ns.
pub fn library_request(
    case: &Case,
    catalog: &Catalog,
    tr: &mut Tracer,
    req: u64,
    obs: &mut Observations,
    bound_probe: bool,
) -> Result<u64, String> {
    let span = tr.begin();
    let computed = collect_statistics(case, catalog);
    let collect_ns = tr.end(span, "data.collect", req);
    obs.push("data.stats_computed", computed? as f64);
    obs.push("data.collects", 1.0);
    if bound_probe {
        let span = tr.begin();
        let bounds = Optimizer::new().harvest(&case.query, catalog);
        tr.end(span, "core.bound", req);
        bounds.map_err(|e| e.to_string())?;
    }
    let optimizer = Optimizer::new();
    let counts = estimator_counts(optimizer.estimator());
    // Process-wide counters: the default estimator fans LPs out to worker
    // threads, whose work a thread-local delta would miss.
    let lp_before = SolverStats::snapshot();
    let span = tr.begin();
    let plan = optimizer.plan(&case.query, catalog);
    tr.end(span, "exec.plan", req);
    let plan = plan.map_err(|e| e.to_string())?;
    let span = tr.begin();
    let run = AdaptiveExecutor::new(optimizer.clone()).run(
        &case.query,
        catalog,
        &plan.physical,
        ExecMode::Vectorized,
    );
    tr.end(span, "exec.run", req);
    let run = run.map_err(|e| e.to_string())?;
    push_lp(
        obs,
        &case.name,
        &SolverStats::snapshot().since(&lp_before),
        1.0,
    );
    push_estimator(obs, optimizer.estimator(), counts);
    push_plan(obs, &plan);
    push_run(obs, &run);
    if case.check_adaptive(&run) {
        Ok(collect_ns)
    } else {
        Err("wrong answer or unhandled certificate violation".into())
    }
}

/// The layer pass: for every case, call each layer's public entry point
/// once, in isolation and spanned, on freshly reset statistics.  Supplies
/// the per-layer values a workload's own requests cannot reach from
/// outside (see `metrics`).  Failures are returned as messages.
pub fn layer_pass(cases: &[Case]) -> (Observations, Vec<String>) {
    // Its own thread id and request ids, apart from the window's.
    let mut tracer = Tracer::new(Instant::now(), 0xF);
    tracer.set_enabled(true);
    let mut obs = Observations::default();
    let mut failures = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let req = (1 << 60) + i as u64;
        if let Err(e) = layer_pass_case(case, &mut tracer, req, &mut obs) {
            failures.push(format!("layer pass, {}: {e}", case.name));
        }
    }
    obs.spans = tracer.into_spans();
    (obs, failures)
}

fn layer_pass_case(
    case: &Case,
    tr: &mut Tracer,
    req: u64,
    obs: &mut Observations,
) -> Result<(), String> {
    // lpb-data: publish a successor snapshot per relation (same rows, new
    // statistics epoch), as a serving writer does.
    let cell = SnapshotCatalog::new(case.fresh_catalog()?);
    for rel in case.relations() {
        let relation = cell.load().get(&rel).map_err(|e| e.to_string())?;
        let root = tr.begin();
        let span = tr.begin();
        cell.replace_relation(relation);
        tr.end(span, "data.publish", req);
        tr.end(root, "write", req);
    }

    let catalog = case.fresh_catalog()?;
    let root = tr.begin();
    let body = library_request(case, &catalog, tr, req, obs, true);
    tr.end(root, "request", req);
    body?;

    // lpb-serve: one plan-cache miss and one hit on a fresh service.
    let service = Arc::new(QueryService::with_config(
        ServeConfig {
            gather_window: Duration::ZERO,
            ..ServeConfig::default()
        },
        case.fresh_catalog()?,
    ));
    let worker = Worker::new(Arc::clone(&service));
    for _ in 0..2 {
        let root = tr.begin();
        let span = tr.begin();
        let response = worker.execute(&case.query);
        if let Ok(r) = &response {
            let name = if r.cache_hit {
                "serve.plan_hit"
            } else {
                "serve.plan_miss"
            };
            tr.derived(span, name, req, r.plan_time.as_nanos() as u64);
        }
        tr.end(span, "serve.execute", req);
        tr.end(root, "request", req);
        let r = response.map_err(|e| e.to_string())?;
        obs.push("serve.requests", 1.0);
        obs.push("serve.hits", r.cache_hit as u8 as f64);
        if r.output_size != case.truth || (!case.adversarial && r.certificate_violations != 0) {
            return Err("service answered wrongly".into());
        }
    }
    let stats = service.stats();
    obs.push("serve.batches", stats.batches as f64);
    obs.push("serve.coalesced", stats.coalesced_requests as f64);
    obs.push("serve.multi_batches", stats.multi_request_batches as f64);
    obs.push("serve.cached_plans", stats.cached_plans as f64);
    obs.push("serve.segments", 1.0);
    Ok(())
}
