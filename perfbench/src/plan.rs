//! `plan-cold` and `plan-large`: one client on the library path.  Every
//! request resets the catalog's statistics to the workload's initial state,
//! collects the statistics the planner needs, plans with a fresh
//! `Optimizer` (default configuration, parallel estimator) and runs the
//! plan through `AdaptiveExecutor::run` in vectorized mode.
//!
//! The queries are the `lpb-datagen` planner corpus at scale 1.  Those
//! generators take no seed, so the seed only permutes the request order.

use crate::cases::{library_request, Case};
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{Phase, Window};
use lpb_datagen::{
    job_like_catalog, job_like_queries, planner_workloads, stale_stats_workload, JobLikeConfig,
    PlannerWorkload,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Planner workloads at this scale; `planner_quality --smoke` uses the same.
const SCALE: usize = 1;
/// The 12-atom corpus member, which `plan-large` runs alone.
const LARGE: &str = "large-mixed-12";

/// Build the workload's cases.  `stale-stats` persists its lying statistics
/// to `tmp` so every request can reload them.
pub fn setup(large: bool, tmp: &Path) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for w in planner_workloads(SCALE) {
        if (w.name == LARGE) == large {
            cases.push(Case::new(w.name, w.query, &w.catalog, None)?);
        }
    }
    if large {
        return Ok(cases);
    }
    let PlannerWorkload {
        name,
        query,
        catalog,
    } = stale_stats_workload(SCALE);
    std::fs::create_dir_all(tmp).map_err(|e| e.to_string())?;
    let path = tmp.join("stale-stats.stats");
    catalog.save_statistics(&path).map_err(|e| e.to_string())?;
    cases.push(Case::new(name, query, &catalog, Some(path))?);
    // planner_quality's JOB-like query, at its smoke scale.
    let job = job_like_catalog(&JobLikeConfig {
        movies: 200,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    let query = job_like_queries()
        .into_iter()
        .nth(3)
        .ok_or("the JOB-like suite has no fourth query")?
        .query;
    cases.push(Case::new("job-like", query, &job, None)?);
    Ok(cases)
}

/// Untimed requests before the window for `seconds`, so the window starts
/// with the allocator, page cache and clock frequency in their steady state.
pub fn warm_up(cases: &[Case], seconds: f64) -> Window {
    let started = Instant::now();
    let mut tr = Tracer::new(started, 0);
    let mut w = Window::default();
    while w.failures.is_empty() && started.elapsed().as_secs_f64() < seconds {
        for case in cases {
            w.attempted += 1;
            if let Err(e) = request(case, &mut tr, 0, &mut Window::default()) {
                w.failures.push(format!("warm-up, {}: {e}", case.name));
            }
        }
    }
    w
}

/// Run requests back to back for `seconds`, cycling the cases in seeded
/// shuffled rounds.  With tracing, every other request is traced.
pub fn window(cases: &[Case], seed: u64, seconds: f64, phase: Phase) -> Window {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut rng = Rng::new(seed);
    let mut round: Vec<usize> = Vec::new();
    let mut tr = Tracer::new(epoch, 1);
    let mut w = Window::default();
    let mut req = 0u64;
    while Instant::now() < deadline {
        if round.is_empty() {
            round = (0..cases.len()).collect();
            rng.shuffle(&mut round);
        }
        let case = &cases[round.pop().expect("a non-empty round")];
        req += 1;
        let traced = phase.traced_request(req);
        tr.set_enabled(traced);
        w.attempted += 1;
        match request(case, &mut tr, req, &mut w) {
            Ok(ms) => {
                if traced {
                    w.traced_ms.push(ms);
                } else {
                    w.untraced_ms.push(ms);
                    w.untraced_end_s.push(epoch.elapsed().as_secs_f64());
                }
                w.miss_ms.push(ms);
            }
            Err(e) => {
                w.failed += 1;
                w.failures.push(format!("{}: {e}", case.name));
            }
        }
    }
    w.elapsed_s = epoch.elapsed().as_secs_f64();
    w.obs.spans = tr.into_spans();
    w
}

/// One request: reset the statistics, then the library path.  Returns its
/// latency in ms.  The reset and the statistics collection together are the
/// request's catalog write.
fn request(case: &Case, tr: &mut Tracer, req: u64, w: &mut Window) -> Result<f64, String> {
    let root = tr.begin();
    let span = tr.begin();
    let catalog = case.fresh_catalog();
    let reset_ns = tr.end(span, "data.reset", req);
    let body = catalog.and_then(|c| library_request(case, &c, tr, req, &mut w.obs, false));
    let ns = tr.end(root, "request", req);
    let collect_ns = body?;
    w.write_ms.push((reset_ns + collect_ns) as f64 * 1e-6);
    Ok(ns as f64 * 1e-6)
}
