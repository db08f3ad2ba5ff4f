//! The `lpb-serve` query service end to end: a resident [`QueryService`]
//! over the JOB-like catalog, serving threads with per-thread snapshot
//! readers, the plan cache's hit path, a live publish, and cross-query LP
//! coalescing.
//!
//! The walkthrough:
//!
//! 1. **Cold vs hot** — the first request for a shape pays the full LP +
//!    DP planning batch; the second is one canonicalization, one map
//!    probe, one `Arc` clone (watch `plan_time` collapse and `plan_stats`
//!    go to zero pivots).
//! 2. **Publish** — replacing a relation builds a successor catalog aside
//!    and publishes it with a pointer swap.  The relation's version moves,
//!    so the cached plans of the shapes that read it stop matching; the
//!    next request for such a shape re-plans against the new statistics,
//!    reusing its stale plan's bounds for every sub-join over unchanged
//!    relations.  In-flight requests finish on their admission snapshots
//!    (zero certificate violations, by construction).
//! 3. **Coalescing** — eight client threads fire cache-missing shapes at
//!    once; requests landing in the same gather window are planned as one
//!    warm-started [`Optimizer::plan_many`] batch
//!    (`coalesced_batch ≥ 2`).
//!
//! ```text
//! cargo run --release --example serve
//! ```

use lpbound::datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpbound::serve::{QueryService, ServeConfig, ServeError, Worker};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), ServeError> {
    let catalog = job_like_catalog(&JobLikeConfig {
        movies: 1_000,
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    });
    let queries: Vec<_> = job_like_queries()
        .into_iter()
        .take(6)
        .map(|q| q.query)
        .collect();

    let service = Arc::new(QueryService::with_config(
        ServeConfig {
            gather_window: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        catalog,
    ));

    // 1. Cold, then hot: the plan cache turns repeat shapes into map probes.
    let q = &queries[0];
    let cold = service.execute(q)?;
    let hot = service.execute(q)?;
    println!("query {q}");
    println!(
        "  cold: {:>9.1}us plan, {} LP pivots, batch of {}, {} rows",
        cold.plan_time.as_secs_f64() * 1e6,
        cold.plan_stats.total_pivots(),
        cold.coalesced_batch,
        cold.output_size,
    );
    println!(
        "  hot:  {:>9.1}us plan, {} LP pivots, cache hit: {}, same plan: {}",
        hot.plan_time.as_secs_f64() * 1e6,
        hot.plan_stats.total_pivots(),
        hot.cache_hit,
        Arc::ptr_eq(&cold.plan, &hot.plan),
    );

    // 2. A publish of a relation `q` reads invalidates `q`'s cached plan —
    //    the next request re-plans against the new snapshot.
    let relation = service.snapshot().get(&q.atoms()[0].relation)?;
    let epoch = service.replace_relation(relation);
    let replanned = service.execute(q)?;
    println!(
        "\npublished epoch {epoch}: cache hit now {}, re-planned in {:.1}us, \
         {} violations",
        replanned.cache_hit,
        replanned.plan_time.as_secs_f64() * 1e6,
        replanned.certificate_violations,
    );

    // 3. Eight workers fire distinct cache-missing shapes together; the
    //    gather window folds concurrent misses into shared warm-started
    //    LP batches.
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let service = Arc::clone(&service);
            let q = queries[i % queries.len()].clone();
            scope.spawn(move || {
                let worker = Worker::new(service);
                let resp = worker.execute(&q).expect("served request");
                println!(
                    "  worker {i}: {} — batch of {}, hit: {}, {} rows",
                    q.name(),
                    resp.coalesced_batch,
                    resp.cache_hit,
                    resp.output_size,
                );
            });
        }
    });

    let stats = service.stats();
    println!(
        "\nservice: {} requests, {} hits / {} misses, {} batches \
         (max {}, {} multi-request), {} publishes, epoch {}, {} violations",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        stats.batches,
        stats.max_batch,
        stats.multi_request_batches,
        stats.publishes,
        stats.epoch,
        stats.certificate_violations,
    );
    assert_eq!(stats.certificate_violations, 0);
    Ok(())
}
