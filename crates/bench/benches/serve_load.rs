//! Sustained-load benchmark for the `lpb-serve` query service: what does
//! the resident process buy over one-shot library calls when many clients
//! hammer a fixed (JOB-like) workload?
//!
//! For each client count in {1, 8, 64}, the harness:
//!
//! 1. builds a fresh [`QueryService`] over the JOB-like catalog and spawns
//!    that many client threads, each owning a [`Worker`] (per-thread
//!    lock-free snapshot acquisition) and cycling through six JOB-like
//!    query shapes from a staggered start,
//! 2. releases all clients from a barrier and, while they run, publishes
//!    three successor snapshots from a writer thread (at ¼, ½ and ¾ of the
//!    request budget), each republishing every relation the shapes read in
//!    one update — so every cached plan misses, every row also measures
//!    re-plan storms after cache invalidation, and readers race pointer
//!    swaps,
//! 3. records per-request plan latency split by cache hit/miss, asserting
//!    zero certificate violations everywhere (in-flight requests finish on
//!    their admission snapshots, so a concurrent publish can never fail a
//!    certificate) and that the hit path did **zero** LP pivots,
//! 4. emits `BENCH_serve.json` at the workspace root, stamped with the git
//!    revision and `available_parallelism`: queries/sec, p50/p99
//!    plan latency, cold vs hit p50 (the plan-cache speedup, asserted
//!    ≥ 10x), the cache hit rate, coalesced-batch statistics (≥ 2 requests
//!    per batch asserted under 64-client load), publish counts, and the
//!    violation total (asserted zero).
//!
//! Passing `--smoke` (the CI mode: `cargo bench --bench serve_load -- --smoke`)
//! runs the same pipeline at test scale and writes the JSON to a scratch
//! path; CI greps it for the zero-violation and coalescing columns.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lpb_core::JoinQuery;
use lpb_datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpb_serve::{QueryService, ServeConfig, Worker};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct LoadRow {
    clients: usize,
    requests: u64,
    qps: f64,
    plan_p50_us: f64,
    plan_p99_us: f64,
    cold_p50_us: f64,
    hit_p50_us: f64,
    hit_speedup_p50: f64,
    cache_hit_rate: f64,
    batches: u64,
    multi_request_batches: u64,
    max_batch: u64,
    avg_batch: f64,
    publishes: u64,
    certificate_violations: u64,
}

fn job_catalog(smoke: bool) -> lpb_data::Catalog {
    job_like_catalog(&JobLikeConfig {
        movies: if smoke { 200 } else { 2_000 },
        link_fanout: 2,
        seed: 23,
        ..JobLikeConfig::default()
    })
}

/// The serving workload: six JOB-like shapes (4–5 relations each), enough
/// variety that the plan cache is exercised per shape while every shape
/// still repeats often enough to measure the hit path.
fn shapes() -> Vec<JoinQuery> {
    job_like_queries()
        .into_iter()
        .take(6)
        .map(|q| q.query)
        .collect()
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One sustained-load phase at `clients` concurrent workers.
fn run_load(smoke: bool, clients: usize, iters: usize) -> LoadRow {
    let service = Arc::new(QueryService::with_config(
        ServeConfig {
            // A generous window so the cold burst after each epoch bump
            // actually gathers: followers can only join while the leader
            // waits.
            gather_window: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        job_catalog(smoke),
    ));
    let queries = shapes();
    let total = (clients * iters) as u64;
    let completed = AtomicU64::new(0);
    // Clients + the writer + this (timing) thread.
    let barrier = Barrier::new(clients + 2);
    // The writer republishes every relation the shapes read, verbatim: same
    // data, new versions.  The plan cache keys on the versions of the
    // relations a shape reads, so only a write to all of them invalidates
    // every cached plan and forces a concurrent re-plan storm.
    let mut republished: Vec<String> = Vec::new();
    for atom in queries.iter().flat_map(|q| q.atoms()) {
        if !republished.contains(&atom.relation) {
            republished.push(atom.relation.clone());
        }
    }

    let (samples, elapsed) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let service = Arc::clone(&service);
            let queries = &queries;
            let barrier = &barrier;
            let completed = &completed;
            handles.push(scope.spawn(move || {
                let worker = Worker::new(service);
                barrier.wait();
                let mut samples = Vec::with_capacity(iters);
                for k in 0..iters {
                    let q = &queries[(client + k) % queries.len()];
                    let resp = worker.execute(q).expect("served request");
                    assert_eq!(
                        resp.certificate_violations, 0,
                        "a served query violated a bound certificate"
                    );
                    if resp.cache_hit {
                        assert_eq!(
                            resp.plan_stats.total_pivots(),
                            0,
                            "the cache-hit path did LP work"
                        );
                    }
                    samples.push((resp.plan_time.as_secs_f64() * 1e6, resp.cache_hit));
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                samples
            }));
        }
        // The writer: three publishes paced by client progress, so every
        // run (any client count, any machine speed) sees the same
        // invalidation pattern.  Each is one `update`: one snapshot swap
        // that replaces every relation the shapes read.
        let writer = {
            let service = Arc::clone(&service);
            let barrier = &barrier;
            let completed = &completed;
            let republished = &republished;
            scope.spawn(move || {
                barrier.wait();
                for quarter in 1..=3u64 {
                    let threshold = total * quarter / 4;
                    while completed.load(Ordering::Relaxed) < threshold {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    service.snapshot_cell().update(|base| {
                        let mut next = base.successor_with(
                            base.get(&republished[0]).expect("republished relation"),
                        );
                        for name in &republished[1..] {
                            next =
                                next.successor_with(next.get(name).expect("republished relation"));
                        }
                        next
                    });
                }
            })
        };
        barrier.wait();
        let started = Instant::now();
        let samples: Vec<(f64, bool)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let elapsed = started.elapsed().as_secs_f64();
        writer.join().expect("writer thread");
        (samples, elapsed)
    });

    let stats = service.stats();
    assert_eq!(samples.len() as u64, total);
    assert_eq!(
        stats.certificate_violations, 0,
        "{clients} clients: certificate violations under load"
    );
    assert_eq!(
        stats.publishes, 3,
        "{clients} clients: writer publish count"
    );

    let mut all: Vec<f64> = samples.iter().map(|(us, _)| *us).collect();
    let mut cold: Vec<f64> = samples
        .iter()
        .filter(|(_, hit)| !hit)
        .map(|(us, _)| *us)
        .collect();
    let mut hot: Vec<f64> = samples
        .iter()
        .filter(|(_, hit)| *hit)
        .map(|(us, _)| *us)
        .collect();
    all.sort_by(f64::total_cmp);
    cold.sort_by(f64::total_cmp);
    hot.sort_by(f64::total_cmp);
    assert!(
        !cold.is_empty() && !hot.is_empty(),
        "{clients} clients: need both cold and hit samples"
    );
    let cold_p50 = percentile_us(&cold, 0.5);
    let hit_p50 = percentile_us(&hot, 0.5);
    let hit_speedup = cold_p50 / hit_p50.max(1e-3);
    assert!(
        hit_speedup >= 10.0,
        "{clients} clients: plan-cache hit p50 only {hit_speedup:.1}x faster than cold \
         (cold {cold_p50:.1}us, hit {hit_p50:.1}us)"
    );
    if clients >= 64 {
        assert!(
            stats.max_batch >= 2,
            "{clients} clients: no cross-query coalescing happened (max batch {})",
            stats.max_batch
        );
    }

    LoadRow {
        clients,
        requests: total,
        qps: total as f64 / elapsed.max(1e-9),
        plan_p50_us: percentile_us(&all, 0.5),
        plan_p99_us: percentile_us(&all, 0.99),
        cold_p50_us: cold_p50,
        hit_p50_us: hit_p50,
        hit_speedup_p50: hit_speedup,
        cache_hit_rate: stats.cache_hits as f64
            / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        batches: stats.batches,
        multi_request_batches: stats.multi_request_batches,
        max_batch: stats.max_batch,
        avg_batch: stats.coalesced_requests as f64 / stats.batches.max(1) as f64,
        publishes: stats.publishes,
        certificate_violations: stats.certificate_violations,
    }
}

fn measure(c: &mut Criterion, smoke: bool) -> Vec<LoadRow> {
    // Each inter-publish segment (a quarter of the run) must outlast one
    // full 6-shape rotation, or a single client would never revisit a
    // still-valid epoch and the hit path would go unmeasured.
    let iters = if smoke { 32 } else { 48 };
    let rows: Vec<LoadRow> = [1usize, 8, 64]
        .into_iter()
        .map(|clients| run_load(smoke, clients, iters))
        .collect();

    // The hit path alone under criterion: a warmed service, plan-only.
    let service = QueryService::with_config(
        ServeConfig {
            gather_window: Duration::ZERO,
            ..ServeConfig::default()
        },
        job_catalog(smoke),
    );
    let queries = shapes();
    for q in &queries {
        service.plan(q).expect("warming plan");
    }
    c.bench_function("serve/cached_plan", |b| {
        b.iter(|| service.plan(black_box(&queries[0])).unwrap())
    });

    rows
}

fn write_bench_json(rows: &[LoadRow], smoke: bool) {
    let mut out = format!(
        "{{\n  \"bench\": \"serve_load\", {},\n  \"rows\": [\n",
        lpb_bench::bench_stamp()
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"qps\": {:.1}, \
             \"plan_p50_us\": {:.1}, \"plan_p99_us\": {:.1}, \
             \"cold_plan_p50_us\": {:.1}, \"hit_plan_p50_us\": {:.1}, \
             \"hit_speedup_p50\": {:.1}, \"cache_hit_rate\": {:.3}, \
             \"batches\": {}, \"multi_request_batches\": {}, \"max_batch\": {}, \
             \"avg_batch\": {:.2}, \"publishes\": {}, \
             \"certificate_violations\": {}}}{}\n",
            r.clients,
            r.requests,
            r.qps,
            r.plan_p50_us,
            r.plan_p99_us,
            r.cold_p50_us,
            r.hit_p50_us,
            r.hit_speedup_p50,
            r.cache_hit_rate,
            r.batches,
            r.multi_request_batches,
            r.max_batch,
            r.avg_batch,
            r.publishes,
            r.certificate_violations,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    // Smoke runs exercise the emitter end-to-end but must not overwrite the
    // committed trajectory file with reduced-size numbers.
    let path = if smoke {
        std::env::temp_dir()
            .join("BENCH_serve.smoke.json")
            .to_string_lossy()
            .into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    };
    std::fs::write(&path, &out).expect("write BENCH_serve.json");
    println!("{out}");
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = measure(c, smoke);
    write_bench_json(&rows, smoke);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
