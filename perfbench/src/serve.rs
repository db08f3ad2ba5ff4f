//! `serve-hot` and `serve-churn`: two closed-loop clients, each a
//! `lpb_serve::Worker`, cycling the JOB-like shapes q1–q6 against one
//! `QueryService` whose plan cache is warmed in set-up.  On `serve-churn`,
//! the client that completes every 24th request then republishes one
//! relation (same rows, new statistics epoch), which invalidates every
//! cached plan.
//!
//! A run measures [`SEGMENTS`] such services one after the other, each over
//! its own catalog drawn from the run's seed, for an equal share of the
//! window.  One 500-movie catalog varies enough from seed to seed (output
//! sizes, plan peaks, bound gaps) to swamp a regression; several per run
//! average that out.

use crate::cases::{estimator_counts, push_estimator, push_lp, push_plan, Case};
use crate::metrics::Observations;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{Phase, Window};
use lpb_datagen::{job_like_catalog, job_like_queries, JobLikeConfig};
use lpb_serve::{QueryService, ServeConfig, Worker};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// Services (catalogs) measured per run.
pub const SEGMENTS: usize = 6;
const MOVIES: usize = 500;
const LINK_FANOUT: usize = 2;
const SHAPES: usize = 6;
/// Completed requests between two republishes on `serve-churn`.
const WRITE_EVERY: u64 = 24;

/// One service over one catalog.
struct Segment {
    service: Arc<QueryService>,
    /// This segment's cases within [`ServeSetup::cases`].
    cases: Range<usize>,
    /// Relations the shapes read, in the seeded order writers republish them.
    relations: Vec<String>,
}

pub struct ServeSetup {
    /// Every segment's shapes, segment after segment.
    pub cases: Vec<Case>,
    segments: Vec<Segment>,
    /// Request latencies of the set-up requests that warmed the plan caches
    /// (all plan-cache misses).
    pub warm_miss_ms: Vec<f64>,
    /// Latencies of set-up republishes (`serve-hot` only).
    pub setup_write_ms: Vec<f64>,
    pub failures: Vec<String>,
}

/// For every segment: generate a seeded JOB-like catalog, compute each
/// shape's true output, start the service, and warm its plan cache with one
/// request per shape.  `serve-hot` also republishes every relation once
/// before warming, which is where its write latency comes from (it has no
/// writes under load).
pub fn setup(seed: u64, churn: bool) -> Result<ServeSetup, String> {
    let mut rng = Rng::new(seed);
    let mut s = ServeSetup {
        cases: Vec::new(),
        segments: Vec::new(),
        warm_miss_ms: Vec::new(),
        setup_write_ms: Vec::new(),
        failures: Vec::new(),
    };
    for segment in 0..SEGMENTS {
        let catalog = job_like_catalog(&JobLikeConfig {
            movies: MOVIES,
            link_fanout: LINK_FANOUT,
            seed: seed
                .wrapping_mul(SEGMENTS as u64)
                .wrapping_add(segment as u64),
            ..JobLikeConfig::default()
        });
        let first = s.cases.len();
        for q in job_like_queries().into_iter().take(SHAPES) {
            let name = format!("s{segment}-job-q{}", q.id);
            s.cases.push(Case::new(&name, q.query, &catalog, None)?);
        }
        let cases = &s.cases[first..];
        let service = Arc::new(QueryService::with_config(
            ServeConfig::default(),
            cases[0].fresh_catalog()?,
        ));
        let mut relations: Vec<String> = Vec::new();
        for case in cases {
            for r in case.relations() {
                if !relations.contains(&r) {
                    relations.push(r);
                }
            }
        }
        rng.shuffle(&mut relations);

        if !churn {
            let mut names = service.snapshot().relation_names();
            names.sort();
            for name in names {
                let relation = service.snapshot().get(&name).map_err(|e| e.to_string())?;
                let started = Instant::now();
                service.replace_relation(relation);
                s.setup_write_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        let worker = Worker::new(Arc::clone(&service));
        for case in cases {
            let started = Instant::now();
            let response = worker.execute(&case.query);
            s.warm_miss_ms.push(started.elapsed().as_secs_f64() * 1e3);
            match response {
                Ok(r) if r.output_size == case.truth && r.certificate_violations == 0 => {}
                Ok(_) => s
                    .failures
                    .push(format!("set-up, {}: wrong answer", case.name)),
                Err(e) => s.failures.push(format!("set-up, {}: {e}", case.name)),
            }
        }
        s.segments.push(Segment {
            service,
            cases: first..s.cases.len(),
            relations,
        });
    }
    Ok(s)
}

/// One client's results.
#[derive(Default)]
struct ClientOut {
    obs: Observations,
    untraced_ms: Vec<f64>,
    untraced_end_s: Vec<f64>,
    traced_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    write_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Run both clients for `seconds` in all, split evenly over the segments;
/// the clients move to the next segment's service together, at fixed
/// deadlines.
pub fn window(s: &ServeSetup, seed: u64, seconds: f64, churn: bool, phase: Phase) -> Window {
    let mut rng = Rng::new(seed);
    let orders: Vec<Vec<usize>> = s
        .segments
        .iter()
        .map(|segment| {
            let mut order: Vec<usize> = segment.cases.clone().collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let completed: Vec<AtomicU64> = s.segments.iter().map(|_| AtomicU64::new(0)).collect();
    let writes: Vec<AtomicU64> = s.segments.iter().map(|_| AtomicU64::new(0)).collect();
    let before: Vec<_> = s
        .segments
        .iter()
        .map(|g| {
            (
                g.service.stats(),
                estimator_counts(g.service.optimizer().estimator()),
            )
        })
        .collect();
    let epoch = Instant::now();
    let deadlines: Vec<Instant> = (1..=s.segments.len())
        .map(|i| epoch + Duration::from_secs_f64(seconds * i as f64 / s.segments.len() as f64))
        .collect();

    let outs: Vec<(ClientOut, Vec<crate::trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (orders, completed, writes, deadlines) =
                    (&orders, &completed, &writes, &deadlines);
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch, client as u64 + 1);
                    let mut out = ClientOut::default();
                    let mut req = (client as u64 + 1) << 32;
                    for (i, segment) in s.segments.iter().enumerate() {
                        let clock = Clock {
                            epoch,
                            deadline: deadlines[i],
                            phase,
                        };
                        let counters = (&completed[i], &writes[i]);
                        run_client(
                            s, segment, &orders[i], client, clock, churn, counters, &mut tr,
                            &mut req, &mut out,
                        );
                    }
                    (out, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut w = Window {
        elapsed_s: epoch.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for (mut o, spans) in outs {
        w.attempted += o.attempted;
        w.failed += o.failed;
        w.failures.append(&mut o.failures);
        w.untraced_ms.append(&mut o.untraced_ms);
        w.untraced_end_s.append(&mut o.untraced_end_s);
        w.traced_ms.append(&mut o.traced_ms);
        w.miss_ms.append(&mut o.miss_ms);
        w.write_ms.append(&mut o.write_ms);
        o.obs.spans = spans;
        w.obs.merge(o.obs);
    }
    let obs = &mut w.obs;
    for (segment, (stats, counts)) in s.segments.iter().zip(before) {
        let after = segment.service.stats();
        obs.push("serve.batches", (after.batches - stats.batches) as f64);
        obs.push(
            "serve.coalesced",
            (after.coalesced_requests - stats.coalesced_requests) as f64,
        );
        obs.push(
            "serve.multi_batches",
            (after.multi_request_batches - stats.multi_request_batches) as f64,
        );
        obs.push("serve.cached_plans", after.cached_plans as f64);
        obs.push("serve.segments", 1.0);
        push_estimator(obs, segment.service.optimizer().estimator(), counts);
    }
    w
}

#[derive(Clone, Copy)]
struct Clock {
    epoch: Instant,
    deadline: Instant,
    phase: Phase,
}

/// One client's closed loop on one segment's service until its deadline.
#[allow(clippy::too_many_arguments)]
fn run_client(
    s: &ServeSetup,
    segment: &Segment,
    order: &[usize],
    client: usize,
    clock: Clock,
    churn: bool,
    (completed, writes): (&AtomicU64, &AtomicU64),
    tr: &mut Tracer,
    req: &mut u64,
    out: &mut ClientOut,
) {
    let service = &segment.service;
    let worker = Worker::new(Arc::clone(service));
    // Stagger the clients half a cycle apart.
    let mut k = client * order.len() / CLIENTS;
    while Instant::now() < clock.deadline {
        let traced = clock.phase.traced_at(clock.epoch.elapsed());
        tr.set_enabled(traced);
        let case = &s.cases[order[k % order.len()]];
        k += 1;
        *req += 1;
        let req = *req;
        out.attempted += 1;
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
        let ms = tr.end(root, "request", req) as f64 * 1e-6;
        match response {
            Ok(r) => {
                if r.output_size != case.truth || r.certificate_violations != 0 {
                    out.failed += 1;
                    out.failures.push(format!("{}: wrong answer", case.name));
                }
                if traced {
                    out.traced_ms.push(ms);
                } else {
                    out.untraced_ms.push(ms);
                    out.untraced_end_s.push(clock.epoch.elapsed().as_secs_f64());
                }
                out.obs.push("serve.requests", 1.0);
                out.obs.push("serve.hits", r.cache_hit as u8 as f64);
                if !r.cache_hit {
                    out.miss_ms.push(ms);
                    push_plan(&mut out.obs, &r.plan);
                    // Every member of a coalesced batch reports the whole
                    // batch's solver work.
                    let share = 1.0 / r.coalesced_batch.max(1) as f64;
                    push_lp(&mut out.obs, &case.name, &r.plan_stats, share);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("{}: {e}", case.name));
            }
        }
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if churn && done % WRITE_EVERY == 0 {
            let n = writes.fetch_add(1, Ordering::Relaxed) as usize;
            let name = &segment.relations[n % segment.relations.len()];
            out.attempted += 1;
            match service.snapshot().get(name) {
                Ok(relation) => {
                    let root = tr.begin();
                    let span = tr.begin();
                    service.replace_relation(relation);
                    tr.end(span, "data.publish", req);
                    let ns = tr.end(root, "write", req);
                    out.write_ms.push(ns as f64 * 1e-6);
                }
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("republish {name}: {e}"));
                }
            }
        }
    }
}
