//! The benchmark's metric catalogue and how each value is derived.
//!
//! A workload run produces [`Observations`] twice over: once for the
//! measured window and, in a traced run, once for the *layer pass* that
//! afterwards calls every layer's public entry point directly on the
//! workload's distinct queries.  A per-layer metric is computed from the
//! window; only when the window holds no sample for it (the workload's
//! requests do not reach that layer from outside, e.g. `core.bound_ms`
//! anywhere, or `exec.plan_ms` on `serve-*`) is it computed from the layer
//! pass.  The names of the metrics taken from the pass are listed in the
//! run's result file.

use crate::trace::{self, Span};
use crate::util::{mean, percentile};
use std::collections::{BTreeMap, HashMap};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "qps",
        unit: "1/s",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "miss_latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "write_latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "success_rate",
        unit: "ratio",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
    },
    EndToEnd {
        name: "plan_peak_rows",
        unit: "rows",
    },
    EndToEnd {
        name: "bound_gap_log2",
        unit: "log2",
    },
];

/// How a per-layer value is derived from one [`Observations`].
#[derive(Clone, Copy)]
pub enum Agg {
    /// Percentile of the named spans' durations, scaled from ns.
    SpanDur(&'static str, f64, f64),
    /// Percentile of the named spans' self times, scaled from ns.
    SpanSelf(&'static str, f64, f64),
    /// Sum of a sample key over sum of another.
    Ratio(&'static str, &'static str),
    /// Ratio of a key over the sum of two keys.
    Share(&'static str, &'static str),
    /// Sum of a sample key.
    Sum(&'static str),
    /// Mean over queries planned at least twice of (max − min) / median of
    /// their LP pivot counts: how far one query's LP work is from an exact
    /// repeat.
    PivotSpread,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub agg: Agg,
}

const NS_MS: f64 = 1e-6;
const NS_US: f64 = 1e-3;

/// Per-layer metrics of the traced run, plus the two trace diagnostics
/// (`trace.overhead_pct`, `trace.coverage`) computed in `main`.
pub const PER_LAYER: &[PerLayer] = &[
    // lpb-serve
    PerLayer {
        name: "serve.exec_ms_p50",
        unit: "ms",
        agg: Agg::SpanSelf("serve.execute", 0.5, NS_MS),
    },
    PerLayer {
        name: "serve.hit_plan_us_p50",
        unit: "us",
        agg: Agg::SpanDur("serve.plan_hit", 0.5, NS_US),
    },
    PerLayer {
        name: "serve.miss_plan_ms_p50",
        unit: "ms",
        agg: Agg::SpanDur("serve.plan_miss", 0.5, NS_MS),
    },
    PerLayer {
        name: "serve.miss_plan_ms_p99",
        unit: "ms",
        agg: Agg::SpanDur("serve.plan_miss", 0.99, NS_MS),
    },
    PerLayer {
        name: "serve.hit_rate",
        unit: "ratio",
        agg: Agg::Ratio("serve.hits", "serve.requests"),
    },
    PerLayer {
        name: "serve.batches",
        unit: "count",
        agg: Agg::Sum("serve.batches"),
    },
    PerLayer {
        name: "serve.avg_batch",
        unit: "req/batch",
        agg: Agg::Ratio("serve.coalesced", "serve.batches"),
    },
    PerLayer {
        name: "serve.multi_batch_share",
        unit: "ratio",
        agg: Agg::Ratio("serve.multi_batches", "serve.batches"),
    },
    PerLayer {
        name: "serve.cached_plans",
        unit: "count",
        agg: Agg::Ratio("serve.cached_plans", "serve.segments"),
    },
    // lpb-data
    PerLayer {
        name: "data.publish_ms_p50",
        unit: "ms",
        agg: Agg::SpanDur("data.publish", 0.5, NS_MS),
    },
    PerLayer {
        name: "data.collect_ms",
        unit: "ms",
        agg: Agg::SpanDur("data.collect", 0.5, NS_MS),
    },
    PerLayer {
        name: "data.stats_computed",
        unit: "count",
        agg: Agg::Ratio("data.stats_computed", "data.collects"),
    },
    // lpb-core
    PerLayer {
        name: "core.bound_ms",
        unit: "ms",
        agg: Agg::SpanDur("core.bound", 0.5, NS_MS),
    },
    PerLayer {
        name: "core.lps_estimated",
        unit: "count",
        agg: Agg::Ratio("core.lps", "planned"),
    },
    PerLayer {
        name: "core.warm_hit_rate",
        unit: "ratio",
        agg: Agg::Share("core.warm_hits", "core.cold_solves"),
    },
    // lpb-lp
    PerLayer {
        name: "lp.pivots",
        unit: "count",
        agg: Agg::Ratio("lp.pivots", "planned"),
    },
    PerLayer {
        name: "lp.dual_pivots",
        unit: "count",
        agg: Agg::Ratio("lp.dual_pivots", "planned"),
    },
    PerLayer {
        name: "lp.refactorizations",
        unit: "count",
        agg: Agg::Ratio("lp.refactorizations", "planned"),
    },
    PerLayer {
        name: "lp.rows_appended",
        unit: "count",
        agg: Agg::Ratio("lp.rows_appended", "planned"),
    },
    PerLayer {
        name: "lp.pivots_per_lp",
        unit: "count",
        agg: Agg::Ratio("lp.pivots", "core.lps"),
    },
    PerLayer {
        name: "lp.pivots_spread",
        unit: "ratio",
        agg: Agg::PivotSpread,
    },
    // lpb-exec planner
    PerLayer {
        name: "exec.plan_ms",
        unit: "ms",
        agg: Agg::SpanSelf("exec.plan", 0.5, NS_MS),
    },
    PerLayer {
        name: "exec.subqueries_bounded",
        unit: "count",
        agg: Agg::Ratio("exec.subqueries_bounded", "planned"),
    },
    PerLayer {
        name: "exec.partition_subqueries_bounded",
        unit: "count",
        agg: Agg::Ratio("exec.partition_subqueries_bounded", "planned"),
    },
    PerLayer {
        name: "exec.partition_lp_share",
        unit: "ratio",
        agg: Agg::Share(
            "exec.partition_subqueries_bounded",
            "exec.subqueries_bounded",
        ),
    },
    PerLayer {
        name: "exec.partition_win_rate",
        unit: "ratio",
        agg: Agg::Ratio("exec.partition_wins", "exec.partition_searches"),
    },
    PerLayer {
        name: "exec.bound_fallbacks",
        unit: "count",
        agg: Agg::Ratio("exec.bound_fallbacks", "planned"),
    },
    // lpb-exec executor
    PerLayer {
        name: "exec.run_ms",
        unit: "ms",
        agg: Agg::SpanDur("exec.run", 0.5, NS_MS),
    },
    PerLayer {
        name: "exec.max_intermediate_rows",
        unit: "rows",
        agg: Agg::Ratio("exec.max_intermediate_rows", "exec.runs"),
    },
    PerLayer {
        name: "exec.certificates_checked",
        unit: "count",
        agg: Agg::Ratio("exec.certificates_checked", "exec.runs"),
    },
    PerLayer {
        name: "exec.replans",
        unit: "count",
        agg: Agg::Ratio("exec.replans", "exec.runs"),
    },
    PerLayer {
        name: "exec.bounds_reused",
        unit: "count",
        agg: Agg::Ratio("exec.bounds_reused", "exec.runs"),
    },
];

/// Names and units of the two trace diagnostics.
pub const TRACE_METRICS: &[(&str, &str)] =
    &[("trace.overhead_pct", "%"), ("trace.coverage", "ratio")];

/// Spans plus named numeric samples gathered in one phase of a run.
#[derive(Debug, Default)]
pub struct Observations {
    pub spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// LP pivots per planned query, by query name.
    pivots_by_query: BTreeMap<String, Vec<f64>>,
}

impl Observations {
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn push_pivots(&mut self, query: &str, pivots: f64) {
        self.pivots_by_query
            .entry(query.to_string())
            .or_default()
            .push(pivots);
    }

    fn sum(&self, key: &str) -> Option<f64> {
        self.samples.get(key).map(|v| v.iter().sum())
    }

    pub fn merge(&mut self, other: Observations) {
        self.spans.extend(other.spans);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.pivots_by_query {
            self.pivots_by_query.entry(k).or_default().extend(v);
        }
    }

    /// The value `agg` gives on these observations, `None` without samples.
    pub fn eval(&self, agg: Agg, selfs: &HashMap<u64, u64>) -> Option<f64> {
        match agg {
            Agg::SpanDur(name, p, scale) => {
                let v: Vec<f64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_ns() as f64 * scale)
                    .collect();
                percentile(&v, p)
            }
            Agg::SpanSelf(name, p, scale) => {
                let v: Vec<f64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| selfs[&s.id] as f64 * scale)
                    .collect();
                percentile(&v, p)
            }
            Agg::Ratio(a, b) => {
                let den = self.sum(b)?;
                (den > 0.0).then(|| self.sum(a).unwrap_or(0.0) / den)
            }
            Agg::Share(a, b) => {
                let num = self.sum(a).unwrap_or(0.0);
                let den = num + self.sum(b).unwrap_or(0.0);
                (den > 0.0).then(|| num / den)
            }
            Agg::Sum(key) => self.sum(key),
            Agg::PivotSpread => {
                let spreads: Vec<f64> = self
                    .pivots_by_query
                    .values()
                    .filter(|v| v.len() >= 2)
                    .map(|v| {
                        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                        let median = percentile(v, 0.5).unwrap_or(0.0);
                        if median > 0.0 {
                            (max - min) / median
                        } else {
                            0.0
                        }
                    })
                    .collect();
                mean(&spreads)
            }
        }
    }
}

/// Every per-layer value: from the window where it has samples, else from
/// the layer pass.  Returns the values and the names taken from the pass.
pub fn per_layer(
    window: &Observations,
    pass: &Observations,
) -> (BTreeMap<&'static str, f64>, Vec<&'static str>) {
    let window_selfs = trace::self_times(&window.spans);
    let pass_selfs = trace::self_times(&pass.spans);
    let mut values = BTreeMap::new();
    let mut from_pass = Vec::new();
    for m in PER_LAYER {
        let value = match window.eval(m.agg, &window_selfs) {
            Some(v) => v,
            None => {
                from_pass.push(m.name);
                pass.eval(m.agg, &pass_selfs).unwrap_or(0.0)
            }
        };
        values.insert(m.name, value);
    }
    (values, from_pass)
}

/// Throughput and latency of the window's untraced requests, each the
/// median over equal time blocks of that block's value.  The shared host's
/// speed drifts over seconds (a memory-bound `serve-hot` window can move
/// its p99 by half from one 8 s stretch to the next); the median over
/// blocks follows the typical block rather than the slowest stretch.
pub struct Blocks {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Blocks {
    pub fn of(w: &crate::Window, blocks: usize) -> Blocks {
        let len = w.elapsed_s / blocks as f64;
        let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); blocks];
        for (&ms, &end) in w.untraced_ms.iter().zip(&w.untraced_end_s) {
            let b = ((end / len) as usize).min(blocks - 1);
            per_block[b].push(ms);
        }
        let median_of = |f: &dyn Fn(&[f64]) -> Option<f64>| {
            let v: Vec<f64> = per_block.iter().filter_map(|b| f(b)).collect();
            p50(&v)
        };
        Blocks {
            qps: median_of(&|b| Some(b.len() as f64 / len)),
            p50_ms: median_of(&|b| percentile(b, 0.5)),
            p99_ms: median_of(&|b| percentile(b, 0.99)),
        }
    }
}

/// Median latency with tracing on over median with it off, as a percentage
/// change.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    match (percentile(traced_ms, 0.5), percentile(untraced_ms, 0.5)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Median of a sample list, 0 when empty.
pub fn p50(v: &[f64]) -> f64 {
    percentile(v, 0.5).unwrap_or(0.0)
}

/// Mean of a sample list, 0 when empty.
pub fn avg(v: &[f64]) -> f64 {
    mean(v).unwrap_or(0.0)
}
