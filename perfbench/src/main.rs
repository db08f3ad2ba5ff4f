//! One benchmark for the whole lpbound stack.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-churn|plan-cold|plan-large> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test [--seconds <s>]
//! ```
//!
//! A run sets the workload up several times (reporting the median set-up
//! time), measures closed-loop requests for `--seconds`, checks every answer
//! against a truth computed in set-up by counting, and makes an untimed,
//! deterministic quality pass over the workload's distinct queries.  With
//! `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! alternates traced and untraced requests, makes the layer pass, and
//! prints every per-layer metric.  The last line of standard output is one
//! JSON object; a result file with the environment stamp, and in traced
//! runs the spans, go to `perfbench/out/`.  See `perfbench/README.md`.

mod cases;
mod json;
mod metrics;
mod plan;
mod serve;
mod trace;
mod util;

use metrics::{Observations, END_TO_END, PER_LAYER, TRACE_METRICS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &["serve-hot", "serve-churn", "plan-cold", "plan-large"];
/// Set-ups per run: at least `MIN`, and more until they have taken
/// `SECONDS`, up to `MAX`.  `setup_s` is their median; the last set-up is
/// the one measured.  Repeating for seconds rather than a fixed count keeps
/// cheap set-ups' median steady and spreads `serve-hot`'s set-up-time miss
/// and write samples over several seconds of the host's drifting speed.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 25;
const SETUP_SECONDS: f64 = 6.0;
/// Untimed closed-loop requests between set-up and the measured window.
const WARM_UP_S: f64 = 1.0;
/// Length of the alternating traced/untraced blocks of a traced serve run.
const TRACE_BLOCK: Duration = Duration::from_millis(250);
/// Equal time blocks of the window; throughput and latency percentiles are
/// the median over blocks of each block's value (see `metrics::Blocks`).
const WINDOW_BLOCKS: usize = 6;
/// Share of traced request time the per-layer self times must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Whether a request of the measured window is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Untraced,
    /// Traced and untraced requests alternate, so the difference between
    /// them is the tracing overhead.
    Alternating,
}

impl Phase {
    /// For concurrent clients: alternate in time blocks.
    pub fn traced_at(self, since_start: Duration) -> bool {
        self == Phase::Alternating && (since_start.as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1
    }

    /// For one client: alternate request by request, starting traced, so a
    /// window of a single `plan-large` request still yields spans.
    pub fn traced_request(self, req: u64) -> bool {
        self == Phase::Alternating && !req.is_multiple_of(2)
    }
}

/// What the measured window of a workload produced.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub elapsed_s: f64,
    /// Latencies of untraced (resp. traced) successful requests, ms.
    pub untraced_ms: Vec<f64>,
    /// When each untraced request ended, seconds into the window.
    pub untraced_end_s: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// Latencies of requests that had to plan, ms.
    pub miss_ms: Vec<f64>,
    /// Latencies of catalog writes, ms.
    pub write_ms: Vec<f64>,
    pub obs: Observations,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// One finished run.
struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Metric name → (value, unit), in emission order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics taken from the layer pass.
    from_pass: Vec<&'static str>,
    coverage: f64,
    spans: Vec<trace::Span>,
}

/// Set-up state of either workload family.
enum Setup {
    Serve(serve::ServeSetup),
    Plan(Vec<cases::Case>),
}

impl Setup {
    fn cases(&self) -> &[cases::Case] {
        match self {
            Setup::Serve(s) => &s.cases,
            Setup::Plan(c) => c,
        }
    }
}

fn setup_once(workload: &str, seed: u64) -> Result<Setup, String> {
    match workload {
        "serve-hot" | "serve-churn" => {
            serve::setup(seed, workload == "serve-churn").map(Setup::Serve)
        }
        _ => plan::setup(workload == "plan-large", &out_dir().join("tmp")).map(Setup::Plan),
    }
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    // Set up several times; keep the last.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut warm_miss_ms = Vec::new();
    let mut setup_write_ms = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(setup.take());
        let started = Instant::now();
        let s = setup_once(workload, seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Setup::Serve(ss) = &s {
            warm_miss_ms.extend(&ss.warm_miss_ms);
            setup_write_ms.extend(&ss.setup_write_ms);
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    // Untimed: the deterministic quality pass, then closed-loop warm-up
    // until the window's allocator, caches and clock are in steady state.
    let warm_start = Instant::now();
    let quality = cases::quality_pass(setup.cases(), matches!(setup, Setup::Plan(_)));
    let mut attempted = setup.cases().len() as u64;
    let mut failures = quality.failures;
    match &setup {
        Setup::Serve(s) => {
            attempted += s.cases.len() as u64;
            failures.extend(s.failures.iter().cloned());
            let churn = workload == "serve-churn";
            let warm = serve::window(s, seed, WARM_UP_S, churn, Phase::Untraced);
            attempted += warm.attempted;
            failures.extend(warm.failures);
        }
        Setup::Plan(c) => {
            let warm = plan::warm_up(c, WARM_UP_S - warm_start.elapsed().as_secs_f64());
            attempted += warm.attempted;
            failures.extend(warm.failures);
        }
    }

    let phase = if traced {
        Phase::Alternating
    } else {
        Phase::Untraced
    };
    let mut window = match &setup {
        Setup::Serve(s) => serve::window(s, seed, seconds, workload == "serve-churn", phase),
        Setup::Plan(c) => plan::window(c, seed, seconds, phase),
    };
    attempted += window.attempted;
    let mut failed = window.failed + failures.len() as u64;
    failures.append(&mut window.failures);

    let mut metrics = Vec::new();
    let mut from_pass = Vec::new();
    let mut coverage = 0.0;
    let mut spans = Vec::new();
    if traced {
        let (pass, pass_failures) = cases::layer_pass(setup.cases());
        attempted += setup.cases().len() as u64;
        failed += pass_failures.len() as u64;
        failures.extend(pass_failures);

        let (values, fp) = metrics::per_layer(&window.obs, &pass);
        from_pass = fp;
        for m in PER_LAYER {
            metrics.push((m.name, values[m.name], m.unit));
        }
        let selfs = trace::self_times(&window.obs.spans);
        coverage = trace::layer_coverage(&window.obs.spans, &selfs);
        let overhead = metrics::overhead_pct(&window.traced_ms, &window.untraced_ms);
        metrics.push((TRACE_METRICS[0].0, overhead, TRACE_METRICS[0].1));
        metrics.push((TRACE_METRICS[1].0, coverage, TRACE_METRICS[1].1));
        spans = std::mem::take(&mut window.obs.spans);
        spans.extend(pass.spans);
    } else {
        let (miss, write) = match &setup {
            Setup::Serve(_) if workload == "serve-hot" => (&warm_miss_ms, &setup_write_ms),
            _ => (&window.miss_ms, &window.write_ms),
        };
        let blocks = metrics::Blocks::of(&window, WINDOW_BLOCKS);
        let values: BTreeMap<&str, f64> = [
            ("qps", blocks.qps),
            ("latency_p50_ms", blocks.p50_ms),
            ("latency_p99_ms", blocks.p99_ms),
            ("miss_latency_p50_ms", metrics::p50(miss)),
            ("write_latency_p50_ms", metrics::p50(write)),
            (
                "success_rate",
                (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            ),
            ("setup_s", metrics::p50(&setup_s)),
            ("peak_rss_mb", util::peak_rss_mb()),
            ("plan_peak_rows", quality.plan_peak_rows),
            ("bound_gap_log2", quality.bound_gap_log2),
        ]
        .into_iter()
        .collect();
        for m in END_TO_END {
            metrics.push((m.name, values[m.name], m.unit));
        }
    }
    Ok(RunResult {
        attempted,
        failed,
        failures,
        metrics,
        from_pass,
        coverage,
        spans,
    })
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn env_json(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let root = bench_dir().join("..");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clients = if workload.starts_with("serve") {
        serve::CLIENTS
    } else {
        1
    };
    format!(
        "{{\"git_revision\": \"{}\", \"available_parallelism\": {cores}, \"clients\": {clients}, \
         \"run_seconds\": {seconds}, \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}}}",
        util::git_revision(&root),
        traced as u8
    )
}

fn run_main(args: &Args) -> Result<bool, String> {
    let result = run_workload(&args.workload, args.seed, args.seconds, args.trace)?;
    let finite = result.metrics.iter().all(|(_, v, _)| v.is_finite());
    let coverage_ok = !args.trace || result.coverage >= MIN_COVERAGE;
    let correct = result.failed == 0 && finite && coverage_ok;
    let env = env_json(&args.workload, args.seed, args.seconds, args.trace);
    for f in result.failures.iter().take(20) {
        println!("# failure: {f}");
    }
    if !coverage_ok {
        println!(
            "# failure: layer self times cover {:.3} of traced request time (< {MIN_COVERAGE})",
            result.coverage
        );
    }
    for (name, value, unit) in &result.metrics {
        println!("# {name:36} {value:>16.6} {unit}");
    }
    println!("# env {env}");
    let metrics = metrics_json(
        &result
            .metrics
            .iter()
            .map(|&(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect::<Vec<_>>(),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let from_pass: Vec<String> = result
        .from_pass
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let record = format!(
        "{{\"env\": {env}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {metrics}, \"from_layer_pass\": [{}]}}\n",
        result.attempted,
        result.failed,
        from_pass.join(", ")
    );
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("{stem}.json")), record).map_err(|e| e.to_string())?;
    if args.trace {
        let selfs = trace::self_times(&result.spans);
        trace::write_jsonl(
            &out.join(format!("{stem}.spans.jsonl")),
            &result.spans,
            &selfs,
        )
        .map_err(|e| e.to_string())?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        result.attempted, result.failed
    );
    Ok(correct)
}

/// The metric names and units `BENCHMARK.json` declares, per section.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    doc.get(section)
        .ok_or(format!("BENCHMARK.json has no {section}"))?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Json::as_str);
            let unit = m.get("unit").and_then(json::Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!(
                    "BENCHMARK.json {section}: entry without name or unit"
                )),
            }
        })
        .collect()
}

/// Brief mode of every workload: every declared metric is emitted with its
/// unit, no request fails, and the per-layer self times cover at least 95%
/// of traced request time.
fn self_test(seconds: f64) -> Result<bool, String> {
    let e2e = declared("end_to_end")?;
    let layer = declared("per_layer")?;
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    for &workload in WORKLOADS {
        for traced in [false, true] {
            let r = run_workload(workload, 1, seconds, traced)?;
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let want = if traced { &layer } else { &e2e };
            let missing: Vec<&(String, String)> =
                want.iter().filter(|m| !emitted.contains(m)).collect();
            let extra: Vec<&(String, String)> =
                emitted.iter().filter(|m| !want.contains(m)).collect();
            check(
                format!("{workload} trace={}: every declared metric emitted with its unit (missing {missing:?}, undeclared {extra:?})", traced as u8),
                missing.is_empty() && extra.is_empty(),
            );
            check(
                format!(
                    "{workload} trace={}: error rate 0 ({} of {} failed) {:?}",
                    traced as u8,
                    r.failed,
                    r.attempted,
                    r.failures.first()
                ),
                r.failed == 0,
            );
            if traced {
                check(
                    format!("{workload}: layer self times cover {:.4} of traced request time (>= {MIN_COVERAGE})", r.coverage),
                    r.coverage >= MIN_COVERAGE,
                );
            }
        }
    }
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The stale-statistics generator persists a file under the temporary
    // directory; keep it inside the checkout.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: {}: {e}", tmp.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let outcome = if args.self_test {
        self_test(args.seconds.min(2.0))
    } else {
        run_main(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
