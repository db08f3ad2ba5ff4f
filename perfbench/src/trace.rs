//! In-memory spans recorded by the harness around its calls into each
//! layer's public functions.
//!
//! Every client thread owns one [`Tracer`], so recording never locks; the
//! buffers are merged when the run ends.  A span has a name of the form
//! `<layer>.<what>`, a start and an end (nanoseconds since a run-wide
//! epoch), the span that caused it, and the request it belongs to.  The
//! root span of every request is named `request` (or `write`) and belongs
//! to the harness itself.  Self time is a span's duration minus the time
//! its children cover.
//!
//! One kind of span is *derived*: the service reports how long a request
//! spent getting its plan (`QueryResponse::plan_time`), and the harness
//! records that as a child span starting where the `Worker::execute` span
//! starts.  Nothing inside the program is instrumented.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle for an open span, closed with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start_ns: u64,
}

/// One thread's span buffer.  When disabled every call is a no-op that
/// still reads the clock once per `begin`, so callers can time with it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    thread: u64,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Tracer {
            epoch,
            enabled: false,
            thread,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self) -> Open {
        let start_ns = self.now_ns();
        if !self.enabled {
            return Open { id: 0, start_ns };
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        self.stack.push(id);
        Open { id, start_ns }
    }

    /// Close `open`, record it as `name` in request `req`, and return its
    /// duration in nanoseconds.
    pub fn end(&mut self, open: Open, name: &'static str, req: u64) -> u64 {
        let end_ns = self.now_ns();
        if self.enabled && open.id != 0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
            let parent = self.stack.last().copied().unwrap_or(0);
            self.spans.push(Span {
                id: open.id,
                parent,
                req,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        end_ns - open.start_ns
    }

    /// Record a derived child of the open span `parent`, covering
    /// `dur_ns` from the parent's start.
    pub fn derived(&mut self, parent: Open, name: &'static str, req: u64, dur_ns: u64) {
        if !self.enabled || parent.id == 0 {
            return;
        }
        self.next += 1;
        self.spans.push(Span {
            id: (self.thread << 40) | self.next,
            parent: parent.id,
            req,
            name,
            start_ns: parent.start_ns,
            end_ns: parent.start_ns + dur_ns,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let child = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(child))
        })
        .collect()
}

/// Share of root (`request`/`write`) time that layer spans cover by self
/// time: the part of each request the per-layer columns account for.
pub fn layer_coverage(spans: &[Span], selfs: &HashMap<u64, u64>) -> f64 {
    let mut root = 0u64;
    let mut layers = 0u64;
    for s in spans {
        if s.parent == 0 {
            root += s.dur_ns();
        } else {
            layers += selfs[&s.id];
        }
    }
    if root == 0 {
        0.0
    } else {
        layers as f64 / root as f64
    }
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span], selfs: &HashMap<u64, u64>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}
