//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every thread owns a [`Recorder`]; finished recorders hand their spans
//! to the shared [`Tracer`], which keeps them in memory until the run
//! ends and then rolls them up (count, median duration, self time) and
//! writes them out. With tracing off a recorder drops every span, so the
//! untraced run pays only for the timestamps it needs anyway.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer boundary name, e.g. `core.sanitize`.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start: u64,
    /// End, [`now_ns`] clock.
    pub end: u64,
    /// This span's id (non-zero).
    pub id: u64,
    /// The enclosing span's id, `0` for a root.
    pub parent: u64,
    /// Request (or publish round) the span belongs to.
    pub req: u64,
}

impl SpanRec {
    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The shared span store of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that keeps spans when `on`, and drops them otherwise.
    pub fn new(on: bool) -> Arc<Self> {
        Arc::new(Tracer {
            on,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A per-thread recorder feeding this tracer.
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        Recorder {
            tracer: Arc::clone(self),
            buf: Vec::new(),
        }
    }

    /// Every span kept so far (recorders flush on drop).
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap().clone()
    }
}

/// A thread-local span buffer.
#[derive(Debug)]
pub struct Recorder {
    tracer: Arc<Tracer>,
    buf: Vec<SpanRec>,
}

/// Parent id of a request that is not sampled: neither it nor any
/// span naming it as parent is kept.
const SKIP: u64 = u64::MAX;

/// One request in this many keeps its spans; the rest are dropped, which
/// keeps a traced run's span store to tens of megabytes.
pub const REQUEST_SAMPLE: u64 = 16;

impl Recorder {
    /// A fresh span id, taken before the span's children run so that
    /// they can name it as their parent. `0` when tracing is off.
    pub fn open(&self) -> u64 {
        if self.tracer.on {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// [`Self::open`] for request `req` of a plan stream: only every
    /// [`REQUEST_SAMPLE`]-th request is traced.
    pub fn open_request(&self, req: u64) -> u64 {
        if req.is_multiple_of(REQUEST_SAMPLE) {
            self.open()
        } else {
            SKIP
        }
    }

    /// Records span `id` (from [`Self::open`]).
    pub fn close(&mut self, id: u64, name: &'static str, start: u64, parent: u64, req: u64) {
        self.close_at(id, name, start, now_ns(), parent, req);
    }

    /// Records span `id` with an explicit end stamp.
    pub fn close_at(
        &mut self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        req: u64,
    ) {
        if self.tracer.on && id != SKIP && parent != SKIP {
            self.buf.push(SpanRec {
                name,
                start,
                end,
                id,
                parent,
                req,
            });
        }
    }

    /// Records a leaf span with explicit stamps.
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64, parent: u64, req: u64) {
        let id = if parent == SKIP { SKIP } else { self.open() };
        self.close_at(id, name, start, end, parent, req);
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now_ns();
        let out = f();
        self.leaf(name, start, now_ns(), parent, req);
        out
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            self.tracer.spans.lock().unwrap().append(&mut self.buf);
        }
    }
}

/// Per-name rollup of a span set.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), nanoseconds.
    pub self_ns: u64,
    /// Every duration, nanoseconds (for medians).
    pub durations: Vec<u64>,
}

impl Rollup {
    /// Median duration in nanoseconds (`0.0` when empty).
    pub fn median_ns(&self) -> f64 {
        crate::stats::median_u64(&self.durations)
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span never overlap in this
/// benchmark (each span's children run one after another on one
/// thread, or one request's client legs follow each other), so their
/// durations add.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.nanos();
        }
    }
    spans
        .iter()
        .map(|s| {
            let child = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.nanos().saturating_sub(child))
        })
        .collect()
}

/// Rolls spans up by name.
pub fn rollup(spans: &[SpanRec]) -> HashMap<&'static str, Rollup> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, Rollup> = HashMap::new();
    for s in spans {
        let r = out.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += s.nanos();
        r.self_ns += selfs[&s.id];
        r.durations.push(s.nanos());
    }
    out
}

/// Most spans written to the dump file; the rollup covers all of them.
pub const DUMP_CAP: usize = 200_000;

/// Writes the span dump (JSON lines, first [`DUMP_CAP`] spans by start)
/// and the self-time rollup (one JSON object) into `dir`.
///
/// # Errors
/// IO errors creating or writing the files.
pub fn write_out(dir: &Path, stem: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.id));
    let mut dump = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{stem}.spans.jsonl")),
    )?);
    for s in sorted.iter().take(DUMP_CAP) {
        writeln!(
            dump,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start, s.end, s.id, s.parent, s.req
        )?;
    }
    dump.flush()?;
    let mut rows: Vec<(&'static str, Rollup)> = rollup(spans).into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let body: Vec<String> = rows
        .iter()
        .map(|(name, r)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{},\"median_us\":{}}}",
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.median_ns() / 1e3
            )
        })
        .collect();
    std::fs::write(
        dir.join(format!("{stem}.rollup.json")),
        format!("{{{}}}\n", body.join(",")),
    )
}
