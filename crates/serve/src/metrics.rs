//! Serving-stack observability: the [`ServeMetrics`] hub every front
//! end records into, and the Prometheus-text `/metrics` exporter behind
//! `dpod serve --metrics-addr`.
//!
//! ## What is measured
//!
//! **Per-request stage latencies** (`dpod_request_stage_nanoseconds`,
//! labelled `transport` × `stage`): `parse` (socket read → frame/line
//! assembled), `queue` (assembled → a worker picks it up), `execute`
//! (decode + answer), `encode` (response serialization), `write`
//! (response bytes → socket). Recording is a wait-free histogram
//! `fetch_add` (see `dpod_obs`), cheap enough for the ~10⁵ req/s hot
//! path.
//!
//! **Event-loop health** (`dpod_eventloop_*`, labelled `shard`): per
//! loop shard, cumulative epoll wait nanoseconds and wake count, the
//! dispatched-unit byte-size distribution, read-side backpressure
//! pauses, idle-sweep evictions, and the pending request-byte depth.
//! *Versioning note:* since the loop was sharded these series carry a
//! `shard="<i>"` label (previously unlabelled singletons), and the
//! `dpod_eventloop_pending_items` gauge was superseded by
//! `dpod_eventloop_pending_bytes` / `dpod_eventloop_dispatch_unit_bytes`
//! because framing moved off the loop into the workers — the loop now
//! counts raw bytes, not assembled items.
//!
//! **Request mix** (`dpod_requests_total`, labelled `transport` ×
//! `kind`): one increment per decoded request, plan requests split by
//! plan shape (`plan_range`, `plan_od`, …).
//!
//! **Scrape-time gauges** rendered fresh per exposition (zero hot-path
//! cost): engine cache/index counters, catalog size, connection gauges,
//! per-release hit counters, and the ε-budget accounting — each
//! release's spent ε plus catalog-wide sequential-composition totals
//! computed through [`dpod_dp::BudgetAccountant`].
//!
//! The same histograms back the extended [`crate::protocol::ServerStats`] stats frame
//! (`stage_latencies` quantiles) and the richer `dpod serve` stats
//! line, so all three exposition surfaces agree.

use crate::protocol::{Request, StageLatency};
use crate::server::Server;
use dpod_obs::{Clock, Counter, Gauge, Histogram, Registry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which encoding a request arrived in — the `transport` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Newline-delimited JSON.
    Json = 0,
    /// `DPRB` binary frames.
    Binary = 1,
}

impl Transport {
    /// All transports, in label-index order.
    pub const ALL: [Transport; 2] = [Transport::Json, Transport::Binary];

    /// The `transport` label value.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Json => "json",
            Transport::Binary => "binary",
        }
    }
}

/// One stage of the request lifecycle — the `stage` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Socket read → request frame/line fully assembled.
    Parse = 0,
    /// Assembled → a worker starts executing.
    Queue = 1,
    /// Decode + answer ([`Server::handle`]).
    Execute = 2,
    /// Response serialization.
    Encode = 3,
    /// Response bytes → socket.
    Write = 4,
}

impl Stage {
    /// All stages, in label-index order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Queue,
        Stage::Execute,
        Stage::Encode,
        Stage::Write,
    ];

    /// The `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Execute => "execute",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }
}

/// Request-kind label values (the `kind` label on
/// `dpod_requests_total`), index-aligned with [`kind_index`].
const KINDS: [&str; 11] = [
    "query",
    "batch",
    "plan_range",
    "plan_od",
    "plan_marginal",
    "plan_top_k",
    "plan_total",
    "plan_many",
    "list",
    "stats",
    "undecodable",
];

/// Index of `KINDS[10]`: a request that failed to decode (no kind).
pub(crate) const KIND_UNDECODABLE: usize = 10;

/// Maps a decoded request to its `kind` label index.
pub(crate) fn kind_index(req: &Request) -> usize {
    match req {
        Request::Query { .. } => 0,
        Request::Batch { .. } => 1,
        Request::Plan { plan, .. } => match plan.kind() {
            "range" => 2,
            "od" => 3,
            "marginal" => 4,
            "top_k" => 5,
            "total" => 6,
            _ => 7, // "many", "drill_down" (and any future shape folds here)
        },
        Request::List => 8,
        Request::Stats => 9,
    }
}

/// The serving stack's metric handles: one instance per [`Server`],
/// shared by every front end and exposition surface.
///
/// All handles are pre-registered at construction, so a `/metrics`
/// scrape always shows the full series catalog (zeros included) and the
/// hot path never touches the registry lock.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    clock: Clock,
    /// `[transport][stage]` latency histograms, nanoseconds.
    stages: [[Arc<Histogram>; 5]; 2],
    /// `[transport][kind]` request counters.
    requests: [[Arc<Counter>; 11]; 2],
    /// Per-release hit-counter rows evicted to keep the stats map
    /// bounded (see `ServerStats::evicted_stat_entries`).
    pub(crate) evicted_stat_entries: Arc<Counter>,
}

/// One event-loop shard's health handles, labelled `shard="<i>"` on
/// every series so imbalance across the `N` loops is visible on a
/// single `/metrics` scrape. Obtained from [`ServeMetrics::shard`] at
/// shard spawn (registration is the cold path; recording is lock-free).
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    /// Cumulative nanoseconds this shard spent inside `epoll_wait`.
    pub(crate) epoll_wait_nanos: Arc<Counter>,
    /// Times this shard returned from `epoll_wait`.
    pub(crate) epoll_wakes: Arc<Counter>,
    /// Raw request bytes per unit this shard dispatched to the pool.
    pub(crate) dispatch_bytes: Arc<Histogram>,
    /// Times a connection's read side was paused for backpressure.
    pub(crate) backpressure_pauses: Arc<Counter>,
    /// Connections closed by this shard's idle sweep.
    pub(crate) sweep_evictions: Arc<Counter>,
    /// Read-but-undispatched request bytes across the shard's
    /// connections.
    pub(crate) pending_bytes: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Builds the hub, registering every hot-path series.
    pub fn new() -> Self {
        let registry = Registry::new();
        let stages = Transport::ALL.map(|t| {
            Stage::ALL.map(|s| {
                registry.histogram(
                    "dpod_request_stage_nanoseconds",
                    "Per-stage request latency in nanoseconds",
                    &[("transport", t.label()), ("stage", s.label())],
                )
            })
        });
        let requests = Transport::ALL.map(|t| {
            KINDS.map(|k| {
                registry.counter(
                    "dpod_requests_total",
                    "Requests received, by transport and request kind",
                    &[("transport", t.label()), ("kind", k)],
                )
            })
        });
        let hub = ServeMetrics {
            stages,
            requests,
            evicted_stat_entries: registry.counter(
                "dpod_server_evicted_stat_entries_total",
                "Per-release hit-counter rows evicted to bound the stats map",
                &[],
            ),
            clock: Clock::new(),
            registry,
        };
        // Shard 0 always exists under the event front end; registering
        // it eagerly keeps the scrape catalog complete (zeros included)
        // even before the first loop iteration — and on the pool front
        // end, where no shard ever records.
        let _ = hub.shard(0);
        hub
    }

    /// Registers (or re-fetches — the registry dedupes by name+labels)
    /// the `shard="<i>"` event-loop series and returns their handles.
    /// Called once per shard at spawn; never on the hot path.
    pub(crate) fn shard(&self, shard: usize) -> ShardMetrics {
        let idx = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", idx.as_str())];
        ShardMetrics {
            epoll_wait_nanos: self.registry.counter(
                "dpod_eventloop_epoll_wait_nanoseconds_total",
                "Cumulative nanoseconds the loop shard spent blocked in epoll_wait",
                labels,
            ),
            epoll_wakes: self.registry.counter(
                "dpod_eventloop_epoll_wakes_total",
                "Times the loop shard returned from epoll_wait",
                labels,
            ),
            dispatch_bytes: self.registry.histogram(
                "dpod_eventloop_dispatch_unit_bytes",
                "Raw request bytes per unit dispatched to the worker pool",
                labels,
            ),
            backpressure_pauses: self.registry.counter(
                "dpod_eventloop_backpressure_pauses_total",
                "Times a connection's read side was paused for backpressure",
                labels,
            ),
            sweep_evictions: self.registry.counter(
                "dpod_eventloop_sweep_evictions_total",
                "Connections closed by the idle-timeout sweep",
                labels,
            ),
            pending_bytes: self.registry.gauge(
                "dpod_eventloop_pending_bytes",
                "Read-but-undispatched request bytes across the shard's connections",
                labels,
            ),
        }
    }

    /// Nanosecond stamp on the hub's monotonic clock (queue-wait
    /// accounting compares stamps across threads).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The stage histogram for `(transport, stage)`.
    #[inline]
    pub fn stage(&self, t: Transport, s: Stage) -> &Histogram {
        &self.stages[t as usize][s as usize]
    }

    /// Records one stage latency sample.
    #[inline]
    pub fn record_stage(&self, t: Transport, s: Stage, nanos: u64) {
        self.stages[t as usize][s as usize].record(nanos);
    }

    /// Counts one request by transport and kind index (see
    /// [`kind_index`] / [`KIND_UNDECODABLE`]).
    #[inline]
    pub(crate) fn count_request_index(&self, t: Transport, kind: usize) {
        self.requests[t as usize][kind].inc();
    }

    /// Counts one decoded request.
    #[inline]
    pub fn count_request(&self, t: Transport, req: &Request) {
        self.count_request_index(t, kind_index(req));
    }

    /// Marks which front end this server runs (an info-style gauge:
    /// value 1 on the active label).
    pub fn note_front_end(&self, front_end: &str) {
        self.registry
            .gauge(
                "dpod_serve_front_end_info",
                "Active serving front end (info gauge; 1 on the active label)",
                &[("front_end", front_end)],
            )
            .set(1);
    }

    /// Quantile summaries of every non-empty stage histogram, for the
    /// extended stats frame. Deterministic order: transport-major,
    /// stage-minor.
    pub fn stage_latencies(&self) -> Vec<StageLatency> {
        let mut out = Vec::new();
        for t in Transport::ALL {
            for s in Stage::ALL {
                let snap = self.stage(t, s).snapshot();
                if snap.count() == 0 {
                    continue;
                }
                out.push(StageLatency {
                    stage: s.label().to_string(),
                    transport: t.label().to_string(),
                    count: snap.count(),
                    p50_nanos: snap.quantile(0.5),
                    p90_nanos: snap.quantile(0.9),
                    p99_nanos: snap.quantile(0.99),
                    p999_nanos: snap.quantile(0.999),
                });
            }
        }
        out
    }

    /// Total requests counted across every transport and kind (the
    /// denominator `stats_line` rates are derived from).
    pub fn requests_counted(&self) -> u64 {
        self.requests.iter().flatten().map(|c| c.get()).sum()
    }

    /// Renders the hub's own registry in Prometheus text format.
    pub fn render_registry(&self) -> String {
        self.registry.render_prometheus()
    }
}

/// Renders the full exposition body for `server`: the hot-path registry
/// plus scrape-time gauges (engine, catalog, connections, per-release
/// hits, ε-budget accounting).
pub(crate) fn render_metrics(server: &Server) -> String {
    let mut out = server.metrics().render_registry();
    let engine = server.engine_stats();

    let mut gauge = |name: &str, help: &str, kind: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    gauge(
        "dpod_engine_cache_bytes",
        "Rebuild-cache resident bytes (plan indexes included)",
        "gauge",
        engine.bytes.to_string(),
    );
    gauge(
        "dpod_engine_cache_entries",
        "Rebuild-cache resident entries",
        "gauge",
        engine.entries.to_string(),
    );
    gauge(
        "dpod_engine_cache_hits_total",
        "Rebuild-cache hits",
        "counter",
        engine.hits.to_string(),
    );
    gauge(
        "dpod_engine_cache_misses_total",
        "Rebuild-cache misses",
        "counter",
        engine.misses.to_string(),
    );
    gauge(
        "dpod_engine_index_entries",
        "Resident releases with a built plan index",
        "gauge",
        engine.index_entries.to_string(),
    );
    gauge(
        "dpod_engine_index_hits_total",
        "Plan-index cache hits",
        "counter",
        engine.index_hits.to_string(),
    );
    gauge(
        "dpod_engine_index_misses_total",
        "Plan-index cache misses",
        "counter",
        engine.index_misses.to_string(),
    );
    gauge(
        "dpod_engine_index_build_nanoseconds_total",
        "Cumulative nanoseconds spent building plan-index structures",
        "counter",
        engine.index_build_nanos.to_string(),
    );
    gauge(
        "dpod_engine_rebuild_nanoseconds_total",
        "Cumulative nanoseconds spent rebuilding releases on cache misses",
        "counter",
        server.engine_rebuild_nanos().to_string(),
    );
    gauge(
        "dpod_server_queries_total",
        "Queries answered since start (one per legacy range or plan leaf)",
        "counter",
        server.queries_answered().to_string(),
    );
    gauge(
        "dpod_server_open_connections",
        "TCP connections currently open",
        "gauge",
        server.open_connections().to_string(),
    );
    gauge(
        "dpod_server_accepted_connections_total",
        "TCP connections accepted since start",
        "counter",
        server.accepted_connections().to_string(),
    );
    gauge(
        "dpod_catalog_releases",
        "Releases currently catalogued",
        "gauge",
        server.catalog().len().to_string(),
    );
    gauge(
        "dpod_epochs_published_total",
        "Epochs published through the server since start",
        "counter",
        server.epochs_published().to_string(),
    );
    gauge(
        "dpod_epochs_retired_total",
        "Epochs retired by retention since start",
        "counter",
        server.epochs_retired().to_string(),
    );
    gauge(
        "dpod_engine_partial_entries",
        "Memoized per-epoch window partials resident in the cache",
        "gauge",
        engine.partial_entries.to_string(),
    );
    gauge(
        "dpod_engine_partial_hits_total",
        "Window sub-plans answered from a memoized per-epoch partial",
        "counter",
        engine.partial_hits.to_string(),
    );
    gauge(
        "dpod_engine_partial_misses_total",
        "Window sub-plans executed against an epoch's index",
        "counter",
        engine.partial_misses.to_string(),
    );
    gauge(
        "dpod_engine_encoded_entries",
        "Memoized encoded responses resident in the cache",
        "gauge",
        engine.encoded_entries.to_string(),
    );
    gauge(
        "dpod_engine_encoded_hits_total",
        "Plan requests answered by memcpying memoized wire bytes",
        "counter",
        engine.encoded_hits.to_string(),
    );
    gauge(
        "dpod_engine_encoded_misses_total",
        "Plan requests executed and encoded before memoization",
        "counter",
        engine.encoded_misses.to_string(),
    );
    gauge(
        "dpod_engine_encoded_bytes",
        "Bytes the encoded-response memo holds in the shared cache ledger",
        "gauge",
        engine.encoded_bytes.to_string(),
    );
    gauge(
        "dpod_engine_pyramid_entries",
        "Memoized resolution-pyramid levels resident across plan indexes",
        "gauge",
        engine.pyramid_entries.to_string(),
    );
    gauge(
        "dpod_engine_pyramid_bytes",
        "Bytes the pyramid memo holds in the shared index budget",
        "gauge",
        engine.pyramid_bytes.to_string(),
    );
    gauge(
        "dpod_engine_pyramid_hits_total",
        "Drill-down plans answered from a memoized pyramid level",
        "counter",
        engine.pyramid_hits.to_string(),
    );
    gauge(
        "dpod_engine_pyramid_misses_total",
        "Drill-down plans that coarsened the leaf (level built or over budget)",
        "counter",
        engine.pyramid_misses.to_string(),
    );

    // Per-level pyramid traffic (warm hits only, so the rows sum to
    // dpod_engine_pyramid_hits_total).
    out.push_str(
        "# HELP dpod_engine_pyramid_level_hits_total Warm pyramid hits per level\n\
         # TYPE dpod_engine_pyramid_level_hits_total counter\n",
    );
    for (level, hits) in server.pyramid_level_hits() {
        out.push_str(&format!(
            "dpod_engine_pyramid_level_hits_total{{level=\"{level}\"}} {hits}\n"
        ));
    }

    // Per-release traffic.
    out.push_str("# HELP dpod_release_hits_total Queries answered per release\n");
    out.push_str("# TYPE dpod_release_hits_total counter\n");
    for row in server.release_hits() {
        out.push_str(&format!(
            "dpod_release_hits_total{{release=\"{}\"}} {}\n",
            escape(&row.name),
            row.hits
        ));
    }

    // ε-budget accounting: each catalogued release spent its ε out of
    // the catalog-wide total; run that arithmetic through the dp
    // crate's sequential-composition accountant so the exported totals
    // are the audited ones, not ad-hoc sums.
    let entries = server.catalog().entries();
    out.push_str("# HELP dpod_release_epsilon Privacy budget the release consumed\n");
    out.push_str("# TYPE dpod_release_epsilon gauge\n");
    let total: f64 = entries.iter().map(|e| e.release.epsilon).sum();
    let mut accountant = dpod_dp::Epsilon::new(total)
        .ok()
        .map(dpod_dp::BudgetAccountant::new);
    for e in &entries {
        out.push_str(&format!(
            "dpod_release_epsilon{{release=\"{}\"}} {}\n",
            escape(&e.name),
            e.release.epsilon
        ));
        if let Some(acc) = accountant.as_mut() {
            let _ = acc.spend(e.release.epsilon, &e.name);
        }
    }
    let snap = accountant
        .map(|a| a.snapshot())
        .unwrap_or(dpod_dp::BudgetSnapshot {
            total: 0.0,
            spent: 0.0,
            remaining: 0.0,
            entries: 0,
        });
    out.push_str(&format!(
        "# HELP dpod_epsilon_spent_total Catalog-wide privacy budget spent (sequential composition)\n# TYPE dpod_epsilon_spent_total gauge\ndpod_epsilon_spent_total {}\n",
        snap.spent
    ));
    out.push_str(&format!(
        "# HELP dpod_epsilon_ledger_entries Releases in the ε composition ledger\n# TYPE dpod_epsilon_ledger_entries gauge\ndpod_epsilon_ledger_entries {}\n",
        snap.entries
    ));

    // Epoch catalogs: per-series live-epoch counts, the per-epoch ε
    // series, and each series' active ε (the sum over its live epochs —
    // what retention refunds shrink). Rendered fresh from the catalog
    // per scrape, so directly-published epochs are counted too.
    out.push_str(
        "# HELP dpod_epoch_count Live epochs per release series\n# TYPE dpod_epoch_count gauge\n",
    );
    let series_list = crate::series::series_names(server.catalog());
    let mut epoch_eps = String::new();
    let mut series_active = String::new();
    for (series, _) in &series_list {
        let epochs = crate::series::series_epochs(server.catalog(), series);
        out.push_str(&format!(
            "dpod_epoch_count{{series=\"{}\"}} {}\n",
            escape(series),
            epochs.len()
        ));
        let mut active = 0.0;
        for info in &epochs {
            active += info.entry.release.epsilon;
            epoch_eps.push_str(&format!(
                "dpod_epoch_epsilon{{series=\"{}\",epoch=\"{}\"}} {}\n",
                escape(series),
                info.epoch,
                info.entry.release.epsilon
            ));
        }
        series_active.push_str(&format!(
            "dpod_series_epsilon_active{{series=\"{}\"}} {active}\n",
            escape(series)
        ));
    }
    out.push_str(
        "# HELP dpod_epoch_epsilon Privacy budget each live epoch consumed\n# TYPE dpod_epoch_epsilon gauge\n",
    );
    out.push_str(&epoch_eps);
    out.push_str(
        "# HELP dpod_series_epsilon_active Privacy budget active across a series' live epochs\n# TYPE dpod_series_epsilon_active gauge\n",
    );
    out.push_str(&series_active);
    out
}

/// Escapes a label value per the Prometheus exposition format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Handle to a running `/metrics` exporter; [`stop`](Self::stop) (or
/// drop) shuts the listener thread down.
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the exporter thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Hard ceiling on scrape request bytes: a well-formed `GET /metrics`
/// header block is a few hundred bytes, so 8 KiB is generous and keeps
/// an attacker from streaming an unbounded "request".
const SCRAPE_REQUEST_CAP: usize = 8 * 1024;

/// Wall-clock budget for reading one scrape request. Without a total
/// deadline, a slow-loris peer trickling one byte per read-timeout
/// window could hold a handler for minutes.
const SCRAPE_READ_DEADLINE: Duration = Duration::from_secs(2);

/// Binds `addr` and serves the Prometheus text exposition for `server`:
/// `GET /metrics` gets a `200 text/plain; version=0.0.4` body rendered
/// fresh per scrape (`dpod serve --metrics-addr` plumbs here). Other
/// paths get `404`, other methods (or oversized/timed-out requests)
/// `400`. Each connection is answered on its own short-lived thread
/// under a hard read deadline, so a slow-loris peer can stall only its
/// own handler — never the accept loop or other scrapers.
///
/// # Errors
/// IO errors from binding the listener.
pub fn spawn_metrics_exporter(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<MetricsExporter> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread_shutdown = Arc::clone(&shutdown);
    let join = std::thread::spawn(move || loop {
        if thread_shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // One detached thread per scrape: rare, tiny, and a
                // misbehaving peer must not wedge the accept loop.
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = serve_scrape(stream, &server);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    });
    Ok(MetricsExporter {
        addr: local,
        shutdown,
        join: Some(join),
    })
}

/// Outcome of reading and validating one scrape request.
enum ScrapeRequest {
    /// `GET /metrics` — serve the exposition.
    Metrics,
    /// Well-formed `GET` for some other path.
    NotFound,
    /// Anything else: non-GET, unparseable, oversized, or timed out.
    Bad,
}

/// Reads one HTTP request under [`SCRAPE_READ_DEADLINE`] /
/// [`SCRAPE_REQUEST_CAP`] and classifies it.
fn read_scrape_request(stream: &mut std::net::TcpStream) -> std::io::Result<ScrapeRequest> {
    let start = std::time::Instant::now();
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    let complete = loop {
        let Some(remaining) = SCRAPE_READ_DEADLINE.checked_sub(start.elapsed()) else {
            break false; // deadline exhausted mid-request
        };
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let n = match stream.read(&mut buf) {
            Ok(0) => break false, // EOF before the header terminator
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break false
            }
            Err(e) => return Err(e),
        };
        seen.extend_from_slice(&buf[..n]);
        if seen.len() > SCRAPE_REQUEST_CAP {
            break false;
        }
        if seen.windows(4).any(|w| w == b"\r\n\r\n") {
            break true;
        }
    };
    if !complete {
        return Ok(ScrapeRequest::Bad);
    }
    let Some(line_end) = seen.windows(2).position(|w| w == b"\r\n") else {
        return Ok(ScrapeRequest::Bad);
    };
    let Ok(line) = std::str::from_utf8(&seen[..line_end]) else {
        return Ok(ScrapeRequest::Bad);
    };
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => {
            // Tolerate a query string ("/metrics?x=1") like most exporters.
            if path == "/metrics" || path.starts_with("/metrics?") {
                Ok(ScrapeRequest::Metrics)
            } else {
                Ok(ScrapeRequest::NotFound)
            }
        }
        _ => Ok(ScrapeRequest::Bad),
    }
}

/// Answers one HTTP scrape: reads the request under a hard deadline and
/// byte cap, then writes the exposition body (or an error status),
/// closes.
fn serve_scrape(mut stream: std::net::TcpStream, server: &Server) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let (status, body) = match read_scrape_request(&mut stream)? {
        ScrapeRequest::Metrics => ("200 OK", render_metrics(server)),
        ScrapeRequest::NotFound => ("404 Not Found", "not found; try /metrics\n".to_string()),
        ScrapeRequest::Bad => ("400 Bad Request", "bad request\n".to_string()),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
