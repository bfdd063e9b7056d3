//! The wire protocol: one request/response vocabulary, two encodings.
//!
//! The [`Request`]/[`Response`] types here are the whole analyst
//! surface; they drive the in-process
//! [`Server::handle`](crate::Server::handle) path directly, and both TCP
//! encodings are just serialization around it. The server answers every
//! request with exactly one response, in order, so a client can pipeline
//! an entire batch and read answers back positionally.
//!
//! ## The typed query algebra ([`Request::Plan`])
//!
//! Beyond the legacy bare range sums ([`Request::Query`] /
//! [`Request::Batch`]), a request can carry any [`QueryPlan`] from
//! `dpod-query`'s typed algebra — the one vocabulary every transport
//! shares:
//!
//! | plan | answer |
//! |------|--------|
//! | `Range { lo, hi }` | `Value` — estimated count in the box |
//! | `Od { origin, stops, destination }` | `Value` — OD query lowered through `dpod_query::od` |
//! | `Marginal { keep }` | `Marginal` — kept dims + row-major estimates |
//! | `TopK { k }` | `TopK` — k largest cells, descending, deterministic ties |
//! | `Total` | `Value` — full-domain estimate |
//! | `Many { plans }` | `Many` — sub-answers in order (plans do not nest) |
//! | `DrillDown { level, plan }` | inner plan's answer, routed to pyramid level `level` |
//!
//! The same plan executed in-process, over NDJSON, or over `DPRB`
//! produces bit-identical answers (a property test pins this). In-process
//! users who do not need a server can call
//! [`dpod_query::plan::execute`] directly.
//!
//! ## Encoding 1: newline-delimited JSON (the default)
//!
//! One JSON document per line:
//!
//! ```text
//! → {"Query":{"release":"city","lo":[0,0],"hi":[4,4]}}
//! ← {"Value":{"value":812.4375}}
//! → {"Plan":{"release":"city","plan":{"TopK":{"k":3}}}}
//! ← {"Answer":{"answer":{"TopK":{"dims":[8,8],"cells":[…]}}}}
//! → "List"
//! ← {"Releases":{"releases":[…]}}
//! ```
//!
//! ## Encoding 2: `DPRB` binary frames (see [`crate::wire`])
//!
//! A connection that opens with the 5-byte preamble `"DPRB" + version`
//! switches to length-prefixed binary frames for its lifetime:
//!
//! ```text
//! preamble:  "DPRB"  u8 version            (client → server, once)
//! frame:     u32 len | "DPRB" u8 version u8 opcode payload…
//! ```
//!
//! Batch requests pack their ranges as raw little-endian `u64`
//! coordinate arrays and batch answers return as raw `f64` bit-pattern
//! vectors, which is what lifts a single connection from ~10⁵ to >10⁶
//! queries/sec. Plans ride opcode `0x05` and answers opcode `0x85`,
//! with packed encodings for the hot variants: a marginal answer is a
//! raw `f64` vector, a top-k answer is packed flat-index/value pairs.
//! The full field-by-field layout is documented in [`crate::wire`].
//!
//! **Back-compat guarantee for legacy `Query`/`Batch` clients:** nothing
//! changes unless you opt in. The legacy JSON documents and the `DPRB`
//! opcodes `0x01`–`0x04` / `0x81`–`0x84` / `0xEF` are byte-for-byte what
//! they were before the plan algebra existed — `Plan`/`Answer` are *new*
//! enum variants and *new* opcodes (`0x05`/`0x85`), so existing clients'
//! requests and the server's responses to them are untouched. The server
//! sniffs the first four bytes of each connection; only an exact `DPRB`
//! preamble selects binary framing, and no JSON document can begin with
//! those bytes. To migrate, send the preamble once after connect, then
//! exchange frames (`dpod_serve::wire::Client` wraps this); both
//! encodings answer from the same catalog with bit-identical values, so
//! clients can switch per-connection at any time.

use dpod_query::{Answer, QueryPlan};
use serde::{Deserialize, Serialize};

/// One analyst request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// A single range sum over the named release.
    Query {
        /// Catalog name of the release.
        release: String,
        /// Inclusive lower corner (one entry per dimension).
        lo: Vec<usize>,
        /// Exclusive upper corner.
        hi: Vec<usize>,
    },
    /// Many range sums over the same release (amortizes name resolution).
    Batch {
        /// Catalog name of the release.
        release: String,
        /// `(lo, hi)` corner pairs, half-open.
        ranges: Vec<(Vec<usize>, Vec<usize>)>,
    },
    /// A typed [`QueryPlan`] against the named release — the full
    /// algebra (range, OD, marginal, top-k, total, `Many` batches).
    Plan {
        /// Catalog name of the release.
        release: String,
        /// The plan to execute.
        plan: QueryPlan,
    },
    /// Enumerate the catalog.
    List,
    /// Server and cache counters.
    Stats,
}

/// One server response (same order as requests).
// `Stats` is the outsized variant, but it is operator traffic (one
// request a scrape), while boxing it would cost an allocation on a
// protocol type every hot-path response also moves through.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Value {
        /// The estimated count.
        value: f64,
    },
    /// Answer to [`Request::Batch`], in request order.
    Values {
        /// The estimated counts.
        values: Vec<f64>,
    },
    /// Answer to [`Request::Plan`], variant-matched to the plan shape.
    Answer {
        /// The typed answer.
        answer: Answer,
    },
    /// Answer to [`Request::List`].
    Releases {
        /// Catalog contents, sorted by name.
        releases: Vec<ReleaseInfo>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Current counters.
        stats: ServerStats,
    },
    /// Any failure; the connection stays usable.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// Catalog metadata exposed to analysts (all post-processing safe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseInfo {
    /// Catalog name.
    pub name: String,
    /// Current version.
    pub version: u64,
    /// Producing mechanism.
    pub mechanism: String,
    /// Privacy budget the release consumed.
    pub epsilon: f64,
    /// Domain cardinalities.
    pub domain: Vec<usize>,
    /// Number of released values.
    pub released_values: usize,
}

/// Point-in-time server counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Catalogued releases.
    pub releases: usize,
    /// Queries answered since start: one per legacy range or plan leaf
    /// (`Answer::units`).
    pub queries: u64,
    /// Rebuild-cache residents.
    pub cache_entries: usize,
    /// Rebuild-cache resident bytes (estimate, plan indexes included —
    /// the two caches share one budget).
    pub cache_bytes: usize,
    /// Rebuild-cache hits.
    pub cache_hits: u64,
    /// Rebuild-cache misses.
    pub cache_misses: u64,
    /// Resident releases whose plan index ([`dpod_query::ReleaseIndex`])
    /// is built.
    pub index_entries: usize,
    /// Plan-index cache hits (aggregate plans answered warm).
    pub index_hits: u64,
    /// Plan-index cache misses (indexes constructed).
    pub index_misses: u64,
    /// Cumulative wall-clock nanoseconds spent building index
    /// structures (marginal tables, cell orders), evicted indexes
    /// included.
    pub index_build_nanos: u64,
    /// Matrix-cache hit rate in `[0, 1]` (`0.0` before any lookup) —
    /// precomputed so dashboards and the `dpod serve` stats line need
    /// no divide-by-zero care.
    pub cache_hit_rate: f64,
    /// Plan-index cache hit rate in `[0, 1]` (`0.0` before any lookup).
    pub index_hit_rate: f64,
    /// Connections the TCP front end currently holds open (`0` for
    /// purely in-process use). With the event-loop front end this
    /// counts every registered socket, idle analysts included; with the
    /// thread-pool front end it counts connections being served.
    pub open_connections: u64,
    /// Connections accepted into service since server start.
    pub accepted_connections: u64,
    /// Queries answered per release (hot-release telemetry), sorted by
    /// name. A name's counter lives as long as the release is served:
    /// removing a release through
    /// [`Server::remove_release`](crate::Server::remove_release) prunes
    /// its row (so long-lived servers with churning catalogs do not leak
    /// counters), and a later republish under the same name starts a
    /// fresh count. The map is additionally capped at
    /// [`MAX_RELEASE_HIT_ENTRIES`](crate::MAX_RELEASE_HIT_ENTRIES) —
    /// catalogs churned around [`Catalog::remove`](crate::Catalog::remove)
    /// directly shed their stalest rows instead of leaking
    /// (see [`ServerStats::evicted_stat_entries`]).
    pub release_hits: Vec<ReleaseHits>,
    /// Per-release hit-counter rows evicted to keep `release_hits`
    /// bounded (`0` on servers whose catalogs are removed through
    /// [`Server::remove_release`](crate::Server::remove_release)).
    pub evicted_stat_entries: u64,
    /// Per-stage request latency summaries (one row per non-empty
    /// `(transport, stage)` histogram; empty until TCP traffic flows).
    /// Sourced from the same histograms `/metrics` exposes, so the two
    /// surfaces agree.
    pub stage_latencies: Vec<StageLatency>,
    /// Release series in the catalog (epoch entries `name@T` group under
    /// `name`; a plain-named release is a one-epoch series — see
    /// `dpod_serve::series`). Equals `releases` on pre-epoch catalogs.
    pub series: usize,
    /// Memoized per-epoch window partials resident in the engine cache.
    pub partial_entries: usize,
    /// Window sub-plans answered from a memoized per-epoch partial.
    pub partial_hits: u64,
    /// Window sub-plans that had to execute against an epoch's index.
    pub partial_misses: u64,
    /// Memoized encoded responses (final wire bytes) resident in the
    /// engine cache, summed across releases and encodings.
    pub encoded_entries: usize,
    /// Plan requests answered by memcpying memoized wire bytes —
    /// execution *and* encoding skipped.
    pub encoded_hits: u64,
    /// Plan requests that executed and encoded before (re)populating
    /// the encoded-response memo.
    pub encoded_misses: u64,
    /// Bytes the encoded-response memo holds inside the shared cache
    /// ledger (already included in `cache_bytes`).
    pub encoded_bytes: usize,
    /// Memoized resolution-pyramid levels resident across plan indexes.
    pub pyramid_entries: usize,
    /// Drill-down plans answered from a memoized pyramid level.
    pub pyramid_hits: u64,
    /// Drill-down plans that had to coarsen the leaf (level built or
    /// answered uncached when over budget).
    pub pyramid_misses: u64,
    /// Bytes the pyramid memo holds inside the shared index budget
    /// (already included in `cache_bytes`).
    pub pyramid_bytes: usize,
}

/// Latency quantiles for one `(transport, stage)` pair, in nanoseconds.
///
/// Quantiles are upper bounds from log-bucketed histograms
/// (`dpod_obs`): within 1/16 above the true sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Request lifecycle stage (`parse`, `queue`, `execute`, `encode`,
    /// `write`).
    pub stage: String,
    /// Transport the requests arrived on (`json`, `binary`).
    pub transport: String,
    /// Samples recorded.
    pub count: u64,
    /// Median latency, nanoseconds.
    pub p50_nanos: u64,
    /// 90th-percentile latency, nanoseconds.
    pub p90_nanos: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_nanos: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_nanos: u64,
}

/// Lifetime query count against one release name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseHits {
    /// Catalog name the queries addressed.
    pub name: String,
    /// Queries answered against it since server start (one per
    /// legacy range or plan leaf).
    pub hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_as_json() {
        let reqs = vec![
            Request::Query {
                release: "city".into(),
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
            Request::Batch {
                release: "city".into(),
                ranges: vec![(vec![0], vec![1]), (vec![2], vec![5])],
            },
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Many {
                    plans: vec![
                        QueryPlan::Total,
                        QueryPlan::TopK { k: 3 },
                        QueryPlan::Marginal { keep: vec![0] },
                        dpod_query::QueryPlan::od()
                            .with_origin(dpod_query::Region::new((0, 0), (2, 2))),
                    ],
                },
            },
            Request::List,
            Request::Stats,
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).unwrap();
            assert!(!line.contains('\n'), "{line}");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn responses_round_trip_as_json() {
        let resps = vec![
            Response::Value { value: 12.5 },
            Response::Values {
                values: vec![1.0, -2.25],
            },
            Response::Answer {
                answer: Answer::Many {
                    answers: vec![
                        Answer::Value { value: 3.5 },
                        Answer::Marginal {
                            dims: vec![2],
                            values: vec![1.5, 2.0],
                        },
                        Answer::TopK {
                            dims: vec![2, 2],
                            cells: vec![dpod_query::TopCell {
                                coords: vec![1, 1],
                                value: 9.0,
                            }],
                        },
                    ],
                },
            },
            Response::Releases {
                releases: vec![ReleaseInfo {
                    name: "city".into(),
                    version: 3,
                    mechanism: "EBP".into(),
                    epsilon: 0.5,
                    domain: vec![8, 8],
                    released_values: 16,
                }],
            },
            Response::Stats {
                stats: ServerStats {
                    releases: 1,
                    queries: 42,
                    cache_entries: 1,
                    cache_bytes: 2048,
                    cache_hits: 41,
                    cache_misses: 1,
                    index_entries: 1,
                    index_hits: 7,
                    index_misses: 1,
                    index_build_nanos: 12_345,
                    cache_hit_rate: 41.0 / 42.0,
                    index_hit_rate: 7.0 / 8.0,
                    open_connections: 3,
                    accepted_connections: 17,
                    release_hits: vec![ReleaseHits {
                        name: "city".into(),
                        hits: 42,
                    }],
                    evicted_stat_entries: 2,
                    stage_latencies: vec![StageLatency {
                        stage: "execute".into(),
                        transport: "binary".into(),
                        count: 42,
                        p50_nanos: 1_000,
                        p90_nanos: 2_000,
                        p99_nanos: 4_000,
                        p999_nanos: 8_000,
                    }],
                    series: 1,
                    partial_entries: 2,
                    partial_hits: 5,
                    partial_misses: 3,
                    encoded_entries: 4,
                    encoded_hits: 9,
                    encoded_misses: 4,
                    encoded_bytes: 512,
                    pyramid_entries: 2,
                    pyramid_hits: 6,
                    pyramid_misses: 2,
                    pyramid_bytes: 1024,
                },
            },
            Response::Error {
                message: "unknown release".into(),
            },
        ];
        for r in resps {
            let line = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }
}
