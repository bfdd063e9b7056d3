//! End-to-end observability tests: traffic through a live front end
//! shows up in the `/metrics` exposition, the extended stats frame, and
//! agrees across the two surfaces.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{
    spawn_metrics_exporter, spawn_with, wire, Catalog, FrontEnd, Server, SpawnOptions,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn test_server() -> Arc<Server> {
    let catalog = Arc::new(Catalog::new());
    let shape = Shape::new(vec![8, 8]).unwrap();
    let mut m = DenseMatrix::<u64>::zeros(shape);
    m.add_at(&[2, 2], 500).unwrap();
    let out = Ebp::default()
        .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(7))
        .unwrap();
    catalog.publish("city", PublishedRelease::from_sanitized(&out));
    Arc::new(Server::new(catalog, 1 << 22))
}

/// One plain-HTTP scrape of the exporter.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "bad content type: {head}"
    );
    body.to_string()
}

/// The `dpod_engine_rebuild_nanoseconds_total` sample of a scrape.
fn rebuild_nanos(body: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix("dpod_engine_rebuild_nanoseconds_total "))
        .and_then(|v| v.parse().ok())
        .expect("rebuild counter present")
}

fn drive_traffic(addr: std::net::SocketAddr) {
    // A few NDJSON requests…
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..3 {
        let mut line = serde_json::to_string(&Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![4, 4],
        })
        .unwrap();
        line.push('\n');
        (&stream).write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        assert!(matches!(
            serde_json::from_str::<Response>(answer.trim()).unwrap(),
            Response::Value { .. }
        ));
    }
    drop(reader);
    // …and a few DPRB frames.
    let mut client = wire::Client::connect(addr).unwrap();
    for _ in 0..3 {
        client
            .send(&Request::Batch {
                release: "city".into(),
                ranges: vec![(vec![0, 0], vec![4, 4]), (vec![0, 0], vec![8, 8])],
            })
            .unwrap();
        assert!(matches!(client.receive().unwrap(), Response::Values { .. }));
    }
}

fn assert_key_series(body: &str, front_end: FrontEnd) {
    // Per-stage latency histograms, with samples recorded.
    assert!(
        body.contains(
            "dpod_request_stage_nanoseconds_count{transport=\"binary\",stage=\"execute\"}"
        ),
        "missing binary execute-stage series"
    );
    assert!(
        body.contains("dpod_request_stage_nanoseconds_count{transport=\"json\",stage=\"execute\"}"),
        "missing json execute-stage series"
    );
    assert!(body.contains("quantile=\"0.99\""), "missing p99 quantiles");
    // Request mix.
    assert!(body.contains("dpod_requests_total{transport=\"json\",kind=\"query\"} 3"));
    assert!(body.contains("dpod_requests_total{transport=\"binary\",kind=\"batch\"} 3"));
    // Event-loop health gauges exist either way (shard 0's series are
    // pre-registered); on the event front end the shards must actually
    // have woken. Since the loop was sharded the series carry a
    // `shard` label — sum across them.
    assert!(body.contains("dpod_eventloop_epoll_wakes_total{shard=\"0\"}"));
    if front_end == FrontEnd::Event {
        let wakes: u64 = body
            .lines()
            .filter_map(|l| l.strip_prefix("dpod_eventloop_epoll_wakes_total{shard=\""))
            .filter_map(|rest| {
                rest.split_once("\"} ")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
            })
            .sum();
        assert!(wakes > 0, "event-loop shards should have woken");
    }
    assert!(body.contains("dpod_eventloop_pending_bytes{shard=\"0\"}"));
    // ε-budget accounting.
    assert!(body.contains("dpod_release_epsilon{release=\"city\"} 0.5"));
    assert!(body.contains("dpod_epsilon_spent_total 0.5"));
    assert!(body.contains("dpod_epsilon_ledger_entries 1"));
    // Engine + catalog scrape-time gauges.
    assert!(body.contains("dpod_catalog_releases 1"));
    assert!(body.contains("dpod_release_hits_total{release=\"city\"}"));
    // Front-end info gauge.
    let label = match front_end {
        FrontEnd::Event => "event",
        FrontEnd::Pool => "pool",
    };
    assert!(
        body.contains(&format!(
            "dpod_serve_front_end_info{{front_end=\"{label}\"}} 1"
        )),
        "missing front-end info gauge for {label}"
    );
}

fn exposition_covers_served_traffic(front_end: FrontEnd) {
    let server = test_server();
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 2,
            front_end: Some(front_end),
            ..SpawnOptions::default()
        },
    )
    .unwrap();
    assert_eq!(handle.front_end(), front_end);
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    // The cold-rebuild counter starts at zero, rises with the first
    // (cold) plan, and stays put while the warm traffic below is served.
    assert_eq!(rebuild_nanos(&scrape(exporter.addr())), 0);
    let mut client = wire::Client::connect(handle.addr()).unwrap();
    client
        .send(&Request::Plan {
            release: "city".into(),
            plan: dpod_query::QueryPlan::Total,
        })
        .unwrap();
    assert!(matches!(client.receive().unwrap(), Response::Answer { .. }));
    let cold = rebuild_nanos(&scrape(exporter.addr()));
    assert!(cold > 0, "a cold plan must be timed as a rebuild");

    drive_traffic(handle.addr());
    let body = scrape(exporter.addr());
    assert_key_series(&body, front_end);
    assert_eq!(rebuild_nanos(&body), cold, "warm traffic rebuilds nothing");

    // The stats frame reports the same stage histograms.
    let mut client = wire::Client::connect(handle.addr()).unwrap();
    client.send(&Request::Stats).unwrap();
    let Response::Stats { stats } = client.receive().unwrap() else {
        panic!("expected stats");
    };
    let execute_rows: Vec<_> = stats
        .stage_latencies
        .iter()
        .filter(|row| row.stage == "execute")
        .collect();
    assert!(
        execute_rows
            .iter()
            .any(|r| r.transport == "json" && r.count >= 3),
        "stats frame missing json execute-stage quantiles: {:?}",
        stats.stage_latencies
    );
    assert!(
        execute_rows
            .iter()
            .any(|r| r.transport == "binary" && r.count >= 3),
        "stats frame missing binary execute-stage quantiles: {:?}",
        stats.stage_latencies
    );
    for row in &stats.stage_latencies {
        assert!(row.p50_nanos <= row.p90_nanos);
        assert!(row.p90_nanos <= row.p99_nanos);
        assert!(row.p99_nanos <= row.p999_nanos);
    }

    exporter.stop();
    handle.stop();
}

#[test]
fn metrics_exposition_event_front_end() {
    exposition_covers_served_traffic(FrontEnd::Event);
}

#[test]
fn metrics_exposition_pool_front_end() {
    exposition_covers_served_traffic(FrontEnd::Pool);
}

/// The epoch catalog's whole lifecycle is visible on `/metrics`: live
/// epoch counts, the per-epoch ε series, per-series active ε (shrunk by
/// retention refunds), publish/retire counters, and the window-partial
/// cache counters.
#[test]
fn epoch_gauges_cover_the_series_lifecycle() {
    use dpod_query::{EpochSelector, QueryPlan, WindowMerge};

    let fresh = |seed: u64| {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[2, 2], 500).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    };
    // The pre-epoch "city" release plays epoch 0 of its series.
    let server = test_server();
    server.publish_epoch("city", 1, fresh(11)).unwrap();
    server.publish_epoch("city", 2, fresh(12)).unwrap();
    assert_eq!(server.apply_retention("city", 2).unwrap(), vec![0]);

    // A window query warms the per-epoch partial cache.
    let answer = server.handle(&Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Window {
            select: EpochSelector::LastK { k: 2 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        },
    });
    assert!(matches!(answer, Response::Answer { .. }), "{answer:?}");

    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let body = scrape(exporter.addr());
    assert!(
        body.contains("dpod_epoch_count{series=\"city\"} 2"),
        "{body}"
    );
    assert!(body.contains("dpod_epoch_epsilon{series=\"city\",epoch=\"1\"} 0.5"));
    assert!(body.contains("dpod_epoch_epsilon{series=\"city\",epoch=\"2\"} 0.5"));
    assert!(
        !body.contains("epoch=\"0\""),
        "retired epoch 0 must drop out of the exposition"
    );
    assert!(body.contains("dpod_series_epsilon_active{series=\"city\"} 1"));
    assert!(body.contains("dpod_epochs_published_total 2"));
    assert!(body.contains("dpod_epochs_retired_total 1"));
    assert!(body.contains("dpod_engine_partial_entries 2"));
    assert!(body.contains("dpod_engine_partial_misses_total 2"));
    exporter.stop();
}

/// The pyramid memo's whole surface is visible on `/metrics`: the four
/// aggregate gauges and the per-level hit-counter rows, agreeing with
/// the stats frame's pyramid tail.
#[test]
fn pyramid_gauges_cover_drill_down_traffic() {
    use dpod_query::QueryPlan;

    let server = test_server();
    let drill = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
        },
    };
    // First execution builds level 2 (miss); the repeat answers warm
    // from the memoized level (hit). A second level adds an entry.
    for _ in 0..2 {
        let answer = server.handle(&drill);
        assert!(matches!(answer, Response::Answer { .. }), "{answer:?}");
    }
    let total = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::DrillDown {
            level: 1,
            plan: Box::new(QueryPlan::Total),
        },
    };
    assert!(matches!(server.handle(&total), Response::Answer { .. }));

    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let body = scrape(exporter.addr());
    assert!(body.contains("dpod_engine_pyramid_entries 2"), "{body}");
    assert!(body.contains("dpod_engine_pyramid_hits_total 1"), "{body}");
    assert!(
        body.contains("dpod_engine_pyramid_misses_total 2"),
        "{body}"
    );
    assert!(
        body.contains("dpod_engine_pyramid_level_hits_total{level=\"2\"} 1"),
        "{body}"
    );
    let bytes: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("dpod_engine_pyramid_bytes "))
        .and_then(|v| v.parse().ok())
        .expect("pyramid bytes gauge present");
    assert!(bytes > 0);

    // The stats frame's pyramid tail reports the same counters.
    let Response::Stats { stats } = server.handle(&Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(stats.pyramid_entries, 2);
    assert_eq!((stats.pyramid_hits, stats.pyramid_misses), (1, 2));
    assert_eq!(stats.pyramid_bytes, bytes);
    exporter.stop();
}

/// A second scrape on a fresh connection must work (the exporter serves
/// one request per connection, `Connection: close`).
#[test]
fn exporter_serves_repeated_scrapes() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let a = scrape(exporter.addr());
    let b = scrape(exporter.addr());
    assert!(a.contains("dpod_catalog_releases 1"));
    assert!(b.contains("dpod_catalog_releases 1"));
    exporter.stop();
}

/// Reads as much of the HTTP response as the peer delivers and returns
/// its status line. Tolerates a mid-stream reset: a handler that
/// answers and closes while our unread request bytes are still in
/// flight makes the kernel RST the tail, after the status line already
/// arrived.
fn status_of(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&raw)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Regression: the exporter used to block forever on a peer that
/// connects and sends nothing (or trickles bytes) — one slow-loris
/// connection wedged `/metrics` for every scraper. Now each connection
/// gets its own handler under a hard read deadline, so a healthy scrape
/// succeeds *while* the loris holds its connection open, and the loris
/// itself is answered 400 once the deadline lapses.
#[test]
fn slow_loris_does_not_wedge_the_exporter() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    // Open and stall: no bytes at all, and a second that trickles an
    // incomplete header and stops.
    let silent = TcpStream::connect(exporter.addr()).unwrap();
    let mut trickler = TcpStream::connect(exporter.addr()).unwrap();
    trickler.write_all(b"GET /metr").unwrap();

    // A healthy scrape right behind them must not wait on either.
    let start = std::time::Instant::now();
    let body = scrape(exporter.addr());
    assert!(body.contains("dpod_catalog_releases 1"));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "scrape stalled behind a slow-loris connection: {:?}",
        start.elapsed()
    );

    // The stalled connections are answered 400 (not held forever).
    assert!(status_of(silent).contains("400"), "silent peer gets 400");
    assert!(status_of(trickler.try_clone().unwrap()).contains("400"));
    exporter.stop();
}

/// Non-`GET /metrics` requests get proper error statuses instead of the
/// exposition body (or a hang): unknown path → 404, non-GET → 400,
/// oversized request → 400.
#[test]
fn exporter_rejects_non_scrape_requests() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let mut wrong_path = TcpStream::connect(exporter.addr()).unwrap();
    wrong_path
        .write_all(b"GET /debug/pprof HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert!(status_of(wrong_path).contains("404 Not Found"));

    let mut post = TcpStream::connect(exporter.addr()).unwrap();
    post.write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    assert!(status_of(post).contains("400 Bad Request"));

    // An unbounded "request" is cut off at the byte cap, not buffered
    // forever.
    let mut oversized = TcpStream::connect(exporter.addr()).unwrap();
    let filler = vec![b'a'; 64 * 1024];
    let _ = oversized.write_all(b"GET /metrics HTTP/1.1\r\n");
    let _ = oversized.write_all(&filler); // no terminator, way past the cap
    assert!(status_of(oversized).contains("400 Bad Request"));

    // A query string still counts as /metrics.
    let mut with_query = TcpStream::connect(exporter.addr()).unwrap();
    with_query
        .write_all(b"GET /metrics?debug=1 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert!(status_of(with_query).contains("200 OK"));
    exporter.stop();
}
