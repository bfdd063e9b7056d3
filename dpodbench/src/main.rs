//! The dpod benchmark: end-to-end and per-layer metrics of the curator
//! and serving stack over three seeded workloads.
//!
//! ```text
//! dpodbench --workload curator_publish|series_churn
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets up several times (reporting the median
//! set-up time), measures for `S` seconds and prints every end-to-end
//! metric. With `--trace 1` it sets up and measures twice, untraced and
//! then with spans kept, and prints every per-layer metric plus the
//! tracing overhead; the span dump and self-time rollup land in
//! `.bench_out/`. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod client;
mod common;
mod curator;
mod curator_publish;
mod plans;
mod series_churn;
mod stats;
mod trace;

use common::{Ctx, Outcome};
use dpod_serve::Stage;
use stats::median;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["curator_publish", "series_churn"];
/// Set-up repetitions of an untraced run (median reported).
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; valid: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(name: &str, ctx: &Ctx, tracer: &Arc<Tracer>, setups: usize) -> Result<Outcome, String> {
    match name {
        "curator_publish" => curator_publish::run(ctx, tracer, setups),
        _ => series_churn::run(ctx, tracer, setups),
    }
}

/// `(name, value, unit)` rows.
type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics of one outcome.
fn end_to_end(o: &Outcome, rss_mb: f64) -> Metrics {
    let p = &o.phases;
    vec![
        ("setup_s".into(), median(&o.setup_s), "s"),
        ("publish_s".into(), median(&o.publish_s), "s"),
        (
            "publish_to_first_answer_s".into(),
            median(&o.first_answer_s),
            "s",
        ),
        ("plans_per_s".into(), p.saturated.rate(), "1/s"),
        ("plan_p50_ms.low".into(), p.low.latency_ms(0.5), "ms"),
        ("plan_p50_ms.high".into(), p.high.latency_ms(0.5), "ms"),
        ("peak_rss_mb".into(), rss_mb, "MB"),
    ]
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer metrics read as the median duration of one span name:
/// `(metric, span, nanoseconds per unit, unit)`.
const SPAN_MEDIANS: [(&str, &str, f64, &str); 17] = [
    ("cli.csv.parse_ms", "cli.csv.parse", 1e6, "ms"),
    ("data.od.build_ms", "data.od.build", 1e6, "ms"),
    ("core.sanitize_ms", "core.sanitize", 1e6, "ms"),
    ("core.release.encode_ms", "core.release.encode", 1e6, "ms"),
    ("serve.catalog.save_ms", "serve.catalog.save", 1e6, "ms"),
    ("serve.catalog.load_ms", "serve.catalog.load", 1e6, "ms"),
    (
        "serve.engine.materialize_ms",
        "serve.engine.materialize",
        1e6,
        "ms",
    ),
    ("query.first_plan_ms", "query.first_plan", 1e6, "ms"),
    ("query.execute_us.range", "query.execute.range", 1e3, "us"),
    ("query.execute_us.od", "query.execute.od", 1e3, "us"),
    (
        "query.execute_us.marginal",
        "query.execute.marginal",
        1e3,
        "us",
    ),
    ("query.execute_us.topk", "query.execute.topk", 1e3, "us"),
    ("query.execute_us.total", "query.execute.total", 1e3, "us"),
    (
        "query.execute_us.drilldown",
        "query.execute.drilldown",
        1e3,
        "us",
    ),
    ("serve.handle_encoded_us", "serve.handle_encoded", 1e3, "us"),
    ("wire.encode_request_us", "wire.encode_request", 1e3, "us"),
    ("wire.decode_response_us", "wire.decode_response", 1e3, "us"),
];

/// The per-layer metrics of a traced outcome.
fn per_layer(o: &Outcome, spans: &[trace::SpanRec], overhead_pct: f64) -> Metrics {
    let roll = trace::rollup(spans);
    let mut m: Metrics = SPAN_MEDIANS
        .iter()
        .map(|&(metric, span, scale, unit)| {
            let v = roll.get(span).map_or(0.0, |r| r.median_ns() / scale);
            (metric.to_string(), v, unit)
        })
        .collect();
    let mut add = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    let c = &o.counts;
    add("data.trips", c.trips as f64, "count");
    add("core.partitions", c.partitions as f64, "count");
    add("core.release_bytes", c.release_bytes as f64, "bytes");
    add(
        "serve.catalog.bytes_written",
        c.bytes_written as f64,
        "bytes",
    );
    // The parse stage is left out: the event loop stamps 0 ns on every
    // frame that completes within the read that delivered it, so its
    // quantiles read 0 on every run (the report prints its mean).
    let stage = |s: Stage, q: f64| o.tally.stages[s as usize].quantile(q) as f64 / 1e3;
    add("serve.stage.queue_us.p50", stage(Stage::Queue, 0.5), "us");
    add(
        "serve.stage.execute_us.p50",
        stage(Stage::Execute, 0.5),
        "us",
    );
    add("serve.stage.encode_us.p50", stage(Stage::Encode, 0.5), "us");
    add("serve.stage.write_us.p50", stage(Stage::Write, 0.5), "us");
    add("serve.stage.queue_us.p99", stage(Stage::Queue, 0.99), "us");
    add(
        "serve.stage.execute_us.p99",
        stage(Stage::Execute, 0.99),
        "us",
    );
    let p = &o.phases;
    let phases = [&p.saturated, &p.low, &p.high];
    let answered: usize = phases.iter().map(|r| r.latencies.len()).sum();
    let bytes: u64 = phases.iter().map(|r| r.wire_bytes).sum();
    add(
        "wire.bytes_per_plan",
        bytes as f64 / answered.max(1) as f64,
        "bytes",
    );
    let e = &o.tally.engine;
    add(
        "engine.encoded_hit_ratio",
        ratio(e.encoded_hits, e.encoded_misses),
        "ratio",
    );
    add(
        "engine.index_hit_ratio",
        ratio(e.index_hits, e.index_misses),
        "ratio",
    );
    add(
        "engine.pyramid_hit_ratio",
        ratio(e.pyramid_hits, e.pyramid_misses),
        "ratio",
    );
    add("engine.matrix_hit_ratio", ratio(e.hits, e.misses), "ratio");
    add(
        "engine.partial_hit_ratio",
        ratio(e.partial_hits, e.partial_misses),
        "ratio",
    );
    add("engine.rebuilds", e.misses as f64, "count");
    add(
        "engine.index_build_ms",
        e.index_build_nanos as f64 / 1e6,
        "ms",
    );
    add("engine.bytes", e.bytes as f64, "bytes");
    let mut lag = p.low.send_lag.clone();
    lag.extend(&p.high.send_lag);
    lag.sort_unstable();
    add(
        "client.send_lag_ms.p99",
        stats::quantile_sorted(&lag, 0.99) / 1e6,
        "ms",
    );
    add("trace.overhead_pct", overhead_pct, "%");
    m
}

fn json_metrics(rows: &Metrics) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_rows(title: &str, rows: &Metrics) {
    println!("{title}");
    for (name, value, unit) in rows {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}

fn print_samples(o: &Outcome) {
    println!(
        "samples: setup n={}, publish n={}, first answer n={}",
        o.setup_s.len(),
        o.publish_s.len(),
        o.first_answer_s.len()
    );
    let p = &o.phases;
    for (label, r) in [
        ("saturated", &p.saturated),
        ("low", &p.low),
        ("high", &p.high),
    ] {
        let tail = if r.latencies.len() >= 10_000 {
            format!(", p99.9 {:.4} ms", r.latency_ms(0.999))
        } else {
            String::new()
        };
        println!(
            "phase {label:<9}: {} sent, {} answered, {} failed over {:.3} s ({:.1} plans/s overall, {:.1} lower decile of {} chunks); latency p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms{tail}; send lag p99 {:.4} ms",
            r.attempted,
            r.latencies.len(),
            r.failed,
            r.elapsed_s,
            r.overall_rate(),
            r.rate(),
            r.chunk_rates.len(),
            r.latency_ms(0.5),
            r.latency_ms(0.9),
            r.latency_ms(0.99),
            r.lag_ms(0.99)
        );
    }
    println!(
        "host steal time while serving: {:.1}% of CPU time",
        o.phases.steal_share() * 100.0
    );
    let parse = &o.tally.stages[0];
    println!(
        "server parse stage: {} samples, mean {:.4} us",
        parse.count(),
        parse.mean() / 1e3
    );
    for note in &o.notes {
        println!("{note}");
    }
}

/// The workload's headline metric and whether higher is better.
fn headline(workload: &str) -> (&'static str, bool) {
    if workload == "curator_publish" {
        ("publish_to_first_answer_s", false)
    } else {
        ("plans_per_s", true)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpodbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = common::nproc();
    assert!(
        client::CLIENT_THREADS.max(client::CONNECTIONS) <= cores,
        "{} client threads / {} connections exceed {cores} cores",
        client::CLIENT_THREADS,
        client::CONNECTIONS
    );
    let pinned = common::pin_to_one_core();
    let spinner = common::IdleSpinner::start();
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("dpodbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    println!(
        "dpodbench {} seed={} seconds={} trace={} cores={cores} pinned_to_cpu0={pinned} idle_spinner={} client_threads={} connections={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spinner.is_some(),
        client::CLIENT_THREADS,
        client::CONNECTIONS
    );
    let result = if args.trace {
        traced(&args, &ctx)
    } else {
        untraced(&args, &ctx)
    };
    drop(spinner);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok((attempted, failed, rows)) => println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            failed == 0,
            json_metrics(&rows)
        ),
        Err(e) => {
            eprintln!("dpodbench: {e}");
            std::process::exit(1);
        }
    }
}

fn untraced(args: &Args, ctx: &Ctx) -> Result<(u64, u64, Metrics), String> {
    let off = Tracer::new(false);
    let o = run(&args.workload, ctx, &off, SETUP_REPS)?;
    let rows = end_to_end(&o, common::peak_rss_mb());
    print_samples(&o);
    print_rows("end-to-end:", &rows);
    Ok((o.attempted, o.failed, rows))
}

fn traced(args: &Args, ctx: &Ctx) -> Result<(u64, u64, Metrics), String> {
    let off = Tracer::new(false);
    let plain = run(&args.workload, ctx, &off, 1)?;
    let plain_rows = end_to_end(&plain, common::peak_rss_mb());
    let on = Tracer::new(true);
    let o = run(&args.workload, ctx, &on, 1)?;
    let traced_rows = end_to_end(&o, common::peak_rss_mb());
    let spans = on.spans();

    println!("untraced vs traced (tracing overhead = traced - untraced):");
    for ((name, u, unit), (_, t, _)) in plain_rows.iter().zip(&traced_rows) {
        println!("  {name:<28} {u:>14.6} {t:>14.6} {:>+14.6} {unit}", t - u);
    }
    let (head, higher_better) = headline(&args.workload);
    let pick = |rows: &Metrics| rows.iter().find(|r| r.0 == head).map_or(0.0, |r| r.1);
    let (u, t) = (pick(&plain_rows), pick(&traced_rows));
    let overhead_pct = if higher_better {
        (u - t) / u * 100.0
    } else {
        (t - u) / u * 100.0
    };
    println!("tracing overhead on {head}: {overhead_pct:.3}%");

    // Self-time rollup of the blocking curator layers under each publish.
    let selfs = trace::self_times(&spans);
    let roots: HashMap<u64, &trace::SpanRec> = spans
        .iter()
        .filter(|s| s.name == "publish")
        .map(|s| (s.id, s))
        .collect();
    let mut by_layer: HashMap<&str, u64> = HashMap::new();
    for s in spans.iter().filter(|s| roots.contains_key(&s.parent)) {
        *by_layer.entry(s.name).or_default() += selfs[&s.id];
    }
    let root_total: u64 = roots.values().map(|s| s.end - s.start).sum();
    let layer_total: u64 = by_layer.values().sum();
    let mut layers: Vec<_> = by_layer.into_iter().collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.1));
    println!(
        "publish self times ({} publish spans, {:.6} s in total):",
        roots.len(),
        root_total as f64 / 1e9
    );
    for (name, ns) in &layers {
        println!(
            "  {name:<28} {:>12.6} s {:>7.2}%",
            *ns as f64 / 1e9,
            *ns as f64 / root_total.max(1) as f64 * 100.0
        );
    }
    println!(
        "  blocking layers sum to {:.6} s = {:.2}% of the publish spans (per publish {:.6} s vs publish_to_first_answer_s median {:.6} s)",
        layer_total as f64 / 1e9,
        layer_total as f64 / root_total.max(1) as f64 * 100.0,
        layer_total as f64 / 1e9 / roots.len().max(1) as f64,
        median(&o.first_answer_s)
    );
    let mut rollup: Vec<_> = trace::rollup(&spans).into_iter().collect();
    rollup.sort_by_key(|(_, r)| std::cmp::Reverse(r.self_ns));
    println!("self-time rollup (all spans):");
    for (name, r) in &rollup {
        println!(
            "  {name:<28} n={:<8} median {:>12.3} us  self {:>12.3} ms",
            r.count,
            r.median_ns() / 1e3,
            r.self_ns as f64 / 1e6
        );
    }
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let out_dir = PathBuf::from(".bench_out");
    trace::write_out(&out_dir, &stem, &spans)
        .map_err(|e| format!("cannot write the span dump: {e}"))?;
    println!(
        "span dump: {} ({} spans), rollup: {}",
        out_dir.join(format!("{stem}.spans.jsonl")).display(),
        spans.len(),
        out_dir.join(format!("{stem}.rollup.json")).display()
    );

    print_samples(&o);
    let rows = per_layer(&o, &spans, overhead_pct);
    print_rows("per-layer:", &rows);
    let attempted = plain.attempted + o.attempted;
    let failed = plain.failed + o.failed;
    Ok((attempted, failed, rows))
}
