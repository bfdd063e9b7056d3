//! `series_churn`: reads beside writes over a working set larger than
//! the cache. A curator thread advances an epoch series of 4-D, 16-cell
//! `daf-entropy` releases at a fixed rate (`Server::publish_epoch`, then
//! `apply_retention`), drawing them from a pool sanitized in set-up.
//! Open-loop analysts send `Window{LastK:3}` plans beside `Range` and
//! `Marginal` plans on `series@t`, with `t` drawn recency-skewed, and
//! the run reports how many of those reads rebuilt an old epoch.

use crate::common::{self, Ctx, Load, Outcome};
use crate::curator::{self, Spec};
use crate::plans::{self, Frontier, SeriesMix};
use crate::stats::Rng;
use crate::trace::{now_ns, Recorder, Tracer};
use dpod_core::{PublishedRelease, SanitizedMatrix};
use dpod_query::{EpochSelector, QueryPlan, WindowMerge};
use dpod_serve::{Catalog, Server, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Distinct releases the curator cycles through.
pub const POOL: usize = 6;
/// Trips per pool release's CSV.
pub const TRIPS: usize = 50_000;
/// Grid cells per spatial axis: 4-D, 16^4 = 65 536 cells, ≈1.05 MB
/// rebuilt. Small epochs make each rebuild a few milliseconds, so a run
/// sees hundreds of them and their share of the latency repeats.
pub const CELLS: usize = 16;
/// Sanitizer.
pub const MECHANISM: &str = "daf-entropy";
/// Privacy budget per epoch.
pub const EPSILON: f64 = 0.5;
/// Live epochs kept by retention: 768 × ≈1.05 MB ≈ 3× the 256 MiB
/// budget.
pub const RETAIN: usize = 768;
/// Epoch publishes per second: about 220 in a 40 s run, since the
/// curator publishes while the ≈37 s of serving phases run.
pub const PUBLISH_HZ: f64 = 6.0;
/// Per-epoch plans target ages `0..MAX_AGE` behind the frontier, well
/// inside the retention window so no target retires in flight.
pub const MAX_AGE: usize = 700;
/// Zipf exponent of the age draw (an assumption, not a measured
/// trace): it sends about 1.3% of per-epoch plans past the newest
/// [`WARM_EPOCHS`], and about 2% rebuild an epoch that was evicted or
/// never built. The run reports both shares.
pub const AGE_SKEW: f64 = 1.6;
/// Newest epochs set-up materializes: about what the cache budget
/// holds at ≈1.05 MB each.
const WARM_EPOCHS: u64 = 240;
/// Offered load: open-loop rates well under the connection's knee, and a
/// saturated plan count that takes about 30% of the serving budget on
/// the one pinned core (72k plans, ≈12 s, in a 40 s run).
pub const LOAD: Load = Load {
    rates: [400.0, 1_000.0],
    saturated_per_s: 1_800,
};
/// Series name.
const SERIES: &str = "trips";

/// Seed of the map from epoch to pool release.
fn slot_seed(ctx: &Ctx) -> u64 {
    ctx.derive(6)
}

struct State {
    server: Arc<Server>,
    handle: ServerHandle,
    pool: Vec<PublishedRelease>,
    matrices: Vec<Arc<SanitizedMatrix>>,
    frontier: Arc<Frontier>,
}

fn setup(ctx: &Ctx, rec: &mut Recorder, rep: u64, out: &mut Outcome) -> Result<State, String> {
    let t0 = now_ns();
    let dir = ctx.work.join(format!("series-pool-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::new();
    let mut published = Vec::new();
    for i in 0..POOL {
        let csv = ctx.work.join(format!("series-{i}.csv"));
        curator::write_trips(&csv, TRIPS, 0, ctx.derive(30 + i as u64))?;
        let spec = Spec {
            name: format!("pool-{i}"),
            cells: CELLS,
            mechanism: MECHANISM,
            epsilon: EPSILON,
            noise_seed: ctx.derive(40 + i as u64),
        };
        let root = rec.open();
        let p0 = now_ns();
        published.push(curator::publish(
            rec, root, rep, &csv, &spec, &catalog, &dir,
        )?);
        rec.close(root, "publish", p0, 0, rep);
    }
    let loaded = curator::load(rec, 0, rep, &dir)?;
    out.op(curator::reload_mismatches(&loaded, &published) == 0);
    let mut pool = Vec::new();
    let mut matrices = Vec::new();
    for p in &published {
        out.op(p.counts_ok);
        let m = curator::materialize(rec, 0, rep, &loaded, &p.name)?;
        let first = curator::first_plan(rec, 0, rep, &m, &QueryPlan::Total);
        out.op(first.is_ok_and(|a| plans::same(&a, &plans::reference(&m, &QueryPlan::Total))));
        pool.push(
            loaded
                .get(&p.name)
                .ok_or("pool release missing")?
                .release
                .as_ref()
                .clone(),
        );
        matrices.push(m);
    }
    out.counts = common::Counts {
        trips: published.iter().map(|p| p.trips).sum(),
        partitions: published.iter().map(|p| p.partitions).sum(),
        release_bytes: published.iter().map(|p| p.frame.len() as u64).sum(),
        bytes_written: curator::dir_bytes(&dir),
    };
    let (server, handle) = common::serve(Arc::new(Catalog::new()))?;
    for t in 1..=RETAIN as u64 {
        let release = pool[plans::epoch_slot(slot_seed(ctx), t, POOL)].clone();
        server.publish_epoch(SERIES, t, release).map_err(|e| e.0)?;
    }
    server.apply_retention(SERIES, RETAIN).map_err(|e| e.0)?;
    let frontier = Arc::new(Frontier::default());
    frontier.published.store(RETAIN as u64, Ordering::Release);
    frontier.announced.store(RETAIN as u64, Ordering::Release);
    // Warm the epochs the steady state keeps cached, oldest first so the
    // newest end up most recently used, then the newest window.
    let direct = (0..WARM_EPOCHS).rev().map(|age| {
        let release = dpod_serve::series::epoch_entry_name(SERIES, RETAIN as u64 - age);
        (release, QueryPlan::Marginal { keep: vec![0, 1] })
    });
    let window = QueryPlan::Window {
        select: EpochSelector::LastK { k: 3 },
        merge: WindowMerge::PerEpoch,
        plan: Box::new(QueryPlan::Total),
    };
    common::warm(&server, direct.chain([(SERIES.to_string(), window)]));
    out.setup_s.push((now_ns() - t0) as f64 / 1e9);
    Ok(State {
        server,
        handle,
        pool,
        matrices,
        frontier,
    })
}

/// One curator publish: epoch, start stamp, and the two call times.
struct EpochPublish {
    epoch: u64,
    start: u64,
    publish_ns: u64,
    retention_ns: u64,
}

/// Publishes epochs `first..` at [`PUBLISH_HZ`] until `stop` is set.
fn curator_loop(
    server: &Server,
    pool: &[PublishedRelease],
    slots: u64,
    frontier: &Frontier,
    first: u64,
    stop: &AtomicBool,
    tracer: &Arc<Tracer>,
) -> (Vec<EpochPublish>, u64) {
    let mut rec = tracer.recorder();
    let mut log = Vec::new();
    let mut failed = 0;
    let t0 = now_ns();
    let period = 1e9 / PUBLISH_HZ;
    for k in 0.. {
        let due = t0 + (k as f64 * period) as u64;
        while now_ns() < due {
            if stop.load(Ordering::Relaxed) {
                return (log, failed);
            }
            std::thread::sleep(Duration::from_nanos(
                (due - now_ns().min(due)).min(5_000_000),
            ));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let epoch = first + k;
        let release = pool[plans::epoch_slot(slots, epoch, pool.len())].clone();
        let root = rec.open();
        frontier.announced.store(epoch, Ordering::Release);
        let start = now_ns();
        let published = server.publish_epoch(SERIES, epoch, release);
        let mid = now_ns();
        let retired = server.apply_retention(SERIES, RETAIN);
        let end = now_ns();
        frontier.published.store(epoch, Ordering::Release);
        rec.leaf("serve.series.publish_epoch", start, mid, root, epoch);
        rec.leaf("serve.series.retention", mid, end, root, epoch);
        rec.close_at(root, "epoch_publish", start, end, 0, epoch);
        if published.is_err() || retired.is_err() {
            failed += 1;
        }
        log.push(EpochPublish {
            epoch,
            start,
            publish_ns: mid - start,
            retention_ns: end - mid,
        });
    }
    (log, failed)
}

/// Runs the workload with `setups` set-up repetitions.
///
/// # Errors
/// The first layer failure that stops the run.
pub fn run(ctx: &Ctx, tracer: &Arc<Tracer>, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = tracer.recorder();
    let mut state = None;
    for rep in 0..setups as u64 {
        if let Some(old) = state.take() {
            let State { handle, .. } = old;
            handle.stop();
        }
        state = Some(setup(ctx, &mut rec, rep, &mut out)?);
    }
    let State {
        server,
        handle,
        pool,
        matrices,
        frontier,
    } = state.ok_or("no set-up ran")?;
    let max_epochs = RETAIN + (PUBLISH_HZ * (ctx.seconds + 10.0) * 2.0) as usize;
    let mix = SeriesMix::new(
        SERIES,
        &matrices,
        slot_seed(ctx),
        Arc::clone(&frontier),
        (AGE_SKEW, MAX_AGE, WARM_EPOCHS as usize),
        max_epochs,
        ctx.derive(5),
    );
    let rebuilds_before = server.engine_stats().misses;
    let stop = AtomicBool::new(false);
    let (phases, (log, publish_failures)) = std::thread::scope(|s| {
        let curator = s.spawn(|| {
            let first = RETAIN as u64 + 1;
            curator_loop(
                &server,
                &pool,
                slot_seed(ctx),
                &frontier,
                first,
                &stop,
                tracer,
            )
        });
        let phases = common::run_phases(handle.addr(), &mix, 0, LOAD, ctx.seconds, tracer);
        stop.store(true, Ordering::Relaxed);
        (phases, curator.join().expect("curator thread panicked"))
    });
    let rebuilds = server.engine_stats().misses - rebuilds_before;
    out.phases = phases;
    let (attempted, failed) = out.phases.counts();
    out.attempted += attempted + log.len() as u64;
    out.failed += failed + publish_failures;

    let firsts = mix.first_answers();
    let mut publish_ms = Vec::new();
    for e in &log {
        out.publish_s
            .push((e.publish_ns + e.retention_ns) as f64 / 1e9);
        publish_ms.push((e.publish_ns + e.retention_ns) as f64 / 1e6);
        if let Some(&got) = firsts.get(e.epoch as usize) {
            if got != u64::MAX && got >= e.start {
                out.first_answer_s.push((got - e.start) as f64 / 1e9);
            }
        }
    }
    publish_ms.sort_by(f64::total_cmp);
    let q = |v: &[f64], p: f64| {
        v.get(((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1)) - 1)
            .copied()
            .unwrap_or(0.0)
    };
    let live_bytes = RETAIN as u64 * (matrices[0].matrix().len() as u64 * 16);
    out.notes.push(format!(
        "epochs: {} published at {PUBLISH_HZ}/s (epoch publish p50 {:.4} ms, p90 {:.4} ms), {} answered by a window; retention {RETAIN} live epochs ≈ {live_bytes} B materialized = {:.2}x the {} B budget; pool {POOL} releases, {} B of frames",
        log.len(),
        q(&publish_ms, 0.5),
        q(&publish_ms, 0.9),
        out.first_answer_s.len(),
        live_bytes as f64 / dpod_serve::DEFAULT_CACHE_BYTES as f64,
        dpod_serve::DEFAULT_CACHE_BYTES,
        out.counts.release_bytes,
    ));
    // Every epoch published during the run is built once when first
    // read; any other rebuild is of an older epoch that was evicted or
    // never built.
    let (direct, old) = mix.direct_counts();
    let new_epochs = mix.touched_after(RETAIN as u64);
    out.notes.push(format!(
        "per-epoch plans: {direct} sent, {old} ({:.2}%) aimed {WARM_EPOCHS}+ epochs behind the frontier; rebuilds while serving: {rebuilds} = {new_epochs} first builds of new epochs + {} of older epochs ({:.2}% of per-epoch plans)",
        old as f64 / direct.max(1) as f64 * 100.0,
        rebuilds.saturating_sub(new_epochs),
        rebuilds.saturating_sub(new_epochs) as f64 / direct.max(1) as f64 * 100.0
    ));
    if out.first_answer_s.is_empty() {
        out.failed += 1;
        out.notes
            .push("no window answer reflected a new epoch".into());
    }
    if tracer.on() {
        let mut rng = Rng::new(ctx.seed, 0x5E);
        let probe_pools = plans::pools(matrices[0].matrix().shape().dims(), &mut rng);
        common::probe(
            &mut rec,
            &matrices[0],
            &probe_pools,
            &server,
            &mix,
            out.phases.saturated.next_index,
        );
    }
    out.tally.add(&server);
    handle.stop();
    Ok(out)
}
