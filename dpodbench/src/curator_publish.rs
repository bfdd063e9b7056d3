//! `curator_publish`: one curator in a closed loop. Each round reads a
//! seeded 200k-trip, 1-stop CSV, builds the 6-D O/D matrix at 16 cells
//! per axis (16.7M cells), sanitizes it with `daf-entropy` at ε = 0.5
//! under a per-round noise seed, saves the catalog, reloads it into a
//! fresh `Server` and answers one OD-with-stop plan over `DPRB`. The
//! last round's server then takes the three serving phases against
//! that one release, which alone outgrows the 256 MiB cache budget.

use crate::client;
use crate::common::{self, Ctx, Load, Outcome};
use crate::curator::{self, Spec};
use crate::plans::{self, AnalystMix, Target};
use crate::stats::Rng;
use crate::trace::{now_ns, Tracer};
use dpod_query::{QueryPlan, Region};
use dpod_serve::protocol::Request;
use dpod_serve::Catalog;
use std::sync::Arc;

/// Trips in the curator's CSV.
pub const TRIPS: usize = 200_000;
/// Intermediate stops per trip (6-D matrix).
pub const STOPS: usize = 1;
/// Grid cells per spatial axis.
pub const CELLS: usize = 16;
/// Sanitizer.
pub const MECHANISM: &str = "daf-entropy";
/// Privacy budget per round.
pub const EPSILON: f64 = 0.5;
/// Offered load of the serving phases: open-loop rates well under the
/// single connection's open-loop knee, and a saturated plan count that
/// takes about 30% of the serving budget on the one pinned core
/// (≈480k plans, ≈6.5 s, in a 40 s run).
pub const LOAD: Load = Load {
    rates: [5_000.0, 15_000.0],
    saturated_per_s: 22_000,
};
/// Share of the measurement budget the publish rounds get.
const ROUND_SHARE: f64 = 0.45;
/// Publish rounds every run makes, whatever the budget.
const MIN_ROUNDS: u64 = 3;
/// Analyst mix over the fresh release: no top-k, whose first call
/// sorts all 16.7M cells.
const WEIGHTS: [f64; 6] = [0.45, 0.20, 0.15, 0.0, 0.10, 0.10];
/// Catalog name of the round's release.
const NAME: &str = "trips";

/// One OD plan through the stop leg, seeded by the round.
fn od_plan(seed: u64, round: u64) -> QueryPlan {
    let mut rng = Rng::new(seed, 0x0D00 + round);
    let mut region = || {
        let (lo, hi) = plans::random_box(&[CELLS, CELLS], &mut rng);
        Region::new((lo[0], lo[1]), (hi[0], hi[1]))
    };
    QueryPlan::Od {
        origin: Some(region()),
        stops: vec![(0, region())],
        destination: Some(region()),
    }
}

/// Runs the workload with `setups` set-up repetitions.
///
/// # Errors
/// The first layer failure that stops the run.
pub fn run(ctx: &Ctx, tracer: &Arc<Tracer>, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = tracer.recorder();
    let csv = ctx.work.join("trips.csv");
    for _ in 0..setups {
        let t0 = now_ns();
        curator::write_trips(&csv, TRIPS, STOPS, ctx.derive(1))?;
        out.setup_s.push((now_ns() - t0) as f64 / 1e9);
    }

    let rounds_until = now_ns() + (ctx.seconds * ROUND_SHARE * 1e9) as u64;
    let mut live: Option<(Arc<dpod_serve::Server>, dpod_serve::ServerHandle)> = None;
    let mut reference = None;
    for round in 0.. {
        if round >= MIN_ROUNDS && now_ns() >= rounds_until {
            break;
        }
        // The previous round's server and rebuild go first, so each
        // round starts from the same memory state.
        if let Some((server, handle)) = live.take() {
            out.tally.add(&server);
            handle.stop();
        }
        drop(reference.take());
        let dir = ctx.work.join(format!("catalog-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = Spec {
            name: NAME.into(),
            cells: CELLS,
            mechanism: MECHANISM,
            epsilon: EPSILON,
            noise_seed: ctx.derive(100 + round),
        };
        let plan = od_plan(ctx.seed, round);

        let root = rec.open();
        let t0 = now_ns();
        let catalog = Catalog::new();
        let published = curator::publish(&mut rec, root, round, &csv, &spec, &catalog, &dir)?;
        let saved = now_ns();
        let loaded = curator::load(&mut rec, root, round, &dir)?;
        let (server, handle) = rec.time("serve.start", root, round, || {
            common::serve(Arc::new(loaded))
        })?;
        let req = Request::Plan {
            release: NAME.into(),
            plan: plan.clone(),
        };
        let answer = client::first_answer(handle.addr(), &req, &mut rec, root, round);
        let answered = now_ns();
        rec.close_at(root, "publish", t0, answered, 0, round);
        let check_ns = published.check_ns;
        out.publish_s.push((saved - t0 - check_ns) as f64 / 1e9);
        out.first_answer_s
            .push((answered - t0 - check_ns) as f64 / 1e9);

        // Untimed checks.
        out.op(published.counts_ok);
        let frames = std::slice::from_ref(&published);
        out.op(curator::reload_mismatches(server.catalog(), frames) == 0);
        let m = curator::materialize(&mut rec, 0, round, server.catalog(), NAME)?;
        let want = plans::reference(&m, &plan);
        let first = curator::first_plan(&mut rec, 0, round, &m, &plan);
        out.op(answer.is_ok_and(|a| plans::same(&a, &want))
            && first.is_ok_and(|a| plans::same(&a, &want)));
        if round == 0 {
            let text = std::fs::read_to_string(&csv).map_err(|e| e.to_string())?;
            let cli = dpod_cli::commands::sanitize_to_release(&text, &spec.sanitize_args())
                .map_err(|e| e.0)?;
            let entry = catalog
                .get(NAME)
                .ok_or("release missing from the catalog")?;
            out.op(cli == *entry.release && cli.to_bytes() == published.frame);
        }
        out.counts = common::Counts {
            trips: published.trips,
            partitions: published.partitions,
            release_bytes: published.frame.len() as u64,
            bytes_written: curator::dir_bytes(&dir),
        };
        live = Some((server, handle));
        reference = Some(m);
    }
    let (server, handle) = live.ok_or("no publish round ran")?;
    let m = reference.ok_or("no reference rebuild")?;
    out.notes.push(format!(
        "rounds: {} (CSV {TRIPS} trips, {STOPS} stop, {CELLS}^{} = {} cells, {MECHANISM} eps={EPSILON}); release {} B, {} partitions; engine holds {} B against a {} B budget",
        out.publish_s.len(),
        2 * (STOPS + 2),
        m.matrix().len(),
        out.counts.release_bytes,
        out.counts.partitions,
        server.engine_stats().bytes,
        dpod_serve::DEFAULT_CACHE_BYTES
    ));

    let mut rng = Rng::new(ctx.seed, 0xC0DE);
    let target = Target::new(NAME, &m, &mut rng, WEIGHTS);
    let pools = target.pools.clone();
    let warmup: Vec<(String, QueryPlan)> = pools
        .iter()
        .flatten()
        .map(|p| (NAME.to_string(), p.clone()))
        .collect();
    let budget = ctx.seconds * (1.0 - ROUND_SHARE);
    let stream = LOAD.plans(budget) as usize + common::PROBE_PLANS;
    let mix = AnalystMix::new(
        vec![target],
        std::slice::from_ref(&m),
        WEIGHTS,
        stream,
        ctx.derive(3),
    );
    common::warm(&server, warmup);
    out.phases = common::run_phases(handle.addr(), &mix, 0, LOAD, budget, tracer);
    let (attempted, failed) = out.phases.counts();
    out.attempted += attempted;
    out.failed += failed;
    if tracer.on() {
        let probe_pools = plans::pools(m.matrix().shape().dims(), &mut rng);
        common::probe(
            &mut rec,
            &m,
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
