//! What every workload shares: the in-process server, the three
//! serving phases, the server-side tallies, the traced per-layer probe,
//! and the run context.

use crate::client::{self, Mix, PhaseResult};
use crate::trace::{Recorder, Tracer};
use dpod_core::SanitizedMatrix;
use dpod_obs::HistogramSnapshot;
use dpod_query::{QueryPlan, ReleaseIndex};
use dpod_serve::{
    Catalog, EngineStats, FrontEnd, ResponseEncoding, Server, ServerHandle, SpawnOptions, Stage,
    Transport,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input and noise seed derives from it.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Scratch directory for CSVs and catalogs (inside the checkout).
    pub work: PathBuf,
}

impl Ctx {
    /// An explicit, seed-derived seed for `purpose` (data or noise).
    pub fn derive(&self, purpose: u64) -> u64 {
        crate::stats::Rng::new(self.seed, purpose).next_u64() | 1
    }
}

/// Cores on this host, read once before [`pin_to_one_core`] narrows
/// the process's CPU set; also the server's worker count.
pub fn nproc() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Restricts this process to CPU 0 and returns whether that worked.
/// Call it before any thread starts: threads inherit the mask.
///
/// The server still runs `nproc` workers and the client its two
/// threads; they just share one core. On a shared 2-vCPU VM, keeping
/// both vCPUs busy drew 15–35% steal time, and the serving path's
/// thread handoffs then waited on preempted vCPUs: the same run's
/// throughput and latency swung 3–20x. On one vCPU steal stayed under
/// 3% and the figures repeat. The cost is that a gain from running on
/// more cores cannot show here.
pub fn pin_to_one_core() -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1;
    // SAFETY: `mask` is a valid 8-byte CPU set for the whole call; pid 0
    // is the calling thread, and the kernel copies the set before
    // returning.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// A `SCHED_IDLE` thread that spins on the pinned core whenever nothing
/// else is runnable, so the core never halts. A halted vCPU gives its
/// physical CPU back to the host, and when a timer or a request then
/// wakes it, it waits for the host to schedule it again. With plans
/// arriving a millisecond or more apart, as in `series_churn`'s open
/// loop, every plan paid that wait: the host reported 1–10% steal, and
/// the median plan latency doubled with it from run to run. Any other
/// thread that becomes runnable preempts the spinner at once.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl IdleSpinner {
    /// Starts the spinner on the calling thread's CPU set. Returns
    /// `None`, with no thread left running, when the kernel refuses the
    /// `SCHED_IDLE` policy: a spinner at normal priority would take
    /// half the core from the server.
    pub fn start() -> Option<Self> {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let priority: i32 = 0;
            // SAFETY: `priority` is a valid `struct sched_param` (one
            // int) for the whole call; pid 0 is the calling thread.
            let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
            let _ = tx.send(idle);
            if idle {
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        if rx.recv().unwrap_or(false) {
            Some(IdleSpinner {
                stop,
                thread: Some(thread),
            })
        } else {
            let _ = thread.join();
            None
        }
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Serves `catalog` in-process over the default event front end with one
/// event loop and `nproc` workers, on an ephemeral loopback port.
///
/// # Errors
/// Bind failures, as text.
pub fn serve(catalog: Arc<Catalog>) -> Result<(Arc<Server>, ServerHandle), String> {
    let server = Arc::new(Server::new(catalog, dpod_serve::DEFAULT_CACHE_BYTES));
    let opts = SpawnOptions {
        workers: nproc(),
        front_end: Some(FrontEnd::Event),
        event_loops: 1,
        ..SpawnOptions::default()
    };
    let handle = dpod_serve::spawn_with(Arc::clone(&server), "127.0.0.1:0", opts)
        .map_err(|e| e.to_string())?;
    Ok((server, handle))
}

/// Warms `server` in-process (no stage histograms move): every pool
/// plan of every target once, so the timed phases start from a warm
/// matrix, index and encoded-answer memo.
pub fn warm(server: &Server, plans: impl IntoIterator<Item = (String, QueryPlan)>) {
    for (release, plan) in plans {
        let req = dpod_serve::protocol::Request::Plan { release, plan };
        server.handle_encoded(&req, ResponseEncoding::Binary);
    }
}

/// Server-side counters summed over every server a run started.
#[derive(Debug, Clone)]
pub struct ServerTally {
    /// Binary-transport stage histograms, [`Stage::ALL`] order.
    pub stages: [HistogramSnapshot; 5],
    /// Engine counters, summed (`bytes` is the last server's).
    pub engine: EngineStats,
}

impl Default for ServerTally {
    fn default() -> Self {
        ServerTally {
            stages: std::array::from_fn(|_| HistogramSnapshot::empty()),
            engine: EngineStats {
                entries: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                index_entries: 0,
                index_hits: 0,
                index_misses: 0,
                partial_entries: 0,
                partial_hits: 0,
                partial_misses: 0,
                encoded_entries: 0,
                encoded_hits: 0,
                encoded_misses: 0,
                encoded_bytes: 0,
                index_build_nanos: 0,
                pyramid_entries: 0,
                pyramid_bytes: 0,
                pyramid_hits: 0,
                pyramid_misses: 0,
            },
        }
    }
}

impl ServerTally {
    /// Folds in a server's lifetime counters (call before dropping it).
    pub fn add(&mut self, server: &Server) {
        for (acc, stage) in self.stages.iter_mut().zip(Stage::ALL) {
            acc.merge(&server.metrics().stage(Transport::Binary, stage).snapshot());
        }
        let s = server.engine_stats();
        let e = &mut self.engine;
        e.bytes = s.bytes;
        e.hits += s.hits;
        e.misses += s.misses;
        e.index_hits += s.index_hits;
        e.index_misses += s.index_misses;
        e.partial_hits += s.partial_hits;
        e.partial_misses += s.partial_misses;
        e.encoded_hits += s.encoded_hits;
        e.encoded_misses += s.encoded_misses;
        e.pyramid_hits += s.pyramid_hits;
        e.pyramid_misses += s.pyramid_misses;
        e.index_build_nanos += s.index_build_nanos;
    }
}

/// The three serving phases of one run.
#[derive(Debug, Default)]
pub struct Phases {
    /// Closed loop, [`client::IN_FLIGHT`] plans in flight.
    pub saturated: PhaseResult,
    /// Open loop at the workload's low rate.
    pub low: PhaseResult,
    /// Open loop at the workload's high rate.
    pub high: PhaseResult,
    /// `(steal, total)` CPU jiffies when the phases started.
    pub steal_before: (u64, u64),
    /// `(steal, total)` CPU jiffies when they ended.
    pub steal_after: (u64, u64),
}

impl Phases {
    /// Plans sent and failed across the phases.
    pub fn counts(&self) -> (u64, u64) {
        let all = [&self.saturated, &self.low, &self.high];
        (
            all.iter().map(|p| p.attempted).sum(),
            all.iter().map(|p| p.failed).sum(),
        )
    }

    /// Share of CPU time the hypervisor stole while the phases ran.
    pub fn steal_share(&self) -> f64 {
        let total = self.steal_after.1.saturating_sub(self.steal_before.1);
        self.steal_after.0.saturating_sub(self.steal_before.0) as f64 / total.max(1) as f64
    }
}

/// Rounds the serving budget is cut into; each round runs the three
/// phases once, and every metric aggregates all rounds' windows or
/// chunks. The host switches between a fast and a slow speed for
/// seconds at a time, so many short rounds let each phase sample both.
pub const ROUNDS: u64 = 8;
/// Share of the serving budget the open-loop phases get (low, high);
/// the saturated phase sends a plan count sized to take about the
/// remaining 30% on the one pinned core.
const PHASE_SHARES: [f64; 2] = [0.35, 0.35];

/// Offered load of one workload's serving phases.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Open-loop rates, plans/s (low, high).
    pub rates: [f64; 2],
    /// Plans the saturated phase sends, over all rounds, per second of
    /// serving budget: a fixed count for a given `--seconds`.
    pub saturated_per_s: u64,
}

impl Load {
    /// Duration of one round's open-loop phase `k`.
    fn open_duration(&self, budget_s: f64, k: usize) -> Duration {
        Duration::from_secs_f64(budget_s * PHASE_SHARES[k] / ROUNDS as f64)
    }

    /// Plans the three phases send in a `budget_s` run.
    pub fn plans(&self, budget_s: f64) -> u64 {
        let open: f64 = (0..2)
            .map(|k| (self.rates[k] * self.open_duration(budget_s, k).as_secs_f64()).round())
            .sum();
        open as u64 * ROUNDS + self.saturated_plans(budget_s)
    }

    /// Plans the saturated phase sends in a `budget_s` run.
    fn saturated_plans(&self, budget_s: f64) -> u64 {
        (self.saturated_per_s as f64 * budget_s) as u64
    }
}

/// Runs [`ROUNDS`] rounds of the two open-loop phases and then the
/// saturated phase, with stream indices continuing from `start`. Every
/// phase sends a fixed number of plans, so whatever the server's memos
/// have grown to when each phase starts is the same from run to run.
pub fn run_phases(
    addr: std::net::SocketAddr,
    mix: &dyn Mix,
    start: u64,
    load: Load,
    budget_s: f64,
    tracer: &Arc<Tracer>,
) -> Phases {
    let mut phases = Phases {
        steal_before: cpu_jiffies(),
        ..Phases::default()
    };
    let mut next = start;
    for _ in 0..ROUNDS {
        for (k, phase) in [&mut phases.low, &mut phases.high].into_iter().enumerate() {
            let r = client::open_loop(
                addr,
                mix,
                next,
                load.rates[k],
                load.open_duration(budget_s, k),
                tracer,
            );
            next = r.next_index;
            phase.merge(r);
        }
        // Capped at three times its share, so a slow host still ends in time.
        let cap = Duration::from_secs_f64(budget_s * 0.9 / ROUNDS as f64);
        let r = client::saturated(
            addr,
            mix,
            next,
            load.saturated_plans(budget_s) / ROUNDS,
            cap,
            tracer,
        );
        next = r.next_index;
        phases.saturated.merge(r);
    }
    // The generator must keep its schedule over the whole phase.
    for phase in [&mut phases.low, &mut phases.high] {
        if phase.lag_ms(0.99) > client::MAX_SEND_LAG_MS {
            phase.failed = phase.attempted;
        }
    }
    phases.steal_after = cpu_jiffies();
    phases
}

/// `(steal, total)` jiffies of the host's CPUs so far, from `/proc/stat`
/// (zeros where it cannot be read).
fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Plans each probe kind runs warm for the `query.execute_us.*`
/// medians.
const PROBE_REPS: usize = 64;
/// Requests of the workload's own stream the probe sends through
/// `Server::handle_encoded`.
pub const PROBE_PLANS: usize = 512;

/// The traced per-layer probe, run after the timed phases: each plan
/// kind executed warm through `plan::execute_with` on a prepared
/// `ReleaseIndex` over `m`, and `Server::handle_encoded` over the
/// workload's own request stream.
pub fn probe(
    rec: &mut Recorder,
    m: &Arc<SanitizedMatrix>,
    pools: &[Vec<QueryPlan>; 6],
    server: &Server,
    mix: &dyn Mix,
    start: u64,
) {
    const NAMES: [&str; 6] = [
        "query.execute.range",
        "query.execute.od",
        "query.execute.marginal",
        "query.execute.topk",
        "query.execute.total",
        "query.execute.drilldown",
    ];
    let index = ReleaseIndex::new(Arc::clone(m));
    for (k, plans) in pools.iter().enumerate() {
        for plan in plans {
            let _ = dpod_query::plan::execute_with(&index, plan);
        }
        for rep in 0..PROBE_REPS {
            let plan = &plans[rep % plans.len()];
            let _ = rec.time(NAMES[k], 0, rep as u64, || {
                dpod_query::plan::execute_with(&index, plan)
            });
        }
    }
    for i in 0..PROBE_PLANS as u64 {
        let (req, _) = mix.request(start + i);
        rec.time("serve.handle_encoded", 0, i, || {
            server.handle_encoded(&req, ResponseEncoding::Binary)
        });
    }
}

/// VmHWM of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Curator-path counts of one run (the last setup or round).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Trips parsed.
    pub trips: u64,
    /// Released partitions.
    pub partitions: u64,
    /// `DPRL` frame bytes.
    pub release_bytes: u64,
    /// Catalog directory bytes after the save.
    pub bytes_written: u64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (plans, publishes, rounds, checks).
    pub attempted: u64,
    /// Operations failed (wrong answers count).
    pub failed: u64,
    /// Per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Per publish, seconds.
    pub publish_s: Vec<f64>,
    /// Per publish, seconds to its first answer.
    pub first_answer_s: Vec<f64>,
    /// The serving phases.
    pub phases: Phases,
    /// Server-side counters.
    pub tally: ServerTally,
    /// Curator-path counts.
    pub counts: Counts,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}
