//! The curator path, one public call per layer, each inside its span:
//! trip CSV → `dpod-cli::csv` → `dpod-data::od` → `dpod-core`
//! sanitize → `release` encode → `dpod-serve::catalog` save/load, plus
//! the cold rebuild (`QueryEngine::sanitized`) and first plan
//! (`plan::execute_with` on a fresh `ReleaseIndex`) that answer-check
//! it.

use crate::trace::{now_ns, Recorder};
use dpod_core::{PublishedRelease, SanitizedMatrix};
use dpod_dp::Epsilon;
use dpod_query::{Answer, QueryPlan, ReleaseIndex};
use dpod_serve::{Catalog, QueryEngine, DEFAULT_CACHE_BYTES};
use std::path::Path;
use std::sync::Arc;

/// City archetype every workload's trips come from.
pub const CITY: &str = "newyork";

/// Writes a seeded trip CSV (the curator's input).
///
/// # Errors
/// Generator or IO failures, as text.
pub fn write_trips(path: &Path, trips: usize, stops: usize, data_seed: u64) -> Result<(), String> {
    let args = dpod_cli::commands::GenerateArgs {
        city: CITY.into(),
        trips,
        stops,
        seed: data_seed,
    };
    let csv = dpod_cli::commands::generate(&args).map_err(|e| e.0)?;
    std::fs::write(path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One release to publish.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Catalog name.
    pub name: String,
    /// Grid cells per spatial axis.
    pub cells: usize,
    /// Mechanism CLI name.
    pub mechanism: &'static str,
    /// Privacy budget.
    pub epsilon: f64,
    /// Explicit noise seed (never the CLI default).
    pub noise_seed: u64,
}

impl Spec {
    /// The same release through the CLI's own pipeline arguments.
    pub fn sanitize_args(&self) -> dpod_cli::commands::SanitizeArgs {
        dpod_cli::commands::SanitizeArgs {
            cells: self.cells,
            epsilon: self.epsilon,
            mechanism: self.mechanism.to_string(),
            seed: self.noise_seed,
        }
    }
}

/// What one publish produced.
#[derive(Debug)]
pub struct Published {
    /// Catalog name.
    pub name: String,
    /// The release's `DPRL` frame (`to_bytes`).
    pub frame: Vec<u8>,
    /// Trips parsed from the CSV.
    pub trips: u64,
    /// Released partitions.
    pub partitions: u64,
    /// Whether the O/D build counted every parsed trip.
    pub counts_ok: bool,
    /// Nanoseconds the trip-count check took. It has to run while the
    /// matrix is alive, inside the publish; callers take it out of
    /// every window that spans the publish.
    pub check_ns: u64,
}

/// Reads `csv`, sanitizes it per `spec`, publishes the release into
/// `catalog` and saves the catalog to `dir`.
///
/// # Errors
/// The first failing layer's message.
pub fn publish(
    rec: &mut Recorder,
    parent: u64,
    req: u64,
    csv: &Path,
    spec: &Spec,
    catalog: &Catalog,
    dir: &Path,
) -> Result<Published, String> {
    let text = rec
        .time("io.read_csv", parent, req, || std::fs::read_to_string(csv))
        .map_err(|e| e.to_string())?;
    let trips = rec
        .time("cli.csv.parse", parent, req, || {
            dpod_cli::csv::from_csv(&text)
        })
        .map_err(|e| e.0)?;
    drop(text);
    let stops = trips.first().ok_or("no trips")?.points.len() - 2;
    let matrix = rec.time("data.od.build", parent, req, || {
        dpod_data::OdMatrixBuilder::new(spec.cells).build_dense(&trips, stops)
    })?;
    let check_start = now_ns();
    let counted: u64 = matrix.as_slice().iter().sum();
    let check_ns = now_ns() - check_start;
    let n_trips = trips.len() as u64;
    drop(trips);
    let mechanism = dpod_cli::registry::mechanism_by_name(spec.mechanism).map_err(|e| e.0)?;
    let epsilon = Epsilon::new(spec.epsilon).map_err(|e| e.to_string())?;
    let mut rng = dpod_dp::seeded_rng(spec.noise_seed);
    let sanitized = rec
        .time("core.sanitize", parent, req, || {
            mechanism.sanitize(&matrix, epsilon, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    drop(matrix);
    let partitions = sanitized.num_partitions() as u64;
    let (release, frame) = rec.time("core.release.encode", parent, req, || {
        let release = PublishedRelease::from_sanitized(&sanitized);
        let frame = release.to_bytes();
        (release, frame)
    });
    drop(sanitized);
    catalog.publish(&spec.name, release);
    rec.time("serve.catalog.save", parent, req, || catalog.save_dir(dir))
        .map_err(|e| e.0)?;
    Ok(Published {
        name: spec.name.clone(),
        frame,
        trips: n_trips,
        partitions,
        counts_ok: counted == n_trips,
        check_ns,
    })
}

/// Loads the catalog saved in `dir`.
///
/// # Errors
/// Load failures, as text.
pub fn load(rec: &mut Recorder, parent: u64, req: u64, dir: &Path) -> Result<Catalog, String> {
    rec.time("serve.catalog.load", parent, req, || Catalog::load_dir(dir))
        .map_err(|e| e.0)
}

/// How many of `published` did not reload into `catalog` byte for byte.
/// Callers run it after their timed windows close.
pub fn reload_mismatches(catalog: &Catalog, published: &[Published]) -> u64 {
    published
        .iter()
        .filter(|p| {
            catalog
                .get(&p.name)
                .is_none_or(|e| e.release.to_bytes() != p.frame)
        })
        .count() as u64
}

/// Total bytes of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Cold rebuild of a catalog entry through a fresh `QueryEngine`.
///
/// # Errors
/// Validation failures, as text.
pub fn materialize(
    rec: &mut Recorder,
    parent: u64,
    req: u64,
    catalog: &Catalog,
    name: &str,
) -> Result<Arc<SanitizedMatrix>, String> {
    let entry = catalog.get(name).ok_or_else(|| format!("{name} missing"))?;
    let engine = QueryEngine::new(DEFAULT_CACHE_BYTES);
    rec.time("serve.engine.materialize", parent, req, || {
        engine.sanitized(&entry)
    })
    .map_err(|e| e.0)
}

/// The first plan on a freshly prepared `ReleaseIndex`.
///
/// # Errors
/// Plan failures, as text.
pub fn first_plan(
    rec: &mut Recorder,
    parent: u64,
    req: u64,
    m: &Arc<SanitizedMatrix>,
    plan: &QueryPlan,
) -> Result<Answer, String> {
    let start = now_ns();
    let index = ReleaseIndex::new(Arc::clone(m));
    let answer = dpod_query::plan::execute_with(&index, plan).map_err(|e| e.0);
    rec.leaf("query.first_plan", start, now_ns(), parent, req);
    answer
}
