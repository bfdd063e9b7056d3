//! The query engine: one artifact cache over rebuilt releases.
//!
//! A `PublishedRelease` is cheap to store but must be rebuilt into a
//! [`SanitizedMatrix`] — dense estimate plus prefix-sum table — before it
//! can answer `O(2^d)` range queries. The rebuild is `O(domain size)` and
//! the table doubles the memory, so the engine caches rebuilds per
//! `(name, version)` under an LRU byte budget: hot releases answer from
//! cache, cold ones pay one rebuild, and a republish (new version) never
//! serves stale answers because the version is part of the key.
//!
//! Everything else the engine memoizes is derived from that rebuild and
//! rides its entry, keyed by kind: the release's [`ReleaseIndex`]
//! (marginal tables, cell order, pyramid levels), one epoch's answer to
//! a window's inner plan (a *partial*), and the final wire bytes of a
//! plan response per encoding. By post-processing invariance each costs
//! zero ε and is valid exactly while its `(name, version)` is current,
//! so every kind — the matrix included — goes through one get-or-build
//! with one currency rule: build outside the lock, then cache only if,
//! under the lock, the caller's currency check still holds and the
//! resident entry still wraps the matrix the artifact was derived from.
//! A racing winner is kept; a loser is served to its caller uncached. A
//! republish or removal that drops the matrix drops every artifact with
//! it, so a stale version can never answer.
//!
//! All kinds share one byte ledger and one LRU clock. Index bytes grow
//! lazily after insertion, so an insert recomputes the ledger from the
//! live entries while a warm hit re-charges only the entry it touched.
//! Over budget, whole entries are evicted least-recently-used first,
//! never the one being served — a lone release larger than the budget
//! stays cached rather than rebuilt per query. That entry's memoized
//! answers are bounded all the same: while they alone exceed the
//! budget, the least-recently-used ones go (never the matrix, the index
//! or the answer just served).
//!
//! What a cold rebuild costs: `PublishedRelease::into_sanitized`
//! validates the partition boxes (one coverage bit per cell, walked by
//! runs), spreads each noisy count over its box, and builds the `f64`
//! prefix-sum table in one cache-blocked sweep — three linear passes over
//! the domain, about 0.22 s and 269 MB for a 16⁶-cell, 3.4k-partition
//! release on one core of a 2-vCPU Xeon VM. The time spent is exported as
//! `dpod_engine_rebuild_nanoseconds_total` ([`QueryEngine::rebuild_nanos`]).

use crate::{CatalogEntry, ServeError};
use dpod_core::SanitizedMatrix;
use dpod_query::{Answer, ReleaseIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A memoizing rebuild + artifact cache with a shared LRU byte budget.
#[derive(Debug)]
pub struct QueryEngine {
    byte_budget: usize,
    /// Per-release cap on memoized marginal-table bytes, passed to each
    /// [`ReleaseIndex`] it builds.
    index_marginal_cap: usize,
    state: Mutex<LruState>,
    /// Lifetime (hits, misses), indexed by [`ArtifactKey::kind`].
    counters: [(AtomicU64, AtomicU64); 4],
    /// Wall-clock nanoseconds spent in cold rebuilds (failed ones too).
    rebuild_nanos: AtomicU64,
}

/// A cache entry's key: release name and catalog version.
type EntryId = (String, u64);

#[derive(Debug, Default)]
struct LruState {
    map: HashMap<EntryId, Cached>,
    tick: u64,
    bytes: usize,
    /// What the indexes removed so far had accrued, so the lifetime
    /// index counters survive eviction.
    retired: IndexTotals,
}

impl LruState {
    /// Removes an entry, reclaiming what it was charged to the ledger
    /// and retiring its index's counters.
    fn remove(&mut self, id: &EntryId) -> Option<Cached> {
        let cached = self.map.remove(id)?;
        self.bytes = self.bytes.saturating_sub(cached.charged);
        if let Some(ix) = &cached.index {
            self.retired.add(ix);
        }
        Some(cached)
    }

    /// Removes every entry `select` picks, returning the bytes they held.
    fn remove_where(&mut self, select: impl Fn(&EntryId) -> bool) -> usize {
        let victims: Vec<EntryId> = self.map.keys().filter(|id| select(id)).cloned().collect();
        victims
            .iter()
            .filter_map(|id| self.remove(id))
            .map(|c| c.bytes())
            .sum()
    }

    /// Lifetime index counters: the retired ones plus the live indexes'.
    fn index_totals(&self) -> IndexTotals {
        let mut totals = self.retired.clone();
        for ix in self.map.values().filter_map(|c| c.index.as_ref()) {
            totals.add(ix);
        }
        totals
    }
}

/// Counters a [`ReleaseIndex`] accrues over its life.
#[derive(Debug, Default, Clone)]
struct IndexTotals {
    build_nanos: u64,
    pyramid_hits: u64,
    pyramid_misses: u64,
    pyramid_level_hits: HashMap<u32, u64>,
}

impl IndexTotals {
    fn add(&mut self, ix: &ReleaseIndex) {
        self.build_nanos += ix.build_nanos();
        self.pyramid_hits += ix.pyramid_hits();
        self.pyramid_misses += ix.pyramid_misses();
        for (level, n) in ix.pyramid_level_hits() {
            *self.pyramid_level_hits.entry(level).or_insert(0) += n;
        }
    }
}

/// What the engine memoizes for one release, by kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ArtifactKey {
    /// The rebuild itself: the entry's anchor.
    Matrix,
    /// The prepared plan index, in [`Cached::index`].
    Index,
    /// One epoch's answer to a window's inner plan, by canonical plan key.
    Partial(String),
    /// A plan response's wire bytes, by encoding and canonical plan key.
    Encoded(u8, String),
}

const MATRIX: usize = 0;
const INDEX: usize = 1;
const PARTIAL: usize = 2;
const ENCODED: usize = 3;

impl ArtifactKey {
    /// Which hit/miss counter pair this kind bumps.
    fn kind(&self) -> usize {
        match self {
            ArtifactKey::Matrix => MATRIX,
            ArtifactKey::Index => INDEX,
            ArtifactKey::Partial(_) => PARTIAL,
            ArtifactKey::Encoded(..) => ENCODED,
        }
    }
}

/// A memoized artifact; the variant always matches its key's kind.
#[derive(Debug, Clone)]
enum Artifact {
    Matrix(Arc<SanitizedMatrix>),
    Index(Arc<ReleaseIndex>),
    Partial(Answer),
    /// The exact on-socket bytes and the query units the answer counts
    /// for (so warm hits bump the same accounting a cold execution would).
    Encoded(Arc<Vec<u8>>, u64),
}

/// One memoized answer in [`Cached::memos`].
#[derive(Debug)]
struct Slot {
    artifact: Artifact,
    /// Fixed bytes charged for it.
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
struct Cached {
    matrix: Arc<SanitizedMatrix>,
    matrix_bytes: usize,
    /// Everything derived from `matrix` rides its `(name, version)`
    /// entry, which gives version-keyed invalidation for free:
    /// republishing one epoch drops only that epoch's artifacts. The
    /// index is sized live, so the ledger refresh reads it for every
    /// entry; it sits in a field rather than behind a map probe.
    index: Option<Arc<ReleaseIndex>>,
    /// Memoized answers: window partials and encoded responses.
    memos: HashMap<ArtifactKey, Slot>,
    /// Running total of the memos' fixed bytes (so [`Cached::bytes`]
    /// stays O(1) under the ledger refresh).
    memo_bytes: usize,
    /// What this entry currently contributes to `LruState::bytes`. Kept
    /// beside the live size so a warm touch can apply an O(1) delta
    /// (index bytes only grow) instead of rescanning every entry.
    charged: usize,
    last_used: u64,
}

impl Cached {
    /// Current resident bytes: the rebuild plus whatever the index and
    /// the memoized answers hold so far (both grow after insertion).
    fn bytes(&self) -> usize {
        self.matrix_bytes
            + self.index.as_ref().map_or(0, |ix| ix.resident_bytes())
            + self.memo_bytes
    }

    /// Re-charges the entry to its live size, returning its old charge.
    fn recharge(&mut self) -> usize {
        let now = self.bytes();
        std::mem::replace(&mut self.charged, now)
    }

    /// The artifact under `key`, marking it (and the entry) used at `tick`.
    fn touch(&mut self, key: &ArtifactKey, tick: u64) -> Option<Artifact> {
        let found = match key {
            ArtifactKey::Matrix => Artifact::Matrix(Arc::clone(&self.matrix)),
            ArtifactKey::Index => Artifact::Index(Arc::clone(self.index.as_ref()?)),
            _ => {
                let slot = self.memos.get_mut(key)?;
                slot.last_used = tick;
                slot.artifact.clone()
            }
        };
        self.last_used = tick;
        Some(found)
    }

    /// Drops least-recently-used memoized answers (never `keep`) until
    /// they fit in `budget`.
    fn trim_memos(&mut self, budget: usize, keep: &ArtifactKey) {
        while self.memo_bytes > budget {
            let victim = self
                .memos
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            let Some(slot) = victim.and_then(|k| self.memos.remove(&k)) else {
                break;
            };
            self.memo_bytes -= slot.bytes;
        }
    }
}

/// Estimated resident bytes of one memoized answer (heap payload plus a
/// small per-node overhead), used to charge plan partials against the
/// shared LRU budget.
fn answer_bytes(answer: &Answer) -> usize {
    match answer {
        Answer::Value { .. } => 32,
        Answer::Marginal { dims, values } => 64 + dims.len() * 8 + values.len() * 8,
        Answer::TopK { dims, cells } => {
            64 + dims.len() * 8 + cells.iter().map(|c| 48 + c.coords.len() * 8).sum::<usize>()
        }
        Answer::Many { answers } | Answer::Epochs { answers, .. } => {
            64 + answers.iter().map(answer_bytes).sum::<usize>()
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Cached rebuilds currently resident.
    pub entries: usize,
    /// Estimated resident bytes (rebuilds plus index structures).
    pub bytes: usize,
    /// Lifetime matrix-cache hits.
    pub hits: u64,
    /// Lifetime matrix-cache misses (— rebuilds performed).
    pub misses: u64,
    /// Resident releases whose plan index is built.
    pub index_entries: usize,
    /// Lifetime index-cache hits (aggregate plans answered by a
    /// resident [`ReleaseIndex`]).
    pub index_hits: u64,
    /// Lifetime index-cache misses (— indexes constructed).
    pub index_misses: u64,
    /// Memoized window-plan partials currently resident (across all
    /// cached epochs).
    pub partial_entries: usize,
    /// Lifetime window-partial hits (per-epoch answers served from the
    /// memo instead of re-executing the plan).
    pub partial_hits: u64,
    /// Lifetime window-partial misses (— per-epoch plan executions).
    pub partial_misses: u64,
    /// Memoized encoded responses currently resident (across all
    /// cached releases and encodings).
    pub encoded_entries: usize,
    /// Lifetime encoded-memo hits (responses served as a memcpy of
    /// cached wire bytes, skipping execution and encoding).
    pub encoded_hits: u64,
    /// Lifetime encoded-memo misses (— responses executed and encoded).
    pub encoded_misses: u64,
    /// Resident bytes held by the encoded-response memo.
    pub encoded_bytes: usize,
    /// Cumulative wall-clock nanoseconds spent building index
    /// structures (marginal tables, cell orders, pyramid levels),
    /// evicted indexes included.
    pub index_build_nanos: u64,
    /// Memoized resolution-pyramid levels currently resident (across
    /// all cached releases).
    pub pyramid_entries: usize,
    /// Resident bytes held by memoized pyramid levels.
    pub pyramid_bytes: usize,
    /// Lifetime pyramid-memo hits (drill-down plans answered from a
    /// resident coarse level), evicted indexes included.
    pub pyramid_hits: u64,
    /// Lifetime pyramid-memo misses (— coarse levels built).
    pub pyramid_misses: u64,
}

/// Estimated resident size of one rebuilt release: the dense estimate and
/// its prefix table are each `size × 8` bytes, and a retained
/// [`PartitionSummary::Boxes`](dpod_core::PartitionSummary) carries two
/// heap-allocated corner vectors plus one count per box — significant for
/// partition-heavy (DAF/quadtree) releases over large domains.
fn resident_bytes(m: &SanitizedMatrix) -> usize {
    let tables = m.matrix().len() * 16;
    let summary = match m.summary() {
        dpod_core::PartitionSummary::PerEntry => 0,
        dpod_core::PartitionSummary::Boxes { partitioning, .. } => {
            let d = m.matrix().shape().ndim();
            // Two Vec<usize> corners (24-byte header + 8·d payload each)
            // plus the box struct and its noisy count.
            partitioning.len() * (2 * (24 + 8 * d) + 32)
        }
    };
    tables + summary + 512
}

impl QueryEngine {
    /// An engine caching up to ~`byte_budget` bytes of rebuilt releases.
    ///
    /// A single release larger than the whole budget is still cached (the
    /// alternative — rebuilding on every query — is strictly worse); the
    /// budget then holds exactly that one entry.
    pub fn new(byte_budget: usize) -> Self {
        Self::with_marginal_cap(byte_budget, dpod_query::backend::DEFAULT_MARGINAL_BUDGET)
    }

    /// [`Self::new`], but capping each release's memoized marginal
    /// tables at `index_marginal_cap` bytes (keep-sets past the cap are
    /// answered per query without caching).
    pub fn with_marginal_cap(byte_budget: usize, index_marginal_cap: usize) -> Self {
        QueryEngine {
            byte_budget,
            index_marginal_cap,
            state: Mutex::new(LruState::default()),
            counters: Default::default(),
            rebuild_nanos: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    fn lock(&self) -> MutexGuard<'_, LruState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Recomputes the byte ledger from the live entries (re-charging
    /// each). Index bytes grow after insertion (memoization is lazy),
    /// so the ledger is refreshed at every insert and stats read;
    /// removals take off their own charge and warm touches apply an
    /// O(1) per-entry delta instead.
    fn refresh_bytes(state: &mut LruState) {
        let mut total = 0usize;
        for cached in state.map.values_mut() {
            cached.recharge();
            total += cached.charged;
        }
        state.bytes = total;
    }

    /// Evicts least-recently-used entries (never `keep`) until the
    /// budget holds, reclaiming exactly what each victim had been
    /// charged to the ledger. If `keep` is then alone and still over,
    /// its memoized answers are trimmed to the budget (never `fresh`,
    /// the artifact being served): an oversized lone release stays
    /// cached, but the answers riding it cannot grow without bound.
    fn enforce_budget(&self, state: &mut LruState, keep: &EntryId, fresh: &ArtifactKey) {
        while state.bytes > self.byte_budget {
            let victim = state
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone());
            if victim.and_then(|v| state.remove(&v)).is_none() {
                break;
            }
        }
        if state.bytes > self.byte_budget {
            if let Some(cached) = state.map.get_mut(keep) {
                cached.trim_memos(self.byte_budget, fresh);
                state.bytes = state.bytes - cached.recharge() + cached.charged;
            }
        }
    }

    /// The one lookup path, for every kind of artifact.
    ///
    /// Warm: one lock, one lookup, and an O(1) re-charge of the entry
    /// (its index may have grown since it was last charged; only then
    /// is the budget re-enforced). Cold: `build` runs outside the lock
    /// and returns the artifact, the matrix it was derived from, and the
    /// fixed bytes to charge for it. The result is cached only if, under
    /// the lock, `still_current` holds and the resident entry wraps that
    /// same matrix — a `Matrix` build creates the entry instead, unless
    /// a newer version of the name is already cached. A racing winner
    /// already cached is served in its place; anything else is served to
    /// the caller uncached.
    fn get_or_build(
        &self,
        entry: &CatalogEntry,
        key: ArtifactKey,
        still_current: &dyn Fn() -> bool,
        build: impl FnOnce() -> Result<(Arc<SanitizedMatrix>, Artifact, usize), ServeError>,
    ) -> Result<Artifact, ServeError> {
        let id = (entry.name.clone(), entry.version);
        let (hits, misses) = &self.counters[key.kind()];
        {
            let mut state = self.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(cached) = state.map.get_mut(&id) {
                if let Some(hit) = cached.touch(&key, tick) {
                    hits.fetch_add(1, Ordering::Relaxed);
                    let old = cached.recharge();
                    let grown = cached.charged.saturating_sub(old);
                    if grown > 0 {
                        state.bytes += grown;
                        self.enforce_budget(&mut state, &id, &key);
                    }
                    return Ok(hit);
                }
            }
        }
        // Build outside the lock: concurrent first touches may build
        // twice, but a slow rebuild never blocks other releases.
        misses.fetch_add(1, Ordering::Relaxed);
        let (matrix, built, bytes) = build()?;

        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        // Serialized with `evict` by the lock held here: an artifact
        // built while a removal or republish landed is never cached,
        // or its bytes would strand in an entry no request can reach.
        if !still_current() {
            return Ok(built);
        }
        if key == ArtifactKey::Matrix && !state.map.contains_key(&id) {
            // Versions are monotonic per name: a newer cached version
            // means this build lost a race with a republish.
            if state.map.keys().any(|(n, v)| *n == id.0 && *v > id.1) {
                return Ok(built);
            }
            // An older version is unreachable now (the catalog only
            // hands out the latest): drop it instead of leaving its
            // bytes to LRU pressure.
            state.remove_where(|(n, v)| *n == id.0 && *v < id.1);
            state.map.insert(
                id.clone(),
                Cached {
                    matrix_bytes: resident_bytes(&matrix),
                    matrix,
                    index: None,
                    memos: HashMap::new(),
                    memo_bytes: 0,
                    charged: 0, // set by the refresh below
                    last_used: tick,
                },
            );
        } else {
            let Some(cached) = state.map.get_mut(&id) else {
                return Ok(built);
            };
            if let Some(winner) = cached.touch(&key, tick) {
                return Ok(winner);
            }
            if !Arc::ptr_eq(&cached.matrix, &matrix) {
                return Ok(built);
            }
            if let Artifact::Index(index) = &built {
                cached.index = Some(Arc::clone(index));
            } else {
                cached.memo_bytes += bytes;
                let slot = Slot {
                    artifact: built.clone(),
                    bytes,
                    last_used: tick,
                };
                cached.memos.insert(key.clone(), slot);
            }
        }
        Self::refresh_bytes(&mut state);
        self.enforce_budget(&mut state, &id, &key);
        Ok(built)
    }

    /// Returns the queryable rebuild of `entry`, from cache when warm.
    ///
    /// # Errors
    /// [`ServeError`] when the artifact fails validation (tampered or
    /// corrupt release) — the entry is *not* cached in that case.
    pub fn sanitized(&self, entry: &CatalogEntry) -> Result<Arc<SanitizedMatrix>, ServeError> {
        self.sanitized_if(entry, || true)
    }

    /// [`Self::sanitized`], but consulting `still_current` (under the
    /// cache lock) before a freshly rebuilt entry is inserted: when it
    /// returns `false` the rebuild is served to the caller *without*
    /// being cached. Servers pass a catalog re-check here to close the
    /// remove/rebuild race — a removal's [`Self::evict`] can run while a
    /// rebuild is in flight, and caching afterwards would strand an
    /// entry no future request can reach.
    pub fn sanitized_if(
        &self,
        entry: &CatalogEntry,
        still_current: impl Fn() -> bool,
    ) -> Result<Arc<SanitizedMatrix>, ServeError> {
        match self.get_or_build(entry, ArtifactKey::Matrix, &still_current, || {
            let started = std::time::Instant::now();
            let rebuilt = entry.release.as_ref().clone().into_sanitized();
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rebuild_nanos.fetch_add(nanos, Ordering::Relaxed);
            let rebuilt = rebuilt
                .map_err(|e| ServeError(format!("release '{}' is invalid: {e}", entry.name)))?;
            let matrix = Arc::new(rebuilt);
            Ok((Arc::clone(&matrix), Artifact::Matrix(matrix), 0))
        })? {
            Artifact::Matrix(matrix) => Ok(matrix),
            _ => unreachable!("a Matrix key yields a matrix"),
        }
    }

    /// Returns the release's prepared [`ReleaseIndex`], from cache when
    /// warm; a cold call builds (or reuses) the matrix rebuild through
    /// [`Self::sanitized_if`], then attaches a fresh index beside it.
    ///
    /// # Errors
    /// As for [`Self::sanitized`].
    pub fn index(&self, entry: &CatalogEntry) -> Result<Arc<ReleaseIndex>, ServeError> {
        self.index_if(entry, || true)
    }

    /// [`Self::index`], with the same `still_current` contract as
    /// [`Self::sanitized_if`]: when the check fails, the freshly built
    /// index is served to the caller but never cached.
    ///
    /// # Errors
    /// As for [`Self::sanitized`].
    pub fn index_if(
        &self,
        entry: &CatalogEntry,
        still_current: impl Fn() -> bool,
    ) -> Result<Arc<ReleaseIndex>, ServeError> {
        match self.get_or_build(entry, ArtifactKey::Index, &still_current, || {
            let matrix = self.sanitized_if(entry, &still_current)?;
            let index =
                ReleaseIndex::with_marginal_budget(Arc::clone(&matrix), self.index_marginal_cap);
            Ok((matrix, Artifact::Index(Arc::new(index)), 0))
        })? {
            Artifact::Index(index) => Ok(index),
            _ => unreachable!("an Index key yields an index"),
        }
    }

    /// Answers one epoch's share of a window plan through the partial
    /// memo: a warm `(entry, plan_key)` pair returns the memoized
    /// answer without touching the release at all; a cold one resolves
    /// the epoch's [`ReleaseIndex`] (through [`Self::index_if`]), runs
    /// `compute` against it, and memoizes the answer beside the index
    /// under the shared byte budget. `plan_key` must be a canonical
    /// serialization of the inner plan — the caller owns that contract.
    ///
    /// Because the memo rides the `(name, version)` cache entry, a
    /// republish of one epoch invalidates exactly that epoch's partials
    /// (its version changes; the stale entry is dropped on next
    /// resolve) while every other epoch's stay warm — a sliding window
    /// over k epochs after one republish re-executes one epoch, not k.
    ///
    /// # Errors
    /// As for [`Self::sanitized`], plus whatever `compute` returns
    /// (plan-validation failures are not memoized).
    pub fn window_partial(
        &self,
        entry: &CatalogEntry,
        plan_key: &str,
        still_current: impl Fn() -> bool,
        compute: impl FnOnce(&ReleaseIndex) -> Result<Answer, ServeError>,
    ) -> Result<Answer, ServeError> {
        let key = ArtifactKey::Partial(plan_key.to_string());
        match self.get_or_build(entry, key, &still_current, || {
            let index = self.index_if(entry, &still_current)?;
            let answer = compute(&index)?;
            let bytes = answer_bytes(&answer) + plan_key.len();
            Ok((Arc::clone(index.matrix()), Artifact::Partial(answer), bytes))
        })? {
            Artifact::Partial(answer) => Ok(answer),
            _ => unreachable!("a Partial key yields an answer"),
        }
    }

    /// Serves one request's final wire bytes through the encoded memo:
    /// a warm `(entry, encoding, plan_key)` triple returns the memoized
    /// bytes — no plan execution, no serialization, the caller memcpys
    /// them to the socket — together with the query units the answer
    /// counts for. A cold triple resolves the release's rebuild (the
    /// memo's anchor, through [`Self::sanitized_if`]), runs `compute`
    /// (execute + encode, the caller owns both) and memoizes its bytes
    /// beside the entry under the shared LRU byte budget.
    ///
    /// The memo rides the `(name, version)` cache entry like the
    /// partials, so a republish invalidates exactly the republished
    /// release's bytes, and `still_current` gates caching as for
    /// [`Self::sanitized_if`]. `plan_key` must be a canonical
    /// serialization of the request's plan and `enc` the response
    /// encoding discriminant — the caller owns both contracts.
    ///
    /// # Errors
    /// As for [`Self::sanitized`], plus whatever `compute` returns;
    /// errors are never memoized.
    pub fn encoded_response(
        &self,
        entry: &CatalogEntry,
        enc: u8,
        plan_key: &str,
        still_current: impl Fn() -> bool,
        compute: impl FnOnce() -> Result<(Vec<u8>, u64), ServeError>,
    ) -> Result<(Arc<Vec<u8>>, u64), ServeError> {
        let key = ArtifactKey::Encoded(enc, plan_key.to_string());
        match self.get_or_build(entry, key, &still_current, || {
            let matrix = self.sanitized_if(entry, &still_current)?;
            let (bytes, units) = compute()?;
            let charge = bytes.len() + plan_key.len() + 64;
            Ok((matrix, Artifact::Encoded(Arc::new(bytes), units), charge))
        })? {
            Artifact::Encoded(bytes, units) => Ok((bytes, units)),
            _ => unreachable!("an Encoded key yields wire bytes"),
        }
    }

    /// Drops every cached rebuild of `name` (any version) — with every
    /// artifact riding it — returning the bytes reclaimed. Used when a
    /// release is removed outright: no future request can reach those
    /// entries, so leaving them to LRU pressure would strand their
    /// bytes on an idle server.
    pub fn evict(&self, name: &str) -> usize {
        self.lock().remove_where(|(n, _)| n == name)
    }

    /// Drops every cached rebuild and artifact (counters are preserved).
    pub fn clear(&self) {
        self.lock().remove_where(|_| true);
    }

    /// Lifetime warm hits per pyramid level, ascending by level:
    /// evicted indexes' counts plus the live indexes' own.
    pub fn pyramid_level_hits(&self) -> Vec<(u32, u64)> {
        let totals = self.lock().index_totals();
        let mut hits: Vec<(u32, u64)> = totals.pyramid_level_hits.into_iter().collect();
        hits.sort_unstable();
        hits
    }

    /// Cumulative wall-clock nanoseconds spent rebuilding releases on
    /// cache misses (validation, uniform spread and prefix-sum table),
    /// failed rebuilds included.
    pub fn rebuild_nanos(&self) -> u64 {
        self.rebuild_nanos.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let mut state = self.lock();
        Self::refresh_bytes(&mut state);
        let live_indexes = || state.map.values().filter_map(|c| c.index.as_ref());
        let memos = |kind: usize| {
            state
                .map
                .values()
                .flat_map(|c| c.memos.iter())
                .filter(move |(k, _)| k.kind() == kind)
                .map(|(_, slot)| slot.bytes)
        };
        let totals = state.index_totals();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let [matrix, index, partial, encoded] = &self.counters;
        EngineStats {
            entries: state.map.len(),
            bytes: state.bytes,
            hits: load(&matrix.0),
            misses: load(&matrix.1),
            index_entries: live_indexes().count(),
            index_hits: load(&index.0),
            index_misses: load(&index.1),
            partial_entries: memos(PARTIAL).count(),
            partial_hits: load(&partial.0),
            partial_misses: load(&partial.1),
            encoded_entries: memos(ENCODED).count(),
            encoded_hits: load(&encoded.0),
            encoded_misses: load(&encoded.1),
            encoded_bytes: memos(ENCODED).sum(),
            index_build_nanos: totals.build_nanos,
            pyramid_entries: live_indexes().map(|ix| ix.pyramid_entries()).sum(),
            pyramid_bytes: live_indexes().map(|ix| ix.pyramid_bytes()).sum(),
            pyramid_hits: totals.pyramid_hits,
            pyramid_misses: totals.pyramid_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{AxisBox, DenseMatrix, Shape};
    use dpod_query::PlanBackend;

    fn catalog_with(names: &[&str], side: usize) -> Catalog {
        let c = Catalog::new();
        for (i, name) in names.iter().enumerate() {
            let s = Shape::new(vec![side, side]).unwrap();
            let mut m = DenseMatrix::<u64>::zeros(s);
            m.add_at(&[1, 1], 100 + i as u64).unwrap();
            let out = Ebp::default()
                .sanitize(
                    &m,
                    Epsilon::new(0.5).unwrap(),
                    &mut dpod_dp::seeded_rng(i as u64),
                )
                .unwrap();
            c.publish(name, PublishedRelease::from_sanitized(&out));
        }
        c
    }

    #[test]
    fn second_access_hits_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let e = c.get("a").unwrap();
        let m1 = engine.sanitized(&e).unwrap();
        let m2 = engine.sanitized(&e).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = engine.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn republish_invalidates_by_version() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let v1 = engine.sanitized(&c.get("a").unwrap()).unwrap();
        // Republish under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(42))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let v2 = engine.sanitized(&c.get("a").unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&v1, &v2));
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_ne!(v1.range_sum(&q), v2.range_sum(&q));
    }

    #[test]
    fn remove_then_republish_never_serves_stale_answers() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let old = engine.sanitized(&c.get("a").unwrap()).unwrap();
        c.remove("a");
        // Republish different data under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[5, 5], 7_777).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(90))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let fresh = engine.sanitized(&c.get("a").unwrap()).unwrap();
        assert!(
            !Arc::ptr_eq(&old, &fresh),
            "cache must not serve the removed release"
        );
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_eq!(fresh.range_sum(&q), out.range_sum(&q));
    }

    #[test]
    fn lru_evicts_cold_entries_under_budget() {
        let c = catalog_with(&["a", "b", "c"], 16);
        // Measure one rebuild's charged size, then budget for exactly two.
        let probe = QueryEngine::new(usize::MAX);
        probe.sanitized(&c.get("a").unwrap()).unwrap();
        let per_entry = probe.stats().bytes;
        let engine = QueryEngine::new(per_entry * 2 + per_entry / 2);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        engine.sanitized(&ea).unwrap(); // refresh a; b is now LRU
        engine.sanitized(&ec).unwrap(); // evicts b
        assert_eq!(engine.stats().entries, 2);
        let misses_before = engine.stats().misses;
        engine.sanitized(&ea).unwrap(); // still cached
        assert_eq!(engine.stats().misses, misses_before);
        engine.sanitized(&eb).unwrap(); // rebuilt
        assert_eq!(engine.stats().misses, misses_before + 1);
    }

    /// Charged resident size of one entry, measured with a throwaway
    /// engine (sizes vary per release with its partition structure).
    fn charged_bytes(entry: &crate::CatalogEntry) -> usize {
        let probe = QueryEngine::new(usize::MAX);
        probe.sanitized(entry).unwrap();
        probe.stats().bytes
    }

    #[test]
    fn eviction_returns_the_victims_bytes() {
        let c = catalog_with(&["a", "b", "c"], 16);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        let (sa, sb, sc) = (charged_bytes(&ea), charged_bytes(&eb), charged_bytes(&ec));
        assert!(sa > 0 && sb > 0 && sc > 0);

        // Budget one byte short of all three: the third insert must
        // evict exactly the LRU entry and give its bytes back.
        let engine = QueryEngine::new(sa + sb + sc - 1);
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        assert_eq!(engine.stats().bytes, sa + sb);
        engine.sanitized(&ec).unwrap(); // evicts a (the LRU)
        let stats = engine.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.bytes,
            sb + sc,
            "the evicted entry's bytes must come back off the ledger"
        );
    }

    #[test]
    fn republish_drops_the_stale_version_immediately() {
        let c = catalog_with(&["a", "b"], 16);
        let engine = QueryEngine::new(usize::MAX);
        engine.sanitized(&c.get("a").unwrap()).unwrap();
        let eb = c.get("b").unwrap();
        engine.sanitized(&eb).unwrap();
        let sb = charged_bytes(&eb);

        // Republish 'a': resolving the new version must replace — not
        // sit beside — the (a, v1) rebuild, under zero LRU pressure.
        let s = Shape::new(vec![16, 16]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[3, 3], 4_242).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(55))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let ea2 = c.get("a").unwrap();
        assert_eq!(ea2.version, 2);
        engine.sanitized(&ea2).unwrap();

        let stats = engine.stats();
        assert_eq!(stats.entries, 2, "stale (a, v1) must be dropped");
        assert_eq!(
            stats.bytes,
            sb + charged_bytes(&ea2),
            "the stale version's bytes must not strand in the budget"
        );
        // And the fresh version answers from cache.
        let misses = stats.misses;
        engine.sanitized(&ea2).unwrap();
        assert_eq!(engine.stats().misses, misses);
    }

    #[test]
    fn rebuild_racing_a_removal_is_served_but_not_cached() {
        // Models the remove/rebuild race: by the time the rebuild is
        // ready to cache, the caller's currency check fails (the
        // release was removed and `evict` already ran).
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        let served = engine.sanitized_if(&entry, || false).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale rebuild must not be cached");
        assert_eq!(stats.bytes, 0);
        // A current rebuild caches as usual.
        engine.sanitized_if(&entry, || true).unwrap();
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn straggler_rebuild_of_an_old_version_cannot_evict_the_new_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        // A request resolved the v1 entry… and then a republish lands
        // before its rebuild reaches the cache.
        let old_entry = c.get("a").unwrap();
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[6, 6], 1_234).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(91))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new_entry = c.get("a").unwrap();
        let fresh = engine.sanitized(&new_entry).unwrap();

        // The straggler is served its v1 answer but must neither evict
        // the fresh (a, v2) entry nor cache the unreachable (a, v1).
        let served = engine.sanitized(&old_entry).unwrap();
        assert!(!Arc::ptr_eq(&served, &fresh));
        assert_eq!(engine.stats().entries, 1);
        let hits = engine.stats().hits;
        let again = engine.sanitized(&new_entry).unwrap();
        assert!(Arc::ptr_eq(&again, &fresh), "v2 must still answer warm");
        assert_eq!(engine.stats().hits, hits + 1);
    }

    #[test]
    fn oversized_release_is_still_served() {
        let c = catalog_with(&["big"], 32);
        let engine = QueryEngine::new(16); // far below one rebuild
        let e = c.get("big").unwrap();
        assert!(engine.sanitized(&e).is_ok());
        assert_eq!(engine.stats().entries, 1);
        // And it stays cached (evicting the only entry would thrash).
        engine.sanitized(&e).unwrap();
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn invalid_release_errors_and_is_not_cached() {
        let c = Catalog::new();
        let mut release = {
            let s = Shape::new(vec![4, 4]).unwrap();
            let m = DenseMatrix::<u64>::zeros(s);
            let out = Ebp::default()
                .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(1))
                .unwrap();
            PublishedRelease::from_sanitized(&out)
        };
        release.domain = vec![3, 3]; // tampered
        c.publish("bad", release);
        let engine = QueryEngine::new(1 << 20);
        assert!(engine.sanitized(&c.get("bad").unwrap()).is_err());
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn clear_resets_residency() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        engine.sanitized(&c.get("a").unwrap()).unwrap();
        engine.clear();
        let stats = engine.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    /// Warms every lazily-built structure the engine charges for: one
    /// marginal table, the sorted cell order, the total.
    fn warm_index(ix: &ReleaseIndex) {
        use dpod_query::{plan, QueryPlan};
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Marginal { keep: vec![0] },
                QueryPlan::TopK { k: 3 },
                QueryPlan::Total,
            ],
        };
        plan::execute_with(ix, &plan).unwrap();
    }

    #[test]
    fn second_index_access_hits_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let e = c.get("a").unwrap();
        let i1 = engine.index(&e).unwrap();
        let i2 = engine.index(&e).unwrap();
        assert!(Arc::ptr_eq(&i1, &i2));
        let stats = engine.stats();
        assert_eq!((stats.index_hits, stats.index_misses), (1, 1));
        assert_eq!(stats.index_entries, 1);
        // The index ride-alongs on the matrix entry: one entry, and the
        // matrix path was exercised exactly once (by the index build).
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn index_bytes_are_accounted_and_reclaimed_under_a_tiny_budget() {
        let c = catalog_with(&["a", "b", "c"], 16);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        // Probe each entry's fully-warmed footprint (matrix + index)
        // and the unwarmed index base, with throwaway engines.
        let warmed = |e: &crate::CatalogEntry| {
            let probe = QueryEngine::new(usize::MAX);
            warm_index(&probe.index(e).unwrap());
            probe.stats().bytes
        };
        let (wa, wb) = (warmed(&ea), warmed(&eb));
        let base_c = {
            let probe = QueryEngine::new(usize::MAX);
            probe.index(&ec).unwrap();
            probe.stats().bytes
        };

        // Budget holds two warmed entries plus a bare third — minus one
        // byte, so attaching the third index must evict the LRU entry
        // and give back its *full* (matrix + grown index) bytes.
        let engine = QueryEngine::new(wa + wb + base_c - 1);
        warm_index(&engine.index(&ea).unwrap());
        warm_index(&engine.index(&eb).unwrap());
        assert_eq!(
            engine.stats().bytes,
            wa + wb,
            "ledger must track lazily-grown index bytes"
        );
        let ixc = engine.index(&ec).unwrap(); // evicts a (the LRU)
        let stats = engine.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.index_entries, 2);
        assert_eq!(
            stats.bytes,
            wb + base_c,
            "the victim's matrix and index bytes must both come back"
        );
        // Growing the surviving index keeps the ledger exact.
        warm_index(&ixc);
        let wc = warmed(&ec);
        assert_eq!(engine.stats().bytes, wb + wc);
        // And the evicted release rebuilds (and re-indexes) on demand.
        let before = engine.stats().index_misses;
        engine.index(&ea).unwrap();
        assert_eq!(engine.stats().index_misses, before + 1);
    }

    #[test]
    fn republish_invalidates_the_stale_index() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let old_entry = c.get("a").unwrap();
        let old_ix = engine.index(&old_entry).unwrap();
        warm_index(&old_ix);
        let old_top = old_ix.top_k(1);

        // Republish different data under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[7, 0], 9_999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(61))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new_entry = c.get("a").unwrap();
        let new_ix = engine.index(&new_entry).unwrap();
        assert!(!Arc::ptr_eq(&old_ix, &new_ix));
        // Exactly one resident entry: (a, v2). The stale (a, v1) index
        // left with its matrix.
        let stats = engine.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.index_entries, 1);
        // The new index answers over the new data, not the stale order.
        let new_top = new_ix.top_k(1);
        assert_ne!(old_top[0].value.to_bits(), new_top[0].value.to_bits());
        assert_eq!(
            new_top[0].value.to_bits(),
            out.range_sum(&AxisBox::cell(&new_top[0].coords)).to_bits()
        );
        // A straggler resolving the old entry is served, never cached.
        let straggler = engine.index(&old_entry).unwrap();
        assert!(!Arc::ptr_eq(&straggler, &new_ix));
        assert_eq!(engine.stats().entries, 1);
        let hits = engine.stats().index_hits;
        assert!(Arc::ptr_eq(&engine.index(&new_entry).unwrap(), &new_ix));
        assert_eq!(engine.stats().index_hits, hits + 1);
    }

    #[test]
    fn index_racing_a_removal_is_served_but_not_cached() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        let served = engine.index_if(&entry, || false).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale index must not be cached");
        assert_eq!(stats.index_entries, 0);
        // A current build caches as usual.
        engine.index_if(&entry, || true).unwrap();
        assert_eq!(engine.stats().index_entries, 1);
    }

    #[test]
    fn window_partials_memoize_per_entry() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(1 << 20);
        let plan = QueryPlan::Total;
        let key = serde_json::to_string(&plan).unwrap();
        let run = |entry: &crate::CatalogEntry| {
            engine
                .window_partial(
                    entry,
                    &key,
                    || true,
                    |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
                )
                .unwrap()
        };
        let e1 = c.get("s@1").unwrap();
        let e2 = c.get("s@2").unwrap();
        let a1 = run(&e1);
        let a2 = run(&e2);
        let stats = engine.stats();
        assert_eq!((stats.partial_hits, stats.partial_misses), (0, 2));
        assert_eq!(stats.partial_entries, 2);
        assert!(stats.bytes > 0);
        // Warm repeats serve the memo, bit for bit.
        assert_eq!(run(&e1), a1);
        assert_eq!(run(&e2), a2);
        let stats = engine.stats();
        assert_eq!((stats.partial_hits, stats.partial_misses), (2, 2));
    }

    #[test]
    fn republishing_one_epoch_keeps_the_others_partials_warm() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(1 << 20);
        let plan = QueryPlan::TopK { k: 2 };
        let key = serde_json::to_string(&plan).unwrap();
        let run = |entry: &crate::CatalogEntry| {
            engine
                .window_partial(
                    entry,
                    &key,
                    || true,
                    |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
                )
                .unwrap()
        };
        run(&c.get("s@1").unwrap());
        run(&c.get("s@2").unwrap());

        // Republish epoch 2 only.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[4, 4], 777).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(70))
            .unwrap();
        c.publish("s@2", PublishedRelease::from_sanitized(&out));

        let (hits0, misses0) = {
            let s = engine.stats();
            (s.partial_hits, s.partial_misses)
        };
        // Epoch 1 still answers from the memo; epoch 2's new version is
        // a miss — exactly one re-execution for a one-epoch republish.
        run(&c.get("s@1").unwrap());
        run(&c.get("s@2").unwrap());
        let stats = engine.stats();
        assert_eq!(stats.partial_hits, hits0 + 1, "epoch 1 must stay warm");
        assert_eq!(stats.partial_misses, misses0 + 1);
    }

    #[test]
    fn failed_window_partials_are_not_memoized() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1"], 8);
        let engine = QueryEngine::new(1 << 20);
        // An invalid plan (2-D release has no dimension 9).
        let plan = QueryPlan::Marginal { keep: vec![9] };
        let key = serde_json::to_string(&plan).unwrap();
        let entry = c.get("s@1").unwrap();
        for _ in 0..2 {
            let err = engine.window_partial(
                &entry,
                &key,
                || true,
                |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
            );
            assert!(err.is_err());
        }
        let stats = engine.stats();
        assert_eq!(stats.partial_entries, 0, "errors must not be memoized");
        assert_eq!((stats.partial_hits, stats.partial_misses), (0, 2));
    }

    #[test]
    fn encoded_responses_memoize_per_entry_and_encoding() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        // The memo rides the release's cache entry (in production the
        // compute path resolves it); create it as an executor would.
        engine.sanitized(&entry).unwrap();
        // Two encodings of the "same plan" memoize independently.
        let run = |enc: u8, payload: &[u8]| {
            let payload = payload.to_vec();
            engine
                .encoded_response(&entry, enc, "plan-key", || true, move || Ok((payload, 3)))
                .unwrap()
        };
        let (b1, u1) = run(0, b"json bytes");
        assert_eq!((&b1[..], u1), (&b"json bytes"[..], 3));
        let (b2, _) = run(1, b"frame bytes");
        assert_eq!(&b2[..], b"frame bytes");
        // Warm repeats return the first compute's bytes, bit for bit —
        // the second closure's payload is never consulted.
        let (warm, units) = run(0, b"IGNORED");
        assert!(Arc::ptr_eq(&warm, &b1));
        assert_eq!(units, 3);
        let stats = engine.stats();
        assert_eq!((stats.encoded_hits, stats.encoded_misses), (1, 2));
        assert_eq!(stats.encoded_entries, 2);
        assert!(stats.encoded_bytes > 0);

        // Errors are never memoized.
        let err: Result<_, ServeError> = engine.encoded_response(
            &entry,
            0,
            "bad-plan",
            || true,
            || Err(ServeError("nope".into())),
        );
        assert!(err.is_err());
        assert_eq!(engine.stats().encoded_entries, 2);

        // A compute that raced a removal is served but not cached.
        let (served, _) = engine
            .encoded_response(&entry, 0, "racing", || false, || Ok((vec![1, 2], 1)))
            .unwrap();
        assert_eq!(&served[..], &[1, 2]);
        assert_eq!(engine.stats().encoded_entries, 2);
    }

    #[test]
    fn encoded_memo_bytes_ride_the_shared_ledger() {
        let c = catalog_with(&["a", "b"], 16);
        let (ea, eb) = (c.get("a").unwrap(), c.get("b").unwrap());
        let (sa, sb) = (charged_bytes(&ea), charged_bytes(&eb));

        let engine = QueryEngine::new(usize::MAX);
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        assert_eq!(
            engine.stats().bytes,
            sa + sb,
            "an unused encoded memo must charge zero bytes"
        );
        let payload = vec![0u8; 1 << 12];
        engine
            .encoded_response(&ea, 1, "k", || true, || Ok((payload, 1)))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.bytes, sa + sb + stats.encoded_bytes);
        assert!(stats.encoded_bytes >= 1 << 12);

        // Evicting the release reclaims the memo's bytes with it.
        let reclaimed = engine.evict("a");
        assert_eq!(reclaimed, sa + stats.encoded_bytes);
        let stats = engine.stats();
        assert_eq!((stats.bytes, stats.encoded_entries), (sb, 0));
        assert_eq!(stats.encoded_bytes, 0);
    }

    #[test]
    fn republish_invalidates_the_encoded_memo() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let old = c.get("a").unwrap();
        engine
            .encoded_response(&old, 1, "k", || true, || Ok((b"v1".to_vec(), 1)))
            .unwrap();
        // Republish under the same name: the next resolve drops the
        // stale entry, so the memo misses and re-computes.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(42))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new = c.get("a").unwrap();
        engine.sanitized(&new).unwrap(); // drops (a, v1) and its memo
        let (bytes, _) = engine
            .encoded_response(&new, 1, "k", || true, || Ok((b"v2".to_vec(), 1)))
            .unwrap();
        assert_eq!(&bytes[..], b"v2");
        let stats = engine.stats();
        assert_eq!((stats.encoded_hits, stats.encoded_misses), (0, 2));
        assert_eq!(stats.encoded_entries, 1);
    }

    #[test]
    fn pyramid_stats_aggregate_across_indexes_and_survive_eviction() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["a"], 16);
        let engine = QueryEngine::new(1 << 20);
        let ix = engine.index(&c.get("a").unwrap()).unwrap();
        let drill = QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Total),
        };
        plan::execute_with(&*ix, &drill).unwrap(); // builds level 2
        plan::execute_with(&*ix, &drill).unwrap(); // warm hit
        let stats = engine.stats();
        assert_eq!(
            (
                stats.pyramid_entries,
                stats.pyramid_hits,
                stats.pyramid_misses
            ),
            (1, 1, 1)
        );
        assert!(stats.pyramid_bytes > 0);
        assert_eq!(engine.pyramid_level_hits(), vec![(2, 1)]);
        // Eviction drops the resident level but the lifetime counters
        // survive in the retired accumulators.
        engine.evict("a");
        let stats = engine.stats();
        assert_eq!((stats.pyramid_entries, stats.pyramid_bytes), (0, 0));
        assert_eq!((stats.pyramid_hits, stats.pyramid_misses), (1, 1));
        assert_eq!(engine.pyramid_level_hits(), vec![(2, 1)]);
    }

    #[test]
    fn evict_drops_the_index_with_the_matrix() {
        let c = catalog_with(&["a"], 16);
        let engine = QueryEngine::new(usize::MAX);
        let ix = engine.index(&c.get("a").unwrap()).unwrap();
        warm_index(&ix);
        let charged = engine.stats().bytes;
        assert!(engine.stats().index_build_nanos > 0);
        let reclaimed = engine.evict("a");
        assert_eq!(reclaimed, charged, "evict must reclaim index bytes too");
        let stats = engine.stats();
        assert_eq!((stats.entries, stats.index_entries, stats.bytes), (0, 0, 0));
        // Build time of the evicted index survives in the lifetime
        // counter.
        assert!(stats.index_build_nanos > 0);
    }

    #[test]
    fn a_lone_entrys_memos_are_bounded_by_the_budget() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["a"], 8);
        let budget = 64 << 10;
        let engine = QueryEngine::new(budget);
        let entry = c.get("a").unwrap();
        engine.index(&entry).unwrap();
        let mut largest = 0;
        for i in 0..2000 {
            let key = format!("plan-{i}");
            let (bytes, _) = engine
                .encoded_response(&entry, 0, &key, || true, || Ok((vec![7u8; 1024], 1)))
                .unwrap();
            largest = largest.max(bytes.len() + key.len() + 64);
            engine
                .window_partial(
                    &entry,
                    &key,
                    || true,
                    |ix| plan::execute_with(ix, &QueryPlan::Total).map_err(|e| ServeError(e.0)),
                )
                .unwrap();
        }
        let stats = engine.stats();
        assert!(
            stats.encoded_bytes <= budget.max(largest),
            "{} memo bytes under a {budget}-byte budget",
            stats.encoded_bytes
        );
        assert!(stats.partial_entries < 2000, "partials must be trimmed too");
        // The matrix and its index are never trimmed.
        assert_eq!((stats.entries, stats.index_entries), (1, 1));
        // The newest answer stays warm; the oldest went first.
        let hits = stats.encoded_hits;
        let never = || -> Result<(Vec<u8>, u64), ServeError> { panic!("must be a hit") };
        engine
            .encoded_response(&entry, 0, "plan-1999", || true, never)
            .unwrap();
        assert_eq!(engine.stats().encoded_hits, hits + 1);
        let misses = engine.stats().encoded_misses;
        engine
            .encoded_response(&entry, 0, "plan-0", || true, || Ok((vec![7u8; 1024], 1)))
            .unwrap();
        assert_eq!(engine.stats().encoded_misses, misses + 1);
    }

    /// A seeded 8×8 release with one heavy cell, distinct per `seed`.
    fn release_8x8(seed: u64) -> PublishedRelease {
        let mut m = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        m.add_at(&[(seed % 8) as usize, 3], 500 + seed).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    }

    /// One answer a reader thread was served: the entry it resolved,
    /// the plan, and the answer (or, for the encoded memo, its bytes).
    type Served = (Arc<crate::CatalogEntry>, usize, Result<Answer, Vec<u8>>);

    #[test]
    fn concurrent_lookups_beside_republish_and_removal_strand_nothing() {
        use dpod_query::{plan, QueryPlan};
        let names: Vec<String> = (0..6).map(|i| format!("r{i}")).collect();
        let c = Catalog::new();
        for (i, name) in names.iter().enumerate() {
            c.publish(name, release_8x8(i as u64));
        }
        let plans = [
            QueryPlan::Total,
            QueryPlan::TopK { k: 3 },
            QueryPlan::Marginal { keep: vec![1] },
            QueryPlan::Range {
                lo: vec![1, 0],
                hi: vec![6, 8],
            },
        ];
        let keys: Vec<String> = plans
            .iter()
            .map(|p| serde_json::to_string(p).unwrap())
            .collect();
        let per_entry = {
            let probe = QueryEngine::new(usize::MAX);
            warm_index(&probe.index(&c.get("r0").unwrap()).unwrap());
            probe.stats().bytes
        };
        // Room for about two warmed entries: lookups evict each other.
        let engine = QueryEngine::new(2 * per_entry + per_entry / 2);
        let removed = ["r4", "r5"];

        // All four threads start together, so lookups overlap the churn.
        let start = std::sync::Barrier::new(4);
        let served: Vec<Served> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..3)
                .map(|t| {
                    let (c, engine, names, plans, keys) = (&c, &engine, &names, &plans, &keys);
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let mut served = Vec::new();
                        for i in 0..400usize {
                            let Some(entry) = c.get(&names[(i * 7 + t) % names.len()]) else {
                                continue;
                            };
                            let p = (i + t) % plans.len();
                            let current = || {
                                c.get(&entry.name)
                                    .is_some_and(|now| now.version == entry.version)
                            };
                            let run = |ix: &ReleaseIndex| {
                                plan::execute_with(ix, &plans[p]).map_err(|e| ServeError(e.0))
                            };
                            let answer = match (i + t) % 3 {
                                0 => Ok(run(&engine.index_if(&entry, current).unwrap()).unwrap()),
                                1 => Ok(engine
                                    .window_partial(&entry, &keys[p], current, run)
                                    .unwrap()),
                                _ => {
                                    let compute = || {
                                        let index = engine.index_if(&entry, current)?;
                                        let answer = run(&index)?;
                                        Ok((
                                            serde_json::to_string(&answer).unwrap().into_bytes(),
                                            answer.units(),
                                        ))
                                    };
                                    let (bytes, _) = engine
                                        .encoded_response(&entry, 0, &keys[p], current, compute)
                                        .unwrap();
                                    Err(bytes.to_vec())
                                }
                            };
                            served.push((entry, p, answer));
                        }
                        served
                    })
                })
                .collect();
            let (c, engine, start) = (&c, &engine, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..120u64 {
                    let name = format!("r{}", round % 6);
                    if removed.contains(&name.as_str()) && round >= 60 {
                        // Removal as `Server::remove_release` does it.
                        c.remove(&name);
                        engine.evict(&name);
                        continue;
                    }
                    c.publish(&name, release_8x8(100 + round));
                    std::thread::yield_now();
                }
            });
            readers
                .into_iter()
                .flat_map(|r| r.join().unwrap())
                .collect()
        });

        for name in removed {
            assert!(c.get(name).is_none());
            assert_eq!(engine.evict(name), 0, "'{name}' stranded a cache entry");
        }
        // r0..r3 are never removed: two thirds of the 1200 lookups.
        assert!(served.len() >= 790, "{} lookups served", served.len());
        let mut rebuilt: HashMap<(String, u64), SanitizedMatrix> = HashMap::new();
        for (entry, p, answer) in &served {
            let matrix = rebuilt
                .entry((entry.name.clone(), entry.version))
                .or_insert_with(|| entry.release.as_ref().clone().into_sanitized().unwrap());
            let expected = plan::execute(matrix, &plans[*p]).unwrap();
            match answer {
                Ok(answer) => assert_eq!(answer, &expected, "{} v{}", entry.name, entry.version),
                Err(bytes) => {
                    assert_eq!(bytes, serde_json::to_string(&expected).unwrap().as_bytes())
                }
            }
        }
    }
}
