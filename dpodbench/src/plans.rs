//! Seeded plan pools and request mixes, with their answer references.
//!
//! Every reference is computed through the cold
//! [`ScanBackend`](dpod_query::ScanBackend) (`plan::execute`) on a
//! freshly materialized release, and every answer the server returns is
//! compared to it bit for bit.

use crate::client::{Mix, Tag};
use crate::stats::{Rng, Zipf};
use dpod_core::SanitizedMatrix;
use dpod_query::{plan, Answer, EpochSelector, QueryPlan, Region, WindowMerge};
use dpod_serve::protocol::Request;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Bit-for-bit answer equality (`f64` compared by bits, so `-0.0` and
/// NaN payloads count).
pub fn same(a: &Answer, b: &Answer) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    match (a, b) {
        (Answer::Value { value: x }, Answer::Value { value: y }) => x.to_bits() == y.to_bits(),
        (
            Answer::Marginal {
                dims: da,
                values: va,
            },
            Answer::Marginal {
                dims: db,
                values: vb,
            },
        ) => da == db && bits(va, vb),
        (
            Answer::TopK {
                dims: da,
                cells: ca,
            },
            Answer::TopK {
                dims: db,
                cells: cb,
            },
        ) => {
            da == db
                && ca.len() == cb.len()
                && ca
                    .iter()
                    .zip(cb)
                    .all(|(p, q)| p.coords == q.coords && p.value.to_bits() == q.value.to_bits())
        }
        (Answer::Many { answers: xa }, Answer::Many { answers: xb }) => {
            xa.len() == xb.len() && xa.iter().zip(xb).all(|(p, q)| same(p, q))
        }
        (
            Answer::Epochs {
                epochs: ea,
                answers: xa,
            },
            Answer::Epochs {
                epochs: eb,
                answers: xb,
            },
        ) => ea == eb && xa.len() == xb.len() && xa.iter().zip(xb).all(|(p, q)| same(p, q)),
        _ => false,
    }
}

/// The reference answer of `plan` on `m` through the cold scan backend.
///
/// # Panics
/// When the plan does not apply to the release — pools only hold plans
/// built for the release's own domain.
pub fn reference(m: &SanitizedMatrix, plan: &QueryPlan) -> Answer {
    plan::execute(m, plan).unwrap_or_else(|e| panic!("pool plan {plan:?} rejected: {e}"))
}

/// A half-open box drawn uniformly per axis.
pub fn random_box(dims: &[usize], rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
    let mut lo = Vec::with_capacity(dims.len());
    let mut hi = Vec::with_capacity(dims.len());
    for &d in dims {
        let a = rng.below(d);
        lo.push(a);
        hi.push(a + 1 + rng.below(d - a));
    }
    (lo, hi)
}

fn random_region(dx: usize, dy: usize, rng: &mut Rng) -> Region {
    let (lo, hi) = random_box(&[dx, dy], rng);
    Region::new((lo[0], lo[1]), (hi[0], hi[1]))
}

/// Small per-kind plan pools for one release domain: OD plans (through
/// every stop leg the domain has), one- and two-axis marginals, top-k,
/// the total, and drill-downs one or two pyramid levels up.
pub fn pools(dims: &[usize], rng: &mut Rng) -> [Vec<QueryPlan>; 6] {
    let d = dims.len();
    let stops = d / 2 - 2;
    let range: Vec<QueryPlan> = (0..8)
        .map(|_| {
            let (lo, hi) = random_box(dims, rng);
            QueryPlan::Range { lo, hi }
        })
        .collect();
    let od = (0..8)
        .map(|_| QueryPlan::Od {
            origin: Some(random_region(dims[0], dims[1], rng)),
            stops: (0..stops)
                .map(|s| (s, random_region(dims[2 + 2 * s], dims[3 + 2 * s], rng)))
                .collect(),
            destination: Some(random_region(dims[d - 2], dims[d - 1], rng)),
        })
        .collect();
    let keeps: [&[usize]; 6] = [
        &[0, 1],
        &[d - 2, d - 1],
        &[0],
        &[d - 1],
        &[1, d - 2],
        &[0, d - 1],
    ];
    let marginal = keeps
        .iter()
        .map(|k| QueryPlan::Marginal { keep: k.to_vec() })
        .collect();
    let topk = [5, 10, 25].iter().map(|&k| QueryPlan::TopK { k }).collect();
    let total = vec![QueryPlan::Total];
    let mut drill = Vec::new();
    for level in 1..=2u32 {
        let coarse: Vec<usize> = dims.iter().map(|&x| ((x - 1) >> level) + 1).collect();
        let (lo, hi) = random_box(&coarse, rng);
        for inner in [
            QueryPlan::Total,
            QueryPlan::Marginal { keep: vec![0, 1] },
            QueryPlan::Range { lo, hi },
        ] {
            drill.push(QueryPlan::DrillDown {
                level,
                plan: Box::new(inner),
            });
        }
    }
    [range, od, marginal, topk, total, drill]
}

/// One release an [`AnalystMix`] targets.
pub struct Target {
    /// Catalog name.
    pub name: String,
    /// Per-kind plan pools (see [`pools`]); the range pool is unused by
    /// the mix, which draws fresh boxes instead.
    pub pools: [Vec<QueryPlan>; 6],
    /// References, index-aligned with `pools`.
    pub refs: [Vec<Answer>; 6],
    /// Domain cardinalities.
    pub dims: Vec<usize>,
}

impl Target {
    /// Pools for `name` over `m`, with references; kinds of zero
    /// `weight` get empty pools.
    pub fn new(name: &str, m: &SanitizedMatrix, rng: &mut Rng, weights: [f64; 6]) -> Self {
        let dims = m.matrix().shape().dims().to_vec();
        let mut pools = pools(&dims, rng);
        for (pool, w) in pools.iter_mut().zip(weights) {
            if w == 0.0 {
                pool.clear();
            }
        }
        let refs = pools
            .each_ref()
            .map(|ps| ps.iter().map(|p| reference(m, p)).collect());
        Target {
            name: name.to_string(),
            pools,
            refs,
            dims,
        }
    }
}

/// One stream entry: release, kind, and the pool slot or range index.
#[derive(Debug, Clone, Copy)]
struct Item {
    release: u8,
    kind: u8,
    slot: u32,
}

/// A unique range box (corners packed one byte per axis) with its
/// reference value.
struct RangeItem {
    lo: [u8; 6],
    hi: [u8; 6],
    value: f64,
}

fn pack(v: &[usize]) -> [u8; 6] {
    let mut out = [0u8; 6];
    for (o, &x) in out.iter_mut().zip(v) {
        *o = u8::try_from(x).expect("range corners fit a byte");
    }
    out
}

/// The analyst mix: unique `Range` boxes (encoded-memo misses) and
/// Zipf-weighted picks from small OD / marginal / top-k / total /
/// drill-down pools (memo hits), over Zipf-weighted releases. The whole
/// stream and every reference are computed up front.
pub struct AnalystMix {
    targets: Vec<Target>,
    items: Vec<Item>,
    ranges: Vec<RangeItem>,
}

impl AnalystMix {
    /// A stream of `len` plans over `targets` (with their reference
    /// matrices, index-aligned), kinds drawn by `weights`.
    ///
    /// # Panics
    /// When a domain has more than six axes or 256 cells on one axis.
    pub fn new(
        targets: Vec<Target>,
        matrices: &[Arc<SanitizedMatrix>],
        weights: [f64; 6],
        len: usize,
        seed: u64,
    ) -> Self {
        let release_zipf = Zipf::new(targets.len(), 1.1);
        let slot_zipfs: Vec<Vec<Zipf>> = targets
            .iter()
            .map(|t| {
                t.pools
                    .iter()
                    .map(|p| Zipf::new(p.len().max(1), 1.1))
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 0xA11A);
        let mut items = Vec::with_capacity(len);
        let mut ranges = Vec::new();
        for _ in 0..len {
            let release = release_zipf.sample(&mut rng);
            let mut u = rng.unit();
            let kind = weights.iter().position(|&w| {
                u -= w;
                u < 0.0
            });
            let kind = kind.unwrap_or(5);
            let slot = if kind == 0 {
                let (lo, hi) = random_box(&targets[release].dims, &mut rng);
                let value = match reference(
                    &matrices[release],
                    &QueryPlan::Range {
                        lo: lo.clone(),
                        hi: hi.clone(),
                    },
                ) {
                    Answer::Value { value } => value,
                    other => panic!("range answered {other:?}"),
                };
                ranges.push(RangeItem {
                    lo: pack(&lo),
                    hi: pack(&hi),
                    value,
                });
                ranges.len() - 1
            } else {
                slot_zipfs[release][kind].sample(&mut rng)
            };
            items.push(Item {
                release: release as u8,
                kind: kind as u8,
                slot: slot as u32,
            });
        }
        AnalystMix {
            targets,
            items,
            ranges,
        }
    }
}

impl Mix for AnalystMix {
    fn request(&self, i: u64) -> (Request, Tag) {
        let at = (i % self.items.len() as u64) as usize;
        let item = self.items[at];
        let target = &self.targets[item.release as usize];
        let plan = if item.kind == 0 {
            let r = &self.ranges[item.slot as usize];
            let d = target.dims.len();
            let unpack = |v: &[u8; 6]| v[..d].iter().map(|&x| usize::from(x)).collect();
            QueryPlan::Range {
                lo: unpack(&r.lo),
                hi: unpack(&r.hi),
            }
        } else {
            target.pools[item.kind as usize][item.slot as usize].clone()
        };
        let req = Request::Plan {
            release: target.name.clone(),
            plan,
        };
        (
            req,
            Tag {
                plan: at as u64,
                ctx: 0,
            },
        )
    }

    fn check(&self, tag: Tag, answer: &Answer, _received_ns: u64) -> bool {
        let item = self.items[tag.plan as usize];
        if item.kind == 0 {
            let want = self.ranges[item.slot as usize].value;
            matches!(answer, Answer::Value { value } if value.to_bits() == want.to_bits())
        } else {
            let target = &self.targets[item.release as usize];
            same(answer, &target.refs[item.kind as usize][item.slot as usize])
        }
    }
}

/// Live-frontier bookkeeping shared by the series curator and the
/// analysts: `published` trails each publish (a lower bound on what an
/// answer may reflect), `announced` leads it (an upper bound).
#[derive(Debug, Default)]
pub struct Frontier {
    /// Newest epoch whose publish has returned.
    pub published: AtomicU64,
    /// Newest epoch whose publish has started.
    pub announced: AtomicU64,
}

/// Which pool release epoch `t` carries: a seeded hash of `t`, so two
/// epochs share a release by chance, never at a fixed distance.
pub fn epoch_slot(seed: u64, t: u64, pool: usize) -> usize {
    Rng::new(seed, t).below(pool)
}

/// Marks a first-answer slot no answer has reached yet.
const NONE: u64 = u64::MAX;

/// The series mix: `Window{LastK:3}` plans (skipping the encoded-answer
/// memo) beside `Range`/`Marginal` plans on `series@t`, with `t` drawn
/// recency-skewed from the live frontier. Epoch `t` carries pool release
/// [`epoch_slot`]`(t)`, so every answer has a precomputed reference.
/// The `Total` window keeps its answers per epoch, so its answer names
/// the exact epochs it read; the other windows sum theirs.
pub struct SeriesMix {
    series: String,
    frontier: Arc<Frontier>,
    seed: u64,
    /// Seed of [`epoch_slot`].
    slots: u64,
    /// Window inner plans and merges.
    inner: Vec<(QueryPlan, WindowMerge)>,
    /// `window_refs[j][t]`: window `j` at frontier `t`.
    window_refs: Vec<Vec<Answer>>,
    /// Per-epoch plans (ranges, then marginals).
    direct: Vec<QueryPlan>,
    /// `direct_refs[r][j]`: plan `j` on pool release `r`.
    direct_refs: Vec<Vec<Answer>>,
    ages: Zipf,
    /// Age at or past which a per-epoch plan counts as old.
    old_age: usize,
    /// Per-epoch plans sent, and how many of them were old.
    direct_sent: AtomicU64,
    direct_old: AtomicU64,
    /// Earliest receipt of a window answer reflecting frontier `t`.
    first: Vec<AtomicU64>,
    /// Whether an answer read epoch `t`.
    touched: Vec<AtomicBool>,
}

/// Share of window plans in the series mix (an assumption); the rest
/// go to per-epoch ranges and marginals. A window costs several times a
/// per-epoch plan, so at a half share the median plan latency would sit
/// on the boundary between the two and flip from run to run; at a
/// quarter it sits inside the per-epoch plans, queued behind windows,
/// rebuilds and publishes.
pub const WINDOW_SHARE: f64 = 0.25;

impl SeriesMix {
    /// A mix over `series` whose epochs carry `pool` releases (reference
    /// matrices) as [`epoch_slot`] under `slots` picks them, with ages
    /// drawn Zipf(`skew`) over `0..max_age` (ages from `old_age` on are
    /// counted) and room for `max_epochs` epochs.
    pub fn new(
        series: &str,
        pool: &[Arc<SanitizedMatrix>],
        slots: u64,
        frontier: Arc<Frontier>,
        (skew, max_age, old_age): (f64, usize, usize),
        max_epochs: usize,
        seed: u64,
    ) -> Self {
        let dims = pool[0].matrix().shape().dims().to_vec();
        let mut rng = Rng::new(seed, 0x5E71E5);
        let mut direct: Vec<QueryPlan> = (0..64)
            .map(|_| {
                let (lo, hi) = random_box(&dims, &mut rng);
                QueryPlan::Range { lo, hi }
            })
            .collect();
        let d = dims.len();
        for keep in [vec![0, 1], vec![d - 2, d - 1]] {
            direct.push(QueryPlan::Marginal { keep });
        }
        let (lo, hi) = random_box(&dims, &mut rng);
        let inner = vec![
            (QueryPlan::Total, WindowMerge::PerEpoch),
            (QueryPlan::Marginal { keep: vec![0, 1] }, WindowMerge::Sum),
            (
                QueryPlan::Marginal {
                    keep: vec![d - 2, d - 1],
                },
                WindowMerge::Sum,
            ),
            (QueryPlan::Range { lo, hi }, WindowMerge::Sum),
        ];
        let direct_refs: Vec<Vec<Answer>> = pool
            .iter()
            .map(|m| direct.iter().map(|q| reference(m, q)).collect())
            .collect();
        let window_refs = inner
            .iter()
            .map(|(q, merge)| {
                let per_release: Vec<Answer> = pool.iter().map(|m| reference(m, q)).collect();
                (0..max_epochs as u64)
                    .map(|t| {
                        // Frontier t: epochs t-2, t-1, t, ascending.
                        let epochs: Vec<u64> = (t.saturating_sub(2)..=t).collect();
                        let answers = epochs
                            .iter()
                            .map(|&e| per_release[epoch_slot(slots, e, pool.len())].clone())
                            .collect();
                        dpod_query::merge_window_answers(*merge, &epochs, answers)
                            .expect("window merge")
                    })
                    .collect()
            })
            .collect();
        SeriesMix {
            series: series.to_string(),
            frontier,
            seed,
            slots,
            inner,
            window_refs,
            direct,
            direct_refs,
            ages: Zipf::new(max_age, skew),
            old_age,
            direct_sent: AtomicU64::new(0),
            direct_old: AtomicU64::new(0),
            first: (0..max_epochs).map(|_| AtomicU64::new(NONE)).collect(),
            touched: (0..max_epochs).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Receipt stamp of the first window answer that reflected an
    /// epoch `>= t`, for every `t` (suffix minimum over frontiers).
    pub fn first_answers(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .first
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        for t in (0..out.len().saturating_sub(1)).rev() {
            out[t] = out[t].min(out[t + 1]);
        }
        out
    }

    /// Per-epoch plans sent, and how many targeted an age of at least
    /// `old_age`.
    pub fn direct_counts(&self) -> (u64, u64) {
        (
            self.direct_sent.load(Ordering::Relaxed),
            self.direct_old.load(Ordering::Relaxed),
        )
    }

    /// How many epochs past `after` some checked answer read.
    pub fn touched_after(&self, after: u64) -> u64 {
        self.touched
            .iter()
            .skip(after as usize + 1)
            .filter(|t| t.load(Ordering::Relaxed))
            .count() as u64
    }

    fn touch(&self, t: u64) {
        if let Some(slot) = self.touched.get(t as usize) {
            slot.store(true, Ordering::Relaxed);
        }
    }
}

impl Mix for SeriesMix {
    fn request(&self, i: u64) -> (Request, Tag) {
        let mut rng = Rng::new(self.seed, i);
        let lo = self.frontier.published.load(Ordering::Acquire);
        if rng.unit() < WINDOW_SHARE {
            let j = rng.below(self.inner.len());
            let (inner, merge) = &self.inner[j];
            let plan = QueryPlan::Window {
                select: EpochSelector::LastK { k: 3 },
                merge: *merge,
                plan: Box::new(inner.clone()),
            };
            let req = Request::Plan {
                release: self.series.clone(),
                plan,
            };
            (
                req,
                Tag {
                    plan: j as u64,
                    ctx: lo,
                },
            )
        } else {
            let j = rng.below(self.direct.len());
            let age = self.ages.sample(&mut rng);
            let t = lo.saturating_sub(age as u64).max(1);
            self.direct_sent.fetch_add(1, Ordering::Relaxed);
            if age >= self.old_age {
                self.direct_old.fetch_add(1, Ordering::Relaxed);
            }
            let release = dpod_serve::series::epoch_entry_name(&self.series, t);
            let req = Request::Plan {
                release,
                plan: self.direct[j].clone(),
            };
            (
                req,
                Tag {
                    plan: (1 << 32) | j as u64,
                    ctx: t,
                },
            )
        }
    }

    fn check(&self, tag: Tag, answer: &Answer, received_ns: u64) -> bool {
        if tag.plan >> 32 == 1 {
            let r = epoch_slot(self.slots, tag.ctx, self.direct_refs.len());
            let ok = same(
                answer,
                &self.direct_refs[r][(tag.plan & 0xFFFF_FFFF) as usize],
            );
            if ok {
                self.touch(tag.ctx);
            }
            return ok;
        }
        // The answer must be the window at one frontier live between
        // send (`ctx`, published) and receipt (announced).
        let refs = &self.window_refs[tag.plan as usize];
        let hi = self.frontier.announced.load(Ordering::Acquire);
        for t in (tag.ctx..=hi).rev() {
            if refs.get(t as usize).is_some_and(|r| same(answer, r)) {
                if let Some(slot) = self.first.get(t as usize) {
                    slot.fetch_min(received_ns, Ordering::Relaxed);
                }
                for e in t.saturating_sub(2)..=t {
                    self.touch(e);
                }
                return true;
            }
        }
        false
    }
}
