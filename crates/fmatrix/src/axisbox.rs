use crate::{FmError, Result, Shape};
use serde::{Deserialize, Serialize};

/// A half-open axis-aligned orthotope `[lo, hi)` in cell coordinates.
///
/// This is the paper's *d-orthotope*: it serves both as a **partition** (a
/// group of frequency-matrix entries that receives a single noisy count) and
/// as a **range query** (Definition 3).
///
/// Invariant: `lo.len() == hi.len()` and `lo[i] <= hi[i]` for all `i`.
/// A box with `lo[i] == hi[i]` in any dimension is empty.
///
/// ```
/// use dpod_fmatrix::AxisBox;
/// let b = AxisBox::new(vec![0, 2], vec![3, 5]).unwrap();
/// assert_eq!(b.volume(), 9);
/// assert!(b.contains(&[2, 4]));
/// assert!(!b.contains(&[2, 5]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AxisBox {
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl AxisBox {
    /// Builds a box from inclusive lower and exclusive upper corners.
    ///
    /// # Errors
    /// [`FmError::DimensionMismatch`] when corner lengths differ;
    /// [`FmError::BoxOutOfDomain`] when `lo[i] > hi[i]` for some `i`.
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(FmError::DimensionMismatch {
                expected: lo.len(),
                got: hi.len(),
            });
        }
        if let Some((i, _)) = lo.iter().zip(&hi).enumerate().find(|(_, (l, h))| l > h) {
            return Err(FmError::BoxOutOfDomain {
                reason: format!("lo > hi in dimension {i}: lo={lo:?} hi={hi:?}"),
            });
        }
        Ok(AxisBox { lo, hi })
    }

    /// The box covering the entire domain of `shape`.
    pub fn full(shape: &Shape) -> Self {
        AxisBox {
            lo: vec![0; shape.ndim()],
            hi: shape.dims().to_vec(),
        }
    }

    /// A box covering the single cell at `coords`.
    pub fn cell(coords: &[usize]) -> Self {
        AxisBox {
            lo: coords.to_vec(),
            hi: coords.iter().map(|&c| c + 1).collect(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> &[usize] {
        &self.lo
    }

    /// Exclusive upper corner.
    #[inline]
    pub fn hi(&self) -> &[usize] {
        &self.hi
    }

    /// Side length (`hi − lo`) in dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> usize {
        self.hi[dim] - self.lo[dim]
    }

    /// Number of cells covered (product of extents). Zero if empty.
    #[inline]
    pub fn volume(&self) -> usize {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).product()
    }

    /// `true` when the box covers no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(&l, &h)| l == h)
    }

    /// `true` when the cell at `coords` lies inside the box.
    #[inline]
    pub fn contains(&self, coords: &[usize]) -> bool {
        debug_assert_eq!(coords.len(), self.ndim());
        coords
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&c, (&l, &h))| c >= l && c < h)
    }

    /// `true` when `other` is fully contained in `self`.
    pub fn contains_box(&self, other: &AxisBox) -> bool {
        debug_assert_eq!(other.ndim(), self.ndim());
        other.is_empty()
            || self
                .lo
                .iter()
                .zip(&self.hi)
                .zip(other.lo.iter().zip(&other.hi))
                .all(|((&sl, &sh), (&ol, &oh))| ol >= sl && oh <= sh)
    }

    /// `true` when the box lies entirely inside the domain of `shape`.
    pub fn fits(&self, shape: &Shape) -> bool {
        self.ndim() == shape.ndim() && self.hi.iter().zip(shape.dims()).all(|(&h, &d)| h <= d)
    }

    /// Intersection with `other`; `None` when the boxes do not overlap in
    /// at least one cell.
    pub fn intersect(&self, other: &AxisBox) -> Option<AxisBox> {
        debug_assert_eq!(other.ndim(), self.ndim());
        let mut lo = Vec::with_capacity(self.ndim());
        let mut hi = Vec::with_capacity(self.ndim());
        for i in 0..self.ndim() {
            let l = self.lo[i].max(other.lo[i]);
            let h = self.hi[i].min(other.hi[i]);
            if l >= h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(AxisBox { lo, hi })
    }

    /// Number of cells shared with `other`.
    pub fn overlap_volume(&self, other: &AxisBox) -> usize {
        self.intersect(other).map_or(0, |b| b.volume())
    }

    /// Splits the box in dimension `dim` at absolute coordinate `at`,
    /// returning `([lo, at), [at, hi))`.
    ///
    /// # Errors
    /// [`FmError::BoxOutOfDomain`] when `at` is outside `[lo[dim], hi[dim]]`.
    pub fn split_at(&self, dim: usize, at: usize) -> Result<(AxisBox, AxisBox)> {
        if at < self.lo[dim] || at > self.hi[dim] {
            return Err(FmError::BoxOutOfDomain {
                reason: format!(
                    "split point {at} outside [{}, {}] in dimension {dim}",
                    self.lo[dim], self.hi[dim]
                ),
            });
        }
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = at;
        right.lo[dim] = at;
        Ok((left, right))
    }

    /// Splits the box in dimension `dim` at the interior coordinates
    /// `cuts` (strictly increasing, each in `(lo[dim], hi[dim])`), producing
    /// `cuts.len() + 1` boxes.
    ///
    /// # Errors
    /// [`FmError::BoxOutOfDomain`] for out-of-range or non-increasing cuts.
    pub fn split_many(&self, dim: usize, cuts: &[usize]) -> Result<Vec<AxisBox>> {
        let mut prev = self.lo[dim];
        for &c in cuts {
            if c <= prev || c >= self.hi[dim] {
                return Err(FmError::BoxOutOfDomain {
                    reason: format!(
                        "cut {c} not strictly inside ({}, {}) or not increasing in dim {dim}",
                        prev, self.hi[dim]
                    ),
                });
            }
            prev = c;
        }
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut start = self.lo[dim];
        for &c in cuts.iter().chain(std::iter::once(&self.hi[dim])) {
            let mut piece = self.clone();
            piece.lo[dim] = start;
            piece.hi[dim] = c;
            out.push(piece);
            start = c;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: &[usize], hi: &[usize]) -> AxisBox {
        AxisBox::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn rejects_inverted_corners() {
        assert!(AxisBox::new(vec![2, 0], vec![1, 5]).is_err());
        assert!(AxisBox::new(vec![0], vec![1, 2]).is_err());
    }

    #[test]
    fn volume_and_empty() {
        assert_eq!(b(&[0, 0], &[3, 4]).volume(), 12);
        let empty = b(&[1, 2], &[1, 5]);
        assert!(empty.is_empty());
        assert_eq!(empty.volume(), 0);
    }

    #[test]
    fn containment() {
        let outer = b(&[0, 0], &[10, 10]);
        let inner = b(&[2, 3], &[4, 9]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        // Empty boxes are contained everywhere.
        assert!(inner.contains_box(&b(&[9, 9], &[9, 9])));
    }

    #[test]
    fn intersection_cases() {
        let a = b(&[0, 0], &[5, 5]);
        let c = b(&[3, 3], &[8, 8]);
        assert_eq!(a.intersect(&c), Some(b(&[3, 3], &[5, 5])));
        assert_eq!(a.overlap_volume(&c), 4);
        let disjoint = b(&[5, 0], &[9, 5]);
        assert_eq!(a.intersect(&disjoint), None);
        assert_eq!(a.overlap_volume(&disjoint), 0);
        // Touching at a corner is not overlapping (half-open semantics).
        let corner = b(&[5, 5], &[7, 7]);
        assert_eq!(a.intersect(&corner), None);
    }

    #[test]
    fn split_at_partitions_volume() {
        let a = b(&[0, 0], &[6, 4]);
        let (l, r) = a.split_at(0, 2).unwrap();
        assert_eq!(l, b(&[0, 0], &[2, 4]));
        assert_eq!(r, b(&[2, 0], &[6, 4]));
        assert_eq!(l.volume() + r.volume(), a.volume());
        // Degenerate splits at the boundary are allowed and yield an empty side.
        let (l2, r2) = a.split_at(0, 0).unwrap();
        assert!(l2.is_empty());
        assert_eq!(r2, a);
        assert!(a.split_at(0, 7).is_err());
    }

    #[test]
    fn split_many_produces_cover() {
        let a = b(&[0, 0], &[10, 3]);
        let parts = a.split_many(0, &[3, 7]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], b(&[0, 0], &[3, 3]));
        assert_eq!(parts[1], b(&[3, 0], &[7, 3]));
        assert_eq!(parts[2], b(&[7, 0], &[10, 3]));
        let total: usize = parts.iter().map(AxisBox::volume).sum();
        assert_eq!(total, a.volume());
        assert!(a.split_many(0, &[7, 3]).is_err(), "non-increasing cuts");
        assert!(a.split_many(0, &[0]).is_err(), "cut on the boundary");
        assert_eq!(a.split_many(0, &[]).unwrap(), vec![a.clone()]);
    }

    #[test]
    fn full_and_fits() {
        let s = Shape::new(vec![4, 6]).unwrap();
        let f = AxisBox::full(&s);
        assert_eq!(f, b(&[0, 0], &[4, 6]));
        assert!(f.fits(&s));
        assert!(!b(&[0, 0], &[4, 7]).fits(&s));
        assert!(!b(&[0], &[4]).fits(&s));
    }

    #[test]
    fn cell_box() {
        let c = AxisBox::cell(&[3, 4, 5]);
        assert_eq!(c.volume(), 1);
        assert!(c.contains(&[3, 4, 5]));
        assert!(!c.contains(&[3, 4, 6]));
    }
}
