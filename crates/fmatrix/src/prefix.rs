use crate::{AxisBox, DenseMatrix, Element, Shape};

/// Value types a [`PrefixSum`] can accumulate.
///
/// Integer counts accumulate in `i128` so that the `2^d`-corner
/// inclusion–exclusion never underflows; sanitized matrices accumulate in
/// `f64`.
pub trait SatValue:
    Copy
    + Default
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::fmt::Debug
    + 'static
{
}

impl SatValue for i128 {}
impl SatValue for f64 {}

/// Bytes up to which a block's passes run whole, one dimension after
/// another; larger blocks are split along their leading dimension.
/// Sized so that two sibling blocks stay in a core's L2 cache.
const BLOCK_BYTES: usize = 256 * 1024;

/// A `d`-dimensional summed-area table.
///
/// Stores, for every cell `c`, the sum of all entries in `[0, c]`; any box
/// sum is then recovered with `2^d` lookups by inclusion–exclusion. Every
/// mechanism uses this to obtain partition totals in `O(2^d)` instead of
/// `O(volume)`, and the query evaluator uses it for exact true answers.
///
/// Build cost: `O(d · size)` additions in one cache-blocked sweep (see
/// [`PrefixSum::build`]); memory: one accumulator per cell and no scratch
/// beyond the table itself.
///
/// **Summation order.** The table is defined by one running-sum pass per
/// dimension with extent > 1, in order `0 → d−1`; within a pass each cell
/// becomes `acc + raw`, where `acc` is its already-updated predecessor
/// along that dimension and `raw` its value after the earlier passes. The
/// blocked build performs exactly these additions, in this order and with
/// these operands, for every cell, so `f64` tables are bit-identical to a
/// plain pass-by-pass sweep.
///
/// ```
/// use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum, Shape};
/// let m = DenseMatrix::<u64>::from_vec(
///     Shape::new(vec![2, 2]).unwrap(), vec![1, 2, 3, 4]).unwrap();
/// let p = PrefixSum::from_counts(&m);
/// assert_eq!(p.box_sum(&AxisBox::full(m.shape())), 10);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixSum<A> {
    shape: Shape,
    table: Vec<A>,
}

impl<A: SatValue> PrefixSum<A> {
    /// Builds a table from any dense matrix via an element conversion.
    ///
    /// One cache-blocked sweep: while a block is larger than a cache
    /// budget (256 KiB), the pass along its leading dimension streams
    /// slab `k` as `slab[k−1] + slab[k]` (whole slices, which vectorize;
    /// at the top level the conversion is fused into this pass), and slab
    /// `k−1` — now final in that dimension — is finished recursively
    /// before the sweep moves on. Blocks within the budget run their
    /// remaining passes in cache. Every element sees the passes in order
    /// `0 → d−1`, as the type-level contract requires; scratch memory is
    /// zero.
    pub fn build<T: Element>(matrix: &DenseMatrix<T>, conv: impl Fn(T) -> A) -> Self {
        let shape = matrix.shape().clone();
        let mut table = vec![A::default(); shape.size()];
        // An extent-1 dimension has no pass and leaves the layout of the
        // others unchanged, so the sweep only sees the rest.
        let dims: Vec<usize> = shape.dims().iter().copied().filter(|&e| e > 1).collect();
        sweep_converting(&mut table, matrix.as_slice(), &conv, &dims);
        PrefixSum { shape, table }
    }

    /// The shape this table was built over.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The table in row-major order: entry `c` holds the sum over the
    /// box `[0, c]` (inclusive).
    #[inline]
    pub fn as_slice(&self) -> &[A] {
        &self.table
    }

    /// Sum of all entries with coordinates `≤ coords` component-wise
    /// (inclusive). Returns the zero value when any coordinate is `None`
    /// (used internally for the `lo − 1` corners).
    #[inline]
    fn corner(&self, coords: &[Option<usize>]) -> A {
        let mut idx = 0usize;
        for (i, c) in coords.iter().enumerate() {
            match c {
                None => return A::default(),
                Some(v) => idx += v * self.shape.strides()[i],
            }
        }
        self.table[idx]
    }

    /// Sum of the matrix entries inside the half-open box `b`.
    ///
    /// # Panics
    /// Debug-asserts that the box fits the domain.
    pub fn box_sum(&self, b: &AxisBox) -> A {
        debug_assert!(b.fits(&self.shape), "box must fit the table domain");
        if b.is_empty() {
            return A::default();
        }
        let d = self.shape.ndim();
        debug_assert!(d <= 32, "inclusion-exclusion uses a u32 corner mask");
        let mut total = A::default();
        let mut corner = vec![None; d];
        // Inclusion–exclusion over the 2^d corners: bit i selects hi−1 (no
        // subtraction) vs lo−1 (subtract one step) in dimension i.
        for mask in 0..(1u32 << d) {
            let mut sign_negative = false;
            for (i, slot) in corner.iter_mut().enumerate() {
                if mask & (1 << i) == 0 {
                    *slot = Some(b.hi()[i] - 1);
                } else {
                    sign_negative ^= true;
                    *slot = b.lo()[i].checked_sub(1);
                }
            }
            let v = self.corner(&corner);
            total = if sign_negative { total - v } else { total + v };
        }
        total
    }
}

/// `true` when a block of `len` values is split rather than swept whole.
fn splits<A>(len: usize) -> bool {
    len * std::mem::size_of::<A>() > BLOCK_BYTES
}

/// `cur[j] = prev[j] + cur[j]`: one pass step between two adjacent slabs.
#[inline]
fn add_slab<A: SatValue>(prev: &[A], cur: &mut [A]) {
    for (c, &p) in cur.iter_mut().zip(prev) {
        *c = p + *c;
    }
}

/// Writes the summed-area table of `raw` (row-major, extents `dims`)
/// into `t`, converting each value on the way in.
fn sweep_converting<T: Copy, A: SatValue>(
    t: &mut [A],
    raw: &[T],
    conv: &impl Fn(T) -> A,
    dims: &[usize],
) {
    match dims.split_first() {
        Some((&extent, inner)) if !inner.is_empty() && splits::<A>(t.len()) => {
            let slab = t.len() / extent;
            for (dst, &src) in t[..slab].iter_mut().zip(&raw[..slab]) {
                *dst = conv(src);
            }
            for k in 1..extent {
                let (done, rest) = t.split_at_mut(k * slab);
                let prev = &mut done[(k - 1) * slab..];
                let src = &raw[k * slab..(k + 1) * slab];
                for ((c, &p), &r) in rest[..slab].iter_mut().zip(&*prev).zip(src) {
                    *c = p + conv(r);
                }
                sweep(prev, inner);
            }
            sweep(&mut t[(extent - 1) * slab..], inner);
        }
        _ => {
            for (dst, &src) in t.iter_mut().zip(raw) {
                *dst = conv(src);
            }
            sweep(t, dims);
        }
    }
}

/// Runs the passes for `dims` (outermost first) over the row-major block
/// `t` in place.
fn sweep<A: SatValue>(t: &mut [A], dims: &[usize]) {
    let Some((&extent, inner)) = dims.split_first() else {
        return;
    };
    if !inner.is_empty() && splits::<A>(t.len()) {
        let slab = t.len() / extent;
        for k in 1..extent {
            let (done, rest) = t.split_at_mut(k * slab);
            let prev = &mut done[(k - 1) * slab..];
            add_slab(prev, &mut rest[..slab]);
            sweep(prev, inner);
        }
        sweep(&mut t[(extent - 1) * slab..], inner);
        return;
    }
    // In cache: whole passes, one dimension after another.
    let mut stride = t.len();
    for &extent in dims {
        stride /= extent;
        for block in t.chunks_exact_mut(stride * extent) {
            if stride == 1 {
                for k in 1..extent {
                    block[k] = block[k - 1] + block[k];
                }
            } else {
                for k in 1..extent {
                    let (prev, cur) =
                        block[(k - 1) * stride..(k + 1) * stride].split_at_mut(stride);
                    add_slab(prev, cur);
                }
            }
        }
    }
}

impl PrefixSum<i128> {
    /// Builds a table over a raw count matrix.
    pub fn from_counts(matrix: &DenseMatrix<u64>) -> Self {
        PrefixSum::build(matrix, |v| v as i128)
    }

    /// Box sum as `u64`.
    ///
    /// # Panics
    /// Debug-asserts the sum is non-negative (always true for count tables).
    pub fn box_count(&self, b: &AxisBox) -> u64 {
        let s = self.box_sum(b);
        debug_assert!(s >= 0, "count table produced negative sum");
        s as u64
    }
}

impl PrefixSum<f64> {
    /// Builds a table over a sanitized (noisy) matrix.
    ///
    /// Floating-point SATs accumulate rounding error of order
    /// `ε_machine · size · magnitude`; for the ≤10⁷-cell matrices used here
    /// this is far below the Laplace noise floor.
    pub fn from_f64(matrix: &DenseMatrix<f64>) -> Self {
        PrefixSum::build(matrix, |v| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use rand::{Rng, SeedableRng};

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn matches_naive_2d() {
        let m = DenseMatrix::<u64>::from_vec(
            shape(&[3, 4]),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        )
        .unwrap();
        let p = PrefixSum::from_counts(&m);
        for lo0 in 0..3 {
            for hi0 in lo0..=3 {
                for lo1 in 0..4 {
                    for hi1 in lo1..=4 {
                        let b = AxisBox::new(vec![lo0, lo1], vec![hi0, hi1]).unwrap();
                        assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b), "box {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_naive_random_4d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let s = shape(&[4, 3, 5, 2]);
        let data: Vec<u64> = (0..s.size()).map(|_| rng.gen_range(0..20)).collect();
        let m = DenseMatrix::from_vec(s.clone(), data).unwrap();
        let p = PrefixSum::from_counts(&m);
        for _ in 0..200 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for d in 0..s.ndim() {
                let a = rng.gen_range(0..=s.dim(d));
                let b = rng.gen_range(0..=s.dim(d));
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let b = AxisBox::new(lo, hi).unwrap();
            assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b), "box {b:?}");
        }
    }

    #[test]
    fn f64_table_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = shape(&[6, 7]);
        let data: Vec<f64> = (0..s.size()).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let m = DenseMatrix::from_vec(s.clone(), data).unwrap();
        let p = PrefixSum::from_f64(&m);
        for _ in 0..100 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for d in 0..s.ndim() {
                let a = rng.gen_range(0..=s.dim(d));
                let b = rng.gen_range(0..=s.dim(d));
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let b = AxisBox::new(lo, hi).unwrap();
            let expected = m.box_sum_naive(&b);
            let got = p.box_sum(&b);
            assert!(
                (expected - got).abs() < 1e-9 * (1.0 + expected.abs()),
                "box {b:?}: naive {expected} vs SAT {got}"
            );
        }
    }

    #[test]
    fn one_dimensional() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[5]), vec![1, 2, 3, 4, 5]).unwrap();
        let p = PrefixSum::from_counts(&m);
        assert_eq!(p.box_count(&AxisBox::new(vec![1], vec![4]).unwrap()), 9);
        assert_eq!(p.box_count(&AxisBox::new(vec![0], vec![5]).unwrap()), 15);
        assert_eq!(p.box_count(&AxisBox::new(vec![2], vec![2]).unwrap()), 0);
    }

    #[test]
    fn empty_box_is_zero() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![1, 1, 1, 1]).unwrap();
        let p = PrefixSum::from_counts(&m);
        let empty = AxisBox::new(vec![1, 0], vec![1, 2]).unwrap();
        assert_eq!(p.box_count(&empty), 0);
    }

    #[test]
    fn singleton_dims() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[1, 3, 1]), vec![4, 5, 6]).unwrap();
        let p = PrefixSum::from_counts(&m);
        let b = AxisBox::new(vec![0, 1, 0], vec![1, 3, 1]).unwrap();
        assert_eq!(p.box_count(&b), 11);
    }
}
