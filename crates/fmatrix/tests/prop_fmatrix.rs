//! Property-based tests for the frequency-matrix substrate.

use dpod_fmatrix::{entropy, AxisBox, DenseMatrix, PrefixSum, Shape};
use proptest::prelude::*;

/// Strategy: a small random shape (1–4 dims, each 1–8 cells).
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..=8, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus a matching random count buffer.
fn arb_matrix() -> impl Strategy<Value = DenseMatrix<u64>> {
    arb_shape().prop_flat_map(|shape| {
        let size = shape.size();
        prop::collection::vec(0u64..50, size)
            .prop_map(move |data| DenseMatrix::from_vec(shape.clone(), data).unwrap())
    })
}

/// Strategy: a random box inside `shape`.
fn arb_box_in(shape: &Shape) -> impl Strategy<Value = AxisBox> {
    let dims = shape.dims().to_vec();
    dims.iter()
        .map(|&d| (0..=d, 0..=d))
        .collect::<Vec<_>>()
        .prop_map(|corners| {
            let lo: Vec<usize> = corners.iter().map(|&(a, b)| a.min(b)).collect();
            let hi: Vec<usize> = corners.iter().map(|&(a, b)| a.max(b)).collect();
            AxisBox::new(lo, hi).unwrap()
        })
}

/// The summed-area table as the strided pass-by-pass loop builds it:
/// for each dimension in order, a running sum along every line of that
/// dimension, `acc + raw` at each step. The blocked build must
/// reproduce it exactly (it is kept here as the oracle only).
fn strided_prefix<A: Copy + std::ops::Add<Output = A>>(shape: &Shape, mut table: Vec<A>) -> Vec<A> {
    let size = shape.size();
    for dim in 0..shape.ndim() {
        let stride = shape.strides()[dim];
        let extent = shape.dim(dim);
        if extent == 1 {
            continue;
        }
        let block = stride * extent;
        let mut base = 0;
        while base < size {
            for off in 0..stride {
                let mut idx = base + off;
                let mut acc = table[idx];
                for _ in 1..extent {
                    idx += stride;
                    acc = acc + table[idx];
                    table[idx] = acc;
                }
            }
            base += block;
        }
    }
    table
}

/// Strategy: 1–7 dims with frequent extent-1 axes, sized on both sides
/// of the prefix build's cache-block cutoff (256 KiB: 32 768 `f64` or
/// 16 384 `i128` cells) — small shapes up to 4⁷ cells, large ones from
/// 16 385 to 400 000 (so blocks split again below the top level).
fn arb_blocking_shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        prop::collection::vec(1usize..=4, 1..=7),
        prop::collection::vec(1usize..=16, 1..=7).prop_filter("16k < size <= 400k", |d| {
            (16_385..=400_000).contains(&d.iter().product::<usize>())
        }),
    )
        .prop_map(|(large, small_dims, large_dims)| {
            Shape::new(if large { large_dims } else { small_dims }).unwrap()
        })
}

/// Mixed-sign values spanning 24 decimal orders of magnitude (with the
/// odd signed zero), so any change in summation order changes bits.
fn mixed_values(size: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..size)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            let exponent = (x % 25) as i32 - 12;
            match x % 97 {
                0 => 0.0,
                1 => -0.0,
                _ if x & (1 << 7) == 0 => mantissa * 10f64.powi(exponent),
                _ => -mantissa * 10f64.powi(exponent),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked `f64` table is bit-identical to the strided oracle on
    /// every cell.
    #[test]
    fn blocked_f64_table_is_bit_identical_to_strided(
        shape in arb_blocking_shape(),
        seed in any::<u64>(),
    ) {
        let values = mixed_values(shape.size(), seed);
        let m = DenseMatrix::from_vec(shape.clone(), values.clone()).unwrap();
        let blocked = PrefixSum::from_f64(&m);
        let oracle = strided_prefix(&shape, values);
        for (i, (got, want)) in blocked.as_slice().iter().zip(&oracle).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?}: cell {} is {} (oracle {})", shape.dims(), i, got, want
            );
        }
    }

    /// The blocked `i128` count table equals the strided oracle.
    #[test]
    fn blocked_count_table_matches_strided(
        shape in arb_blocking_shape(),
        seed in any::<u64>(),
    ) {
        let counts: Vec<u64> = mixed_values(shape.size(), seed)
            .iter()
            .map(|v| (v.abs() * 1e9) as u64)
            .collect();
        let m = DenseMatrix::from_vec(shape.clone(), counts.clone()).unwrap();
        let blocked = PrefixSum::from_counts(&m);
        let oracle = strided_prefix(&shape, counts.iter().map(|&c| c as i128).collect());
        prop_assert!(blocked.as_slice() == oracle.as_slice(), "{:?}", shape.dims());
    }
}

proptest! {
    /// Prefix sums agree with naive box sums on arbitrary matrices and boxes.
    #[test]
    fn prefix_sum_matches_naive(
        (m, b) in arb_matrix().prop_flat_map(|m| {
            let bx = arb_box_in(m.shape());
            (Just(m), bx)
        })
    ) {
        let p = PrefixSum::from_counts(&m);
        prop_assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b));
    }

    /// flat_index and coords are mutual inverses over the whole domain.
    #[test]
    fn flat_index_roundtrip(shape in arb_shape()) {
        for i in 0..shape.size() {
            let c = shape.coords(i);
            prop_assert_eq!(shape.flat_index(&c).unwrap(), i);
        }
    }

    /// iter_coords enumerates exactly size() distinct coordinates in
    /// flat-index order.
    #[test]
    fn iter_coords_is_exhaustive_and_ordered(shape in arb_shape()) {
        let coords: Vec<_> = shape.iter_coords().collect();
        prop_assert_eq!(coords.len(), shape.size());
        for (i, c) in coords.iter().enumerate() {
            prop_assert_eq!(shape.flat_index(c).unwrap(), i);
        }
    }

    /// Splitting a box along any dimension preserves total volume and
    /// box sums.
    #[test]
    fn split_preserves_volume_and_sum(
        (m, b, frac) in arb_matrix().prop_flat_map(|m| {
            let bx = arb_box_in(m.shape());
            (Just(m), bx, 0.0f64..1.0)
        })
    ) {
        let dim = 0;
        let at = b.lo()[dim]
            + ((b.extent(dim) as f64) * frac) as usize;
        let (l, r) = b.split_at(dim, at).unwrap();
        prop_assert_eq!(l.volume() + r.volume(), b.volume());
        let p = PrefixSum::from_counts(&m);
        prop_assert_eq!(p.box_count(&l) + p.box_count(&r), p.box_count(&b));
    }

    /// Intersection volume is symmetric and bounded by both operands.
    #[test]
    fn intersection_is_symmetric_and_bounded(
        (a, b) in arb_shape().prop_flat_map(|s| {
            (arb_box_in(&s), arb_box_in(&s))
        })
    ) {
        let v1 = a.overlap_volume(&b);
        let v2 = b.overlap_volume(&a);
        prop_assert_eq!(v1, v2);
        prop_assert!(v1 <= a.volume());
        prop_assert!(v1 <= b.volume());
    }

    /// Entropy of the entry distribution is within [0, log2(size)], and
    /// coarsening to a 2-way partition never increases it.
    #[test]
    fn entropy_bounds_and_coarsening(m in arb_matrix()) {
        let h = entropy::matrix_entropy(&m);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (m.len() as f64).log2() + 1e-9);

        let full = AxisBox::full(m.shape());
        let mid = m.shape().dim(0) / 2;
        if mid > 0 {
            let (l, r) = full.split_at(0, mid).unwrap();
            let p = PrefixSum::from_counts(&m);
            let hp = entropy::partition_entropy(&p, &[l, r]);
            prop_assert!(hp <= h + 1e-9, "coarse {hp} > fine {h}");
        }
    }

    /// from_points totals match the number of points.
    #[test]
    fn from_points_conserves_mass(
        (shape, pts) in arb_shape().prop_flat_map(|s| {
            let d = s.ndim();
            let pts = prop::collection::vec(
                prop::collection::vec(0usize..20, d), 0..100);
            (Just(s), pts)
        })
    ) {
        let m = DenseMatrix::<u64>::from_points(shape, pts.iter());
        prop_assert_eq!(m.total_u64() as usize, pts.len());
    }
}
