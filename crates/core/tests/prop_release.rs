//! Property tests for the publication artifact: a release survives both
//! wire formats (serde JSON and the `DPRL` binary frame) bit-for-bit, and
//! the analyst-side rebuild answers every range query identically to the
//! curator-side original.

use dpod_core::{all_mechanisms, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{AxisBox, DenseMatrix, Shape};
use proptest::prelude::*;

/// Strategy: a small random count matrix (1–3 dims, each 1–9 cells).
fn arb_matrix() -> impl Strategy<Value = DenseMatrix<u64>> {
    prop::collection::vec(1usize..=9, 1..=3)
        .prop_map(|dims| Shape::new(dims).unwrap())
        .prop_flat_map(|shape| {
            let size = shape.size();
            prop::collection::vec(0u64..150, size)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every mechanism: artifact → JSON → artifact and artifact →
    /// DPRL bytes → artifact are identity, and the rebuilt sanitized
    /// matrix answers random range queries exactly like the original.
    #[test]
    fn release_round_trips_preserve_range_sums(
        (m, queries) in arb_matrix().prop_flat_map(|m| {
            let boxes = prop::collection::vec(arb_box_in(m.shape()), 1..8);
            (Just(m), boxes)
        }),
        eps in 0.1f64..2.0,
        seed in any::<u64>()
    ) {
        for mech in all_mechanisms() {
            let out = mech
                .sanitize(&m, Epsilon::new(eps).unwrap(), &mut dpod_dp::seeded_rng(seed))
                .unwrap_or_else(|e| panic!("{} failed: {e}", mech.name()));
            let artifact = PublishedRelease::from_sanitized(&out);

            // JSON wire format.
            let json = serde_json::to_string(&artifact).unwrap();
            let from_json: PublishedRelease = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&from_json, &artifact);

            // DPRL binary wire format.
            let bytes = artifact.to_bytes();
            let from_bytes = PublishedRelease::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&from_bytes, &artifact);

            // Analyst rebuild answers queries identically (bit-exact: the
            // frame stores IEEE-754 bit patterns, JSON shortest-round-trip
            // decimals).
            let rebuilt = from_bytes.into_sanitized().unwrap();
            for q in &queries {
                prop_assert_eq!(rebuilt.range_sum(q), out.range_sum(q),
                    "{} range_sum diverged on {:?}", mech.name(), q);
            }
            let rebuilt_json = from_json.into_sanitized().unwrap();
            for q in &queries {
                prop_assert_eq!(rebuilt_json.range_sum(q), out.range_sum(q),
                    "{} JSON range_sum diverged on {:?}", mech.name(), q);
            }
        }
    }
}

/// A broken partition release is refused on load with the same text as
/// ever, naming the same boxes: one case per validation failure, each
/// also matching `Partitioning::validate`'s own error.
#[test]
fn into_sanitized_rejects_broken_partitionings_with_pinned_text() {
    use dpod_core::ReleaseBody;
    use dpod_partition::{Partitioning, UniformGrid};

    let shape = Shape::new(vec![4, 6]).unwrap();
    let grid: Vec<(Vec<usize>, Vec<usize>)> = UniformGrid::new(&shape, &[2, 3])
        .unwrap()
        .iter_boxes()
        .map(|b| (b.lo().to_vec(), b.hi().to_vec()))
        .collect();
    let cases = [
        ("boxes 1 and 4 overlap", 4, (vec![1, 2], vec![4, 4])),
        (
            "boxes cover 22 of 24 domain cells",
            5,
            (vec![2, 4], vec![4, 5]),
        ),
        ("box 2 does not fit the domain", 2, (vec![0, 4], vec![2, 7])),
        (
            "box 1 has wrong dimensionality",
            1,
            (vec![0, 2, 0], vec![2, 4, 1]),
        ),
    ];
    for (text, victim, replacement) in cases {
        let mut boxes = grid.clone();
        boxes[victim] = replacement;
        let release = PublishedRelease {
            mechanism: "test".into(),
            epsilon: 0.5,
            domain: shape.dims().to_vec(),
            body: ReleaseBody::Partitions {
                counts: vec![1.0; boxes.len()],
                boxes: boxes.clone(),
            },
        };
        let err = release.into_sanitized().unwrap_err().to_string();
        assert_eq!(
            err,
            format!("invalid mechanism input: invalid partitioning: {text}")
        );
        let axis_boxes = boxes
            .into_iter()
            .map(|(lo, hi)| AxisBox::new(lo, hi).unwrap())
            .collect();
        let direct = Partitioning::new_unchecked(shape.clone(), axis_boxes)
            .validate()
            .unwrap_err();
        assert_eq!(direct.to_string(), text);
    }
}
