//! Property-based tests for grids, partition sets and trees.

use dpod_fmatrix::{AxisBox, Shape};
use dpod_partition::{tree::TreeNode, Partitioning, UniformGrid, ValidationError};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..=9, 1..=4).prop_map(|d| Shape::new(d).unwrap())
}

/// Strategy: small cubes-ish shapes plus long-row shapes whose runs cross
/// 64-cell word boundaries of the coverage bitset.
fn arb_validation_shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        prop::collection::vec(1usize..=6, 1..=4),
        1usize..=3,
        1usize..=150,
    )
        .prop_map(|(long, dims, rows, cols)| {
            Shape::new(if long { vec![rows, cols] } else { dims }).unwrap()
        })
}

/// Every cell of `b` in row-major order, one coordinate vector each.
fn cells_of(b: &AxisBox) -> Vec<Vec<usize>> {
    (0..b.ndim()).fold(vec![Vec::new()], |prefixes, dim| {
        prefixes
            .iter()
            .flat_map(|p| {
                (b.lo()[dim]..b.hi()[dim]).map(move |x| {
                    let mut c = p.clone();
                    c.push(x);
                    c
                })
            })
            .collect()
    })
}

/// The per-cell reference for [`Partitioning::validate`]: every cell of
/// every box, one at a time, against a `bool` per domain cell.
fn validate_per_cell(p: &Partitioning) -> Result<(), ValidationError> {
    let domain = p.domain();
    let mut hit = vec![false; domain.size()];
    let mut covered = 0usize;
    for (i, b) in p.boxes().iter().enumerate() {
        if b.ndim() != domain.ndim() {
            return Err(ValidationError::DimensionMismatch { index: i });
        }
        if !b.fits(domain) {
            return Err(ValidationError::OutOfDomain { index: i });
        }
        for c in cells_of(b) {
            let idx = domain.flat_index(&c).unwrap();
            if hit[idx] {
                let first = p.boxes().iter().position(|o| o.contains(&c)).unwrap();
                return Err(ValidationError::Overlap { first, second: i });
            }
            hit[idx] = true;
            covered += 1;
        }
    }
    if covered != domain.size() {
        return Err(ValidationError::IncompleteCover {
            covered,
            expected: domain.size(),
        });
    }
    Ok(())
}

/// A valid split-tree partitioning: recursive binary splits whose
/// dimensions and cut points come from `seed`, leaves in DFS order.
fn tree_boxes(shape: &Shape, seed: u64) -> Vec<AxisBox> {
    fn grow(node: &mut TreeNode<()>, state: &mut u64) {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (*state >> 33) as usize;
        let d = node.bounds.ndim();
        let Some(dim) = (0..d)
            .map(|k| (r + k) % d)
            .find(|&k| node.bounds.extent(k) >= 2)
        else {
            return;
        };
        if r.is_multiple_of(5) {
            return;
        }
        let extent = node.bounds.extent(dim);
        let at = node.bounds.lo()[dim] + 1 + (r / 7) % (extent - 1);
        let (l, h) = node.bounds.split_at(dim, at).unwrap();
        node.children = vec![
            TreeNode::leaf(l, node.depth + 1, ()),
            TreeNode::leaf(h, node.depth + 1, ()),
        ];
        for c in &mut node.children {
            grow(c, state);
        }
    }
    let mut root = TreeNode::root(shape, ());
    let mut state = seed;
    grow(&mut root, &mut state);
    root.leaf_partitioning(shape.clone()).boxes().to_vec()
}

/// One way to break (or keep) a valid partitioning.
#[derive(Debug, Clone, Copy)]
enum Perturb {
    Keep,
    /// Grow a box by one cell into a neighbour (or duplicate it when it
    /// spans the dimension).
    Overlap,
    /// Shrink a box by one cell, or drop it when it is one cell thick.
    Gap,
    /// Push a box's upper corner past the domain.
    OutOfDomain,
    /// Add or remove one coordinate of a box.
    WrongDims,
}

fn perturb(shape: &Shape, boxes: &mut Vec<AxisBox>, how: Perturb, victim: usize, dim: usize) {
    let v = victim % boxes.len();
    let k = dim % shape.ndim();
    let (mut lo, mut hi) = (boxes[v].lo().to_vec(), boxes[v].hi().to_vec());
    match how {
        Perturb::Keep => return,
        Perturb::Overlap if hi[k] < shape.dim(k) => hi[k] += 1,
        Perturb::Overlap if lo[k] > 0 => lo[k] -= 1,
        Perturb::Overlap => {
            let copy = boxes[v].clone();
            boxes.insert((v + dim) % (boxes.len() + 1), copy);
            return;
        }
        Perturb::Gap if hi[k] - lo[k] > 1 => hi[k] -= 1,
        Perturb::Gap => {
            boxes.remove(v);
            return;
        }
        Perturb::OutOfDomain => hi[k] = shape.dim(k) + 1 + dim % 3,
        Perturb::WrongDims if dim.is_multiple_of(2) || lo.len() == 1 => {
            lo.push(0);
            hi.push(1);
        }
        Perturb::WrongDims => {
            lo.pop();
            hi.pop();
        }
    }
    boxes[v] = AxisBox::new(lo, hi).unwrap();
}

fn arb_perturb() -> impl Strategy<Value = Perturb> {
    (0usize..5).prop_map(|k| {
        [
            Perturb::Keep,
            Perturb::Overlap,
            Perturb::Gap,
            Perturb::OutOfDomain,
            Perturb::WrongDims,
        ][k]
    })
}

proptest! {
    /// Any uniform grid (with any requested granularity, including absurd
    /// ones) yields a valid partitioning of the domain.
    #[test]
    fn grids_always_partition(
        (shape, cells) in arb_shape().prop_flat_map(|s| {
            let d = s.ndim();
            (Just(s), prop::collection::vec(0usize..20, d))
        })
    ) {
        let g = UniformGrid::new(&shape, &cells).unwrap();
        prop_assert!(g.to_partitioning().validate().is_ok());
    }

    /// `locate` inverts the boundary structure: every domain coordinate maps
    /// to the interval that contains it.
    #[test]
    fn locate_is_consistent(
        (shape, m) in arb_shape().prop_flat_map(|s| (Just(s), 1usize..10))
    ) {
        let g = UniformGrid::isotropic(&shape, m);
        for dim in 0..shape.ndim() {
            for c in 0..shape.dim(dim) {
                let i = g.locate(dim, c);
                let b = g.boundaries(dim);
                prop_assert!(b[i] <= c && c < b[i + 1]);
            }
        }
    }

    /// Recursively splitting a root box along successive dimensions always
    /// maintains the split invariant and produces a valid leaf partitioning.
    #[test]
    fn random_axis_splits_keep_invariant(
        (shape, cut_fracs) in arb_shape().prop_flat_map(|s| {
            let d = s.ndim();
            (Just(s), prop::collection::vec(0.0f64..1.0, d))
        })
    ) {
        fn grow(node: &mut TreeNode<()>, fracs: &[f64], d: usize) {
            if node.depth >= d {
                return;
            }
            let dim = node.depth;
            let extent = node.bounds.extent(dim);
            if extent < 2 {
                return;
            }
            let at = node.bounds.lo()[dim]
                + 1
                + ((extent - 1) as f64 * fracs[dim]) as usize;
            let at = at.min(node.bounds.hi()[dim] - 1);
            let (l, r) = node.bounds.split_at(dim, at).unwrap();
            node.children = vec![
                TreeNode::leaf(l, node.depth + 1, ()),
                TreeNode::leaf(r, node.depth + 1, ()),
            ];
            for c in &mut node.children {
                grow(c, fracs, d);
            }
        }
        let d = shape.ndim();
        let mut root = TreeNode::root(&shape, ());
        grow(&mut root, &cut_fracs, d);
        prop_assert!(root.check_split_invariant().is_ok());
        prop_assert!(root.leaf_partitioning(shape).validate().is_ok());
    }

    /// Validation rejects any partitioning from which one box was removed
    /// (unless it was empty).
    #[test]
    fn validation_detects_missing_box(
        (shape, m, victim) in arb_shape().prop_flat_map(|s| {
            (Just(s), 2usize..5, any::<prop::sample::Index>())
        })
    ) {
        let g = UniformGrid::isotropic(&shape, m);
        let mut boxes: Vec<AxisBox> = g.iter_boxes().collect();
        if boxes.len() < 2 {
            return Ok(());
        }
        let removed = boxes.remove(victim.index(boxes.len()));
        let p = Partitioning::new_unchecked(shape, boxes);
        if removed.volume() > 0 {
            prop_assert!(p.validate().is_err());
        }
    }

    /// Run-based validation returns exactly the per-cell reference's
    /// `Result` — same variant, same indices, same counts — on valid grid
    /// and tree partitionings and on each of them broken one way.
    #[test]
    fn validate_matches_per_cell_reference(
        (shape, cells) in arb_validation_shape().prop_flat_map(|s| {
            let d = s.ndim();
            (Just(s), prop::collection::vec(1usize..8, d))
        }),
        use_tree in any::<bool>(),
        seed in any::<u64>(),
        how in arb_perturb(),
        victim in any::<usize>(),
        dim in any::<usize>(),
        rotate in any::<usize>(),
    ) {
        let mut boxes = if use_tree {
            tree_boxes(&shape, seed)
        } else {
            UniformGrid::new(&shape, &cells).unwrap().iter_boxes().collect()
        };
        let n = boxes.len();
        boxes.rotate_left(rotate % n);
        let valid = Partitioning::new_unchecked(shape.clone(), boxes.clone());
        prop_assert_eq!(valid.validate(), Ok(()));
        perturb(&shape, &mut boxes, how, victim, dim);
        let p = Partitioning::new_unchecked(shape, boxes);
        let expected = validate_per_cell(&p);
        if !matches!(how, Perturb::Keep) {
            prop_assert!(expected.is_err(), "{:?} left the partitioning valid", how);
        }
        prop_assert_eq!(p.validate(), expected);
    }
}
