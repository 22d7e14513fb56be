"""Morton ordering and KD-tree partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc.partition import (
    Partition,
    LIMB_BITS,
    kdtree_split,
    morton_limbs,
    morton_order,
    points_of_limbs,
)


def kdtree_split_oracle(centers, max_leaf):
    """The KD split one node at a time: an explicit stack, right child
    pushed first so leaves come out left to right."""
    pts = np.asarray(centers, dtype=np.float64)
    leaves = []
    stack = [np.arange(pts.shape[0], dtype=np.int64)]
    while stack:
        idx = stack.pop()
        if len(idx) <= max_leaf:
            leaves.append(idx)
            continue
        sub = pts[idx]
        extents = sub.max(axis=0) - sub.min(axis=0)
        coords = sub[:, int(np.argmax(extents))]
        n_left = (len(idx) + 1) // 2
        kth = np.partition(coords, n_left - 1)[n_left - 1]
        left = coords < kth
        # Equal-to-median points fill the left side in input order.
        ties = np.flatnonzero(coords == kth)[: n_left - int(left.sum())]
        left[ties] = True
        stack.append(idx[~left])
        stack.append(idx[left])
    return leaves


def interleave_oracle(x: int, y: int, z: int, bits: int) -> int:
    """Bit-at-a-time Morton interleave: x lowest, then y, then z."""
    code = 0
    for b in range(bits):
        code |= ((x >> b) & 1) << (3 * b)
        code |= ((y >> b) & 1) << (3 * b + 1)
        code |= ((z >> b) & 1) << (3 * b + 2)
    return code


def morton_codes(points, q):
    """Whole interleaved codes as Python ints, from the limbs."""
    return [sum(int(limb) << (LIMB_BITS * k) for k, limb in enumerate(row))
            for row in morton_limbs(points, q)]


class TestMortonCodes:
    def test_matches_bitwise_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 2**16, size=(300, 3), dtype=np.uint64)
        codes = morton_codes(pts, 16)
        for i in range(len(pts)):
            x, y, z = (int(v) for v in pts[i])
            assert codes[i] == interleave_oracle(x, y, z, 16)

    def test_trivial_values(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                       dtype=np.uint64)
        codes = morton_codes(pts, 4)
        assert list(codes) == [0, 1, 2, 4, 7]

    def test_limbs_match_python_ints_at_full_depth(self):
        """At q = 31 every limb is in use: the 93-bit codes equal exact
        big-int interleaving, and the points come back from the limbs."""
        rng = np.random.default_rng(1)
        q = 31
        pts = rng.integers(0, 2**q, size=(200, 3), dtype=np.int64)
        pts[:2] = [[0, 0, 0], [2**q - 1] * 3]
        exact = [interleave_oracle(*(int(v) for v in p), q) for p in pts]
        assert morton_codes(pts, q) == exact
        np.testing.assert_array_equal(points_of_limbs(morton_limbs(pts, q)), pts)

    def test_check_lattice_rejections(self):
        """`morton_limbs` checks its lattice (`check_lattice`): q outside
        [1, MAX_Q], a shape other than (N, 3), non-integer points and
        coordinates outside [0, 2^q) all raise."""
        zero = np.zeros((1, 3), dtype=np.int64)
        for q, points in [(0, zero), (32, zero),
                          (4, np.zeros((1, 2), dtype=np.int64)),
                          (4, np.zeros((1, 3))),  # floats
                          (4, np.array([[0, 16, 0]])),
                          (4, np.array([[0, -1, 0]]))]:
            with pytest.raises(ValueError):
                morton_limbs(points, q)


class TestMortonOrder:
    def test_origin_sorts_first(self):
        pts = np.array([[1, 0, 0], [0, 0, 0]], dtype=np.uint64)
        np.testing.assert_array_equal(morton_order(morton_limbs(pts, 8)), [1, 0])

    def test_matches_oracle_sort(self):
        """Depths on either side of each limb's 8 bits per axis."""
        rng = np.random.default_rng(3)
        for q in (1, 8, 9, 16, 17, 24, 25, 31):
            pts = rng.integers(0, 2**q, size=(500, 3), dtype=np.uint64)
            got = morton_order(morton_limbs(pts, q))
            keys = [interleave_oracle(*(int(v) for v in p), q) for p in pts]
            want = np.argsort(np.array(keys, dtype=object), kind="stable")
            np.testing.assert_array_equal(got, want, err_msg=f"q={q}")

    def test_stable_on_duplicates(self):
        pts = np.array([[5, 5, 5]] * 4 + [[1, 1, 1]] * 3, dtype=np.uint64)
        order = morton_order(morton_limbs(pts, 8))
        np.testing.assert_array_equal(order, [4, 5, 6, 0, 1, 2, 3])

    def test_deep_lattice_order(self):
        rng = np.random.default_rng(5)
        q = 25
        pts = rng.integers(0, 2**q, size=(400, 3), dtype=np.uint64)
        got = morton_order(morton_limbs(pts, q))
        keys = [interleave_oracle(*(int(v) for v in p), q) for p in pts]
        want = np.argsort(np.array(keys, dtype=object), kind="stable")
        np.testing.assert_array_equal(got, want)

    def test_rejects_out_of_range_bits(self):
        pts = np.zeros((2, 3), dtype=np.uint64)
        with pytest.raises(ValueError):
            morton_limbs(pts, 0)
        with pytest.raises(ValueError):
            morton_limbs(pts, 32)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=1, max_value=64),
    q=st.sampled_from([1, 4, 10, 16, 21, 22, 30]),
)
def test_morton_order_is_permutation_and_sorted(seed, n, q):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 2**q, size=(n, 3), dtype=np.uint64)
    order = morton_order(morton_limbs(pts, q))
    assert sorted(order) == list(range(n))
    keys = [interleave_oracle(*(int(v) for v in p), q) for p in pts[order]]
    assert all(a <= b for a, b in zip(keys, keys[1:]))


class TestKdtreeSplit:
    def test_leaf_sizes_balanced(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(1000, 3))
        part = kdtree_split(pts, 200)
        assert isinstance(part, Partition)
        sizes = [len(leaf) for leaf in part.leaves]
        assert sum(sizes) == 1000
        assert all(s <= 200 for s in sizes)
        # lower-median splits keep sibling sizes within one of each other,
        # so every leaf of this tree has size 125
        assert sizes == [125] * 8

    def test_all_indices_exactly_once(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(777, 3))
        part = kdtree_split(pts, 64)
        everything = np.concatenate(part.leaves)
        assert sorted(everything) == list(range(777))

    def test_no_split_needed(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(42, 3))
        part = kdtree_split(pts, 64)
        assert len(part.leaves) == 1
        np.testing.assert_array_equal(part.leaves[0], np.arange(42))

    def test_lower_median_split_counts(self):
        """Odd n puts the extra point on the left: ceil(n/2)."""
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(201, 3))
        part = kdtree_split(pts, 200)
        assert [len(leaf) for leaf in part.leaves] == [101, 100]

    def test_split_axis_is_widest_extent(self):
        pts = np.zeros((4, 3))
        pts[:, 1] = [0.0, 10.0, 20.0, 30.0]  # y much wider than x or z
        pts[:, 0] = [0.0, 0.1, 0.2, 0.3]
        part = kdtree_split(pts, 2)
        left, right = part.leaves
        assert pts[left, 1].max() <= pts[right, 1].min()

    def test_axis_tie_prefers_x(self):
        """Equal extents on x and y split on x."""
        pts = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
        ])
        part = kdtree_split(pts, 2)
        left, right = part.leaves
        assert set(pts[left, 0]) == {0.0}
        assert set(pts[right, 0]) == {1.0}

    def test_ties_at_median_fill_left_in_input_order(self):
        pts = np.zeros((6, 3))
        pts[:, 0] = [5.0, 1.0, 5.0, 5.0, 0.0, 5.0]
        part = kdtree_split(pts, 3)
        left, right = part.leaves
        # n_left = 3: takes 1.0, 0.0, then the first 5.0 by input position
        np.testing.assert_array_equal(np.sort(left), [0, 1, 4])
        np.testing.assert_array_equal(np.sort(right), [2, 3, 5])

    def test_identical_points_still_split(self):
        pts = np.tile([2.0, 3.0, 4.0], (201, 1))
        part = kdtree_split(pts, 200)
        assert [len(leaf) for leaf in part.leaves] == [101, 100]
        np.testing.assert_array_equal(part.leaves[0], np.arange(101))
        np.testing.assert_array_equal(part.leaves[1], np.arange(101, 201))

    def test_leaves_ordered_left_to_right(self):
        """1-D ramp: concatenated leaves must visit values in sorted order."""
        n = 512
        pts = np.zeros((n, 3))
        rng = np.random.default_rng(17)
        vals = np.arange(n, dtype=float)
        rng.shuffle(vals)
        pts[:, 0] = vals
        part = kdtree_split(pts, 32)
        seen = np.concatenate([np.sort(vals[leaf]) for leaf in part.leaves])
        np.testing.assert_array_equal(seen, np.arange(n, dtype=float))

    def test_max_leaf_one_rejected_only_if_invalid(self):
        with pytest.raises(ValueError):
            kdtree_split(np.zeros((3, 3)), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(500, 3))
        a = kdtree_split(pts, 60)
        b = kdtree_split(pts, 60)
        assert len(a.leaves) == len(b.leaves)
        for la, lb in zip(a.leaves, b.leaves):
            np.testing.assert_array_equal(la, lb)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=1, max_value=300),
    max_leaf=st.integers(min_value=1, max_value=64),
)
def test_kdtree_invariants(seed, n, max_leaf):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    part = kdtree_split(pts, max_leaf)
    assert all(1 <= len(leaf) <= max_leaf for leaf in part.leaves)
    assert sorted(np.concatenate(part.leaves)) == list(range(n))
    # sibling balance: no leaf smaller than half the cap unless the whole
    # tree is one leaf (lower-median splitting cannot produce one)
    if len(part.leaves) > 1:
        assert min(len(leaf) for leaf in part.leaves) >= max(1, max_leaf // 2)


def test_kdtree_matches_node_by_node_oracle():
    """The level-synchronous split gives the oracle's leaves, in order, on
    300 random clouds; every other cloud sits on a coarse lattice with
    repeated points, so medians and extents tie heavily."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        if seed % 2:
            pts = rng.integers(0, int(rng.integers(1, 5)), size=(n, 3)).astype(np.float64)
            pts[rng.random(n) < 0.3] = pts[0]
        else:
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0, size=3)
        max_leaf = int(rng.integers(1, 70))
        got = kdtree_split(pts, max_leaf).leaves
        want = kdtree_split_oracle(pts, max_leaf)
        assert len(got) == len(want), seed
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, err_msg=f"seed {seed}")
