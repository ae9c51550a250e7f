from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuberips import hamming
from cuberips import (
    SpaceSpec,
    bit_positions,
    flip_bits,
    hamming_distance,
    neighbor_masks,
    neighborhood,
)

labels = st.integers(min_value=0, max_value=2**20)


def test_distance_examples():
    assert hamming_distance(0, 0) == 0
    assert hamming_distance(0b1010, 0b0110) == 2
    assert hamming_distance(0, 2**15) == 1
    assert hamming_distance(2**10 - 1, 0) == 10


def test_distance_rejects_negatives():
    with pytest.raises(ValueError):
        hamming_distance(-1, 3)
    with pytest.raises(ValueError):
        hamming_distance(3, -1)


@given(labels, labels)
def test_distance_symmetry_and_identity(x, y):
    assert hamming_distance(x, y) == hamming_distance(y, x)
    assert (hamming_distance(x, y) == 0) == (x == y)


@given(labels, labels, labels)
def test_distance_triangle_inequality(x, y, z):
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


@given(labels)
def test_bit_positions_decompose(x):
    pos = bit_positions(x)
    assert list(pos) == sorted(pos, reverse=True)
    assert sum(1 << p for p in pos) == x
    assert len(pos) == x.bit_count()


@given(labels, st.sets(st.integers(min_value=0, max_value=24), max_size=6))
def test_flip_bits_involution(x, positions):
    flipped = flip_bits(x, positions)
    assert hamming_distance(x, flipped) == len(positions)
    assert flip_bits(flipped, positions) == x


def test_space_spec_infers_width():
    assert SpaceSpec(m=12, r=2).n == 4
    assert SpaceSpec(m=16, r=2).n == 4
    assert SpaceSpec(m=17, r=2).n == 5
    assert SpaceSpec(m=1, r=0).n == 1


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(m=0, r=1)
    with pytest.raises(ValueError):
        SpaceSpec(m=4, r=-1)
    with pytest.raises(ValueError):
        SpaceSpec(m=9, r=1, n=3)  # 9 labels need 4 bits


def test_hypercube_constructor():
    space = SpaceSpec.hypercube(4, 2)
    assert (space.m, space.n, space.r) == (16, 4, 2)
    assert space.is_hypercube
    assert not SpaceSpec(m=12, r=2).is_hypercube
    with pytest.raises(ValueError):
        SpaceSpec.hypercube(0, 1)


def _brute_neighbors(space: SpaceSpec, v: int) -> set[int]:
    return {
        u
        for u in range(space.m)
        if u != v and hamming_distance(u, v) <= space.r
    }


@pytest.mark.parametrize("m,r", [(1, 0), (7, 1), (12, 2), (16, 3), (33, 2), (8, 5)])
def test_neighborhood_matches_brute_force(m, r):
    space = SpaceSpec(m=m, r=r)
    for v in range(m):
        assert neighborhood(space, v) == _brute_neighbors(space, v)
    # the byte gates count the flips without making them
    assert hamming._flip_count(space) == len(hamming._flips(space))


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(ValueError):
        neighborhood(SpaceSpec(m=8, r=1), 8)


@pytest.mark.parametrize("m,r", [(5, 0), (12, 2), (32, 4)])
def test_neighbor_masks_agree_with_neighborhood(m, r):
    space = SpaceSpec(m=m, r=r)
    masks = neighbor_masks(space)
    assert len(masks) == m
    for v in range(m):
        assert masks[v] == sum(1 << u for u in neighborhood(space, v))
