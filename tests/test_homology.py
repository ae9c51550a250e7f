from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberips import homology
from cuberips import (
    Skeleton,
    SpaceSpec,
    betti_numbers,
    betti_numbers_dense,
    betti_single_dim,
    boundary_matrix,
    connected_components,
    dense_rank_oracle,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    gf_rank,
    kneser_independence_complex,
    random_flag_skeleton,
    simplex_rank,
    skeleton_from_facets,
    three_sphere_count,
)

RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def _triangle_circle() -> Skeleton:
    return skeleton_from_facets([(0, 1), (1, 2), (0, 2)])


def test_edge_boundary_column_signs():
    skel = skeleton_from_facets([(0, 1)])
    col2 = boundary_matrix(skel, 1, p=2).column(0)
    assert col2 == [(1, 1), (0, 1)]
    col3 = boundary_matrix(skel, 1, p=3).column(0)
    assert col3 == [(1, 1), (0, 2)]  # head +1, tail -1 mod 3


def test_solid_tetrahedron_triangle_boundary_rank():
    skel = skeleton_from_facets([(0, 1, 2, 3)])
    mat = boundary_matrix(skel, 2)
    assert (mat.n_rows, mat.n_cols) == (6, 4)
    assert dense_rank_oracle(mat) == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_boundary_of_boundary_is_zero(q3r2, p):
    for k in (2, 3):
        hi = boundary_matrix(q3r2, k, p=p).to_dense()
        lo = boundary_matrix(q3r2, k - 1, p=p).to_dense()
        assert not ((lo @ hi) % p).any()


def test_column_agrees_with_dense(q3r2):
    mat = boundary_matrix(q3r2, 2, p=3)
    dense = mat.to_dense()
    for j in range(mat.n_cols):
        col = np.zeros(mat.n_rows, dtype=np.int64)
        for r, c in mat.column(j):
            col[r] = c
        assert (dense[:, j] == col).all()


def test_boundary_matrix_dimension_bounds(q3r2):
    with pytest.raises(ValueError):
        boundary_matrix(q3r2, 0)
    with pytest.raises(ValueError):
        boundary_matrix(q3r2, q3r2.dim_cap + 1)
    with pytest.raises(ValueError):
        boundary_matrix(q3r2, 1, p=4)


def test_face_closure_is_checked():
    base = skeleton_from_facets([(0, 1, 2, 3)])
    doctored = Skeleton(
        verts=base.verts,
        simplices=[base.simplices[0], base.simplices[1][:-1]]
        + base.simplices[2:],
        dim_cap=base.dim_cap,
        complete_flag=base.complete_flag,
    )
    with pytest.raises(ValueError):
        boundary_matrix(doctored, 2)


def test_facet_rows_of_a_fourteen_vertex_layer_at_128_vertices():
    # Layer 13 of Q7 at scale 3: every rank key fits in 63 bits, though
    # C(128, 15) does not.
    row = tuple(range(114, 128))
    faces = [row[:t] + row[t + 1 :] for t in range(len(row))]
    ranks = [simplex_rank(face, 128).rank for face in faces]
    keys_lo = np.array(sorted(ranks), dtype=np.int64)
    got = homology._facet_row_indices(np.array([row], dtype=np.uint32), keys_lo, 128)
    assert got.tolist() == [[sorted(ranks).index(k) for k in ranks]]


def _random_index(rng, n_rows, n_cols, p):
    """A random sparse matrix as (entries, starts) and as a dense array."""
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    entries, starts = [], [0]
    for c in range(n_cols):
        size = int(rng.integers(0, min(n_rows, 3) + 1))
        rows = np.sort(rng.choice(n_rows, size=size, replace=False))
        signs = rng.integers(0, 2, size=size)
        entries += (2 * rows + signs).tolist()
        starts.append(len(entries))
        dense[rows, c] = np.where(signs, p - 1, 1)
    return np.array(entries, dtype=np.int64), np.array(starts, dtype=np.int64), dense


def _check_reduction(entries, starts, p, dense, cleared=()):
    # Every left-to-right reduction ends with the same lowest rows: row i is
    # one exactly when the rows from i down have a larger rank than those
    # from i+1 down.
    rank, pivot_rows = homology._reduce_index(entries, starts, p, cleared)
    assert rank == gf_rank(dense, p) == len(pivot_rows)
    assert set(pivot_rows) == {
        i for i in range(len(dense)) if gf_rank(dense[i:], p) > gf_rank(dense[i + 1 :], p)
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_index_matches_dense_rank(p):
    # Few rows and many columns: most columns collide with a pivot.
    rng = np.random.default_rng(40 + p)
    for _ in range(40):
        n_rows = int(rng.integers(1, 17))
        entries, starts, dense = _random_index(rng, n_rows, int(rng.integers(1, 50)), p)
        _check_reduction(entries, starts, p, dense)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_index_skips_cleared_columns(p):
    # Each cleared column is the sum of two earlier columns with disjoint
    # rows, so leaving it out keeps the rank and the lowest rows.
    rng = np.random.default_rng(50 + p)
    for _ in range(30):
        entries, starts, dense = _random_index(rng, 16, 24, p)
        cols = [entries[starts[c] : starts[c + 1]] for c in range(24)]
        cleared = []
        for _ in range(12):
            a, b = rng.choice(len(cols), size=2, replace=False)
            if set(cols[a] >> 1) & set(cols[b] >> 1):
                continue
            cleared.append(len(cols))
            cols.append(np.sort(np.concatenate([cols[a], cols[b]])))
            dense = np.column_stack([dense, dense[:, a] + dense[:, b]])
        entries = np.concatenate(cols)
        starts = np.concatenate([[0], np.cumsum([len(col) for col in cols])])
        _check_reduction(entries, starts, p, dense)
        _check_reduction(entries, starts, p, dense, cleared)


def test_betti_known_small_complexes():
    two_points = flag_skeleton_from_graph([0, 1], [], 1)
    assert betti_numbers(two_points).reduced_betti == (1, 0)

    circle = _triangle_circle()
    assert betti_numbers(circle).reduced_betti == (0, 1)

    sphere = skeleton_from_facets(combinations(range(4), 3))
    assert betti_numbers(sphere).reduced_betti == (0, 0, 1)

    octahedron = kneser_independence_complex(4, 3)
    assert betti_numbers(octahedron, maxdim=2).reduced_betti == (0, 0, 1)

    empty = flag_skeleton_from_graph([], [], 2)
    bv = betti_numbers(empty)
    assert bv.reduced_betti == (0, 0, 0)
    assert bv.trusted_through == 2


def test_betti_cube_graph_circles():
    skel = enumerate_skeleton(SpaceSpec.hypercube(3, 1), 2)
    assert betti_numbers(skel, maxdim=1).reduced_betti == (0, 5)
    skel4 = enumerate_skeleton(SpaceSpec.hypercube(4, 1), 2)
    assert betti_numbers(skel4, maxdim=1).reduced_betti == (0, 17)


def test_field_dependence_on_projective_plane():
    rp2 = skeleton_from_facets(RP2_FACETS)
    assert betti_numbers(rp2, p=2).reduced_betti == (0, 1, 1)
    assert betti_numbers(rp2, p=3).reduced_betti == (0, 0, 0)
    assert betti_numbers(rp2, p=5).reduced_betti == (0, 0, 0)


def test_betti_validation(q3r2):
    with pytest.raises(ValueError):
        betti_numbers(q3r2, maxdim=q3r2.dim_cap + 1)
    with pytest.raises(ValueError):
        betti_numbers(q3r2, maxdim=-1)
    with pytest.raises(ValueError):
        betti_numbers(q3r2, p=9)


def test_trusted_through_on_truncated_skeleton():
    space = SpaceSpec.hypercube(3, 2)
    truncated = enumerate_skeleton(space, 2)
    bv = betti_numbers(truncated, maxdim=2)
    assert bv.trusted_through == 1
    assert bv.is_trusted(1) and not bv.is_trusted(2)
    full = betti_numbers(enumerate_skeleton(space, 3), maxdim=2)
    assert full.trusted_through == 2
    assert bv.reduced_betti[:2] == full.reduced_betti[:2]


def test_single_dim_known_values():
    assert betti_single_dim(SpaceSpec.hypercube(5, 2), 3) == 49
    assert betti_single_dim(SpaceSpec.hypercube(4, 3), 7) == 1
    with pytest.raises(ValueError):
        betti_single_dim(SpaceSpec.hypercube(3, 1), 0)


@pytest.mark.parametrize("m,r", [(8, 2), (12, 2), (16, 1), (10, 3)])
@pytest.mark.parametrize("p", [2, 3])
def test_single_dim_agrees_with_full_vector(m, r, p):
    space = SpaceSpec(m=m, r=r)
    for i in (1, 2, 3):
        skel = enumerate_skeleton(space, i + 1)
        expect = betti_numbers(skel, p=p, maxdim=i).reduced_betti[i]
        assert betti_single_dim(space, i, p=p) == expect


@pytest.mark.parametrize("m", [65, 100, 128, 129, 200])
def test_single_dim_matches_closed_form_across_words(m):
    # above 64 vertices the candidate bitsets span several uint64 words
    assert betti_single_dim(SpaceSpec(m=m, r=2), 3) == three_sphere_count(m)


def test_connected_components():
    assert connected_components(enumerate_skeleton(SpaceSpec(m=8, r=0), 1)) == 8
    assert connected_components(enumerate_skeleton(SpaceSpec(m=8, r=1), 1)) == 1
    two = flag_skeleton_from_graph(range(4), [(0, 1), (2, 3)], 1)
    assert connected_components(two) == 2


def test_betti_zero_counts_components():
    rng = np.random.default_rng(7)
    for _ in range(10):
        skel = random_flag_skeleton(rng)
        bv = betti_numbers(skel)
        assert bv.reduced_betti[0] == connected_components(skel) - 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.sampled_from([2, 3]),
    st.data(),
)
def test_gf_rank_against_kernel_count(nrows, ncols, p, data):
    mat = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        ),
        dtype=np.int64,
    )
    rank = gf_rank(mat, p)
    kernel = sum(
        1
        for x in product(range(p), repeat=ncols)
        if not (mat @ np.array(x) % p).any()
    )
    assert kernel == p ** (ncols - rank)


@pytest.mark.parametrize("p", [2, 3])
def test_dense_rank_matches_gf_rank(q3r2, p):
    for k in (1, 2, 3):
        mat = boundary_matrix(q3r2, k, p=p)
        assert dense_rank_oracle(mat) == gf_rank(mat.to_dense(), p)


def test_dense_rank_oracle_cell_cap():
    big = boundary_matrix(skeleton_from_facets([(0, 1)]), 1)
    big.n_rows = 10**4
    big.n_cols = 10**3 + 1
    with pytest.raises(ValueError):
        dense_rank_oracle(big)


def _random_facet_skeleton(rng) -> Skeleton:
    """Random complex closed downward from a few small facets.

    About two in five are not flag (some hollow triangle or tetrahedron has
    all its edges), so the coboundary index meets missing cofaces.
    """
    nv = int(rng.integers(3, 8))
    facets = [
        rng.choice(nv, size=int(rng.integers(2, min(nv, 4) + 1)), replace=False)
        for _ in range(int(rng.integers(3, 10)))
    ]
    top = max(len(f) for f in facets) - 1
    return skeleton_from_facets(facets, dim_cap=int(rng.integers(top - 1, top + 2)))


@pytest.mark.parametrize("p", [2, 3])
def test_sparse_matches_dense_on_random_complexes(p):
    rng = np.random.default_rng(p)
    facet_rng = np.random.default_rng(100 + p)
    skeletons = [random_flag_skeleton(rng) for _ in range(15)]
    skeletons += [_random_facet_skeleton(facet_rng) for _ in range(30)]
    for skel in skeletons:
        sparse = betti_numbers(skel, p=p)
        dense = betti_numbers_dense(skel, p=p)
        assert sparse.reduced_betti == dense.reduced_betti
        assert sparse.trusted_through == dense.trusted_through


def test_relabelling_does_not_change_betti(q4r2):
    rng = np.random.default_rng(11)
    edges = q4r2.simplices[1].tolist()
    base = betti_numbers(q4r2, maxdim=4).reduced_betti
    for _ in range(3):
        perm = rng.permutation(16)
        relabelled = flag_skeleton_from_graph(
            range(16), [(perm[a], perm[b]) for a, b in edges], 5
        )
        assert betti_numbers(relabelled, maxdim=4).reduced_betti == base


def test_negative_betti_raises(monkeypatch):
    real = homology._coboundary_ranks

    def inflated(skel, maxdim, p):
        ranks, top_known = real(skel, maxdim, p)
        ranks[1] += 1
        return ranks, top_known

    monkeypatch.setattr(homology, "_coboundary_ranks", inflated)
    with pytest.raises(RuntimeError, match="negative Betti"):
        betti_numbers(_triangle_circle())


def test_rank_above_matrix_size_raises(monkeypatch):
    real = homology._reduce_index

    def inflated(entries, starts, p, cleared=frozenset()):
        _, pivot_rows = real(entries, starts, p, cleared)
        return len(starts), pivot_rows  # one more than the column count

    monkeypatch.setattr(homology, "_reduce_index", inflated)
    with pytest.raises(RuntimeError, match="rank 4 of a 3 x 3 map"):
        betti_numbers(_triangle_circle())
    with pytest.raises(RuntimeError, match="rank 9 of a 8 x 24 map"):
        betti_single_dim(SpaceSpec.hypercube(3, 2), 2)
