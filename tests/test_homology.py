from __future__ import annotations

import logging
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberips import complexes, homology
from cuberips import (
    Skeleton,
    SpaceSpec,
    betti_numbers,
    betti_numbers_dense,
    betti_single_dim,
    boundary_matrix,
    connected_components,
    delete_vertex,
    dense_rank_oracle,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    gf_rank,
    greedy_collapse_probe,
    induced_subcomplex,
    integer_homology_snf,
    kneser_independence_complex,
    random_flag_skeleton,
    simplex_rank,
    skeleton_from_facets,
    star_cluster,
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


def test_boundary_matrix_of_an_empty_layer_past_the_rank_limit():
    # keys of 21 vertices among 128 would pass 63 bits; both layers are empty
    bm = boundary_matrix(enumerate_skeleton(SpaceSpec.hypercube(7, 1), 20), 20)
    assert (bm.n_rows, bm.n_cols) == (0, 0)
    assert bm.to_dense().shape == (0, 0)


def test_face_closure_is_checked(monkeypatch):
    base = skeleton_from_facets([(0, 1, 2, 3)])

    def by_hand(simplices) -> Skeleton:
        return Skeleton(verts=base.verts, simplices=simplices,
                        dim_cap=base.dim_cap, complete_flag=base.complete_flag)

    # The sweep reads cofaces from the graph, so only the constructor can
    # see that the edge (2, 3) of the tetrahedron is missing.
    with pytest.raises(ValueError, match="skeleton is not closed under faces"):
        by_hand([base.simplices[0], base.simplices[1][:-1]] + base.simplices[2:])
    with pytest.raises(ValueError, match="skeleton is not closed under faces"):
        complexes._facet_row_indices(
            np.array([[0, 1]], dtype=np.uint32), np.zeros(0, dtype=np.int64), 2
        )
    whole = by_hand(base.simplices)
    assert betti_numbers(whole).reduced_betti == (0, 0, 0, 0)
    assert boundary_matrix(whole, 3).facet_rows.tolist() == [[3, 2, 1, 0]]
    assert delete_vertex(whole, 0).counts == (3, 3, 1, 0)

    # What the package builds is closed, and is not checked again.
    def unreachable(*args):
        raise AssertionError("closure checked on a skeleton built closed")

    monkeypatch.setattr(complexes, "_facet_row_indices", unreachable)
    with pytest.raises(AssertionError):
        by_hand(base.simplices)
    q4r2 = enumerate_skeleton(SpaceSpec.hypercube(4, 2), 5)
    cluster = star_cluster(q4r2, (0, 3))
    rp2 = skeleton_from_facets(RP2_FACETS)
    assert betti_numbers(q4r2).reduced_betti == (0, 0, 0, three_sphere_count(16), 0, 0)
    assert betti_numbers(rp2).reduced_betti == (0, 1, 1)
    assert betti_numbers(cluster, maxdim=3).reduced_betti == (0, 0, 0, 0)
    assert delete_vertex(rp2, 0).counts == (5, 10, 5)


@pytest.mark.parametrize("p", [2, 3])
def test_each_reduced_map_logs_its_counts(caplog, p):
    # Over both fields one column of δ_1 collides.  It is read, then the
    # four owners its reduction can meet, in three levels, before it is
    # reduced; it is zero over GF(2) but a new pivot over GF(3), whose row
    # it takes, since no column settled on it.
    with caplog.at_level(logging.DEBUG, logger="cuberips"):
        betti_numbers(skeleton_from_facets(RP2_FACETS), p=p)
    assert [r.getMessage() for r in caplog.records if r.name == "cuberips"] == [
        "δ_0: 6 columns, 5 edges in the spanning forest",
        "δ_1: 15 columns, 5 cleared, 9 settled in NumPy, 5 read, 4 additions, "
        "3 owner levels",
    ]


def test_facet_rows_of_a_fourteen_vertex_layer_at_128_vertices():
    # Layer 13 of Q7 at scale 3: every rank key fits in 63 bits, though
    # C(128, 15) does not.
    row = tuple(range(114, 128))
    faces = [row[:t] + row[t + 1 :] for t in range(len(row))]
    ranks = [simplex_rank(face, 128).rank for face in faces]
    keys_lo = np.array(sorted(ranks), dtype=np.int64)
    got = homology._facet_row_indices(np.array([row], dtype=np.uint32), keys_lo, 128)
    assert got.tolist() == [[sorted(ranks).index(k) for k in ranks]]


@pytest.mark.parametrize("t", range(5))
def test_missing_facet_is_found_at_every_position(t):
    # Only the facet that drops position t is missing, so a check that skips
    # that position passes.  t = 0 drops the largest key, t = 4 the smallest.
    row = (1, 4, 6, 9, 12)
    faces = [row[:s] + row[s + 1 :] for s in range(len(row)) if s != t]
    keys_lo = np.array(sorted(simplex_rank(f, 16).rank for f in faces), dtype=np.int64)
    with pytest.raises(ValueError, match="skeleton is not closed under faces"):
        homology._facet_row_indices(np.array([row], dtype=np.uint32), keys_lo, 16)


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
    # Every reduction that takes lowest rows as pivots ends with the same
    # ones, in any column order: row i is one exactly when rows 0..i have a
    # larger rank than rows 0..i-1.  Rows may be any ids that rise with row
    # order, as rank keys are; one colliding column per block makes a block
    # per column.
    low, read = _csr_columns(entries, starts, p, np.array(cleared, dtype=np.int64))
    pivot_rows = homology._reduce_index(low, read, p)
    assert pivot_rows.dtype == np.int64
    assert len(pivot_rows) == gf_rank(dense, p)
    want = [
        i for i in range(len(dense)) if gf_rank(dense[: i + 1], p) > gf_rank(dense[:i], p)
    ]
    assert pivot_rows.tolist() == want
    ids = np.cumsum(np.arange(1, len(dense) + 1) ** 2) + 1000  # rising, not dense
    low, read = _csr_columns(entries, starts, p, np.array(cleared, dtype=np.int64), ids)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_BLOCK", 1)
        assert homology._reduce_index(low, read, p).tolist() == ids[want].tolist()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_index_matches_dense_rank(p):
    # Few rows and many columns: most columns collide with a pivot.
    rng = np.random.default_rng(40 + p)
    for _ in range(40):
        n_rows = int(rng.integers(1, 17))
        entries, starts, dense = _random_index(rng, n_rows, int(rng.integers(1, 50)), p)
        _check_reduction(entries, starts, p, dense)


@pytest.mark.parametrize("p", [2, 3])
def test_reduce_index_reduces_onto_a_later_owner(p):
    # Walking from the last column, {1, 3} owns row 1 and {2, 5} row 2.
    # {1, 2} collides at row 1, becomes {2, 3} and collides at row 2 with
    # {2, 5}, a column the walk has not reached; {3, 5} then settles at 3.
    columns = [[2, 5], [1, 2], [1, 3]]
    entries = np.array([2 * r for col in columns for r in col], dtype=np.int64)
    starts = np.array([0, 2, 4, 6], dtype=np.int64)
    low, read = _csr_columns(entries, starts, p, np.zeros(0, dtype=np.int64))
    got = homology._reduce_index(low, read, p)
    assert got.tolist() == [1, 2, 3]


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
    full = betti_numbers(enumerate_skeleton(space, 3), maxdim=2)
    assert full.trusted_through == 2
    # A flag skeleton reads its top map from the graph: exact at dim_cap.
    assert not truncated.complete_flag
    assert betti_numbers(truncated, maxdim=2) == full
    # The same rows without the flag mark leave the top value provisional.
    unmarked = Skeleton(truncated.verts, truncated.simplices, 2, False)
    bv = betti_numbers(unmarked, maxdim=2)
    assert bv.trusted_through == 1
    assert bv.is_trusted(1) and not bv.is_trusted(2)
    assert bv.reduced_betti[:2] == full.reduced_betti[:2]
    # A flag skeleton that stores no edges has no graph to read.
    points = enumerate_skeleton(SpaceSpec.hypercube(3, 1), 0)
    assert not points.complete_flag
    assert betti_numbers(points).trusted_through == -1


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


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_single_dim_equals_the_vector_on_every_prefix(r, p):
    # betti_single_dim reads its top map from the graph and builds no layer
    # above; the vector has layer i + 1 stored.
    # Through dimension 7 of layers 0..8 its values are those of
    # betti_numbers(enumerate_skeleton(space, i + 1), p, i) for every i.
    for m in range(1, 65):
        space = SpaceSpec(m=m, r=r)
        want = betti_numbers(enumerate_skeleton(space, 8), p, 7)
        assert want.trusted_through == 7
        got = tuple(betti_single_dim(space, i, p) for i in range(1, 8))
        assert got == want.reduced_betti[1:], f"m={m}"


def test_single_dim_never_builds_the_layer_above(monkeypatch):
    widths = []
    real_next, real_ranks = complexes._next_layer, complexes._layer_ranks

    def next_layer(rows, *args):
        widths.append(rows.shape[1] + 1)
        return real_next(rows, *args)

    def layer_ranks(rows, nv):
        widths.append(rows.shape[1])
        return real_ranks(rows, nv)

    monkeypatch.setattr(complexes, "_next_layer", next_layer)
    monkeypatch.setattr(complexes, "_layer_ranks", layer_ranks)
    for space, i, want in ((SpaceSpec.hypercube(5, 2), 3, 49),
                           (SpaceSpec.hypercube(4, 3), 7, 1),
                           (SpaceSpec(m=100, r=2), 3, three_sphere_count(100)),
                           (SpaceSpec.hypercube(6, 3), 4, 11)):
        widths.clear()
        assert betti_single_dim(space, i) == want
        # layers 0..i have widths 1..i+1
        assert widths and max(widths) == i + 1


def test_top_map_keyed_by_rank_reduces_its_collisions(caplog):
    # δ_4 of Q6 at scale 3 is the one map of the sweep whose columns
    # collide; as every map's, its rows are rank keys.
    with caplog.at_level(logging.DEBUG, logger="cuberips"):
        assert betti_single_dim(SpaceSpec.hypercube(6, 3), 4) == 11
    assert [r.getMessage() for r in caplog.records if r.name == "cuberips"][-1] == (
        "δ_4: 144704 columns, 44529 cleared, 99812 settled in NumPy, 1232 read, "
        "1221 additions, 2 owner levels"
    )


def test_keyed_top_map_logs_rank_keys_with_the_layer_above_stored(caplog):
    # betti_numbers reads every map of a flag skeleton from the graph, even
    # with layer 5 stored; a hand-built copy carries no flag mark, so each
    # of its maps tests its keys against the layer above.  Both name rows by
    # rank key, so every map's kernel meets the same collisions.
    skel = enumerate_skeleton(SpaceSpec.hypercube(6, 3), 5)
    plain = Skeleton(skel.verts, skel.simplices, skel.dim_cap, skel.complete_flag)
    logs = []
    for s in (skel, plain):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cuberips"):
            assert betti_numbers(s, 2, 4).reduced_betti == (0, 0, 0, 0, 11)
        logs.append([r.getMessage() for r in caplog.records if r.name == "cuberips"])
    assert logs[0] == logs[1] and len(logs[0]) == 5
    assert logs[0][-1] == (
        "δ_4: 144704 columns, 44529 cleared, 99812 settled in NumPy, 1232 read, "
        "1221 additions, 2 owner levels"
    )


def test_collisions_are_read_before_they_are_reduced(monkeypatch):
    # Each block of colliding columns is read, and then its owners one level
    # at a time, before any column is reduced, so a map reads once per block
    # and once per level however long its columns' chains of owners are.
    real_reader, real_reduce = homology._coface_reader, homology._reduce_index
    calls, want = [], []

    def counting_reader(*args):
        read = real_reader(*args)
        calls.append(0)

        def counted(cols):
            calls[-1] += 1
            return read(cols)

        return counted

    def recording_reduce(low, read, p, stats=None):
        stats = {} if stats is None else stats
        pivot_rows = real_reduce(low, read, p, stats)
        colliding = int((low >= 0).sum()) - stats["settled"]
        want.append(-(-colliding // homology._BLOCK) + stats["levels"])
        return pivot_rows

    monkeypatch.setattr(homology, "_coface_reader", counting_reader)
    monkeypatch.setattr(homology, "_reduce_index", recording_reduce)
    assert betti_single_dim(SpaceSpec.hypercube(6, 3), 4) == 11
    assert calls == want and 1 < calls[-1] <= 4  # δ_4 collides
    calls.clear()
    want.clear()
    assert betti_numbers(skeleton_from_facets(RP2_FACETS), p=3).reduced_betti == (0, 0, 0)
    assert calls == want and calls[0] > 1  # δ_1 collides
    calls.clear()
    want.clear()
    monkeypatch.setattr(homology, "_BLOCK", 128)  # δ_4's 363 colliding columns in 3 blocks
    assert betti_single_dim(SpaceSpec.hypercube(6, 3), 4) == 11
    assert calls == want and calls[-1] > 3


def test_betti_numbers_never_ranks_the_layer_above_the_top_map(monkeypatch):
    widths = []
    real_ranks = complexes._layer_ranks

    def layer_ranks(rows, nv):
        widths.append(rows.shape[1])
        return real_ranks(rows, nv)

    skel = enumerate_skeleton(SpaceSpec.hypercube(5, 3), 5)
    monkeypatch.setattr(complexes, "_layer_ranks", layer_ranks)
    bv = betti_numbers(skel, maxdim=4)
    assert bv.reduced_betti == (0, 0, 0, 0, 1) and bv.trusted_through == 4
    # δ_2..δ_4 clear by the keys of layers 2..4, of widths 3..5; no map ranks layer 5
    assert widths and max(widths) == 5


def test_each_map_ranks_only_the_layer_it_clears(monkeypatch):
    # δ_k (k >= 2) ranks layer k when it starts, to clear by the pivot keys
    # of δ_{k-1}.  An unmarked skeleton also ranks layer k + 1 in δ_k, to
    # test its keys, and δ_{k+1} clears by those same keys.  So no layer is
    # ranked twice, a flag skeleton never ranks layer maxdim+1 though it is
    # stored, and a map that never runs ranks nothing: δ_9 of the complete
    # Q5 at scale 3 has no rows, so layer 9 is never ranked.
    widths = []
    real_ranks = complexes._layer_ranks

    def layer_ranks(rows, nv):
        widths.append(rows.shape[1])
        return real_ranks(rows, nv)

    q6r3 = enumerate_skeleton(SpaceSpec.hypercube(6, 3), 5)
    plain = Skeleton(q6r3.verts, q6r3.simplices, q6r3.dim_cap, q6r3.complete_flag)
    q5r3 = enumerate_skeleton(SpaceSpec.hypercube(5, 3), 9)
    assert q5r3.complete_flag and q5r3.top_dimension() == 9
    monkeypatch.setattr(complexes, "_layer_ranks", layer_ranks)
    for skel, p, maxdim, want, ranked in (
        (q6r3, 2, 4, (0, 0, 0, 0, 11), [3, 4, 5]),
        (plain, 2, 4, (0, 0, 0, 0, 11), [3, 4, 5, 6]),
        (q5r3, 3, 9, (0, 0, 0, 0, 1, 0, 0, 10, 0, 0), [3, 4, 5, 6, 7, 8, 9]),
    ):
        widths.clear()
        assert betti_numbers(skel, p, maxdim).reduced_betti == want
        assert sorted(widths) == ranked  # layer k has width k + 1


def test_an_empty_layer_ends_the_sweep():
    # Induced on the path 5-6-7, a flag skeleton truncated at dim_cap 2
    # keeps no triangle, so no map from δ_1 on has a row, and the top map
    # has no column for the forest's edges to clear.
    k5 = list(combinations(range(5), 2))
    skel = flag_skeleton_from_graph(range(8), k5 + [(5, 6), (6, 7)], 2)
    path = induced_subcomplex(skel, [5, 6, 7])
    assert not path.complete_flag and path.counts == (3, 2, 0)
    bv = betti_numbers(path)
    assert bv == betti_numbers_dense(path)
    assert bv.reduced_betti == (0, 0, 0) and bv.trusted_through == 2


@pytest.mark.parametrize("r", [2, 3])
def test_keyed_top_map_ranks_equal_the_searched_ones_on_every_prefix(r):
    # The same layers built by hand carry no flag mark, so every map of
    # their sweep tests its keys against the layer above it.
    for m in range(1, 65):
        skel = enumerate_skeleton(SpaceSpec(m=m, r=r), 5)
        plain = Skeleton(skel.verts, skel.simplices, skel.dim_cap, skel.complete_flag)
        got = homology._coboundary_ranks(skel, 4, 2)
        assert got == homology._coboundary_ranks(plain, 4, 2), f"m={m}"


def test_non_flag_skeleton_searches_its_top_map():
    # The hollow triangle 013 has all three edges, so this complex is not
    # flag: read from its graph, δ_1 would count 013 as a coface.
    skel = skeleton_from_facets([(0, 1, 2), (0, 3), (1, 3)], dim_cap=2)
    bv = betti_numbers(skel, 2, 1)
    assert bv.reduced_betti == (0, 1) == betti_numbers_dense(skel, 2, 1).reduced_betti
    # A flag mark forced onto it is caught by the rank check of the map.
    skel._is_flag = True
    with pytest.raises(RuntimeError, match="rank 2 of a 5 x 1 map"):
        betti_numbers(skel, 2, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_keyed_top_map_matches_dense_at_every_maxdim(p):
    rng = np.random.default_rng(60 + p)
    for _ in range(15):
        skel = random_flag_skeleton(rng)
        for maxdim in range(skel.dim_cap):
            assert betti_numbers(skel, p, maxdim) == betti_numbers_dense(skel, p, maxdim)


def test_connected_components():
    assert connected_components(enumerate_skeleton(SpaceSpec(m=8, r=0), 1)) == 8
    assert connected_components(enumerate_skeleton(SpaceSpec(m=8, r=1), 1)) == 1
    two = flag_skeleton_from_graph(range(4), [(0, 1), (2, 3)], 1)
    assert connected_components(two) == 2
    assert connected_components(enumerate_skeleton(SpaceSpec(m=5, r=2), 0)) == 5


def _joining_edges(skel: Skeleton) -> list[int]:
    """Indices of the edges that join two components, in one ascending
    union-find pass over the edge layer."""
    parent = list(range(skel.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    joins = []
    for j, (a, b) in enumerate(skel.simplices[1].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joins.append(j)
    return joins


@pytest.mark.parametrize("p", [2, 3])
def test_vertex_coboundary_pivots_are_the_joining_edges(p):
    import networkx as nx

    rng = np.random.default_rng(70 + p)
    skeletons = []
    for _ in range(140):
        nv = int(rng.integers(1, 41))
        density = rng.uniform(0.0, 0.3)
        edges = [e for e in combinations(range(nv), 2) if rng.random() < density]
        skeletons.append(flag_skeleton_from_graph(range(nv), edges, 1))
    skeletons += [enumerate_skeleton(SpaceSpec(m=m, r=2), 1) for m in range(2, 129)]
    # (0, 2) and (1, 3) are the first edges of their top vertices, and (2, 3)
    # joins their components {0, 2} and {1, 3} in the Python union-find.
    by_hand = flag_skeleton_from_graph(range(4), [(0, 2), (1, 3), (2, 3)], 1)
    assert homology._spanning_forest(by_hand.simplices[1], 4).tolist() == [0, 1, 2]
    skeletons.append(by_hand)
    for skel in skeletons:
        n_vertices = skel.num_vertices
        facet_rows = homology._facet_row_indices(
            skel.simplices[1], skel.layer_keys(0), n_vertices
        )
        low, read = _csr_columns(
            *_coboundary_reference(facet_rows, n_vertices), p, np.zeros(0, dtype=np.int64)
        )
        pivot_rows = homology._reduce_index(low, read, p)
        forest = homology._spanning_forest(skel.simplices[1], n_vertices)
        assert forest.dtype == np.int64
        assert forest.tolist() == pivot_rows.tolist() == _joining_edges(skel)
        graph = nx.Graph(skel.simplices[1].tolist())
        graph.add_nodes_from(range(n_vertices))
        assert connected_components(skel) == nx.number_connected_components(graph)
        assert len(forest) == n_vertices - connected_components(skel)


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
    # Low caps truncate some flag complexes, whose top values are then
    # certified from the graph on both routes, from dim_cap 1 on.
    capped = [random_flag_skeleton(rng, edge_probability=0.6, dim_cap=cap)
              for cap in (0, 1, 2, 3) for _ in range(15)]
    assert sum(not skel.complete_flag for skel in capped) >= 20
    skeletons += capped
    for skel in skeletons:
        sparse = betti_numbers(skel, p=p)
        dense = betti_numbers_dense(skel, p=p)
        assert sparse.reduced_betti == dense.reduced_betti
        assert sparse.trusted_through == dense.trusted_through


def _facet_rows_reference(skel: Skeleton, k: int) -> list[list[int]]:
    """Row in layer k-1 of each facet, by simplex_rank and a list lookup."""
    keys = skel.layer_keys(k - 1).tolist()
    return [
        [keys.index(simplex_rank(row[:t] + row[t + 1 :], skel.num_vertices).rank)
         for t in range(k + 1)]
        for row in skel.simplices[k].tolist()
    ]


def _coboundary_reference(facet_rows: np.ndarray, n_lo: int):
    """The CSR transpose by a stable argsort of the flat facet rows."""
    width = facet_rows.shape[1]
    flat = facet_rows.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(n_lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_lo), out=starts[1:])
    return order // width << 1 | order % width & 1, starts


def _csr_columns(entries: np.ndarray, starts: np.ndarray, p: int, cleared: np.ndarray,
                 ids=None):
    """(low, read) of the columns entries[starts[c]:starts[c+1]], leaving
    out the columns in cleared, for _reduce_index.  An entry 2*row + s, in
    ascending row order, stands for the coefficient (-1)**s in row ids[row]
    (in row itself when ids is None)."""
    ids = np.arange(entries.max(initial=0) // 2 + 1) if ids is None else np.asarray(ids)
    low = np.full(len(starts) - 1, -1, dtype=np.int64)
    full = np.flatnonzero(np.diff(starts) > 0)
    low[full] = ids[entries[starts[full]] >> 1]
    low[cleared] = -1

    def read(cols: np.ndarray) -> dict[int, dict[int, int]]:
        return {c: {int(ids[e >> 1]): p - 1 if e & 1 else 1
                    for e in entries[starts[c] : starts[c + 1]].tolist()}
                for c in cols.tolist()}

    return low, read


def test_index_matches_slow_references():
    rng = np.random.default_rng(17)
    skeletons = [random_flag_skeleton(rng) for _ in range(30)]
    skeletons += [_random_facet_skeleton(rng) for _ in range(30)]
    not_flag = empty = one_row = 0
    for skel in skeletons:
        edges = skel.simplices[1].tolist() if skel.dim_cap >= 1 else []
        flag = flag_skeleton_from_graph(range(skel.num_vertices), edges, skel.dim_cap)
        not_flag += flag.counts != skel.counts
        for k in range(1, skel.dim_cap + 1):
            n = skel.counts[k]
            empty += n == 0
            one_row += n == 1
            rows = homology._facet_row_indices(
                skel.simplices[k], skel.layer_keys(k - 1), skel.num_vertices
            )
            assert rows.dtype == np.int64 and rows.shape == (n, k + 1)
            assert rows.tolist() == _facet_rows_reference(skel, k)
    assert min(not_flag, empty, one_row) > 0


def _assert_columns_match_the_index(skel: Skeleton, p: int, rng) -> None:
    """Every map's (low, read) in the sweep above δ_0 equals the CSR
    transpose of _facet_row_indices by a stable argsort, with a random fifth
    of the columns cleared."""
    if skel.dim_cap == 0:
        return
    nv = skel.num_vertices
    adj = homology._adjacency(skel.simplices[1], nv)
    for k in range(1, skel.dim_cap):
        n, n_hi = skel.counts[k : k + 2]
        if n_hi == 0:
            continue
        cleared = np.flatnonzero(rng.random(n) < 0.2)
        facet_rows = homology._facet_row_indices(
            skel.simplices[k + 1], skel.layer_keys(k), nv
        )
        # The rows of the index are positions in layer k + 1; the sweep's are
        # their rank keys, tested against that layer unless the skeleton is
        # marked flag.
        keys = skel.layer_keys(k + 1)
        want_low, want_read = _csr_columns(
            *_coboundary_reference(facet_rows, n), p, cleared, keys
        )
        low, read = homology._coboundary_columns(
            skel, k, p, cleared, adj, None if skel._is_flag else keys
        )
        assert low.dtype == np.int64
        assert low.tolist() == want_low.tolist(), f"k={k}"
        got, want = read(np.arange(n)), want_read(np.arange(n))
        for c in range(n):
            assert list(got[c].items()) == list(want[c].items()), f"k={k} c={c}"


def _derived_skeletons(rng) -> list[Skeleton]:
    """Star clusters and collapse residuals, the latter mostly not flag."""
    q4r2 = enumerate_skeleton(SpaceSpec.hypercube(4, 2), 5)
    out = [star_cluster(q4r2, sigma) for sigma in ((0,), (0, 3), (1, 2, 7))]
    for _ in range(12):
        skel = random_flag_skeleton(rng)
        out.append(star_cluster(skel, (int(rng.integers(skel.num_vertices)),)))
        if skel.complete_flag:
            budget = int(rng.integers(1, 12))
            out.append(greedy_collapse_probe(skel, 0, budget=budget).residual)
    out.append(greedy_collapse_probe(q4r2, 1, budget=40).residual)
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_implicit_columns_match_the_index(p, monkeypatch):
    monkeypatch.setattr(homology, "_BLOCK", 5)  # many blocks per layer
    rng = np.random.default_rng(80 + p)
    skeletons = [random_flag_skeleton(rng) for _ in range(20)]
    skeletons += [_random_facet_skeleton(rng) for _ in range(30)]
    skeletons += _derived_skeletons(rng)
    skeletons += [kneser_independence_complex(5, 4), kneser_independence_complex(6, 3)]
    not_flag = 0
    for skel in skeletons:
        edges = skel.simplices[1].tolist() if skel.dim_cap >= 1 else []
        flag = flag_skeleton_from_graph(range(skel.num_vertices), edges, skel.dim_cap)
        not_flag += flag.counts != skel.counts
        _assert_columns_match_the_index(skel, p, rng)
    assert not_flag >= 10  # the misses that drop a common neighbour


@pytest.mark.parametrize("m", [65, 100, 129, 200])
def test_implicit_columns_match_the_index_across_words(m):
    # One more uint64 word of neighbours past every 64 vertices.
    rng = np.random.default_rng(m)
    for r, dim_cap in ((2, 3), (3, 2)):
        skel = enumerate_skeleton(SpaceSpec(m=m, r=r), dim_cap)
        for p in (2, 3):
            _assert_columns_match_the_index(skel, p, rng)


def _flag_builds(rng):
    """Builders cap -> skeleton of flag complexes, and their top dimension."""
    builds = []
    for _ in range(20):
        nv = int(rng.integers(2, 11))
        edges = [e for e in combinations(range(nv), 2) if rng.random() < 0.5]
        builds.append(lambda cap, nv=nv, edges=edges: flag_skeleton_from_graph(
            range(nv), edges, cap))
    for m, r in ((65, 2), (129, 2), (24, 3)):
        builds.append(lambda cap, m=m, r=r: enumerate_skeleton(SpaceSpec(m=m, r=r), cap))
    return [(build, build(64).top_dimension()) for build in builds]


@pytest.mark.parametrize("p", [2, 3])
def test_top_map_rows_are_the_rank_keys_of_the_layer_above(p, monkeypatch):
    # On a flag skeleton the columns of δ_k name each coface by its rank key,
    # read from the graph: the same columns at k = dim_cap as with layer k+1
    # stored, and as when every key is tested against that layer's keys.
    monkeypatch.setattr(homology, "_BLOCK", 61)  # many blocks per layer
    rng = np.random.default_rng(90 + p)
    for build, top in _flag_builds(rng):
        for k in range(1, top):
            narrow, wide = build(k), build(k + 1)
            nv, n = narrow.num_vertices, narrow.counts[k]
            adj = homology._adjacency(narrow.simplices[1], nv)
            cleared = np.flatnonzero(rng.random(n) < 0.2)
            columns = [
                homology._coboundary_columns(s, k, p, cleared, adj, keys)
                for s, keys in ((narrow, None), (wide, None), (wide, wide.layer_keys(k + 1)))
            ]
            (low, read), rest = columns[0], columns[1:]
            got = read(np.arange(n))
            for want_low, want_read in rest:
                assert low.tolist() == want_low.tolist(), f"k={k}"
                want = want_read(np.arange(n))
                assert [list(got[c].items()) for c in range(n)] == [
                    list(want[c].items()) for c in range(n)
                ], f"k={k}"


def test_lowest_cofaces_working_set_stays_bounded(monkeypatch):
    # δ_4 of Q6 r=3 has 100,175 live columns.  The traced peak of its
    # _lowest_cofaces call was 4.0 MiB at 2**14 columns a block, 6.9 MiB at
    # 2**15 and 11.2 MiB at 2**16, whose int64 copies of a block's
    # simplices alone take 2.6 MB each.
    real = homology._lowest_cofaces
    calls = []

    def traced(rows, keys_hi, adj, cols):
        tracemalloc.start()
        try:
            low = real(rows, keys_hi, adj, cols)
            calls.append((rows.shape[1], len(cols), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return low

    monkeypatch.setattr(homology, "_lowest_cofaces", traced)
    skel = enumerate_skeleton(SpaceSpec.hypercube(6, 3), 5)
    assert betti_numbers(skel, 2, 4).reduced_betti == (0, 0, 0, 0, 11)
    width, live, peak = calls[-1]
    assert (width, live) == (5, 100_175)
    assert peak <= 6 << 20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("p", [2, 3])
def test_pivot_rows_do_not_depend_on_the_block(p):
    # Every reduced map of two sweeps over several blocks: δ_4 of Q6 r=3
    # has 100,175 live columns and δ_3 of Q9 r=2 72,449.
    q6r3 = enumerate_skeleton(SpaceSpec.hypercube(6, 3), 5)
    real = homology._reduce_index

    def pivot_rows(block):
        got = []

        def recording(low, read, p, stats=None):
            rows = real(low, read, p, stats)
            got.append((int((low >= 0).sum()), rows.tobytes()))
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_BLOCK", block)
            mp.setattr(homology, "_reduce_index", recording)
            assert betti_numbers(q6r3, p, 4).reduced_betti == (0, 0, 0, 0, 11)
            assert betti_single_dim(SpaceSpec.hypercube(9, 2), 3, p) == three_sphere_count(512)
        return got

    got = pivot_rows(homology._BLOCK)
    assert max(nonempty for nonempty, _ in got) > 4 * homology._BLOCK
    assert got == pivot_rows(1 << 16)


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
    real_forest, real_reduce = homology._spanning_forest, homology._reduce_index

    # Each returns one more pivot row than its map has columns.
    def inflated_forest(edges, nv):
        forest = real_forest(edges, nv)
        return np.pad(forest, (0, nv + 1 - len(forest)))

    def inflated_reduce(low, read, p, stats=None):
        pivot_rows = real_reduce(low, read, p, stats)
        return np.pad(pivot_rows, (0, len(low) + 1 - len(pivot_rows)))

    monkeypatch.setattr(homology, "_spanning_forest", inflated_forest)
    with pytest.raises(RuntimeError, match="rank 4 of a 3 x 3 map"):
        betti_numbers(_triangle_circle())
    with pytest.raises(RuntimeError, match="rank 9 of a 8 x 24 map"):
        betti_single_dim(SpaceSpec.hypercube(3, 2), 2)
    monkeypatch.setattr(homology, "_spanning_forest", real_forest)
    monkeypatch.setattr(homology, "_reduce_index", inflated_reduce)
    with pytest.raises(RuntimeError, match="rank 25 of a 24 x 32 map"):
        betti_single_dim(SpaceSpec.hypercube(3, 2), 2)
    # The top map of betti_single_dim has no row count: its rank is checked
    # against its 24 - 7 live columns.
    with pytest.raises(RuntimeError, match="rank 25 of a 17-column map"):
        betti_single_dim(SpaceSpec.hypercube(3, 2), 1)


def test_the_sweep_reduces_no_explicit_index(monkeypatch):
    # An explicit index lists every column's cofaces: by transposing the
    # facet rows, or by reading every column.  On a skeleton built closed
    # the sweep lists no facet row, and it reads only the columns that its
    # kernel reports reading.
    def unreachable(*args):
        raise AssertionError("the sweep built an explicit index")

    real_reader, real_reduce = homology._coface_reader, homology._reduce_index
    reads, kernel_reads = [], []

    def counting_reader(*args):
        read = real_reader(*args)

        def counted(cols):
            reads.extend(cols.tolist())
            return read(cols)

        return counted

    def reporting_reduce(low, read, p, stats=None):
        stats = {} if stats is None else stats
        pivot_rows = real_reduce(low, read, p, stats)
        kernel_reads.append(stats["read"])
        return pivot_rows

    monkeypatch.setattr(homology, "_facet_row_indices", unreachable)
    monkeypatch.setattr(homology, "_coface_reader", counting_reader)
    monkeypatch.setattr(homology, "_reduce_index", reporting_reduce)
    q4r2 = enumerate_skeleton(SpaceSpec.hypercube(4, 2), 5)
    assert betti_numbers(q4r2).reduced_betti == (0, 0, 0, three_sphere_count(16), 0, 0)
    assert betti_numbers(skeleton_from_facets(RP2_FACETS), p=3).reduced_betti == (0, 0, 0)
    assert betti_single_dim(SpaceSpec(m=100, r=2), 3) == three_sphere_count(100)
    rng = np.random.default_rng(5)
    for _ in range(10):
        skel = random_flag_skeleton(rng)
        assert betti_numbers(skel).reduced_betti == betti_numbers_dense(skel).reduced_betti
    assert 0 < len(reads) == sum(kernel_reads)


def test_unmarked_skeleton_out_of_colex_order_raises():
    def by_hand(edges) -> Skeleton:
        return Skeleton(
            verts=np.arange(4),
            simplices=[np.arange(4, dtype=np.uint32)[:, None],
                       np.array(edges, dtype=np.uint32)],
            dim_cap=1,
            complete_flag=True,
        )

    # A 4-cycle, closed under faces, whose rank keys 1, 4, 3, 2 do not rise.
    # A membership test searches them, and would miss the edge (1, 3); the
    # spanning forest reads the edges in order and would miscount.
    shuffled = [[0, 2], [1, 3], [0, 3], [1, 2]]
    with pytest.raises(ValueError, match="layer 1 is not in colex order"):
        by_hand(shuffled)
    with pytest.raises(ValueError, match="edges are not in colex order"):
        homology._spanning_forest(np.array(shuffled), 4)
    # Rank keys 0, 2, 3, 5 rise, but the row (2, 1) descends.
    with pytest.raises(ValueError, match="layer 1 is not in colex order"):
        by_hand([[0, 1], [2, 1], [0, 3], [2, 3]])
    ordered = by_hand([[0, 1], [1, 2], [0, 3], [2, 3]])
    assert betti_numbers(ordered).reduced_betti == (0, 1)
    assert connected_components(ordered) == 1
    assert ordered.has_simplex((0, 3)) and not ordered.has_simplex((1, 3))
    assert star_cluster(ordered, (0, 3)).counts == (4, 3)

    # A filled triangle, closed under faces, with its edges out of order:
    # a search of the edge keys for its facets would report a missing face.
    def filled(edges) -> Skeleton:
        return Skeleton(
            verts=np.arange(3),
            simplices=[np.arange(3, dtype=np.uint32)[:, None],
                       np.array(edges, dtype=np.uint32),
                       np.array([[0, 1, 2]], dtype=np.uint32)],
            dim_cap=2,
            complete_flag=True,
        )

    with pytest.raises(ValueError, match="layer 1 is not in colex order"):
        filled([[0, 2], [0, 1], [1, 2]])
    triangle = filled([[0, 1], [0, 2], [1, 2]])
    assert betti_numbers(triangle).reduced_betti == (0, 0, 0)
    assert greedy_collapse_probe(triangle, 0).status == "collapsed_to_target"
    assert boundary_matrix(triangle, 2).facet_rows.tolist() == [[2, 1, 0]]
    assert integer_homology_snf(triangle, 1).free_rank == 0


def test_layer_zero_must_list_the_vertices():
    def by_hand(nv, layer0) -> Skeleton:
        return Skeleton(
            verts=np.arange(nv),
            simplices=[np.array(layer0, dtype=np.uint32)],
            dim_cap=0,
            complete_flag=True,
        )

    # One row too few, rows out of order, a repeated row, and rows naming
    # no vertex: each used to give a wrong count or NumPy's IndexError.
    for nv, layer0 in ((3, [[0], [1]]), (3, [[1], [0], [2]]), (3, [[0], [0], [2]])):
        with pytest.raises(ValueError, match="layer 0 is not the vertices in order"):
            by_hand(nv, layer0)
    for nv, layer0 in ((2, [[0], [1], [2]]), (3, [[0], [1], [5]])):
        with pytest.raises(ValueError, match=f"layer 0 names a vertex outside 0..{nv - 1}"):
            by_hand(nv, layer0)
    assert betti_numbers(by_hand(3, [[0], [1], [2]])).reduced_betti == (2,)
    assert connected_components(by_hand(3, [[0], [1], [2]])) == 3


def test_rank_keys_past_63_bits_raise_overflow():
    # Layer 9 of Q9 at scale 2 holds 512 simplices, whose keys need
    # C(512, 10) > 2**63; the maps below it fit.
    skel = enumerate_skeleton(SpaceSpec.hypercube(9, 2), 9)
    assert skel.counts[9] == 512
    with pytest.raises(OverflowError) as err:
        betti_numbers(skel, 2, 8)
    assert str(err.value) == "rank keys for 512 vertices at 10 slots exceed 63 bits"


def test_binomial_table_reaches_only_nonempty_layers():
    # The 7-cube graph has no triangle, so layers 2..20 are empty; a table
    # for 22 slots would need C(128, 22), which overflows 63 bits.
    skel = enumerate_skeleton(SpaceSpec.hypercube(7, 1), 20)
    assert betti_numbers(skel).reduced_betti == (0, 321) + (0,) * 19


def test_hand_built_wide_rows_give_the_narrow_answers(q4r2):
    # Enumeration stores the 16 vertices of Q4 in uint8 rows; a skeleton
    # built by hand may hold any integer dtype, and every reader must give
    # the same answers for it.
    assert all(rows.dtype == np.uint8 for rows in q4r2.simplices)
    collapse = greedy_collapse_probe(q4r2, 3)
    for dtype in (np.uint32, np.int64):
        wide = Skeleton(q4r2.verts, [rows.astype(dtype) for rows in q4r2.simplices],
                        q4r2.dim_cap, q4r2.complete_flag)
        for p in (2, 3):
            assert betti_numbers(wide, p) == betti_numbers(q4r2, p)
        for k in range(1, q4r2.dim_cap + 1):
            assert np.array_equal(boundary_matrix(wide, k).facet_rows,
                                  boundary_matrix(q4r2, k).facet_rows)
        got = greedy_collapse_probe(wide, 3)
        assert (got.reached_dim, got.status, got.free_face_trace_length) == (
            collapse.reached_dim, collapse.status, collapse.free_face_trace_length)
        assert [a.tolist() for a in got.residual.simplices] == [
            a.tolist() for a in collapse.residual.simplices]
