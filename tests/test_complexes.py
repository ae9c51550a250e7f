from __future__ import annotations

from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuberips import (
    SizeBudgetExceeded,
    Skeleton,
    SpaceSpec,
    betti_single_dim,
    delete_vertex,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    hamming_distance,
    induced_subcomplex,
    kneser_independence_complex,
    link_complex,
    neighborhood,
    random_flag_skeleton,
    simplex_diameter,
    simplex_rank,
    simplex_unrank,
    skeleton_from_facets,
    star_cluster,
    write_skeleton_text,
)


def _brute_layers(space: SpaceSpec, dim_cap: int) -> list[list[tuple[int, ...]]]:
    """Reference enumeration: filter all vertex subsets by pairwise distance."""
    out = []
    for k in range(dim_cap + 1):
        layer = [
            c
            for c in combinations(range(space.m), k + 1)
            if all(hamming_distance(a, b) <= space.r for a, b in combinations(c, 2))
        ]
        layer.sort(key=lambda c: c[::-1])  # colexicographic
        out.append(layer)
    return out


@pytest.mark.parametrize(
    "m,r,cap", [(8, 1, 3), (12, 2, 3), (8, 2, 4), (6, 0, 2), (9, 3, 3)]
)
def test_enumerate_matches_brute_force(m, r, cap):
    space = SpaceSpec(m=m, r=r)
    skel = enumerate_skeleton(space, cap)
    brute = _brute_layers(space, cap)
    assert skel.verts.tolist() == list(range(m))
    for k in range(cap + 1):
        assert [tuple(row) for row in skel.simplices[k].tolist()] == brute[k]


def test_skeleton_counts_and_top_dimension(q4r2):
    assert q4r2.counts == (16, 80, 160, 120, 16, 0)
    assert q4r2.num_vertices == 16
    assert q4r2.top_dimension() == 4
    assert q4r2.complete_flag


def test_layer_keys_strictly_increasing(q4r2):
    for k in range(q4r2.dim_cap + 1):
        keys = q4r2.layer_keys(k)
        assert (np.diff(keys) > 0).all() if len(keys) > 1 else True


def test_complete_flag_reflects_truncation():
    space = SpaceSpec.hypercube(3, 2)
    assert not enumerate_skeleton(space, 2).complete_flag
    assert enumerate_skeleton(space, 3).complete_flag
    assert enumerate_skeleton(space, 7).complete_flag


def test_budget_abort_carries_partial_counts():
    space = SpaceSpec.hypercube(4, 2)
    with pytest.raises(SizeBudgetExceeded) as err:
        enumerate_skeleton(space, 4, budget=100)
    assert err.value.partial_counts == (16, 80)
    # the full complex has 392 simplices: that exact budget must succeed
    enumerate_skeleton(space, 5, budget=392)
    with pytest.raises(SizeBudgetExceeded):
        enumerate_skeleton(space, 5, budget=391)


def test_budget_abort_is_clean_at_every_size():
    space = SpaceSpec.hypercube(4, 2)
    counts = (16, 80, 160, 120, 16)  # 392 simplices; layer 5 is empty
    for budget in range(1, sum(counts)):
        # the layers finished before the abort: the longest prefix that fits
        fits = sum(1 for total in accumulate(counts) if total <= budget)
        for run in (
            lambda: enumerate_skeleton(space, 5, budget=budget),
            lambda: betti_single_dim(space, 3, budget=budget),
        ):
            with pytest.raises(SizeBudgetExceeded) as err:
                run()
            assert err.value.partial_counts == counts[:fits], f"budget={budget}"


def test_enumerate_argument_validation():
    with pytest.raises(ValueError):
        enumerate_skeleton(SpaceSpec(m=4, r=1), -1)
    with pytest.raises(ValueError):
        enumerate_skeleton(SpaceSpec(m=4, r=1), 2, budget=0)


@pytest.mark.parametrize("n,r", [(5, 2), (4, 3)])
def test_counts_match_networkx_cliques(n, r):
    import networkx as nx

    space = SpaceSpec.hypercube(n, r)
    graph = nx.Graph()
    graph.add_nodes_from(range(space.m))
    graph.add_edges_from(
        (a, b)
        for a, b in combinations(range(space.m), 2)
        if hamming_distance(a, b) <= r
    )
    expected = [0] * space.m
    for clique in nx.enumerate_all_cliques(graph):
        expected[len(clique) - 1] += 1
    while expected[-1] == 0:
        expected.pop()
    skel = enumerate_skeleton(space, len(expected) - 1)
    assert skel.complete_flag
    assert skel.counts == tuple(expected)


def _networkx_cliques(nodes, edges) -> list[list[tuple[int, ...]]]:
    """Every clique of the graph, by dimension, each layer in colex order."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    layers: list[list[tuple[int, ...]]] = [[] for _ in nodes]
    for clique in nx.enumerate_all_cliques(graph):
        layers[len(clique) - 1].append(tuple(sorted(clique)))
    while layers and not layers[-1]:
        layers.pop()
    for layer in layers:
        layer.sort(key=lambda c: c[::-1])
    return layers


def _assert_layers_are(skel: Skeleton, cliques) -> None:
    """skel holds exactly these cliques, row for row, and nothing above."""
    assert skel.counts == tuple(len(layer) for layer in cliques)
    for k, layer in enumerate(cliques):
        got = skel.verts[skel.simplices[k]]
        assert [tuple(row) for row in got.tolist()] == layer, f"k={k}"


@pytest.mark.parametrize("m", [63, 64, 65, 100, 129, 192])
def test_prefix_counts_match_networkx_across_words(m):
    # above 64 vertices the candidate bitsets span several uint64 words;
    # every layer must hold networkx's cliques row for row, in colex order
    space = SpaceSpec(m=m, r=2)
    expected = _networkx_cliques(
        range(m),
        [(a, b) for a, b in combinations(range(m), 2) if hamming_distance(a, b) <= 2],
    )
    skel = enumerate_skeleton(space, len(expected) - 1)
    assert skel.complete_flag
    _assert_layers_are(skel, expected)


def test_random_graph_past_one_word_is_in_colex_order():
    rng = np.random.default_rng(20)
    labels = rng.choice(10_000, size=150, replace=False).tolist()
    edges = [(a, b) for a, b in combinations(labels, 2) if rng.random() < 0.25]
    expected = _networkx_cliques(labels, edges)
    skel = flag_skeleton_from_graph(labels, edges, len(expected) - 1)
    assert len(expected) > 4
    _assert_layers_are(skel, expected)
    for k in range(skel.dim_cap + 1):
        assert (np.diff(skel.layer_keys(k)) > 0).all(), f"k={k}"


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.data())
def test_flag_skeleton_matches_brute_force(nv, data):
    pairs = list(combinations(range(nv), 2))
    chosen = sorted(data.draw(st.sets(st.sampled_from(pairs))))
    skel = flag_skeleton_from_graph(range(nv), chosen, 4)
    adj = {v: set() for v in range(nv)}
    for a, b in chosen:
        adj[a].add(b)
        adj[b].add(a)
    for k in range(min(4, nv - 1) + 1):
        expect = [
            c
            for c in combinations(range(nv), k + 1)
            if all(b in adj[a] for a, b in combinations(c, 2))
        ]
        expect.sort(key=lambda c: c[::-1])
        assert [tuple(r) for r in skel.simplices[k].tolist()] == expect


def test_flag_skeleton_validates_input():
    with pytest.raises(ValueError, match="labels must be distinct"):
        flag_skeleton_from_graph([0, 1, 1], [], 1)
    with pytest.raises(ValueError, match="loop edge at 0"):
        flag_skeleton_from_graph([0, 1], [(0, 0)], 1)
    with pytest.raises(ValueError, match=r"edge \(0, 2\) uses an unknown label"):
        flag_skeleton_from_graph([0, 1], [(0, 2)], 1)
    # The first bad edge is the one reported.
    with pytest.raises(ValueError, match="loop edge at 2"):
        flag_skeleton_from_graph([0, 1, 2], [(1, 0), (2, 2), (0, 5)], 1)
    with pytest.raises(ValueError, match=r"edge \(0, 5\) uses an unknown label"):
        flag_skeleton_from_graph([0, 1, 2], [(1, 0), (0, 5), (2, 2)], 1)
    with pytest.raises(ValueError):
        flag_skeleton_from_graph([0, 1, 2], [(0, 1, 2), (0, 1, 2)], 1)
    with pytest.raises(ValueError, match="dim_cap must be nonnegative"):
        flag_skeleton_from_graph([0, 1], [(0, 1)], -1)
    # Either orientation, repeats, and any iterable of pairs.
    once = flag_skeleton_from_graph([3, 5, 9], [(3, 5), (3, 9), (5, 9)], 2)
    again = flag_skeleton_from_graph(
        (v for v in (9, 5, 3)), iter([(9, 3), (3, 9), (5, 3), (9, 5), (5, 9)]), 2
    )
    assert again.verts.tolist() == once.verts.tolist() == [3, 5, 9]
    assert [a.tolist() for a in again.simplices] == [a.tolist() for a in once.simplices]
    assert once.counts == (3, 3, 1)


@pytest.mark.parametrize("r", [2, 3])
def test_links_match_networkx(r):
    # The link of v is the flag complex of the pairs of its neighbours
    # within distance r.
    space = SpaceSpec.hypercube(5, r)
    for v in (0, 13, 31):
        nbrs = sorted(neighborhood(space, v))
        edges = [(a, b) for a, b in combinations(nbrs, 2) if hamming_distance(a, b) <= r]
        expected = _networkx_cliques(nbrs, edges)
        link = link_complex(space, v, len(expected) - 1)
        assert link.complete_flag
        _assert_layers_are(link, expected)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_kneser_complex_matches_networkx(n):
    pairs = [(a, b) for b in range(n) for a in range(b)]
    edges = [(i, j) for i, j in combinations(range(len(pairs)), 2)
             if set(pairs[i]) & set(pairs[j])]
    expected = _networkx_cliques(range(len(pairs)), edges)
    skel = kneser_independence_complex(n, len(expected) - 1)
    assert skel.complete_flag
    _assert_layers_are(skel, expected)


def test_delete_top_vertex_matches_smaller_space():
    big = enumerate_skeleton(SpaceSpec(m=8, r=2), 4)
    small = enumerate_skeleton(SpaceSpec(m=7, r=2), 4)
    dropped = delete_vertex(big, 7)
    assert dropped.verts.tolist() == small.verts.tolist()
    for a, b in zip(dropped.simplices, small.simplices):
        assert a.tolist() == b.tolist()


def test_delete_vertex_unknown_label():
    skel = enumerate_skeleton(SpaceSpec(m=4, r=1), 2)
    with pytest.raises(ValueError):
        delete_vertex(skel, 4)


def test_induced_subcomplex_prefix_equals_smaller_space():
    big = enumerate_skeleton(SpaceSpec(m=9, r=2), 3)
    small = enumerate_skeleton(SpaceSpec(m=6, r=2), 3)
    sub = induced_subcomplex(big, range(6))
    assert sub.verts.tolist() == small.verts.tolist()
    for a, b in zip(sub.simplices, small.simplices):
        assert a.tolist() == b.tolist()


def test_induced_subcomplex_arbitrary_labels():
    skel = enumerate_skeleton(SpaceSpec(m=10, r=2), 3)
    labels = [0, 2, 3, 7, 8, 9]
    sub = induced_subcomplex(skel, labels)
    assert sub.verts.tolist() == labels
    for k in range(4):
        got = [tuple(labels[i] for i in row) for row in sub.simplices[k].tolist()]
        expect = [
            c
            for c in combinations(labels, k + 1)
            if all(hamming_distance(a, b) <= 2 for a, b in combinations(c, 2))
        ]
        expect.sort(key=lambda c: c[::-1])
        assert got == expect
    with pytest.raises(ValueError):
        induced_subcomplex(skel, [0, 99])


def _assert_filtered(parent: Skeleton, sub: Skeleton, keep) -> None:
    """sub holds exactly the simplices of parent whose label tuples keep
    accepts, layer by layer in colex order, as uint32 rows."""
    assert sub.dim_cap == parent.dim_cap
    assert sub.complete_flag == parent.complete_flag
    for k, rows in enumerate(parent.simplices):
        labels = [tuple(parent.verts[row].tolist()) for row in rows]
        expect = sorted(filter(keep, labels), key=lambda c: c[::-1])
        got = sub.simplices[k]
        assert got.dtype == np.uint32 and got.shape == (len(expect), k + 1)
        assert [tuple(sub.verts[row].tolist()) for row in got] == expect


def _random_labelled_facets(rng) -> Skeleton:
    """Random complex on arbitrary labels, closed downward from a few facets,
    with empty layers when dim_cap passes the top."""
    labels = rng.choice(30, size=int(rng.integers(1, 9)), replace=False)
    facets = [
        rng.choice(labels, size=int(rng.integers(1, min(len(labels), 4) + 1)),
                   replace=False)
        for _ in range(int(rng.integers(1, 6)))
    ]
    if len(labels) >= 3 and rng.random() < 0.5:  # a hollow triangle: not flag
        facets += combinations(rng.choice(labels, size=3, replace=False), 2)
    top = max(len(f) for f in facets) - 1
    return skeleton_from_facets(facets, dim_cap=int(rng.integers(max(top - 1, 0),
                                                                 top + 3)))


def test_derived_complexes_match_brute_force_filters():
    rng = np.random.default_rng(5)
    flag = [random_flag_skeleton(rng) for _ in range(40)]
    for skel in flag + [_random_labelled_facets(rng) for _ in range(40)]:
        labels = skel.verts.tolist()
        v = labels[int(rng.integers(len(labels)))]
        _assert_filtered(skel, delete_vertex(skel, v), lambda c: v not in c)
        some = {u for u in labels if rng.random() < 0.5}
        _assert_filtered(skel, induced_subcomplex(skel, some),
                         lambda c: set(c) <= some)
    for skel in flag:
        edges = [tuple(skel.verts[row].tolist()) for row in skel.simplices[1]]
        if not edges:
            continue
        sigma = edges[int(rng.integers(len(edges)))]
        closed = [{u} | {w for e in edges if u in e for w in e} for u in sigma]
        _assert_filtered(skel, star_cluster(skel, sigma),
                         lambda c: any(set(c) <= near for near in closed))


def test_link_is_induced_subcomplex_on_neighbors():
    space = SpaceSpec(m=12, r=2)
    skel = enumerate_skeleton(space, 3)
    nbrs = sorted(neighborhood(space, 11))
    link = link_complex(space, 11, 3)
    ind = induced_subcomplex(skel, nbrs)
    assert link.verts.tolist() == nbrs
    for a, b in zip(link.simplices, ind.simplices):
        assert a.tolist() == b.tolist()


def test_skeleton_from_facets_tetrahedron_boundary():
    skel = skeleton_from_facets(combinations(range(4), 3))
    assert skel.counts == (4, 6, 4)
    assert skel.complete_flag
    assert skel.top_dimension() == 2
    truncated = skeleton_from_facets([(0, 1, 2, 3)], dim_cap=1)
    assert truncated.counts == (4, 6)
    assert not truncated.complete_flag
    with pytest.raises(ValueError):
        skeleton_from_facets([])
    with pytest.raises(ValueError):
        skeleton_from_facets([()])


def test_star_cluster_keeps_dominated_simplices(q4r2):
    sigma = (0, 3)
    cluster = star_cluster(q4r2, sigma)
    assert cluster.has_simplex(sigma)
    closed = [1 << v for v in sigma]  # closed neighbourhoods, as label bitmasks
    for a, b in q4r2.simplices[1].tolist():
        for j, v in enumerate(sigma):
            if v in (a, b):
                closed[j] |= (1 << a) | (1 << b)
    for k in range(cluster.dim_cap + 1):
        for row in cluster.simplices[k].tolist():
            smask = 0
            for i in row:
                smask |= 1 << int(cluster.verts[i])
            assert any(smask & ~c == 0 for c in closed)
    # everything dominated by a sigma vertex must have been kept
    kept_edges = {tuple(cluster.verts[r].tolist()) for r in cluster.simplices[1]}
    for row in q4r2.simplices[1].tolist():
        smask = (1 << row[0]) | (1 << row[1])
        if any(smask & ~c == 0 for c in closed):
            assert tuple(row) in kept_edges


def test_star_cluster_rejects_non_simplex(q3r2):
    with pytest.raises(ValueError):
        star_cluster(q3r2, (0, 7))  # distance 3 > scale 2


@given(st.data())
def test_simplex_rank_unrank_round_trip(data):
    universe = data.draw(st.integers(1, 24))
    size = data.draw(st.integers(1, universe))
    sigma = data.draw(
        st.sets(st.integers(0, universe - 1), min_size=size, max_size=size)
    )
    sr = simplex_rank(sigma, universe)
    assert sr.dimension == size - 1
    assert simplex_unrank(sr.dimension, sr.rank, universe) == tuple(sorted(sigma))


def test_rank_order_matches_layer_order(q3r2):
    for k in range(q3r2.top_dimension() + 1):
        ranks = [
            simplex_rank(row, q3r2.num_vertices).rank
            for row in q3r2.simplices[k].tolist()
        ]
        assert ranks == sorted(ranks)
        assert ranks == q3r2.layer_keys(k).tolist()


def test_rank_unrank_validation():
    with pytest.raises(ValueError):
        simplex_rank((), 4)
    with pytest.raises(ValueError):
        simplex_rank((1, 1), 4)
    with pytest.raises(ValueError):
        simplex_rank((0, 4), 4)
    with pytest.raises(ValueError):
        simplex_unrank(2, 4, 4)  # only C(4,3)=4 two-simplices: ranks 0..3
    with pytest.raises(ValueError):
        simplex_unrank(-1, 0, 4)


def test_has_simplex(q3r2):
    assert q3r2.has_simplex((0, 1, 2))
    assert q3r2.has_simplex([5])
    assert not q3r2.has_simplex((0, 7))  # antipodal pair, distance 3
    assert not q3r2.has_simplex((0, 1, 2, 3, 4))  # empty top layer
    with pytest.raises(ValueError):
        q3r2.has_simplex((0, 1, 2, 3, 4, 5))  # dimension above dim_cap
    with pytest.raises(ValueError):
        q3r2.has_simplex((0, 8))
    with pytest.raises(ValueError):
        q3r2.has_simplex((1, 1))  # repeated vertex


def test_simplex_diameter():
    space = SpaceSpec.hypercube(4, 2)
    assert simplex_diameter((0,), space) == 0
    assert simplex_diameter((0, 3, 5), space) == 2
    assert simplex_diameter((0, 15), space) == 4
    with pytest.raises(ValueError):
        simplex_diameter((0, 16), space)
    with pytest.raises(ValueError):
        simplex_diameter((), space)


def test_kneser_complex_small_cases():
    octa = kneser_independence_complex(4, 3)
    assert octa.counts == (6, 12, 8, 0)
    assert octa.complete_flag
    with pytest.raises(ValueError):
        kneser_independence_complex(1, 2)


def test_write_skeleton_text(tmp_path, q3r2):
    path = tmp_path / "skel.txt"
    write_skeleton_text(q3r2, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "4 8 3 2"
    body = [tuple(int(v) for v in line.split()) for line in lines[1:]]
    assert len(body) == sum(q3r2.counts)
    expect = [
        tuple(row)
        for k in range(q3r2.dim_cap + 1)
        for row in q3r2.simplices[k].tolist()
    ]
    assert body == expect
    facet_complex = skeleton_from_facets([(0, 1, 2)])
    with pytest.raises(ValueError):
        write_skeleton_text(facet_complex, tmp_path / "nope.txt")


def test_skeleton_layers_are_downward_closed(q4r2):
    for k in range(1, q4r2.top_dimension() + 1):
        present = {tuple(r) for r in q4r2.simplices[k - 1].tolist()}
        for row in q4r2.simplices[k].tolist():
            for t in range(len(row)):
                assert tuple(row[:t] + row[t + 1 :]) in present
