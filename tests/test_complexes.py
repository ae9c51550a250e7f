from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import accumulate, chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuberips
from cuberips import complexes
from cuberips import (
    SizeBudgetExceeded,
    Skeleton,
    SpaceSpec,
    betti_numbers,
    betti_single_dim,
    connected_components,
    delete_vertex,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    greedy_collapse_probe,
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
    three_sphere_count,
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


def _truncation_inputs():
    """(name, dim_cap -> Skeleton) for every flag-complex constructor."""
    for n, scales in ((3, (1, 2, 3)), (4, (1, 2, 3)), (5, (1, 2))):
        for r in scales:
            for m in sorted({2**n, 2**n - 3, 2 ** (n - 1) + 1}):
                yield f"m={m} r={r}", lambda cap, m=m, r=r: enumerate_skeleton(
                    SpaceSpec(m=m, r=r), cap)
    rng = np.random.default_rng(15)
    for nv, p in ((5, 0.0), (12, 0.5), (24, 0.7), (40, 0.35), (70, 0.2), (140, 0.1)):
        edges = [(a, b) for a, b in combinations(range(nv), 2) if rng.random() < p]
        yield f"graph nv={nv} p={p}", lambda cap, nv=nv, edges=edges: (
            flag_skeleton_from_graph(range(nv), edges, cap))
    for n, r, v in ((5, 2, 0), (5, 3, 9), (6, 2, 63)):
        yield f"link Q{n} r={r} v={v}", lambda cap, n=n, r=r, v=v: link_complex(
            SpaceSpec.hypercube(n, r), v, cap)
    for n in (4, 5, 6, 7):
        yield f"kneser n={n}", lambda cap, n=n: kneser_independence_complex(n, cap)


@pytest.mark.parametrize("block", [None, 7])
def test_truncation_keeps_the_lower_layers(monkeypatch, block):
    # The layer at dim_cap keeps no candidates, only whether any child has
    # one.  Seven children per block makes every complete last layer scan
    # many blocks to the end.
    if block is not None:
        monkeypatch.setattr(complexes, "_BLOCK", block)
    for name, build in _truncation_inputs():
        top = build(64).top_dimension()
        for cap in sorted({0, 1, max(top, 0), top + 1}):
            narrow, wide = build(cap), build(cap + 1)
            for k in range(cap + 1):
                assert np.array_equal(narrow.simplices[k], wide.simplices[k]), (name, cap, k)
            assert narrow.complete_flag == (len(wide.simplices[cap + 1]) == 0), (name, cap)
        # the last layer of a top-dimension run is nonempty but complete
        assert build(top).complete_flag and build(top).counts[top] > 0, name


def test_budget_abort_carries_partial_counts():
    space = SpaceSpec.hypercube(4, 2)
    with pytest.raises(SizeBudgetExceeded) as err:
        enumerate_skeleton(space, 4, budget=100)
    assert err.value.partial_counts == (16, 80)
    # the full complex has 392 simplices: that exact budget must succeed
    enumerate_skeleton(space, 5, budget=392)
    with pytest.raises(SizeBudgetExceeded):
        enumerate_skeleton(space, 5, budget=391)


def test_vertex_count_is_checked_before_any_array():
    # 2**40 vertices pass the default budget of 2**28 simplices, and the
    # vertex array of Q40 alone would need 8 TiB.
    with pytest.raises(SizeBudgetExceeded, match="exceeded at dimension 0") as err:
        enumerate_skeleton(SpaceSpec.hypercube(40, 1), 1)
    assert err.value.partial_counts == ()
    with pytest.raises(SizeBudgetExceeded, match="budget 15 exceeded at dimension 0"):
        enumerate_skeleton(SpaceSpec.hypercube(4, 1), 1, budget=15)
    assert enumerate_skeleton(SpaceSpec.hypercube(4, 0), 1, budget=16).counts == (16, 0)


def test_budget_abort_is_clean_at_every_size():
    # betti_single_dim(space, 3) stores layers 0..3 (376 simplices) and
    # reads the cofaces of layer 3 from the graph, so the budget bounds
    # those layers only: below 376 it aborts as the enumeration does, and
    # from 376 on it answers.
    space = SpaceSpec.hypercube(4, 2)
    counts = (16, 80, 160, 120, 16)  # 392 simplices; layer 5 is empty
    for budget in range(1, sum(counts)):
        # the layers finished before the abort: the longest prefix that fits
        fits = sum(1 for total in accumulate(counts) if total <= budget)
        runs = [lambda: enumerate_skeleton(space, 5, budget=budget)]
        if budget < sum(counts[:4]):
            runs.append(lambda: betti_single_dim(space, 3, budget=budget))
        else:
            assert betti_single_dim(space, 3, budget=budget) == 9, f"budget={budget}"
        for run in runs:
            with pytest.raises(SizeBudgetExceeded) as err:
                run()
            assert err.value.partial_counts == counts[:fits], f"budget={budget}"


_LOW_LIMIT_CHILD = """
import json, os, resource
from cuberips import SizeBudgetExceeded, SpaceSpec, enumerate_skeleton
from cuberips.cli import main

def lower_address_space(headroom):
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (size + headroom, hard))

partial = []
for mb in (120, 32):
    lower_address_space(mb << 20)
    try:
        enumerate_skeleton(SpaceSpec.hypercube(7, 3), 13)
    except SizeBudgetExceeded as err:
        partial.append(err.partial_counts)
print(json.dumps({"partial": partial, "exit": main(["betti", "--n", "7", "--r", "3"])}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_byte_budget_aborts_under_a_low_address_space_limit():
    # Q7 at scale 3 peaks at about 180 MB, and its layers 4..7 need about
    # 40, 80, 104 and 95 MB.  With 32 or 120 MB of address space left, they
    # used to end in a MemoryError from np.empty or np.unpackbits; now the
    # layer that does not fit (4, then 6) is refused before it is allocated,
    # like one over the simplex budget, and the CLI exits 2.
    src = os.path.dirname(os.path.dirname(cuberips.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _LOW_LIMIT_CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert len(result["partial"]) == 2
    for partial in result["partial"]:
        assert 1 < len(partial) < 14
        uncapped = enumerate_skeleton(SpaceSpec.hypercube(7, 3), len(partial) - 1)
        assert tuple(partial) == uncapped.counts
    assert result["exit"] == 2
    listed = [line for line in child.stderr.splitlines()
              if line.startswith("partial counts\t")]
    assert len(listed) == 1
    counts = tuple(int(c) for c in listed[0].split("\t")[1:])
    assert counts and counts == tuple(result["partial"][-1][: len(counts)])


_GRAPH_LIMIT_CHILD = """
import json, os, resource
from cuberips import SizeBudgetExceeded, SpaceSpec, enumerate_skeleton
from cuberips.cli import main

with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (512 << 20), hard))
try:
    enumerate_skeleton(SpaceSpec(m=2**17, r=1), 1)
    raised = None
except SizeBudgetExceeded as err:
    raised = [str(err), list(err.partial_counts)]
print(json.dumps({"raised": raised, "exit": main(["betti", "--m", str(2**17), "--r", "1"])}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_byte_budget_covers_the_packed_graph():
    # The packed graph of 2**17 vertices takes 2**17 rows of 2**11 words:
    # 2 GiB, refused at dimension 0 before it is allocated, with 512 MB of
    # address space left, instead of a MemoryError from np.zeros.
    src = os.path.dirname(os.path.dirname(cuberips.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _GRAPH_LIMIT_CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    message, partial = result["raised"]
    assert message.startswith(f"dimension 0 needs about {2**31} bytes for the graph")
    assert partial == []
    assert result["exit"] == 2
    assert "budget exceeded: dimension 0" in child.stderr
    assert "MemoryError" not in child.stderr


_EDGE_LIMIT_CHILD = """
import json, os, resource
from cuberips import (SizeBudgetExceeded, SpaceSpec, enumerate_skeleton,
                      kneser_independence_complex, link_complex)
from cuberips.cli import main

with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), hard))
raised = []
for build in (lambda: enumerate_skeleton(SpaceSpec(m=2**24, r=1), 1),
              lambda: link_complex(SpaceSpec.hypercube(24, 12), 0, 1),
              lambda: kneser_independence_complex(200, 1)):
    try:
        build()
        raised.append(None)
    except SizeBudgetExceeded as err:
        raised.append([str(err), list(err.partial_counts)])
print(json.dumps({"raised": raised, "exit": main(["betti", "--m", str(2**24), "--r", "1"])}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_byte_budget_covers_the_edge_arrays():
    # Each constructor finds its edges in arrays whose bytes follow from
    # counts alone: 2**24 vertices times 24 flips (a 3 GiB neighbour table),
    # the 9.7 M neighbours of a vertex of Q24 at scale 12 (their Python set,
    # then 4.7e13 pairs), and the 2.0e8 pairs of 2-subsets of a 200-set
    # (3.2 GB of pair indices).  With 1 GiB of address space left, each is
    # refused at dimension 0 before it is allocated, where each used to end
    # in a MemoryError.
    src = os.path.dirname(os.path.dirname(cuberips.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _EDGE_LIMIT_CHILD], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert len(result["raised"]) == 3
    for message, partial in result["raised"]:
        assert message.startswith("dimension 0 needs about ")
        assert " bytes for the edges, " in message
        assert partial == []
    assert result["exit"] == 2
    assert "budget exceeded: dimension 0" in child.stderr
    assert "MemoryError" not in child.stderr


def test_link_of_a_missing_vertex_is_a_value_error():
    # A vertex of Q40 has about 5.5e11 neighbours at scale 20, which no
    # byte gate lets through; a vertex that is not there is named first.
    space = SpaceSpec.hypercube(40, 20)
    for v in (-1, 2**40):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            link_complex(space, v, 1)


def _fake_cgroup(tmp_path, monkeypatch, proc: str, files: dict[str, str]) -> None:
    """Point _cgroup_free_bytes at a cgroup file tree under tmp_path."""
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "cgroup").write_text(proc)
    for name, text in files.items():
        (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / name).write_text(text)
    monkeypatch.setattr(complexes, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(complexes, "_CGROUP_ROOT", str(tmp_path / "fs"))


def test_free_bytes_reads_the_memory_cgroup(tmp_path, monkeypatch):
    unbounded = complexes._free_bytes()
    v2 = "0::/job/run\n"
    _fake_cgroup(tmp_path / "a", monkeypatch, v2,
                 {"job/run/memory.max": "max\n", "job/run/memory.current": "4096\n"})
    assert complexes._cgroup_free_bytes() is None
    _fake_cgroup(tmp_path / "b", monkeypatch, v2,
                 {"job/run/memory.max": f"{3 << 20}\n", "job/run/memory.current": f"{1 << 20}\n"})
    assert complexes._cgroup_free_bytes() == 2 << 20
    assert complexes._free_bytes() == 2 << 20
    # cgroup v1: the "memory" hierarchy, beside others and a v2 line with
    # no memory controller
    v1 = "5:cpu,cpuacct:/other\n4:memory:/box/job\n0::/\n"
    _fake_cgroup(tmp_path / "c", monkeypatch, v1, {
        "memory/box/job/memory.limit_in_bytes": f"{5 << 20}",
        "memory/box/job/memory.usage_in_bytes": f"{1 << 20}",
    })
    assert complexes._free_bytes() == 4 << 20
    # an unlimited v1 group reads a limit near 2**63, and a group that
    # cannot be read bounds nothing
    _fake_cgroup(tmp_path / "d", monkeypatch, v1, {
        "memory/box/job/memory.limit_in_bytes": "9223372036854771712",
        "memory/box/job/memory.usage_in_bytes": f"{1 << 20}",
    })
    assert abs(complexes._free_bytes() - unbounded) < 64 << 20
    _fake_cgroup(tmp_path / "e", monkeypatch, v1, {})
    assert complexes._cgroup_free_bytes() is None
    monkeypatch.setattr(complexes, "_PROC_CGROUP", str(tmp_path / "missing"))
    assert complexes._cgroup_free_bytes() is None


def test_byte_budget_aborts_under_a_low_cgroup_limit(tmp_path, monkeypatch):
    # Q7 at scale 3 peaks at about 180 MB; a cgroup with 64 MB left refuses
    # a layer before it is allocated, as a low RLIMIT_AS does.
    _fake_cgroup(tmp_path, monkeypatch, "0::/\n",
                 {"memory.max": f"{(1 << 30) + (64 << 20)}", "memory.current": f"{1 << 30}"})
    with pytest.raises(SizeBudgetExceeded, match="are left") as err:
        enumerate_skeleton(SpaceSpec.hypercube(7, 3), 13)
    partial = err.value.partial_counts
    assert 1 < len(partial) < 14
    assert partial == enumerate_skeleton(SpaceSpec.hypercube(7, 3), len(partial) - 1).counts


# Q9 at scale 2 through dimension 3, on eight candidate planes: for each
# layer k >= 1, _layer_bytes of its per-plane counts, and the larger bound
# of a row-major layout that stores all eight candidate words for every row.
_Q9R2_COUNTS = (512, 11520, 61440, 122880)
_Q9R2_BOUNDS = {1: (487_680, 1_285_632), 2: (2_580_176, 7_375_872),
                3: (2_760_832, 11_057_408)}


def test_byte_gate_asks_once_per_layer_for_its_per_word_bound(monkeypatch):
    # With the free bytes pinned below, at and between the two bounds of
    # each layer, every layer asks _reserve once, for its per-plane bound,
    # and the first layer whose bound passes what is free aborts with it;
    # what is free between the two bounds admits the layer.  Layer 1's
    # bound is below _SMALL_LAYER, so no pin refuses it.
    asked = []
    reserve = complexes._reserve

    def spy(need, k, counts=(), what=""):
        if k:
            asked.append((k, need))
        return reserve(need, k, counts, what)

    monkeypatch.setattr(complexes, "_reserve", spy)
    space = SpaceSpec.hypercube(9, 2)
    per_word = [(k, bound) for k, (bound, _) in _Q9R2_BOUNDS.items()]
    frees = [None]
    for bound, row_major in _Q9R2_BOUNDS.values():
        frees += [bound - 1, bound, (bound + row_major) // 2, row_major - 1]
    for free in frees:
        if free is not None:
            monkeypatch.setattr(complexes, "_free_bytes", lambda free=free: free)
        asked.clear()
        stop = next((k for k, bound in per_word if free is not None
                     and bound > max(free, complexes._SMALL_LAYER)), None)
        if stop is None:
            assert enumerate_skeleton(space, 3).counts == _Q9R2_COUNTS
            assert asked == per_word, f"free={free}"
            continue
        need = _Q9R2_BOUNDS[stop][0]
        with pytest.raises(SizeBudgetExceeded) as err:
            enumerate_skeleton(space, 3)
        assert str(err.value) == f"dimension {stop} needs about {need} bytes, {free} are left"
        assert err.value.partial_counts == _Q9R2_COUNTS[:stop]
        assert asked == per_word[:stop], f"free={free}"


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


def _random_graph(nv: int, density: float) -> list[tuple[int, int]]:
    rng = np.random.default_rng(nv)
    return [(a, b) for a, b in combinations(range(nv), 2) if rng.random() < density]


@pytest.mark.parametrize("nv", [63, 64, 65, 127, 128, 129, 200])
def test_random_graphs_across_word_boundaries_match_networkx(nv):
    # one, two, three and four candidate planes, with vertices on both
    # sides of each word boundary
    edges = _random_graph(nv, 0.2)
    expected = _networkx_cliques(range(nv), edges)
    skel = flag_skeleton_from_graph(range(nv), edges, len(expected) - 1)
    assert skel.complete_flag
    _assert_layers_are(skel, expected)


@pytest.mark.parametrize("nv", [65, 200])
def test_candidate_planes_are_prefixes_of_the_rows(monkeypatch, nv):
    # Plane w of a layer holds one word for each row whose top vertex is
    # below 64(w+1), a prefix of the rows, and that word is the row's
    # common neighbours above its top in word w; every row past the prefix
    # has none there.  _word_counts sums the popcounts of those words.
    edges = _random_graph(nv, 0.3)
    near = np.zeros((nv, nv), dtype=bool)
    near[tuple(np.array(edges).T)] = True
    near |= near.T
    words = -(-nv // 64)
    seen = []
    next_layer = complexes._next_layer

    def spy(rows, planes, graph, children, last):
        seen.append(rows.shape[1])
        top = rows[:, -1].astype(np.int64)
        cand = near[rows].all(axis=1) & (np.arange(nv) > top[:, None])
        packed = np.zeros((len(rows), 8 * words), dtype=np.uint8)
        packed[:, : -(-nv // 8)] = np.packbits(cand, axis=1, bitorder="little")
        want = packed.view("<u8")
        assert len(planes) == words
        for w, plane in enumerate(planes):
            length = int(np.count_nonzero(top < 64 * (w + 1)))
            assert plane.shape == (length,) and plane.flags.c_contiguous
            assert np.array_equal(plane, want[:length, w])
            assert not want[length:, w].any()
        counts = complexes._word_counts(planes)
        assert counts == ([int(c) for c in np.bitwise_count(want).sum(axis=0)],
                          [int(h) for h in np.count_nonzero(want, axis=0)])
        assert children == counts[0]
        return next_layer(rows, planes, graph, children, last)

    monkeypatch.setattr(complexes, "_next_layer", spy)
    skel = flag_skeleton_from_graph(range(nv), edges, 8)
    assert seen == list(range(1, skel.top_dimension() + 1))


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_complete_graphs_fill_every_candidate_byte(n):
    # In K_n every candidate byte is 0xFF and bit 63 of each full word is
    # set; layer k holds every (k+1)-subset, row for row in colex order,
    # which is the reverse of combinations over the descending labels.
    skel = flag_skeleton_from_graph(range(n), combinations(range(n), 2), 3)
    assert not skel.complete_flag
    for k, rows in enumerate(skel.simplices):
        count = math.comb(n, k + 1)
        assert rows.shape == (count, k + 1)
        descending = combinations(range(n - 1, -1, -1), k + 1)
        expected = np.fromiter(chain.from_iterable(descending), dtype=np.uint8,
                               count=count * (k + 1)).reshape(count, k + 1)
        assert np.array_equal(rows, expected[::-1, ::-1]), f"k={k}"


def _set_bits_reference(words):
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


_RNG = np.random.default_rng(21)


@pytest.mark.parametrize("words", [
    np.zeros(0, dtype=np.uint64),
    np.zeros(5, dtype=np.uint64),
    np.zeros((4, 3), dtype=np.uint64),
    np.full(3, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64),
    np.full((2, 3), 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64),
    np.array([0, 1, 0, 1], dtype=np.uint64),
    np.array([1 << 63, 0, 1 << 63], dtype=np.uint64),
    # sparse and dense random words, and rows of W words
    (np.uint64(1) << _RNG.integers(0, 64, 1000, dtype=np.uint64))
    * (_RNG.random(1000) < 0.2),
    _RNG.integers(0, 1 << 64, 1000, dtype=np.uint64),
    _RNG.integers(0, 1 << 64, (300, 3), dtype=np.uint64)
    * (_RNG.random((300, 3)) < 0.3),
    _RNG.integers(0, 1 << 64, (77, 8), dtype=np.uint64)
    & _RNG.integers(0, 1 << 64, (77, 8), dtype=np.uint64),
], ids=["empty", "zero", "zero-rows", "ones", "ones-rows", "bit0", "bit63",
        "sparse", "random", "random-rows", "dense-rows"])
def test_set_bits_matches_unpackbits(words):
    got = complexes._set_bits(words)
    assert got.dtype == np.int64
    assert np.array_equal(got, _set_bits_reference(words))


def test_layer_bytes_bounds_the_traced_peak(monkeypatch):
    # The byte gate trusts _layer_bytes, with per-plane counts, to bound
    # what each layer's _next_layer and the counts after it allocate.
    # Layers above 10 K children are traced: uint8 rows on one word (Q6 at
    # scale 3), on eight (Q9 at scale 2, capped so its last layer keeps one
    # block), on three (a random graph), and uint16 rows on sixteen (Q10 at
    # scale 2).
    next_layer = complexes._next_layer
    checked = []

    def traced(rows, planes, graph, children, last):
        bound = complexes._layer_bytes(rows, planes, *complexes._word_counts(planes), last)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            out = next_layer(rows, planes, graph, children, last)
            complexes._word_counts(out[1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        if sum(children) > 10_000:
            checked.append((rows.shape[1], sum(children), peak, bound))
        return out

    monkeypatch.setattr(complexes, "_next_layer", traced)
    rng = np.random.default_rng(150)
    edges = [(a, b) for a, b in combinations(range(150), 2) if rng.random() < 0.3]
    runs = [lambda: enumerate_skeleton(SpaceSpec.hypercube(6, 3), 11),
            lambda: enumerate_skeleton(SpaceSpec.hypercube(9, 2), 4),
            lambda: flag_skeleton_from_graph(range(150), edges, 8),
            lambda: enumerate_skeleton(SpaceSpec.hypercube(10, 2), 3)]
    for run in runs:
        checked.clear()
        run()
        assert checked
        for width, size, peak, bound in checked:
            print(width, size, peak, bound, round(peak / bound, 3))
            assert peak <= bound, f"layer {width} of {size}: {peak} > {bound}"


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
    accepts, layer by layer in colex order, as rows of the narrowest dtype
    for its vertex count."""
    assert sub.dim_cap == parent.dim_cap
    assert sub.complete_flag == parent.complete_flag
    for k, rows in enumerate(parent.simplices):
        labels = [tuple(parent.verts[row].tolist()) for row in rows]
        expect = sorted(filter(keep, labels), key=lambda c: c[::-1])
        got = sub.simplices[k]
        assert got.dtype == complexes._row_dtype(sub.num_vertices)
        assert got.shape == (len(expect), k + 1)
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


def test_flag_mark_is_carried_by_flag_builds_and_their_induced_subcomplexes():
    # Homology reads every map of a marked skeleton from its graph, so
    # the mark may sit only on a skeleton that stores every clique up to
    # dim_cap: a flag build, or an induced subcomplex of one.
    space = SpaceSpec.hypercube(4, 2)
    marked = [
        enumerate_skeleton(space, 5),
        link_complex(space, 5, 3),
        flag_skeleton_from_graph(range(5), [(0, 1), (1, 2), (0, 2), (3, 4)], 2),
        kneser_independence_complex(5, 2),
    ]
    plain = [
        star_cluster(marked[0], (0, 3)),
        greedy_collapse_probe(marked[0], 1, budget=40).residual,
        skeleton_from_facets([(0, 1, 2), (0, 3), (1, 3)], dim_cap=2),
        Skeleton(verts=marked[0].verts, simplices=marked[0].simplices, dim_cap=5,
                 complete_flag=True),
    ]
    for skel in marked:
        assert skel._is_flag
        assert delete_vertex(skel, int(skel.verts[0]))._is_flag
        assert induced_subcomplex(skel, skel.verts[1:4].tolist())._is_flag
    for skel in plain:
        assert not skel._is_flag
        assert not delete_vertex(skel, int(skel.verts[0]))._is_flag
        assert not induced_subcomplex(skel, skel.verts[1:4].tolist())._is_flag
    assert not star_cluster(marked[3], (0,))._is_flag


def test_row_dtype_is_the_narrowest_that_holds_every_vertex():
    for nv, dtype in [(0, np.uint8), (1, np.uint8), (256, np.uint8),
                      (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]:
        assert complexes._row_dtype(nv) == dtype, nv


def test_every_constructor_returns_rows_of_the_row_dtype():
    def check(skel):
        want = complexes._row_dtype(skel.num_vertices)
        assert all(rows.dtype == want for rows in skel.simplices)
        return want

    # each constructor on both sides of the uint8/uint16 boundary
    assert check(enumerate_skeleton(SpaceSpec(m=16, r=2), 4)) == np.uint8
    wide = enumerate_skeleton(SpaceSpec(m=257, r=2), 3)
    assert check(wide) == np.uint16
    assert check(flag_skeleton_from_graph(range(0, 512, 2), [(0, 510)], 1)) == np.uint8
    assert check(flag_skeleton_from_graph(range(257), [(0, 256)], 1)) == np.uint16
    assert check(link_complex(SpaceSpec.hypercube(10, 3), 5, 2)) == np.uint8
    assert check(link_complex(SpaceSpec.hypercube(12, 3), 0, 1)) == np.uint16
    assert check(kneser_independence_complex(23, 1)) == np.uint8  # 253 vertices
    assert check(kneser_independence_complex(24, 1)) == np.uint16  # 276 vertices
    assert check(skeleton_from_facets([(0, 1, 2)])) == np.uint8
    assert check(skeleton_from_facets([(v,) for v in range(65_537)])) == np.uint32
    # the _restrict callers narrow the rows once 256 vertices or fewer are kept
    narrow = delete_vertex(wide, 256)
    assert check(narrow) == np.uint8
    assert [a.tolist() for a in narrow.simplices] == [
        a.tolist() for a in enumerate_skeleton(SpaceSpec(m=256, r=2), 3).simplices]
    assert check(induced_subcomplex(wide, range(1, 257))) == np.uint8
    assert check(induced_subcomplex(wide, range(257))) == np.uint16
    assert check(star_cluster(wide, (0, 256))) == np.uint8


@pytest.mark.parametrize("m", [255, 256, 257])
@pytest.mark.parametrize("r", [1, 2])
def test_prefixes_across_the_uint8_boundary_match_networkx(m, r):
    # vertex 256 is the first that uint8 rows cannot hold: were it stored
    # in one it would wrap to 0
    space = SpaceSpec(m=m, r=r)
    expected = _networkx_cliques(
        range(m),
        [(a, b) for a, b in combinations(range(m), 2) if hamming_distance(a, b) <= r],
    )
    skel = enumerate_skeleton(space, len(expected) - 1)
    assert skel.complete_flag
    _assert_layers_are(skel, expected)
    if r == 2:
        assert betti_numbers(skel, 2, 3).reduced_betti[3] == three_sphere_count(m)


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
    with pytest.raises(ValueError, match="dim_cap must be nonnegative"):
        skeleton_from_facets([(0, 1)], dim_cap=-1)


def _vertices(nv: int) -> np.ndarray:
    return np.arange(nv, dtype=np.uint32)[:, None]


@pytest.mark.parametrize("verts,simplices,dim_cap,message", [
    # a row naming a vertex >= nv, or below 0
    (np.arange(3), [_vertices(3), np.array([[0, 5]], dtype=np.uint32)], 1,
     r"layer 1 names a vertex outside 0\.\.2"),
    (np.arange(3), [_vertices(3), np.array([[-1, 2]])], 1,
     r"layer 1 names a vertex outside 0\.\.2"),
    # dim_cap above the number of layers, below it, and negative
    (np.arange(2), [_vertices(2)], 1, "one layer per dimension"),
    (np.arange(2), [_vertices(2), np.zeros((0, 2), dtype=np.uint32)], 0,
     "one layer per dimension"),
    (np.arange(0), [], -1, "dim_cap >= 0"),
    # a layer 1 of width 3, a flat layer and a float layer
    (np.arange(3), [_vertices(3), np.array([[0, 1, 2]], dtype=np.uint32)], 1,
     r"layer 1 is not an integer array of shape \(n, 2\)"),
    (np.arange(3), [np.arange(3, dtype=np.uint32)], 0,
     r"layer 0 is not an integer array of shape \(n, 1\)"),
    (np.arange(3), [_vertices(3).astype(float)], 0,
     r"layer 0 is not an integer array of shape \(n, 1\)"),
    # labels out of order, repeated, not an array, or not integers
    (np.array([5, 1, 3]), [_vertices(3)], 0, "verts must be"),
    (np.array([1, 1, 3]), [_vertices(3)], 0, "verts must be"),
    ([1, 3, 5], [_vertices(3)], 0, "verts must be"),
    (np.array([1.0, 3.0, 5.0]), [_vertices(3)], 0, "verts must be"),
])
def test_malformed_hand_built_skeleton_raises_when_built(verts, simplices, dim_cap,
                                                          message):
    # A reader given any of these would raise NumPy's IndexError or
    # "sigma outside universe", or count the components wrongly.
    with pytest.raises(ValueError, match=message):
        Skeleton(verts=verts, simplices=simplices, dim_cap=dim_cap, complete_flag=True)


def test_hand_built_skeleton_checks_layers_up_to_its_top_only():
    # Layers 2..20 of the 7-cube graph are empty.  Their rank keys would
    # need C(128, 21), which overflows 63 bits, so a check that read them
    # could not build this skeleton.
    q7 = enumerate_skeleton(SpaceSpec.hypercube(7, 1), 20)
    skel = Skeleton(verts=q7.verts, simplices=q7.simplices, dim_cap=20,
                    complete_flag=True)
    assert skel.counts == (128, 448) + (0,) * 19
    assert betti_numbers(skel).reduced_betti == (0, 321) + (0,) * 19
    assert connected_components(skel) == 1
    assert skel.has_simplex((0, 64)) and not skel.has_simplex((0, 3))
    assert delete_vertex(skel, 0).counts == (127, 441) + (0,) * 19


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


def test_shared_binomial_table_is_exact_where_it_is_read(monkeypatch):
    # One table serves every caller and grows to cover each request; in a
    # shuffled order it grows in rows, in columns and in both, and every
    # entry, asked for or not, is C(v, t) modulo 2**64.
    monkeypatch.setattr(complexes, "_binom", np.zeros((0, 0), dtype=np.int64))
    pairs = [(nv, t) for nv in (0, 1, 7, 64, 128, 300, 512) for t in (0, 1, 2, 5, 9, 14)
             if math.comb(nv, min(t, nv // 2)) < 2**63]
    np.random.default_rng(16).shuffle(pairs)
    shapes, builds = [(0, 0)], 0
    for nv, t in pairs:
        table = complexes._np_binom(nv, t)
        assert table[: nv + 1, : t + 1].tolist() == [
            [math.comb(v, s) for s in range(t + 1)] for v in range(nv + 1)
        ], (nv, t)
        assert table.tolist() == [
            [(math.comb(v, s) + 2**63) % 2**64 - 2**63 for s in range(table.shape[1])]
            for v in range(table.shape[0])
        ]
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2
        if table.shape != shapes[-1]:
            shapes.append(table.shape)
        builds += table is not complexes._np_binom(nv, t)
    grew = {(a[0] < b[0], a[1] < b[1]) for a, b in zip(shapes[1:], shapes[2:])}
    assert grew == {(True, False), (False, True), (True, True)}
    assert builds == 0  # a request the table covers builds none
    with pytest.raises(OverflowError, match="512 vertices at 10 slots exceed 63 bits"):
        complexes._np_binom(512, 10)
    # No cofaces need no table, though C(512, 21) overflows.
    key, slot = complexes._coface_keys(np.zeros((0, 20), dtype=np.int64),
                                       np.zeros(0, dtype=np.int64), 512)
    assert key.dtype == np.int64 and len(key) == len(slot) == 0


def test_empty_layer_past_the_rank_limit():
    # C(128, 21) is above 2**63, but layer 20 of Q7 at scale 1 is empty:
    # its keys and a lookup in it need no binomial table.
    skel = enumerate_skeleton(SpaceSpec.hypercube(7, 1), 20)
    assert skel.layer_keys(20).dtype == np.int64 and len(skel.layer_keys(20)) == 0
    assert not skel.has_simplex(range(21))


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
