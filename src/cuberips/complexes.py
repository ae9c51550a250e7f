"""Flag-complex skeletons: clique enumeration, derived subcomplexes,
combinatorial ranking, and a plain-text export.

A skeleton stores one index array per dimension.  Rows are vertex indices
into ``verts`` (the sorted external labels), ascending within each row, and
rows are sorted colexicographically — the order of combinatorial-number-system
ranks.  These uint32 row arrays are the only simplex format: enumeration
produces them directly and homology reads them.

Every flag skeleton — of a Hamming space, an explicit graph, a link or a
Kneser complement — is built by one constructor, ``_flag_complex``, from
the sorted labels and two arrays of edge positions a < b.  Each caller
finds its edges in NumPy, and ``_pack_graph``, the one packer of graph
bits, turns them into uint64 adjacency rows.

Enumeration grows one layer at a time.  Next to its rows, layer k keeps
packed candidate bitsets: row j of ``cand`` has bit u set when u is above
the top vertex of simplex j and adjacent to all its vertices.  Each set bit
is one child in layer k+1, so the next layer's size is a popcount, known
before anything is built.  The children are read off one 64-bit word at a
time, from the parents whose word is nonzero only, and sorted by their new
top vertex; parent rows and candidate words are then gathered with
np.take, a row as a single void item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .hamming import SpaceSpec, _flips, hamming_distance, neighborhood

DEFAULT_BUDGET = 1 << 28
_RANK_LIMIT = (1 << 63) - 1


class SizeBudgetExceeded(RuntimeError):
    """Enumeration would exceed the simplex-count budget.

    ``partial_counts`` holds the per-dimension counts fully enumerated before
    the abort.
    """

    def __init__(self, message: str, partial_counts=()):
        super().__init__(message)
        self.partial_counts = tuple(int(c) for c in partial_counts)


def _resolve_budget(budget) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    budget = int(budget)
    if budget < 1:
        raise ValueError("budget must be positive")
    return budget


def _np_binom(nv: int, tmax: int) -> np.ndarray:
    """Table of C(v, t) for v <= nv, t <= tmax, as int64.

    Raises if any needed value would overflow the 63-bit rank keys; such a
    layer could not be enumerated under any realistic budget anyway.
    """
    if math.comb(nv, min(tmax, nv // 2)) > _RANK_LIMIT:
        raise OverflowError(
            f"rank keys for {nv} vertices at {tmax} slots exceed 63 bits"
        )
    out = np.zeros((nv + 1, tmax + 1), dtype=np.int64)
    out[:, 0] = 1
    for t in range(1, tmax + 1):
        # Pascal: C(v, t) = C(v-1, t) + C(v-1, t-1)
        np.cumsum(out[: nv + 1, t - 1][:-1], out=out[1:, t])
    return out


def _layer_ranks(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Combinatorial-number-system rank of each row: sum of C(row[t], t+1),
    read from an _np_binom table with at least width + 1 columns."""
    out = np.zeros(len(rows), dtype=np.int64)
    for t in range(rows.shape[1]):
        out += table[rows[:, t], t + 1]
    return out


@dataclass(eq=False)
class Skeleton:
    """Per-dimension simplex inventories of a simplicial complex.

    ``simplices[k]`` is a (counts[k], k+1) uint32 array for every
    0 <= k <= dim_cap (empty beyond the top dimension).  ``complete_flag`` is
    true when dim_cap is at least the top dimension of the full complex, i.e.
    nothing was truncated away.  ``source`` is the SpaceSpec of a metric
    enumeration, which the text export reads, and None otherwise.
    ``_closed`` marks a skeleton built closed under faces and in colex
    order, which homology then need not check; a skeleton built by hand is
    unmarked.
    """

    verts: np.ndarray
    simplices: list[np.ndarray]
    dim_cap: int
    complete_flag: bool
    source: SpaceSpec | None = None
    _closed: bool = field(default=False, init=False, repr=False)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.simplices)

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    def top_dimension(self) -> int:
        """Largest dimension with at least one stored simplex (-1 if empty)."""
        for k in range(self.dim_cap, -1, -1):
            if len(self.simplices[k]):
                return k
        return -1

    def layer_keys(self, k: int) -> np.ndarray:
        """Sorted int64 rank keys of the dimension-k layer.

        On a skeleton not marked closed, raises ValueError unless the rows
        ascend and their keys increase: the readers of the keys search them.
        """
        rows = self.simplices[k]
        keys = _layer_ranks(rows, _np_binom(self.num_vertices, k + 1))
        if not self._closed and (
            (rows[:, 1:] <= rows[:, :-1]).any() or (keys[1:] <= keys[:-1]).any()
        ):
            raise ValueError(f"layer {k} is not in colex order")
        return keys

    def has_simplex(self, sigma) -> bool:
        """Membership test for a simplex given by external labels."""
        rank = simplex_rank(_positions(self, sorted(int(v) for v in sigma)),
                            self.num_vertices)
        if rank.dimension > self.dim_cap:
            raise ValueError(
                f"dimension {rank.dimension} above dim_cap {self.dim_cap}"
            )
        keys = self.layer_keys(rank.dimension)
        pos = int(np.searchsorted(keys, rank.rank))
        return pos < len(keys) and int(keys[pos]) == rank.rank


def _positions(skel: Skeleton, labels) -> np.ndarray:
    """Vertex indices of the given labels; ValueError if one is not a vertex."""
    if not np.isin(labels, skel.verts).all():
        raise ValueError(f"vertices {labels} not all present in skeleton")
    return np.searchsorted(skel.verts, labels)


def _restrict(skel: Skeleton, keep) -> Skeleton:
    """The subcomplex made of the rows that keep[k] selects in layer k.

    keep[k] is a boolean mask over skel.simplices[k], and the selection must
    be closed under faces.  Row i of layer 0 is vertex i, so keep[0] picks
    the vertices; they are renumbered in order.  The result stops at
    dimension len(keep) - 1.
    """
    renumber = np.cumsum(keep[0]) - 1
    out = Skeleton(
        verts=skel.verts[keep[0]],
        simplices=[
            renumber[rows[mask]].astype(np.uint32)
            for rows, mask in zip(skel.simplices, keep)
        ],
        dim_cap=len(keep) - 1,
        complete_flag=skel.complete_flag,
    )
    out._closed = skel._closed
    return out


def _pack_graph(a, b, nv: int) -> np.ndarray:
    """The graph on nv vertices with an arc from a[i] to b[i] for every i,
    as an (nv, ceil(nv/64)) little-endian uint64 array whose row v has bit
    u set iff some arc goes from v to u.  Repeated arcs are harmless."""
    out = np.zeros((nv, -(-nv // 64)), dtype="<u8")
    bit = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
    np.bitwise_or.at(out, (a, b >> 6), bit)
    return out


def _next_layer(rows, cand, up, size):
    """Rows and candidates of layer k+1, one child per set candidate bit.

    Candidates go one 64-bit word at a time, and only the parents whose
    word is nonzero are unpacked, 64 bytes each.  The positions 64*j + bit
    of the set bits (j counting those parents) come in parent order; a
    stable sort on the bit (a radix sort of uint8 keys) orders the children
    by new top vertex u, then by parent: colex order.  Each parent row is
    gathered as one void item into a structured view of the child rows.
    A child keeps the parent's candidates that are neighbours of u above
    u: np.take(axis=0) gathers the parents' words straight into the child
    block, and the rows of up are ANDed in.  Each int64 index array is
    dropped as soon as it has been read.
    """
    n, width = rows.shape
    child_rows = np.empty((size, width + 1), dtype=np.uint32)
    child_cand = np.empty((size, up.shape[1]), dtype=up.dtype)
    items = rows.view(f"V{4 * width}")[:, 0]
    child = child_rows.view([("head", f"V{4 * width}"), ("top", np.uint32)])[:, 0]
    at = 0
    for w in range(up.shape[1]):
        hit = np.flatnonzero(cand[:, w] != 0)
        bits = np.unpackbits(cand[hit, w].view(np.uint8), bitorder="little")
        flat = np.flatnonzero(bits.view(bool))
        del bits
        flat = flat[np.argsort(flat.astype(np.uint8) & 63, kind="stable")]
        end = at + len(flat)
        top = child["top"][at:end]
        np.bitwise_and(flat, 63, out=top, casting="unsafe")
        top += 64 * w
        flat >>= 6
        parent = hit[flat]
        del flat, hit
        child["head"][at:end] = np.take(items, parent)
        # parent is in range, and mode="clip" lets np.take write into the
        # block directly instead of through a buffer
        np.take(cand, parent, axis=0, out=child_cand[at:end], mode="clip")
        del parent
        child_cand[at:end] &= np.take(up, top, axis=0)
        at = end
    return child_rows, child_cand


def _flag_layers(up, dim_cap, budget=None):
    """Breadth-first clique expansion over packed candidate bitsets.

    up is an (nv, ceil(nv/64)) little-endian uint64 array whose row v has
    bit u set iff u > v and uv is an edge.  Returns (layers, complete);
    layers[k] holds the uint32 rows of dimension k for every k <= dim_cap
    (empty above the top dimension).  Each layer's size is known before it
    is built, so a budget overrun aborts cleanly with the counts of the
    finished layers.
    """
    budget = _resolve_budget(budget)
    nv = len(up)
    layers = [np.zeros((0, k + 1), dtype=np.uint32) for k in range(dim_cap + 1)]
    rows, cand = np.arange(nv, dtype=np.uint32).reshape(nv, 1), up
    counts: list[int] = []
    size = nv  # of layer k, from the popcount of layer k-1's candidates
    for k in range(dim_cap + 1):
        if sum(counts) + size > budget:
            raise SizeBudgetExceeded(
                f"budget {budget} exceeded at dimension {k}", counts
            )
        if k:
            rows, cand = _next_layer(rows, cand, up, size)
        counts.append(size)
        layers[k] = rows
        size = int(np.bitwise_count(cand).sum())
        if size == 0:
            break
    return layers, size == 0


def _flag_complex(verts: np.ndarray, a, b, dim_cap: int, budget) -> Skeleton:
    """The flag complex, up to dimension dim_cap, of the graph on the sorted
    labels verts with an edge between positions a[i] < b[i] for every i.
    Every flag skeleton is built here, and marked closed."""
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    layers, complete = _flag_layers(_pack_graph(a, b, len(verts)), dim_cap, budget)
    skel = Skeleton(verts, layers, dim_cap, complete)
    skel._closed = True
    return skel


def enumerate_skeleton(space: SpaceSpec, dim_cap: int, budget=None) -> Skeleton:
    """All simplices of the flag complex of space, up to dimension dim_cap.

    Simplices are the vertex sets of pairwise Hamming distance <= space.r.
    Raises SizeBudgetExceeded if the total simplex count would pass budget
    (default 2**28).
    """
    # The neighbours u of v are v ^ f for the flips f; each edge is kept
    # once, from its lower end v < u < m.
    v = np.arange(space.m, dtype=np.int64)[:, None]
    u = v ^ np.array(_flips(space), dtype=np.int64)
    edge = (v < u) & (u < space.m)
    skel = _flag_complex(np.arange(space.m, dtype=np.int64),
                         np.broadcast_to(v, u.shape)[edge], u[edge], dim_cap, budget)
    skel.source = space
    return skel


def flag_skeleton_from_graph(labels, edges, dim_cap: int, budget=None) -> Skeleton:
    """Flag complex of an explicit graph: distinct labels, and edges as
    pairs of labels in either order, repeats allowed."""
    verts = np.sort(np.array(list(labels), dtype=np.int64))
    if (verts[1:] == verts[:-1]).any():
        raise ValueError("labels must be distinct")
    pairs = np.array(list(edges), dtype=np.int64)
    pairs = pairs.reshape(len(pairs), 2)
    loop = pairs[:, 0] == pairs[:, 1]
    bad = loop | ~np.isin(pairs, verts).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        a, b = pairs[j].tolist()
        if loop[j]:
            raise ValueError(f"loop edge at {a}")
        raise ValueError(f"edge ({a}, {b}) uses an unknown label")
    pos = np.searchsorted(verts, pairs)
    return _flag_complex(verts, pos.min(axis=1), pos.max(axis=1), dim_cap, budget)


def link_complex(space: SpaceSpec, v: int, dim_cap: int, budget=None) -> Skeleton:
    """Flag complex induced on the neighbors of v (v itself excluded)."""
    nbrs = np.array(sorted(neighborhood(space, v)), dtype=np.int64)
    a, b = np.triu_indices(len(nbrs), 1)
    near = np.bitwise_count(nbrs[a] ^ nbrs[b]) <= space.r
    return _flag_complex(nbrs, a[near], b[near], dim_cap, budget)


def kneser_independence_complex(n: int, dim_cap: int, budget=None) -> Skeleton:
    """Independence complex of the Kneser graph on 2-subsets of an n-set.

    Vertices are the 2-subsets in colexicographic order (labelled by their
    rank); simplices are families of pairwise *intersecting* 2-subsets.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    lo, hi = np.array([(x, y) for y in range(n) for x in range(y)]).T
    # independence complex of the Kneser graph = flag complex of its complement
    a, b = np.triu_indices(len(lo), 1)
    meet = (lo[a] == lo[b]) | (lo[a] == hi[b]) | (hi[a] == lo[b]) | (hi[a] == hi[b])
    return _flag_complex(np.arange(len(lo), dtype=np.int64), a[meet], b[meet],
                         dim_cap, budget)


def skeleton_from_facets(facets, dim_cap=None) -> Skeleton:
    """Build a skeleton from explicit top simplices (closed downward)."""
    facets = [tuple(sorted(int(v) for v in f)) for f in facets]
    if not facets or any(not f for f in facets):
        raise ValueError("facets must be nonempty simplices")
    verts = sorted({v for f in facets for v in f})
    lookup = {v: i for i, v in enumerate(verts)}
    top = max(len(f) for f in facets) - 1
    if dim_cap is None:
        dim_cap = top
    by_dim: list[set[tuple[int, ...]]] = [set() for _ in range(dim_cap + 1)]
    for f in facets:
        idx = [lookup[v] for v in f]
        for k in range(min(dim_cap, len(idx) - 1) + 1):
            by_dim[k].update(combinations(idx, k + 1))
    sims = [
        np.array(sorted(faces, key=lambda c: c[::-1]), dtype=np.uint32)  # colex
        .reshape(-1, k + 1)
        for k, faces in enumerate(by_dim)
    ]
    skel = Skeleton(
        verts=np.asarray(verts, dtype=np.int64),
        simplices=sims,
        dim_cap=dim_cap,
        complete_flag=dim_cap >= top,
    )
    skel._closed = True
    return skel


def delete_vertex(skel: Skeleton, v: int) -> Skeleton:
    """Subcomplex on all vertices except label v."""
    keep = np.ones(skel.num_vertices, dtype=bool)
    keep[_positions(skel, [v])] = False
    return _restrict(skel, [keep[rows].all(axis=1) for rows in skel.simplices])


def induced_subcomplex(skel: Skeleton, vs) -> Skeleton:
    """Subcomplex on the given set of vertex labels."""
    want = sorted({int(v) for v in vs})
    keep = np.zeros(skel.num_vertices, dtype=bool)
    keep[_positions(skel, want)] = True
    return _restrict(skel, [keep[rows].all(axis=1) for rows in skel.simplices])


def star_cluster(skel: Skeleton, sigma) -> Skeleton:
    """Union of the vertex stars of sigma's vertices, truncated at dim_cap.

    Defined for flag skeletons: a simplex lies in the star of v exactly when
    all its vertices are adjacent to (or equal to) v.
    """
    sigma = tuple(sorted(int(v) for v in sigma))
    if not skel.has_simplex(sigma):
        raise ValueError(f"sigma {sigma} is not a simplex of the skeleton")
    near = np.eye(skel.num_vertices, dtype=bool)  # closed neighbourhoods
    if skel.dim_cap >= 1:
        a, b = skel.simplices[1].T
        near[a, b] = near[b, a] = True
    closed = near[_positions(skel, sigma)]
    return _restrict(
        skel,
        [closed[:, rows].all(axis=2).any(axis=0) for rows in skel.simplices],
    )


def simplex_diameter(sigma, space: SpaceSpec) -> int:
    """Largest pairwise Hamming distance within sigma."""
    labels = sorted(int(v) for v in sigma)
    if not labels:
        raise ValueError("sigma must be nonempty")
    for v in labels:
        if not 0 <= v < space.m:
            raise ValueError(f"vertex {v} out of range for m={space.m}")
    best = 0
    for a, b in combinations(labels, 2):
        d = hamming_distance(a, b)
        if d > best:
            best = d
    return best


@dataclass(frozen=True)
class SimplexRank:
    """Position of a simplex in the colexicographic order of its dimension."""

    dimension: int
    rank: int


def simplex_rank(sigma, universe_size: int) -> SimplexRank:
    """Colexicographic rank via the combinatorial number system."""
    labels = sorted(int(v) for v in sigma)
    if not labels or len(set(labels)) != len(labels):
        raise ValueError("sigma must be a nonempty set of distinct vertices")
    if labels[0] < 0 or labels[-1] >= universe_size:
        raise ValueError("sigma outside universe")
    rank = sum(math.comb(v, t + 1) for t, v in enumerate(labels))
    return SimplexRank(dimension=len(labels) - 1, rank=rank)


def simplex_unrank(dimension: int, rank: int, universe_size: int) -> tuple[int, ...]:
    """Inverse of simplex_rank."""
    if dimension < 0 or dimension >= universe_size:
        raise ValueError("dimension out of range")
    if not 0 <= rank < math.comb(universe_size, dimension + 1):
        raise ValueError("rank out of range")
    out = []
    limit = universe_size
    rem = rank
    for t in range(dimension, -1, -1):
        v = limit - 1
        while math.comb(v, t + 1) > rem:
            v -= 1
        out.append(v)
        rem -= math.comb(v, t + 1)
        limit = v
    return tuple(reversed(out))


def write_skeleton_text(skel: Skeleton, path) -> None:
    """Plain-text export: header "dim_cap m n r", then one simplex per line
    (space-separated increasing labels), grouped by ascending dimension."""
    space = skel.source
    if not isinstance(space, SpaceSpec):
        raise ValueError("text export requires a metric-space skeleton")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{skel.dim_cap} {space.m} {space.n} {space.r}\n")
        for arr in skel.simplices:
            labels = skel.verts[arr] if len(arr) else arr
            for row in np.asarray(labels).tolist():
                fh.write(" ".join(str(v) for v in row) + "\n")
