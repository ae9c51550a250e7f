"""Reduced simplicial homology over prime fields.

Every Betti number comes from one upward sweep through coboundary
columns, which have the same ranks as the boundary columns: the pivot rows
of δ_{k-1} clear their columns of δ_k, so clearing flows from the cheap low
dimensions upward and one pass suffices.  ``betti_single_dim`` is that sweep
over layers 0..i+1.

The sweep reduces no explicit matrix.  δ_0 needs no reduction at all: its
pivot rows are the edges that join two components when the edges are added
in colex order, Kruskal's forest for every prime, which
``_spanning_forest`` finds by labelling components in NumPy.  Above δ_0, in
colex order the cofaces of a k-simplex s are s + v for the common
neighbours v of its vertices, and their rows rise with v, so the lowest row
of column s is s plus its smallest common neighbour: one AND of packed
adjacency bitsets, one combinatorial-number-system key and one searchsorted
against the sorted keys of layer k+1 (``_lowest_cofaces``).  A full column
is enumerated the same way, in Python, only when the kernel reads it
(``_coface_reader``); the collapse probe reads the cofaces of its free faces
through the same reader.  An entry whose new vertex lands in slot t carries
the coefficient (-1)**t.  One binomial table, as wide as the highest layer
the sweep reaches, serves every key of a call.

The cofaces come from the graph and the forest from the edge order, so the
sweep trusts the skeleton to be closed under faces and in colex order.  The
constructors that guarantee it mark the skeleton.  On an unmarked one the
sweep and the collapse probe first check that layer 0 lists the vertices
in order (``connected_components`` checks that much too), that every row
ascends and that every layer's rank keys increase, and then run
``_facet_row_indices``, which finds, by one searchsorted per vertex
position, the row in layer k-1 of every facet of layer k and raises when
one is missing.  Boundary matrices, the integer SNF and the collapse probe
use those facet rows too; the first two search the rank keys of
``Skeleton.layer_keys``, which checks the order of an unmarked layer.

One kernel, ``_reduce_index``, reduces every map above δ_0 for every prime.
It walks the columns from last to first and takes each column's lowest row
as its pivot: the order of persistent cohomology over the colex filtration,
in which the rows a prefix {0..m-1} spans come first.  NumPy gives each row
to the first column in that order whose lowest row it is; only the
remaining, colliding columns are reduced in Python, each read into a
row->coefficient dict together with the pivots it meets.  The set of pivot
rows depends only on the column space, so neither the order nor clearing
changes it.  Each map of the sweep writes one debug line to the "cuberips"
logger.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    Skeleton,
    _layer_ranks,
    _np_binom,
    _pack_graph,
    enumerate_skeleton,
)
from .hamming import SpaceSpec

# Columns per block in _lowest_cofaces: 2**16 keeps its temporaries at a
# few MB on any layer.
_BLOCK = 1 << 16


def _check_prime(p: int) -> int:
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    return p


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over GF(p) through dimension maxdim.

    Entries above trusted_through are provisional: the skeleton stopped at
    exactly maxdim without being complete, so the rank of the next boundary
    map was unavailable and the top value may be inflated.
    """

    p: int
    maxdim: int
    reduced_betti: tuple[int, ...]
    trusted_through: int

    def is_trusted(self, i: int) -> bool:
        return i <= self.trusted_through


@dataclass(eq=False)
class SparseBoundaryMatrix:
    """Boundary map from k-chains to (k-1)-chains over GF(p).

    facet_rows[j, t] is the row of the facet of the j-th k-simplex obtained
    by dropping vertex position t; its coefficient is (-1)**t mod p.
    """

    dimension: int
    p: int
    n_rows: int
    n_cols: int
    facet_rows: np.ndarray

    def column(self, j: int) -> list[tuple[int, int]]:
        return [
            (int(r), (-1) ** t % self.p)
            for t, r in enumerate(self.facet_rows[j].tolist())
        ]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for j in range(self.n_cols):
            for r, c in self.column(j):
                dense[r, j] = (dense[r, j] + c) % self.p
        return dense


def _facet_row_indices(rows: np.ndarray, keys_lo: np.ndarray, nv: int) -> np.ndarray:
    """Facet rows of a layer of k-simplices on nv vertices.

    Returns an (N_k, k+1) array whose entry [j, t] is the index, in the
    sorted rank keys keys_lo of layer k-1, of the facet of rows[j] that drops
    vertex position t.  Raises ValueError when a facet is missing.
    """
    n, width = rows.shape
    out = np.empty((n, width), dtype=np.int64)
    if n == 0:
        return out
    if len(keys_lo) == 0:
        raise ValueError("skeleton is not closed under faces")
    table = _np_binom(nv, width)
    # The facet that drops the top position keeps every other vertex in
    # place: its key is sum_{i < width-1} C(v_i, i+1).
    key = np.zeros(n, dtype=np.int64)
    for i in range(width - 1):
        key += table[rows[:, i], i + 1]
    for t in range(width - 1, -1, -1):
        if t < width - 1:
            # Dropping t instead of t+1 puts v_{t+1} in slot t, where v_t was.
            key += table[rows[:, t + 1], t + 1]
            key -= table[rows[:, t], t + 1]
        idx = np.searchsorted(keys_lo, key)
        np.minimum(idx, len(keys_lo) - 1, out=idx)
        if (keys_lo[idx] != key).any():
            raise ValueError("skeleton is not closed under faces")
        out[:, t] = idx
    return out


def boundary_matrix(skel: Skeleton, k: int, p: int = 2) -> SparseBoundaryMatrix:
    """Explicit sparse boundary map in dimension k (1 <= k <= dim_cap)."""
    _check_prime(p)
    if not 1 <= k <= skel.dim_cap:
        raise ValueError(f"k={k} outside 1..{skel.dim_cap}")
    return SparseBoundaryMatrix(
        dimension=k,
        p=p,
        n_rows=len(skel.simplices[k - 1]),
        n_cols=len(skel.simplices[k]),
        facet_rows=_facet_row_indices(
            skel.simplices[k], skel.layer_keys(k - 1), skel.num_vertices
        ),
    )


def _reduce_index(low: np.ndarray, read, n_rows: int, p: int,
                  stats: dict | None = None) -> np.ndarray:
    """Sorted int64 pivot rows over GF(p) of the n_rows-row matrix whose
    column c has lowest row low[c] (-1 for an empty or cleared column, which
    is left out) and reads in full as read(c), a {row: coeff} dict with its
    rows in ascending order.  The rank is the number of rows returned.

    The live columns are walked from last to first, and a column's pivot is
    its lowest row.  owner[row] is the column that holds the row: np.unique
    gives it to the first column in the walk with that lowest row, and such
    a column is never read unless another collides with it.  Every other
    column is reduced in Python against the owner of its lowest row, which
    may come later in the walk, until it is zero or its lowest row has no
    owner, which it then takes.  A lazy min-heap of its rows gives its
    lowest row.  When stats is a dict, the columns settled by np.unique, the
    columns read and the column additions are stored in it.

    Row i is a pivot exactly when rows 0..i have a larger rank than rows
    0..i-1, so the returned rows depend only on the column space, not on the
    order in which columns are reduced.  Clearing keeps the column space in
    any order: the previous map's reduced column with lowest row c is a
    cocycle, so column c here is a combination of the columns after it.
    """
    order = np.flatnonzero(low >= 0)[::-1]
    lows, first = np.unique(low[order], return_index=True)
    owner = np.full(n_rows, -1, dtype=np.int64)
    owner[lows] = order[first]

    # held[row] is the owner of row as a {row: coeff} dict: an untouched
    # column once a collision has read it, or a reduced column.
    held: dict[int, dict[int, int]] = {}
    colliding = np.delete(order, first).tolist()
    reads, additions = len(colliding), 0
    for c in colliding:
        col = read(c)
        heap = list(col)  # ascending, so already a min-heap
        lo = heap[0]
        while True:
            piv = held.get(lo)
            if piv is None:
                piv = held[lo] = read(int(owner[lo]))
                reads += 1
            additions += 1
            f = col[lo] * pow(piv[lo], -1, p) % p
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if not nv:
                    del col[r]
                    continue
                if r not in col:
                    heapq.heappush(heap, r)
                col[r] = nv
            while heap and heap[0] not in col:
                heapq.heappop(heap)
            if not heap:
                break
            lo = heap[0]
            if owner[lo] < 0:
                owner[lo] = c
                held[lo] = col
                break
    if stats is not None:
        stats.update(settled=len(first), read=reads, additions=additions)
    return np.flatnonzero(owner >= 0)


def _adjacency(edges: np.ndarray, nv: int) -> np.ndarray:
    """The graph of an edge layer, as an (nv, ceil(nv/64)) little-endian
    uint64 array whose row v has bit u set iff uv is an edge."""
    a, b = edges.T
    return _pack_graph(np.concatenate([a, b]), np.concatenate([b, a]), nv)


def _lowest_cofaces(rows: np.ndarray, keys_hi: np.ndarray, adj: np.ndarray,
                    table: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row in the layer above, with sorted rank keys keys_hi, of the lowest
    coface of each simplex rows[c] for c in cols; -1 for the other columns
    and for a simplex with no coface.

    The cofaces of s = (s_0 < ... < s_k) are s + v for common neighbours v
    of its vertices, and their rows rise with v, so the lowest one adds the
    smallest v whose key is a row.  With t = #{s_i < v} that key is
    C(v, t+1) + sum_i C(s_i, i+1+[s_i > v]).  Only a complex that is not
    flag misses a key; its v is dropped and the next one tried.  The common
    neighbours are ANDed one 64-bit word at a time, and a simplex goes on
    to the next word only when it has no coface in this one.  Columns go in
    blocks of _BLOCK, so the temporaries stay small on any layer.
    """
    low = np.full(len(rows), -1, dtype=np.int64)
    width = rows.shape[1]
    flat, stride = table.ravel(), table.shape[1]
    last = len(keys_hi) - 1
    # np.take(..., axis=0) gathers rows several times faster than indexing.
    for start in range(0, len(cols), _BLOCK):
        block = cols[start : start + _BLOCK]
        simplex = np.take(rows, block, axis=0).astype(np.int64)
        pending = np.arange(len(block))  # block positions with no coface yet
        for w, word in enumerate(adj.T):
            if not len(pending):
                break
            s = np.take(simplex, pending, axis=0)
            bits = word[s[:, 0]]
            for i in range(1, width):
                bits &= word[s[:, i]]
            some = np.flatnonzero(bits)
            later = [pending[bits == 0]]
            at, s, bits = pending[some], np.take(s, some, axis=0), bits[some]
            while len(at):
                one = bits & (~bits + 1)  # the lowest set bit
                v = 64 * w + np.bitwise_count(one - 1).astype(np.int64)
                slot = np.full(len(at), width + 1)  # t + 1
                key = np.zeros(len(at), dtype=np.int64)
                for i in range(width):
                    above = s[:, i] > v
                    slot -= above
                    key += flat[s[:, i] * stride + (i + 1) + above]
                key += flat[v * stride + slot]
                idx = np.minimum(np.searchsorted(keys_hi, key), last)
                hit = keys_hi[idx] == key
                low[block[at[hit]]] = idx[hit]
                bits ^= one
                later.append(at[~hit & (bits == 0)])
                more = np.flatnonzero(~hit & (bits != 0))
                at, s, bits = at[more], np.take(s, more, axis=0), bits[more]
            pending = np.concatenate(later)
    return low


def _coface_reader(rows: np.ndarray, keys_hi: np.ndarray, adj: np.ndarray,
                   table: np.ndarray, p: int):
    """read(c): the coboundary column of the simplex rows[c] over GF(p), as
    a {row: coeff} dict with its rows in ascending order, where the cofaces
    form the layer with sorted rank keys keys_hi.  adj is the graph from
    _adjacency and table an _np_binom table with at least width + 2 columns.

    A column s reads its cofaces s + v over the common neighbours v of its
    vertices, with coefficient (-1)**t for t = #{s_i < v}; one searchsorted
    of their keys finds their rows and drops the keys that are not rows.
    Most maps read no column, so read makes its Python copies of adj and of
    the binomial table at its first call.
    """
    width = rows.shape[1]
    last = len(keys_hi) - 1
    ints = binom = None

    def read(c: int) -> dict[int, int]:
        nonlocal ints, binom
        if ints is None:
            ints = [int.from_bytes(row.tobytes(), "little") for row in adj]
            binom = table.tolist()
        s = rows[c].tolist()
        common = ints[s[0]]
        for x in s[1:]:
            common &= ints[x]
        # The key of s + v in slot t is below[t] + C(v, t+1) + above[t].
        below, above = [0] * (width + 1), [0] * (width + 1)
        for i, x in enumerate(s):
            below[i + 1] = below[i] + binom[x][i + 1]
        for i in range(width - 1, -1, -1):
            above[i] = above[i + 1] + binom[s[i]][i + 2]
        keys, slot = [], []
        t = 0
        while common:
            bit = common & -common
            common ^= bit
            v = bit.bit_length() - 1
            while t < width and s[t] < v:
                t += 1
            keys.append(below[t] + binom[v][t + 1] + above[t])
            slot.append(t)
        key = np.array(keys, dtype=np.int64)
        idx = np.minimum(np.searchsorted(keys_hi, key), last)
        hit = keys_hi[idx] == key
        return {r: p - 1 if t & 1 else 1
                for r, t, h in zip(idx.tolist(), slot, hit.tolist()) if h}

    return read


def _coboundary_columns(skel: Skeleton, k: int, p: int, cleared: np.ndarray,
                        adj: np.ndarray, table: np.ndarray):
    """(low, read) of δ_k for k >= 1, leaving out the columns in cleared,
    with no index built; adj is _adjacency of skel's edges and table an
    _np_binom table with at least k + 3 columns.  δ_0 is not reduced: see
    _spanning_forest.
    """
    rows = skel.simplices[k]
    keys_hi = _layer_ranks(skel.simplices[k + 1], table)
    live = np.ones(len(rows), dtype=bool)
    live[cleared] = False
    low = _lowest_cofaces(rows, keys_hi, adj, table, np.flatnonzero(live))
    return low, _coface_reader(rows, keys_hi, adj, table, p)


def _spanning_forest(edges: np.ndarray, nv: int) -> np.ndarray:
    """Sorted int64 rows of the edges that join two components when the
    edge layer is added one edge at a time in colex order: Kruskal's
    spanning forest, and the pivot rows of δ_0 over every field.  There are
    nv less the number of components of them.

    Colex order groups the edges by their top vertex b.  The first edge of
    each group meets b for the first time, so it joins; the components of
    these first edges are labelled by pointer jumping.  Two vertices up to
    b are joined by the edges before (a, b) exactly when the first edges
    and the other edges before it join them: a later first edge (x, c),
    c > b, only attaches c, and a path through vertices above b would need
    two edges down from its top vertex, which has one.  So only the other
    edges whose ends carry different labels go through a union-find over
    labels, in order; on the hypercube prefixes there are none.
    """
    a, b = edges[:, 0], edges[:, 1]
    if (a >= b).any() or (b[1:] < b[:-1]).any():
        raise ValueError("edges are not in colex order")
    first = np.ones(len(edges), dtype=bool)
    np.not_equal(b[1:], b[:-1], out=first[1:])
    label = np.arange(nv)
    label[b[first]] = a[first]
    while True:
        up = label[label]
        if np.array_equal(up, label):
            break
        label = up
    forest = np.flatnonzero(first)
    rest = np.flatnonzero(~first)
    la, lb = label[a[rest]], label[b[rest]]
    apart = la != lb
    if not apart.any():
        return forest
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while x in parent:
            up = parent[x]
            parent[x] = parent.get(up, up)  # path splitting
            x = up
        return x

    joined = []
    for j, x, y in zip(rest[apart].tolist(), la[apart].tolist(), lb[apart].tolist()):
        x, y = find(x), find(y)
        if x != y:
            parent[x] = y
            joined.append(j)
    return np.sort(np.concatenate([forest, np.array(joined, dtype=np.int64)]))


def _check_rank(rank: int, n_rows: int, n_cols: int) -> None:
    if rank > min(n_rows, n_cols):
        raise RuntimeError(
            f"rank {rank} of a {n_rows} x {n_cols} map: engine bug"
        )


def _check_unmarked(skel: Skeleton, top: int) -> None:
    """Raise ValueError unless skel, a skeleton not marked closed, has the
    vertices 0..nv-1 in order as layer 0, and its layers 1..top ascend
    within rows and increase in rank keys, which Skeleton.layer_keys checks,
    and are closed under faces."""
    nv = skel.num_vertices
    if not np.array_equal(skel.simplices[0], np.arange(nv)[:, None]):
        raise ValueError("layer 0 is not the vertices in order")
    keys_lo = np.arange(nv)  # the rank key of vertex v is C(v, 1) = v
    for k in range(1, top + 1):
        keys = skel.layer_keys(k)
        _facet_row_indices(skel.simplices[k], keys_lo, nv)
        keys_lo = keys


def _coboundary_ranks(skel: Skeleton, maxdim: int, p: int):
    """Ranks of the boundary maps for dimensions 1..maxdim+1.

    Returns (ranks, top_known); ranks[j] = rank of the map from j-chains.
    top_known is False when the skeleton is truncated exactly at maxdim, in
    which case ranks[maxdim+1] is a placeholder zero.
    """
    # Imported here, so that a process that only enumerates does not carry
    # the logging module (about 0.6 MB of RSS).
    import logging

    log = logging.getLogger("cuberips")
    nv, counts = skel.num_vertices, skel.counts
    # The table reaches the highest nonempty layer read, not maxdim + 1: a
    # wider one could overflow 63 bits for layers that are empty anyway.
    top = min(maxdim + 1, skel.dim_cap)
    while top and not counts[top]:
        top -= 1
    table = _np_binom(nv, top + 1)
    if not skel._closed:
        _check_unmarked(skel, top)
    ranks = [0] * (maxdim + 2)
    top_known = True
    cleared = np.zeros(0, dtype=np.int64)
    adj = _adjacency(skel.simplices[1], nv) if top >= 2 else None
    for k in range(maxdim + 1):
        if k + 1 > skel.dim_cap:
            top_known = skel.complete_flag
            break
        n_hi = counts[k + 1]
        if n_hi == 0:
            continue
        if k == 0:
            cleared = _spanning_forest(skel.simplices[1], nv)
            log.debug("δ_0: %d columns, %d edges in the spanning forest",
                      counts[0], len(cleared))
        else:
            stats: dict[str, int] = {}
            n_cleared = len(cleared)
            # No local names: the columns and the keys they read are freed
            # once reduced.
            cleared = _reduce_index(
                *_coboundary_columns(skel, k, p, cleared, adj, table), n_hi, p, stats
            )
            log.debug(
                "δ_%d: %d columns, %d cleared, %d settled in NumPy, %d read in "
                "Python, %d additions", k, counts[k], n_cleared, stats["settled"],
                stats["read"], stats["additions"],
            )
        ranks[k + 1] = len(cleared)
        _check_rank(ranks[k + 1], *counts[k : k + 2])
    return ranks, top_known


def betti_numbers(skel: Skeleton, p: int = 2, maxdim=None) -> BettiVector:
    """Reduced Betti numbers of the skeleton over GF(p), dims 0..maxdim.

    maxdim defaults to dim_cap and may not exceed it.  The top value is
    certified only if the (maxdim+1)-layer was stored or the skeleton is
    complete; otherwise trusted_through = maxdim - 1.
    """
    _check_prime(p)
    if maxdim is None:
        maxdim = skel.dim_cap
    if maxdim < 0:
        raise ValueError("maxdim must be nonnegative")
    if maxdim > skel.dim_cap:
        raise ValueError(
            f"maxdim {maxdim} exceeds dim_cap {skel.dim_cap}: insufficient skeleton"
        )
    nv = skel.num_vertices
    if nv == 0:
        return BettiVector(p, maxdim, (0,) * (maxdim + 1), maxdim)
    counts = skel.counts
    ranks, top_known = _coboundary_ranks(skel, maxdim, p)
    betti = tuple(
        counts[i] - ranks[i] - ranks[i + 1] - (1 if i == 0 else 0)
        for i in range(maxdim + 1)
    )
    trusted = maxdim if top_known else maxdim - 1
    if any(b < 0 for b in betti[: trusted + 1]):
        raise RuntimeError(f"negative Betti number {betti}: engine bug")
    return BettiVector(p=p, maxdim=maxdim, reduced_betti=betti, trusted_through=trusted)


def betti_single_dim(space: SpaceSpec, i: int, p: int = 2, budget=None) -> int:
    """β̃_i of the flag complex of space, from the coboundary sweep over
    layers 0..i+1.

    Exact (not provisional): the full (i+1)-layer is enumerated, so the rank
    of the map into dimension i is known.
    """
    _check_prime(p)
    if i < 1:
        raise ValueError("i must be >= 1 (betti_numbers covers dimension 0)")
    return betti_numbers(enumerate_skeleton(space, i + 1, budget), p, i).reduced_betti[i]


def connected_components(skel: Skeleton) -> int:
    """Number of connected components of the stored 1-skeleton: the number
    of vertices less the size of its spanning forest."""
    if not skel._closed:
        _check_unmarked(skel, 0)
    if skel.dim_cap == 0:
        return skel.num_vertices
    return skel.num_vertices - len(_spanning_forest(skel.simplices[1], skel.num_vertices))
