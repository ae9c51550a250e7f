"""Reduced simplicial homology over prime fields.

Every Betti number comes from one upward sweep through coboundary
columns, which have the same ranks as the boundary columns: the pivot rows
of δ_{k-1} clear their columns of δ_k, so clearing flows from the cheap low
dimensions upward and one pass suffices.  On a skeleton with the flag mark
and its edges stored, every map reads its cofaces from the graph, so δ_maxdim
needs no layer maxdim+1 and ``betti_numbers`` is exact through dim_cap;
``betti_single_dim`` is that sweep over layers 0..i.  Any other skeleton
truncated at maxdim gives a provisional top value.

The sweep reduces no explicit matrix.  δ_0 needs no reduction at all: its
pivot rows are the edges that join two components when the edges are added
in colex order, Kruskal's forest for every prime, which
``_spanning_forest`` finds by labelling components in NumPy.  Above δ_0, in
colex order the cofaces of a k-simplex s are s + v for the common
neighbours v of its vertices, and their rows rise with v, so the lowest row
of column s is s plus its smallest common neighbour: one AND of packed
adjacency bitsets and one combinatorial-number-system key
(``_lowest_cofaces``).  Every map names a row by that rank key, as Ripser
names a simplex by its combinatorial index.  In a flag complex, as every
skeleton with the flag mark is (see ``complexes``), every common neighbour
spans a coface, so no map searches the keys of the layer above; on any
other skeleton one searchsorted against them drops the keys of no simplex.
Clearing alone needs positions: δ_k starts by turning the pivot keys of
δ_{k-1} into positions in layer k, so a map that never runs ranks nothing.
Full columns are enumerated the same way, in NumPy, a batch at a time, only
when the kernel reads them (``_coface_reader``).  An entry whose new vertex
lands in slot t carries the coefficient (-1)**t.

The cofaces come from the graph and the forest from the edge order, so the
sweep trusts the skeleton to be closed under faces and in colex order, as
every ``Skeleton`` is: its constructor checks one built by hand, and the
package's own constructors build it so.  Boundary matrices, the integer
SNF and the collapse probe take facet rows from ``_facet_row_indices``,
one searchsorted per vertex position against the rank keys of the layer
below, which the constructor's closure check runs too.

One kernel, ``_reduce_index``, reduces every map above δ_0 for every prime.
It walks the columns from last to first and takes each column's lowest row
as its pivot: the order of persistent cohomology over the colex filtration,
in which the rows a prefix {0..m-1} spans come first.  NumPy gives each row
to the first column in that order whose lowest row it is; only the
remaining, colliding columns are reduced in Python, in rounds: each runs
against the pivots already read until it meets one that is not, and one
batched read then serves every column that waits.  The set of pivot rows
depends only on the column space, so neither the order nor clearing
changes it.  Each map of the sweep writes one debug line to the "cuberips"
logger, with the rounds its kernel took.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    Skeleton,
    _coface_keys,
    _facet_row_indices,
    _find,
    _pack_graph,
    _set_bits,
    enumerate_skeleton,
)
from .hamming import SpaceSpec

# Columns per block in _lowest_cofaces and _coface_reader, and colliding
# columns per block in _reduce_index.  A block of _lowest_cofaces holds its
# simplices as int64 twice, 8 (k + 1) bytes a column each: 655 KB on δ_4 at
# 2**14 columns, under the 2 MiB L2 cache per core of the 2-core x86-64 box
# it was sized on, and 2.6 MB at 2**16.  On δ_4 of Q6 r=3 (100,175 live
# columns) the call's traced peak is 4.0 MiB at 2**14 and 11.2 MiB at 2**16.
# Of 2**12..2**16, 2**14 ran the benchmark's scale3-q6 and sphere3-q9r2
# fastest; at 2**12 and 2**13 the per-block Python costs more.  On
# scale3-q6 it saves about 11 % of the raw time of 2**16 (BENCH_22.json).
_BLOCK = 1 << 14


def _check_args(p: int, maxdim: int = 0) -> None:
    """Raise ValueError unless p is prime and maxdim is nonnegative."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    if maxdim < 0:
        raise ValueError("maxdim must be nonnegative")


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over GF(p) through dimension maxdim.

    Entries above trusted_through are provisional: the skeleton stopped at
    exactly maxdim without being complete, and either it has no flag mark
    or it stores no edges (dim_cap 0), so the rank of the next boundary map
    was unavailable and the top value may be inflated.
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


def boundary_matrix(skel: Skeleton, k: int, p: int = 2) -> SparseBoundaryMatrix:
    """Explicit sparse boundary map in dimension k (1 <= k <= dim_cap)."""
    _check_args(p)
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


def _reduce_index(low: np.ndarray, read, p: int,
                  stats: dict | None = None) -> np.ndarray:
    """Sorted int64 pivot rows over GF(p) of the matrix whose column c has
    lowest row low[c] (-1 for an empty or cleared column, which is left
    out) and whose columns read(cols) returns in full, as {c: {row: coeff}}
    with each column's rows in ascending order.  A row is a rank key, or
    any other int64 id that rises with row order.  The rank is the number of
    rows returned.

    The live columns are walked from last to first, and a column's pivot is
    its lowest row.  One stable argsort of the lowest rows settles each on
    the first column in the walk that has it, and such a column is never
    read unless another collides with it.  The colliding columns are
    reduced _BLOCK at a time, in rounds, so one read holds at most _BLOCK
    of them and the owners they wait for.  In a round each column is reduced
    in Python against the owners of its lowest rows that are already read,
    until it is zero, or its lowest row's owner is unread or missing.  Then
    one searchsorted of the rows the blocked columns wait for, against the
    settled rows, and one read of their owners serve them all; a column
    whose row turned out to have no owner takes it in the next round.  A
    lazy min-heap of a column's rows gives its lowest row.  When stats is a
    dict, the settled rows, the columns read, the column additions and the
    rounds are stored in it.

    Row i is a pivot exactly when rows 0..i have a larger rank than rows
    0..i-1, so the returned rows depend only on the column space, not on the
    order in which columns are reduced.  Clearing keeps the column space in
    any order: the previous map's reduced column with lowest row c is a
    cocycle, so column c here is a combination of the columns after it.
    """
    live = np.flatnonzero(low >= 0)
    live = live[np.argsort(low[live], kind="stable")]  # by lowest row, then column
    at = low[live]
    # The last column of each run with one lowest row comes first in the walk.
    first = np.ones(len(live), dtype=bool)
    np.not_equal(at[1:], at[:-1], out=first[:-1])
    lows, owners = at[first], live[first]
    colliding = np.sort(live[~first])[::-1]
    del live, at, first

    # held[row] is the owner of row as a {row: coeff} dict once it is read:
    # a settled column that a collision needed, or a reduced column.
    held: dict[int, dict[int, int]] = {}
    taken: list[int] = []  # rows that reduced columns took
    reads = additions = rounds = 0
    for start in range(0, len(colliding), _BLOCK):
        fresh = colliding[start : start + _BLOCK]
        # (column, its dict and heap once read, the row last searched for it)
        run = [(c, None, None, -1) for c in fresh.tolist()]
        wait = low[fresh]
        if held:  # owners that an earlier block read
            wait = wait[np.fromiter((r not in held for r in wait.tolist()), bool, len(wait))]
        while run:
            rounds += 1
            at, hit = _find(lows, wait)
            at = np.sort(at[hit])
            at = at[np.flatnonzero(np.diff(at, prepend=-1))]  # once each
            got = read(np.concatenate([fresh, owners[at]]))
            reads += len(fresh) + len(at)
            for r, c in zip(lows[at].tolist(), owners[at].tolist()):
                held[r] = got[c]
            blocked, wait = [], []
            for c, col, heap, searched in run:
                if col is None:
                    col = got[c]
                    heap = list(col)  # ascending, so already a min-heap
                while True:
                    lo = heap[0]
                    piv = held.get(lo)
                    if piv is None:
                        if lo == searched:  # no column settled on lo
                            held[lo] = col
                            taken.append(lo)
                        else:
                            blocked.append((c, col, heap, lo))
                            wait.append(lo)
                        break
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
            run, wait, fresh = blocked, np.array(wait, dtype=np.int64), fresh[:0]
    if stats is not None:
        stats.update(settled=len(lows), read=reads, additions=additions, rounds=rounds)
    del owners, colliding
    if not taken:
        return lows
    pivots = np.concatenate([lows, np.array(taken, dtype=np.int64)])
    pivots.sort()
    return pivots


def _adjacency(edges: np.ndarray, nv: int) -> np.ndarray:
    """The graph of an edge layer, as an (nv, ceil(nv/64)) little-endian
    uint64 array whose row v has bit u set iff uv is an edge."""
    a, b = edges.T
    return _pack_graph(np.concatenate([a, b]), np.concatenate([b, a]), nv)


def _is_coface(key: np.ndarray, keys_hi: np.ndarray | None) -> np.ndarray:
    """Whether each coface key names a simplex: every one when keys_hi is
    None, on a skeleton with the flag mark, since in a flag complex every
    common neighbour v of s spans the coface s + v; otherwise those among
    the sorted rank keys keys_hi of the layer above."""
    if keys_hi is None:
        return np.ones(len(key), dtype=bool)
    return _find(keys_hi, key)[1]


def _lowest_cofaces(rows: np.ndarray, keys_hi: np.ndarray | None, adj: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Rank key of the lowest coface of each simplex rows[c] for c in cols;
    -1 for the other columns and for a simplex with no coface.  keys_hi is
    as in _is_coface.

    The cofaces of s = (s_0 < ... < s_k) are s + v for common neighbours v
    of its vertices, and their keys rise with v, so the lowest one adds the
    smallest v whose key names a simplex.  Only a complex that is not flag
    misses a key; its v is dropped and the next one tried.  The common
    neighbours are ANDed one 64-bit word at a time, and a simplex goes on to
    the next word only when it has no coface in this one.  Columns go
    _BLOCK at a time: a block holds its simplices as int64 twice, all of
    them and then those still pending, and a few int64 arrays of one entry
    per column (see _BLOCK for their size).
    """
    low = np.full(len(rows), -1, dtype=np.int64)
    nv, width = len(adj), rows.shape[1]
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
                key = _coface_keys(s, v, nv)[0]
                hit = _is_coface(key, keys_hi)
                low[block[at[hit]]] = key[hit]
                bits ^= one
                later.append(at[~hit & (bits == 0)])
                more = np.flatnonzero(~hit & (bits != 0))
                at, s, bits = at[more], np.take(s, more, axis=0), bits[more]
            pending = np.concatenate(later)
    return low


def _coface_reader(rows: np.ndarray, keys_hi: np.ndarray | None, adj: np.ndarray,
                   p: int):
    """read(cols): the coboundary columns over GF(p) of the simplices
    rows[c] for c in the int64 array cols, as {c: {key: coeff}} with each
    column's cofaces named by rank key, in ascending order.  adj is the
    graph from _adjacency, and keys_hi is as in _is_coface.

    A column s reads its cofaces s + v over the common neighbours v of its
    vertices, with coefficient (-1)**t for t = #{s_i < v}.  The columns go
    _BLOCK at a time: one AND of adjacency rows per vertex position gives
    their common neighbours, one row of words per column, and one _set_bits
    of all their words lists every coface of the block in one pass, in
    row-major order, which is by column and then by ascending v.  One
    _coface_keys and one _is_coface then serve them all, and only the dicts
    are built in Python.  So a block holds its simplices as int64, its
    words, and a key, slot, hit and coefficient per coface.
    """
    nv, width = len(adj), rows.shape[1]

    def read(cols: np.ndarray) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for start in range(0, len(cols), _BLOCK):
            block = cols[start : start + _BLOCK]
            s = np.take(rows, block, axis=0).astype(np.int64)
            common = np.take(adj, s[:, 0], axis=0)
            for i in range(1, width):
                common &= np.take(adj, s[:, i], axis=0)
            at, v = np.divmod(_set_bits(common), 64 * adj.shape[1])
            del common
            key, slot = _coface_keys(np.take(s, at, axis=0), v, nv)
            hit = _is_coface(key, keys_hi)
            ends = np.cumsum(np.bincount(at[hit], minlength=len(block))).tolist()
            key = key[hit].tolist()
            coeff = np.where(slot[hit] & 1, 1, p - 1).tolist()  # (-1)**(slot - 1)
            a = 0
            for c, b in zip(block.tolist(), ends):
                out[c] = dict(zip(key[a:b], coeff[a:b]))
                a = b
        return out

    return read


def _coboundary_columns(skel: Skeleton, k: int, p: int, cleared: np.ndarray,
                        adj: np.ndarray, keys_hi: np.ndarray | None):
    """(low, read) of δ_k for k >= 1, leaving out the columns at the
    positions cleared, with no index built; adj is _adjacency of skel's
    edges.  Each row is the rank key of a coface.  keys_hi is as in
    _is_coface: None on a skeleton with the flag mark, whose layer k + 1
    need not be stored.  δ_0 is not reduced: see _spanning_forest.
    """
    rows = skel.simplices[k]
    live = np.ones(len(rows), dtype=bool)
    live[cleared] = False
    low = _lowest_cofaces(rows, keys_hi, adj, np.flatnonzero(live))
    return low, _coface_reader(rows, keys_hi, adj, p)


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


def _check_rank(rank: int, n_rows: int | None, n_cols: int) -> None:
    """Raise if rank passes the size of a map; n_rows is None for a map
    past dim_cap, whose rows are the rank keys of a layer never built."""
    if rank > (n_cols if n_rows is None else min(n_rows, n_cols)):
        size = f"{n_cols}-column" if n_rows is None else f"{n_rows} x {n_cols}"
        raise RuntimeError(f"rank {rank} of a {size} map: engine bug")


def _coboundary_ranks(skel: Skeleton, maxdim: int, p: int):
    """Ranks of the boundary maps for dimensions 1..maxdim+1.

    Returns (ranks, top_known); ranks[j] = rank of the map from j-chains.
    Every map names its rows by rank key; δ_k (k >= 2) starts by turning
    the pivot keys of δ_{k-1} into the positions in layer k it clears.  A
    marked skeleton ranks no other layer, so never layer maxdim+1; an
    unmarked one ranks layer k+1 in δ_k to test its keys, and δ_{k+1}
    clears by the same keys.  A stored map's rank is checked against its
    size.  When the skeleton is truncated at maxdim == dim_cap, a marked
    one that stores edges (dim_cap >= 1) reads δ_maxdim from the graph all
    the same and checks its rank against its live columns; on any other,
    top_known is False and ranks[maxdim+1] is a placeholder zero.
    """
    # Imported here, so that a process that only enumerates does not carry
    # the logging module (about 0.6 MB of RSS).
    import logging

    log = logging.getLogger("cuberips")
    nv, counts = skel.num_vertices, skel.counts
    read_top = skel._is_flag and skel.dim_cap >= 1 and not skel.complete_flag
    ranks = [0] * (maxdim + 2)
    top_known = True
    cleared = np.zeros(0, dtype=np.int64)
    keys_hi = None  # the keys of layer k + 1 that an unmarked skeleton tests
    adj = _adjacency(skel.simplices[1], nv) if min(maxdim, skel.dim_cap) >= 1 else None
    for k in range(maxdim + 1):
        stored = k < skel.dim_cap
        if not (stored or read_top):
            top_known = skel.complete_flag
            break
        if counts[k] == 0 or stored and counts[k + 1] == 0:  # no column or no row
            continue
        n_cleared = len(cleared)
        if k == 0:
            cleared = _spanning_forest(skel.simplices[1], nv)
            log.debug("δ_0: %d columns, %d edges in the spanning forest",
                      counts[0], len(cleared))
        else:
            if k >= 2:  # δ_{k-1}'s pivot keys, as positions in layer k
                cleared = np.searchsorted(
                    skel.layer_keys(k) if keys_hi is None else keys_hi, cleared)
            keys_hi = None if skel._is_flag else skel.layer_keys(k + 1)
            stats: dict[str, int] = {}
            # No local names: the columns are freed once reduced.
            cleared = _reduce_index(*_coboundary_columns(skel, k, p, cleared, adj, keys_hi),
                                    p, stats)
            log.debug("δ_%d: %d columns, %d cleared, %d settled in NumPy, %d read, "
                      "%d additions in %d rounds", k, counts[k], n_cleared, stats["settled"],
                      stats["read"], stats["additions"], stats["rounds"])
        ranks[k + 1] = len(cleared)
        if stored:
            _check_rank(ranks[k + 1], *counts[k : k + 2])
        else:
            _check_rank(ranks[k + 1], None, counts[k] - n_cleared)
    return ranks, top_known


def betti_numbers(skel: Skeleton, p: int = 2, maxdim=None) -> BettiVector:
    """Reduced Betti numbers of the skeleton over GF(p), dims 0..maxdim.

    maxdim defaults to dim_cap and may not exceed it.  The top value is
    certified when the (maxdim+1)-layer is stored, when the skeleton is
    complete, or when the skeleton carries the flag mark and stores edges:
    every flag skeleton the package builds with dim_cap >= 1, and an
    induced subcomplex of one.  There every map reads its cofaces from the
    graph and names its rows by rank key, so layer maxdim+1 need not be
    stored, and its keys are never built or searched.
    Otherwise (a skeleton from facets or built by hand, a star cluster, a
    collapse residual, or a flag skeleton at dim_cap 0) a truncated top
    value is provisional: trusted_through = maxdim - 1.
    """
    if maxdim is None:
        maxdim = skel.dim_cap
    _check_args(p, maxdim)
    if maxdim > skel.dim_cap:
        raise ValueError(
            f"maxdim {maxdim} exceeds dim_cap {skel.dim_cap}: insufficient skeleton"
        )
    if skel.num_vertices == 0:
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
    layers 0..i: betti_numbers of the skeleton enumerated through i, whose
    top value is exact.  budget bounds the simplices of layers 0..i.
    """
    _check_args(p)
    if i < 1:
        raise ValueError("i must be >= 1 (betti_numbers covers dimension 0)")
    return betti_numbers(enumerate_skeleton(space, i, budget), p, i).reduced_betti[i]


def connected_components(skel: Skeleton) -> int:
    """Number of connected components of the stored 1-skeleton: the number
    of vertices less the size of its spanning forest."""
    if skel.dim_cap == 0:
        return skel.num_vertices
    return skel.num_vertices - len(_spanning_forest(skel.simplices[1], skel.num_vertices))
