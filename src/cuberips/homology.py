"""Reduced simplicial homology over prime fields.

Every boundary computation starts from one index array per layer: row j of
``_facet_row_indices`` holds, for each vertex position t of the j-th
k-simplex, the row in layer k-1 of the facet that drops position t.  NumPy
builds it one position at a time: one vector of combinatorial-number-system
facet keys, updated by two table gathers per position, and one searchsorted
of it against the sorted keys of layer k-1.  The coboundary index is the CSR
transpose of the next layer's facet rows, made by one in-place sort of
packed (facet row, coface, sign) keys.  No global sparse matrix is ever
materialized, and no key arithmetic runs in Python.

Every Betti number comes from one upward sweep through coboundary
columns, which have the same ranks as the boundary columns: the pivot rows
of δ_{k-1} clear their columns of δ_k, so clearing flows from the cheap low
dimensions upward and one pass suffices.  ``betti_single_dim`` is that sweep
over layers 0..i+1.

One kernel, ``_reduce_index``, reduces every map for every prime.  An entry
that drops position t carries the coefficient (-1)**t.  It walks the
columns from last to first and takes each column's lowest row as its
pivot: the order of persistent cohomology over the colex filtration, in
which the rows a prefix {0..m-1} spans come first.  NumPy gives each row to
the first column in that order whose lowest row it is; only the remaining,
colliding columns are reduced in Python, each read into a row->coefficient
dict together with the pivots it meets.  The set of pivot rows depends
only on the column space, so neither the order nor clearing changes it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .complexes import Skeleton, _np_binom, enumerate_skeleton
from .hamming import SpaceSpec


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


def _coboundary_index(facet_rows: np.ndarray, n_lo: int):
    """Coboundary columns of the layer below, as (entries, starts).

    The CSR transpose of the facet rows of layer k+1: column c lists, in
    ascending order, the cofaces of the c-th k-simplex, each with the sign
    of the facet-row column t it came from.  One in-place sort of the
    packed keys facet_row << shift | j << 1 | (t & 1) does the transpose;
    the keys are distinct, because a coface meets each of its facets once.
    The keys are packed in facet_rows itself, so the caller's array is
    consumed: pass a copy to keep the facet rows.
    """
    n, width = facet_rows.shape
    shift = (2 * n).bit_length()
    if (n_lo - 1) << shift >= 1 << 63:
        raise OverflowError(
            f"coboundary keys of {n_lo} rows and {n} cofaces exceed 63 bits"
        )
    starts = np.zeros(n_lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(facet_rows.ravel(), minlength=n_lo), out=starts[1:])
    keys = facet_rows
    keys <<= shift
    keys |= (np.arange(n, dtype=np.int64) << 1)[:, None]
    keys[:, 1::2] |= 1
    keys = keys.ravel()
    keys.sort()
    keys &= (1 << shift) - 1
    return keys, starts


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


def _reduce_index(entries: np.ndarray, starts: np.ndarray, n_rows: int, p: int,
                  cleared: np.ndarray) -> np.ndarray:
    """Sorted int64 pivot rows over GF(p) of the n_rows-row matrix whose
    column c holds the entries entries[starts[c]:starts[c+1]] in ascending
    row order, leaving out the columns in cleared.  The rank is the number
    of rows returned.

    An entry 2*row + s stands for the coefficient (-1)**s in that row.  The
    live columns are walked from last to first, and a column's pivot is its
    lowest row, its first entry.  owner[row] is the column that holds the
    row: np.unique gives it to the first column in the walk with that
    lowest row, and such a column is never read unless another collides
    with it.  Every other column is reduced in Python against the owner of
    its lowest row, which may come later in the walk, until it is zero or
    its lowest row has no owner, which it then takes.  A lazy min-heap of
    its rows gives its lowest row.

    Row i is a pivot exactly when rows 0..i have a larger rank than rows
    0..i-1, so the returned rows depend only on the column space, not on the
    order in which columns are reduced.  Clearing keeps the column space in
    any order: the previous map's reduced column with lowest row c is a
    cocycle, so column c here is a combination of the columns after it.
    """
    keep = np.diff(starts) > 0
    keep[cleared] = False
    order = np.flatnonzero(keep)[::-1]
    lows, first = np.unique(entries[starts[order]] >> 1, return_index=True)
    owner = np.full(n_rows, -1, dtype=np.int64)
    owner[lows] = order[first]

    def read(c: int) -> dict[int, int]:
        return {e >> 1: p - 1 if e & 1 else 1
                for e in entries[starts[c] : starts[c + 1]].tolist()}

    # held[row] is the owner of row as a {row: coeff} dict: an untouched
    # column once a collision has read it, or a reduced column.
    held: dict[int, dict[int, int]] = {}
    for c in np.delete(order, first).tolist():
        col = read(c)
        heap = list(col)  # ascending, so already a min-heap
        low = heap[0]
        while True:
            piv = held.get(low)
            if piv is None:
                piv = held[low] = read(int(owner[low]))
            f = col[low] * pow(piv[low], -1, p) % p
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
            low = heap[0]
            if owner[low] < 0:
                owner[low] = c
                held[low] = col
                break
    return np.flatnonzero(owner >= 0)


def _check_rank(rank: int, n_rows: int, n_cols: int) -> None:
    if rank > min(n_rows, n_cols):
        raise RuntimeError(
            f"rank {rank} of a {n_rows} x {n_cols} map: engine bug"
        )


def _coboundary_ranks(skel: Skeleton, maxdim: int, p: int):
    """Ranks of the boundary maps for dimensions 1..maxdim+1.

    Returns (ranks, top_known); ranks[j] = rank of the map from j-chains.
    top_known is False when the skeleton is truncated exactly at maxdim, in
    which case ranks[maxdim+1] is a placeholder zero.
    """
    ranks = [0] * (maxdim + 2)
    top_known = True
    cleared = np.zeros(0, dtype=np.int64)
    for k in range(maxdim + 1):
        if k + 1 > skel.dim_cap:
            top_known = skel.complete_flag
            break
        if len(skel.simplices[k + 1]) == 0:
            continue
        # No local names: the facet rows are packed in place by the
        # transpose, and the coboundary index is freed once reduced.
        cleared = _reduce_index(
            *_coboundary_index(
                _facet_row_indices(
                    skel.simplices[k + 1], skel.layer_keys(k), skel.num_vertices
                ),
                len(skel.simplices[k]),
            ),
            len(skel.simplices[k + 1]),
            p,
            cleared,
        )
        ranks[k + 1] = len(cleared)
        _check_rank(ranks[k + 1], *skel.counts[k : k + 2])
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
    layers 0..i+1.

    Exact (not provisional): the full (i+1)-layer is enumerated, so the rank
    of the map into dimension i is known.
    """
    _check_prime(p)
    if i < 1:
        raise ValueError("i must be >= 1 (betti_numbers covers dimension 0)")
    return betti_numbers(enumerate_skeleton(space, i + 1, budget), p, i).reduced_betti[i]


def connected_components(skel: Skeleton) -> int:
    """Number of connected components of the stored 1-skeleton (union-find)."""
    parent = list(range(skel.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if skel.dim_cap >= 1:
        for a, b in skel.simplices[1].tolist():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return sum(1 for v in range(len(parent)) if find(v) == v)
