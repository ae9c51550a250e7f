"""Reduced simplicial homology over prime fields.

Every boundary computation starts from one index array per layer: row j of
``_facet_row_indices`` holds, for each vertex position t of the j-th
k-simplex, the row in layer k-1 of the facet that drops position t.  NumPy
computes it from combinatorial-number-system ranks and one searchsorted
against the sorted keys of layer k-1.  The coboundary index is the CSR
transpose of the next layer's facet rows.  No global sparse matrix is ever
materialized, and no key arithmetic runs in Python.

Every Betti number comes from one upward sweep through coboundary
columns, which have the same ranks as the boundary columns: the pivot rows
of δ_{k-1} clear their columns of δ_k, so clearing flows from the cheap low
dimensions upward and one pass suffices.  ``betti_single_dim`` is that sweep
over layers 0..i+1.

One kernel, ``_reduce_index``, reduces left to right for every prime.  An
entry that drops position t carries the coefficient (-1)**t.  A column that
meets no existing pivot becomes one and is kept only as its column number;
it is read into a small row->coefficient dict when a later column collides
with it.  Most pivots are never touched, so few columns ever leave the index
arrays.
"""

from __future__ import annotations

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
    rows = rows.astype(np.int64)
    n, width = rows.shape
    if n == 0:
        return np.zeros((0, width), dtype=np.int64)
    table = _np_binom(nv, width)
    kept = np.empty((n, width), dtype=np.int64)  # C(v_i, i+1): position kept
    down = np.empty((n, width), dtype=np.int64)  # C(v_i, i): position shifted down
    for i in range(width):
        kept[:, i] = table[rows[:, i], i + 1]
        down[:, i] = table[rows[:, i], i]
    pre = np.zeros((n, width + 1), dtype=np.int64)
    np.cumsum(kept, axis=1, out=pre[:, 1:])
    suf = np.zeros((n, width + 1), dtype=np.int64)
    suf[:, :width] = down[:, ::-1].cumsum(axis=1)[:, ::-1]
    facet_keys = pre[:, :width] + suf[:, 1:]
    flat = facet_keys.ravel()
    idx = np.searchsorted(keys_lo, flat)
    if (idx >= len(keys_lo)).any() or (keys_lo[idx.clip(max=len(keys_lo) - 1)] != flat).any():
        raise ValueError("skeleton is not closed under faces")
    return idx.reshape(n, width)


def _coboundary_index(facet_rows: np.ndarray, n_lo: int):
    """Coboundary columns of the layer below, as (entries, starts).

    The CSR transpose of the facet rows of layer k+1: column c lists, in
    ascending order, the cofaces of the c-th k-simplex, each with the sign
    of the facet-row column t it came from.
    """
    width = facet_rows.shape[1]
    flat = facet_rows.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(n_lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n_lo), out=starts[1:])
    sign = order % width & 1
    order //= width
    order <<= 1
    order |= sign
    return order, starts


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


def _reduce_index(entries: np.ndarray, starts: np.ndarray, p: int,
                  cleared=()) -> tuple[int, list[int]]:
    """Rank over GF(p) of the matrix whose column c holds the entries
    entries[starts[c]:starts[c+1]] in ascending row order, leaving out the
    columns in cleared.

    An entry 2*row + s stands for the coefficient (-1)**s in that row.
    Returns the rank and the pivot rows in the order they were found.
    """
    live = np.flatnonzero(np.diff(starts))
    live = live[~np.isin(live, np.fromiter(cleared, dtype=np.int64))]
    lows = entries[starts[live + 1] - 1] >> 1

    def read(c: int) -> dict[int, int]:
        return {e >> 1: p - 1 if e & 1 else 1
                for e in entries[starts[c] : starts[c + 1]].tolist()}

    # pivots[row] is the column that owns the row: its column number while
    # it is untouched, a {row: coeff} dict once it has been read.
    pivots: dict[int, int | dict[int, int]] = {}
    for c, low in zip(live.tolist(), lows.tolist()):
        piv = pivots.get(low)
        if piv is None:
            pivots[low] = c
            continue
        col = read(c)
        while piv is not None:
            if not isinstance(piv, dict):
                piv = pivots[low] = read(piv)
            f = col[low] * pow(piv[low], -1, p) % p
            for r, v in piv.items():
                nv = (col.get(r, 0) - f * v) % p
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
            if not col:
                break
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
    return len(pivots), list(pivots)


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
    cleared: list[int] = []
    for k in range(maxdim + 1):
        if k + 1 > skel.dim_cap:
            top_known = skel.complete_flag
            break
        if len(skel.simplices[k + 1]) == 0:
            cleared = []
            continue
        # No local names: the facet rows are freed once transposed, and the
        # coboundary index once reduced.
        ranks[k + 1], pivot_rows = _reduce_index(
            *_coboundary_index(
                _facet_row_indices(
                    skel.simplices[k + 1], skel.layer_keys(k), skel.num_vertices
                ),
                len(skel.simplices[k]),
            ),
            p,
            cleared,
        )
        _check_rank(ranks[k + 1], *skel.counts[k : k + 2])
        cleared = pivot_rows
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
