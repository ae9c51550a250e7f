"""Integer Smith normal form and integer homology summaries.

Exact arbitrary-precision elimination on a sparse dict-of-dicts layout with
magnitude pivoting, so entry blow-up stays contained.  Sizes are capped;
beyond the cap callers fall back to field coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Skeleton
from .homology import boundary_matrix, connected_components

_SNF_MAX_SIMPLICES = 20000


@dataclass(frozen=True)
class IntegerHomologySummary:
    """Free rank and torsion (elementary divisors > 1, each dividing the next)."""

    dimension: int
    free_rank: int
    torsion: tuple[int, ...]


class _SparseInt:
    """Mutable sparse integer matrix with row and column operations."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_rows: dict[int, set[int]] = {}

    def set(self, i: int, j: int, v: int) -> None:
        row = self.rows.get(i)
        if v:
            if row is None:
                row = self.rows[i] = {}
            row[j] = v
            self.col_rows.setdefault(j, set()).add(i)
        elif row is not None and j in row:
            del row[j]
            if not row:
                del self.rows[i]
            owners = self.col_rows[j]
            owners.discard(i)
            if not owners:
                del self.col_rows[j]

    def get(self, i: int, j: int) -> int:
        return self.rows.get(i, {}).get(j, 0)

    def add_row_multiple(self, dst: int, src: int, q: int) -> None:
        if q == 0 or dst == src:
            return
        for j, v in list(self.rows.get(src, {}).items()):
            self.set(dst, j, self.get(dst, j) + q * v)

    def add_col_multiple(self, dst: int, src: int, q: int) -> None:
        if q == 0 or dst == src:
            return
        for i in list(self.col_rows.get(src, ())):
            self.set(i, dst, self.get(i, dst) + q * self.rows[i][src])

    def min_entry(self) -> tuple[int, int]:
        best = None
        for i, row in self.rows.items():
            for j, v in row.items():
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return i, j
        return best[1], best[2]


def _snf_divisors(sp: _SparseInt) -> list[int]:
    divisors = []
    while sp.rows:
        pi, pj = sp.min_entry()
        while True:
            pv = sp.get(pi, pj)
            moved = False
            for i in list(sp.col_rows.get(pj, ())):
                if i == pi:
                    continue
                q = sp.get(i, pj) // pv
                sp.add_row_multiple(i, pi, -q)
                if sp.get(i, pj):
                    pi = i  # strictly smaller remainder: new pivot
                    moved = True
                    break
            if moved:
                continue
            for j in list(sp.rows.get(pi, {})):
                if j == pj:
                    continue
                q = sp.get(pi, j) // pv
                sp.add_col_multiple(j, pj, -q)
                if sp.get(pi, j):
                    pj = j
                    moved = True
                    break
            if moved:
                continue
            bad = None
            for i, row in sp.rows.items():
                if i == pi:
                    continue
                for v in row.values():
                    if v % pv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold a non-divisible row into the pivot row and re-reduce
            sp.add_row_multiple(pi, bad, 1)
        divisors.append(abs(sp.get(pi, pj)))
        sp.set(pi, pj, 0)
    return divisors


def smith_normal_form(mat) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    The length is the rank; entries are positive and each divides the next.
    Accepts anything np.asarray can turn into a 2-d integer array.
    """
    arr = np.asarray(mat, dtype=object) if not isinstance(mat, np.ndarray) else mat
    arr = np.atleast_2d(arr)
    sp = _SparseInt()
    for i, row in enumerate(arr.tolist()):
        for j, v in enumerate(row):
            if v:
                sp.set(i, j, int(v))
    return _snf_divisors(sp)


def _boundary_sparse_int(skel: Skeleton, k: int) -> _SparseInt:
    sp = _SparseInt()
    for j, frow in enumerate(boundary_matrix(skel, k).facet_rows.tolist()):
        for t, r in enumerate(frow):
            sp.set(r, j, 1 if t % 2 == 0 else -1)
    return sp


def integer_homology_snf(skel: Skeleton, i: int) -> IntegerHomologySummary:
    """Free rank and torsion of the i-th integer homology group.

    Dimension 0 uses the unreduced convention (free rank = number of
    connected components).  Refuses skeletons whose layers i-1, i, i+1
    exceed the size cap — field Betti numbers stay available at any size
    the enumeration budget admits.
    """
    if i < 0:
        raise ValueError("dimension must be nonnegative")
    if i > skel.dim_cap:
        raise ValueError(f"dimension {i} above dim_cap {skel.dim_cap}")
    counts = skel.counts
    relevant = [counts[k] for k in (i - 1, i, i + 1) if 0 <= k <= skel.dim_cap]
    if max(relevant) > _SNF_MAX_SIMPLICES:
        raise ValueError(
            f"layer sizes {relevant} exceed the SNF cap {_SNF_MAX_SIMPLICES}"
        )
    if i + 1 > skel.dim_cap and not skel.complete_flag:
        raise ValueError("skeleton truncated at i: need dim_cap >= i+1 or complete")
    rank_lo = 0 if i == 0 else len(_snf_divisors(_boundary_sparse_int(skel, i)))
    if i + 1 <= skel.dim_cap and counts[i + 1]:
        divisors_hi = _snf_divisors(_boundary_sparse_int(skel, i + 1))
    else:
        divisors_hi = []
    free = counts[i] - rank_lo - len(divisors_hi)
    torsion = tuple(d for d in divisors_hi if d > 1)
    if i == 0 and free != connected_components(skel):
        raise RuntimeError(
            f"free rank {free} of H_0 differs from the component count: engine bug"
        )
    return IntegerHomologySummary(dimension=i, free_rank=free, torsion=torsion)
