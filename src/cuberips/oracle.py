"""Independent dense-matrix homology oracle for small complexes.

Matrices here are rebuilt from vertex-label tuples with plain dictionary
lookups — none of the rank-key or bitmask machinery of the sparse engine —
and ranks come from dense Gaussian elimination mod p.  Any disagreement with
the sparse path is a bug in one of them, which is the point.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .complexes import Skeleton, SizeBudgetExceeded, flag_skeleton_from_graph
from .homology import BettiVector, SparseBoundaryMatrix, _check_args

_DENSE_CELL_CAP = 10**7


def gf_rank(mat, p: int = 2) -> int:
    """Matrix rank over GF(p) by dense row elimination."""
    _check_args(p)
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        hits = np.nonzero(a[rank:, c])[0]
        if hits.size == 0:
            continue
        pr = rank + int(hits[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = np.nonzero(a[rank + 1 :, c])[0]
        if below.size:
            rows = below + rank + 1
            a[rows] = (a[rows] - np.outer(a[rows, c], a[rank])) % p
        rank += 1
    return rank


def dense_rank_oracle(mat: SparseBoundaryMatrix) -> int:
    """Rank of an explicit boundary matrix by dense elimination.

    Must equal the sparse reduction's pivot count; capped at 10^7 cells.
    """
    if mat.n_rows * mat.n_cols > _DENSE_CELL_CAP:
        raise ValueError("matrix too large for the dense oracle")
    if mat.n_rows == 0 or mat.n_cols == 0:
        return 0
    return gf_rank(mat.to_dense(), mat.p)


def betti_numbers_dense(skel: Skeleton, p: int = 2, maxdim=None) -> BettiVector:
    """Same contract as homology.betti_numbers, via the dense route.

    On a flag skeleton truncated at maxdim == dim_cap >= 1, the layer above
    is listed here from the stored edges, so its top value is certified as
    the sparse route certifies it.
    """
    _check_args(p)
    if maxdim is None:
        maxdim = skel.dim_cap
    if maxdim < 0 or maxdim > skel.dim_cap:
        raise ValueError("maxdim outside 0..dim_cap")
    if skel.num_vertices == 0:
        return BettiVector(p, maxdim, (0,) * (maxdim + 1), maxdim)
    layers = []
    for arr in skel.simplices:
        labels = skel.verts[arr] if len(arr) else arr
        layers.append([tuple(row) for row in np.asarray(labels).tolist()])
    if maxdim == skel.dim_cap >= 1 and skel._is_flag and not skel.complete_flag:
        layers.append(_cliques_above(layers))
    ranks = [0] * (maxdim + 2)
    top_known = True
    for k in range(1, maxdim + 2):
        if k == len(layers):
            top_known = skel.complete_flag
            break
        lo, hi = layers[k - 1], layers[k]
        if not hi:
            continue
        if len(lo) * len(hi) > _DENSE_CELL_CAP:
            raise ValueError("complex too large for the dense oracle")
        index = {simplex: i for i, simplex in enumerate(lo)}
        dense = np.zeros((len(lo), len(hi)), dtype=np.int64)
        for j, simplex in enumerate(hi):
            for t in range(len(simplex)):
                facet = simplex[:t] + simplex[t + 1 :]
                dense[index[facet], j] = 1 if t % 2 == 0 else p - 1
        ranks[k] = gf_rank(dense, p)
    betti = tuple(
        len(layers[i]) - ranks[i] - ranks[i + 1] - (1 if i == 0 else 0)
        for i in range(maxdim + 1)
    )
    trusted = maxdim if top_known else maxdim - 1
    return BettiVector(p=p, maxdim=maxdim, reduced_betti=betti, trusted_through=trusted)


def _cliques_above(layers: list[list[tuple]]) -> list[tuple]:
    """The layer above the top one of a flag skeleton, as label tuples:
    each top simplex extended by every common neighbour of its vertices
    above its last one, with neighbours read from the stored edges."""
    nbrs: dict[int, set[int]] = {u: set() for (u,) in layers[0]}
    for a, b in layers[1]:
        nbrs[a].add(b)
        nbrs[b].add(a)
    top, above = layers[-1], []
    for simplex in top:
        common = set.intersection(*(nbrs[u] for u in simplex))
        above += [simplex + (v,) for v in sorted(common) if v > simplex[-1]]
        if len(top) * len(above) > _DENSE_CELL_CAP:
            raise ValueError("complex too large for the dense oracle")
    return above


def random_flag_skeleton(rng, max_vertices: int = 10, edge_probability: float = 0.35,
                         dim_cap: int = 6, max_simplices: int = 200) -> Skeleton:
    """Random flag complex with at most max_simplices simplices in total."""
    while True:
        nv = int(rng.integers(1, max_vertices + 1))
        edges = [
            (a, b)
            for a, b in combinations(range(nv), 2)
            if rng.random() < edge_probability
        ]
        try:
            return flag_skeleton_from_graph(range(nv), edges, dim_cap,
                                            budget=max_simplices)
        except SizeBudgetExceeded:
            continue
