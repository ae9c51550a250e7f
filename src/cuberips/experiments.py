"""Experiment harnesses: recurrence checks, wedge verifications, collapse
probes, and a prediction-vs-computation survey grid.

Each harness returns a small frozen report object rather than printing, so
the command-line layer and the test suite share one code path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb

import numpy as np

from .complexes import (
    SizeBudgetExceeded,
    Skeleton,
    _facet_row_indices,
    _resolve_budget,
    _restrict,
    delete_vertex,
    enumerate_skeleton,
    kneser_independence_complex,
    link_complex,
    star_cluster,
)
from .formulas import PredictionRecord, link_sphere_count, predicted_betti
from .hamming import SpaceSpec
from .homology import BettiVector, betti_numbers
from .oracle import betti_numbers_dense


def _enumerate_best_effort(build, cap: int):
    """build(cap), or else build at the largest cap that fits the budget.

    The enumerator checks each layer's size before building it, so the
    layers it finished before an abort are exactly the ones that fit: the
    retry at that cap cannot abort.  Re-raises when not even the vertices fit.
    """
    try:
        return build(cap)
    except SizeBudgetExceeded as err:
        if not err.partial_counts:
            raise
        return build(len(err.partial_counts) - 1)


@dataclass(frozen=True)
class SplittingReport:
    """One instance of the vertex-deletion recurrence for reduced Betti numbers.

    For the flag complex on {0..m-1}, dropping the top vertex m-1 should split
    each reduced Betti number as

        whole[i] == deleted[i] + link[i-1],

    where link[-1] means 1 if the link of m-1 is empty and 0 otherwise.
    ``holds`` records the verdict for every dimension where all three values
    were certified; uncertified dimensions are simply absent.  ``expected``
    holds the right-hand side for the same dimensions.  ``reverified``
    is set when a mismatch survived an independent dense recomputation.
    """

    m: int
    r: int
    p: int
    maxdim: int
    betti_whole: BettiVector
    betti_deleted: BettiVector
    betti_link: BettiVector
    link_empty: bool
    holds: dict[int, bool]
    expected: dict[int, int]
    reverified: bool = False
    note: str = ""

    @property
    def all_hold(self) -> bool:
        return all(self.holds.values())


def splitting_check(m: int, r: int, p: int = 2, maxdim: int = 3,
                    budget=None) -> SplittingReport:
    """Check the vertex-deletion Betti recurrence at (m, r) through maxdim."""
    if m < 2:
        raise ValueError("m must be >= 2 (need a vertex to delete)")
    if maxdim < 1:
        raise ValueError("maxdim must be >= 1")
    budget = _resolve_budget(budget)
    space = SpaceSpec(m=m, r=r)
    # Exact through each cap once edges are stored: the link's cap is >= 1.
    whole = _enumerate_best_effort(
        lambda cap: enumerate_skeleton(space, cap, budget=budget), maxdim
    )
    deleted = delete_vertex(whole, m - 1)
    link = _enumerate_best_effort(
        lambda cap: link_complex(space, m - 1, cap, budget=budget), max(maxdim - 1, 1)
    )
    link_empty = link.num_vertices == 0

    def betti_of(skel, need):
        return betti_numbers(skel, p=p, maxdim=min(need, skel.dim_cap))

    b_whole = betti_of(whole, maxdim)
    b_deleted = betti_of(deleted, maxdim)
    b_link = betti_of(link, maxdim - 1)

    # link[-1] is 1 when the link is empty: every i, 0 included, takes one step
    link_vec = (int(link_empty),) + b_link.reduced_betti
    expected = {
        i: b_deleted.reduced_betti[i] + link_vec[i] for i in range(maxdim + 1)
        if b_whole.is_trusted(i) and b_deleted.is_trusted(i) and b_link.is_trusted(i - 1)
    }
    holds = {i: b_whole.reduced_betti[i] == rhs for i, rhs in expected.items()}

    reverified = False
    note = ""
    if not all(holds.values()):
        # A failed instance is significant: rule out a reduction bug by
        # recomputing everything densely, then record the GF(3) view.
        try:
            checks = [
                (whole, b_whole),
                (deleted, b_deleted),
                (link, b_link),
            ]
            for skel, bv in checks:
                dense = betti_numbers_dense(skel, p=p, maxdim=bv.maxdim)
                if dense.reduced_betti != bv.reduced_betti:
                    raise RuntimeError(
                        "sparse and dense reductions disagree: engine bug"
                    )
            reverified = True
            alt_p = 3 if p != 3 else 2
            alt = betti_numbers(whole, p=alt_p, maxdim=b_whole.maxdim)
            note = (
                f"mismatch confirmed densely; GF({alt_p}) whole = "
                f"{alt.reduced_betti}"
            )
        except ValueError:
            note = "mismatch found but too large for dense re-verification"
    return SplittingReport(
        m=m, r=r, p=p, maxdim=maxdim,
        betti_whole=b_whole, betti_deleted=b_deleted, betti_link=b_link,
        link_empty=link_empty, holds=holds, expected=expected,
        reverified=reverified, note=note,
    )


def _is_wedge_of_two_spheres(bv: BettiVector, expected: int) -> bool:
    """Reduced Betti vector (0, 0, expected, 0), trusted through dimension 2."""
    return bv.reduced_betti == (0, 0, expected, 0) and bv.trusted_through >= 2


@dataclass(frozen=True)
class LinkWedgeReport:
    """Link-of-top-vertex check at scale 2: a wedge of `expected` 2-spheres."""

    m: int
    p: int
    expected: int
    betti: BettiVector
    passed: bool


def link_homotopy_check(m: int, p: int = 2, budget=None) -> LinkWedgeReport:
    """Verify the link of vertex m-1 at scale 2 has the predicted Betti numbers.

    The link of the largest vertex should be homotopy equivalent to a wedge
    of link_sphere_count(m-1) 2-spheres, so its reduced Betti vector through
    dimension 3 must be (0, 0, expected, 0).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    space = SpaceSpec(m=m, r=2)
    link = link_complex(space, m - 1, 3, budget=budget)
    bv = betti_numbers(link, p=p, maxdim=3)
    expected = link_sphere_count(m - 1)
    passed = _is_wedge_of_two_spheres(bv, expected)
    return LinkWedgeReport(m=m, p=p, expected=expected, betti=bv, passed=passed)


def star_cluster_contractibility_check(space: SpaceSpec, sigma, maxdim: int,
                                       p: int = 2, budget=None) -> bool:
    """True when the star cluster of sigma has vanishing reduced homology.

    This checks acyclicity through the certified dimensions only — a
    homology statement, deliberately weaker than contractibility.
    """
    skel = enumerate_skeleton(space, maxdim + 1, budget=budget)
    cluster = star_cluster(skel, sigma)
    bv = betti_numbers(cluster, p=p, maxdim=min(maxdim, cluster.dim_cap))
    return all(
        bv.reduced_betti[i] == 0 for i in range(bv.trusted_through + 1)
    )


@dataclass(frozen=True)
class KneserReport:
    """Intersecting-family complex check: a wedge of `expected` 2-spheres."""

    n: int
    p: int
    expected: int
    betti: BettiVector
    passed: bool


def kneser_check(n: int, p: int = 2, budget=None) -> KneserReport:
    """Verify the complex of intersecting 2-subsets of an n-set (n >= 4).

    Expected reduced Betti vector through dimension 3: (0, 0, C(n-1, 3), 0).
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    skel = kneser_independence_complex(n, 3, budget=budget)
    bv = betti_numbers(skel, p=p, maxdim=3)
    expected = comb(n - 1, 3)
    passed = _is_wedge_of_two_spheres(bv, expected)
    return KneserReport(n=n, p=p, expected=expected, betti=bv, passed=passed)


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of a greedy collapse attempt.

    status is "collapsed_to_target" when nothing above the target dimension
    survived, "budget_exceeded" when the move budget ran out first, and
    "stuck" when no free pair remained.  Being stuck is inconclusive: a
    different move order might still succeed.  ``residual`` is the complex
    left behind; every move is an elementary collapse, so it has the same
    homotopy type as the input.
    """

    reached_dim: int
    status: str
    free_face_trace_length: int
    residual: Skeleton | None = None


def greedy_collapse_probe(skel: Skeleton, target_dim: int,
                          budget: int = 1_000_000) -> CollapseOutcome:
    """Greedily remove free pairs until nothing remains above target_dim.

    A free pair is a simplex with exactly one remaining cofacet, together
    with that cofacet; removing both preserves homotopy type.  Only pairs
    whose lower member has dimension >= target_dim are considered — lower
    moves cannot help, as they never change cofacet counts at or above the
    target.  Ties break toward the smallest dimension-local rank.  Requires
    a complete skeleton, else "exactly one cofacet" is not certifiable.

    Each face keeps, from the facet rows, the count and the sum of the rows
    of its live cofacets; a dying simplex is subtracted from both for each
    of its facets.  So the one live cofacet of a free face is its sum, and
    no coface is ever read.
    """
    if not skel.complete_flag:
        raise ValueError("collapse probe requires a complete skeleton")
    if target_dim < 0:
        raise ValueError("target_dim must be nonnegative")
    top = skel.top_dimension()
    if top <= target_dim:
        return CollapseOutcome(top, "collapsed_to_target", 0, residual=skel)
    counts, nv = skel.counts, skel.num_vertices
    facet_rows = {
        k: _facet_row_indices(skel.simplices[k], skel.layer_keys(k - 1), nv)
        for k in range(target_dim + 1, top + 1)
    }
    alive = [np.ones(c, dtype=bool) for c in counts[: top + 1]]
    # One heap of free faces, face t of dimension k pushed as -k * span + t, so
    # divmod(key, span) == (-k, t).  A count only falls: a face that is no
    # longer free never is again, and its key is dropped when popped.
    span = max(counts)
    cof_count, cof_sum, free = {}, {}, []
    for k in range(target_dim, top):
        facets = facet_rows[k + 1]
        cof_count[k] = np.bincount(facets.ravel(), minlength=counts[k])
        cof_sum[k] = np.zeros(counts[k], dtype=np.int64)
        np.add.at(cof_sum[k], facets.ravel(), np.repeat(np.arange(len(facets)), k + 2))
        free += (np.flatnonzero(cof_count[k] == 1) - k * span).tolist()
    heapq.heapify(free)

    alive_above = sum(counts[k] for k in range(target_dim + 1, top + 1))
    moves = 0
    while alive_above and moves < budget and free:
        k, trow = divmod(heapq.heappop(free), span)
        k = -k
        if not (alive[k][trow] and cof_count[k][trow] == 1):
            continue
        srow = int(cof_sum[k][trow])
        alive[k][trow] = False
        alive[k + 1][srow] = False
        alive_above -= 1 if k == target_dim else 2
        # each dying simplex stops being a cofacet of its facets
        for layer, row in ((k + 1, srow), (k, trow)):
            if layer > target_dim:
                cnt, total, live = cof_count[layer - 1], cof_sum[layer - 1], alive[layer - 1]
                for rix in facet_rows[layer][row].tolist():
                    if live[rix]:
                        cnt[rix] -= 1
                        total[rix] -= row
                        if cnt[rix] == 1:
                            heapq.heappush(free, rix - (layer - 1) * span)
        moves += 1

    if alive_above == 0:
        status = "collapsed_to_target"
    elif moves >= budget:
        status = "budget_exceeded"
    else:
        status = "stuck"

    reached = max(k for k in range(top + 1) if alive[k].any())
    residual = _restrict(skel, alive[: reached + 1])
    return CollapseOutcome(
        reached_dim=reached,
        status=status,
        free_face_trace_length=moves,
        residual=residual,
    )


@dataclass(frozen=True)
class SurveyCell:
    """One (n, r) cell: the prediction, the computed values, and the verdict.

    status: "match" (computation agrees with a theorem or conjecture),
    "mismatch", "open" (no prediction to compare), or "skipped" (the cell
    exceeded its enumeration budget).
    """

    n: int
    r: int
    status: str
    prediction: PredictionRecord
    betti: BettiVector | None
    note: str = ""


@dataclass(frozen=True)
class SurveyReport:
    n_max: int
    r_max: int
    p: int
    cells: tuple[SurveyCell, ...]

    @property
    def mismatches(self) -> list[SurveyCell]:
        return [c for c in self.cells if c.status == "mismatch"]


def survey_grid(n_max: int, r_max: int, p: int = 2, maxdim: int = 3,
                budget=None, cell_cap: int = 1 << 20) -> SurveyReport:
    """Compute Betti numbers for every (n, r) with n <= n_max, r <= r_max and
    compare them against the prediction table.

    Each cell is enumerated through the highest predicted Betti number (or
    maxdim with no prediction; 1 at least, so that its top value is exact),
    under the smaller of the usual budget and cell_cap; oversized cells are
    reported as skipped rather than aborting the whole survey.
    """
    if n_max < 1 or r_max < 0:
        raise ValueError("need n_max >= 1 and r_max >= 0")
    budget = min(_resolve_budget(budget), cell_cap)
    cells = []
    for n in range(1, n_max + 1):
        for r in range(r_max + 1):
            pred = predicted_betti(n, r)
            need = max(pred.predicted_reduced_betti, default=maxdim)
            try:
                skel = enumerate_skeleton(
                    SpaceSpec.hypercube(n, r), max(need, 1), budget=budget
                )
            except SizeBudgetExceeded as err:
                cells.append(
                    SurveyCell(
                        n, r, "skipped", pred, None,
                        note=f"enumeration over budget: {err}",
                    )
                )
                continue
            bv = betti_numbers(skel, p=p, maxdim=need)
            # a theorem speaks about every dimension, a conjecture only
            # about those it lists
            said = pred.predicted_reduced_betti
            dims = range(need + 1) if pred.status == "theorem" else said
            ok = all(bv.reduced_betti[i] == said.get(i, 0) for i in dims)
            status = "open" if pred.status == "unknown" else ("match" if ok else "mismatch")
            cells.append(SurveyCell(n, r, status, pred, bv))
    return SurveyReport(n_max=n_max, r_max=r_max, p=p, cells=tuple(cells))
