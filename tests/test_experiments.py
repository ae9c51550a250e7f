from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cuberips import experiments
from cuberips import (
    SizeBudgetExceeded,
    Skeleton,
    SpaceSpec,
    betti_numbers,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    greedy_collapse_probe,
    kneser_check,
    link_homotopy_check,
    link_sphere_count,
    random_flag_skeleton,
    skeleton_from_facets,
    splitting_check,
    star_cluster_contractibility_check,
    survey_grid,
)
from cuberips.experiments import _enumerate_best_effort
from cuberips.formulas import three_sphere_count


def _euler(counts) -> int:
    return sum((-1) ** k * c for k, c in enumerate(counts))


@pytest.mark.parametrize("m", [2, 3, 12, 16, 33])
def test_splitting_holds_at_scale_two(m):
    report = splitting_check(m, 2, maxdim=3)
    assert report.holds == {0: True, 1: True, 2: True, 3: True}
    assert report.all_hold
    assert not report.reverified
    assert report.note == ""


def test_splitting_mismatch_is_rechecked_densely(monkeypatch):
    # A wrong β̃_3 of the whole complex breaks the recurrence in dimension
    # 3.  The dense oracle then disagrees with it (an engine bug), confirms
    # it, or refuses a complex too large for it.
    real = experiments.betti_numbers

    def inflated(skel, p=2, maxdim=None):
        bv = real(skel, p=p, maxdim=maxdim)
        if skel.num_vertices == 12 and p == 2:
            betti = bv.reduced_betti
            bv = dataclasses.replace(bv, reduced_betti=betti[:3] + (betti[3] + 1,))
        return bv

    def too_large(skel, p=2, maxdim=None):
        raise ValueError("complex too large for the dense oracle")

    monkeypatch.setattr(experiments, "betti_numbers", inflated)
    with pytest.raises(RuntimeError, match="sparse and dense reductions disagree"):
        splitting_check(12, 2, maxdim=3)

    monkeypatch.setattr(experiments, "betti_numbers_dense", inflated)
    report = splitting_check(12, 2, maxdim=3)
    assert report.holds == {0: True, 1: True, 2: True, 3: False}
    assert report.expected[3] == three_sphere_count(12)
    assert report.reverified
    assert report.note == (
        f"mismatch confirmed densely; GF(3) whole = (0, 0, 0, {three_sphere_count(12)})"
    )

    monkeypatch.setattr(experiments, "betti_numbers_dense", too_large)
    report = splitting_check(12, 2, maxdim=3)
    assert report.holds[3] is False
    assert not report.reverified
    assert report.note == "mismatch found but too large for dense re-verification"


def test_splitting_with_empty_link():
    report = splitting_check(2, 0, maxdim=1)
    assert report.link_empty
    assert report.betti_whole.reduced_betti[0] == 1
    assert report.betti_deleted.reduced_betti[0] == 0
    assert report.all_hold


@pytest.mark.parametrize("m", [2, 5, 16, 20])
def test_splitting_at_scale_three(m):
    report = splitting_check(m, 3, maxdim=4)
    assert report.all_hold
    assert set(report.holds) == {0, 1, 2, 3, 4}


def test_splitting_expected_is_the_right_hand_side():
    report = splitting_check(16, 2, maxdim=3)
    # whole[3] = deleted[3] + link[2]: 9 = 3-spheres on {0..14} + link 2-spheres
    assert report.expected[3] == three_sphere_count(15) + link_sphere_count(15) == 9
    assert set(report.expected) == set(report.holds)
    for i, rhs in report.expected.items():
        assert report.holds[i] == (report.betti_whole.reduced_betti[i] == rhs)


def test_best_effort_takes_the_largest_cap_that_fits():
    space = SpaceSpec.hypercube(4, 2)  # 16, 80, 160, 120, 16 simplices

    def fits(cap, budget):
        try:
            enumerate_skeleton(space, cap, budget=budget)
        except SizeBudgetExceeded:
            return False
        return True

    for budget in range(1, 400):
        def build(cap):
            return enumerate_skeleton(space, cap, budget=budget)

        # reference: try caps 4, 3, ..., 0 in turn
        cap = next((c for c in range(4, -1, -1) if fits(c, budget)), None)
        if cap is None:
            with pytest.raises(SizeBudgetExceeded) as err:
                _enumerate_best_effort(build, 4)
            assert err.value.partial_counts == ()
        else:
            assert _enumerate_best_effort(build, 4).dim_cap == cap, budget


def test_splitting_under_a_truncating_budget():
    # the whole Q4 complex needs 392 simplices: at 380 it stops at dimension
    # 3, so dimension 3 is undecided and left out
    report = splitting_check(16, 2, maxdim=3, budget=380)
    assert report.betti_whole.trusted_through == 2
    assert report.holds == {0: True, 1: True, 2: True}
    assert report.expected == {0: 0, 1: 0, 2: 0}


def test_splitting_validation():
    with pytest.raises(ValueError):
        splitting_check(1, 2)
    with pytest.raises(ValueError):
        splitting_check(4, 2, maxdim=0)


@pytest.mark.parametrize("m", [1, 2, 7, 12, 64])
def test_link_wedge_check(m):
    report = link_homotopy_check(m)
    assert report.expected == link_sphere_count(m - 1)
    assert report.betti.reduced_betti == (0, 0, report.expected, 0)
    assert report.passed


def test_link_wedge_check_odd_field():
    assert link_homotopy_check(64, p=3).passed


@pytest.mark.parametrize("n,count", [(4, 1), (5, 4), (6, 10)])
def test_kneser_check_values(n, count):
    report = kneser_check(n)
    assert report.expected == count
    assert report.passed
    with pytest.raises(ValueError):
        kneser_check(3)


def test_star_clusters_are_acyclic():
    for n in (3, 4):
        space = SpaceSpec.hypercube(n, 2)
        skel = enumerate_skeleton(space, 4)
        for sigma in ((0,), (0, 1), (0, 1, 2)):
            assert skel.has_simplex(sigma)
            assert star_cluster_contractibility_check(space, sigma, 3)


def test_collapse_solid_tetrahedron_to_point():
    tet = skeleton_from_facets([(0, 1, 2, 3)])
    out = greedy_collapse_probe(tet, 0)
    assert out.status == "collapsed_to_target"
    assert out.reached_dim == 0
    assert out.free_face_trace_length == 7  # (15 - 1) / 2 removals
    assert out.residual.counts == (1,)


def test_collapse_stops_on_cycles():
    cube_graph = enumerate_skeleton(SpaceSpec.hypercube(3, 1), 2)
    out = greedy_collapse_probe(cube_graph, 0)
    assert out.status == "stuck"
    assert out.reached_dim == 1
    assert out.free_face_trace_length == 0  # every vertex has three cofacets
    assert betti_numbers(out.residual).reduced_betti[:2] == (0, 5)


def test_collapse_respects_budget():
    tet = skeleton_from_facets([(0, 1, 2, 3)])
    out = greedy_collapse_probe(tet, 0, budget=2)
    assert out.status == "budget_exceeded"
    assert out.free_face_trace_length == 2
    assert sum(out.residual.counts) == 15 - 4


def test_collapse_requires_complete_skeleton():
    truncated = enumerate_skeleton(SpaceSpec.hypercube(3, 2), 2)
    with pytest.raises(ValueError):
        greedy_collapse_probe(truncated, 1)
    with pytest.raises(ValueError):
        greedy_collapse_probe(skeleton_from_facets([(0, 1)]), -1)


def test_collapse_trivial_when_already_low():
    edge = skeleton_from_facets([(0, 1)])
    out = greedy_collapse_probe(edge, 1)
    assert out.status == "collapsed_to_target"
    assert out.reached_dim == 1
    assert out.residual is edge


def test_collapse_preserves_homology_and_euler():
    rng = np.random.default_rng(3)
    for _ in range(12):
        skel = random_flag_skeleton(rng)
        target = int(rng.integers(0, 3))
        before = betti_numbers(skel)
        out = greedy_collapse_probe(skel, target)
        residual = out.residual
        assert _euler(residual.counts) == _euler(skel.counts)
        assert sum(skel.counts) - sum(residual.counts) == 2 * out.free_face_trace_length
        after = betti_numbers(residual, maxdim=min(before.maxdim, residual.dim_cap))
        assert after.reduced_betti == before.reduced_betti[: after.maxdim + 1]
        assert all(b == 0 for b in before.reduced_betti[after.maxdim + 1 :])
        if out.status == "collapsed_to_target":
            assert residual.top_dimension() <= target


def test_collapse_certifies_cross_polytope_top_dimension(q3r2):
    # boundary of the 4-dimensional cross polytope: nothing collapses away
    out = greedy_collapse_probe(q3r2, 2)
    assert out.status == "stuck"
    assert out.reached_dim == 3


def _collapse_reference(skel, target: int, budget: int):
    """The greedy collapse over simplices as vertex tuples in a set.  Each
    move takes, among the live simplices of dimension at least target with
    one live cofacet, one of the highest dimension and then of the smallest
    row, and removes it with that cofacet.  Returns the status, the number
    of moves and the live simplices of each layer in row order."""
    top = skel.top_dimension()
    layers = [[tuple(row) for row in skel.simplices[k].tolist()] for k in range(top + 1)]
    cofacets = {s: [] for layer in layers for s in layer}
    for layer in layers[1:]:
        for c in layer:
            for t in range(len(c)):
                cofacets[c[:t] + c[t + 1 :]].append(c)
    alive = set(cofacets)

    def free_pair():
        for k in range(top - 1, target - 1, -1):
            for s in layers[k]:
                live = [c for c in cofacets[s] if c in alive]
                if s in alive and len(live) == 1:
                    return s, live[0]
        return None

    moves = 0
    while any(len(s) > target + 1 for s in alive) and moves < budget:
        pair = free_pair()
        if pair is None:
            break
        alive.difference_update(pair)
        moves += 1
    if not any(len(s) > target + 1 for s in alive):
        status = "collapsed_to_target"
    elif moves >= budget:
        status = "budget_exceeded"
    else:
        status = "stuck"
    return status, moves, [[s for s in layer if s in alive] for layer in layers]


def _random_facet_complex(rng) -> Skeleton:
    """A complete complex closed downward from a few random facets; many
    are not flag."""
    nv = int(rng.integers(3, 9))
    facets = [
        rng.choice(nv, size=int(rng.integers(2, min(nv, 5) + 1)), replace=False)
        for _ in range(int(rng.integers(3, 12)))
    ]
    return skeleton_from_facets(facets)


def test_collapse_matches_a_set_based_reference():
    rng = np.random.default_rng(29)
    flag = []
    while len(flag) < 40:
        skel = random_flag_skeleton(rng)
        if skel.complete_flag:
            flag.append(skel)
    facet = [_random_facet_complex(rng) for _ in range(40)]
    not_flag = sum(
        flag_skeleton_from_graph(range(skel.num_vertices), skel.simplices[1].tolist(),
                                 skel.dim_cap).counts != skel.counts
        for skel in facet
    )
    assert not_flag >= 10
    statuses = set()
    for skel in flag + facet + [enumerate_skeleton(SpaceSpec.hypercube(4, 2), 5)]:
        for target in (0, 1, 2):
            for budget in (3, 1_000_000):
                out = greedy_collapse_probe(skel, target, budget=budget)
                status, moves, layers = _collapse_reference(skel, target, budget)
                statuses.add(status)
                assert (out.status, out.free_face_trace_length) == (status, moves)
                # The residual renumbers the surviving vertices in order.
                kept = [v for (v,) in layers[0]]
                new = {v: i for i, v in enumerate(kept)}
                assert out.residual.verts.tolist() == skel.verts[kept].tolist()
                got = [rows.tolist() for rows in out.residual.simplices if len(rows)]
                want = [[[new[v] for v in s] for s in layer] for layer in layers if layer]
                assert got == want
    assert statuses == {"collapsed_to_target", "budget_exceeded", "stuck"}


def test_collapse_checks_an_unmarked_skeleton_as_the_sweep_does():
    def filled_triangle(edges) -> Skeleton:
        return Skeleton(
            verts=np.arange(3),
            simplices=[np.arange(3, dtype=np.uint32)[:, None],
                       np.array(edges, dtype=np.uint32),
                       np.array([[0, 1, 2]], dtype=np.uint32)],
            dim_cap=2,
            complete_flag=True,
        )

    # Closed under faces, but the edges are not in colex order.
    shuffled = filled_triangle([[0, 2], [0, 1], [1, 2]])
    for probe in (betti_numbers, lambda skel: greedy_collapse_probe(skel, 0)):
        with pytest.raises(ValueError, match="layer 1 is not in colex order"):
            probe(shuffled)
    out = greedy_collapse_probe(filled_triangle([[0, 1], [0, 2], [1, 2]]), 0)
    assert (out.status, out.free_face_trace_length) == ("collapsed_to_target", 3)


def test_survey_grid_all_match():
    report = survey_grid(4, 4)
    assert len(report.cells) == 20
    assert report.mismatches == []
    assert all(cell.status == "match" for cell in report.cells)
    cell = next(c for c in report.cells if (c.n, c.r) == (4, 2))
    assert cell.prediction.status == "theorem"
    assert cell.betti.reduced_betti == (0, 0, 0, 9)


def test_survey_grid_reports_skipped_cells():
    report = survey_grid(5, 4, cell_cap=100)
    skipped = [c for c in report.cells if c.status == "skipped"]
    assert skipped
    assert all(c.betti is None and "budget" in c.note for c in skipped)
    assert report.mismatches == []


def test_survey_grid_marks_open_cells():
    report = survey_grid(6, 4, cell_cap=1 << 16)
    statuses = {(c.n, c.r): c.status for c in report.cells}
    assert statuses[(6, 4)] in ("open", "skipped")
    assert report.mismatches == []


def test_survey_grid_validation():
    with pytest.raises(ValueError):
        survey_grid(0, 2)
    with pytest.raises(ValueError):
        survey_grid(3, -1)
