from __future__ import annotations

import numpy as np
import pytest

from cuberips import (
    SizeBudgetExceeded,
    SpaceSpec,
    betti_numbers,
    enumerate_skeleton,
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
