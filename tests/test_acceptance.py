"""End-to-end acceptance checks.

One test per criterion; each asserts exact values and its wall-clock bound,
and prints a single summary line (visible with ``pytest -s``).  Everything
runs on one core with default budgets.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np
import pytest

from cuberips import (
    IntegerHomologySummary,
    SpaceSpec,
    betti_numbers,
    betti_numbers_dense,
    betti_single_dim,
    conjectured_four_sphere_count,
    conjectured_seven_sphere_count,
    enumerate_skeleton,
    flag_skeleton_from_graph,
    hypercube_three_sphere_count,
    integer_homology_snf,
    kneser_check,
    link_homotopy_check,
    link_sphere_count,
    random_flag_skeleton,
    splitting_check,
    star_cluster_contractibility_check,
    three_sphere_count,
)

HYPERCUBE_THREE_SPHERE_VALUES = {
    3: 1, 4: 9, 5: 49, 6: 209, 7: 769, 8: 2561, 9: 7937, 10: 23297,
    11: 65537, 12: 178177, 13: 471041, 14: 1216513,
}


def test_criterion_01_scale_zero_points_and_scale_one_circles():
    t0 = time.perf_counter()
    for n in range(1, 10):
        points = betti_numbers(
            enumerate_skeleton(SpaceSpec.hypercube(n, 0), 1), maxdim=0
        )
        assert points.reduced_betti == (2**n - 1,)
        assert points.is_trusted(0)
        circles = betti_single_dim(SpaceSpec.hypercube(n, 1), 1)
        assert circles == (n - 2) * 2 ** (n - 1) + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 (scale 0/1 wedges, n=1..9): PASS ({elapsed:.2f}s)")


def test_criterion_02_three_sphere_counts_at_scale_two():
    t0 = time.perf_counter()
    for n in (3, 4, 5, 6):
        computed = betti_single_dim(SpaceSpec.hypercube(n, 2), 3)
        assert computed == HYPERCUBE_THREE_SPHERE_VALUES[n]
    core = time.perf_counter() - t0
    assert core < 300.0
    t1 = time.perf_counter()
    assert betti_single_dim(SpaceSpec.hypercube(7, 2), 3) == 769
    stretch = time.perf_counter() - t1
    assert stretch < 1800.0
    print(
        "ACCEPTANCE 2 (scale-2 3-sphere counts, n=3..6 + n=7 stretch): "
        f"PASS ({core:.2f}s + {stretch:.2f}s)"
    )


def test_criterion_03_three_sphere_counts_for_every_prefix():
    t0 = time.perf_counter()
    for m in range(1, 65):
        computed = betti_single_dim(SpaceSpec(m=m, r=2), 3)
        assert computed == three_sphere_count(m), f"m={m}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 3 (prefix 3-sphere counts, m=1..64): PASS ({elapsed:.2f}s)")


def test_criterion_04_link_wedges():
    t0 = time.perf_counter()
    for m in range(2, 257):
        report = link_homotopy_check(m)
        assert report.betti.reduced_betti == (0, 0, link_sphere_count(m - 1), 0)
        assert report.passed, f"m={m}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 4 (top-vertex link wedges, m=2..256): PASS ({elapsed:.2f}s)")


def test_criterion_05_cross_polytope_diagonal():
    t0 = time.perf_counter()
    three = betti_numbers(enumerate_skeleton(SpaceSpec.hypercube(3, 2), 4), maxdim=3)
    assert three.reduced_betti == (0, 0, 0, 1)
    assert three.trusted_through == 3
    four = betti_numbers(enumerate_skeleton(SpaceSpec.hypercube(4, 3), 8), maxdim=7)
    assert four.reduced_betti == (0,) * 7 + (1,)
    assert four.trusted_through == 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 (cross-polytope spheres, n=3,4): PASS ({elapsed:.2f}s)")


def test_criterion_06_scale_three_evidence_for_the_five_cube():
    t0 = time.perf_counter()
    skel = enumerate_skeleton(SpaceSpec.hypercube(5, 3), 9)
    assert skel.complete_flag
    bv = betti_numbers(skel, maxdim=8)
    assert bv.reduced_betti == (0, 0, 0, 0, 1, 0, 0, 10, 0)
    assert bv.trusted_through == 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 3600.0
    print(f"ACCEPTANCE 6 (5-cube at scale 3, dims 4 and 7): PASS ({elapsed:.2f}s)")


def test_criterion_07_integer_homology(q3r2, q4r2):
    t0 = time.perf_counter()
    assert integer_homology_snf(q3r2, 3) == IntegerHomologySummary(3, 1, ())
    assert integer_homology_snf(q4r2, 3) == IntegerHomologySummary(3, 9, ())
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 (integer homology in dim 3): PASS ({elapsed:.2f}s)")


def test_criterion_08_splitting_recursion():
    t0 = time.perf_counter()
    for m in range(2, 65):
        report = splitting_check(m, 2, maxdim=3)
        assert set(report.holds) == {0, 1, 2, 3}, f"m={m}"
        assert report.all_hold, f"m={m}: {report.holds}"
    for m in range(2, 33):
        report = splitting_check(m, 3, maxdim=4)
        assert set(report.holds) == {0, 1, 2, 3, 4}, f"m={m}"
        assert report.all_hold, f"m={m}: {report.holds}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    print(
        "ACCEPTANCE 8 (vertex-deletion recursion, r=2 m<=64 and r=3 m<=32): "
        f"PASS ({elapsed:.2f}s)"
    )


def test_criterion_09_kneser_cross_check():
    t0 = time.perf_counter()
    for n, expected in [(4, 1), (5, 4), (6, 10), (7, 20)]:
        report = kneser_check(n)
        assert report.expected == expected
        assert report.passed, f"n={n}: {report.betti.reduced_betti}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 9 (intersecting 2-subset wedges, n=4..7): PASS ({elapsed:.2f}s)")


def test_criterion_10_property_suites(q3r2, q4r2):
    t0 = time.perf_counter()

    # (a) sparse vs dense reduction on 100 random flag complexes
    rng = np.random.default_rng(2025)
    for i in range(100):
        skel = random_flag_skeleton(rng)
        p = 3 if i % 3 == 0 else 2
        sparse = betti_numbers(skel, p=p)
        dense = betti_numbers_dense(skel, p=p)
        assert sparse.reduced_betti == dense.reduced_betti
        assert sparse.trusted_through == dense.trusted_through

    # (b) 20 vertex relabellings of 4-cube complexes
    for i in range(20):
        r = 1 if i % 2 else 2
        base = enumerate_skeleton(SpaceSpec.hypercube(4, r), 5)
        expect = betti_numbers(base, maxdim=4).reduced_betti
        perm = rng.permutation(16)
        shuffled = flag_skeleton_from_graph(
            range(16),
            [(int(perm[a]), int(perm[b])) for a, b in base.simplices[1].tolist()],
            5,
        )
        assert betti_numbers(shuffled, maxdim=4).reduced_betti == expect

    # (c) Euler characteristics of the fully enumerated scale-2 complexes
    assert sum((-1) ** k * c for k, c in enumerate(q3r2.counts)) == 0
    assert sum((-1) ** k * c for k, c in enumerate(q4r2.counts)) == -8

    # (d) 50 star clusters across the 3- and 4-cube at scale 2
    for skel, n in ((q3r2, 3), (q4r2, 4)):
        space = SpaceSpec.hypercube(n, 2)
        pool = [
            tuple(int(v) for v in row)
            for k in range(skel.top_dimension() + 1)
            for row in skel.simplices[k].tolist()
        ]
        for idx in rng.choice(len(pool), size=25, replace=False):
            assert star_cluster_contractibility_check(space, pool[idx], 3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 10 (property suites a-d): PASS ({elapsed:.2f}s)")


def test_criterion_11_formula_identities():
    t0 = time.perf_counter()
    for n in range(3, 21):
        assert three_sphere_count(2**n) == hypercube_three_sphere_count(n), f"n={n}"
    for n, expected in HYPERCUBE_THREE_SPHERE_VALUES.items():
        assert hypercube_three_sphere_count(n) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 11 (closed-form identities, n=3..20): PASS ({elapsed:.2f}s)")


def test_criterion_12_scale_three_full_vector_for_the_six_cube():
    t0 = time.perf_counter()
    skel = enumerate_skeleton(SpaceSpec.hypercube(6, 3), 11)
    assert skel.complete_flag
    for p in (2, 3):
        bv = betti_numbers(skel, p=p)
        assert bv.reduced_betti == (0, 0, 0, 0, 11, 0, 0, 60, 0, 0, 0, 0), p
        assert bv.trusted_through == 11
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 12 (6-cube at scale 3, GF(2) and GF(3)): PASS ({elapsed:.2f}s)")


@pytest.mark.slow
@pytest.mark.parametrize("p", [2, 3])
def test_scale_three_full_vector_for_the_seven_cube(p):
    # About 20 s and 1.4 GB per field on a 2-core x86-64 box; GF(3) is the
    # torsion sentinel.
    skel = enumerate_skeleton(SpaceSpec.hypercube(7, 3), 13)
    assert skel.complete_flag
    bv = betti_numbers(skel, p=p)
    assert bv.reduced_betti == (0, 0, 0, 0, 71, 0, 0, 280, 0, 0, 0, 0, 0, 0)
    assert bv.reduced_betti[4] == conjectured_four_sphere_count(7)
    assert bv.reduced_betti[7] == conjectured_seven_sphere_count(7)
    assert bv.trusted_through == 13
