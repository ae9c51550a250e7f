from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuberips import (
    bit_positions,
    conjectured_four_sphere_count,
    conjectured_seven_sphere_count,
    hypercube_circle_count,
    hypercube_three_sphere_count,
    link_sphere_count,
    predicted_betti,
    three_sphere_count,
)


def test_link_sphere_count_small_table():
    # below 16 only the numbers with three or more set bits contribute
    expected = {7: 1, 11: 1, 13: 1, 14: 2, 15: 4}
    for x in range(16):
        assert link_sphere_count(x) == expected.get(x, 0)
    assert link_sphere_count(63) == 20


@given(st.integers(0, 2**30))
def test_link_sphere_count_vanishes_iff_few_bits(x):
    assert (link_sphere_count(x) == 0) == (x.bit_count() <= 2)


def test_link_sphere_count_rejects_negative():
    with pytest.raises(ValueError):
        link_sphere_count(-1)


def test_three_sphere_count_is_a_running_sum():
    for m in (1, 2, 13, 100, 2000):
        assert three_sphere_count(m) == sum(link_sphere_count(k) for k in range(m))
    with pytest.raises(ValueError):
        three_sphere_count(0)


def test_three_sphere_count_matches_running_sum_through_2048():
    total = 0
    for m in range(1, 2049):
        total += link_sphere_count(m - 1)
        assert three_sphere_count(m) == total, f"m={m}"


def test_three_sphere_count_on_hypercubes_past_int64():
    for n in range(3, 129):
        assert three_sphere_count(2**n) == hypercube_three_sphere_count(n), f"n={n}"
    assert three_sphere_count(2**128) > 2**63


def test_three_sphere_count_monotone():
    values = [three_sphere_count(m) for m in range(1, 300)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert three_sphere_count(12) == 2


def test_hypercube_counts_against_triangular_sum():
    # independent form: group the double sum by the outer index
    for n in range(3, 16):
        by_rows = sum(
            ((1 << (n - 2)) - (1 << (i - 1))) * i * (i + 1) // 2
            for i in range(1, n)
        )
        assert hypercube_three_sphere_count(n) == by_rows
    with pytest.raises(ValueError):
        hypercube_three_sphere_count(2)


def test_circle_count():
    assert hypercube_circle_count(2) == 1
    assert hypercube_circle_count(3) == 5
    assert hypercube_circle_count(4) == 17
    with pytest.raises(ValueError):
        hypercube_circle_count(1)


def test_conjectured_counts():
    assert conjectured_four_sphere_count(5) == 1
    assert conjectured_seven_sphere_count(5) == 10
    assert conjectured_four_sphere_count(8) == 351
    assert conjectured_seven_sphere_count(8) == 1120
    with pytest.raises(ValueError):
        conjectured_four_sphere_count(4)
    with pytest.raises(ValueError):
        conjectured_seven_sphere_count(4)


def test_predicted_betti_statuses():
    assert predicted_betti(4, 5).status == "theorem"  # contractible
    assert predicted_betti(4, 5).predicted_reduced_betti == {}
    assert predicted_betti(3, 0).predicted_reduced_betti == {0: 7}
    assert predicted_betti(5, 1).predicted_reduced_betti == {1: 49}
    assert predicted_betti(6, 2).predicted_reduced_betti == {3: 209}
    assert predicted_betti(5, 4).predicted_reduced_betti == {15: 1}
    record = predicted_betti(8, 3)
    assert record.status == "conjecture"
    assert record.predicted_reduced_betti == {4: 351, 7: 1120}
    assert predicted_betti(6, 4).status == "unknown"
    assert predicted_betti(7, 5).status == "unknown"
    with pytest.raises(ValueError):
        predicted_betti(0, 1)
    with pytest.raises(ValueError):
        predicted_betti(3, -1)


def test_prediction_branches_agree_where_they_overlap():
    # scale n-1 overlaps the circle formula at n=2 and the 3-sphere one at n=3
    assert predicted_betti(2, 1).predicted_reduced_betti == {1: hypercube_circle_count(2)}
    assert predicted_betti(3, 2).predicted_reduced_betti == {3: hypercube_three_sphere_count(3)}


def test_every_nonnegative_cell_has_a_record():
    for n in range(1, 12):
        for r in range(12):
            record = predicted_betti(n, r)
            assert record.status in ("theorem", "conjecture", "unknown")
            assert all(v >= 0 for v in record.predicted_reduced_betti.values())
