"""The benchmark's workloads: queries to the public cuberips API with the
independent answer each must give.

A query returns a list of (label, got, expected) checks.  Its optional probe
runs only in traced passes, after the timed queries, and times the layers a
query reaches only from inside the library (neighbor masks, and the
enumeration inside ``betti_single_dim``).

Only ``prefix-sweep`` depends on the seed: it permutes the query order.  The
other workloads each ask about one fixed space, so every seed gives the same
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import cuberips as cr


@dataclass(frozen=True)
class Query:
    name: str
    run: Callable[[object], list[tuple[str, object, object]]]
    probe: Callable[[object], None] | None = None


def _neighbor_masks(tr, space):
    with tr.span("hamming.neighbor_masks"):
        cr.neighbor_masks(space)


def _enumerate(tr, space, dim_cap):
    with tr.span("complexes.enumerate") as sp:
        skel = cr.enumerate_skeleton(space, dim_cap)
        sp.count("simplices", sum(skel.counts))
    return skel


def _closed_form(tr, fn, *args):
    with tr.span("formulas.closed_form"):
        return fn(*args)


def _betti_numbers(tr, skel, p, maxdim, span_name):
    with tr.span(span_name) as sp:
        bv = cr.betti_numbers(skel, p=p, maxdim=maxdim)
        # The sweep reduces layer k against layer k+1 for k <= maxdim.
        counts = skel.counts
        top = min(skel.dim_cap if maxdim is None else maxdim + 1, skel.dim_cap)
        sp.count("columns", sum(counts[k] for k in range(top) if counts[k + 1]))
    return bv


def _masks_probe(*spaces):
    def probe(tr):
        for space in spaces:
            _neighbor_masks(tr, space)

    return probe


def _single_dim_query(name, space, i, expected, closed_form):
    def run(tr):
        with tr.span("homology.single_dim"):
            got = cr.betti_single_dim(space, i)
        return [
            ("betti", got, expected),
            ("closed_form", _closed_form(tr, *closed_form), expected),
        ]

    def probe(tr):
        # The enumeration betti_single_dim does internally, timed on its own
        # so that homology.single_dim_self_s can subtract it.
        _neighbor_masks(tr, space)
        with tr.span("bench.probe") as sp:
            skel = _enumerate(tr, space, i + 1)
            sp.count("columns", skel.counts[i] + skel.counts[i + 1])

    return Query(name, run, probe)


def reference_three_sphere_count(m: int) -> int:
    """Sum over k < m of the 2-sphere count of the link below k, from the
    bit positions of k directly (independent of cuberips.formulas)."""
    total = 0
    for k in range(m):
        bits = [p for p in range(k.bit_length() - 1, -1, -1) if k >> p & 1]
        total += sum((s - 2) * (p + 1) for s, p in enumerate(bits, start=1) if s >= 3)
    return total


def census_q6r3(seed: int) -> list[Query]:
    """Enumeration does all the work and homology none."""
    space = cr.SpaceSpec.hypercube(6, 3)

    def run(tr):
        skel = _enumerate(tr, space, 11)
        counts = skel.counts
        euler = sum((-1) ** k * c for k, c in enumerate(counts)) - 1
        conjectured = _closed_form(tr, cr.conjectured_four_sphere_count, 6) - _closed_form(
            tr, cr.conjectured_seven_sphere_count, 6
        )
        return [
            ("complete_flag", skel.complete_flag, True),
            ("top_dimension", skel.top_dimension(), 11),
            ("simplices", sum(counts), 853680),
            ("edges", counts[1], 64 * (6 + 15 + 20) // 2),
            ("reduced_euler", euler, -49),
            ("conjectured_euler", conjectured, -49),
        ]

    return [Query("census Q6 r=3", run, _masks_probe(space))]


def sphere3_q9r2(seed: int) -> list[Query]:
    """The three-layer single-dimension path at scale: column building and
    GF(2) reduction take most of the time and the pivot store sets peak RSS."""
    return [
        _single_dim_query(
            "betti_3 Q9 r=2",
            cr.SpaceSpec.hypercube(9, 2),
            3,
            7937,
            (cr.hypercube_three_sphere_count, 9),
        )
    ]


def prefix_sweep(seed: int) -> list[Query]:
    """The same driver on 128 tiny inputs, where per-call overhead dominates,
    then the one closed form that does measurable work."""
    order = list(range(1, 129))
    random.Random(seed).shuffle(order)
    queries = [
        _single_dim_query(
            f"betti_3 m={m} r=2",
            cr.SpaceSpec(m=m, r=2),
            3,
            reference_three_sphere_count(m),
            (cr.three_sphere_count, m),
        )
        for m in order
    ]

    def closed_form(tr):
        return [("three_sphere_count", _closed_form(tr, cr.three_sphere_count, 2**20), 258473985)]

    return queries + [Query("three_sphere_count 2**20", closed_form)]


def scale3_q6(seed: int) -> list[Query]:
    """The coboundary sweep with clearing over GF(2), the odd-prime reduction
    over GF(3), and the scale-3 peak-memory gate."""
    q6 = cr.SpaceSpec.hypercube(6, 3)
    q5 = cr.SpaceSpec.hypercube(5, 3)

    def betti4_q6(tr):
        skel = _enumerate(tr, q6, 5)
        bv = _betti_numbers(tr, skel, 2, 4, "homology.betti_numbers")
        return [
            ("reduced_betti", bv.reduced_betti, (0, 0, 0, 0, 11)),
            ("trusted_through", bv.trusted_through, 4),
            ("conjectured", _closed_form(tr, cr.conjectured_four_sphere_count, 6), 11),
        ]

    def full_q5_gf3(tr):
        skel = _enumerate(tr, q5, 9)
        bv = _betti_numbers(tr, skel, 3, None, "homology.betti_numbers_gf3")
        return [
            ("complete_flag", skel.complete_flag, True),
            ("reduced_betti", bv.reduced_betti, (0, 0, 0, 0, 1, 0, 0, 10, 0, 0)),
            ("conjectured_4", _closed_form(tr, cr.conjectured_four_sphere_count, 5), 1),
            ("conjectured_7", _closed_form(tr, cr.conjectured_seven_sphere_count, 5), 10),
        ]

    return [
        Query("betti Q6 r=3 GF(2) maxdim 4", betti4_q6, _masks_probe(q6)),
        Query("betti Q5 r=3 GF(3)", full_q5_gf3, _masks_probe(q5)),
    ]


WORKLOADS = {
    "census-q6r3": census_q6r3,
    "sphere3-q9r2": sphere3_q9r2,
    "prefix-sweep": prefix_sweep,
    "scale3-q6": scale3_q6,
}
