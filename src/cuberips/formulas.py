"""Closed-form sphere counts and homotopy-type predictions.

Everything here is exact integer arithmetic.  The prediction table marks
each (n, r) cell as a proved statement, a conjecture, or unknown, so that
callers can distinguish "must match" from "interesting if it matches".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .hamming import bit_positions


def link_sphere_count(x: int) -> int:
    """Number of 2-spheres in the wedge describing the distance-2 link below x.

    With the set bits of x at positions i_1 > i_2 > ... > i_l, the count is
    sum over s >= 3 of (s - 2) * (i_s + 1).  It vanishes exactly when x has
    at most two set bits.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return sum(
        (s - 2) * (i + 1) for s, i in enumerate(bit_positions(x), start=1) if s >= 3
    )


def three_sphere_count(m: int) -> int:
    """Number of 3-spheres in the wedge for the distance-2 flag complex on 0..m-1.

    Sums link_sphere_count(k) over k < m exactly, in O(log(m)**2) steps.  A
    set bit of k at position p adds (p+1) * max(t-1, 0), t = set bits above p.
    The k < m form one block per set bit b of m: k copies m's c set bits
    above b, has 0 at b, and is free below.  The prefix bits add the same to
    all 2**b members.  Free bit p, with a = b-1-p free bits above it, adds
    (p+1) * 2**p * sum_x C(a, x) max(c+x-1, 0)
      = (p+1) * 2**p * (2**a (c-1) + a 2**(a-1) + [c = 0]).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    prefix = 0  # contribution of the prefix bits to one number of the block
    for c, b in enumerate(bit_positions(m)):
        total += prefix << b
        for p in range(b):
            a = b - 1 - p
            total += (p + 1) * (((c - 1) << a) + ((a << a) >> 1) + (c == 0)) << p
        prefix += (b + 1) * max(c - 1, 0)
    return total


def hypercube_three_sphere_count(n: int) -> int:
    """3-sphere count for the n-cube at scale 2: sum of (j+1)(2^(n-2) - 2^(i-1))."""
    if n < 3:
        raise ValueError("n must be >= 3")
    total = 0
    for i in range(1, n):
        for j in range(i):
            total += (j + 1) * ((1 << (n - 2)) - (1 << (i - 1)))
    return total


def hypercube_circle_count(n: int) -> int:
    """Circle count for the n-cube at scale 1: (n-2) * 2^(n-1) + 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n - 2) * (1 << (n - 1)) + 1


def conjectured_seven_sphere_count(n: int) -> int:
    """Conjectured 7-dimensional reduced Betti number at scale 3: 2^(n-4) C(n,4)."""
    if n < 5:
        raise ValueError("n must be >= 5")
    return (1 << (n - 4)) * comb(n, 4)


def conjectured_four_sphere_count(n: int) -> int:
    """Conjectured 4-dimensional reduced Betti number at scale 3."""
    if n < 5:
        raise ValueError("n must be >= 5")
    return sum((1 << (i - 4)) * comb(i, 4) for i in range(4, n))


@dataclass(frozen=True)
class PredictionRecord:
    """Predicted reduced Betti numbers for the n-cube at scale r.

    status is one of "theorem", "conjecture", "unknown".  Dimensions absent
    from predicted_reduced_betti are asserted to vanish only when status is
    "theorem"; a conjecture speaks only about the dimensions it lists.
    """

    n: int
    r: int
    status: str
    predicted_reduced_betti: dict[int, int]
    homotopy_description: str


def predicted_betti(n: int, r: int) -> PredictionRecord:
    """Best known prediction for the n-cube at scale r."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r >= n:
        return PredictionRecord(
            n, r, "theorem", {}, "contractible (every pair is within scale)"
        )
    if r == 0:
        count = (1 << n) - 1
        return PredictionRecord(
            n, r, "theorem", {0: count}, f"{1 << n} isolated points"
        )
    if r == n - 1:
        dim = (1 << (n - 1)) - 1
        return PredictionRecord(
            n,
            r,
            "theorem",
            {dim: 1},
            f"sphere of dimension {dim} (cross-polytope boundary)",
        )
    if r == 1:
        count = hypercube_circle_count(n)
        return PredictionRecord(
            n, r, "theorem", {1: count}, f"wedge of {count} circles"
        )
    if r == 2:
        count = hypercube_three_sphere_count(n)
        return PredictionRecord(
            n, r, "theorem", {3: count}, f"wedge of {count} 3-spheres"
        )
    if r == 3 and n >= 5:
        return PredictionRecord(
            n,
            r,
            "conjecture",
            {
                4: conjectured_four_sphere_count(n),
                7: conjectured_seven_sphere_count(n),
            },
            "conjectured counts in dimensions 4 and 7; the complete vector has been "
            "computed as zero in every other dimension for n = 5, 6, 7 over GF(2) "
            "and GF(3)",
        )
    return PredictionRecord(n, r, "unknown", {}, "no prediction available")
