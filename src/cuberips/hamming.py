"""Binary-string vertex sets and the Hamming metric.

Vertices are the integers 0..m-1 read as bit strings; bit i of a label is
the coefficient of 2**i.  Two vertices are adjacent at scale r when their
Hamming distance is at most r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


def hamming_distance(x: int, y: int) -> int:
    """Number of bit positions where x and y differ."""
    if x < 0 or y < 0:
        raise ValueError("vertex labels must be nonnegative")
    return (x ^ y).bit_count()


def bit_positions(x: int) -> tuple[int, ...]:
    """Exponents of the binary expansion of x, strictly decreasing.

    bit_positions(11) == (3, 1, 0) since 11 = 2**3 + 2**1 + 2**0.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    out = []
    while x:
        p = x.bit_length() - 1
        out.append(p)
        x ^= 1 << p
    return tuple(out)


def flip_bits(x: int, positions) -> int:
    """Toggle the given bit positions of x, once each."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    for p in positions:
        x ^= 1 << p
    return x


@dataclass(frozen=True)
class SpaceSpec:
    """The first m binary strings of width n, with adjacency scale r.

    n defaults to the smallest width that holds every label.  r >= n gives a
    complete graph (every pair lies within distance n); r = 0 gives a discrete
    space.
    """

    m: int
    r: int
    n: int = 0  # 0 = infer from m

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        least = max(1, (self.m - 1).bit_length())
        if self.n == 0:
            object.__setattr__(self, "n", least)
        elif self.n < least:
            raise ValueError(f"n={self.n} too small for m={self.m} labels")

    @classmethod
    def hypercube(cls, n: int, r: int) -> "SpaceSpec":
        """All 2**n strings of width n."""
        if n < 1:
            raise ValueError("n must be at least 1")
        return cls(m=2**n, r=r, n=n)

    @property
    def is_hypercube(self) -> bool:
        return self.m == 2**self.n


def _flips(space: SpaceSpec) -> list[int]:
    """XOR masks that flip 1..r of the n bit positions."""
    return [
        sum(1 << p for p in pos)
        for w in range(1, min(space.r, space.n) + 1)
        for pos in combinations(range(space.n), w)
    ]


def _flip_count(space: SpaceSpec) -> int:
    """len(_flips(space)), without making the flips."""
    return sum(comb(space.n, w) for w in range(1, min(space.r, space.n) + 1))


def neighborhood(space: SpaceSpec, v: int) -> set[int]:
    """Vertices within distance space.r of v, excluding v itself.

    Generated by flipping up to r bit positions, so the cost scales with the
    number of candidate flips rather than with m.
    """
    if not 0 <= v < space.m:
        raise ValueError(f"vertex {v} out of range for m={space.m}")
    return {v ^ f for f in _flips(space) if v ^ f < space.m}


def neighbor_masks(space: SpaceSpec) -> list[int]:
    """Adjacency bitmasks: bit u of neighbor_masks(space)[v] is set iff
    0 < hamming_distance(u, v) <= r and both labels are below m."""
    flips = _flips(space)
    masks = []
    for v in range(space.m):
        mask = 0
        for f in flips:
            u = v ^ f
            if u < space.m:
                mask |= 1 << u
        masks.append(mask)
    return masks
