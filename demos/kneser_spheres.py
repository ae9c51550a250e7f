"""Independence complexes of Kneser graphs of 2-subsets.

Vertices are the 2-subsets of {0..n-1}; a simplex is a family of pairwise
*intersecting* 2-subsets (an independent set in the Kneser graph).  Such a
family is either a star (all pairs through one point) or a triangle
{a,b},{a,c},{b,c}.  Stars grow with n, so the complex itself gets higher
dimensional, but its reduced homology stays concentrated in dimension 2
with rank C(n-1, 3): the complex is a wedge of that many 2-spheres.

This script lists the simplex counts and Betti vectors for small n and
checks them against the prediction.  Enumeration is capped at dimension 4,
which certifies homology through dimension 4: the map out of dimension 4
is read from the graph, and layer 5 (7 simplices for n = 7) is never
built.  An entry beyond the trusted range would be marked with '?'.
"""

from __future__ import annotations

from math import comb

from cuberips import betti_numbers, kneser_check, kneser_independence_complex


def main() -> None:
    print("n  vertices  counts                     betti               "
          "expected  ok")
    for n in range(4, 8):
        skel = kneser_independence_complex(n, dim_cap=4)
        bv = betti_numbers(skel)
        report = kneser_check(n)
        expected = comb(n - 1, 3)
        counts = ",".join(str(c) for c in skel.counts)
        betti = ",".join(
            str(b) if bv.is_trusted(i) else f"{b}?"
            for i, b in enumerate(bv.reduced_betti)
        )
        flag = "yes" if report.passed else "NO"
        print(f"{n}  {skel.num_vertices:8d}  {counts:25s}  {betti:18s}  "
              f"{expected:8d}  {flag}")

    print("\nthe n=4 complex in full (vertex i encodes a 2-subset):")
    skel = kneser_independence_complex(4, dim_cap=4)
    for k, layer in enumerate(skel.simplices):
        rows = [tuple(int(v) for v in row) for row in layer]
        print(f"  dim {k}: {rows if rows else '(empty)'}")


if __name__ == "__main__":
    main()
