"""Compare computed Betti numbers against the prediction table.

Walks every (n, r) cell with n <= 5, computes reduced Betti numbers up to
the highest predicted dimension, exact there, and prints a verdict grid:
rows are scales r, columns are cube exponents n.  Cells whose enumeration
would be too large for a quick demo are skipped rather than failed.
"""

from __future__ import annotations

from cuberips import survey_grid


def main() -> None:
    report = survey_grid(5, 5)
    print(f"verdicts over GF({report.p}), n <= {report.n_max}, r <= {report.r_max}\n")
    header = "      " + "".join(f"n={n:<8}" for n in range(1, report.n_max + 1))
    print(header)
    by_pos = {(c.n, c.r): c for c in report.cells}
    for r in range(report.r_max + 1):
        row = [f"r={r:<3}"]
        for n in range(1, report.n_max + 1):
            row.append(f"{by_pos[(n, r)].status:<10}")
        print(" ".join(row))

    print("\ncomputed values behind the verdicts:")
    for cell in report.cells:
        if cell.betti is None:
            detail = f"skipped ({cell.note})"
        else:
            nonzero = {
                i: v for i, v in enumerate(cell.betti.reduced_betti) if v
            }
            detail = f"betti {nonzero or 'all zero'}"
        print(
            f"  n={cell.n} r={cell.r}: {cell.prediction.status:<10} "
            f"predicted {cell.prediction.predicted_reduced_betti or '{}'} -> {detail}"
        )
    print(f"\nmismatches: {len(report.mismatches)}")


if __name__ == "__main__":
    main()
