"""Command-line front end.

Three subcommands: ``betti`` computes reduced Betti numbers of one complex,
``predict`` prints the closed-form/conjectured values without enumerating
anything, and ``verify`` runs a named checking suite.  Reports print as TSV
or as JSON that parses back into the same report object.

Exit codes: 0 all good, 1 mathematical mismatch, 2 budget or resource
failure, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .complexes import (
    DEFAULT_BUDGET,
    SizeBudgetExceeded,
    enumerate_skeleton,
    write_skeleton_text,
)
from .experiments import (
    kneser_check,
    link_homotopy_check,
    splitting_check,
    survey_grid,
)
from .formulas import predicted_betti, three_sphere_count
from .hamming import SpaceSpec
from .homology import betti_numbers, betti_single_dim
from .oracle import betti_numbers_dense, random_flag_skeleton

SUITES = ("table1", "lemma-link", "theorem-gm2", "splitting", "kneser", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 3, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@dataclass
class Report:
    """Machine-readable result of ``betti`` or ``predict``."""

    command: str
    params: dict
    betti: list | None
    counts: list | None
    prediction: dict | None
    elapsed_ms: float

    def to_json(self) -> str:
        data = {
            "command": self.command,
            "params": self.params,
            "betti": self.betti,
            "counts": self.counts,
            "prediction": self.prediction,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        pred = data["prediction"]
        if pred is not None:
            pred = {
                "status": pred["status"],
                "values": {int(k): v for k, v in pred["values"].items()},
            }
        return cls(
            command=data["command"],
            params=data["params"],
            betti=data["betti"],
            counts=data["counts"],
            prediction=pred,
            elapsed_ms=data["elapsed_ms"],
        )


@dataclass
class VerifyReport:
    """Machine-readable result of one ``verify`` suite."""

    command: str
    params: dict
    suite: str
    checks: list
    passed: bool
    elapsed_ms: float

    def to_json(self) -> str:
        data = {
            "command": self.command,
            "params": self.params,
            "suite": self.suite,
            "checks": self.checks,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerifyReport":
        data = json.loads(text)
        return cls(
            command=data["command"],
            params=data["params"],
            suite=data["suite"],
            checks=data["checks"],
            passed=data["passed"],
            elapsed_ms=data["elapsed_ms"],
        )


def _resolve_cli_budget(args) -> int:
    if args.budget is not None:
        value = args.budget
    elif "VRQ_BUDGET" in os.environ:
        value = int(os.environ["VRQ_BUDGET"])
    else:
        value = DEFAULT_BUDGET
    if value < 1:
        raise ValueError("budget must be positive")
    return value


def _space_from_args(args, parser) -> SpaceSpec:
    if (args.n is None) == (args.m is None):
        parser.error("exactly one of --n or --m is required")
    if args.n is not None:
        return SpaceSpec.hypercube(args.n, args.r)
    return SpaceSpec(m=args.m, r=args.r)


def _n_from_args(args, parser) -> int:
    if (args.n is None) == (args.m is None):
        parser.error("exactly one of --n or --m is required")
    if args.n is not None:
        return args.n
    m = args.m
    if m < 2 or m & (m - 1):
        parser.error(f"--m {m} is not a power of two; predictions need --n")
    return m.bit_length() - 1


def _emit_betti_tsv(report: Report) -> None:
    print("dim\tbetti\ttrusted")
    for row in report.betti:
        flag = "yes" if row["trusted"] else "provisional"
        print(f"{row['dim']}\t{row['value']}\t{flag}")
    print("counts\t" + "\t".join(str(c) for c in report.counts))
    print(f"elapsed_ms\t{report.elapsed_ms}")


def _emit_predict_tsv(report: Report, description: str) -> None:
    print(f"status\t{report.prediction['status']}")
    print(f"description\t{description}")
    print("dim\tbetti")
    for dim in sorted(report.prediction["values"]):
        print(f"{dim}\t{report.prediction['values'][dim]}")
    print(f"elapsed_ms\t{report.elapsed_ms}")


def cmd_betti(args, parser) -> int:
    space = _space_from_args(args, parser)
    budget = _resolve_cli_budget(args)
    t0 = time.perf_counter()
    try:
        skel = enumerate_skeleton(space, args.maxdim + 1, budget=budget)
    except SizeBudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        if err.partial_counts:
            counts = "\t".join(str(c) for c in err.partial_counts)
            print(f"partial counts\t{counts}", file=sys.stderr)
        return 2
    bv = betti_numbers(skel, p=args.field, maxdim=args.maxdim)
    if args.export_skeleton:
        write_skeleton_text(skel, args.export_skeleton)
    elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
    report = Report(
        command="betti",
        params={
            "m": space.m,
            "n": space.n,
            "r": space.r,
            "field": args.field,
            "maxdim": args.maxdim,
            "budget": budget,
        },
        betti=[
            {"dim": i, "value": bv.reduced_betti[i], "trusted": bv.is_trusted(i)}
            for i in range(args.maxdim + 1)
        ],
        counts=list(skel.counts),
        prediction=None,
        elapsed_ms=elapsed,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        _emit_betti_tsv(report)
    return 0


def cmd_predict(args, parser) -> int:
    n = _n_from_args(args, parser)
    t0 = time.perf_counter()
    record = predicted_betti(n, args.r)
    elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
    report = Report(
        command="predict",
        params={"n": n, "r": args.r},
        betti=None,
        counts=None,
        prediction={
            "status": record.status,
            "values": dict(record.predicted_reduced_betti),
        },
        elapsed_ms=elapsed,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        _emit_predict_tsv(report, record.homotopy_description)
    return 0


def _check(name: str, passed: bool, computed, expected) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "computed": str(computed),
        "expected": str(expected),
    }


def _suite_table1(args) -> tuple[list[dict], list[str]]:
    rmax = args.rmax if args.rmax is not None else args.nmax
    report = survey_grid(
        args.nmax, rmax, p=args.field, maxdim=args.maxdim,
        budget=_resolve_cli_budget(args),
    )
    checks = []
    for cell in report.cells:
        expected = cell.prediction.predicted_reduced_betti or "(all zero)"
        if cell.prediction.status in ("unknown",):
            expected = "(open)"
        computed = cell.betti.reduced_betti if cell.betti else "skipped"
        checks.append(
            _check(
                f"n={cell.n} r={cell.r} [{cell.prediction.status}]",
                cell.status != "mismatch",
                computed,
                expected,
            )
        )
    # grid in Table-1 orientation: one row per scale r, one column per n
    grid = ["grid\t" + "\t".join(f"n={n}" for n in range(1, report.n_max + 1))]
    by_pos = {(c.n, c.r): c.status for c in report.cells}
    for r in range(report.r_max + 1):
        row = [by_pos[(n, r)] for n in range(1, report.n_max + 1)]
        grid.append(f"r={r}\t" + "\t".join(row))
    return checks, grid


def _suite_lemma_link(args) -> tuple[list[dict], list[str]]:
    budget = _resolve_cli_budget(args)
    checks = []
    for m in range(1, args.mmax + 1):
        rep = link_homotopy_check(m, p=args.field, budget=budget)
        checks.append(
            _check(
                f"m={m}",
                rep.passed,
                rep.betti.reduced_betti,
                (0, 0, rep.expected, 0),
            )
        )
    return checks, []


def _suite_theorem_gm2(args) -> tuple[list[dict], list[str]]:
    budget = _resolve_cli_budget(args)
    checks = []
    for m in range(1, args.mmax + 1):
        space = SpaceSpec(m=m, r=2)
        computed = betti_single_dim(space, 3, p=args.field, budget=budget)
        expected = three_sphere_count(m)
        checks.append(_check(f"m={m}", computed == expected, computed, expected))
    return checks, []


def _suite_splitting(args) -> tuple[list[dict], list[str]]:
    budget = _resolve_cli_budget(args)
    checks = []
    for m in range(2, args.mmax + 1):
        rep = splitting_check(
            m, args.r, p=args.field, maxdim=args.maxdim, budget=budget
        )
        decided = sorted(rep.holds)
        lhs = tuple(rep.betti_whole.reduced_betti[i] for i in decided)
        rhs = []
        for i in decided:
            if i == 0:
                rhs.append(
                    rep.betti_deleted.reduced_betti[0] + (1 if rep.link_empty else 0)
                )
            else:
                rhs.append(
                    rep.betti_deleted.reduced_betti[i]
                    + rep.betti_link.reduced_betti[i - 1]
                )
        checks.append(
            _check(
                f"m={m} dims={decided}",
                rep.all_hold,
                lhs,
                tuple(rhs),
            )
        )
    return checks, []


def _suite_kneser(args) -> tuple[list[dict], list[str]]:
    budget = _resolve_cli_budget(args)
    checks = []
    for n in range(4, args.nmax + 1):
        rep = kneser_check(n, p=args.field, budget=budget)
        checks.append(
            _check(
                f"n={n}",
                rep.passed,
                rep.betti.reduced_betti,
                (0, 0, rep.expected, 0),
            )
        )
    return checks, []


def _suite_oracle(args) -> tuple[list[dict], list[str]]:
    rng = np.random.default_rng(args.seed)
    checks = []
    for i in range(args.samples):
        skel = random_flag_skeleton(rng)
        sparse = betti_numbers(skel, p=args.field)
        dense = betti_numbers_dense(skel, p=args.field)
        same = (
            sparse.reduced_betti == dense.reduced_betti
            and sparse.trusted_through == dense.trusted_through
        )
        checks.append(
            _check(
                f"sample={i} vertices={skel.num_vertices}",
                same,
                sparse.reduced_betti,
                dense.reduced_betti,
            )
        )
    return checks, []


def cmd_verify(args, parser) -> int:
    runners = {
        "table1": _suite_table1,
        "lemma-link": _suite_lemma_link,
        "theorem-gm2": _suite_theorem_gm2,
        "splitting": _suite_splitting,
        "kneser": _suite_kneser,
        "oracle": _suite_oracle,
    }
    t0 = time.perf_counter()
    checks, extra_lines = runners[args.suite](args)
    elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
    passed = all(c["passed"] for c in checks)
    params = {
        "suite": args.suite,
        "field": args.field,
        "maxdim": args.maxdim,
        "r": args.r,
        "nmax": args.nmax,
        "mmax": args.mmax,
        "samples": args.samples,
        "seed": args.seed,
    }
    report = VerifyReport(
        command="verify",
        params=params,
        suite=args.suite,
        checks=checks,
        passed=passed,
        elapsed_ms=elapsed,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        for c in checks:
            mark = "ok" if c["passed"] else "FAIL"
            print(f"{mark}\t{c['name']}\tcomputed={c['computed']}\t"
                  f"expected={c['expected']}")
        for line in extra_lines:
            print(line)
        print(f"suite\t{args.suite}")
        print("passed\t" + ("yes" if passed else "no"))
        print(f"elapsed_ms\t{report.elapsed_ms}")
    return 0 if passed else 1


def _add_common(sub, maxdim_default: int) -> None:
    sub.add_argument("--n", type=int, default=None,
                     help="hypercube exponent (all 2^n strings)")
    sub.add_argument("--m", type=int, default=None,
                     help="number of strings 0..m-1")
    sub.add_argument("--r", type=int, default=2, help="adjacency scale")
    sub.add_argument("--field", type=int, default=2,
                     help="prime field characteristic")
    sub.add_argument("--maxdim", type=int, default=maxdim_default,
                     help="highest homology dimension to report")
    sub.add_argument("--budget", type=int, default=None,
                     help="simplex-count cap (default 2^28 or $VRQ_BUDGET)")
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuberips",
                     description="Betti numbers of Hamming-distance flag complexes")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    betti = subs.add_parser("betti", help="compute reduced Betti numbers")
    _add_common(betti, maxdim_default=4)
    betti.add_argument("--export-skeleton", default=None, metavar="PATH",
                       help="also write the enumerated skeleton as text")
    betti.set_defaults(func=cmd_betti)

    predict = subs.add_parser("predict", help="print predicted Betti numbers")
    _add_common(predict, maxdim_default=4)
    predict.set_defaults(func=cmd_predict)

    verify = subs.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    _add_common(verify, maxdim_default=3)
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--mmax", type=int, default=None)
    verify.add_argument("--rmax", type=int, default=None)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


_SUITE_NMAX = {"table1": 5, "kneser": 7}
_SUITE_MMAX = {"lemma-link": 256, "theorem-gm2": 64, "splitting": 64}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "suite", None) is not None:
            if args.nmax is None:
                args.nmax = _SUITE_NMAX.get(args.suite, 5)
            if args.mmax is None:
                args.mmax = _SUITE_MMAX.get(args.suite, 64)
        return args.func(args, parser)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 3
    except SizeBudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
