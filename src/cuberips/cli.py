"""Command-line front end.

Three subcommands: ``betti`` computes reduced Betti numbers of one complex,
``predict`` prints the closed-form/conjectured values without enumerating
anything, and ``verify`` runs a named checking suite.  Reports print as TSV
or as JSON that parses back into the same report object.

Exit codes: 0 all good, 1 mathematical mismatch, 2 budget or resource
failure (memory, or rank keys past 63 bits), 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .complexes import (
    SizeBudgetExceeded,
    _resolve_budget,
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
from .homology import _check_args, betti_numbers, betti_single_dim
from .oracle import betti_numbers_dense, random_flag_skeleton


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 3, not 2.

    Long options must be spelled in full, so that an option a subcommand
    does not take is an error rather than a prefix of one it does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


class _JsonReport:
    """Sorted, indented JSON that parses back into an equal report."""

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls(**json.loads(text))


@dataclass
class Report(_JsonReport):
    """Machine-readable result of ``betti`` or ``predict``."""

    command: str
    params: dict
    betti: list | None
    counts: list | None
    prediction: dict | None
    elapsed_ms: float

    @classmethod
    def from_json(cls, text: str) -> "Report":
        report = super().from_json(text)
        if report.prediction is not None:
            # JSON object keys are strings; prediction dimensions are ints
            values = report.prediction["values"]
            report.prediction["values"] = {int(k): v for k, v in values.items()}
        return report


@dataclass
class VerifyReport(_JsonReport):
    """Machine-readable result of one ``verify`` suite."""

    command: str
    params: dict
    suite: str
    checks: list
    passed: bool
    elapsed_ms: float


def _require_n_or_m(args, parser) -> None:
    if (args.n is None) == (args.m is None):
        parser.error("exactly one of --n or --m is required")


def _space_from_args(args, parser) -> SpaceSpec:
    _require_n_or_m(args, parser)
    if args.n is not None:
        return SpaceSpec.hypercube(args.n, args.r)
    return SpaceSpec(m=args.m, r=args.r)


def _n_from_args(args, parser) -> int:
    _require_n_or_m(args, parser)
    if args.n is not None:
        return args.n
    m = args.m
    if m < 2 or m & (m - 1):
        parser.error(f"--m {m} is not a power of two; predictions need --n")
    return m.bit_length() - 1


def _elapsed_ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


def _emit(report: _JsonReport, fmt: str, tsv_lines: list[str]) -> None:
    if fmt == "json":
        print(report.to_json())
    else:
        print("\n".join([*tsv_lines, f"elapsed_ms\t{report.elapsed_ms}"]))


def cmd_betti(args, parser) -> int:
    space = _space_from_args(args, parser)
    _check_args(args.field, args.maxdim)  # before enumerating, which may take long
    t0 = time.perf_counter()
    skel = enumerate_skeleton(space, args.maxdim + 1, budget=args.budget)
    bv = betti_numbers(skel, p=args.field, maxdim=args.maxdim)
    if args.export_skeleton:
        write_skeleton_text(skel, args.export_skeleton)
    report = Report(
        command="betti",
        params={
            "m": space.m,
            "n": space.n,
            "r": space.r,
            "field": args.field,
            "maxdim": args.maxdim,
            "budget": args.budget,
        },
        betti=[
            {"dim": i, "value": bv.reduced_betti[i], "trusted": bv.is_trusted(i)}
            for i in range(args.maxdim + 1)
        ],
        counts=list(skel.counts),
        prediction=None,
        elapsed_ms=_elapsed_ms(t0),
    )
    _emit(report, args.format, [
        "dim\tbetti\ttrusted",
        *(f"{row['dim']}\t{row['value']}\t"
          + ("yes" if row["trusted"] else "provisional") for row in report.betti),
        "counts\t" + "\t".join(str(c) for c in report.counts),
    ])
    return 0


def cmd_predict(args, parser) -> int:
    n = _n_from_args(args, parser)
    t0 = time.perf_counter()
    record = predicted_betti(n, args.r)
    values = dict(record.predicted_reduced_betti)
    report = Report(
        command="predict",
        params={"n": n, "r": args.r},
        betti=None,
        counts=None,
        prediction={"status": record.status, "values": values},
        elapsed_ms=_elapsed_ms(t0),
    )
    _emit(report, args.format, [
        f"status\t{record.status}",
        f"description\t{record.homotopy_description}",
        "dim\tbetti",
        *(f"{dim}\t{values[dim]}" for dim in sorted(values)),
    ])
    return 0


def _check(name: str, passed: bool, computed, expected) -> dict:
    return {"name": name, "passed": bool(passed),
            "computed": str(computed), "expected": str(expected)}


def _suite_table1(args) -> tuple[list[dict], list[str]]:
    rmax = args.rmax if args.rmax is not None else args.nmax
    report = survey_grid(
        args.nmax, rmax, p=args.field, maxdim=args.maxdim, budget=args.budget
    )
    checks = []
    for cell in report.cells:
        expected = cell.prediction.predicted_reduced_betti or "(all zero)"
        if cell.prediction.status in ("unknown",):
            expected = "(open)"
        computed = cell.betti.reduced_betti if cell.betti else "skipped"
        name = f"n={cell.n} r={cell.r} [{cell.prediction.status}]"
        checks.append(_check(name, cell.status != "mismatch", computed, expected))
    # grid in Table-1 orientation: one row per scale r, one column per n
    grid = ["grid\t" + "\t".join(f"n={n}" for n in range(1, report.n_max + 1))]
    by_pos = {(c.n, c.r): c.status for c in report.cells}
    for r in range(report.r_max + 1):
        row = [by_pos[(n, r)] for n in range(1, report.n_max + 1)]
        grid.append(f"r={r}\t" + "\t".join(row))
    return checks, grid


def _wedge_suite(check, label: str, values, args) -> tuple[list[dict], list[str]]:
    """One check per value: a wedge of 2-spheres, Betti (0, 0, expected, 0)."""
    reports = [(v, check(v, p=args.field, budget=args.budget)) for v in values]
    return [_check(f"{label}={v}", rep.passed, rep.betti.reduced_betti,
                   (0, 0, rep.expected, 0)) for v, rep in reports], []


def _suite_theorem_gm2(args) -> tuple[list[dict], list[str]]:
    checks = []
    for m in range(1, args.mmax + 1):
        space = SpaceSpec(m=m, r=2)
        computed = betti_single_dim(space, 3, p=args.field, budget=args.budget)
        expected = three_sphere_count(m)
        checks.append(_check(f"m={m}", computed == expected, computed, expected))
    return checks, []


def _suite_splitting(args) -> tuple[list[dict], list[str]]:
    checks = []
    for m in range(2, args.mmax + 1):
        rep = splitting_check(
            m, args.r, p=args.field, maxdim=args.maxdim, budget=args.budget
        )
        decided = sorted(rep.expected)
        whole = tuple(rep.betti_whole.reduced_betti[i] for i in decided)
        rhs = tuple(rep.expected[i] for i in decided)
        checks.append(_check(f"m={m} dims={decided}", rep.all_hold, whole, rhs))
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
        name = f"sample={i} vertices={skel.num_vertices}"
        checks.append(_check(name, same, sparse.reduced_betti, dense.reduced_betti))
    return checks, []


class _Suite(NamedTuple):
    run: Callable[[argparse.Namespace], tuple[list[dict], list[str]]]
    options: dict  # name -> default of each flag the suite reads, but --format


# The wedge checks are looked up by name when a suite runs, so a test can
# substitute a failing one.
SUITES = {
    "table1": _Suite(
        _suite_table1,
        {"field": 2, "maxdim": 3, "budget": None, "nmax": 5, "rmax": None},
    ),
    "lemma-link": _Suite(
        lambda a: _wedge_suite(link_homotopy_check, "m", range(1, a.mmax + 1), a),
        {"field": 2, "budget": None, "mmax": 256},
    ),
    "theorem-gm2": _Suite(
        _suite_theorem_gm2, {"field": 2, "budget": None, "mmax": 64}
    ),
    "splitting": _Suite(
        _suite_splitting,
        {"r": 2, "field": 2, "maxdim": 3, "budget": None, "mmax": 64},
    ),
    "kneser": _Suite(
        lambda a: _wedge_suite(kneser_check, "n", range(4, a.nmax + 1), a),
        {"field": 2, "budget": None, "nmax": 7},
    ),
    "oracle": _Suite(_suite_oracle, {"field": 2, "samples": 100, "seed": 0}),
}


def cmd_verify(args, parser) -> int:
    suite = SUITES[args.suite]
    t0 = time.perf_counter()
    checks, extra_lines = suite.run(args)
    if not checks:
        raise ValueError(f"suite {args.suite} has no checks to run")
    passed = all(c["passed"] for c in checks)
    report = VerifyReport(
        command="verify",
        params={"suite": args.suite,
                **{name: getattr(args, name) for name in suite.options}},
        suite=args.suite,
        checks=checks,
        passed=passed,
        elapsed_ms=_elapsed_ms(t0),
    )
    _emit(report, args.format, [
        *(f"{'ok' if c['passed'] else 'FAIL'}\t{c['name']}\t"
          f"computed={c['computed']}\texpected={c['expected']}" for c in checks),
        *extra_lines,
        f"suite\t{args.suite}",
        "passed\t" + ("yes" if passed else "no"),
    ])
    return 0 if passed else 1


_HELP = {
    "r": "adjacency scale",
    "n": "hypercube exponent (all 2^n strings)",
    "m": "number of strings 0..m-1",
    "field": "prime field characteristic",
    "maxdim": "highest homology dimension to report",
    "budget": "simplex-count cap (default 2^28 or $VRQ_BUDGET)",
}


def _add_options(sub, func, options: dict) -> None:
    """--format plus one integer flag per entry of options (name: default)."""
    sub.set_defaults(func=func)
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")
    for name, default in options.items():
        sub.add_argument(f"--{name}", type=int, default=default, help=_HELP.get(name))


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuberips",
                     description="Betti numbers of Hamming-distance flag complexes")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    betti = subs.add_parser("betti", help="compute reduced Betti numbers")
    _add_options(betti, cmd_betti, {"n": None, "m": None, "r": 2, "field": 2,
                                    "maxdim": 4, "budget": None})
    betti.add_argument("--export-skeleton", default=None, metavar="PATH",
                       help="also write the enumerated skeleton as text")
    predict = subs.add_parser("predict", help="print predicted Betti numbers")
    _add_options(predict, cmd_predict, {"n": None, "m": None, "r": 2})
    verify = subs.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True,
                                   parser_class=_Parser)
    for name, suite in SUITES.items():
        _add_options(suites.add_parser(name), cmd_verify, suite.options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "budget"):  # --budget beats $VRQ_BUDGET beats 2^28
            env = os.environ.get("VRQ_BUDGET")
            args.budget = _resolve_budget(env if args.budget is None else args.budget)
        return args.func(args, parser)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 3
    except SizeBudgetExceeded as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        if err.partial_counts:
            counts = "\t".join(str(c) for c in err.partial_counts)
            print(f"partial counts\t{counts}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as err:
        print(f"resource exhausted: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
