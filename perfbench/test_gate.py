"""Self-test of the benchmark's answer gate.

    python3 -m pytest perfbench/test_gate.py

A wrong answer, an exception and a budget abort must each count as a failed
operation, so that a broken library can never report error_rate 0.
"""

import run

cr = run.load_library()

from tracing import NULL  # noqa: E402  (needs the library on sys.path first)
from workloads import Query, prefix_sweep, reference_three_sphere_count  # noqa: E402


def _error_rate(queries) -> float:
    gate = run.Gate()
    run.run_pass(queries, gate, NULL)
    return gate.error_rate


def test_correct_answers_pass():
    assert _error_rate(prefix_sweep(seed=7)[:8]) == 0


def test_one_wrong_answer_is_counted():
    m = 20
    space = cr.SpaceSpec(m=m, r=2)
    wrong = reference_three_sphere_count(m) + 1
    bad = Query("wrong", lambda tr: [("betti", cr.betti_single_dim(space, 3), wrong)])
    queries = prefix_sweep(seed=7)[:3] + [bad]
    assert _error_rate(queries) == 1 / 4


def test_exception_is_counted():
    def boom(tr):
        raise ValueError("boom")

    assert _error_rate([Query("raises", boom)]) == 1


def test_budget_abort_is_counted():
    space = cr.SpaceSpec.hypercube(5, 2)
    abort = Query("budget", lambda tr: [("counts", cr.enumerate_skeleton(space, 4, budget=10).counts, ())])
    assert _error_rate([abort]) == 1
