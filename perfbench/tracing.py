"""In-memory spans and counts recorded around the benchmark's library calls.

A span has a name, a start and an end (seconds since the run started), the
id of the span that encloses it, the run id, the pass number and any counts
attached to it.  Spans stay in memory until the run ends; nothing is written
while a pass is timed.  Untraced passes use ``NULL``, whose spans record
nothing.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager


def max_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "rss_start", "rss_end", "counts")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.counts: dict[str, int] = {}

    def count(self, key: str, value: int) -> None:
        self.counts[key] = int(value)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rss_growth_mb(self) -> float:
        return self.rss_end - self.rss_start


class Tracer:
    """Spans of one traced pass; ``origin`` is the run's start on the perf_counter clock."""

    def __init__(self, run_id: str, pass_no: int, origin: float):
        self.run_id = run_id
        self.pass_no = pass_no
        self.origin = origin
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans) + len(self._open), name, parent)
        self._open.append(sp)
        sp.rss_start = max_rss_mb()
        sp.start = time.perf_counter() - self.origin
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self.origin
            sp.rss_end = max_rss_mb()
            self._open.pop()
            self.spans.append(sp)

    def records(self) -> list[dict]:
        return [
            {
                "run": self.run_id,
                "pass": self.pass_no,
                "id": sp.id,
                "name": sp.name,
                "parent": sp.parent,
                "start": sp.start,
                "end": sp.end,
                "rss_growth_mb": sp.rss_growth_mb,
                "counts": sp.counts,
            }
            for sp in sorted(self.spans, key=lambda s: s.id)
        ]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key: str, value: int) -> None:
        pass


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str):
        return self._span


NULL = _NullTracer()

# Span name -> per-layer metric holding the summed duration of those spans.
_TIMED = {
    "hamming.neighbor_masks": "hamming.neighbor_masks_s",
    "complexes.enumerate": "complexes.enumerate_s",
    "homology.single_dim": "homology.single_dim_s",
    "homology.betti_numbers": "homology.betti_numbers_s",
    "homology.betti_numbers_gf3": "homology.betti_numbers_gf3_s",
    "formulas.closed_form": "formulas.closed_form_s",
}


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, including its probes."""
    out = {metric: 0.0 for metric in _TIMED.values()}
    rss = {"complexes": 0.0, "homology": 0.0, "formulas": 0.0}
    by_id = {sp.id: sp for sp in tracer.spans}
    probe_enumerate_s = 0.0
    simplices = columns = 0
    for sp in tracer.spans:
        simplices += sp.counts.get("simplices", 0)
        columns += sp.counts.get("columns", 0)
        metric = _TIMED.get(sp.name)
        if metric is None:
            continue
        out[metric] += sp.seconds
        layer = sp.name.split(".", 1)[0]
        if layer in rss:
            rss[layer] += sp.rss_growth_mb
        parent = by_id.get(sp.parent)
        if sp.name == "complexes.enumerate" and parent is not None and parent.name == "bench.probe":
            probe_enumerate_s += sp.seconds
    out["homology.single_dim_self_s"] = out["homology.single_dim_s"] - probe_enumerate_s
    out["complexes.simplices"] = simplices
    out["complexes.simplices_per_s"] = simplices / out["complexes.enumerate_s"]
    out["homology.columns"] = columns
    for layer, grown in rss.items():
        out[f"{layer}.rss_growth_mb"] = grown
    return out


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes, except for counts, which repeat exactly, and
    RSS growth, which only the first pass shows: ru_maxrss never falls."""
    first = per_pass[0]
    return {
        key: first[key]
        if key in ("complexes.simplices", "homology.columns") or key.endswith("rss_growth_mb")
        else statistics.median(p[key] for p in per_pass)
        for key in first
    }
