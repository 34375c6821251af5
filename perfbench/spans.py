"""
Outside-in layer tracing for the sweep benchmark.

`traced(recorder)` replaces the module attributes named in LAYERS with
timing wrappers and puts the originals back on exit, also when a layer
raises. Nothing inside bdris is edited: each span times one call as seen
from the module that makes it, so a layer is only visible where bdris
looks it up through a module global.

Spans are kept in memory. Each has a name, a start, an end, the index of
the span that was open when it started, and the paired-trial id current at
the time; a new trial starts at every channel draw.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from bdris import experiments, optimizer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 for a root
    trial: int            # paired-trial id, -1 outside a trial
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one traced sweep."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        sp = Span(name, time.perf_counter(), math.nan, parent, self.trial)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.duration
        return own


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as sp:
            result = fn(*args, **kwargs)
        if after is not None:
            after(sp.attrs, result)
        return result
    return wrapper


def _timed_draw(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.trial += 1
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_bcd_solve(rec: Recorder, name: str, fn):
    """Splits bcd_solve spans by scheme and keeps the solver's own record:
    outer iterations, convergence flag and the outer steps that raised the
    sum rate (every step after the first is one phase call)."""
    @functools.wraps(fn)
    def wrapper(ch, problem, *args, **kwargs):
        scheme = "cd" if problem.scheme == "CD_RIS" else "bd"
        with rec.span(f"{name}.{scheme}") as sp:
            sp.attrs["point"] = (problem.power_dbm, problem.ris_spec.num_elements)
            solution = fn(ch, problem, *args, **kwargs)
        trace = solution.trace
        sp.attrs.update(outer_iters=len(trace), converged=bool(solution.converged),
                        raised=sum(b > a for a, b in zip(trace, trace[1:])))
        return solution
    return wrapper


def _record_bytes(attrs: dict, paths) -> None:
    paths = paths if isinstance(paths, tuple) else (paths,)
    attrs["bytes"] = sum(os.path.getsize(p) for p in paths)


_timed_emit = functools.partial(_timed, after=_record_bytes)


# (layer, module the call is looked up in, attribute, wrapper factory)
LAYERS = (
    ("channel.draw_realization", experiments, "draw_realization", _timed_draw),
    ("optimizer.bcd_solve", experiments, "bcd_solve", _timed_bcd_solve),
    ("optimizer.solve_phase_subproblem", optimizer, "solve_phase_subproblem", _timed),
    ("surfaces.project_feasible", optimizer, "project_feasible", _timed),
    ("optimizer.solve_power_subproblem", optimizer, "solve_power_subproblem", _timed),
    ("channel.effective_channel", optimizer, "effective_channel", _timed),
    ("noma.achievable_rates", optimizer, "achievable_rates", _timed),
    ("experiments.emit_csv", experiments, "emit_csv", _timed_emit),
    ("experiments.emit_plot_script", experiments, "emit_plot_script", _timed_emit),
)

# span names reported per layer; bcd_solve is split by scheme
SPAN_NAMES = tuple(n for layer, *_ in LAYERS
                   for n in ((layer + ".cd", layer + ".bd")
                             if layer == "optimizer.bcd_solve" else (layer,)))


def installed_wrappers() -> list[str]:
    """Layers whose attribute is currently a timing wrapper."""
    return [f"{module.__name__}.{attr}" for _, module, attr, _ in LAYERS
            if hasattr(getattr(module, attr), "__wrapped__")]


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the LAYERS wrappers for the duration of the block."""
    if installed_wrappers():
        raise RuntimeError(f"layers already wrapped: {installed_wrappers()}")
    originals = []
    try:
        for layer, module, attr, factory in LAYERS:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, factory(rec, layer, fn))
        yield rec
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def trial_times(rec: Recorder) -> dict:
    """{trial id: (sweep point, seconds)}; a paired trial's time is its
    channel draw plus its two solves."""
    out = {}
    for sp in rec.spans:
        if sp.trial < 0 or not sp.name.startswith(("channel.draw_realization",
                                                   "optimizer.bcd_solve.")):
            continue
        point, seconds = out.get(sp.trial, (None, 0.0))
        out[sp.trial] = (sp.attrs.get("point", point), seconds + sp.duration)
    return out


def layer_totals(rec: Recorder) -> dict:
    """Per-layer figures of one traced sweep: seconds, self seconds and calls
    per span name, solver statistics per scheme, emitted bytes, and the
    share of serial trial time taken by the largest sweep point."""
    own = rec.self_times()
    out = {}
    for name in SPAN_NAMES:
        idx = [i for i, sp in enumerate(rec.spans) if sp.name == name]
        out[name + ".s"] = sum(rec.spans[i].duration for i in idx)
        out[name + ".self_s"] = sum(own[i] for i in idx)
        out[name + ".calls"] = len(idx)
    raised = 0
    for scheme in ("cd", "bd"):
        prefix = "optimizer.bcd_solve." + scheme
        solves = [sp.attrs for sp in rec.spans
                  if sp.name == prefix and "outer_iters" in sp.attrs]
        raised += sum(a["raised"] for a in solves)
        out[prefix + ".outer_iters_mean"] = (
            statistics.fmean(a["outer_iters"] for a in solves) if solves else 0.0)
        out[prefix + ".converged_frac"] = (
            sum(a["converged"] for a in solves) / len(solves) if solves else 0.0)
    phase_calls = out["optimizer.solve_phase_subproblem.calls"]
    out["optimizer.phase_useful_ratio"] = raised / phase_calls if phase_calls else 0.0
    out["experiments.emit_bytes"] = sum(sp.attrs.get("bytes", 0) for sp in rec.spans)
    per_point = {}
    for point, seconds in trial_times(rec).values():
        per_point[point] = per_point.get(point, 0.0) + seconds
    total = sum(per_point.values())
    out["experiments.point_imbalance"] = max(per_point.values()) / total if total else 0.0
    return out


def span_records(rec: Recorder, origin: float) -> list[dict]:
    """JSON-ready spans, times in seconds from `origin`."""
    return [{"id": i, "name": sp.name, "start": sp.start - origin, "end": sp.end - origin,
             "parent": sp.parent, "trial": sp.trial, "attrs": sp.attrs}
            for i, sp in enumerate(rec.spans)]
