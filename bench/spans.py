"""Span tracer installed from outside the package.

Wrappers replace public functions at the module attribute each caller
reads, so a function imported by value (``from .search import search``) is
wrapped where it was imported, not where it was defined.  Every span records
its wall time; a span's self time is its duration minus the time its child
spans cover.  Statistics are kept in memory per (root span, span) pair, so
spans under a CLI call can be told apart from spans under a library probe.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


def _grid_evaluate(tracer, result):
    tracer.counts["grid_evals"] += int(result[3])
    tracer.last_grid_best = float(result[0])


def _ascend(tracer, result):
    tracer.counts["refine_evals"] += int(result[2])


def _polish(tracer, result):
    tracer.counts["refine_evals"] += int(result[2])
    tracer.counts["polish_seeds"] += 1
    if tracer.last_grid_best is not None and result[0] > tracer.last_grid_best:
        tracer.counts["polish_useful"] += 1


def _boundary_grid(tracer, result):
    tracer.counts["boundary_points"] += len(result.points)


def _render(tracer, result):
    tracer.counts["svg_bytes"] += len(result.encode("utf-8"))


def _verify(tracer, result):
    tracer.counts["verify_trials"] += int(result.trials)


_CLOSED_FORMS = ("contraction_thm31", "contraction_thm32", "contraction_thm33",
                 "averagedness_thm41", "prior_d61", "prior_d62", "prior_d63",
                 "prior_d64", "prior_d65", "prior_d66")

# (module, attribute path, span label, result hook).  The label's first
# component names the layer that owns the span's self time.
TARGETS = (
    ("dysrates.cli", "load_spec", "cli.load_spec", None),
    ("dysrates.cli", "search", "search.search", None),
    ("dysrates.cli", "zeta", "symbol.zeta_cloud", None),
    ("dysrates.cli", "bounds_for", "svgplot.bounds_for", None),
    ("dysrates.cli", "verify_contraction", "verify.verify_contraction",
     _verify),
    ("dysrates.cli", "verify_averagedness", "verify.verify_averagedness",
     _verify),
    ("dysrates.verify", "search_regions", "verify.extremal_search", None),
    ("dysrates.verify", "class_membership", "verify.class_membership", None),
    ("dysrates.verify", "dys_matrix", "verify.dys_matrix", None),
    ("dysrates.verify", "resolvent_srg", "classes.resolvent_srg", None),
    ("dysrates.search", "grid_evaluate", "search.grid_evaluate",
     _grid_evaluate),
    ("dysrates.search", "ascend", "search.ascend", _ascend),
    ("dysrates.search", "coordinate_polish", "search.coordinate_polish",
     _polish),
    ("dysrates.search", "boundary_grid", "geometry.boundary_grid",
     _boundary_grid),
    ("dysrates.search", "resolvent_srg", "classes.resolvent_srg", None),
    # cli._cloud imports these inside the function, from the defining module
    ("dysrates.geometry", "boundary_grid", "geometry.boundary_grid",
     _boundary_grid),
    ("dysrates.classes", "resolvent_srg", "classes.resolvent_srg", None),
    ("dysrates.classes", "enlarge_C", "classes.enlarge_C", None),
    ("dysrates.classes", "dys_preflight", "classes.dys_preflight", None),
    ("dysrates.rates", "dominance_check", "rates.dominance_check", None),
    *(("dysrates.rates", name, "rates.closed_form", None)
      for name in _CLOSED_FORMS),
    ("dysrates.svgplot", "SvgFigure.add_points", "svgplot.add_points", None),
    ("dysrates.svgplot", "SvgFigure.render", "svgplot.render", _render),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if any part
    no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects span statistics while installed; uninstall restores every
    wrapped attribute."""

    def __init__(self):
        self.absent = []
        self._installed = []
        self._stack = []  # [label, root, start, child_seconds]
        self.reset()

    def reset(self) -> None:
        self.stats = {}  # (root, label) -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.last_grid_best = None

    def install(self) -> None:
        self.absent = []
        for module_name, path, label, hook in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, label, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def enter(self, label: str) -> None:
        root = self._stack[0][0] if self._stack else label
        self._stack.append([label, root, time.perf_counter(), 0.0])

    def exit(self) -> None:
        label, root, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][3] += duration
        entry = self.stats.setdefault((root, label), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def _wrapper(self, original, label, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, result)
            return result
        return wrapper
