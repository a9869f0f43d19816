"""Spans and counts at the program's module boundaries, recorded from outside.

:class:`Tracer` replaces the names that one ``geosynth`` module looks up
in another (``estimators.solve_simplex_qp``, ``simplex_opt.project_simplex``,
``estimators._sphere_mean_stack``, ...) with wrappers that record a span
(name, start, end, parent) or bump a counter, and puts the originals back
on exit. Python resolves a module-level name at call time, so the wrapper
sees every call made through that name. Nothing inside ``src/`` changes.

Spans and counts are kept in memory; :meth:`Tracer.save` writes the spans
out once the run ends. A span's self time is its duration minus the
durations of its direct children.

:class:`Stopwatch` is the light version used in timed runs: it only sums
the wall time of a few entry points that the command line calls, so that
a run through ``run_cli`` can still report its estimate and placebo time.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

from geosynth import cli_io, estimators, simgen, simplex_opt, spaces

# Span name -> the (module, attribute) lookups that lead to it.
SPANS = {
    "simplex_opt.qp": [(estimators, "solve_simplex_qp"), (simplex_opt, "solve_simplex_qp")],
    "simplex_opt.gauss_newton": [(estimators, "solve_simplex_gauss_newton")],
    "simplex_opt.nelder_mead": [(estimators, "solve_simplex_derivative_free")],
    "spaces.sphere_mean": [(estimators, "_sphere_mean_stack"), (spaces, "_sphere_mean_single")],
    "spaces.sphere_jacobian": [(estimators, "_sphere_mean_jacobian")],
    "spaces.validate": [
        (spaces, "validate_point"), (estimators, "validate_point"), (cli_io, "validate_point"),
    ],
    "spaces.embed": [(estimators, "metric_embed"), (spaces, "metric_embed")],
    "spaces.restore": [(estimators, "metric_restore"), (spaces, "metric_restore")],
    "spaces.frechet_mean": [
        (estimators, "weighted_frechet_mean"), (simgen, "weighted_frechet_mean"),
        (cli_io, "weighted_frechet_mean"),
    ],
    "spaces.transport": [(estimators, "transport")],
    "spaces.distance": [(estimators, "distance"), (spaces, "distance"), (cli_io, "distance")],
    "estimators.gsc": [(estimators, "estimate_gsc"), (cli_io, "estimate_gsc")],
    "estimators.gsdid": [(estimators, "estimate_gsdid"), (cli_io, "estimate_gsdid")],
    "estimators.gsdid_per_time": [
        (estimators, "estimate_gsdid_per_time"), (cli_io, "estimate_gsdid_per_time"),
    ],
    "estimators.placebo": [(estimators, "placebo_test"), (cli_io, "placebo_test")],
    "cli_io.load": [(cli_io, "load_panel")],
    "cli_io.save": [(cli_io, "save_result"), (cli_io, "save_panel")],
}

# Counter name -> the lookups whose calls it counts (no span: too many calls).
COUNTED = {
    "simplex_opt.qp.apg_steps": [(simplex_opt, "project_simplex")],
    "simplex_opt.qp.kkt_evals": [(simplex_opt, "kkt_residual")],
}

# Spans whose first argument is a callback whose calls are counted.
CALLBACK_COUNTERS = {
    "simplex_opt.gauss_newton": "simplex_opt.gauss_newton.linearizations",
    "simplex_opt.nelder_mead": "simplex_opt.nelder_mead.objective_evals",
}

ROOT_SPAN = "bench.call"
REFIT_SPANS = ("estimators.gsc", "estimators.gsdid")
PANEL_SPAN = "estimators.panel"


@contextmanager
def _patched(replacements):
    """Set ``(owner, attr, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans and counts of the program's layers.

    Only work inside a root span (``bench.call``, one timed call of an
    analysis) is recorded, so input generation and checks do not count.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start ns, end ns, parent
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index]

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if self._stack:
            self.counts[name] = self.counts.get(name, 0) + n

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        """Record a span; outside a root span (the benchmark's own set-up) do nothing."""
        if not self._stack and name != ROOT_SPAN:
            yield
            return
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((self._ids[name], 0, 0, parent))
        frame = [name, time.perf_counter_ns(), 0, index]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - frame[1]
            self.spans[index] = (self._ids[name], frame[1], end, parent)
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][2] += duration

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        tracer = self
        callback_counter = CALLBACK_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in REFIT_SPANS and tracer.parent_name() == "estimators.placebo":
                tracer.count("estimators.placebo.refits")
            if callback_counter is not None:
                inner = args[0]

                def counted(*a, **k):
                    tracer.count(callback_counter)
                    return inner(*a, **k)

                args = (counted,) + args[1:]
            steps_before = tracer.counts.get("simplex_opt.qp.apg_steps", 0)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "simplex_opt.qp":
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                budget = (cfg or simplex_opt.SolverConfig()).max_iter
                used = tracer.counts.get("simplex_opt.qp.apg_steps", 0) - steps_before
                tracer.count("simplex_opt.qp.budget_exhausted", int(used >= budget))
            elif name == "cli_io.load":
                tracer.count("cli_io.bytes_read", os.path.getsize(args[0]))
            elif name == "cli_io.save":
                tracer.count("cli_io.bytes_written", os.path.getsize(args[1]))
            return result

        return wrapper

    def _wrap_count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced lookup for the duration of the block."""
        cache: dict[int, object] = {}
        replacements = []
        for table, make in ((SPANS, self._wrap_span), (COUNTED, self._wrap_count)):
            for name, lookups in table.items():
                for owner, attr in lookups:
                    fn = getattr(owner, attr)
                    if id(fn) not in cache:
                        cache[id(fn)] = make(name, fn)
                    replacements.append((owner, attr, cache[id(fn)]))
        panel_cls = estimators.Panel
        replacements.append(
            (panel_cls, "__post_init__", self._wrap_span(PANEL_SPAN, panel_cls.__post_init__))
        )
        with _patched(replacements):
            yield self

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the spans as parallel arrays with a name table (``.npz``)."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=arr[:, 0], start_ns=arr[:, 1],
            end_ns=arr[:, 2], parent=arr[:, 3],
        )


class Stopwatch:
    """Summed wall time of the estimators that ``cli_io`` calls."""

    LOOKUPS = {
        "estimate": ["estimate_gsc", "estimate_gsdid", "estimate_gsdid_per_time"],
        "placebo": ["placebo_test"],
    }

    def __init__(self) -> None:
        self.seconds = {key: 0.0 for key in self.LOOKUPS}

    def _wrap(self, key: str, fn):
        watch = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                watch.seconds[key] += time.perf_counter() - start

        return wrapper

    @contextmanager
    def installed(self):
        replacements = [
            (cli_io, attr, self._wrap(key, getattr(cli_io, attr)))
            for key, attrs in self.LOOKUPS.items()
            for attr in attrs
        ]
        with _patched(replacements):
            yield self
