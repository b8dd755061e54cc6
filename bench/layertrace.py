"""Layer trace of `mlve compare`, timed from outside the program.

The tracer replaces the public functions of each layer at the module
bindings the callers look them up through, and restores them on
``uninstall``.  Every wrapped call pushes a frame on one stack, so a
layer's self time is its duration minus the durations of the wrapped
calls it made.  Coarse calls (``cmd_compare``, ``logz_oracle``,
``jungle_term``, ``fermionic_integral``, ``block_integral``) are also
kept as spans in memory, each with its parent span and the index of the
``compare`` call that caused it; hot leaf calls (``dw_grid``,
``fermionic_factor``, ``grassmann_minor``, ``min_over_paths``, the
structural filter and each step of ``enumerate_jungles``) are only
aggregated, because order 4 makes hundreds of thousands of them.

A ``block_integral`` call counts as a miss when a ``dw_grid`` call ran
beneath it, which gives the block-cache hit ratio without reading the
cache.  A ``jungle_term`` call counts as evaluated when it reached
``fermionic_integral`` (it passed the structural filter), and as useful
when it returned a nonzero value.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

ROOT_LAYER = "cli.cmd_compare"


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    misses: int = 0
    points: int = 0
    evaluated: int = 0
    nonzero: int = 0
    yielded: int = 0


class _Frame:
    __slots__ = ("child_s", "kernel", "ferm", "span")

    def __init__(self, span):
        self.child_s = 0.0
        self.kernel = False
        self.ferm = False
        self.span = span


class Tracer:
    """Aggregated layer statistics plus the coarse spans of a traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[dict] = []
        self.request = 0
        self.unbound: list[str] = []
        self._stack: list[_Frame] = []
        self._saved: list[tuple] = []

    def _stat(self, name: str) -> LayerStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStats()
        return stat

    # -- frames ----------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> _Frame:
        span = None
        if keep_span:
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
            span = {"id": len(self.spans), "parent": parent and parent["id"], "request": self.request, "name": name}
            self.spans.append(span)
        frame = _Frame(span)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame, name: str, duration: float) -> LayerStats:
        self._stack.pop()
        stat = self._stat(name)
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.kernel |= frame.kernel
            parent.ferm |= frame.ferm
        if frame.span is not None:
            frame.span["duration_s"] = duration
            frame.span["self_s"] = duration - frame.child_s
        return stat

    def timed(self, name: str, fn, keep_span: bool = False, name_of=None, after=None):
        """Wrap ``fn`` so each call is timed under ``name`` (or ``name_of(args)``)."""

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            frame = self._enter(label, keep_span)
            start = self.clock()
            if frame.span is not None:
                frame.span["start_s"] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                stat = self._leave(frame, label, duration)
            if after is not None:
                after(stat, frame, args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function: each step is one timed call under ``name``."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter(name, False)
                start = self.clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stat = self._leave(frame, name, self.clock() - start)
                stat.yielded += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by ``make(original)``."""
        owner = importlib.import_module(module)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, last, None) if owner is not None else None
        if original is None:
            self.unbound.append(f"{module}.{attr}")
            return
        self._saved.append((owner, last, original))
        setattr(owner, last, make(original))

    def install(self) -> None:
        """Wrap every layer of the compare path at its module bindings."""

        def mark_kernel(stat, frame, args, result):
            stat.points += getattr(args[3], "size", 1)
            if self._stack:
                self._stack[-1].kernel = True

        def mark_ferm(stat, frame, args, result):
            if self._stack:
                self._stack[-1].ferm = True

        def block_done(stat, frame, args, result):
            stat.misses += frame.kernel

        def term_done(stat, frame, args, result):
            stat.evaluated += frame.ferm
            stat.nonzero += result != 0

        def leaf(name, **kw):
            return lambda fn: self.timed(name, fn, **kw)

        def coarse(name, **kw):
            return lambda fn: self.timed(name, fn, keep_span=True, **kw)

        self._patch("mlve.cli", "cmd_compare", coarse(ROOT_LAYER))
        self._patch("mlve.oracle", "logz_oracle", coarse("oracle.logz_oracle"))
        self._patch(
            "mlve.engine",
            "TermEvaluator.jungle_term",
            coarse("engine.jungle_term", after=term_done),
        )
        self._patch(
            "mlve.engine",
            "TermEvaluator.fermionic_integral",
            coarse(
                "engine.fermionic_integral",
                name_of=lambda a: f"engine.fermionic_integral.k{len(a[1].fermionic)}",
                after=mark_ferm,
            ),
        )
        self._patch(
            "mlve.engine",
            "TermEvaluator.block_integral",
            coarse(
                "engine.block_integral",
                name_of=lambda a: f"engine.block_integral.b{len(a[1])}",
                after=block_done,
            ),
        )
        self._patch("mlve.engine", "dw_grid", leaf("model_core.dw_grid", after=mark_kernel))
        self._patch("mlve.engine", "enumerate_jungles", lambda fn: self.timed_generator("combinatorics.enumerate_jungles", fn))
        for module in ("mlve.engine", "mlve.grassmann"):
            for attr in ("hardcore_violated", "slice_delta_violated"):
                self._patch(module, attr, leaf("grassmann.filter"))
            self._patch(module, "min_over_paths", leaf("interpolation.min_over_paths"))
        self._patch("mlve.engine", "fermionic_factor", leaf("grassmann.fermionic_factor"))
        self._patch("mlve.grassmann", "grassmann_minor", leaf("grassmann.grassmann_minor"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
