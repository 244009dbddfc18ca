"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own wrappers around calls into the
divexp modules; the package itself is not instrumented.  Each wrapper is
installed at the module attribute that its caller looks the function up by,
so a function imported by name into two modules is wrapped in both.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    op: int | None
    phase: str
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans with name, start, end, parent, thread id and op id.

    Spans live in memory until the run ends.  A wrapper created with
    ``adopts=True`` (``evolve``) becomes the parent of spans opened on threads
    that have no open span of their own, which attributes the work of its
    thread pool to it.  ``phase`` and ``op`` are set by the harness and
    stamped on every span opened while they hold.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, adopts=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``info(args, kwargs, result)`` may return a dict of counts stored on
        the span when the call returns normally.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopt
            sid = next(self._ids)
            op, phase = self.op, self.phase
            outer_adopt = self._adopt
            if adopts:
                self._adopt = sid
            stack.append(sid)
            extra = {}
            end = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                if end is None:
                    end = time.perf_counter()
                stack.pop()
                if adopts:
                    self._adopt = outer_adopt
                self.spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident(), op, phase, extra)
                )

        return traced

    def patch(self, module, attr, name, info=None, adopts=False):
        """Replace ``module.attr`` by its traced wrapper until ``restore``."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, info, adopts))

    def patch_proxy(self, module, attr, replacement):
        """Replace ``module.attr`` by ``replacement`` until ``restore``."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every traced divexp function at each attribute its callers use."""
    import scipy
    import scipy.linalg

    from divexp import cli, coeff, contraction, improved, model, propagator

    def dd_info(args, kwargs, result):
        nodes = args[0]
        rows = 1 if getattr(nodes, "ndim", 2) < 2 else int(nodes.shape[0])
        return {"rows": rows, "clustered": int(result[1].sum())}

    def expm_info(args, kwargs, result):
        return {"side": int(args[0].shape[0])}

    def order_info(args, kwargs, result):
        return {"L": int(args[1] if len(args) > 1 else kwargs["L"])}

    for mod in (model, cli):
        tracer.patch(mod, "load_model_path", "model.load_model_path")
    for mod in (model, cli, improved):
        tracer.patch(mod, "redivide", "model.redivide")
    for mod in (coeff, propagator, contraction):
        tracer.patch(mod, "dd_exp_batch", "coeff.dd_exp_batch", info=dd_info)
    tracer.patch(propagator, "evolve", "propagator.evolve", adopts=True)
    tracer.patch(
        propagator, "truncated_propagator", "propagator.truncated_propagator",
        info=order_info,
    )
    for mod in (propagator, contraction):
        tracer.patch(mod, "series_order_matrix", "propagator.series_order_matrix")
    tracer.patch(propagator, "coupling_strength", "propagator.coupling_strength")
    expm = tracer.wrap("propagator.block_expm", scipy.linalg.expm, info=expm_info)
    tracer.patch_proxy(
        propagator, "scipy", _Proxy(scipy, linalg=_Proxy(scipy.linalg, expm=expm))
    )
    for attr in (
        "pattern_piece_matrix",
        "secular_aggregate_coefficients",
        "extract_secular_coefficients",
    ):
        tracer.patch(contraction, attr, f"contraction.{attr}")
    for attr in (
        "revision_energies",
        "improved_kernel",
        "improved_solution",
        "improved_transition",
        "improved_energy",
        "revised_golden_rule",
    ):
        tracer.patch(improved, attr, f"improved.{attr}")
    tracer.patch(cli, "main", "cli.main")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [
            (max(s, sp.start), min(e, sp.end))
            for s, e in children.get(sp.id, ())
            if min(e, sp.end) > max(s, sp.start)
        ]
        out[sp.id] = sp.dur - covered(kids)
    return out
