"""Span tracing of wavereg from outside the package.

A :class:`Tracer` replaces selected public functions of ``wavereg`` by
wrappers that record one span per call: name, start, end, the enclosing
span and the operation id the benchmark set. Nothing inside ``src/`` is
changed; a function is patched in every ``wavereg`` module that holds a
reference to it, so names rebound by ``from ... import`` (for instance
``plant.find_radial_roots`` or ``cli.assemble_wave_plant``) are traced as
well. ``ModalWavePlant.energy`` is patched on its class. The two scalar
Bessel kernels are only counted, since they run tens of thousands of times
per plant build. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import sys
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _dense_work(tracer, name, args, kwargs, result):
    # rows * cols * min(rows, cols): n^3 for the square operand of a dense kernel
    shape = getattr(_first_arg(args, kwargs), "shape", ())
    if len(shape) == 2:
        tracer.add(name, "n3_sum", shape[0] * shape[1] * min(shape))


def _roots(tracer, name, args, kwargs, result):
    tracer.add(name, "roots", len(result))


def _trajectory(tracer, name, args, kwargs, result):
    arrays = (result.t, result.states, result.errors, result.energies)
    tracer.add(name, "steps", result.t.size - 1)
    tracer.peak(name, "state_mb", sum(a.nbytes for a in arrays) / 1e6)


def _file_bytes(tracer, name, args, kwargs, result):
    tracer.add(name, "bytes", os.path.getsize(_first_arg(args, kwargs)))


# (module, attribute, work hook). A dotted attribute names a method on a class.
TRACED = (
    ("bessel", "find_radial_roots", _roots),
    ("plant", "assemble_wave_plant", None),
    ("plant", "project_profile", None),
    ("plant", "ModalWavePlant.energy", None),
    ("exosystem", "build_sect5_exosystem", None),
    ("exosystem", "build_exosystem", None),
    ("synthesis", "synth_regulating", None),
    ("synthesis", "synth_approx_robust", None),
    ("synthesis", "synth_robust", None),
    ("synthesis", "eval_transfer", None),
    ("synthesis", "check_g_conditions", None),
    ("synthesis", "solve_regulator", None),
    ("synthesis", "error_bound_delta", None),
    ("linalg", "eig", _dense_work),
    ("linalg", "expm", _dense_work),
    ("linalg", "is_normal", _dense_work),
    ("linalg", "solve_dense", _dense_work),
    ("linalg", "svd", _dense_work),
    ("linalg", "sylvester_diag", _dense_work),
    ("loop", "assemble_direct", None),
    ("loop", "simulate_exact", _trajectory),
    ("loop", "windowed_error", None),
    ("serialize", "save_csv", _file_bytes),
    ("serialize", "save_matrix", None),
    ("serialize", "load_matrix", None),
    ("cli", "cmd_simulate", None),
)

COUNTED = (
    ("bessel", "cross_fn"),
    ("bessel", "bessel_jy"),
)


def _short_name(attr):
    return attr.rsplit(".", 1)[-1]


class Tracer:
    """Records spans and counts for the wrapped functions of one process."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.work = defaultdict(float)
        self.op = "setup"
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def add(self, name, stat, value):
        self.work[f"{name}.{stat}"] += value

    def peak(self, name, stat, value):
        key = f"{name}.{stat}"
        self.work[key] = max(self.work[key], value)

    @contextlib.contextmanager
    def span(self, name, op):
        """Root span of one benchmark operation; nested calls inherit ``op``."""
        self.op = op
        sid = self._enter()
        start = self.clock()
        try:
            yield
        finally:
            self._exit(sid, name, start)

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _exit(self, sid, name, start):
        end = self.clock()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, self.op, name, start, end))

    def _traced(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, name, start)
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package="wavereg"):
        """Patch every traced function wherever ``package`` looks it up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module, attr, hook in TRACED:
            name = f"{module}.{_short_name(attr)}"
            self._patch(package, module, attr, lambda fn, n=name, h=hook: self._traced(n, fn, h))
        for module, attr in COUNTED:
            name = f"{module}.{attr}"
            self._patch(package, module, attr, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, package, module, attr, make_wrapper):
        mod = importlib.import_module(f"{package}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._set(owner, meth, original, make_wrapper(original))
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        prefix = f"{package}."
        for mod_name, holder in list(sys.modules.items()):
            if holder is None or not (mod_name == package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, package="wavereg"):
        self.install(package)
        try:
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write all spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def function_table(tracer):
    """Per traced name: calls, busy_s, self_s, first_s and warm_mean_s.

    ``first_s`` is the first call (cold); ``warm_mean_s`` averages the later
    calls. Root operation spans are included under their own names.
    """
    selfs = self_times(tracer.spans)
    table = {}
    for s in sorted(tracer.spans, key=lambda s: s.start):
        row = table.setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "first_s": s.end - s.start}
        )
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += selfs[s.sid]
    for row in table.values():
        later = row["calls"] - 1
        row["warm_mean_s"] = (row["busy_s"] - row["first_s"]) / later if later else 0.0
    return table


def layer_metrics(tracer, root_name="op"):
    """Flat ``<module>.<function>.<stat>`` metrics of a traced run.

    Every traced and counted function appears, with zeros when the run never
    called it. ``trace.unattributed_pct`` is the self time of the root
    operation spans as a percentage of their duration.
    """
    table = function_table(tracer)
    metrics = {}
    for module, attr, _ in TRACED:
        name = f"{module}.{_short_name(attr)}"
        row = table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "first_s": 0.0})
        for stat in ("calls", "busy_s", "self_s", "first_s"):
            metrics[f"{name}.{stat}"] = row[stat]
    for module, attr in COUNTED:
        metrics[f"{module}.{attr}.calls"] = tracer.counts.get(f"{module}.{attr}", 0)
    for key in (
        "bessel.find_radial_roots.roots",
        "loop.simulate_exact.steps",
        "loop.simulate_exact.state_mb",
        "serialize.save_csv.bytes",
    ):
        metrics[key] = tracer.work.get(key, 0.0)
    for module, attr, hook in TRACED:
        if hook is _dense_work:
            key = f"{module}.{attr}.n3_sum"
            metrics[key] = tracer.work.get(key, 0.0)
    roots = metrics["bessel.find_radial_roots.roots"]
    metrics["bessel.evals_per_root"] = metrics["bessel.cross_fn.calls"] / roots if roots else 0.0
    root = table.get(root_name)
    metrics["trace.unattributed_pct"] = (
        100.0 * root["self_s"] / root["busy_s"] if root and root["busy_s"] > 0 else 0.0
    )
    return metrics
