"""Outside-in tracer for the conetheta modules.

The tracer wraps public functions of the package by rebinding each name in
every ``conetheta`` module that holds it (methods are rebound on their
class), records one span per call, and puts every original back on
``uninstall``.  Nothing here is imported by the package; an untraced run
never touches it.

A span is (id, parent id, name, start, end).  Self time is a span's
duration minus the durations of its direct child spans, which nest
strictly because the benchmark has one caller thread.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: traced callables and the fields each reports; ``theta.theta_term`` is
#: left out on purpose: it runs once per lattice point, and its cost lands in
#: the self time of the sum that calls it.
TRACED = {
    "linalg.check_symmetric": ("calls", "s"),
    "linalg.signature": ("calls", "s"),
    "intmat.int_det": ("calls", "s"),
    "intmat.unimodular_inverse": ("calls", "s"),
    "intmat.unimodular_completion": ("calls", "s"),
    "lattice.enumerate_cone": ("calls", "s", "points_kept"),
    "lattice.enumerate_wedge": ("calls", "s", "points"),
    "lattice.find_split_basis": ("calls", "s"),
    "lattice.is_split_basis": ("calls",),
    "theta.tail_bound": ("calls", "s"),
    "theta.ConeSum.evaluate": ("calls", "s", "self_s"),
    "theta.WedgeSum.value_tail": ("calls", "s", "self_s"),
    "theta.verify_cocycle": ("calls", "s"),
    "modular.omega_transform": ("calls", "s"),
    "modular.determine_zeta": ("calls", "s"),
    "modular.contour_f": ("calls", "s"),
    "modular.ModularImage.value_tail": ("calls", "self_s"),
    "heat.heat_term_residual": ("calls", "s"),
    "heat.heat_fd_residual": ("calls", "s", "self_s"),
    "koszul.s_star": ("calls", "s"),
    "koszul.koszul_d": ("calls", "s"),
    "koszul.verify_chain_map": ("calls", "s"),
    "reduced.cohomology_ranks": ("calls", "s"),
    "reduced.shift_injectivity_deficit": ("calls", "s"),
    "serialize.parse_instance": ("calls", "s"),
}

#: the length of the returned list is added to this counter
POINT_COUNTERS = {
    "lattice.enumerate_cone": "points_kept",
    "lattice.enumerate_wedge": "points",
}

#: suites of ``conetheta.cli.SUITES``, timed by the benchmark as root spans
SUITE_NAMES = (
    "cocycle",
    "heat",
    "modular-case1",
    "modular-case2",
    "modular-case3-1d",
    "wedge",
    "koszul",
    "reduced",
    "characteristics",
)

#: spans kept for the result file; the aggregates always cover every call
SPAN_CAP = 50_000

UNITS = {"calls": "count", "s": "s", "self_s": "s", "points_kept": "count", "points": "count"}


def per_layer_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs = []
    for name, fields in TRACED.items():
        specs.extend(("%s.%s" % (name, f), UNITS[f]) for f in fields)
    specs.append(("theta.points_per_eval", "count"))
    specs.append(("theta.radius_steps_per_eval", "count"))
    specs.extend(("cli.suite.%s.s" % s, "s") for s in SUITE_NAMES)
    specs.append(("trace.overhead_frac", "ratio"))
    specs.append(("failed_frac", "ratio"))
    return specs


def _resolve(name: str):
    """(owner, attribute, original) for a traced name such as
    ``theta.ConeSum.evaluate``; the owner is a module or a class."""
    parts = name.split(".")
    owner = sys.modules["conetheta." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Span recorder with per-name aggregates; keeps the first SPAN_CAP
    spans for the result file."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [id, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.child[name] = self.child.get(name, 0.0) + child
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def _wrap(self, name: str, fn):
        counter = POINT_COUNTERS.get(name)
        counter_key = "%s.%s" % (name, counter) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if counter_key is not None:
                self.counters[counter_key] = self.counters.get(counter_key, 0) + len(result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded conetheta module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "conetheta" or key.startswith("conetheta."))
        ]
        for name in TRACED:
            owner, attr, original = _resolve(name)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every traced name and suite span (zero when
        the workload never reached them)."""
        out: dict[str, float] = {}
        for name, fields in TRACED.items():
            for f in fields:
                key = "%s.%s" % (name, f)
                if f == "calls":
                    out[key] = self.calls.get(name, 0)
                elif f == "s":
                    out[key] = self.total.get(name, 0.0)
                elif f == "self_s":
                    out[key] = self.total.get(name, 0.0) - self.child.get(name, 0.0)
                else:
                    out[key] = self.counters.get(key, 0)
        evals = self.calls.get("theta.ConeSum.evaluate", 0)
        kept = self.counters.get("lattice.enumerate_cone.points_kept", 0)
        steps = self.calls.get("theta.tail_bound", 0)
        out["theta.points_per_eval"] = kept / evals if evals else 0.0
        out["theta.radius_steps_per_eval"] = steps / evals if evals else 0.0
        for s in SUITE_NAMES:
            out["cli.suite.%s.s" % s] = self.total.get("cli.suite." + s, 0.0)
        return out

    def spans_json(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["id", "parent", "name", "start", "end"],
            "names": names,
            "spans": [[i, p, index[n], round(a, 9), round(b, 9)] for i, p, n, a, b in self.spans],
            "dropped": self.spans_dropped,
        }
