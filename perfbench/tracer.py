"""Span tracing of the mpjl layers from outside the library.

Every public function of an ``mpjl`` module is wrapped at each namespace
it is bound in, because the modules import by name (``differential``
holds its own ``pinv`` and ``rank_profile``, ``measures`` its own
``jacobian_det_operator``).  A span records the op it belongs to, its
parent span, start, end and the exception type that left it.  Spans stay
in memory while the benchmark runs and are written out at the end.

Self time of a span is its duration minus the durations of its direct
children; on one thread the children do not overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

RETRY_CAUSES = {"DegenerateSpectrum": "degenerate", "RankDrift": "rank_drift"}


def _probe_jacobian_operator(counters, args, result):
    n, m = np.shape(args[0])
    counters["differential.jacobian_operator.bytes"] += 8 * (n * m) ** 2


def _probe_rank_profile(counters, args, result):
    order = max(np.shape(args[0]))
    key = "matcore.rank_profile.max_order"
    counters[key] = max(counters[key], order)


def _probe_fd_chart_jacobian(counters, args, result):
    counters["differential.fd_chart_jacobian.points"] += 2 * len(args[2])


def _probe_dumps_canonical(counters, args, result):
    counters["reports.json_bytes"] += len(result)


# Work counts taken from a call's arguments or result, by span name.
PROBES = {
    "differential.jacobian_operator": _probe_jacobian_operator,
    "matcore.rank_profile": _probe_rank_profile,
    "differential.fd_chart_jacobian": _probe_fd_chart_jacobian,
    "reports.dumps_canonical": _probe_dumps_canonical,
}


class Tracer:
    """Wraps mpjl functions while installed; records spans into memory."""

    def __init__(self):
        self.spans: list[tuple] = []      # (op, id, parent, name, t0, t1, exc)
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._wrappers: dict[int, types.FunctionType] = {}
        self._bindings = self._find_bindings()

    @staticmethod
    def _find_bindings():
        found = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "mpjl" or modname.startswith("mpjl.")):
                continue
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("mpjl.")):
                    found.append((module, attr, value))
        return found

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, t0, t1, exc))
            if probe is not None:
                probe(tracer.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, fn in self._bindings:
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrappers[id(fn)] = self._wrap(fn)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in self._bindings:
            setattr(module, attr, fn)

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        child = defaultdict(float)
        for _op, _sid, parent, _name, t0, t1, _exc in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return {sid: (t1 - t0) - child[sid] for _op, sid, _p, _n, t0, t1, _e in self.spans}

    def layer_totals(self) -> dict:
        """Per span name: calls, self and total seconds; suite attempt counts.

        Total seconds of a name count each span once even when it nests
        inside another span of the same name.
        """
        selfs = self.self_times()
        names = {sid: name for _op, sid, _p, name, _t0, _t1, _e in self.spans}
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        attempts = trials = 0
        retries = defaultdict(int)
        for _op, sid, parent, name, t0, t1, exc in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
            if names.get(parent) != name:
                total_s[name] += t1 - t0
            if name == "suites.run_trial" and exc is None:
                trials += 1
            if parent is not None and names.get(parent) == "suites.run_trial":
                if name == "matcore.make_rng":
                    attempts += 1
                elif exc in RETRY_CAUSES:
                    retries[RETRY_CAUSES[exc]] += 1
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "attempts": attempts,
                "trials": trials, "retries": retries}

    def write(self, path, op_walls: dict[int, float]) -> None:
        """Write spans and per-op wall times as JSON lines."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for op, wall in sorted(op_walls.items()):
                fh.write(json.dumps({"op": op, "wall_s": wall}) + "\n")
            for op, sid, parent, name, t0, t1, exc in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "t0": t0, "t1": t1, "self_s": selfs[sid],
                                     "exc": exc}) + "\n")
