"""Layer spans: recorded in a traced CLI child, reduced in run.py.

The recorder wraps the calls that ``rmsde.cli``, ``rmsde.experiments``
and ``rmsde.generator`` make into the other package modules' public
functions, plus a few named boundaries (the per-chunk work unit,
``SystemTemplate.build``, ``numpy.linalg.eigh``).  Each call becomes one span
(id, name, start, end, parent, thread) kept in memory and written as
JSON when the child exits.  Nothing under ``src/`` changes: wrapping
replaces module attributes in the child process only.

Span names are ``<layer>.<function>``; a layer's self time is the
duration of its spans minus the part of each span its child spans
cover.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict


class Recorder:
    """Collects spans and counts for one traced child process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        """``fn`` timed as span ``name``; ``size(result)`` is kept as items."""
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs off the main thread's
            # open span, which is the experiment that submitted the work
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident()}
            if size is not None:
                span["items"] = size(result)
            self.spans.append(span)
            return result
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the layer boundaries of the imported ``rmsde`` package."""
        import numpy as np
        from rmsde import cli, experiments, generator, rng

        for caller in (cli, experiments, generator):
            for attr, obj in list(vars(caller).items()):
                home = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and home.startswith("rmsde.")
                        and home != caller.__name__):
                    layer = home.rsplit(".", 1)[1]
                    setattr(caller, attr, self.wrap(f"{layer}.{obj.__name__}", obj))
        cli.run = self.wrap("cli.run", cli.run)
        generator.apply_generator = self.wrap(
            "generator.apply_generator", generator.apply_generator, size=len)
        experiments._paired_chunk = self.wrap("experiments.chunk",
                                              experiments._paired_chunk)
        experiments.SystemTemplate.build = self.wrap(
            "dynamics.system_params", experiments.SystemTemplate.build)
        experiments.Trajectory = self.wrap("dynamics.trajectory", experiments.Trajectory)
        np.linalg.eigh = self.wrap("numpy.eigh", np.linalg.eigh)
        rng.RngStream.generator = self.count("rng.streams", rng.RngStream.generator)

    def record(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# reduction (in run.py)


def _covered(intervals: list) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_totals(spans: list) -> dict:
    """name -> [calls, seconds, self seconds, items]."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _covered([(max(c["start"], lo), min(c["end"], hi))
                            for c in children[s["id"]] if c["end"] > lo and c["start"] < hi])
        t = totals[s["name"]]
        t[0] += 1
        t[1] += hi - lo
        t[2] += hi - lo - covered
        t[3] += s.get("items", 0)
    return dict(totals)


def layer_self(totals: dict) -> dict:
    """layer -> self seconds, summed over that layer's spans."""
    out: dict = defaultdict(float)
    for name, (_, _, self_s, _) in totals.items():
        out[name.split(".", 1)[0]] += self_s
    return dict(out)


def child_metrics(record: dict, threads: int, flops: int, nbytes: int) -> dict:
    """Per-layer metrics of one traced child (units in PER_LAYER)."""
    totals = span_totals(record["spans"])
    empty = (0, 0.0, 0.0, 0)

    def calls(name):
        return totals.get(name, empty)[0]

    def secs(name):
        return totals.get(name, empty)[1]

    def prefixed(prefix, col):
        return sum(t[col] for n, t in totals.items() if n.startswith(prefix))

    runs = [n for n in totals if n.startswith("experiments.run_")]
    run_s = sum(totals[n][1] for n in runs)
    exp_self = sum(totals[n][2] for n in runs) + totals.get("experiments.chunk", empty)[2]
    chunk_s = secs("experiments.chunk")
    return {
        "config.resolve_s": prefixed("config.", 1),
        "rng.streams": record["counts"].get("rng.streams", 0),
        "ensembles.sample_matrix.calls": calls("ensembles.sample_matrix"),
        "ensembles.sample_matrix_s": secs("ensembles.sample_matrix"),
        "ensembles.sample_initial_s": secs("ensembles.sample_initial"),
        "ensembles.sample_entries.calls": calls("ensembles.sample_entries"),
        "ensembles.sample_entries_s": secs("ensembles.sample_entries"),
        "dynamics.system_params.calls": calls("dynamics.system_params"),
        "dynamics.system_params_s": secs("dynamics.system_params"),
        "dynamics.trajectory.calls": calls("dynamics.trajectory"),
        "observables.suite.calls": prefixed("observables.", 0),
        "observables.suite_s": prefixed("observables.", 1),
        "experiments.self_s": exp_self,
        "experiments.euler_flops": flops,
        "experiments.euler_bytes": nbytes,
        "experiments.euler_gflop_per_s": flops / exp_self / 1e9 if exp_self > 0 else 0.0,
        "experiments.chunks": calls("experiments.chunk"),
        "experiments.busy_share": chunk_s / (threads * run_s) if run_s > 0 else 0.0,
        "experiments.eigh.calls": calls("numpy.eigh"),
        "experiments.eigh_s": secs("numpy.eigh"),
        "generator.apply_generator.calls": calls("generator.apply_generator"),
        "generator.apply_generator_s": secs("generator.apply_generator"),
        "generator.terms_out": totals.get("generator.apply_generator", empty)[3],
        "generator.taylor_terms_s": secs("generator.taylor_terms"),
        "generator.taylor_mean_s": secs("generator.taylor_mean"),
        "generator.taylor_multitime_s": secs("generator.taylor_mean_multitime"),
        "generator.self_s": prefixed("generator.", 2),
        "algebra.expected_value.calls": calls("algebra.expected_value"),
        "algebra.expected_value_s": secs("algebra.expected_value"),
        "output.write_s": prefixed("output.", 1),
        "cli.self_s": totals.get("cli.run", empty)[2],
    }

