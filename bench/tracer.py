"""Outside-in span tracer for the holosim package.

``install`` wraps every public function, and every public method of a
public class, defined in a ``holosim`` module, and rebinds each reference
to it in every loaded ``holosim`` module namespace and module-level dict.
``cli`` imports by name and dispatches through the ``_RUNNERS`` dict, so
patching only the defining module would miss most calls.

Spans stay in memory as per-thread aggregates (calls, total, self time,
probe counters) and are merged by ``Tracer.report`` when the process is
done.  Self time is a span's duration minus the union of its children's
intervals; a child's interval includes the wrapper's own cost, so tracing
overhead lands in no span's self time.  A span that opens on a worker thread with an empty stack is
adopted by the innermost open span of the main thread, which is the span
that blocks on the pool, so the thread-pool sweeps in ``cli`` nest under
the runner that submitted them.  Durations are wall time, so a span on
a pool thread also counts its waits for the interpreter lock, and self
times summed over threads can exceed the wall time of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from enum import Enum
from time import perf_counter

PACKAGE = "holosim"


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    start, end = intervals[0]
    for s, e in intervals[1:]:
        if s > end:
            total += end - start
            start, end = s, e
        elif e > end:
            end = e
    return total + end - start


class _ThreadState:
    __slots__ = ("stack", "stats", "keys", "counts")

    def __init__(self):
        self.stack = []    # child intervals of each open span
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.keys = {}     # name -> set of distinct call keys
        self.counts = {}   # counter name -> summed amount


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def wrap(self, name, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif st is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = None
            children = []
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += (t1 - t0) - _covered(children)
            if probe is not None:
                probe(st, args, kwargs, result)
            if parent is not None:
                # The caller's self time excludes this wrapper's own cost,
                # probes included, not just the wrapped call.
                parent.append((enter, perf_counter()))
            return result

        return traced

    def report(self) -> dict:
        stats, keys, counts = {}, {}, {}
        for st in self._states:
            for name, (calls, total, own) in st.stats.items():
                rec = stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for name, seen in st.keys.items():
                keys.setdefault(name, set()).update(seen)
            for name, amount in st.counts.items():
                counts[name] = counts.get(name, 0) + amount
        return {"spans": stats,
                "unique": {name: len(seen) for name, seen in keys.items()},
                "counts": counts}


def _key_probe(name, key_of):
    def probe(st, args, kwargs, result):
        st.keys.setdefault(name, set()).add(key_of(*args, **kwargs))
    return probe


def _count_probe(name, amount_of):
    def probe(st, args, kwargs, result):
        st.counts[name] = st.counts.get(name, 0) + amount_of(result, *args, **kwargs)
    return probe


def _probes():
    """Per-span counters: distinct-input keys and work amounts."""
    return {
        "propagators.get_chains": _key_probe(
            "propagators.get_chains", lambda kind, dim: (kind, dim)),
        "propagators.apply_exponential": _count_probe(
            "propagators.apply_exponential.elems",
            lambda result, kind, dim, theta, flat: int(flat.size)),
        "modccr.closed_form_correction": _key_probe(
            "modccr.closed_form_correction",
            lambda r, cutoff: (r, cutoff.n_max)),
        "fock.apply_beam_splitter": _key_probe(
            "fock.apply_beam_splitter",
            lambda state, mode_a, mode_b, phi: (
                hash(state.amplitudes.tobytes()), mode_a, mode_b, phi)),
        "estimator.paired_phase_average": _count_probe(
            "estimator.mc_samples",
            lambda result, noise, state, samples, *a, **k: samples),
        "cli.to_csv": _count_probe(
            "cli.to_csv.bytes", lambda result, self: len(result)),
    }


def _span_name(module, name):
    # Metric names must start with a letter: ``_propagators`` -> ``propagators``.
    short = module.__name__.rpartition(".")[2].lstrip("_")
    if short == "cli" and name.startswith("run_"):
        return "cli.run"
    return f"{short}.{name}"


def install(tracer: Tracer) -> None:
    """Wrap the loaded holosim package in place."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    probes = _probes()
    wrappers = {}
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                span = _span_name(module, name)
                wrappers[id(obj)] = tracer.wrap(span, obj, probes.get(span))
            elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                for attr, meth in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(meth):
                        span = _span_name(module, attr)
                        setattr(obj, attr, tracer.wrap(span, meth, probes.get(span)))
    for module in modules:
        for name, obj in list(vars(module).items()):
            wrapped = wrappers.get(id(obj))
            if wrapped is not None:
                setattr(module, name, wrapped)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    wrapped = wrappers.get(id(value))
                    if wrapped is not None:
                        obj[key] = wrapped
