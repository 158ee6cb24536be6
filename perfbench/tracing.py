"""In-memory spans around calls from benchmark code into margulis modules.

A span records its name, start, end, parent span and run id ("setup" or
"pass-<k>").  Calls are synchronous, so child spans nest inside their
parent and a span's self time is its duration minus the durations of its
direct children.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import json
import resource
import time
from collections import Counter
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """ru_maxrss of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans and counters; ``run`` tags everything recorded next."""

    def __init__(self, run: str = "setup"):
        self.run = run
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[dict] = []

    def wrap(self, name: str, fn, attrs=None, rss: bool = False):
        """``fn`` with a span called ``name`` around every call.

        ``attrs(result)`` may return extra fields for the span (bytes
        written, gates emitted, ...); ``rss`` records how far the call
        raised the process's peak resident set.
        """
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run,
                    "parent": self._open[-1]["id"] if self._open else None}
            self.spans.append(span)
            self._open.append(span)
            rss0 = peak_rss_mb() if rss else 0.0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if rss:
                span["rss_mb"] = peak_rss_mb() - rss0
            if attrs is not None:
                span.update(attrs(result))
            return result
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append({"id": len(self.spans), "name": name, "run": self.run,
                           "parent": None, "start": start, "end": end})

    def innermost(self) -> str | None:
        return self._open[-1]["name"] if self._open else None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: Library entry points the benchmark calls through spans:
#: name used by the caller -> (margulis module, function, span name).
LIBRARY_SPANS = {
    "walk_matrix": ("walk", "walk_matrix", "walk.walk_matrix"),
    "spectral_report": ("walk", "spectral_report", "walk.spectral_report"),
    "walk_step": ("walk", "walk_step", "walk.walk_step"),
    "grid_to_csv": ("walk", "grid_to_csv", "walk.export"),
    "grid_to_pgm": ("walk", "grid_to_pgm", "walk.export"),
    "grid_from_csv": ("walk", "grid_from_csv", "walk.export"),
    "phase_point_basis": ("phasespace", "phase_point_basis", "phasespace.warmup"),
    "warm_wigner": ("phasespace", "wigner", "phasespace.warmup"),
    "wigner": ("phasespace", "wigner", "phasespace.wigner"),
    "inverse_wigner": ("phasespace", "inverse_wigner", "phasespace.inverse_wigner"),
    "affine_unitary": ("phasespace", "affine_unitary", "phasespace.affine_unitary"),
    "margulis_channel": ("channel", "margulis_channel", "channel.build"),
    "apply_channel": ("channel", "apply_channel", "channel.apply"),
    "verify_wigner_intertwining": ("channel", "verify_wigner_intertwining", "channel.intertwining"),
    "superoperator": ("channel", "superoperator", "channel.superoperator"),
    "expander_lambda": ("channel", "expander_lambda", "channel.expander_lambda"),
    "affine_circuit": ("circuits", "affine_circuit", "circuits.synth"),
    "evaluate": ("circuits", "evaluate", "circuits.evaluate"),
    "discretize": ("continuous", "discretize", "continuous.discretize"),
    "contraction_check": ("continuous", "contraction_check", "continuous.contraction"),
    "moments_csv": ("continuous", "moments_csv", "continuous.moments"),
}

_ATTRS = {
    "grid_to_csv": lambda text: {"bytes": len(text)},
    "grid_to_pgm": lambda text: {"bytes": len(text)},
    "affine_circuit": lambda gl: {"gates": len(gl.gates)},
    "contraction_check": lambda report: {"N_embed": report.N_embed},
}

# The first call builds the cached N^4 phase-point stack.
_RSS = ("phase_point_basis", "warm_wigner")


def library_calls(tracer: Tracer | None, names) -> dict:
    """Caller name -> library function, wrapped in its span when tracing."""
    import importlib

    out = {}
    for name in names:
        module, function, span = LIBRARY_SPANS[name]
        fn = getattr(importlib.import_module(f"margulis.{module}"), function)
        out[name] = fn if tracer is None else tracer.wrap(
            span, fn, attrs=_ATTRS.get(name), rss=name in _RSS)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


@contextmanager
def count_eigensolves(tracer: Tracer):
    """Count numpy.linalg.eigh/eigvalsh calls made inside a ``walk.*`` span.

    The library looks the functions up on ``numpy.linalg`` at call time, so
    replacing the module attributes sees every call; calls from other
    layers or from benchmark code are not counted.
    """
    import numpy.linalg as la

    originals = {name: getattr(la, name) for name in ("eigh", "eigvalsh")}

    def counting(fn):
        def wrapped(*args, **kwargs):
            current = tracer.innermost()
            if current is not None and current.startswith("walk."):
                tracer.counts[(tracer.run, "walk.eigensolves")] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, fn in originals.items():
        setattr(la, name, counting(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(la, name, fn)
