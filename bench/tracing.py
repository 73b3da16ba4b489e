"""Spans around pumpslab's public functions, recorded from outside the library.

Every binding of a traced function is replaced by one wrapper: the home
module's name and each ``from .x import name`` copy in other pumpslab
modules (``coupled`` and ``sweep`` hold their own ``pdc_resonance``, for
example), and ``DispersionModel.mu`` on the class.  A name a later refactor
removed is recorded as absent instead of failing the run.

A span is (target, start, end, parent span, request id, exception name).
Spans stay in memory while the benchmark runs and are written out at the
end; self time is a span's duration minus that of its direct children.
"""
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, home module, attribute path)
TARGETS = (
    ("dispersion.mu", "pumpslab.dispersion", "DispersionModel.mu"),
    ("dispersion.calibrate_degenerate_angle", "pumpslab.dispersion",
     "calibrate_degenerate_angle"),
    ("kinematics.pdc_resonance", "pumpslab.kinematics", "pdc_resonance"),
    ("kinematics.puc_resonance", "pumpslab.kinematics", "puc_resonance"),
    ("kinematics.longitudinal", "pumpslab.kinematics", "longitudinal"),
    ("lamina.fresnel_step", "pumpslab.lamina", "fresnel_step"),
    ("coupled.channel_report", "pumpslab.coupled", "channel_report"),
    ("coupled.epsilon_roots", "pumpslab.coupled", "epsilon_roots"),
    ("coupled.quartic_wavenumbers", "pumpslab.coupled", "quartic_wavenumbers"),
    ("oracle.exact_solve", "pumpslab.oracle", "exact_solve"),
    ("oracle.build_boundary_system", "pumpslab.oracle", "build_boundary_system"),
    ("oracle.thickness_averaged_intensities", "pumpslab.oracle",
     "thickness_averaged_intensities"),
    ("oracle.series_sum", "pumpslab.oracle", "series_sum"),
    ("sweep.run_sweep", "pumpslab.sweep", "run_sweep"),
    ("sweep.compare_oracle", "pumpslab.sweep", "compare_oracle"),
    ("sweep.write_rows", "pumpslab.sweep", "write_rows"),
    ("cli.main", "pumpslab.cli", "main"),
)
REQUEST = "request"


class Tracer:
    """Installs the wrappers and keeps the spans of traced requests."""

    def __init__(self):
        self.names = [REQUEST] + [name for name, _, _ in TARGETS]
        self.spans = []
        self.absent = []
        self._stack = []
        self._request = -1
        self._active = False
        self._restore = []

    # -- installation ------------------------------------------------------
    def install(self):
        for index, (name, home, path) in enumerate(TARGETS, start=1):
            module = sys.modules.get(home)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pumpslab" or mod_name.startswith("pumpslab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, index, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (index, start, end, parent, self._request, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- recording ---------------------------------------------------------
    @contextmanager
    def request(self, request_id):
        """Trace one request under a root span."""
        span = len(self.spans)
        self.spans.append(None)
        self._stack.append(span)
        self._request = request_id
        self._active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._active = False
            self._stack.pop()
            self.spans[span] = (0, start, end, -1, request_id, None)

    def mark(self):
        return len(self.spans)

    def drop_since(self, mark):
        del self.spans[mark:]

    # -- results -----------------------------------------------------------
    def summary(self):
        """Per target: calls, self seconds, inclusive seconds, errors by name."""
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                   "errors": defaultdict(int)}
            for name in self.names
        }
        for span, (index, start, end, _, _, error) in enumerate(self.spans):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[span]
            if error:
                entry["errors"][error] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span, (index, start, end, parent, request, error) in enumerate(
                self.spans
            ):
                fh.write(json.dumps({
                    "span": span,
                    "name": self.names[index],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    "error": error,
                }) + "\n")
