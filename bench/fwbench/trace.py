"""Spans around the library's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers.  Every module of
the package that holds a reference to a wrapped function gets the wrapper,
so names another module imported directly (``decompose.is_psd``,
``cli.fw_membership``) are traced too.  Spans stay in memory until the run
writes them out; the wrappers are a single flag test while tracing is off.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute) pairs wrapped in a traced run.  A dotted attribute names
# a classmethod on a class of that module.
TARGETS = (
    ("decompose", "fw_membership"),
    ("decompose", "BlockDecomposition.build"),
    ("symcore", "is_psd"),
    ("symcore", "eigen_sym"),
    ("symcore", "load_matrix_json"),
    ("symcore", "matrix_to_json"),
    ("dualcone", "verify_candidate"),
    ("dualcone", "dual_membership"),
    ("dualcone", "dykstra_dual_certificate"),
    ("dualcone", "cos_certificate_search"),
    ("dualcone", "bnr_certificate"),
    ("dualcone", "lift_quaternary_certificate"),
    ("polyforms", "multiplier_gram"),
    ("polyforms", "multiply_weighted_power"),
    ("polyforms", "default_gram"),
    ("polyforms", "gram_to_poly"),
    ("polyforms", "parity_aggregates"),
    ("polyforms", "soks_test"),
    ("families", "pna_witness_decomposition"),
    ("cli", "main"),
)

# Results worth keeping on the span: the verdict and iteration count of a
# membership decision, and whether a search returned a certificate.
_FOUND = {"dualcone.verify_candidate", "dualcone.dykstra_dual_certificate",
          "dualcone.cos_certificate_search"}


def _info(name, result):
    if name == "decompose.fw_membership":
        return (result.status, int(result.diagnostics.get("iterations", 0)))
    if name in _FOUND:
        return result is not None
    return None


class Tracer:
    """Records ``(id, parent, name, start, end, info)`` spans while enabled."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            info = "raised"
            try:
                result = fn(*args, **kwargs)
                info = _info(name, result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, info))

        return traced

    def install(self, fw) -> None:
        """Wrap every target in ``fw``, a namespace of the package and its
        modules, and in every one of them that refers to it."""
        modules = list(vars(fw).values())
        for mod_name, attr in TARGETS:
            mod = getattr(fw, mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                wrapped = classmethod(self._wrap(name, original.__func__))
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "info": info}) + "\n")


def summarize(spans, traced_wall: float,
              measure=lambda start, end: end - start) -> dict:
    """Per-name call counts, inclusive and self seconds, and span outcomes.

    ``measure(start, end)`` gives a span's duration.  Self time is a span's
    duration minus the time its direct children cover; ``uncovered_s`` is
    the part of ``traced_wall`` outside every root span.
    """
    durations = {sid: measure(start, end)
                 for sid, _parent, _name, start, end, _info in spans}
    child = defaultdict(float)
    for sid, parent, _name, _start, _end, _info in spans:
        if parent is not None:
            child[parent] += durations[sid]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "found": 0, "iterations": 0,
                                 "member": 0, "non_member": 0,
                                 "inconclusive": 0})
    root_s = 0.0
    for sid, parent, name, _start, _end, info in spans:
        dur = durations[sid]
        st = stats[name]
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += dur - child.get(sid, 0.0)
        if parent is None:
            root_s += dur
        if info is True:
            st["found"] += 1
        elif isinstance(info, tuple):
            status, iterations = info
            st[status] += 1
            st["iterations"] += iterations
    return {"by_name": dict(stats),
            "uncovered_s": max(traced_wall - root_s, 0.0)}
