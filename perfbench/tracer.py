"""Spans at the layer boundaries, recorded from outside the library.

The tracer replaces each public function at the module attribute its callers
resolve (``reeb_lab.audit.index_triple`` for the audit's calls,
``reeb_lab.recurrence.index_triple`` for the search's, ...) with a wrapper
that opens a span.  Each span has a name, a start, an end and a parent; a
span's self time is its duration minus the time its child spans cover.

Boundaries crossed hundreds of thousands of times per pass (``busy``) are
aggregated into a call count and self time; the others are also kept as
whole spans and written out when the run ends.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from workloads import k0_scanned


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str             # "name" or "Class.method"
    span: str             # span name
    busy: bool = False
    site: Optional[str] = None                    # extra call counter for this caller
    on_result: Optional[Callable] = None          # (args, result) -> {counter: n}


def _search_counts(args, result) -> dict:
    return {"recurrence.k0_scanned": k0_scanned(args[0], result),
            "recurrence.solutions": len(result.solutions)}


BOUNDARIES = (
    Boundary("reeb_lab.audit", "audit", "audit"),
    Boundary("reeb_lab.audit", "OrbitSystem.__init__", "audit.system_init"),
    Boundary("reeb_lab.audit", "exclusion_certificate", "audit.exclusion_certificate",
             busy=True),
    Boundary("reeb_lab.audit", "index_triple", "indices.index_triple", busy=True),
    Boundary("reeb_lab.audit", "support_interval", "indices.support_interval", busy=True),
    Boundary("reeb_lab.audit", "recurrence_search", "recurrence.search",
             on_result=_search_counts),
    Boundary("reeb_lab.audit", "verify_recurrence", "recurrence.verify"),
    Boundary("reeb_lab.indices", "index_triple", "indices.index_triple", busy=True),
    Boundary("reeb_lab.recurrence", "index_triple", "indices.index_triple", busy=True,
             site="recurrence.index_triple.calls"),
    Boundary("reeb_lab.recurrence", "verify_recurrence", "recurrence.verify"),
    Boundary("reeb_lab.recurrence", "recurrence_search", "recurrence.search",
             on_result=_search_counts),
    Boundary("reeb_lab.hamiltonian", "build_profile", "hamiltonian.build_profile"),
    Boundary("reeb_lab.hamiltonian", "action_inverse", "hamiltonian.action_inverse",
             busy=True),
    Boundary("reeb_lab.hamiltonian", "action_from_period", "hamiltonian.action_from_period",
             busy=True),
    Boundary("reeb_lab.hamiltonian", "transfer_map", "hamiltonian.transfer"),
    Boundary("reeb_lab.hamiltonian", "action_tables", "hamiltonian.action_tables"),
    Boundary("reeb_lab.hamiltonian", "compare_action_functions", "hamiltonian.compare"),
    Boundary("reeb_lab.hamiltonian", "RadialProfile.dh_inv", "hamiltonian.dh_inv", busy=True),
    Boundary("reeb_lab.hamiltonian", "RadialProfile.action", "hamiltonian.action", busy=True),
    Boundary("reeb_lab.ellipsoid", "ellipsoid_profile", "ellipsoid.profile"),
    Boundary("reeb_lab.ellipsoid", "pseudo_rotation_instance", "ellipsoid.pseudo_rotation"),
    Boundary("reeb_lab.floergraph", "FilteredComplex.__init__", "floergraph.complex_init"),
    Boundary("reeb_lab.floergraph", "barcode", "floergraph.barcode"),
)


def _owner(boundary: Boundary):
    obj = importlib.import_module(boundary.module)
    *path, name = boundary.attr.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    return obj, name


class Tracer:
    """Aggregates spans per name: calls, self time and inclusive time."""

    def __init__(self):
        self.stack = []           # open frames: [start, child time, span id]
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counts = {}
        self.spans = []           # (id, name, start, end, parent id, self time)
        self.missing = []         # boundaries the library no longer has
        self._saved = []
        self._next_id = 1

    def span(self, name: str, fn: Callable):
        """Run ``fn()`` inside a span named ``name``; returns its result."""
        return self._wrap(fn, name, busy=False)()

    def _wrap(self, fn, name, busy, site=None, on_result=None):
        stack, calls, self_s, total_s = self.stack, self.calls, self.self_s, self.total_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, 0]
            if not busy:
                frame[2] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                if site is not None:
                    tracer.count(site)
                if not busy:
                    parent = next((f[2] for f in reversed(stack) if f[2]), None)
                    tracer.spans.append((frame[2], name, frame[0], end, parent,
                                         duration - frame[1]))
            if on_result is not None:
                for key, n in on_result(args, result).items():
                    tracer.count(key, n)
            return result
        return wrapper

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self):
        for b in BOUNDARIES:
            owner, name = _owner(b)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                if b not in self.missing:
                    self.missing.append(b)
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, b.span, b.busy, b.site, b.on_result))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Cumulative totals, to difference around one pass."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        out.update(self.counts)
        return out

    def span_records(self) -> list:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "self": d}
                for i, n, s, e, p, d in self.spans]
