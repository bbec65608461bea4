"""Planar fixed-point bookkeeping: displacement winding, alternating-trace
residuals for quotient-map iterates, and nonnegative-trace scans.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .errors import Checked, FixedPointOnCircle, InvalidParameter, SamplingTooCoarse
from .indices import winding

#: fewest samples of a closed circle whose winding can certify: a full turn
#: in steps each under a quarter turn needs more than four of them
_MIN_SAMPLES = 5
#: samples of a circle at brouwer_index_of_map's first try, and how many
#: tries it makes, each with twice the samples of the one before
_FIRST_SAMPLES = 64
_TRIES = 12


class PlanarMapSample(Checked, namedtuple("PlanarMapSample", [
        "points",       # (N, 2) samples on the circle
        "images",       # (N, 2) their images
        "eps"])):
    """Images of a circle of radius eps around an isolated fixed point."""

    __slots__ = ()

    def __new__(cls, points, images, eps: float = 1.0):
        pts = np.asarray(points, dtype=float)
        ims = np.asarray(images, dtype=float)
        if pts.shape != ims.shape or pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidParameter(f"bad sample shapes {pts.shape} vs {ims.shape}")
        if not 0 < eps < math.inf:
            raise InvalidParameter(f"eps must be positive and finite, got {eps}")
        return super().__new__(cls, pts, ims, eps)

    @classmethod
    def from_map(cls, f: Callable, eps: float = 1e-3,
                 n_samples: int = _FIRST_SAMPLES) -> "PlanarMapSample":
        """n_samples equally spaced points of the circle of radius eps around
        the origin, where f has its fixed point, and their images under f."""
        ts = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
        pts = np.column_stack([eps * np.cos(ts), eps * np.sin(ts)])
        ims = np.array([f(p) for p in pts], dtype=float)
        return cls(points=pts, images=ims, eps=eps)


def brouwer_index(sample: PlanarMapSample) -> int:
    """Winding number of y -> (f(y) - y) / |f(y) - y| around the circle.

    Certified integer: every angular increment is under a quarter turn, so
    the lift is unambiguous.  Raises SamplingTooCoarse otherwise, and below
    five samples (use brouwer_index_of_map for adaptive refinement).
    """
    disp = sample.images - sample.points
    if len(disp) < _MIN_SAMPLES:
        raise SamplingTooCoarse(
            f"{len(disp)} samples cannot certify a winding: a full turn passes the "
            f"quarter-turn rule only in {_MIN_SAMPLES} or more steps")
    norms = np.hypot(disp[:, 0], disp[:, 1])
    if np.any(norms <= 1e-14 * max(1.0, sample.eps)):
        raise FixedPointOnCircle("the map fixes a sampled circle point")
    angles = np.arctan2(disp[:, 1], disp[:, 0])
    return int(round(winding(np.append(angles, angles[0]))))


def brouwer_index_of_map(f: Callable, eps: float = 1e-3) -> int:
    """Adaptive version for a fixed point at the origin: samples the circle
    of radius eps at 64 points, then at twice as many, until the winding
    certifies; SamplingTooCoarse after 12 tries, naming the last count tried."""
    for n in (_FIRST_SAMPLES << i for i in range(_TRIES)):
        try:
            return brouwer_index(PlanarMapSample.from_map(f, eps, n))
        except SamplingTooCoarse:
            pass
    raise SamplingTooCoarse(f"no certified winding after {n} samples")


class LefschetzReport(namedtuple("LefschetzReport", [
        "residuals",        # per m, trace alternation minus index sum
        "max_abs_residual"])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_abs_residual <= 1e-9


def lefschetz_residuals(induced_maps: Sequence,
                        fixed_point_indices: Sequence,
                        m_max: int = 10) -> LefschetzReport:
    """Residual of the alternating trace identity for iterates m = 1..m_max.

    induced_maps gives the data on degrees 0, 1, 2 of the quotient pair: a
    matrix (traces of its powers are used), a real number, numpy scalars
    included (constant declared trace for every m), or an empty matrix/None
    for a vanishing degree.
    fixed_point_indices holds one integer per fixed point of the quotient
    map.  Declared trace data need not be realizable by a matrix; the
    residual just reports the bookkeeping of the identity.
    """
    def trace_fn(entry):
        if entry is None:
            return lambda m: 0.0
        if isinstance(entry, numbers.Real):
            return lambda m: float(entry)
        M = np.atleast_2d(np.asarray(entry, dtype=float))
        if M.size == 0:
            return lambda m: 0.0
        return lambda m: float(np.trace(np.linalg.matrix_power(M, m)))

    fns = [trace_fn(e) for e in induced_maps]
    while len(fns) < 3:
        fns.append(lambda m: 0.0)
    idx_sum = sum(float(idx) for idx in fixed_point_indices)
    residuals = [sum((-1) ** deg * fn(m) for deg, fn in enumerate(fns[:3])) - idx_sum
                 for m in range(1, m_max + 1)]
    return LefschetzReport(residuals=tuple(residuals),
                           max_abs_residual=float(np.max(np.abs(residuals))))


class TraceScan(namedtuple("TraceScan", [
        "count",            # how many m in 1..m_max have trace(L^m) >= 0
        "first_hits",       # the first ten such m
        "m_max"])):
    __slots__ = ()


def trace_nonneg_scan(L: np.ndarray, m_max: int = 1000) -> TraceScan:
    """Scan trace(L^m) >= 0 for m = 1..m_max.

    Every real matrix has infinitely many such m; the scan exhibits them at
    desk scale (the heuristic floor count >= m_max / (2 dim) is reported by
    callers, not asserted here).
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    # the sign of trace(L^m) is invariant under positive scaling; normalize by
    # the spectral radius so long scans neither overflow nor underflow
    radius = float(np.max(np.abs(np.linalg.eigvals(L)))) if L.size else 0.0
    if radius > 1.0:
        L = L / radius
    hits = []
    count = 0
    P = np.eye(L.shape[0])
    for m in range(1, m_max + 1):
        P = P @ L
        if float(np.trace(P)) >= 0.0:
            count += 1
            if len(hits) < 10:
                hits.append(m)
    return TraceScan(count=count, first_hits=tuple(hits), m_max=m_max)
