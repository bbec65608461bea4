"""Radial Hamiltonian profiles and their action calculus.

A profile is a function h(r): constant c0 <= 0 on (0, 1], strictly convex on
[1, r_max], linear of slope a beyond.  Orbit levels solve h'(r) = T for a
period T; the radial action is A_h(r) = r h'(r) - h(r) and the period-to-
action transform is a_H(T) = A_h(r(T)).  Everything downstream (transfer
maps, trace validation, the orbit-system audit constants) is built from
these two functions.

Three closed-form families (quadratic, cubic, exponential) are provided for
exact oracles, plus a monotone-convex spline with piecewise-linear h''.
Scaling k H is handled by explicit k arguments using A_{k h} = k A_h and
a_{k H}(T) = k a_H(T / k).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    ActionOutOfRange,
    BadGeometry,
    Checked,
    ConvexityViolation,
    InvalidParameter,
    JoinDiscontinuity,
    JsonFields,
    MalformedTrace,
    NotDominated,
    PeriodOutOfRange,
    SandwichViolated,
    SlopeMismatch,
    UncertifiedRegion,
    WrongType,
    json_field,
    json_object,
    json_value,
    real,
    reals,
)

#: x ** n through libm's pow, elementwise: numpy's ``**`` on arrays takes a
#: SIMD path that can differ from pow in the last bit, which would make an
#: array call disagree with the same call on a float
_pow = np.float_power

#: halvings of [0, top] within which no bisection bracket has adjacent float
#: ends: after i of them its width is at least top (2^-i - 2^-52), since each
#: rounded midpoint is off by at most ulp(top) / 2 <= top 2^-53, and floats
#: in [0, top] lie at most top 2^-52 apart; two fewer than the 52 fraction
#: bits leave a margin
_UNSETTLED_HALVINGS = np.finfo(float).nmant - 2

#: points at which one call of f in _bisect may evaluate it, summed over the
#: elements: a call takes the midpoints of the next K levels of every
#: element's bracket, 2^K - 1 of them, for the largest K >= 1 whose points
#: fit, so an array of more than a third of it keeps one level per call.
#: Up to about this size a call of f costs numpy's fixed overhead per
#: operation, not its length.  In-process transfer_map timings, interleaved
#: on a shared 2-vCPU x86 VM with numpy 2.4: on a 2-tau spline transfer,
#: whose outer bisection gets K = 6 and whose level solves then get K = 1,
#: 128 took 10% less time than 64, and 256 more; the closed forms' 21-tau
#: transfers (K = 2) took the same time at 64 and 128
_NODE_BUDGET = 128

#: transfer_map's tolerance, relative to max(1, k c), on the sandwich slacks
#: and on each step of monotonicity
_TRANSFER_TOL = 1e-9


class _BisectionTree:
    """Buffers and views for ``levels`` levels of _bisect over every element
    of ``ends`` (shape (2, size): the brackets' lower and upper ends) at
    once, made once per _bisect call (twice when its last call of f takes
    fewer levels) and refilled for each call of f.

    Row r of the grid holds each element's point r / 2^levels of the way
    from lo to hi as the halvings round it: rows 0 and 2^levels are the
    ends (``ends`` views them), and ``build`` fills the rest, coarsest
    level first, each as ``0.5 * (left + right)`` of the two rows that
    bound it at its level.  f gets rows 1 .. 2^levels - 1 as one flat
    array (``nodes``), and ``below`` receives ``f(nodes) < target``
    (``target`` repeats the target once per row).

    Level j of the descent holds each element's subtree, 2^(levels - j) + 1
    points and their decisions, with its midpoint in the middle row.  It
    copies into the next level's buffers the half that the decision at
    that midpoint keeps: the upper half where f(mid) < target, else the
    lower; the last level copies the bracket it keeps into _bisect's
    ``ends``.  Every buffer is allocated here, so the descent allocates
    nothing.
    """

    __slots__ = ("levels", "ends", "build", "nodes", "below", "target", "descent")

    def __init__(self, levels: int, ends, repeated):
        size = ends.shape[1]
        n = 1 << levels
        grid = np.empty((n + 1, size))
        below = np.empty((n - 1, size), dtype=bool)
        self.levels = levels
        self.ends = grid[::n]
        self.nodes = grid[1:-1].reshape(-1)
        self.below = below.reshape(-1)
        self.target = repeated[:self.below.size]
        self.build = []
        while n > 1:
            self.build.append((grid[n // 2::n], grid[:-1:n], grid[n::n]))
            n //= 2
        self.descent = []
        for j in range(levels):
            c = len(grid) // 2
            if j == levels - 1:
                into, below_into = ends, None
            else:
                into = np.empty((c + 1, size))
                below_into = np.empty((c - 1, size), dtype=bool)
            self.descent.append((grid[c], grid[0], grid[-1], below[c - 1],
                                 into, grid[:c + 1], grid[c:],
                                 below_into, below[:c - 1], below[c:]))
            grid, below = into, below_into


def _bisect(f, target, top: float, steps: int):
    """Midpoint of the bracket [0, top] of an increasing f around target,
    halved ``steps`` times: a midpoint where f(mid) < target becomes the
    lower end, any other the upper end.  Elementwise over the target array,
    of any shape, with the same midpoints and decisions as one scalar
    bisection per element.

    One call of f covers several levels.  It evaluates f at the midpoints
    of the next K levels of every element's bracket, the 2^K - 1 nodes of
    its bisection tree, as one flat array; K comes from _NODE_BUDGET and
    the target's size, and is smaller in the last call only if ``steps``
    runs out.  The descent then walks those K levels with the stored
    ``f(node) < target``.  The result is the one-level loop's bit for bit:
    each node is ``0.5 * (lo + hi)`` of the two points that bound it in the
    tree, so the node on an element's path at each level is the one-level
    loop's midpoint, computed from the same lo and hi, and the path takes
    the same ``<`` decision there.  The nodes off the path are evaluated
    and decide nothing.  So f must be elementwise, but it need not
    increase: its values steer only the path.

    ``steps`` is a cap: the descent stops at the first level whose
    midpoints are all ends of their brackets, and returns them, which is
    what all ``steps`` halvings return.  Proof: a step keeps a bracket
    whose midpoint is one of its ends or collapses it onto that end, and
    the midpoint of either is that end again, so every later step does the
    same.  The test compares with ``==``, which here means equal bits: the
    ends stay in [+0, top], so no -0 arises, and a NaN midpoint compares
    unequal and only runs the loop to its cap.

    In floats a midpoint is an end only once the ends are adjacent.  An
    interior bracket gets there after about 54 halvings of [0, top]; one
    that halves toward 0 (target 0) never does and takes all ``steps``.
    No bracket gets there within _UNSETTLED_HALVINGS, so the test starts
    after them.  Where the test starts changes no result, only where the
    loop may stop.  A call of f whose first level would stop is never
    made; a call that passes the stop has evaluated nodes past it, which
    decide nothing.
    """
    target = np.asarray(target, dtype=float)
    flat = target.reshape(-1)
    depth = max(1, (_NODE_BUDGET // max(flat.size, 1) + 1).bit_length() - 1)
    repeated = np.tile(flat, (1 << depth) - 1)
    ends = np.empty((2, flat.size))
    ends[0], ends[1] = 0.0, top
    tree = _BisectionTree(min(depth, steps), ends, repeated)
    i = 0
    while i < steps:
        if steps - i < tree.levels:
            tree = _BisectionTree(steps - i, ends, repeated)
        tree.ends[...] = ends
        for mids, left, right in tree.build:
            mids[...] = 0.5 * (left + right)
        evaluated = False
        for (mid, lo, hi, below, into, lower, upper,
             below_into, below_lower, below_upper) in tree.descent:
            if i >= _UNSETTLED_HALVINGS and ((mid == lo) | (mid == hi)).all():
                return mid.reshape(target.shape)
            if not evaluated:
                np.less(f(tree.nodes), tree.target, out=tree.below)
                evaluated = True
            np.copyto(into, lower)
            np.copyto(into, upper, where=below)
            if below_into is not None:
                np.copyto(below_into, below_lower)
                np.copyto(below_into, below_upper, where=below)
            i += 1
    return (0.5 * (ends[0] + ends[1])).reshape(target.shape)


def _first_outside(x, lo: float, hi: float):
    """The first element of the array x, in C order, that is not inside
    [lo, hi], as a float, or None: NaN is inside no range."""
    outside = ~((x >= lo) & (x <= hi))
    return float(x[outside].flat[0]) if np.any(outside) else None


class RadialProfile(Checked, JsonFields):
    """Base class; each family implements _piece_h, _piece_dh and _piece_d2h,
    its shell piece at x = r - 1 in [0, r_max - 1], and _piece_dh_inv, the x
    where _piece_dh is T.

    A family is a named tuple of slope, r_max and c0 (default 0.0), then its
    own parameters.  It names itself in ``family``.  Every construction,
    direct, through build_profile or through _replace, runs __init__'s
    checks and sets h_triple_nonneg_up_to, the end of the certified
    h''' >= 0 region, and the constants that the action calculus would
    otherwise recompute on every call: the shell width _w = r_max - 1, the
    shell piece's value _h_w at its end, and c.  Two profiles are equal
    only when they are of one family: CubicProfile and ExpProfile both hold
    four floats.
    """

    family: ClassVar[str]

    def __init__(self, *args, **kwargs):
        """Check slope, r_max and c0, then the family's own parameters
        (_check_parameters, which also sets derived values), then that h''
        > 0 inside the shell (_check_convex) and the C^1 joins at r = 1 and
        r = r_max: the first failed check raises, WrongType where a field is
        no real number and InvalidParameter where it overflows a float.
        Last it keeps _h_w and c, each computed by the expression that h
        and action evaluated on every call before."""
        if not 0 < real("slope", self.slope) < math.inf:
            raise SlopeMismatch(f"slope must be positive and finite, got {self.slope}")
        if not 1.0 < real("r_max", self.r_max) < math.inf:
            raise BadGeometry(f"r_max must be finite and exceed 1, got {self.r_max}")
        if not -math.inf < real("c0", self.c0) <= 0:
            raise JoinDiscontinuity(f"constant piece must be finite and <= 0, got {self.c0}")
        object.__setattr__(self, "_w", self.r_max - 1.0)
        object.__setattr__(self, "h_triple_nonneg_up_to", self.r_max)
        self._check_parameters()
        self._check_convex()
        # the joins, probed on the shell piece: dh and h take their values at and
        # beyond the ends from the constant and linear pieces, which start there
        dh_1, dh_r_max = (float(self._piece_dh(x)) for x in (0.0, self._w))
        if abs(dh_1) > 1e-9 * self.slope:
            raise JoinDiscontinuity(f"h'(1) = {dh_1:.3e} != 0")
        if abs(dh_r_max - self.slope) > 1e-9 * self.slope:
            raise SlopeMismatch(f"h'(r_max) = {dh_r_max:.9g} != slope {self.slope:.9g}")
        if abs(float(self._piece_h(0.0))) > 1e-9 * max(1.0, abs(self.c0)):
            raise JoinDiscontinuity("h(1) does not meet the constant piece")
        object.__setattr__(self, "_h_w", self._piece_h(self._w))
        # the linear piece's offset, h(r) = slope * r - c for r >= r_max, is max A_h
        object.__setattr__(self, "c", self.action(self.r_max))

    def _check_parameters(self):
        """The family's own checks and derived values; the quadratic has none."""

    def _check_convex(self):
        """A closed form's h'' is nondecreasing: h''(1) must be > 0 as
        computed, so an h'' that underflows to 0 is rejected."""
        d2_1 = float(self._piece_d2h(0.0))
        if not d2_1 > 0:
            raise ConvexityViolation(1.0, d2_1)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def admissible(self) -> bool:
        return self.c0 < 0.0

    # -- assembled profile ----------------------------------------------------

    def _on_shell(self, r, masked):
        """masked(r, x) with x = r - 1 clipped to the shell [0, r_max - 1];
        a 0-d result unwraps to a float."""
        r = np.asarray(r, dtype=float)
        # with scalar bounds np.minimum(hi, np.maximum(lo, x)) is np.clip(x, lo,
        # hi) bit for bit, -0.0 and NaN included, at less dispatch cost per
        # call; with x as the first argument, -0.0 would come out as +0.0
        out = masked(r, np.minimum(self._w, np.maximum(0.0, r - 1.0)))
        return out if np.ndim(out) else float(out)

    def h(self, r):
        return self._on_shell(r, lambda r, x: np.where(
            r >= self.r_max, self.c0 + (self._h_w + self.slope * (r - self.r_max)),
            self.c0 + self._piece_h(x)))

    def dh(self, r):
        return self._on_shell(r, lambda r, x: np.where(
            r >= self.r_max, self.slope, np.where(r <= 1.0, 0.0, self._piece_dh(x))))

    def d2h(self, r):
        return self._on_shell(r, lambda r, x: np.where(
            (r > 1.0) & (r < self.r_max), self._piece_d2h(x), 0.0))

    def d2h_shell(self, r):
        """h'' of the shell piece at r clipped to [1, r_max]: at the ends its
        one-sided values, which d2h, 0 off the open shell, does not give."""
        return self._on_shell(r, lambda r, x: self._piece_d2h(x))

    def d2h_extremes(self, a, b):
        """(r, h''(r)) at every r in [a, b] where h'' or r h'' can take its
        least or greatest value over [a, b], for 1 <= a <= b <= r_max: their
        max and min over these r are those over all of [a, b].  A closed
        form's h'' is nondecreasing, and so is r h'': the two ends."""
        r = np.array([a, b], dtype=float)
        return r, self.d2h_shell(r)

    def dh_inv(self, T):
        """Level r in [1, r_max] with h'(r) = T; exact for closed forms."""
        T = np.asarray(T, dtype=float)
        bad = _first_outside(T, -1e-12, self.slope * (1 + 1e-12))
        if bad is not None:
            raise PeriodOutOfRange(f"period outside [0, {self.slope}]: {bad:.6g}")
        return self._dh_inv(T)

    def _dh_inv(self, T):
        """dh_inv without the range check, for periods in [0, slope]."""
        out = np.minimum(self.r_max, np.maximum(
            1.0, self._piece_dh_inv(np.minimum(self.slope, np.maximum(0.0, T))) + 1.0))
        return out if out.ndim else float(out)

    def action(self, r, k: float = 1.0):
        """Radial action k * A_h(r) = r (k h)'(r) - k h(r); constant beyond r_max."""
        r = np.asarray(r, dtype=float)
        rr = np.minimum(r, self.r_max)
        out = k * (rr * self.dh(rr) - self.h(rr))
        # a Fraction r_max makes a 0-d rr, and so out, a Python number, which
        # has no ndim: construction evaluates c = action(r_max) for it too
        return out if getattr(out, "ndim", 0) else float(out)

    def to_json(self) -> dict:
        return {"family": self.family, **super().to_json()}


class QuadraticProfile(RadialProfile, namedtuple("QuadraticProfile", "slope r_max c0",
                                                 defaults=(0.0,))):
    """h = c0 + a (r-1)^2 / (2 (r_max - 1)) on the shell; h''' = 0."""

    family = "quadratic"

    def _piece_h(self, x):
        return self.slope * x * x / (2.0 * self._w)

    def _piece_dh(self, x):
        return self.slope * x / self._w

    def _piece_d2h(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope / self._w)

    def _piece_dh_inv(self, T):
        return np.asarray(T, dtype=float) * self._w / self.slope


class CubicProfile(RadialProfile, namedtuple("CubicProfile", "slope r_max c0 theta",
                                             defaults=(0.0, 0.5))):
    """h' = (1-theta) a x / w + theta a x^2 / w^2; h''' = 2 theta a / w^2 > 0."""

    family = "cubic"

    def _check_parameters(self):
        if not 0.0 < real("theta", self.theta) < 1.0:
            raise InvalidParameter(f"theta must be in (0, 1), got {self.theta}")

    def _piece_h(self, x):
        a, w, th = self.slope, self._w, self.theta
        return ((1 - th) * a * _pow(x, 2) / (2 * w)
                + th * a * _pow(x, 3) / (3 * w * w))

    def _piece_dh(self, x):
        a, w, th = self.slope, self._w, self.theta
        return (1 - th) * a * x / w + th * a * _pow(x, 2) / (w * w)

    def _piece_d2h(self, x):
        a, w, th = self.slope, self._w, self.theta
        return (1 - th) * a / w + 2 * th * a * np.asarray(x, dtype=float) / (w * w)

    def _piece_dh_inv(self, T):
        a, w, th = self.slope, self._w, self.theta
        disc = np.sqrt((1 - th) ** 2 + 4 * th * np.asarray(T, dtype=float) / a)
        return w * (disc - (1 - th)) / (2 * th)


class ExpProfile(RadialProfile, namedtuple("ExpProfile", "slope r_max c0 beta",
                                           defaults=(0.0, 2.0))):
    """h' = a (e^{beta x} - 1) / (e^{beta w} - 1); all higher derivatives > 0."""

    family = "exp"

    def _check_parameters(self):
        if not 0 < real("beta", self.beta) < math.inf:
            raise InvalidParameter(f"beta must be positive and finite, got {self.beta}")
        if not self.beta * self._w <= np.log(np.finfo(float).max):
            raise InvalidParameter(f"expm1(beta * (r_max - 1)) overflows at beta = {self.beta}")
        # the pieces multiply the slope by up to beta e^{beta x} before dividing by _den
        scale = math.log(max(1.0, self.beta)) + self.beta * self._w
        if not scale + math.log(self.slope) <= np.log(np.finfo(float).max):
            raise InvalidParameter(f"slope * max(1, beta) * e^(beta * (r_max - 1)) overflows "
                                   f"at slope = {self.slope}, beta = {self.beta}")
        object.__setattr__(self, "_den", math.expm1(self.beta * self._w))

    def _piece_h(self, x):
        a, b = self.slope, self.beta
        x = np.asarray(x, dtype=float)
        return a * (np.expm1(b * x) / b - x) / self._den

    def _piece_dh(self, x):
        return self.slope * np.expm1(self.beta * np.asarray(x, dtype=float)) / self._den

    def _piece_d2h(self, x):
        a, b = self.slope, self.beta
        return a * b * np.exp(b * np.asarray(x, dtype=float)) / self._den

    def _piece_dh_inv(self, T):
        return np.log1p(np.asarray(T, dtype=float) * self._den / self.slope) / self.beta


class SplineProfile(RadialProfile, namedtuple("SplineProfile", "slope r_max c0 knots",
                                              defaults=(0.0, ()))):
    """Monotone-convex profile from piecewise-linear h'' knot values >= 0.

    knots[i] is h'' at r = 1 + i * w / (len(knots) - 1); h' and h are exact
    piecewise polynomials.  The slope is whatever the knots integrate to.
    """

    family = "spline"

    def __new__(cls, slope, r_max, c0=0.0, knots=()):
        return super().__new__(cls, slope, r_max, c0, reals("knots", knots))

    def _check_parameters(self):
        knots = self.knots
        if len(knots) < 2:
            raise InvalidParameter(f"a spline needs at least 2 knots, got {len(knots)}")
        n = len(knots) - 1
        dx = self._w / n
        # integrate h'' -> h' and h' -> h at the knot positions
        dh = _dh_at_knots(knots, dx).tolist()
        hh = [0.0]
        for i in range(n):
            # exact integral of the quadratic h' over the piece
            v0, v1 = knots[i], knots[i + 1]
            hh.append(hh[-1] + dh[i] * dx + 0.5 * v0 * dx * dx + (v1 - v0) * dx * dx / 6.0)
        object.__setattr__(self, "_k", np.asarray(knots))
        object.__setattr__(self, "_dk", np.diff(self._k))
        object.__setattr__(self, "_dh_knots", np.asarray(dh))
        object.__setattr__(self, "_h_knots", np.asarray(hh))
        object.__setattr__(self, "_dx", dx)
        computed = dh[-1]
        if not abs(computed - self.slope) <= 1e-9 * max(1.0, self.slope):
            raise SlopeMismatch(
                f"knots integrate to slope {computed:.9g}, profile declares {self.slope:.9g}"
            )
        # certified h''' >= 0 region: maximal nondecreasing run of knots from r = 1
        r0 = self.r_max
        for i in range(n):
            if knots[i + 1] < knots[i] - 1e-15:
                r0 = 1.0 + i * dx
                break
        object.__setattr__(self, "h_triple_nonneg_up_to", r0)

    def _check_convex(self):
        """h'' is linear between the knots: the inner knots must be > 0 and
        the end knots >= 0; the first offending knot in r order is named."""
        k = self._k
        bad = np.flatnonzero(np.concatenate([k[:1] < 0, k[1:-1] <= 0, k[-1:] < 0]))
        if bad.size:
            raise ConvexityViolation(float(1.0 + bad[0] * self._dx), float(k[bad[0]]))

    def d2h_extremes(self, a, b):
        """The ends, the knots inside [a, b] with their own values, and the
        vertex of r h'' on each piece.  h'' is linear on a piece, so r h''
        is quadratic there, with zeros at r = 0 and where the line of h''
        crosses 0, and its vertex halfway between them."""
        r = 1.0 + np.arange(len(self.knots)) * self._dx
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = 0.5 * (r[:-1] - self._k[:-1] * self._dx / self._dk)
        # a flat piece has no vertex: inf or NaN, which no comparison keeps
        vertex = vertex[(vertex >= a) & (vertex <= b)]
        inside = (r >= a) & (r <= b)
        ends = np.array([a, b], dtype=float)
        return (np.concatenate([ends, r[inside], vertex]),
                np.concatenate([self.d2h_shell(ends), self._k[inside], self.d2h_shell(vertex)]))

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        # np.clip would look up the integer limits on every call
        i = np.minimum(np.maximum((x / self._dx).astype(int), 0), len(self.knots) - 2)
        return i, x - i * self._dx

    def _piece_d2h(self, x):
        i, t = self._locate(x)
        return self._k[i] + self._dk[i] * t / self._dx

    def _piece_dh(self, x):
        i, t = self._locate(x)
        return self._dh_knots[i] + self._k[i] * t + self._dk[i] * t * t / (2 * self._dx)

    def _piece_h(self, x):
        i, t = self._locate(x)
        return (self._h_knots[i] + self._dh_knots[i] * t + 0.5 * self._k[i] * t * t
                + self._dk[i] * _pow(t, 3) / (6 * self._dx))

    def _piece_dh_inv(self, T):
        """Bisection of [0, w] on the monotone h', then one Newton polish
        where h'' > 0.  The bisection takes at most 64 halvings, several
        levels per evaluation of h' where T holds few elements (one level
        for more than _NODE_BUDGET / 3), and stops at the first level whose
        midpoints are all ends of their brackets, so the result is the
        64-halving one-level loop's bit for bit (``_bisect``).  T may have
        any shape: inside action_inverse it holds every node of the outer
        bisection's tree."""
        T = np.asarray(T, dtype=float)
        x = _bisect(self._piece_dh, T, self._w, 64)
        d2 = self._piece_d2h(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            polished = np.minimum(self._w, np.maximum(0.0, x - (self._piece_dh(x) - T) / d2))
        return np.where(d2 > 0, polished, x)


_FAMILIES = {cls.family: cls for cls in (QuadraticProfile, CubicProfile, ExpProfile,
                                         SplineProfile)}


def _dh_at_knots(knots: Sequence[float], dx: float) -> np.ndarray:
    """h' at the knots of a piecewise-linear h'' with spacing dx, h'(1) = 0:
    the trapezoid areas summed in knot order (np.cumsum adds sequentially)."""
    k = np.asarray(knots, dtype=float)
    return np.concatenate([[0.0], np.cumsum(0.5 * (k[:-1] + k[1:]) * dx)])


def spline_slope(knots: Sequence[float], r_max: float) -> float:
    """Slope a spline profile with these h'' knots will have: its h'(r_max)."""
    return float(_dh_at_knots(knots, (r_max - 1.0) / (len(knots) - 1))[-1])


def build_profile(family: str = "quadratic", *, slope: float, r_max: float,
                  c0: float = 0.0, **params) -> RadialProfile:
    """The profile of the named family with these parameters.

    The family's constructor checks them (RadialProfile.__init__): h'' >=
    0 on the shell and > 0 inside it is decided exactly, so h' rises, and
    ConvexityViolation names the first offending (r, h'') in r order.  A
    keyword the family does not take raises WrongType, which names the
    keywords it takes.
    """
    if family not in _FAMILIES:
        raise InvalidParameter(f"unknown profile family {family!r}")
    cls = _FAMILIES[family]
    for key in params:
        if key not in cls._fields:
            raise WrongType(f"the {family} family takes no keyword {key!r}, only "
                            + ", ".join(cls._fields))
    return cls(slope=slope, r_max=r_max, c0=c0, **params)


def profile_from_json(obj: dict) -> RadialProfile:
    """Raises MalformedInput on a missing or unknown key (another family's
    parameter counts as unknown) or a value of the wrong JSON type."""
    where = "hamiltonian"
    family = json_field(obj, "family", str, where)
    # an unknown family gets the shared keys, the quadratic's, here and its
    # error from build_profile
    cls = _FAMILIES.get(family, QuadraticProfile)
    json_object(obj, ("family", *cls._fields), where)
    params = {key: json_field(obj, key, float, where) for key in cls._fields
              if key != "knots" and (key in obj or key not in cls._field_defaults)}
    if "knots" in obj:
        params["knots"] = tuple(json_value(v, float, f"{where}: knots[{i}]")
                                for i, v in enumerate(json_field(obj, "knots", list, where)))
    return build_profile(family, **params)


# ---------------------------------------------------------------------------
# action calculus
# ---------------------------------------------------------------------------

def action_from_period(profile: RadialProfile, T, k: float = 1.0) -> tuple:
    """(a_{kH}(T), r) where (k h)'(r) = T.  Requires 0 <= T <= k * slope.

    T is a float or an array: a float gives a pair of floats, an array a
    pair of arrays of its shape.
    """
    T = np.asarray(T, dtype=float)
    bad = _first_outside(T, 0, k * profile.slope * (1 + 1e-12))
    if bad is not None:
        raise PeriodOutOfRange(f"T = {bad:.6g} outside [0, {k * profile.slope:.6g}]")
    return _action_from_period(profile, T, k)


def _action_from_period(profile: RadialProfile, T, k: float) -> tuple:
    """action_from_period without the range check, for T in [0, k * slope]."""
    r = profile._dh_inv(np.minimum(T / k, profile.slope))
    return profile.action(r, k), r


def action_inverse(profile: RadialProfile, alpha, k: float = 1.0):
    """Period T with a_{kH}(T) = alpha; bisection + one Newton step (a' = r).

    Normalized for semi-admissible profiles, where a_{kH} maps [0, k slope]
    onto [0, k c].  alpha is a float (the result is a float) or an array,
    which is bisected as a whole: since a_{kH}'(T) = r(T) >= 1, a_{kH} is
    strictly increasing, so every element keeps the single bracket that at
    most 80 halvings narrow.  One evaluation of a_{kH} covers several
    levels of them: the midpoints of the next K levels of every element's
    bracket, 2^K - 1 per element, within _NODE_BUDGET points (K = 1 for
    more than _NODE_BUDGET / 3 elements).  The bisection stops at the first level
    whose midpoints are all ends of their brackets, so the result is the
    80-halving one (``_bisect``).  An alpha of 0 never settles, so an array
    that holds it takes all 80.  Each level takes the same midpoints and
    the same ``<`` decision per element as one scalar bisection would, and
    the Newton step is applied where r > 1, so every element is the scalar
    result bit for bit.
    """
    if profile.admissible:
        raise ActionOutOfRange(
            "action inversion is normalized for semi-admissible profiles; "
            "shift the profile by its constant first"
        )
    top = k * profile.c
    alpha = np.asarray(alpha, dtype=float)
    bad = _first_outside(alpha, -1e-12, top * (1 + 1e-12))
    if bad is not None:
        raise ActionOutOfRange(f"action {bad:.6g} outside [0, {top:.6g}]")
    alpha = np.minimum(top, np.maximum(0.0, alpha))
    T_max = k * profile.slope
    T = _bisect(lambda T: _action_from_period(profile, T, k)[0], alpha, T_max, 80)
    val, r = _action_from_period(profile, T, k)
    T = np.where(r > 1.0, np.minimum(T_max, np.maximum(0.0, T - (val - alpha) / r)), T)
    return T if T.ndim else float(T)


class DominationCertificate(namedtuple("DominationCertificate", [
        "dominated_margin",     # min over r of H1 - H0 (>= 0 required)
        "max_violation",        # max over T of a_{H1}(T) - a_{H0}(T)
        "ok"])):
    __slots__ = ()


def compare_action_functions(h0: RadialProfile, h1: RadialProfile,
                             grid: int = 2048) -> DominationCertificate:
    """Certify a_{H1} <= a_{H0} on [0, slope(H0)] given H1 >= H0 pointwise."""
    if h1.slope < h0.slope - 1e-12:
        raise NotDominated(f"slope(H1) = {h1.slope} < slope(H0) = {h0.slope}")
    r_hi = max(h0.r_max, h1.r_max) + 1.0
    rs = np.linspace(1e-6, r_hi, grid)
    diff = h1.h(rs) - h0.h(rs)
    margin = float(np.min(diff))
    if margin < -1e-9 * max(1.0, h0.slope):
        raise NotDominated(f"H1 < H0 by {margin:.3e} at r = {float(rs[np.argmin(diff)]):.6g}")
    Ts = np.linspace(0.0, h0.slope, grid)
    viol = float(np.max(action_from_period(h1, Ts)[0] - action_from_period(h0, Ts)[0]))
    return DominationCertificate(dominated_margin=margin, max_violation=viol,
                                 ok=viol <= 1e-9 * max(1.0, h0.c))


class TransferValues(namedtuple("TransferValues", [
        "taus", "values",       # arrays
        "lower_slack",          # min over grid of f(tau) - (tau - lam * h(r_max))
        "upper_slack"])):       # min over grid of tau - f(tau)
    __slots__ = ()


def check_transfer_parameters(k: float, lam: float) -> None:
    """InvalidParameter unless k >= 1 and lam > 0 are both finite reals;
    WrongType where one is no real number."""
    if not (math.isfinite(real("k", k)) and math.isfinite(real("lam", lam))):
        raise InvalidParameter(f"k and lam must be finite, got k = {k}, lam = {lam}")
    if k < 1 or lam <= 0:
        raise InvalidParameter("need k >= 1 and lam > 0")


def transfer_map(profile: RadialProfile, k: float, lam: float,
                 taus: Sequence[float]) -> TransferValues:
    """f = a_{(k+lam)H} o a_{kH}^{-1} on the given action grid.

    Asserts the sandwich tau - lam * h(r_max) <= f(tau) <= tau pointwise and
    monotonicity along the grid, both within _TRANSFER_TOL; the grid must
    be a nonempty 1-D sequence (InvalidParameter otherwise).  a_{kH}^{-1}
    is one ``action_inverse`` call over the grid.  Its bisections, at most
    80 halvings over the periods and, for a spline, 64 per level solve,
    evaluate several levels per call where the array is small: a grid of 2
    taus takes 6 levels of the periods per call, and each level solve then
    gets the 126 periods of that call's tree and takes one level per call,
    as does any grid of more than _NODE_BUDGET / 3 taus.  Each bisection
    stops at its first level whose midpoints are all ends of their
    brackets, so the values are the full one-level counts' bit for bit
    (``_bisect``).  A grid that holds tau = 0 takes all 80.
    """
    check_transfer_parameters(k, lam)
    if profile.admissible:
        raise ActionOutOfRange("the transfer sandwich is stated for semi-admissible profiles")
    taus = np.asarray(list(taus), dtype=float)
    if taus.ndim != 1 or not taus.size:
        raise InvalidParameter(f"tau grid must be a nonempty 1-D sequence, got shape {taus.shape}")
    top = k * profile.c
    if _first_outside(taus, -1e-12, top * (1 + 1e-9)) is not None:
        raise ActionOutOfRange(f"tau grid escapes [0, {top:.6g}]")
    T = action_inverse(profile, np.minimum(top, np.maximum(0.0, taus)), k)
    values = action_from_period(profile, T, k + lam)[0]
    h_top = float(profile.h(profile.r_max))
    upper = float(np.min(taus - values))
    lower = float(np.min(values - (taus - lam * h_top)))
    tol, scale = _TRANSFER_TOL, max(1.0, top)
    if upper < -tol * scale or lower < -tol * scale:
        raise SandwichViolated(
            f"transfer sandwich violated: upper slack {upper:.3e}, lower slack {lower:.3e}"
        )
    order = np.argsort(taus)
    if np.any(np.diff(values[order]) < -tol * scale):
        raise SandwichViolated("transfer map is not monotone on the grid")
    return TransferValues(taus=taus, values=values, lower_slack=lower, upper_slack=upper)


def homotopy_action_derivative(profile: RadialProfile, k: float, lam: float,
                               s: float, T: float) -> float:
    """d/ds of a_{F_s}(T) for F_s = (k + s lam) H; equals -lam * h(r(s)).

    Always in [-lam * h(r_max), 0] for semi-admissible profiles.
    """
    if not 0.0 <= s <= 1.0:
        raise InvalidParameter(f"s = {s} outside [0, 1]")
    if profile.admissible:
        raise PeriodOutOfRange("the derivative identity is normalized for h(1) = 0")
    r = action_from_period(profile, T, k + s * lam)[1]
    return -lam * float(profile.h(r))


def check_action_ratio_monotone(profile: RadialProfile, r0: float) -> bool:
    """True iff A_h(r)/r is nondecreasing on [1, r0], decided as
    h''(1) + c0 >= 0: h''(1) >= -c0 to a relative 1e-12, which absorbs the
    rounding of h''(1) where the two are equal.

    Requires a certified h''' >= 0 region covering [1, r0].  There
    (A_h/r)' = g/r^2 with g = r^2 h'' - r h' + h, whose derivative
    r h'' + r^2 h''' is >= 0, so g >= g(1) = h''(1) + c0: the ratio rises
    if that is >= 0, and falls just past r = 1 if it is < 0.
    """
    if r0 > profile.h_triple_nonneg_up_to + 1e-12:
        raise UncertifiedRegion(
            f"h''' >= 0 certified only up to {profile.h_triple_nonneg_up_to:.6g} < {r0:.6g}"
        )
    if not 1.0 < r0 <= profile.r_max + 1e-12:
        raise BadGeometry(f"r0 = {r0} outside (1, r_max]")
    return float(profile.d2h_shell(1.0)) >= -profile.c0 * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# cylinder traces
# ---------------------------------------------------------------------------

class CylinderTrace(Checked, namedtuple("CylinderTrace", [
        "s_grid", "t_grid",     # float arrays
        "r_values",             # float array of shape (len(s_grid), len(t_grid))
        "r_plus", "r_minus"])):
    """Sampled (s, t) -> r data with declared asymptotic levels."""

    __slots__ = ()

    def __new__(cls, s_grid, t_grid, r_values, r_plus, r_minus):
        s = np.asarray(s_grid, dtype=float)
        t = np.asarray(t_grid, dtype=float)
        r = np.asarray(r_values, dtype=float)
        if r.shape != (s.size, t.size):
            raise MalformedTrace(f"r grid {r.shape} != ({s.size}, {t.size})")
        if s.size < 3 or t.size < 2:
            raise MalformedTrace("need at least 3 s-samples and 2 t-samples")
        if np.any(np.diff(s) <= 0) or np.any(np.diff(t) <= 0):
            raise MalformedTrace("grids must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(r > 0)):
            raise MalformedTrace("r values must be finite and positive")
        if not (math.isfinite(real("r_plus", r_plus))
                and math.isfinite(real("r_minus", r_minus))):
            raise MalformedTrace(f"levels must be finite, got r_plus = {r_plus}, "
                                 f"r_minus = {r_minus}")
        if r_plus < r_minus:
            raise MalformedTrace("r_plus < r_minus")
        return super().__new__(cls, s, t, r, r_plus, r_minus)

    @classmethod
    def from_samples(cls, samples, r_plus: float, r_minus: float) -> "CylinderTrace":
        """Trace from (s, t, r) rows in any order; MalformedTrace unless they
        sample every (s, t) of the grid of their distinct s, t values once."""
        s, t, r = np.asarray(samples, dtype=float).T
        s_grid, i = np.unique(s, return_inverse=True)
        t_grid, j = np.unique(t, return_inverse=True)
        counts = np.zeros((s_grid.size, t_grid.size), dtype=int)
        np.add.at(counts, (i, j), 1)
        if np.any(counts != 1):
            a, b = np.argwhere(counts != 1)[0]
            raise MalformedTrace(f"(s, t) = ({s_grid[a]:g}, {t_grid[b]:g}) is sampled "
                                 f"{counts[a, b]} times, not once")
        grid = np.empty((s_grid.size, t_grid.size))
        grid[i, j] = r
        return cls(s_grid, t_grid, grid, r_plus, r_minus)


class TraceReport(JsonFields, namedtuple("TraceReport", [
        "max_principle_ok",
        "monotonicity_ok",          # every slice rises to at least r_minus
        "average_inequality_ok",    # discrete d/ds of the t-average of r
        "time_below_ok",            # mu(s, rho) * rho <= r_plus E / A(r_plus)
        "details"])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.max_principle_ok and self.monotonicity_ok
                and self.average_inequality_ok and self.time_below_ok)

    def to_json(self) -> dict:
        return {**super().to_json(), "ok": self.ok}


def check_cylinder_trace(trace: CylinderTrace, profile: RadialProfile, k: float,
                         tol: float = 1e-6) -> TraceReport:
    """Validate sampled cylinder data against the level and energy inequalities.

    This is a data validator, not a solver: all derivatives are discrete and
    the tolerance absorbs the finite differencing error of smooth traces.
    """
    if not math.isfinite(k):
        raise MalformedTrace(f"iteration order k must be finite, got {k}")
    s, t, r = trace.s_grid, trace.t_grid, trace.r_values
    span = t[-1] - t[0]
    if abs(span - k) > 1e-9 * max(1.0, k):
        raise MalformedTrace(f"t grid spans {span:.6g}, expected the iteration order {k}")
    slice_max = r.max(axis=1)
    scale = max(1.0, trace.r_plus)
    max_ok = bool(np.all(slice_max <= trace.r_plus + tol * scale))
    mono_ok = bool(np.all(slice_max >= trace.r_minus - tol * scale))

    A_minus = float(profile.action(trace.r_minus))
    avg = np.trapezoid(r, t, axis=1)
    rhs = -k * A_minus + np.trapezoid(profile.action(r), t, axis=1)
    davg = (avg[2:] - avg[:-2]) / (s[2:] - s[:-2])
    avg_ok = bool(np.all(davg <= rhs[1:-1] + tol * max(1.0, k)))

    A_plus = float(profile.action(trace.r_plus))
    energy = k * (A_plus - A_minus)
    budget = trace.r_plus * energy / A_plus if A_plus > 0 else math.inf
    below_ok = True
    worst = 0.0
    for rho in np.linspace(0.0, trace.r_plus - float(r.min()), 17)[1:]:
        level = trace.r_plus - rho
        frac = (r <= level).mean(axis=1)          # fraction of the t-circle below
        mu = frac * k
        excess = float(np.max(mu * rho)) - budget
        worst = max(worst, excess)
        if excess > tol * max(1.0, budget):
            below_ok = False
    return TraceReport(
        max_principle_ok=max_ok,
        monotonicity_ok=mono_ok,
        average_inequality_ok=avg_ok,
        time_below_ok=below_ok,
        details={
            "energy": energy,
            "time_below_worst_excess": worst,
            "max_level": float(slice_max.max()),
            "min_level": float(r.min()),
        },
    )


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class ActionTables(namedtuple("ActionTables", [
        "r_rows",       # (r, h, h', h'', A_h)
        "t_rows"])):    # (T, a_H(T), r(T))
    __slots__ = ()

    CSV_HEADER = ("table", "x", "h", "dh", "d2h", "A", "level")

    def csv_rows(self) -> list:
        """Rows of ``hamiltonian --tables --out x.csv`` under CSV_HEADER:
        level rows (r, h, h', h'', A), then period rows (T, action, solved
        level)."""
        return ([("r", *row, "") for row in self.r_rows]
                + [("T", T, "", "", "", v, r) for (T, v, r) in self.t_rows])


def action_tables(profile: RadialProfile, grid: int = 256) -> ActionTables:
    """Level and period rows on grid points each, from r = 1 to r_max and
    from T = 0 to the slope; InvalidParameter for fewer than two points."""
    if grid < 2:
        raise InvalidParameter(f"grid must be at least 2, got {grid}")
    rs = np.linspace(1.0, profile.r_max, grid)
    r_rows = list(zip(rs.tolist(), profile.h(rs).tolist(), profile.dh(rs).tolist(),
                      profile.d2h(rs).tolist(), profile.action(rs).tolist()))
    Ts = np.linspace(0.0, profile.slope, grid)
    values, levels = action_from_period(profile, Ts)
    t_rows = list(zip(Ts.tolist(), values.tolist(), levels.tolist()))
    return ActionTables(r_rows=r_rows, t_rows=t_rows)
