"""Closed-form ellipsoid Reeb models.

Normalization: the ellipsoid with weights a_1 <= ... <= a_n has simple closed
orbits gamma_j in the coordinate planes with periods T_j = pi * a_j, and the
linearized return map of gamma_j rotates the i-th transverse plane by
2 pi a_j / a_i.  Every serialized artifact carries this convention tag, since
other normalizations are in circulation.

Iterate indices of gamma_j come out as
mu(gamma_j^k) = (n - 1) + 2 * sum_i floor(k a_j / a_i)  (the i = j term gives 2k);
these closed forms are validated against the sampled-path index oracle in the
test suite rather than asserted.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .errors import Checked, DegenerateEllipsoid, HypothesisFailed, InvalidParameter
from .indices import IterationProfile, SystemOrbit, check_dynamical_convexity

CONVENTION = "periods=pi*a_j; return-map angles 2*pi*a_j/a_i"

#: continued-fraction rationality detection: stop when the remainder drops
#: below this, give up when the denominator exceeds the cap.
_CF_REMAINDER = 1e-10
_CF_DENOMINATOR_CAP = 10 ** 6

#: the most periods action_spectrum lists, sum_j t_max / T_j
_SPECTRUM_CAP = 10 ** 6

#: slope_valid's guard band: a period within _SLOPE_BAND * max(1, slope) of
#: the slope makes it invalid
_SLOPE_BAND = 1e-9


def detect_rational(x: float):
    """Continued-fraction expansion of x; returns (Fraction, capped_flag).

    The Fraction is None when no expansion with denominator below the cap
    terminates; capped_flag marks that the cap (not termination) stopped us,
    in which case "irrational" is a policy verdict, not a certainty.
    """
    if x <= 0:
        raise InvalidParameter(f"ratio must be positive, got {x}")
    (p0, q0), (p1, q1) = (0, 1), (1, 0)     # the convergents -2 and -1
    y = x
    for _ in range(64):
        a = math.floor(y)
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        if q1 > _CF_DENOMINATOR_CAP:
            return None, True
        rem = y - a
        if rem < _CF_REMAINDER * max(1.0, abs(y)):
            return Fraction(p1, q1), False
        y = 1.0 / rem
    return None, True


class EllipsoidSpec(Checked, namedtuple("EllipsoidSpec", "weights")):
    """Sorted positive weights; ratio rationality decided by continued fractions."""

    __slots__ = ()

    def __new__(cls, weights):
        w = tuple(float(v) for v in weights)
        if not w or not all(0 < v < math.inf for v in w):
            raise InvalidParameter(f"weights must be positive and finite, got {w}")
        if any(b < a for a, b in zip(w, w[1:])):
            raise InvalidParameter("weights must be sorted ascending")
        return super().__new__(cls, w)

    @property
    def n(self) -> int:
        return len(self.weights)

    def ratio_rational(self, j: int, i: int) -> bool:
        """Is a_j / a_i rational under the detection policy? 1-based indices."""
        frac, _capped = detect_rational(self.weights[j - 1] / self.weights[i - 1])
        return frac is not None

    @property
    def irrational(self) -> bool:
        """True iff every off-diagonal ratio is (policy-)irrational."""
        return not any(
            self.ratio_rational(j, i)
            for j in range(1, self.n + 1) for i in range(1, self.n + 1) if i != j
        )

    def to_json(self) -> dict:
        return {"weights": list(self.weights), "convention": CONVENTION}


def ellipsoid_periods(spec: EllipsoidSpec) -> list:
    return [math.pi * a for a in spec.weights]


def ellipsoid_profile(spec: EllipsoidSpec, j: int) -> IterationProfile:
    """Iteration profile of the j-th simple orbit (1-based).

    The orbit's own plane contributes a loop of index 2 per iteration; each
    transverse plane an elliptic rotation number a_j / a_i.  Rational ratios
    make iterate indices degenerate and are rejected.
    """
    if not 1 <= j <= spec.n:
        raise InvalidParameter(f"orbit index {j} outside 1..{spec.n}")
    angles = []
    for i in range(1, spec.n + 1):
        if i == j:
            continue
        if spec.ratio_rational(j, i):
            raise DegenerateEllipsoid(
                f"ratio a_{j}/a_{i} = {spec.weights[j-1]/spec.weights[i-1]:.9g} is rational"
            )
        angles.append(spec.weights[j - 1] / spec.weights[i - 1])
    return IterationProfile(loop_index=2, elliptic=tuple(angles))


def action_spectrum(spec: EllipsoidSpec, t_max: float) -> list:
    """All orbit periods k * T_j in (0, t_max], as sorted rows (value, orbit,
    multiple): the period k T_j of the 1-based orbit j's k-th iterate; ties
    ordered by (j, k).  A t_max with more than _SPECTRUM_CAP of them, sum_j
    t_max / T_j, raises InvalidParameter before any is listed.  Each row is
    made once, and the rows sort as the tuples they are.  The cyclic garbage
    collector stops tracking a plain tuple of atomic values the first time
    it sees one, so later collections do not walk a long spectrum again."""
    if not 0 < t_max < math.inf:
        raise InvalidParameter(f"t_max must be positive and finite, got {t_max}")
    if not sum(t_max / T for T in ellipsoid_periods(spec)) <= _SPECTRUM_CAP:
        raise InvalidParameter(f"spectrum below {t_max} holds more than {_SPECTRUM_CAP} periods")
    rows = []
    for j, T in enumerate(ellipsoid_periods(spec), start=1):
        k = 1
        while k * T <= t_max:
            rows.append((k * T, j, k))
            k += 1
    rows.sort()
    return rows


def slope_valid(spec: EllipsoidSpec, slope: float) -> bool:
    """True iff the slope avoids the action spectrum within the guard band
    _SLOPE_BAND.  If a period k * T_j lies in the band, the one nearest the
    slope does, so only k = floor(slope / T_j) - 1 ... + 2 are checked, not
    the spectrum."""
    if not math.isfinite(slope):
        raise InvalidParameter(f"slope must be finite, got {slope}")
    if slope <= 0:
        return False
    t_max = slope * (1.0 + 2.0 * _SLOPE_BAND) + _SLOPE_BAND
    for T in ellipsoid_periods(spec):
        if not slope / T < math.inf:
            raise InvalidParameter(f"slope {slope} over the period {T} overflows a float")
        near = math.floor(slope / T)
        for k in range(max(1, near - 1), near + 3):
            if k * T <= t_max and abs(slope - k * T) <= _SLOPE_BAND * max(1.0, slope):
                return False
    return True


class PseudoRotationSeed(namedtuple("PseudoRotationSeed", [
        "orbits", "n",
        "convexity"])):     # a ConvexityReport
    """The finitely many simple orbits of an irrational ellipsoid, packaged."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "convention": CONVENTION,
            # irrational weights: every iterate of every orbit is nondegenerate
            "orbits": [{**o.to_json(), "nondegenerate": True} for o in self.orbits],
            "convexity": self.convexity.to_json(),
        }


def pseudo_rotation_instance(spec: EllipsoidSpec, k_max: int = 100,
                             locally_maximal: Optional[int] = None) -> PseudoRotationSeed:
    """Package the n simple orbits with profiles and the convexity report.

    Ellipsoids are dynamically convex; a failing report raises
    HypothesisFailed.  Mark one orbit (1-based) locally maximal to seed a
    pseudo-rotation audit.
    """
    if not spec.irrational:
        raise DegenerateEllipsoid("some weight ratio is rational")
    n = spec.n
    periods = ellipsoid_periods(spec)
    orbits = []
    for j in range(1, n + 1):
        orbits.append(SystemOrbit(
            period=periods[j - 1],
            profile=ellipsoid_profile(spec, j),
            locally_maximal=(locally_maximal == j),
        ))
    report = check_dynamical_convexity([(o.profile, k_max) for o in orbits], n)
    if not report.ok:
        raise HypothesisFailed(
            f"ellipsoid failed dynamical convexity: {report.witnesses[:3]}")
    return PseudoRotationSeed(orbits=tuple(orbits), n=n, convexity=report)

