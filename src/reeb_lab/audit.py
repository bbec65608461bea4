"""Mechanized exclusion bookkeeping for orbit systems.

Given finitely many closed orbits (a distinguished one plus companions), a
radial Hamiltonian and the recurrence solutions for their profiles, this
module certifies, pair by pair, why no short arrow can reach the protected
generator of the distinguished orbit's k-th iterate:

* same-pair      -- the two generators of one orbit are never joined;
* index-gap      -- the degree distance to the companion's support is >= 2;
* short-action-gap    -- the action gap is below the crossing-energy floor
                         sigma, so any arrow would be too cheap to exist;
* diverging-action-gap -- the action gap admits the lower bound
                          c1 c2 (j delta - eta), growing along solutions.

Everything is evaluated in normalized units where the distinguished period
equals its mean index (periods are rescaled internally; raw and normalized
quantities are both reported).  A pair that fits no reason raises
NotExcluded with its full numeric context; the audit then fails.

Modes: "hyperbolic" protects the upper generator and allows degenerate
companions meeting mu_- >= max(3, 2 + nu_a); "hyperbolic_lower" is the
variant protecting the lower generator under mu_- >= 3 + nu_a;
"pseudo_rotation" requires nondegenerate, dynamically convex data and picks
the protected generator per the sign of mean(z^k) - d.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AuditFailed,
    BadGeometry,
    Checked,
    HypothesisFailed,
    InvalidParameter,
    IterateUnderflow,
    JOutOfRange,
    JsonFields,
    MalformedInput,
    NotExcluded,
    ShellMarginNotFound,
    integer,
    json_field,
    json_object,
    real,
)
from .hamiltonian import RadialProfile, profile_from_json
from .indices import (
    IterationProfile,
    SystemOrbit,
    _fits_int64,
    _support_bounds,
    _support_escape,
    index_triple,
)
from .recurrence import (
    RecurrenceQuery,
    RecurrenceSolution,
    _Iterates,
    _orders_at,
    _r1,
    recurrence_search,
)

MODES = ("hyperbolic", "hyperbolic_lower", "pseudo_rotation")

CASE_SAME = "same-orbit"
CASE_ALIGNED = "aligned-iterate"
CASE_NEAR = "near-iterate"
CASE_FAR = "far-iterate"

_RESONANCE_TOL = 1e-9

def _nested(loader, obj, key: str, where: str):
    """Load the JSON object obj[key] with loader, putting where in front of
    its MalformedInput messages."""
    value = json_field(obj, key, dict, where)
    try:
        return loader(value)
    except MalformedInput as exc:
        raise MalformedInput(f"{where}: {exc}") from exc


def _orbit_from_json(obj: dict, where: str) -> SystemOrbit:
    """A SystemOrbit from its JSON object, with MalformedInput messages that
    start with where; the flags must be JSON booleans."""
    json_object(obj, ("period", "profile", "hyperbolic", "locally_maximal"), where)
    return SystemOrbit(period=json_field(obj, "period", float, where),
                       profile=_nested(IterationProfile.from_json, obj, "profile", where),
                       **{flag: json_field(obj, flag, bool, where) for flag
                          in ("hyperbolic", "locally_maximal") if flag in obj})


class DerivedConstants(JsonFields, namedtuple("DerivedConstants", [
        "r_star",       # level of the distinguished orbit, normalized units
        "C1",           # 2 * d(h')^{-1}/dT at the distinguished period
        "C2",           # max of |A_h'| = r h'' over [1, r_max]
        "c1",           # min of |d(h')^{-1}/dT| over [0, slope]
        "c2",           # min of |A_h'| over the margin shell
        "xi",           # shell margin: all orbit levels in [1+xi, r_max-xi]
        "C",            # C1 * C2 (normalized units, T0 = mean(z))
        "C_raw",        # the same constant computed on raw periods
        "levels"])):    # asymptotic aligned levels per companion orbit
    __slots__ = ()


class OrbitSystem(Checked, namedtuple("OrbitSystem", [
        "orbits", "hamiltonian", "n", "sigma", "eta", "ell0", "cbar",
        "mode",             # one of MODES
        "b_level"],         # the vanishing level as given, or None
        defaults=("hyperbolic", None))):
    """Orbits (SystemOrbit, the distinguished one first), a RadialProfile
    and the audit's constants, checked.  Construction derives scale,
    norm_periods, derived (DerivedConstants), A_star and b."""

    def __init__(self, *args, **kwargs):
        if self.mode not in MODES:
            raise InvalidParameter(f"mode must be one of {MODES}")
        if not self.orbits:
            raise InvalidParameter("need at least one orbit")
        if integer("n", self.n) < 2:
            raise BadGeometry(f"ambient half-dimension n = {self.n} < 2")
        if self.hamiltonian.admissible:
            raise BadGeometry("the audit is normalized for semi-admissible profiles")
        for pos, o in enumerate(self.orbits):
            if o.profile.dim_half != self.n - 1:
                raise BadGeometry(
                    f"orbit {pos}: profile half-dimension {o.profile.dim_half} != n-1"
                )
            if o.profile.mean_index(1) <= 0:
                raise HypothesisFailed(f"orbit {pos} has nonpositive mean index")
            if o.period <= 0:
                raise BadGeometry(f"orbit {pos} has nonpositive period")
        if not (0 < real("sigma", self.sigma) < math.inf
                and 0 < real("cbar", self.cbar) < math.inf):
            raise BadGeometry("sigma and cbar must be positive and finite")
        if not 0.0 < real("eta", self.eta) < 0.5:
            raise BadGeometry(f"eta = {self.eta} outside (0, 1/2)")

        z = self.orbits[0]
        mean_z = z.profile.mean_index(1)
        ell0 = integer("ell0", self.ell0)
        if not _fits_int64(z.profile, ell0):   # nor could np.arange list the iterates
            raise InvalidParameter(f"indices of iterate {ell0} leave int64")
        ells = np.arange(1, max(ell0, 0) + 1, dtype=np.int64)
        if self.mode in ("hyperbolic", "hyperbolic_lower"):
            if not z.hyperbolic or z.profile.elliptic or z.profile.degenerate:
                raise HypothesisFailed(
                    "the distinguished orbit must be hyperbolic (integer indices)"
                )
            if index_triple(z.profile, 1).mu_minus < 3:
                raise HypothesisFailed("the distinguished orbit needs index >= 3")
            floor_needed = (self.n + 3) / min(
                o.profile.mean_index(1) for o in self.orbits[1:]
            ) if len(self.orbits) > 1 else 0.0
            if self.ell0 <= floor_needed:
                raise HypothesisFailed(
                    f"ell0 = {self.ell0} <= (n+3)/min mean = {floor_needed:.6g}"
                )
            for pos, o in enumerate(self.orbits):
                t = index_triple(o.profile, ells)
                mu, nu = t.mu_minus, t.nu_a
                need = 3 + nu if self.mode == "hyperbolic_lower" else np.maximum(3, 2 + nu)
                if (mu < need).any():
                    e = int(np.argmax(mu < need))
                    raise HypothesisFailed(
                        f"orbit {pos} iterate {e + 1}: mu_- = {mu[e]} < {need[e]}")
        else:
            if not z.locally_maximal:
                raise HypothesisFailed(
                    "pseudo-rotation mode: the first orbit must be marked locally maximal"
                )
            for pos, o in enumerate(self.orbits):
                if o.profile.degenerate is not None:
                    raise HypothesisFailed(f"orbit {pos} is degenerate")
                t = index_triple(o.profile, ells)
                degenerate = t.nu_a > 0
                bad = degenerate | (t.mu_minus < self.n + 1)
                if bad.any():
                    e = int(np.argmax(bad))
                    what = "degenerate" if degenerate[e] else "breaks dynamical convexity"
                    raise HypothesisFailed(f"orbit {pos} iterate {e + 1} {what}")
            if self.ell0 != self.n + 1:
                raise BadGeometry(f"pseudo-rotation mode fixes ell0 = n + 1 = {self.n + 1}")

        # normalization: rescale periods so the distinguished one equals its mean index
        scale = mean_z / z.period
        norm = tuple(o.period * scale for o in self.orbits)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "norm_periods", norm)

        a = self.hamiltonian.slope
        for label, periods in (("raw", [o.period for o in self.orbits]),
                               ("normalized", list(norm))):
            if max(periods) >= a:
                raise BadGeometry(f"slope {a} does not exceed the {label} periods")
            for pos, (o, T) in enumerate(zip(self.orbits, periods)):
                if mean_z * T / o.profile.mean_index(1) >= a:
                    raise BadGeometry(f"slope too small for orbit {pos} ({label} resonant level)")

        object.__setattr__(self, "derived", _derive_constants(self))
        if self.derived.C * self.eta >= self.sigma:
            raise BadGeometry(
                f"C * eta = {self.derived.C * self.eta:.6g} >= sigma = {self.sigma:.6g}"
            )
        A_star = float(self.hamiltonian.action(self.derived.r_star))
        b = self.b_level if self.b_level is not None else 0.5 * (A_star + a)
        if not A_star < b < a:
            raise BadGeometry(f"vanishing level b = {b:.6g} outside ({A_star:.6g}, {a:.6g})")
        object.__setattr__(self, "A_star", A_star)    # A_h(r_star), unserialised as b
        object.__setattr__(self, "b", b)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "orbits": [o.to_json() for o in self.orbits],
            "hamiltonian": self.hamiltonian.to_json(),
            "n": self.n,
            "constants": {"sigma": self.sigma, "eta": self.eta, "ell0": self.ell0,
                          "cbar": self.cbar, "b": self.b_level},
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrbitSystem":
        """Raises MalformedInput on a missing or unknown key or a value of the
        wrong type."""
        where = "orbit system"
        json_object(obj, ("orbits", "hamiltonian", "n", "constants", "mode"), where)
        consts = json_object(json_field(obj, "constants", dict, where),
                             ("sigma", "eta", "ell0", "cbar", "b"), "constants")
        if consts.get("b") is not None:
            json_field(consts, "b", float, "constants")     # kept as given
        return cls(
            orbits=tuple(_orbit_from_json(o, f"orbit {pos}") for pos, o
                         in enumerate(json_field(obj, "orbits", list, where))),
            hamiltonian=_nested(profile_from_json, obj, "hamiltonian", where),
            n=json_field(obj, "n", int, where),
            sigma=json_field(consts, "sigma", float, "constants"),
            eta=json_field(consts, "eta", float, "constants"),
            ell0=json_field(consts, "ell0", int, "constants"),
            cbar=json_field(consts, "cbar", float, "constants"),
            mode=obj.get("mode", "hyperbolic"),
            b_level=consts.get("b"),
        )


def _derive_constants(system: OrbitSystem) -> DerivedConstants:
    H = system.hamiltonian
    z = system.orbits[0]
    mean_z = z.profile.mean_index(1)
    T0 = system.norm_periods[0]            # equals mean_z by construction

    # h'' and |A_h'| = r h'' are >= 0 on the certified shell
    rs, d2 = H.d2h_extremes(1.0, H.r_max)
    C2 = float(np.max(rs * d2))
    d2_max = float(np.max(d2))
    if d2_max <= 0:
        raise ShellMarginNotFound("h'' vanishes on the whole shell")
    c1 = 1.0 / d2_max

    r_star = float(H.dh_inv(T0))
    d2_star = float(H.d2h_shell(r_star))
    if d2_star <= 0:
        raise ShellMarginNotFound(f"h''(r_star) = {d2_star:.3e} <= 0")
    C1 = 2.0 / d2_star

    # OrbitSystem.__init__ has put these level arguments and the raw period z.period
    # below the slope
    levels = []
    for o, Tn in zip(system.orbits[1:], system.norm_periods[1:]):
        levels.append(float(H.dh_inv(mean_z * Tn / o.profile.mean_index(1))))
    pts = [r_star, *levels]
    xi_max = min(min(p - 1.0 for p in pts), min(H.r_max - p for p in pts))
    if xi_max <= 0:
        raise ShellMarginNotFound(f"orbit levels {pts} touch the shell boundary [1, {H.r_max}]")
    xi = 0.5 * xi_max
    rs, d2 = H.d2h_extremes(1.0 + xi, H.r_max - xi)
    c2 = float(np.min(rs * d2))
    if c2 <= 0:
        raise ShellMarginNotFound(f"|A'| minimum {c2:.3e} <= 0 on the margin shell")

    r_star_raw = float(H.dh_inv(z.period))
    d2_raw = float(H.d2h_shell(r_star_raw))
    C1_raw = 2.0 / d2_raw if d2_raw > 0 else math.inf
    return DerivedConstants(
        r_star=r_star, C1=C1, C2=C2, c1=c1, c2=c2, xi=xi,
        C=C1 * C2,
        C_raw=C1_raw * C2 * z.period / mean_z,
        levels=tuple(levels),
    )


def resonance_classify(system: OrbitSystem, i: int):
    """('resonant', None) or ('nonresonant', delta) for companion i >= 1.

    delta is the normalized period defect |T'_i - mean(x_i)|; the raw defect
    is delta / scale.
    """
    if i < 1 or i >= len(system.orbits):
        raise JOutOfRange(f"companion index {i} outside 1..{len(system.orbits) - 1}")
    z = system.orbits[0]
    x = system.orbits[i]
    mean_z = z.profile.mean_index(1)
    mean_x = x.profile.mean_index(1)
    lhs = x.period * mean_z
    rhs = z.period * mean_x
    if abs(lhs - rhs) <= _RESONANCE_TOL * max(1.0, abs(rhs)):
        return ("resonant", None)
    delta = abs(system.norm_periods[i] - mean_x)
    return ("nonresonant", delta)


def j_range(system: OrbitSystem, solution: RecurrenceSolution, i: int) -> int:
    """Largest admissible iterate j of companion i at Hamiltonian order k:
    the floor of the exact quotient k * slope / T'_i.  Its float value
    rounds two or three times (k past 2^53), so it lies within 3 ulps of
    the exact one, and its floor is exact unless it lies within 4 ulps of an
    integer; there the quotient is taken in Fractions."""
    k = solution.k[0]
    slope, period = system.hamiltonian.slope, system.norm_periods[i]
    q = k * slope / period
    if abs(q - round(q)) > 4 * math.ulp(q):
        return math.floor(q)
    return math.floor(Fraction(k) * Fraction(slope) / Fraction(period))


def case_classify(system: OrbitSystem, solution: RecurrenceSolution,
                  i: int, j: int, top: int) -> str:
    """The case of the pair (i, j); top is j_range(system, solution, i).
    Raises JOutOfRange for an orbit or a j outside the solution."""
    if not 0 <= i < len(system.orbits):
        raise JOutOfRange(f"orbit index {i} out of range")
    if not 1 <= j <= top:
        raise JOutOfRange(f"j = {j} outside [1, {top}] for orbit {i}")
    if i == 0:
        return CASE_SAME
    l = j - solution.k[i]
    if l == 0:
        return CASE_ALIGNED
    if abs(l) > system.ell0:
        return CASE_FAR
    return CASE_NEAR


class ExclusionReason(JsonFields, namedtuple("ExclusionReason", [
        "kind",     # same-pair | index-gap | short-action-gap | diverging-action-gap
        "case", "i", "j",
        "numbers"])):
    """The reason one pair (i, j) is excluded; numbers defaults to a new
    empty dict per instance."""

    __slots__ = ()

    def __new__(cls, kind: str, case: str, i: int, j: int, numbers=None):
        return super().__new__(cls, kind, case, i, j, {} if numbers is None else numbers)


def _index_tables(system: OrbitSystem, solutions: Sequence[RecurrenceSolution]) -> list:
    """One index_triple call per orbit i, over its iterates 1..N_i, N_i the
    largest j_range and k_i + ell0 over the solutions: every index the
    audit of these solutions reads, its supplied-solution check (k_i +- ell
    and 1..ell0), its sweeps and the protected degree (k_0 <= N_0)."""
    return [index_triple(o.profile, np.arange(1, max(
        max(j_range(system, s, i), s.k[i] + system.ell0) for s in solutions) + 1,
        dtype=np.int64)) for i, o in enumerate(system.orbits)]


def _protected_degree(system: OrbitSystem, solution: RecurrenceSolution,
                      mu_minus: int) -> tuple:
    """(degree, which) of the protected generator of the distinguished
    iterate, whose mu_- is mu_minus."""
    if system.mode == "hyperbolic":
        return mu_minus + 1, "upper"
    if system.mode == "hyperbolic_lower":
        return mu_minus, "lower"
    if solution.d <= system.orbits[0].profile.mean_index(solution.k[0]):
        return mu_minus, "lower"
    return mu_minus + 1, "upper"


def _aligned_certificate(system: OrbitSystem, solution: RecurrenceSolution,
                         i: int, j: int, level: tuple) -> ExclusionReason:
    """The certificate of the aligned pair (i, j), whose level r and action
    A_h(r) are level (_audit_solution)."""
    H = system.hamiltonian
    k = solution.k[0]
    dc = system.derived
    kind, delta = resonance_classify(system, i)
    r_level, action = level
    gap = k * abs(action - system.A_star)
    numbers = {
        "r_level": r_level, "r_star": dc.r_star, "action_gap": gap,
        "sigma": system.sigma, "resonance": kind,
    }
    if gap < system.sigma:
        if kind == "resonant":
            numbers["apriori_bound"] = dc.C * system.eta
            numbers["apriori_ok"] = bool(gap <= dc.C * system.eta + 1e-9)
        return ExclusionReason(kind="short-action-gap", case=CASE_ALIGNED,
                               i=i, j=j, numbers=numbers)
    if kind == "resonant":
        raise NotExcluded(
            f"resonant companion {i} at j = {j} has action gap {gap:.6g} >= "
            f"sigma = {system.sigma:.6g}",
            numbers)
    bound = dc.c1 * dc.c2 * (j * delta - system.eta)
    in_shell = 1.0 + dc.xi <= r_level <= H.r_max - dc.xi
    numbers.update({
        "delta": delta, "lower_bound": bound,
        "bound_valid": bool(gap >= bound - 1e-9 * max(1.0, bound)),
        "level_in_shell": bool(in_shell),
    })
    if bound <= 0 or not numbers["bound_valid"]:
        raise NotExcluded(
            f"diverging bound {bound:.6g} not usable for companion {i} at j = {j}",
            numbers)
    return ExclusionReason(kind="diverging-action-gap", case=CASE_ALIGNED,
                           i=i, j=j, numbers=numbers)


# ---------------------------------------------------------------------------
# the audit driver
# ---------------------------------------------------------------------------

class SolutionAudit(JsonFields, namedtuple("SolutionAudit", [
        "d", "k",
        "counts",               # kind -> number of pairs
        "min_index_gap",        # an int, or None
        "min_diverging_gap",    # a float, or None
        "aligned",              # explicit certificates for aligned pairs
        "near",                 # explicit certificates for near pairs
        "protected",            # degree and which generator
        "w_vertex_gap_ok",
        "contradiction",        # vanishing-window bookkeeping
        "total_pairs"])):
    __slots__ = ()


class AuditReport(JsonFields, namedtuple("AuditReport", [
        "mode", "n", "constants", "normalization",
        "solutions",            # SolutionAudit per recurrence solution
        "diverging_trend_ok", "certified_pairs", "total_pairs"])):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.certified_pairs == self.total_pairs

    def to_json(self) -> dict:
        return {**super().to_json(), "ok": self.ok}

    def text_summary(self) -> str:
        lines = [
            f"audit mode={self.mode} n={self.n}: "
            f"{self.certified_pairs}/{self.total_pairs} pairs certified",
            f"constants: {json.dumps(self.constants, sort_keys=True)}",
        ]
        for s in self.solutions:
            div = "-" if s.min_diverging_gap is None else f"{s.min_diverging_gap:.4g}"
            lines.append(
                f"  d={s.d} k={list(s.k)} pairs={s.total_pairs} "
                f"counts={s.counts} min_div_gap={div} "
                f"contradiction_ready={s.contradiction['ready']}"
            )
        lines.append(f"diverging trend nondecreasing: {self.diverging_trend_ok}")
        return "\n".join(lines)


def audit(system: OrbitSystem, solutions: Optional[Sequence[RecurrenceSolution]] = None,
          count: int = 3, k_bound: int = 10 ** 6) -> AuditReport:
    """Run the full exclusion sweep over recurrence solutions: one
    _audit_solution per solution, which certifies its every pair.

    Searches for solutions when none are supplied.  Raises AuditFailed when
    there is no solution to audit, found or supplied, when a supplied
    solution fails R1-R3 at the system's eta and ell0 (the constants every
    pair is audited at, whatever the solution's own), and on the first
    NotExcluded pair, with that NotExcluded as its first_failure and its
    message as the AuditFailed's, with no prefix of its own.  R1-R3
    are decided by _Iterates.ok, in the search and for supplied solutions
    alike; no certificate records are built.  Every index the audit reads
    comes from one index_triple call per orbit (_index_tables), made once
    the solutions are known and, when supplied, have passed R1.
    """
    if solutions is None:
        result = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in system.orbits), eta=system.eta,
            ell0=system.ell0, n_divisor=1, k_bound=k_bound, count=count))
        solutions = list(result.solutions)
        if not solutions:
            raise AuditFailed("no recurrence solutions below the horizon")
        tables = _index_tables(system, solutions)
    elif not solutions:
        raise AuditFailed("no recurrence solutions supplied")
    else:
        tables = _checked_tables(system, solutions)

    try:
        audits = [_audit_solution(system, s, tables) for s in solutions]
    except NotExcluded as exc:
        raise AuditFailed(str(exc), first_failure=exc) from exc

    gaps = [a.min_diverging_gap for a in audits if a.min_diverging_gap is not None]
    trend_ok = all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
    report = AuditReport(
        mode=system.mode, n=system.n,
        constants={"sigma": system.sigma, "eta": system.eta, "ell0": system.ell0,
                   "cbar": system.cbar, "b": system.b,
                   **system.derived.to_json()},
        normalization={"scale": system.scale,
                       "periods_raw": [o.period for o in system.orbits],
                       "periods_normalized": list(system.norm_periods)},
        solutions=tuple(audits),
        diverging_trend_ok=trend_ok,
        certified_pairs=sum(sum(a.counts.values()) for a in audits),
        total_pairs=sum(a.total_pairs for a in audits),
    )
    return report


def _checked_tables(system: OrbitSystem, solutions: Sequence[RecurrenceSolution]) -> list:
    """_index_tables of supplied solutions that pass R1-R3 at the system's
    eta and ell0.  Before any index is computed, each solution in turn
    needs one k_i per orbit (InvalidParameter) and every k_i > ell0 and R1
    (AuditFailed); so no table is sized from a solution that fails R1.  On
    the tables, one _Iterates per orbit over all the solutions decides
    R2-R3, and the first solution that fails raises AuditFailed."""
    profiles = [o.profile for o in system.orbits]
    eta, ell0 = system.eta, system.ell0
    for s in solutions:
        try:
            ks = _orders_at(profiles, s.k, ell0)
            ok = all(_r1(p.mean_index(k), s.d, eta) for p, k in zip(profiles, ks))
        except IterateUnderflow:     # some k_i <= the system's ell0
            ok = False
        if not ok:
            raise _unverified(system, s)
    tables = _index_tables(system, solutions)
    d = np.array([s.d for s in solutions], dtype=np.int64)
    ok = np.ones(d.size, dtype=bool)
    for i, (p, t) in enumerate(zip(profiles, tables)):
        ks = np.array([s.k[i] for s in solutions], dtype=np.int64)
        ok &= _Iterates(p, d, ks, eta, ell0, t).ok
    if not ok.all():
        raise _unverified(system, solutions[int(np.argmin(ok))])
    return tables


def _unverified(system: OrbitSystem, solution: RecurrenceSolution) -> AuditFailed:
    return AuditFailed(f"supplied solution d={solution.d} fails verification at "
                       f"eta={system.eta}, ell0={system.ell0}")


def _audit_solution(system: OrbitSystem, solution: RecurrenceSolution,
                    tables: list) -> SolutionAudit:
    """Certify every pair (i, j) of one solution, j = 1..j_range of orbit i,
    from index tables that cover it (_index_tables of solutions that
    include this one).

    The protected generator's degree comes from the distinguished orbit's
    row k_0 (_protected_degree).  The aligned level of each companion i
    whose k_i is at most its j_range, r = (h')^{-1}(k_i T'_i / k_0), and
    its action A_h(r) take one dh_inv and one action call over all those
    companions; both are elementwise, so each level is what a call on its
    one period gives.  Then one sweep per orbit reads the support rows
    1..j_range of its table.  Every pair but the centre (k_0 on the
    distinguished orbit, the aligned k_i on a companion) is an index-gap
    pair; the report lists the certificates of the aligned pairs and of
    the near pairs 0 < |j - k_i| <= ell0, whose recurrence floors and
    ceilings are read from the table's rows 1..ell0.  The first pair in
    (i, j) order that fails raises SupportOutOfRange, when its support row
    escapes, or NotExcluded, once every listed pair before it is certified.
    """
    k = solution.k[0]
    tops = [j_range(system, solution, i) for i in range(len(system.orbits))]
    protected, which = _protected_degree(system, solution, int(tables[0].mu_minus[k - 1]))
    levels = {}
    placed = [i for i in range(1, len(tops)) if 1 <= solution.k[i] <= tops[i]]
    if placed:
        H = system.hamiltonian
        r = H.dh_inv(np.array([solution.k[i] * system.norm_periods[i] / k for i in placed]))
        levels = dict(zip(placed, zip(r.tolist(), H.action(r).tolist())))
    counts = {"same-pair": 0, "index-gap": 0, "short-action-gap": 0, "diverging-action-gap": 0}
    min_gap = None
    min_div = None
    aligned = []
    near = []
    for i, (top, table) in enumerate(zip(tops, tables)):
        centre, reach = solution.k[i], system.ell0 if i else 0
        lo, hi, escaped = _support_bounds(table.rows(slice(0, top)), system.n)
        gaps = np.maximum(np.maximum(lo - protected, protected - hi), 0)     # degree distance
        others = np.arange(1, top + 1) != centre
        bad = np.flatnonzero(others & (escaped | (gaps < 2)))
        fail = int(bad[0]) + 1 if bad.size else top + 1      # the first j that fails
        for j in range(max(1, centre - reach), min(top, centre + reach, fail - 1) + 1):
            if j == centre and not i:
                counts["same-pair"] += 1
            elif j == centre:
                reason = _aligned_certificate(system, solution, i, j, levels[i])
                counts[reason.kind] += 1
                aligned.append(reason)
                if reason.kind == "diverging-action-gap":
                    b = reason.numbers["lower_bound"]
                    min_div = b if min_div is None else min(min_div, b)
            else:
                at, l = j - 1, j - centre
                numbers = {"support": [int(lo[at]), int(hi[at])], "protected": protected,
                           "gap": int(gaps[at]), "which": which, "l": l}
                if l > 0:
                    numbers["recurrence_floor"] = int(solution.d + table.mu_minus[l - 1])
                else:
                    numbers["recurrence_ceiling"] = int(
                        solution.d - table.mu_minus[-l - 1] + table.nu_a[-l - 1])
                near.append(ExclusionReason(kind="index-gap", case=CASE_NEAR, i=i, j=j,
                                            numbers=numbers))
        if fail <= top:
            at = fail - 1
            if escaped[at]:
                raise _support_escape(lo[at], hi[at], fail)
            context = {"i": i, "j": fail, "support": [int(lo[at]), int(hi[at])],
                       "protected": protected}
            if not i:
                raise NotExcluded(f"iterate {fail} of the distinguished orbit sits {gaps[at]} "
                                  f"from the protected degree", context)
            raise NotExcluded(
                f"support of orbit {i} iterate {fail} is {gaps[at]} from the protected degree",
                {**context, "case": case_classify(system, solution, i, fail, top),
                 "d": solution.d})
        gaps = gaps[others]
        counts["index-gap"] += int(gaps.size)
        if gaps.size:
            g = int(gaps.min())
            min_gap = g if min_gap is None else min(min_gap, g)

    return SolutionAudit(
        d=solution.d, k=solution.k, counts=counts,
        min_index_gap=min_gap, min_diverging_gap=min_div,
        aligned=tuple(aligned), near=tuple(near),
        protected={"degree": protected, "which": which},
        # the domain vertex carries degrees up to n; demand distance >= 2 from it
        w_vertex_gap_ok=protected - system.n >= 2,
        contradiction=_contradiction(system, solution),
        total_pairs=sum(tops),
    )


def _contradiction(system: OrbitSystem, solution: RecurrenceSolution) -> dict:
    """Vanishing-window bookkeeping of one solution."""
    A = solution.k[0] * system.A_star
    margin = system.b - system.A_star
    k_threshold = math.ceil(2.0 * system.cbar / margin) if margin > 0 else None
    return {
        "action": A,
        "window": [A - 2 * system.cbar, A + 2 * system.cbar],
        "level_budget": solution.k[0] * system.b,
        "ready": bool(A + 2 * system.cbar <= solution.k[0] * system.b),
        "k_threshold": k_threshold,
    }
