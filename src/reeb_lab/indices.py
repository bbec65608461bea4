"""Conley-Zehnder index calculus.

Two routes to the same integers live here.  ``cz_index_sampled`` computes the
index of a sampled path in Sp(2m) from the winding of the polar-rotation
angle, plane by plane.  ``index_triple`` evaluates the exact iterate formulas
for a block profile: each elliptic angle rho contributes 2*floor(k rho) + 1
(splitting into 2*k*rho +/- 1 when k rho is an integer), hyperbolic blocks
contribute k*h, loops contribute k*loop_index to every term, and a totally
degenerate factor contributes its iteration-stable block counts to the upper
and lower indices only.

Normalization: the flow of a small positive definite quadratic form on R^{2m}
has index m.  All indices are exact integers; the mean index is the only real
quantity.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    Checked,
    DegenerateEndpoint,
    DimensionMismatch,
    InvalidParameter,
    JsonFields,
    MalformedInput,
    PathNotSplittable,
    SamplingTooCoarse,
    SupportOutOfRange,
    integer,
    json_field,
    json_object,
    json_value,
    real,
)
from .symplectic import WilliamsonInvariants, standard_form

#: an exact rotation number in a JSON profile, as profile.schema.json spells it
_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")

#: floats within this distance of an integer are treated as hitting it;
#: rotation numbers given as Fraction are tested exactly instead.
INTEGER_BAND = 1e-9


class IterationProfile(Checked, namedtuple("IterationProfile",
                                           "loop_index elliptic hyperbolic degenerate")):
    """Block decomposition of the end behavior of a symplectic path.

    elliptic entries are rotation numbers in full turns (Fraction for exact
    arithmetic, float otherwise); hyperbolic entries are the integer indices
    of the primitive path; loop_index is the even index of the loop factor;
    degenerate is the invariant data of a totally degenerate factor, a
    WilliamsonInvariants, or None.

    Construction checks the entries, WrongType for one of the wrong type,
    stores the loop index and the hyperbolic entries as ints, and then
    keeps what every iterate reads: dim_half, the float mean index of the
    first iterate and the growth bound of _fits_int64.
    """

    def __new__(cls, loop_index: int = 0, elliptic=(), hyperbolic=(), degenerate=None):
        loop_index = integer("loop index", loop_index)
        if loop_index % 2:
            raise InvalidParameter(f"loop index must be even, got {loop_index}")
        hyperbolic = tuple(integer(f"profile entry hyperbolic[{i}]", h)
                           for i, h in enumerate(hyperbolic))
        self = super().__new__(cls, loop_index, tuple(elliptic), hyperbolic, degenerate)
        entries = [("loop_index", loop_index),
                   *((f"elliptic[{i}]", rho) for i, rho in enumerate(self.elliptic)),
                   *((f"hyperbolic[{i}]", h) for i, h in enumerate(self.hyperbolic))]
        for what, value in entries:
            # the mean index is a float, so every entry must convert to one
            if not math.isfinite(real(f"profile entry {what}", value)):
                raise InvalidParameter(f"profile has a non-finite rotation number {what} = {value}")
        deg = degenerate.m if degenerate is not None else 0
        object.__setattr__(self, "dim_half", len(self.elliptic) + len(self.hyperbolic) + deg)
        rho_sum = sum(float(r) for r in self.elliptic)
        object.__setattr__(self, "_mean_per_turn",
                           loop_index + 2.0 * rho_sum + sum(self.hyperbolic))
        # every index and every floor(k rho) is at most k * growth in size
        object.__setattr__(self, "_growth", (
            abs(loop_index) + sum(map(abs, self.hyperbolic)) + 2 * self.dim_half
            + sum(2.0 * abs(float(rho)) for rho in self.elliptic)))
        return self

    def mean_index(self, k: int = 1) -> float:
        """The mean index of the k-th iterate: k times the float mean index
        of the first, in one multiplication; k an int, or an int64 array
        (elementwise).  Every mean index on which the recurrence search or
        the audit decides is read from here."""
        return k * self._mean_per_turn

    def b_correction(self) -> int:
        """b_plus - b_minus of any iterate (stable under positive scaling)."""
        if self.degenerate is None:
            return 0
        return self.degenerate.b_plus - self.degenerate.b_minus

    def to_json(self) -> dict:
        def enc(r):
            return str(r) if isinstance(r, Fraction) else float(r)
        return {
            "loop_index": self.loop_index,
            "elliptic": [enc(r) for r in self.elliptic],
            "hyperbolic": list(self.hyperbolic),
            "degenerate": self.degenerate.to_json() if self.degenerate else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IterationProfile":
        """Raises MalformedInput on an unknown key or a value of the wrong JSON
        type; a missing key takes its default."""
        where = "profile"
        json_object(obj, ("loop_index", "elliptic", "hyperbolic", "degenerate"), where)

        def entries(key, entry):
            values = json_field(obj, key, list, where) if key in obj else []
            return tuple(entry(v, f"{where}: {key}[{i}]") for i, v in enumerate(values))

        def rotation(r, what):
            if not isinstance(r, str):
                return json_value(r, float, what)
            if not _FRACTION.fullmatch(r):
                raise MalformedInput(f"{what} is not a fraction: {r!r}")
            return Fraction(r)

        deg = obj.get("degenerate")
        return cls(
            loop_index=json_field(obj, "loop_index", int, where) if "loop_index" in obj else 0,
            elliptic=entries("elliptic", rotation),
            hyperbolic=entries("hyperbolic", lambda h, what: json_value(h, int, what)),
            degenerate=None if deg is None else WilliamsonInvariants.from_json(
                json_field(obj, "degenerate", dict, where)),
        )


class SystemOrbit(JsonFields, namedtuple("SystemOrbit",
                                         "period profile hyperbolic locally_maximal",
                                         defaults=(False, False))):
    """A closed orbit of an orbit system: its period, the iteration profile
    of its linearized flow, and the flags the audit modes read."""

    __slots__ = ()


class IndexTriple(namedtuple("IndexTriple", "mu_minus mu_plus mu_hat nu_a")):
    """Indices of one iterate, or int64 / float64 arrays of them when the
    iteration order was given as an array.  nu_a, half the algebraic
    multiplicity of eigenvalue 1, comes from the same pass; iterating yields
    the three indices only, so _replace and _asdict, which iterate, do not
    apply."""

    __slots__ = ()

    def __iter__(self):
        return iter((self.mu_minus, self.mu_plus, self.mu_hat))

    def rows(self, at) -> "IndexTriple":
        """The triple of arrays at ``at``, an index array or a slice: from a
        table of iterates 1..N, the iterates at + 1."""
        return IndexTriple(mu_minus=self.mu_minus[at], mu_plus=self.mu_plus[at],
                           mu_hat=self.mu_hat[at], nu_a=self.nu_a[at])


def index_triple(profile: IterationProfile, k) -> IndexTriple:
    """Exact (mu_minus, mu_plus, mu_hat) of the k-th iterate of a profile.

    k is an int or an integral float, which gives two ints and a float, or an
    int64 array of iteration orders, which gives an IndexTriple of arrays; an
    int is computed as the array of length one.  Orders below 1, or so large
    that an index leaves int64, raise InvalidParameter.  The iterate formulas
    are those of Long, *Index Theory for Symplectic Paths with Applications*
    (Birkhauser, 2002), in the form used by the common index jump theorem of
    Long & Zhu, Ann. of Math. 155 (2002) 317-368.
    """
    ks = _orders(profile, k)
    hi = ks * (profile.loop_index + sum(profile.hyperbolic)) + len(profile.elliptic)
    hits = np.zeros(ks.shape, dtype=np.int64)
    for rho in profile.elliptic:
        n, hit = _floor_hits(rho, ks)
        # 2n + 1 each, and an integer k*rho = n splits into 2n - 1 and 2n + 1
        hi += 2 * n
        hits += hit
    lo = hi - 2 * hits
    if profile.degenerate is not None:
        d = profile.degenerate
        hi += d.b0 + d.b_plus + d.nu0
        lo -= d.b0 + d.b_minus + d.nu0
        hits += d.m
    mu_hat = profile.mean_index(ks)
    if isinstance(k, np.ndarray):
        return IndexTriple(mu_minus=lo, mu_plus=hi, mu_hat=mu_hat, nu_a=hits)
    return IndexTriple(mu_minus=int(lo[0]), mu_plus=int(hi[0]), mu_hat=float(mu_hat[0]),
                       nu_a=int(hits[0]))


def _orders(profile: IterationProfile, k) -> np.ndarray:
    """k as an int64 array of iteration orders (an int gives length one);
    WrongType for an order that is no integer, InvalidParameter for one below
    1 or one whose indices leave int64."""
    if isinstance(k, np.ndarray):
        ks = k.astype(np.int64, copy=False)
    else:
        try:
            ks = np.array([integer("iteration order", k)], dtype=np.int64)
        except OverflowError:
            raise InvalidParameter(f"iteration order {k} outside int64") from None
    if ks.size:
        if ks.min() < 1:
            raise InvalidParameter(
                f"iteration order must be >= 1, got {int(ks[np.argmax(ks < 1)])}")
        if not _fits_int64(profile, int(ks.max())):
            raise InvalidParameter(f"indices of iterate {int(ks.max())} leave int64")
    return ks


def _fits_int64(profile: IterationProfile, k: int) -> bool:
    """Whether the indices of iterates 1..k stay inside int64 (index_triple
    raises InvalidParameter beyond)."""
    return k * profile._growth < 2 ** 62


def _floor_hits(rho, k: np.ndarray) -> tuple:
    """(floor(k rho), whether k rho is an integer) over an int64 array of k.

    A Fraction rho = p/q is exact: k p is floored by q in int64 while every
    k p and q lie inside it, and in Python ints beyond; numpy's integer //
    and % floor as Python's do, negative values included.  A float rho hits
    an integer when k rho lies within INTEGER_BAND of it (rint rounds half
    to even, as round does), and the floor of a hit is that integer.
    """
    if isinstance(rho, Fraction):
        p, q = rho.numerator, rho.denominator
        fits = max(int(k.max(initial=0)) * abs(p), q) < 2 ** 63
        kp = k.astype(np.int64 if fits else object) * p
        return (kp // q).astype(np.int64, copy=False), kp % q == 0
    t = float(rho) * k
    nearest = np.rint(t)
    hit = np.abs(t - nearest) <= INTEGER_BAND
    return np.where(hit, nearest, np.floor(t)).astype(np.int64), hit


def support_interval(profile: IterationProfile, k, n: int) -> tuple:
    """Degree range [mu_minus, mu_plus + 1] of a closed orbit's local homology.

    k is an int, or an int64 array that gives a pair of arrays.  Profiles on
    the contact side have half-dimension n - 1; the interval is guaranteed
    inside [mu_hat - n + 1, mu_hat + n], and SupportOutOfRange reports the
    first k where it is not.
    """
    if profile.dim_half != n - 1:
        raise DimensionMismatch(f"profile half-dimension {profile.dim_half} != n - 1 = {n - 1}")
    ks = _orders(profile, k)
    lo, hi, escaped = _support_bounds(index_triple(profile, ks), n)
    if escaped.any():
        at = int(np.argmax(escaped))
        raise _support_escape(lo[at], hi[at], ks[at])
    return (lo, hi) if isinstance(k, np.ndarray) else (int(lo[0]), int(hi[0]))


def _support_bounds(t: IndexTriple, n: int) -> tuple:
    """(lo, hi, escaped) of support_interval from an index triple, without
    raising: escaped is True (elementwise) where [lo, hi] leaves
    [mu_hat - n + 1, mu_hat + n]."""
    lo, hi = t.mu_minus, t.mu_plus + 1
    escaped = (lo < t.mu_hat - n + 1 - 1e-9) | (hi > t.mu_hat + n + 1e-9)
    return lo, hi, escaped


def _support_escape(lo, hi, k) -> SupportOutOfRange:
    """The SupportOutOfRange of an escaped row [lo, hi] of _support_bounds
    at the iterate k, as support_interval and the audit's sweep raise it."""
    return SupportOutOfRange(f"support [{lo}, {hi}] escapes [mu_hat - n + 1, mu_hat + n] at k={k}")


class ConvexityReport(JsonFields, namedtuple("ConvexityReport", [
        "ok",
        "witnesses",            # (orbit position, k, mu_minus) violating mu_- >= n+1
        "weak_ok",              # mu_- >= max(3, 2 + nu_a) for every listed iterate
        "weak_witnesses",
        "min_mu_minus"])):      # an int, or None
    __slots__ = ()


def check_dynamical_convexity(orbits: Sequence[tuple], n: int) -> ConvexityReport:
    """Check mu_-(x^k) >= n + 1 for every (profile, k_max) pair given.

    Also evaluates the weaker threshold mu_- >= max(3, 2 + nu_a) per iterate,
    reported separately.  A k_max below 1 raises InvalidParameter: it would check
    no iterate at all.
    """
    witnesses = []
    weak_witnesses = []
    min_mu = None
    for pos, (profile, k_max) in enumerate(orbits):
        if k_max < 1:
            raise InvalidParameter(f"k_max must be at least 1, got {k_max} for orbit {pos}")
        ks = np.arange(1, int(k_max) + 1, dtype=np.int64)
        t = index_triple(profile, ks)
        mu = t.mu_minus
        low = int(mu.min())
        min_mu = low if min_mu is None else min(min_mu, low)
        for out, bad in ((witnesses, mu < n + 1),
                         (weak_witnesses, mu < np.maximum(3, 2 + t.nu_a))):
            out += [(pos, k, m) for k, m in zip(ks[bad].tolist(), mu[bad].tolist())]
    return ConvexityReport(
        ok=not witnesses,
        witnesses=tuple(witnesses),
        weak_ok=not weak_witnesses,
        weak_witnesses=tuple(weak_witnesses),
        min_mu_minus=min_mu,
    )


# ---------------------------------------------------------------------------
# sampled paths
# ---------------------------------------------------------------------------

def winding(angles) -> float:
    """Turns swept by a sampled path of angles in radians, each step wrapped
    into [-pi, pi).  The lift is certified only when every step is under a
    quarter turn; SamplingTooCoarse otherwise."""
    steps = (np.diff(angles) + math.pi) % (2.0 * math.pi) - math.pi
    if np.any(np.abs(steps) >= math.pi / 2.0):
        raise SamplingTooCoarse(f"angle jumps by {float(np.abs(steps).max()):.3f} rad "
                                "between samples; refine the sampling")
    return float(steps.sum()) / (2.0 * math.pi)


def _block_index(samples: np.ndarray, tol: float) -> int:
    """Index of a nondegenerate sampled path in Sp(2)."""
    end = samples[-1]
    det_end = float(np.linalg.det(end))
    if det_end <= 0:
        raise PathNotSplittable(f"block endpoint has det {det_end:.3e}")
    samples = samples / np.sqrt(np.abs(np.linalg.det(samples)))[:, None, None]
    tr = float(np.trace(samples[-1]))
    if abs(2.0 - tr) <= tol:
        raise DegenerateEndpoint(f"endpoint has eigenvalue 1 (trace {tr:.12g})")
    # rotation part of the polar decomposition of each sample (det > 0)
    delta = winding(np.arctan2(samples[:, 1, 0] - samples[:, 0, 1],
                               samples[:, 0, 0] + samples[:, 1, 1]))
    if abs(tr) < 2.0:
        return 2 * int(math.floor(delta)) + 1
    return int(round(2.0 * delta))


def _split_planes(path: np.ndarray, tol: float) -> list:
    """Decompose a sampled path into invariant symplectic coordinate planes.

    Tries the identity pairing (q_i, p_i) first, then a constant symplectic
    change of basis built from the eigenplanes of a well-separated sample.
    Returns a list of (n_samples, 2, 2) arrays, one per plane; raises
    PathNotSplittable when no common splitting is found.
    """
    m = path.shape[1] // 2
    if m == 1:
        return [path]

    for V in _candidate_bases(path, tol):
        B = V[0] @ path @ V[1] if isinstance(V, tuple) else path
        blocks, coupling = _extract_blocks(B, m)
        if coupling <= max(tol, 1e-8) * max(1.0, float(np.abs(B).max())):
            return blocks
    raise PathNotSplittable("path does not preserve a common splitting into symplectic 2-planes")


def _extract_blocks(B: np.ndarray, m: int):
    idx_pairs = [np.array([i, m + i]) for i in range(m)]
    blocks = [B[:, pair][:, :, pair] for pair in idx_pairs]
    mask = np.ones((2 * m, 2 * m), dtype=bool)
    for pair in idx_pairs:
        mask[np.ix_(pair, pair)] = False
    coupling = float(np.abs(B[:, mask]).max())
    return blocks, coupling


def _candidate_bases(path: np.ndarray, tol: float):
    yield None  # identity pairing as given
    m = path.shape[1] // 2
    J = standard_form(m)
    # scan samples from the end for one with well-separated eigenvalue pairs
    for idx in range(path.shape[0] - 1, 0, -max(1, path.shape[0] // 8)):
        M = path[idx]
        try:
            planes = _eigenplanes(M, J, tol)
        except PathNotSplittable:
            continue
        V = np.column_stack([p[0] for p in planes] + [p[1] for p in planes])
        if abs(np.linalg.det(V)) < 1e-10:
            continue
        yield (np.linalg.inv(V), V)


def _eigenplanes(M: np.ndarray, J: np.ndarray, tol: float) -> list:
    m = M.shape[0] // 2
    vals, vecs = np.linalg.eig(M)
    order = np.argsort(-np.abs(vals.imag) - np.abs(vals.real))
    used = np.zeros(len(vals), dtype=bool)
    planes = []
    for i in order:
        if used[i]:
            continue
        lam, v = vals[i], vecs[:, i]
        if abs(lam.imag) > 1e-10:
            if lam.imag < 0:
                continue  # handled via its conjugate
            used[i] = True
            for j in range(len(vals)):
                if not used[j] and abs(vals[j] - np.conj(lam)) < 1e-8:
                    used[j] = True
                    break
            xi, eta = v.real, v.imag
        else:
            used[i] = True
            target = 1.0 / lam.real
            best, best_d = -1, np.inf
            for j in range(len(vals)):
                if used[j] or abs(vals[j].imag) > 1e-10:
                    continue
                d = abs(vals[j].real - target)
                if d < best_d:
                    best, best_d = j, d
            if best < 0 or best_d > 1e-6 * max(1.0, abs(target)):
                raise PathNotSplittable("real eigenvalue lacks a reciprocal partner")
            used[best] = True
            xi, eta = v.real, vecs[:, best].real
        w = float(xi @ J @ eta)
        if abs(w) < 1e-10:
            raise PathNotSplittable("eigenplane is degenerate for the form")
        planes.append((xi, eta / w))
    if len(planes) != m:
        raise PathNotSplittable(f"found {len(planes)} planes for half-dimension {m}")
    return planes


def cz_index_sampled(path, tol: float = 1e-9) -> int:
    """Conley-Zehnder index of a sampled path starting at the identity.

    The path must decompose into invariant symplectic 2-planes (directly in
    the given coordinates or after one constant symplectic change of basis);
    each plane is handled by tracking the winding of its polar-rotation
    angle.  Consecutive samples may not be more than a quarter turn apart
    and the endpoint may not have eigenvalue 1 within tol.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 3 or path.shape[1] != path.shape[2]:
        raise DimensionMismatch(f"expected (n_samples, 2m, 2m), got {path.shape}")
    if path.shape[1] % 2 != 0:
        raise DimensionMismatch("odd matrix dimension")
    if path.shape[0] < 2:
        raise SamplingTooCoarse("need at least two samples")
    if float(np.abs(path[0] - np.eye(path.shape[1])).max()) > 1e-9:
        raise InvalidParameter("path must start at the identity")
    return sum(_block_index(b, tol) for b in _split_planes(path, tol))


def rotation_path(rho: float, n_samples: int = 0) -> np.ndarray:
    """Sampled path t -> rotation by 2*pi*rho*t on [0, 1]; n_samples <= 0
    picks the sampling.  SamplingTooCoarse when a given n_samples makes steps
    of a quarter turn or more, which the wrapped winding would alias."""
    if not math.isfinite(rho):
        raise InvalidParameter(f"rotation number must be finite, got {rho}")
    if n_samples <= 0:
        n_samples = max(64, int(16 * abs(rho) * 2 * math.pi) + 1)
    elif 4 * abs(rho) >= n_samples:
        raise SamplingTooCoarse(f"steps of {rho / n_samples:.3g} turns reach a quarter turn "
                                "and alias the rotation; refine the sampling")
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    out = np.empty((n_samples + 1, 2, 2))
    for i, t in enumerate(ts):
        a = 2.0 * math.pi * rho * t
        out[i] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    return out


def stretch_path(lam: float, n_samples: int = 64) -> np.ndarray:
    """Sampled path t -> diag(lam^t, lam^-t), a hyperbolic block with index 0."""
    if not 0 < lam < math.inf:
        raise InvalidParameter(f"stretch factor must be positive and finite, got {lam}")
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    out = np.empty((n_samples + 1, 2, 2))
    for i, t in enumerate(ts):
        out[i] = [[lam ** t, 0.0], [0.0, lam ** (-t)]]
    return out


def profile_table(profile: IterationProfile, k_max: int) -> list:
    """Rows (k, mu_minus, mu_plus, mu_hat) for k = 1..k_max."""
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    t = index_triple(profile, ks)
    return list(zip(ks.tolist(), t.mu_minus.tolist(), t.mu_plus.tolist(), t.mu_hat.tolist()))
