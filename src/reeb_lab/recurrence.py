"""Search and exact verification of simultaneous index recurrences.

Given profiles Phi_0..Phi_q with positive mean index, the target is integer
pairs (d, k_i) with

  R1:  |mean(Phi_i^{k_i}) - d| < eta                       for every i,
  R2:  mu_pm(Phi_i^{k_i + l}) = d + mu_pm(Phi_i^l),        1 <= l <= l0,
  R3:  mu_+(Phi_i^{k_i - l}) = d - mu_-(Phi_i^l) + (b_+ - b_-)(Phi_i^l),

with d and all k_i divisible by a given N.  R1 for profile 0 is a
Dirichlet-type return: with k_0 = N j, alpha = mean(Phi_0) and w = eta / N
it asks for ||j alpha|| < w, the distance to the nearest integer.  This is
the simultaneous approximation behind the common index jump theorem of Long
& Zhu, Ann. of Math. 155 (2002) 317-368.

The searcher enumerates these returns instead of testing every k_0.  Take
a continued-fraction convergent p/Q of the fractional part of alpha
(Khinchin, *Continued Fractions*).  Along each residue class j = r + tQ, the
fractional part of j alpha moves by the fixed drift delta = Q alpha - p per
step of t, so the t that return to the window near each integer form an
interval.  This is the residue-class structure behind the three-distance
theorem (Sos 1958; Swierczkowski 1959).  One numpy pass over the Q classes
emits every interval.  The window is widened by a slack that bounds the
float error of the enumeration and of the R1 test, so every k_0 that passes
R1 is enumerated.  Each enumerated k_0 is then re-tested by that test, _r1,
the one function that decides R1 on IterationProfile.mean_index(k).

On the survivors the searcher proposes d as the nearest multiple of N to
k_0 * mean(Phi_0) and checks R1-R3 for profile 0 in one index call per
block.  It then locates each companion k_i in the window R1 allows
(_companion_window), testing the windows of a batch of the candidates that
passed profile 0 in one index call per companion.  An empty result
therefore certifies that no solution exists below the horizon; a
soft flag marks horizons exhausted before the requested solution count.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import Checked, HypothesisFailed, InvalidParameter, IterateUnderflow, JsonFields
from .indices import IndexTriple, IterationProfile, _fits_int64, index_triple

#: the first block of j; each next block doubles, up to _BLOCK_MAX and to
#: about _CHUNK expected R1 candidates; a batch of companion windows holds
#: at most _CHUNK multiples of N per companion, unless it is one window
_CHUNK = 1 << 16
_BLOCK = 1 << 11
_BLOCK_MAX = 1 << 30
_INT64_MAX = 2 ** 63 - 1


class RecurrenceQuery(Checked, namedtuple("RecurrenceQuery",
                                          "profiles eta ell0 n_divisor k_bound count")):
    __slots__ = ()

    def __new__(cls, profiles, eta: float, ell0: int, n_divisor: int = 1,
                k_bound: int = 10 ** 6, count: int = 3):
        self = super().__new__(cls, tuple(profiles), eta, ell0, n_divisor, k_bound, count)
        if not self.profiles:
            raise InvalidParameter("need at least one profile")
        for i, p in enumerate(self.profiles):
            mean = p.mean_index(1)
            if not math.isfinite(mean):
                raise InvalidParameter(f"profile {i} has mean index {mean}")
            if mean <= 0:
                raise HypothesisFailed(f"profile {i} has mean index {mean:.6g} <= 0")
        if (not 0 < self.eta < math.inf or self.ell0 < 1 or self.n_divisor < 1
                or self.count < 1):
            raise InvalidParameter("finite eta > 0, ell0 >= 1, divisor >= 1, count >= 1 required")
        if self.k_bound < 0:
            raise InvalidParameter(f"k_bound must be >= 0, got {self.k_bound}")
        return self


class ConditionRecord(JsonFields, namedtuple("ConditionRecord", "name ok detail")):
    __slots__ = ()


class Certificate(JsonFields, namedtuple("Certificate", [
        "ok",
        "records"])):   # ConditionRecord per profile and condition
    __slots__ = ()


class RecurrenceSolution(namedtuple("RecurrenceSolution", "d k eta ell0 profiles")):
    """(d, k) for the profiles it solves; its certificate is built when read.
    Equality, the hash and the repr leave profiles out: two solutions are
    equal when their d, k, eta and ell0 are."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return (f"RecurrenceSolution(d={self.d!r}, k={self.k!r}, eta={self.eta!r}, "
                f"ell0={self.ell0!r})")

    @property
    def certificate(self) -> Certificate:
        """verify_recurrence of this solution, built anew on each read."""
        return verify_recurrence(self.profiles, self.d, self.k, self.eta, self.ell0)

    def to_json(self) -> dict:
        return {"d": self.d, "k": list(self.k), "eta": self.eta, "ell0": self.ell0,
                "certificate": self.certificate.to_json()}


def verify_recurrence(profiles: Sequence[IterationProfile], d: int,
                      ks: Sequence[int], eta: float, ell0: int) -> Certificate:
    """Exact per-condition verification; every computed value is recorded.

    ok is _Iterates.ok, the one decision of R1-R3, which the search and the
    audit make too; the records are the ones _Iterates.records builds, here
    and nowhere else, so a certificate costs its records only when asked
    for.  Every k_i is checked against ell0 before any index is computed."""
    profiles = list(profiles)
    its = [_Iterates(p, np.full(1, d, dtype=np.int64), np.full(1, k, dtype=np.int64), eta,
                     ell0) for p, k in zip(profiles, _orders_at(profiles, ks, ell0))]
    return Certificate(ok=all(it.ok[0] for it in its),
                       records=tuple(r for i, it in enumerate(its) for r in it.records(i)))


def _orders_at(profiles: Sequence, ks: Sequence, ell0: int) -> list:
    """ks as ints, one k_i per profile.  Raises InvalidParameter unless
    there is one k_i per profile, and IterateUnderflow at the first
    k_i <= ell0, whose iterate k_i - ell0 does not exist."""
    ks = [int(k) for k in ks]
    if len(ks) != len(profiles):
        raise InvalidParameter(f"{len(ks)} iteration orders for {len(profiles)} profiles")
    for i, k in enumerate(ks):
        if k - ell0 < 1:
            raise IterateUnderflow(f"profile {i}: k = {k} <= ell0 = {ell0}")
    return ks


def _r1(mean, d, eta: float):
    """R1, |mean - d| < eta, at the mean index mean = p.mean_index(k) of an
    iterate k and the degree d: floats and ints, or arrays of candidates
    (elementwise).  This is the one R1 test: _Iterates decides R1 by it,
    the search's profile-0 mask and companion prefilter and _companions'
    window filter drop candidates by it, and the audit tests supplied
    solutions by it before it computes any index.  Its float error, with
    that of p.mean_index(k), is what _window's slack bounds."""
    return abs(mean - d) < eta


class _Iterates:
    """R1-R3 of one profile at candidate pairs (d[c], k[c]), int64 arrays of
    one length, read from the indices of the iterates ell, then k + ell and
    k - ell of every candidate, for 1 <= ell <= ell0: from one index_triple
    call over them, or, when a table is given, from its rows at them.  A
    table is an IndexTriple of the profile's iterates 1..N, N >= max(k) +
    ell0, as the audit builds once per orbit.  ok is the one decision of
    R1-R3: the search, the audit and verify_recurrence read it, and only
    verify_recurrence asks for records."""

    def __init__(self, p: IterationProfile, d: np.ndarray, k: np.ndarray, eta: float,
                 ell0: int, table: Optional[IndexTriple] = None):
        self.p, self.d, self.k = p, d, k
        ells = np.arange(1, ell0 + 1, dtype=np.int64)
        orders = np.concatenate([ells, (k[:, None] + ells).ravel(), (k[:, None] - ells).ravel()])
        t = index_triple(p, orders) if table is None else table.rows(orders - 1)

        def rows(a):
            # the iterates ell (base, shared), then per candidate k + ell (up)
            # and k - ell (down)
            return (a[:ell0],) + tuple(a[ell0:].reshape(2, k.size, ell0))

        self.lo, self.hi, self.nu = rows(t.mu_minus), rows(t.mu_plus), rows(t.nu_a)
        self.r1 = _r1(p.mean_index(k), d, eta)
        self.expected = (d[:, None] + self.lo[0], d[:, None] + self.hi[0])
        self.r2 = (self.lo[1] == self.expected[0]) & (self.hi[1] == self.expected[1])
        # b_+ - b_- of the ell-th iterate: elliptic blocks hitting an integer
        # contribute zero planes only, and a degenerate factor's counts are
        # stable under positive scaling of its form.
        self.want = d[:, None] - self.lo[0] + p.b_correction()
        self.r3 = self.hi[2] == self.want
        self.ok = self.r1 & self.r2.all(axis=1) & self.r3.all(axis=1)

    def records(self, i: int) -> list:
        """ConditionRecords of R1-R3 for profile i at the one candidate of an
        _Iterates of length one, with two consequences of R3: the nu_a bound
        always, exact symmetry when the ell-th and (k - ell)-th iterates are
        nondegenerate.

        Both records hold whenever R3 does, so ok, which tests R1-R3 alone,
        is also the conjunction of every record.  Write b = b_+ - b_- for
        the profile's correction, 0 without a degenerate factor, and m for
        that factor's half-dimension.  WilliamsonInvariants.__init__
        makes every count >= 0 and nu_a(factor) >= nu0 + b0 + b_+ + b_-, with
        nu_a(factor) <= m; index_triple adds m to the elliptic hits of every
        iterate's nu_a.
          R3-bound: b <= nu0 + b0 + b_+ + b_- <= nu_a(factor) <= m <=
            nu_a(ell), so mu_+(k - ell) = d - mu_-(ell) + b is at most the
            bound d - mu_-(ell) + nu_a(ell).
          R3-nondeg: nu_a(ell) = 0 leaves no hit and m = 0, hence every count
            0: mu_-(ell) = mu_+(ell) and b = 0, so R3 reads
            mu_+(k - ell) = d - mu_+(ell), the symmetry the record checks.
        """
        d, corr, mean = int(self.d[0]), self.p.b_correction(), float(self.p.mean_index(self.k)[0])
        base_lo, base_hi, base_nu = self.lo[0], self.hi[0], self.nu[0]
        columns = [a.tolist() for a in (
            self.r2[0], self.lo[1][0], self.hi[1][0], self.expected[0][0], self.expected[1][0],
            self.r3[0], self.hi[2][0], self.want[0], d - base_lo + base_nu,
            (base_nu == 0) & (self.nu[2][0] == 0), d - base_hi)]
        out = [ConditionRecord(f"R1[{i}]", bool(self.r1[0]),
                               {"mean": mean, "d": d, "gap": abs(mean - d)})]
        for ell, (r2, up_lo, up_hi, exp_lo, exp_hi, r3, down, want, bound, nondeg,
                  sym) in enumerate(zip(*columns), start=1):
            out.append(ConditionRecord(f"R2[{i},{ell}]", r2, {
                "mu_minus": up_lo, "mu_plus": up_hi,
                "expected_minus": exp_lo, "expected_plus": exp_hi}))
            out.append(ConditionRecord(f"R3[{i},{ell}]", r3,
                                       {"mu_plus": down, "expected": want, "b_corr": corr}))
            out.append(ConditionRecord(f"R3-bound[{i},{ell}]", down <= bound,
                                       {"mu_plus": down, "bound": bound}))
            if nondeg:
                out.append(ConditionRecord(f"R3-nondeg[{i},{ell}]", down == sym,
                                           {"mu": down, "expected": sym}))
        return out


class SearchResult(JsonFields, namedtuple("SearchResult",
                                          "solutions horizon_exhausted scanned_up_to")):
    """Solutions in increasing k_0; every k_0 <= scanned_up_to was tested
    (the last solution's k_0, or k_bound when horizon_exhausted)."""

    __slots__ = ()


def recurrence_search(query: RecurrenceQuery, on_solution=None) -> SearchResult:
    """Solutions with k_0 <= k_bound, in increasing k_0; deterministic and
    exhaustive below the horizon.

    k_0 runs over the R1 returns of profile 0 that _r1_candidates enumerates
    block by block, each re-tested by _r1 (see _window), here and in
    _Iterates.  Solutions are emitted with strictly increasing d, each
    companion k_i the smallest passing multiple of N in its R1 window
    (_companion_window).  The candidates of a block that pass profile 0 are
    taken in batches (_batch), and each companion is tested in one _Iterates
    over the windows of a batch's candidates that passed the companions
    before it (_companions).  _Iterates.ok alone decides R1-R3,
    and no ConditionRecord is built: a solution's certificate is
    verify_recurrence of it, built when read.  on_solution, when given, is
    called with each solution as found (the CLI uses this to stream).  Every
    multiple of N up to scanned_up_to was tested: it is the k_0 of the last
    solution once count solutions are found, and k_bound when the horizon
    is exhausted first.

    Raises InvalidParameter, as index_triple does, when the horizon reaches a k_0
    whose iterate k_0 + ell0 of profile 0 has indices outside int64 before
    the requested count is found: no k_0 from there on is tested.  It
    raises it too, as index_triple does, at the first candidate tested whose
    companion window holds an iterate outside int64, and at no candidate
    past the count-th solution: a block's candidates are batched only while
    their windows fit (_batch), and from the first that does not, each is
    tested alone, in order, while the count is not reached.
    """
    mean0 = query.profiles[0].mean_index(1)
    N, eta = query.n_divisor, query.eta
    j_start = max(1, (query.ell0 + N) // N)      # k0 - ell0 >= 1 required
    j_end = min(query.k_bound, _INT64_MAX) // N  # k0 stays inside int64
    # the first j whose iterate N j + ell0 of profile 0 leaves int64, or
    # j_end + 1; below it R1's test cannot wrap, as k0 mean0 < 2^62 there
    j_stop = j_start + bisect.bisect_left(
        range(j_start, j_end + 1), True,
        key=lambda j: not _fits_int64(query.profiles[0], N * j + query.ell0))
    found = []
    last_d = 0
    a, size = j_start, _BLOCK
    while a < j_stop and len(found) < query.count:
        b = min(j_stop, a + size)
        k0s = N * _r1_candidates(mean0, eta / N, a, b)
        means = query.profiles[0].mean_index(k0s)
        ds = np.rint(means / N).astype(np.int64) * N
        # R1 here too: a single-profile query has no companion prefilter
        mask = _r1(means, ds, eta) & (ds > last_d)
        # companion feasibility prefilter: for each other profile one of the
        # two multiples of N next to d / mean_i must pass R1; when
        # eta >= N mean_i one always does, as they are N mean_i apart
        for p in query.profiles[1:]:
            cand_lo = np.floor(ds / (N * p.mean_index(1))).astype(np.int64) * N
            mask &= _r1(p.mean_index(cand_lo), ds, eta) | _r1(p.mean_index(cand_lo + N), ds, eta)
        if mask.any():     # profile 0's R1-R3 in one _Iterates over the survivors
            it0 = _Iterates(query.profiles[0], ds[mask], k0s[mask], eta, query.ell0)
            cands = np.flatnonzero(it0.ok)
            while len(found) < query.count:
                cands = cands[it0.d[cands] > last_d]
                if not cands.size:
                    break
                # the companions of a batch of candidates, one _Iterates each
                n = _batch(query, it0.d[cands])
                batch, cands = cands[:n], cands[n:]
                its, picks = _companions(query, it0.d[batch])
                for c, pick in zip(batch.tolist(), picks.T.tolist()):
                    if it0.d[c] <= last_d or -1 in pick:
                        continue
                    k = (int(it0.k[c]), *(int(it.k[at]) for it, at in zip(its, pick)))
                    sol = RecurrenceSolution(int(it0.d[c]), k, eta, query.ell0, query.profiles)
                    found.append(sol)
                    last_d = sol.d
                    if on_solution is not None:
                        on_solution(sol)
                    if len(found) >= query.count:
                        break
        a = b
        size = min(2 * size, _BLOCK_MAX,
                   max(_CHUNK, int(_CHUNK / (2 * _window(eta / N, mean0, b)))))
    exhausted = len(found) < query.count
    if exhausted and j_stop <= j_end:
        raise InvalidParameter(f"indices of iterate {N * j_stop + query.ell0} leave int64")
    return SearchResult(solutions=tuple(found), horizon_exhausted=exhausted,
                        scanned_up_to=query.k_bound if exhausted else found[-1].k[0])


def _window(w: float, alpha: float, b: int) -> float:
    """w widened by a slack that bounds, for every j < b, the float error
    of both R1's test on profile 0 and _r1_candidates' arithmetic.

    R1's test on profile 0 is the one float expression
    _r1(mean, N rint(mean / N), eta) with mean = mean_index(k_0), as
    recurrence_search and _Iterates evaluate it.  It rounds k_0 * alpha,
    its quotient by N, N times its nearest integer and the difference, and
    so decides ||j alpha|| < w up to an error of about 5u j alpha + 4u w
    (u = 2^-53).  The enumeration rounds each class's start, drift and
    window edges, which adds about 20u (b alpha + 1) (its eps is at most
    alpha).  The slack 64u (b alpha + 1) exceeds their sum about
    threefold; once it reaches the window's cap of 1/2, every j is
    enumerated.
    """
    return w + 2.0 ** -47 * (b * alpha + 1.0)


def _r1_candidates(alpha: float, w: float, a: int, b: int) -> np.ndarray:
    """The j in [a, b), in increasing order, with ||j alpha|| < W where W is
    w widened by _window; a superset of the j that pass R1's float test.

    p/Q is the last continued-fraction convergent of beta = alpha mod 1 with
    Q <= sqrt(b - a), and eps = beta - p/Q.  Then for j = a + r + tQ with
    0 <= r < Q, j alpha mod 1 equals y_r(t) = ((a + r) p mod Q) / Q +
    (a + r) eps + t delta with delta = Q eps: each class starts at y_r(0)
    and drifts by delta per step.  For every integer m that y_r can come
    within W of over its t range, the t with |y_r(t) - m| < W form one
    interval; floor and ceil widen it by the rounding of its ends.  The
    next convergent's denominator exceeds sqrt(b - a), so |delta| <
    1/sqrt(b - a) and a class drifts across few integers.  Nothing here
    depends on the choice of Q but the amount of work.
    """
    W = _window(w, alpha, b)
    if W >= 0.5:
        return np.arange(a, b, dtype=np.int64)
    beta = Fraction(alpha) % 1
    p, Q = _convergent(beta, math.isqrt(b - a))
    r = np.arange(Q, dtype=np.int64)
    T = (b - a - r + Q - 1) // Q                  # t < T keeps j < b
    y0 = ((a % Q + r) * p % Q) / Q + (a + r) * float(beta - Fraction(p, Q))
    delta = float(Q * beta - p)
    y1 = y0 + (T - 1) * delta
    m_lo = np.floor(np.minimum(y0, y1) - W)
    reach = np.floor(np.maximum(y0, y1) + W) - m_lo + 1
    m = m_lo[:, None] + np.arange(int(reach.max()))
    below, above = m - W - y0[:, None], m + W - y0[:, None]
    last = T[:, None] - 1
    if delta == 0.0:
        # a class that does not drift is in the window for every t or none
        t_lo = np.where((below < 0) & (above > 0), 0, T[:, None])
        t_hi = np.broadcast_to(last, t_lo.shape)
    else:
        e0, e1 = below / delta, above / delta
        t_lo = np.clip(np.floor(np.minimum(e0, e1)), 0, T[:, None]).astype(np.int64)
        t_hi = np.clip(np.ceil(np.maximum(e0, e1)), -1, last).astype(np.int64)
    n = np.maximum(t_hi - t_lo + 1, 0).ravel()
    first = (a + r[:, None] + Q * t_lo).ravel()
    offsets = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    j = np.sort(np.repeat(first, n) + Q * offsets)
    return j[np.diff(j, prepend=-1) != 0]    # intervals of one class may overlap


def _convergent(x: Fraction, q_max: int) -> tuple:
    """(p, q): the last continued-fraction convergent p/q of x in [0, 1)
    with q <= q_max."""
    (p0, q0), (p1, q1) = (1, 0), (0, 1)     # the convergents -1 and 0
    a = 0
    while x != a:
        x = 1 / (x - a)
        a = math.floor(x)
        if a * q1 + q0 > q_max:
            break
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
    return p1, q1


def _batch(query: RecurrenceQuery, d: np.ndarray) -> int:
    """How many leading candidates, proposing d (nondecreasing), to test
    together: at least one, and as many as have every companion window
    inside int64 (every iterate of the window's top multiple of N, plus
    ell0, fits; the top is nondecreasing in d, so they form a prefix) while
    each companion's windows hold at most _CHUNK multiples of N in all."""
    N, eta, ell0 = query.n_divisor, query.eta, query.ell0
    n = d.size
    for p in query.profiles[1:]:
        bottom, top = _companion_window(p, d[:n], eta, N)
        sizes = np.cumsum(top - bottom + 1)
        n = min(int(np.searchsorted(sizes, _CHUNK, side="right")),
                bisect.bisect_left(range(n), True,
                                   key=lambda c: not _fits_int64(p, int(top[c]) * N + ell0)))
    return max(1, n)


def _companion_window(p: IterationProfile, d: np.ndarray, eta: float, N: int) -> tuple:
    """(bottom, top), floats: floor((d - eta) / (N mean)) and
    ceil((d + eta) / (N mean)), mean = p.mean_index(1), elementwise in d.
    Every multiple N j of N whose mean index passes R1 at d (_r1) has
    bottom <= j <= top: such a j lies between the two quotients up to a
    few ulps of j, the rounding of R1's test and of the quotients, and
    floor and ceil widen the interval to the next integers.  _batch sizes
    and _companions enumerates the companion windows by it."""
    step = N * p.mean_index(1)
    return np.floor((d - eta) / step), np.ceil((d + eta) / step)


def _companions(query: RecurrenceQuery, d: np.ndarray) -> tuple:
    """(its, picks) for candidates proposing d: per companion in order, one
    _Iterates over the multiples of N in the R1 window of every candidate
    still alive, and picks[i, c] the index in the i-th of candidate c's
    smallest passing k, or -1.  A candidate stays alive while every earlier
    companion has a passing k, and no _Iterates is made once none is."""
    N, eta, ell0 = query.n_divisor, query.eta, query.ell0
    picks = np.full((len(query.profiles) - 1, d.size), -1)
    its = []
    alive = np.arange(d.size)
    for i, p in enumerate(query.profiles[1:]):
        if not alive.size:
            break
        lo, hi = (q.astype(np.int64) * N for q in _companion_window(p, d[alive], eta, N))
        first = np.maximum(N, lo)
        n = np.maximum((hi - first) // N + 1, 0)
        owner = np.repeat(alive, n)
        ks = np.repeat(first, n) + N * (np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n))
        keep = (ks - ell0 >= 1) & _r1(p.mean_index(ks), d[owner], eta)
        owner, ks = owner[keep], ks[keep]
        its.append(_Iterates(p, d[owner], ks, eta, ell0))
        passing = np.flatnonzero(its[-1].ok)
        # ks rise within each owner, so its first passing index is its smallest k
        smallest = passing[np.diff(owner[passing], prepend=-1) != 0]
        picks[i, owner[smallest]] = smallest
        alive = owner[smallest]
    return its, picks


class GapReport(namedtuple("GapReport", [
        "ok",
        "rows"])):      # (profile index, ell, mu_plus, bound d - 2)
    __slots__ = ()


def convexity_gap_check(profiles: Sequence[IterationProfile],
                        solution: RecurrenceSolution, m: int) -> GapReport:
    """Check mu_+(Phi_i^{k_i - l}) <= d - 2 for 1 <= l <= ell0.

    Requires the convexity hypothesis mu_-(Phi_i) >= m + 2 on every profile,
    one profile per order of the solution and every order above ell0, as
    verify_recurrence does (_orders_at: InvalidParameter, IterateUnderflow).
    """
    ells = np.arange(1, solution.ell0 + 1, dtype=np.int64)
    # one call per profile: the first iterate, then k - ell for 1 <= ell <= ell0
    tables = [index_triple(p, np.concatenate([[1], k - ells]))
              for p, k in zip(profiles, _orders_at(profiles, solution.k, solution.ell0))]
    for i, t in enumerate(tables):
        if t.mu_minus[0] < m + 2:
            raise HypothesisFailed(
                f"profile {i} has mu_- = {t.mu_minus[0]} < m + 2 = {m + 2}"
            )
    rows = tuple((i, ell, mu_plus, solution.d - 2) for i, t in enumerate(tables)
                 for ell, mu_plus in enumerate(t.mu_plus[1:].tolist(), start=1))
    return GapReport(ok=all(mu_plus <= solution.d - 2 for _i, _ell, mu_plus, _b in rows),
                     rows=rows)
