"""Search and exact verification of simultaneous index recurrences.

Given profiles Phi_0..Phi_q with positive mean index, the target is integer
pairs (d, k_i) with

  R1:  |mean(Phi_i^{k_i}) - d| < eta                       for every i,
  R2:  mu_pm(Phi_i^{k_i + l}) = d + mu_pm(Phi_i^l),        1 <= l <= l0,
  R3:  mu_+(Phi_i^{k_i - l}) = d - mu_-(Phi_i^l) + (b_+ - b_-)(Phi_i^l),

with d and all k_i divisible by a given N.  The searcher scans k_0 in
multiples of N (numpy-vectorized prefilters, exact verification on the
survivors), proposes d as the nearest multiple of N to k_0 * mean(Phi_0),
and locates the companion k_i in the unique window R1 allows.  An empty
result therefore certifies that no solution exists below the horizon; a
soft flag marks horizons exhausted before the requested solution count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import HypothesisFailed, IterateUnderflow
from .indices import IterationProfile, index_triple

_CHUNK = 1 << 16


@dataclass(frozen=True)
class RecurrenceQuery:
    profiles: tuple
    eta: float
    ell0: int
    n_divisor: int = 1
    k_bound: int = 10 ** 6
    count: int = 3

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ValueError("need at least one profile")
        for i, p in enumerate(self.profiles):
            if p.mean_index(1) <= 0:
                raise HypothesisFailed(
                    f"profile {i} has mean index {p.mean_index(1):.6g} <= 0"
                )
        if self.eta <= 0 or self.ell0 < 1 or self.n_divisor < 1 or self.count < 1:
            raise ValueError("eta > 0, ell0 >= 1, divisor >= 1, count >= 1 required")

    def to_json(self) -> dict:
        return {
            "profiles": [p.to_json() for p in self.profiles],
            "eta": self.eta, "ell0": self.ell0, "n_divisor": self.n_divisor,
            "k_bound": self.k_bound, "count": self.count,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RecurrenceQuery":
        return cls(
            profiles=tuple(IterationProfile.from_json(p) for p in obj["profiles"]),
            eta=float(obj["eta"]), ell0=int(obj["ell0"]),
            n_divisor=int(obj.get("n_divisor", 1)),
            k_bound=int(obj.get("k_bound", 10 ** 6)),
            count=int(obj.get("count", 3)),
        )


@dataclass(frozen=True)
class ConditionRecord:
    name: str
    ok: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class Certificate:
    ok: bool
    records: tuple      # ConditionRecord per profile and condition

    def to_json(self) -> dict:
        return {"ok": self.ok, "records": [r.to_json() for r in self.records]}


@dataclass(frozen=True)
class RecurrenceSolution:
    d: int
    k: tuple
    eta: float
    ell0: int
    certificate: Certificate = field(compare=False)

    def to_json(self) -> dict:
        return {"d": self.d, "k": list(self.k), "eta": self.eta, "ell0": self.ell0,
                "certificate": self.certificate.to_json()}


def verify_recurrence(profiles: Sequence[IterationProfile], d: int,
                      ks: Sequence[int], eta: float, ell0: int) -> Certificate:
    """Exact per-condition verification; every computed value is recorded."""
    profiles = list(profiles)
    ks = [int(k) for k in ks]
    if len(ks) != len(profiles):
        raise ValueError(f"{len(ks)} iteration orders for {len(profiles)} profiles")
    records = []
    for i, (p, k) in enumerate(zip(profiles, ks)):
        if k - ell0 < 1:
            raise IterateUnderflow(f"profile {i}: k = {k} <= ell0 = {ell0}")
        records += _Iterates(p, d, k, eta, ell0).records(i)
    return Certificate(ok=all(r.ok for r in records), records=tuple(records))


class _Iterates:
    """R1-R3 of one profile at (d, k), read from one index_triple call over
    the iterates ell, k + ell and k - ell for 1 <= ell <= ell0."""

    def __init__(self, p: IterationProfile, d: int, k: int, eta: float, ell0: int):
        self.p, self.d, self.k, self.ell0 = p, d, k, ell0
        ells = np.arange(1, ell0 + 1, dtype=np.int64)
        self.orders = np.concatenate([ells, k + ells, k - ells])
        t = index_triple(p, self.orders)
        # rows: the iterates ell (base), k + ell (up) and k - ell (down)
        self.lo = t.mu_minus.reshape(3, ell0)
        self.hi = t.mu_plus.reshape(3, ell0)
        self.mean = p.mean_index(k)
        self.r1 = abs(self.mean - d) < eta
        self.expected = (d + self.lo[0], d + self.hi[0])
        self.r2 = (self.lo[1] == self.expected[0]) & (self.hi[1] == self.expected[1])
        # b_+ - b_- of the ell-th iterate: elliptic blocks hitting an integer
        # contribute zero planes only, and a degenerate factor's counts are
        # stable under positive scaling of its form.
        self.want = d - self.lo[0] + p.b_correction()
        self.r3 = self.hi[2] == self.want
        self.ok = bool(self.r1 and self.r2.all() and self.r3.all())

    def records(self, i: int) -> list:
        """ConditionRecords of R1-R3 for profile i, with two consequences of
        R3: the nu_a bound always, exact symmetry when the ell-th and
        (k - ell)-th iterates are nondegenerate."""
        d, corr = self.d, self.p.b_correction()
        nu = self.p.nu_a(self.orders).reshape(3, self.ell0)
        columns = [a.tolist() for a in (
            self.r2, self.lo[1], self.hi[1], *self.expected, self.r3, self.hi[2], self.want,
            d - self.lo[0] + nu[0], (nu[0] == 0) & (nu[2] == 0), d - self.hi[0])]
        out = [ConditionRecord(f"R1[{i}]", self.r1,
                               {"mean": self.mean, "d": d, "gap": abs(self.mean - d)})]
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


@dataclass(frozen=True)
class SearchResult:
    solutions: tuple
    horizon_exhausted: bool
    scanned_up_to: int

    def to_json(self) -> dict:
        return {"solutions": [s.to_json() for s in self.solutions],
                "horizon_exhausted": self.horizon_exhausted,
                "scanned_up_to": self.scanned_up_to}


def recurrence_search(query: RecurrenceQuery, on_solution=None) -> SearchResult:
    """Scan k_0 <= k_bound for solutions; deterministic, exhaustive order.

    Solutions are emitted with strictly increasing d, companions chosen as
    the smallest passing candidate.  on_solution, when given, is called with
    each solution as found (the CLI uses this to stream).
    """
    p0 = query.profiles[0]
    mean0 = p0.mean_index(1)
    N = query.n_divisor
    eta = query.eta
    found = []
    last_d = 0
    k0 = N * max(1, (query.ell0 + N) // N)  # k0 - ell0 >= 1 required
    while k0 <= query.k_bound and len(found) < query.count:
        hi = min(query.k_bound, k0 + _CHUNK * N - N)
        k0s = np.arange(k0, hi + N, N, dtype=np.int64)
        means = k0s * mean0
        ds = np.rint(means / N).astype(np.int64) * N
        mask = (np.abs(means - ds) < eta) & (ds > last_d)
        # companion feasibility prefilter: for each other profile there must
        # be a multiple of N within the R1 window around d / mean_i; only
        # sound when the window is narrower than the divisor spacing
        for p in query.profiles[1:]:
            mi = p.mean_index(1)
            if eta >= N * mi:
                continue
            approx = ds / (N * mi)
            cand_lo = np.floor(approx).astype(np.int64) * N
            cand_hi = cand_lo + N
            ok_i = (np.abs(cand_lo * mi - ds) < eta) | (np.abs(cand_hi * mi - ds) < eta)
            mask &= ok_i
        for k0_val, d_val in zip(k0s[mask], ds[mask]):
            if d_val <= last_d:
                continue
            sol = _assemble(query, int(k0_val), int(d_val))
            if sol is not None:
                found.append(sol)
                last_d = sol.d
                if on_solution is not None:
                    on_solution(sol)
                if len(found) >= query.count:
                    break
        k0 = hi + N
    return SearchResult(
        solutions=tuple(found),
        horizon_exhausted=len(found) < query.count,
        scanned_up_to=min(query.k_bound, k0 - N),
    )


def _assemble(query: RecurrenceQuery, k0: int, d: int) -> Optional[RecurrenceSolution]:
    N, eta, ell0 = query.n_divisor, query.eta, query.ell0
    if k0 - ell0 < 1:
        return None
    # profile 0 first: its outcome does not depend on the companions
    picked = [_Iterates(query.profiles[0], d, k0, eta, ell0)]
    if not picked[0].ok:
        return None
    for p in query.profiles[1:]:
        mi = p.mean_index(1)
        lo = int(np.floor((d - eta) / (N * mi))) * N
        hi = int(np.ceil((d + eta) / (N * mi))) * N
        for k in range(max(N, lo), hi + N, N):
            if k - ell0 < 1 or abs(k * mi - d) >= eta:
                continue
            it = _Iterates(p, d, k, eta, ell0)
            if it.ok:
                picked.append(it)   # smallest passing candidate wins
                break
        else:
            return None
    records = [r for i, it in enumerate(picked) for r in it.records(i)]
    if not all(r.ok for r in records):
        return None
    return RecurrenceSolution(d=d, k=tuple(it.k for it in picked), eta=eta, ell0=ell0,
                              certificate=Certificate(ok=True, records=tuple(records)))


@dataclass(frozen=True)
class GapReport:
    ok: bool
    rows: tuple      # (profile index, ell, mu_plus, bound d - 2)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": [list(r) for r in self.rows]}


def convexity_gap_check(profiles: Sequence[IterationProfile],
                        solution: RecurrenceSolution, m: int) -> GapReport:
    """Check mu_+(Phi_i^{k_i - l}) <= d - 2 for 1 <= l <= ell0.

    Requires the convexity hypothesis mu_-(Phi_i) >= m + 2 on every profile.
    """
    ells = np.arange(1, solution.ell0 + 1, dtype=np.int64)
    # one call per profile: the first iterate, then k - ell for 1 <= ell <= ell0
    tables = [index_triple(p, np.concatenate([[1], k - ells]))
              for p, k in zip(profiles, solution.k)]
    for i, t in enumerate(tables):
        if t.mu_minus[0] < m + 2:
            raise HypothesisFailed(
                f"profile {i} has mu_- = {t.mu_minus[0]} < m + 2 = {m + 2}"
            )
    rows = tuple((i, ell, mu_plus, solution.d - 2) for i, t in enumerate(tables)
                 for ell, mu_plus in enumerate(t.mu_plus[1:].tolist(), start=1))
    return GapReport(ok=all(mu_plus <= solution.d - 2 for _i, _ell, mu_plus, _b in rows),
                     rows=rows)
