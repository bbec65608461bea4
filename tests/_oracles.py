"""Independent oracles used by the tests.

These deliberately avoid the library's computation paths: the path index is
recomputed from crossing contributions, sublevel homology ranks by brute
force over the two-element field, and derivatives by finite differences. The
scalar index formulas, the per-ell recurrence check, the scalar
action-calculus loops, the scalar exclusion certificate and the pair-by-pair
audit sweep over it are the exception: they are the per-element paths the
array code replaced, kept to check it bit for bit. So are the scan over
every k0 that the recurrence search's residue-class enumeration replaced,
the id-keyed filtered complex and barcode that the integer columns replaced,
the frozenset columns over filtration positions that the bit columns
replaced, the one-level bisection that the bisection of several levels
per call replaced, the normal-form invariants read through the matrix logarithm that
the form on ker (A - I)^s replaced, the slope check over the whole
action spectrum that the check of the multiples next to the slope replaced,
and the rationality detection that re-folded each continued-fraction
convergent, which the convergent recurrence replaced; and the mean index
and int64 growth bound of an iteration profile summed on every call, which
the values the profile keeps from its construction replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Set, Tuple

import numpy as np

from reeb_lab.audit import (
    CASE_ALIGNED,
    CASE_FAR,
    CASE_NEAR,
    CASE_SAME,
    ExclusionReason,
    SolutionAudit,
    _aligned_certificate,
    _contradiction,
    _protected_degree,
    case_classify,
    j_range,
)
from reeb_lab.ellipsoid import _CF_DENOMINATOR_CAP, _CF_REMAINDER, action_spectrum
from reeb_lab.errors import (
    FiltrationViolation,
    InvalidParameter,
    IterateUnderflow,
    MalformedGraph,
    NotADifferential,
    NotExcluded,
    NotUnipotent,
    SupportOutOfRange,
    UnresolvedNormalForm,
)
from reeb_lab.floergraph import INF, Bar
from reeb_lab.hamiltonian import _UNSETTLED_HALVINGS, action_from_period
from reeb_lab.indices import (
    INTEGER_BAND,
    IndexTriple,
    _fits_int64,
    index_triple,
    support_interval,
)
from reeb_lab.recurrence import (
    Certificate,
    ConditionRecord,
    RecurrenceSolution,
    SearchResult,
    _Iterates,
)
from reeb_lab.symplectic import (
    DEFAULT_TOL,
    SymplecticMatrix,
    WilliamsonInvariants,
    _null_basis,
    _rank,
    standard_form,
)

from _matrices import _expm, flow_rotation


def flow_path(S: np.ndarray, n_samples: int = 400, t_end: float = 1.0) -> np.ndarray:
    """Sampled flow of the quadratic Hamiltonian with Hessian S."""
    S = np.asarray(S, dtype=float)
    K = flow_rotation(S.shape[0] // 2) @ S
    return np.array([_expm(K * t) for t in np.linspace(0.0, t_end, n_samples + 1)])


def crossing_index(path: np.ndarray) -> int:
    """Conley-Zehnder index via signed crossings of the degeneracy locus.

    At each time where 1 is an eigenvalue of the sample, the quadratic form
    v -> omega(v, dPhi/dt v) on the (near-)eigenspace contributes its
    signature, halved at t = 0.  Crossings land between samples, so the
    kernel cutoff scales with the sampling step; a near-crossing that is not
    one contributes nothing because the form is evaluated on an empty space.
    Independent of the polar-winding implementation.
    """
    n = path.shape[1]
    J = standard_form(n // 2)
    ts = np.linspace(0.0, 1.0, path.shape[0])
    step = float(np.max(np.abs(np.diff(path, axis=0)).max(axis=(1, 2))))
    thresh = 4.0 * max(step, 1e-12)

    def kernel_basis(M, cut):
        _u, s, vH = np.linalg.svd(M - np.eye(n))
        rank = int(np.sum(s > cut))
        return vH[rank:].T if rank < n else None

    def crossing_signature(i, cut):
        V = kernel_basis(path[i], cut)
        if V is None:
            return 0
        lo = max(0, i - 1)
        hi = min(path.shape[0] - 1, i + 1)
        dPhi = (path[hi] - path[lo]) / (ts[hi] - ts[lo])
        G = V.T @ J @ dPhi @ V
        G = (G + G.T) / 2.0
        vals = np.linalg.eigvalsh(G)
        scale = max(1e-10, float(np.abs(vals).max()) * 1e-8)
        return int(np.sum(vals > scale)) - int(np.sum(vals < -scale))

    total = 0.5 * crossing_signature(0, cut=1e-8)
    dist = np.array([np.min(np.abs(np.linalg.eigvals(M) - 1.0)) for M in path])
    i = 1
    while i < len(ts) - 1:
        if dist[i] < thresh and dist[i] <= dist[i - 1] and dist[i] <= dist[i + 1]:
            total += crossing_signature(i, cut=thresh)
            while i < len(ts) - 1 and dist[i + 1] < thresh:
                i += 1
        i += 1
    if dist[-1] < thresh:
        raise ValueError("endpoint too close to degenerate: oracle undefined")
    return int(round(total))


def rotation_index_closed_form(rho: float) -> int:
    """2 floor(rho) + 1 for a rotation path with noninteger rotation number."""
    if abs(rho - round(rho)) < 1e-12:
        raise ValueError("integer rotation number")
    return 2 * math.floor(rho) + 1


# ---------------------------------------------------------------------------
# brute-force sublevel homology over the two-element field
# ---------------------------------------------------------------------------

def _gf2_rank(rows) -> int:
    rows = [r for r in (int(r) for r in rows) if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        top = pivot.bit_length() - 1
        rows = [(r ^ pivot) if (r >> top) & 1 else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def sublevel_betti(generators, boundary, level) -> dict:
    """Betti numbers by degree of the sublevel complex at `level`.

    generators: list of (id, action, degree); boundary: id -> iterable of ids.
    dim H_d = dim Z_d - dim B_d computed from matrix ranks over GF(2).
    """
    alive = [g for g in generators if g[1] <= level]
    index = {g[0]: i for i, g in enumerate(alive)}
    degrees = sorted({g[2] for g in alive})
    betti = {}
    for d in degrees:
        cols_d = [g for g in alive if g[2] == d]
        # rank of the boundary leaving degree d
        rows_out = []
        for g in cols_d:
            mask = 0
            for target in boundary.get(g[0], ()):  # targets one degree lower
                if target in index:
                    mask |= 1 << index[target]
            rows_out.append(mask)
        rank_out = _gf2_rank(rows_out)
        # rank of the boundary arriving into degree d
        cols_up = [g for g in alive if g[2] == d + 1]
        rows_in = []
        for g in cols_up:
            mask = 0
            for target in boundary.get(g[0], ()):
                if target in index:
                    mask |= 1 << index[target]
            rows_in.append(mask)
        rank_in = _gf2_rank(rows_in)
        betti[d] = len(cols_d) - rank_out - rank_in
    return betti


def bars_betti(bars, level) -> dict:
    """Betti numbers at a level from a barcode: bars with birth <= level < death."""
    betti = {}
    for b in bars:
        if b.birth <= level < b.death:
            betti[b.degree] = betti.get(b.degree, 0) + 1
    return betti


def random_complex(rng, n_generators: int, degrees=(0, 1, 2), distinct: bool = True):
    """Random filtered complex with a strictly action-decreasing differential.

    Degrees descend along the boundary and squares to zero by construction:
    the boundary only maps the top degree to cycles of the middle degree
    when those are closed, so instead we build it upper-triangularly and then
    repair d^2 = 0 by dropping offending terms.  With distinct=False the
    actions are whole numbers and may tie.
    """
    gens = []
    for i in range(n_generators):
        deg = int(rng.choice(degrees))
        action = float(np.round(rng.uniform(0, 10), 6 if distinct else 0))
        gens.append((f"g{i}", action, deg))
    # make actions distinct to keep tie order irrelevant
    seen = set()
    out = []
    for gid, a, d in gens:
        while distinct and a in seen:
            a += 1e-3
        seen.add(a)
        out.append((gid, a, d))
    gens = out
    boundary = {}
    for gid, a, d in gens:
        targets = [h[0] for h in gens if h[2] == d - 1 and h[1] < a
                   and rng.random() < 0.4]
        if targets:
            boundary[gid] = set(targets)
    # repair d^2 = 0 greedily: process by increasing action
    order = sorted(gens, key=lambda g: g[1])
    for gid, a, d in order:
        rows = boundary.get(gid)
        if not rows:
            continue
        acc = set()
        for r in rows:
            acc ^= boundary.get(r, set())
        if acc:
            # cancel by editing the boundary of gid: XOR with the boundary of
            # a generator whose own boundary is acc... simplest: drop targets
            # whose boundaries are nonzero
            keep = {r for r in rows if not boundary.get(r)}
            if keep:
                boundary[gid] = keep
            else:
                boundary.pop(gid)
    return gens, {k: frozenset(v) for k, v in boundary.items()}


# ---------------------------------------------------------------------------
# the filtered complex keyed by generator id
# ---------------------------------------------------------------------------

def id_keyed_complex(generators, boundary) -> dict:
    """FilteredComplex's construction checks on sets of ids, the code the
    integer columns replaced; returns the boundary as frozensets of ids.
    The rows are checked in their given order."""
    ids = [g[0] for g in generators]
    if len(set(ids)) != len(ids):
        raise MalformedGraph("duplicate generator ids")
    info = {g[0]: (float(g[1]), int(g[2])) for g in generators}
    if not all(map(math.isfinite, (a for a, _ in info.values()))):
        gid = next(g for g, (a, _) in info.items() if not math.isfinite(a))
        raise FiltrationViolation(f"generator {gid} has action {info[gid][0]}: "
                                  f"actions must be finite")
    for col, rows in boundary.items():
        if col not in info:
            raise MalformedGraph(f"boundary of unknown generator {col}")
        action, degree = info[col]
        for r in rows:
            if r not in info:
                raise MalformedGraph(f"boundary hits unknown generator {r}")
            r_action, r_degree = info[r]
            if not r_action < action:
                raise FiltrationViolation(
                    f"boundary of {col} (action {action}) hits {r} "
                    f"(action {r_action}): not strictly decreasing"
                )
            if r_degree != degree - 1:
                raise MalformedGraph(
                    f"boundary of {col} (degree {degree}) hits {r} "
                    f"(degree {r_degree}): the degree must drop by one"
                )
    boundary = {k: frozenset(v) for k, v in boundary.items()}
    for col, rows in boundary.items():
        acc: Set = set()
        for r in rows:
            acc ^= set(boundary.get(r, frozenset()))
        if acc:
            raise NotADifferential(f"boundary of boundary of {col} is {sorted(acc)}")
    return boundary


def id_keyed_barcode(generators, boundary) -> list:
    """Standard column reduction in action order, over columns rebuilt from
    the ids (see id_keyed_complex for the checks)."""
    boundary = id_keyed_complex(generators, boundary)
    order = sorted(range(len(generators)),
                   key=lambda i: (generators[i][1], i))
    pos = {generators[i][0]: rank for rank, i in enumerate(order)}
    gens = [generators[i] for i in order]

    columns: List[Set[int]] = []
    for gid, _a, _d in gens:
        columns.append({pos[r] for r in boundary.get(gid, frozenset())})
    low_to_col: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                break
            col ^= columns[other]
        if col:
            low = max(col)
            low_to_col[low] = j
            columns[j] = col
            pairs.append((low, j))
    paired = {i for p in pairs for i in p}
    bars = []
    for i, j in pairs:
        bars.append(Bar(birth=gens[i][1], death=gens[j][1], degree=gens[i][2]))
    for i, (gid, a, d) in enumerate(gens):
        if i not in paired:
            bars.append(Bar(birth=a, death=INF, degree=d))
    bars.sort(key=lambda b: (b.birth, b.death, b.degree))
    return bars


def frozenset_barcode(generators, boundary) -> list:
    """FilteredComplex's construction and barcode on frozenset columns over
    filtration positions, the code the bit columns over per-degree ranks
    replaced: the same checks in the same order, with the same messages."""
    gens = generators
    ids = [g[0] for g in gens]
    if len(set(ids)) != len(ids):
        raise MalformedGraph("duplicate generator ids")
    for g in gens:
        if not math.isfinite(float(g[1])):
            raise FiltrationViolation(f"generator {g[0]} has action {float(g[1])}: "
                                      f"actions must be finite")
    order = sorted(range(len(gens)), key=lambda i: (gens[i][1], i))
    pos = {ids[i]: p for p, i in enumerate(order)}
    action = [float(gens[i][1]) for i in order]
    degree = [int(gens[i][2]) for i in order]
    columns = [frozenset()] * len(gens)
    for col, rows in boundary.items():
        j = pos.get(col)
        if j is None:
            raise MalformedGraph(f"boundary of unknown generator {col}")
        column = []
        for r in rows:
            p = pos.get(r)
            if p is None:
                raise MalformedGraph(f"boundary hits unknown generator {r}")
            if not action[p] < action[j]:
                raise FiltrationViolation(
                    f"boundary of {col} (action {action[j]}) hits {r} "
                    f"(action {action[p]}): not strictly decreasing"
                )
            if degree[p] != degree[j] - 1:
                raise MalformedGraph(
                    f"boundary of {col} (degree {degree[j]}) hits {r} "
                    f"(degree {degree[p]}): the degree must drop by one"
                )
            column.append(p)
        columns[j] = frozenset(column)
    for j, column in enumerate(columns):
        acc: Set[int] = set()
        for p in column:
            acc ^= columns[p]
        if acc:
            raise NotADifferential(f"boundary of boundary of {ids[order[j]]} is "
                                   f"{sorted(ids[order[p]] for p in acc)}")

    gens = [gens[i] for i in order]
    low_to_col: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            other = low_to_col.get(low)
            if other is None:
                low_to_col[low] = j
                columns[j] = col
                pairs.append((low, j))
                break
            col ^= columns[other]
    paired = {i for p in pairs for i in p}
    bars = []
    for i, j in pairs:
        bars.append(Bar(birth=gens[i][1], death=gens[j][1], degree=gens[i][2]))
    for i, (gid, a, d) in enumerate(gens):
        if i not in paired:
            bars.append(Bar(birth=a, death=INF, degree=d))
    bars.sort(key=lambda b: (b.birth, b.death, b.degree))
    return bars


# ---------------------------------------------------------------------------
# iterate indices and the recurrence check, one iterate at a time
# ---------------------------------------------------------------------------

def _is_integer(x, band: float = INTEGER_BAND):
    """Return (hit, nearest_int) under the guard-band policy."""
    if isinstance(x, Fraction):
        return x.denominator == 1, int(x) if x.denominator == 1 else int(math.floor(x))
    n = round(float(x))
    return abs(float(x) - n) <= band, int(n)


def _times(rho, k: int):
    return rho * k if isinstance(rho, Fraction) else float(rho) * k


def per_call_mean_index(profile, k):
    """IterationProfile.mean_index(k), its rotation numbers summed anew."""
    rho_sum = sum(float(r) for r in profile.elliptic)
    return k * (profile.loop_index + 2.0 * rho_sum + sum(profile.hyperbolic))


def per_call_fits_int64(profile, k: int) -> bool:
    """_fits_int64(profile, k), its growth bound and half-dimension summed anew."""
    deg = profile.degenerate.m if profile.degenerate is not None else 0
    dim_half = len(profile.elliptic) + len(profile.hyperbolic) + deg
    growth = (abs(profile.loop_index) + sum(map(abs, profile.hyperbolic)) + 2 * dim_half
              + sum(2.0 * abs(float(rho)) for rho in profile.elliptic))
    return k * growth < 2 ** 62


def scalar_nu_a(profile, k: int) -> int:
    """Half the algebraic multiplicity of eigenvalue 1 of the k-th iterate."""
    hits = sum(1 for rho in profile.elliptic if _is_integer(_times(rho, k))[0])
    deg = profile.degenerate.m if profile.degenerate is not None else 0
    return hits + deg


def scalar_index_triple(profile, k: int) -> IndexTriple:
    """Exact (mu_minus, mu_plus, mu_hat) of the k-th iterate in Python ints."""
    if k < 1:
        raise InvalidParameter(f"iteration order must be >= 1, got {k}")
    lo = hi = k * profile.loop_index
    for rho in profile.elliptic:
        t = _times(rho, k)
        hit, n = _is_integer(t)
        if hit:
            hi += 2 * n + 1
            lo += 2 * n - 1
        else:
            v = 2 * int(math.floor(t)) + 1
            hi += v
            lo += v
    for h in profile.hyperbolic:
        lo += k * h
        hi += k * h
    if profile.degenerate is not None:
        d = profile.degenerate
        hi += d.b0 + d.b_plus + d.nu0
        lo -= d.b0 + d.b_minus + d.nu0
    return IndexTriple(mu_minus=lo, mu_plus=hi, mu_hat=per_call_mean_index(profile, k),
                       nu_a=scalar_nu_a(profile, k))


def scalar_support_interval(profile, k: int, n: int) -> tuple:
    """[mu_minus, mu_plus + 1] of the k-th iterate; SupportOutOfRange when it
    leaves [mu_hat - n + 1, mu_hat + n] by more than 1e-9."""
    t = scalar_index_triple(profile, k)
    lo, hi = t.mu_minus, t.mu_plus + 1
    if lo < t.mu_hat - n + 1 - 1e-9 or hi > t.mu_hat + n + 1e-9:
        raise SupportOutOfRange(
            f"support [{lo}, {hi}] escapes [mu_hat - n + 1, mu_hat + n] at k={k}")
    return (lo, hi)


def scalar_verify_recurrence(profiles, d: int, ks, eta: float, ell0: int) -> Certificate:
    """R1-R3 and their consequences, one iterate and one record at a time."""
    profiles = list(profiles)
    ks = [int(k) for k in ks]
    if len(ks) != len(profiles):
        raise InvalidParameter(f"{len(ks)} iteration orders for {len(profiles)} profiles")
    records = []
    ok = True
    for i, (p, k) in enumerate(zip(profiles, ks)):
        if k - ell0 < 1:
            raise IterateUnderflow(f"profile {i}: k = {k} <= ell0 = {ell0}")
        mean_k = p.mean_index(k)
        r1 = abs(mean_k - d) < eta
        records.append(ConditionRecord(
            name=f"R1[{i}]", ok=r1,
            detail={"mean": mean_k, "d": d, "gap": abs(mean_k - d)}))
        ok &= r1
        for ell in range(1, ell0 + 1):
            up = scalar_index_triple(p, k + ell)
            base = scalar_index_triple(p, ell)
            r2 = (up.mu_minus == d + base.mu_minus) and (up.mu_plus == d + base.mu_plus)
            records.append(ConditionRecord(
                name=f"R2[{i},{ell}]", ok=r2,
                detail={"mu_minus": up.mu_minus, "mu_plus": up.mu_plus,
                        "expected_minus": d + base.mu_minus,
                        "expected_plus": d + base.mu_plus}))
            ok &= r2
            down = scalar_index_triple(p, k - ell)
            corr = p.b_correction()
            want = d - base.mu_minus + corr
            r3 = down.mu_plus == want
            records.append(ConditionRecord(
                name=f"R3[{i},{ell}]", ok=r3,
                detail={"mu_plus": down.mu_plus, "expected": want, "b_corr": corr}))
            ok &= r3
            bound = d - base.mu_minus + scalar_nu_a(p, ell)
            r3b = down.mu_plus <= bound
            records.append(ConditionRecord(
                name=f"R3-bound[{i},{ell}]", ok=r3b,
                detail={"mu_plus": down.mu_plus, "bound": bound}))
            ok &= r3b
            if scalar_nu_a(p, ell) == 0 and scalar_nu_a(p, k - ell) == 0:
                sym = down.mu_plus == d - base.mu_plus
                records.append(ConditionRecord(
                    name=f"R3-nondeg[{i},{ell}]", ok=sym,
                    detail={"mu": down.mu_plus, "expected": d - base.mu_plus}))
                ok &= sym
    return Certificate(ok=ok, records=tuple(records))


# ---------------------------------------------------------------------------
# the recurrence search as a scan over every k0
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16


def scan_recurrence_search(query, on_solution=None) -> SearchResult:
    """Scan k_0 <= k_bound for solutions in chunks of _CHUNK multiples of N,
    with numpy prefilters; the search the residue-class enumeration replaced.

    Three things differ from the replaced code: a chunk ends at hi + 1, not
    hi + N, which let a k_bound that is not a multiple of N admit one k_0
    above it; the scan raises InvalidParameter at the first k_0 whose iterate
    k_0 + ell0 of profile 0 leaves int64, where R1's test used to wrap; and
    scanned_up_to is the k_0 of the last solution, or k_bound when the
    horizon is exhausted, not the end of the last chunk."""
    p0 = query.profiles[0]
    mean0 = p0.mean_index(1)
    N = query.n_divisor
    eta = query.eta
    found = []
    last_d = 0
    k0 = N * max(1, (query.ell0 + N) // N)  # k0 - ell0 >= 1 required
    while k0 <= query.k_bound and len(found) < query.count:
        hi = min(query.k_bound, k0 + _CHUNK * N - N)
        k0s = np.arange(k0, hi + 1, N, dtype=np.int64)
        # R1's test wraps once k0 * mean0 leaves int64: test no k0 whose
        # iterate k0 + ell0 has indices outside it, and raise there
        unfit = [] if _fits_int64(p0, hi + query.ell0) else [
            k for k in k0s.tolist() if not _fits_int64(p0, k + query.ell0)]
        if unfit:
            k0s = k0s[k0s < unfit[0]]
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
            sol = _scan_assemble(query, int(k0_val), int(d_val))
            if sol is not None:
                found.append(sol)
                last_d = sol.d
                if on_solution is not None:
                    on_solution(sol)
                if len(found) >= query.count:
                    break
        if unfit and len(found) < query.count:
            raise InvalidParameter(f"indices of iterate {unfit[0] + query.ell0} leave int64")
        k0 = hi + N
    exhausted = len(found) < query.count
    return SearchResult(solutions=tuple(found), horizon_exhausted=exhausted,
                        scanned_up_to=query.k_bound if exhausted else found[-1].k[0])


def _scan_assemble(query, k0: int, d: int):
    """One candidate of the scan; the R1-R3 test of each (profile, k) is an
    _Iterates of length one."""
    N, eta, ell0 = query.n_divisor, query.eta, query.ell0
    if k0 - ell0 < 1:
        return None

    def iterates(p, k):
        return _Iterates(p, np.array([d]), np.array([k]), eta, ell0)

    # profile 0 first: its outcome does not depend on the companions
    picked = [iterates(query.profiles[0], k0)]
    if not picked[0].ok[0]:
        return None
    for p in query.profiles[1:]:
        mi = p.mean_index(1)
        lo = int(np.floor((d - eta) / (N * mi))) * N
        hi = int(np.ceil((d + eta) / (N * mi))) * N
        for k in range(max(N, lo), hi + N, N):
            if k - ell0 < 1 or abs(k * mi - d) >= eta:
                continue
            it = iterates(p, k)
            if it.ok[0]:
                picked.append(it)   # smallest passing candidate wins
                break
        else:
            return None
    records = [r for i, it in enumerate(picked) for r in it.records(i)]
    if not all(r.ok for r in records):
        return None
    return RecurrenceSolution(d=d, k=tuple(int(it.k[0]) for it in picked), eta=eta,
                              ell0=ell0, profiles=tuple(query.profiles))


# ---------------------------------------------------------------------------
# scalar action calculus, one element at a time
# ---------------------------------------------------------------------------

def scalar_bisect(f, target, top: float, steps: int):
    """The bisection that _bisect's several levels per call of f replaced:
    one level per call, elementwise over the target array, stopping at the
    first step after _UNSETTLED_HALVINGS whose midpoints are all ends of
    their brackets."""
    lo, hi = np.zeros_like(target), np.full_like(target, top)
    for i in range(steps):
        mid = 0.5 * (lo + hi)
        if i >= _UNSETTLED_HALVINGS and ((mid == lo) | (mid == hi)).all():
            return mid
        below = f(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def scalar_action_from_period(profile, T: float, k: float = 1.0) -> tuple:
    """(a_{kH}(T), r) for one period T in [0, k * slope]: action_from_period,
    except that a spline's level comes from scalar_spline_dh_inv, so that no
    bisection of the library takes part."""
    if profile.family != "spline":
        return action_from_period(profile, T, k)
    period = min(max(T / k, 0.0), profile.slope)
    r = min(max(float(scalar_spline_dh_inv(profile, period)[0]) + 1.0, 1.0), profile.r_max)
    return profile.action(r, k), r


def scalar_action_inverse(profile, alpha: float, k: float = 1.0) -> float:
    """80-step bisection of a_{kH}(T) = alpha over scalar_action_from_period
    calls, then one Newton step with a' = r."""
    top = k * profile.c
    alpha = min(max(alpha, 0.0), top)
    lo, hi = 0.0, k * profile.slope
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if scalar_action_from_period(profile, mid, k)[0] < alpha:
            lo = mid
        else:
            hi = mid
    T = 0.5 * (lo + hi)
    val, r = scalar_action_from_period(profile, T, k)
    if r > 1.0:
        T = min(max(T - (val - alpha) / r, 0.0), k * profile.slope)
    return T


def scalar_spline_dh_inv(profile, T) -> np.ndarray:
    """x = r - 1 with h'(r) = T on a spline's shell: a 64-step bisection on
    the monotone h' and one Newton step, element by element."""
    T = np.atleast_1d(np.asarray(T, dtype=float))
    w = profile.r_max - 1.0
    out = np.empty_like(T)
    for j, target in enumerate(T):
        lo, hi = 0.0, w
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if profile._piece_dh(mid) < target:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        d2 = float(profile._piece_d2h(x))
        if d2 > 0:
            x = float(np.clip(x - (float(profile._piece_dh(x)) - target) / d2, 0.0, w))
        out[j] = x
    return out


# ---------------------------------------------------------------------------
# the exclusion sweep, one pair at a time
# ---------------------------------------------------------------------------

def scalar_exclusion_certificate(system, solution, i: int, j: int) -> ExclusionReason:
    """Certify that the (i, j)-orbit cannot reach the protected generator.

    Raises NotExcluded with the full numeric context when no reason applies;
    that failure is the audit's most informative output.
    """
    return _certify(system, solution, i, j, *_protected(system, solution))


def _protected(system, solution) -> tuple:
    """_protected_degree at the mu_- of the distinguished orbit's k_0-th iterate."""
    z = system.orbits[0]
    return _protected_degree(system, solution, index_triple(z.profile, solution.k[0]).mu_minus)


def _interval_gap(p: int, lo, hi):
    """Distance from degree p to the interval [lo, hi], elementwise on arrays."""
    return np.maximum(np.maximum(lo - p, p - hi), 0)


def _certify(system, solution, i: int, j: int,
             protected: int, which: str) -> ExclusionReason:
    """scalar_exclusion_certificate, given the protected generator's degree and which."""
    case = case_classify(system, solution, i, j, j_range(system, solution, i))
    if case == CASE_SAME and j == solution.k[0]:
        return ExclusionReason(
            kind="same-pair", case=case, i=i, j=j,
            numbers={"degrees": [protected - 1, protected + 1], "which": which})
    if case == CASE_ALIGNED:
        H = system.hamiltonian
        r_level = float(H.dh_inv(j * system.norm_periods[i] / solution.k[0]))
        return _aligned_certificate(system, solution, i, j, (r_level, float(H.action(r_level))))

    # other iterates: degree distance to the support, pure index arithmetic
    profile = system.orbits[i].profile
    lo, hi = support_interval(profile, j, system.n)
    gap = int(_interval_gap(protected, lo, hi))
    if case == CASE_SAME:
        if gap < 2:
            raise NotExcluded(
                f"iterate {j} of the distinguished orbit sits {gap} from "
                f"the protected degree",
                {"i": i, "j": j, "support": [lo, hi], "protected": protected})
        return ExclusionReason(kind="index-gap", case=case, i=i, j=j,
                               numbers={"support": [lo, hi], "protected": protected,
                                        "gap": gap, "which": which})
    if gap < 2:
        raise NotExcluded(
            f"support of orbit {i} iterate {j} is {gap} from the protected degree",
            {"i": i, "j": j, "support": [lo, hi], "protected": protected,
             "case": case, "d": solution.d})
    l = j - solution.k[i]
    base = ()
    if case != CASE_FAR:
        t = index_triple(profile, abs(l))
        base = (t.mu_minus, t.nu_a)
    return ExclusionReason(kind="index-gap", case=case, i=i, j=j, numbers=_index_gap_numbers(
        solution.d, l, lo, hi, gap, protected, which, *base))


def _index_gap_numbers(d: int, l: int, lo: int, hi: int, gap: int, protected: int,
                       which: str, base_minus=None, nu: int = 0) -> dict:
    """numbers of the index-gap reason of companion iterate j = k_i + l, whose
    support [lo, hi] is gap from the protected degree; for a near pair, mu_-
    (base_minus) and nu_a (nu) of the |l|-th iterate bound that support."""
    numbers = {"support": [lo, hi], "protected": protected, "gap": gap, "which": which, "l": l}
    if base_minus is None:
        return numbers
    if l > 0:
        numbers["recurrence_floor"] = d + base_minus
    else:
        numbers["recurrence_ceiling"] = d - base_minus + nu
    return numbers


def scalar_audit_solution(system, solution) -> SolutionAudit:
    """One scalar_exclusion_certificate call per pair (i, j), in (i, j) order;
    the first NotExcluded propagates."""
    counts = {"same-pair": 0, "index-gap": 0, "short-action-gap": 0,
              "diverging-action-gap": 0}
    min_gap = None
    min_div = None
    aligned = []
    near = []
    total = 0
    for i in range(len(system.orbits)):
        top = j_range(system, solution, i)
        for j in range(1, top + 1):
            reason = scalar_exclusion_certificate(system, solution, i, j)
            total += 1
            counts[reason.kind] += 1
            if reason.kind == "index-gap":
                g = reason.numbers["gap"]
                min_gap = g if min_gap is None else min(min_gap, g)
                if reason.case == CASE_NEAR:
                    near.append(reason)
            elif reason.kind == "diverging-action-gap":
                b = reason.numbers["lower_bound"]
                min_div = b if min_div is None else min(min_div, b)
                aligned.append(reason)
            elif reason.kind == "short-action-gap":
                aligned.append(reason)

    protected, which = _protected(system, solution)
    return SolutionAudit(
        d=solution.d, k=solution.k, counts=counts,
        min_index_gap=min_gap, min_diverging_gap=min_div,
        aligned=tuple(aligned), near=tuple(near),
        protected={"degree": protected, "which": which},
        w_vertex_gap_ok=protected - system.n >= 2,
        contradiction=_contradiction(system, solution),
        total_pairs=total,
    )


def finite_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# unipotent normal forms through the matrix logarithm
# ---------------------------------------------------------------------------

def nilpotent_log(A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """log(A) for unipotent A via the finite series in N = A - I.

    Exact (up to rounding) because N is nilpotent; no branch issues.
    """
    n = A.shape[0]
    N = A - np.eye(n)
    # nilpotency check: N^n must vanish up to rounding of the power products
    nm = max(1.0, float(np.linalg.norm(N, 2)))
    P = N.copy()
    for _ in range(n - 1):
        P = P @ N
    if float(np.abs(P).max()) > tol * nm ** n * n:
        raise NotUnipotent(f"(A - I)^{n} has max entry {float(np.abs(P).max()):.3e}")
    K = np.zeros_like(N)
    term = np.eye(n)
    for j in range(1, n + 1):
        term = term @ N
        if float(np.abs(term).max()) == 0.0:
            break
        K += ((-1) ** (j + 1)) * term / j
    return K


def log_williamson_invariants(A: SymplecticMatrix, tol: float = DEFAULT_TOL) -> WilliamsonInvariants:
    """Normal-form counts (nu0, b0, b_plus, b_minus) of a unipotent map.

    The Jordan partition of K = log(A) fixes everything except the signs of
    the even chains: size-1 blocks come two per zero plane, odd blocks >= 3
    pair up into b0 chains, and each even block of size 2d carries a sign
    read off from the quadratic form on its chain top, Q(K^{d-1} v).
    """
    M = A.entries
    n = A.dim
    m = A.dim_half
    scale = max(1.0, float(np.abs(M).max()))

    K = nilpotent_log(M, tol)
    S = -flow_rotation(m) @ K          # K = JHAT S  =>  S = JHAT^-1 K = -JHAT K
    sym_err = float(np.abs(S - S.T).max())
    s_scale = max(1.0, float(np.abs(S).max()))
    if sym_err > max(tol * s_scale, 1e-9 * s_scale):
        raise UnresolvedNormalForm(f"generator form not symmetric: residual {sym_err:.3e}")
    S = (S + S.T) / 2.0

    rank_tol = max(tol, 1e-11) * max(s_scale, 1.0) * n

    # rank sequence of K^j and Jordan multiplicities
    powers = [np.eye(n), K]
    while len(powers) <= n:
        powers.append(powers[-1] @ K)
    ranks = [_rank(P, rank_tol) for P in powers]          # ranks[j] = rank K^j
    mult = {}
    for s in range(1, n + 1):
        c = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] if s + 1 <= n else ranks[s - 1] - 2 * ranks[s]
        if c < 0:
            raise UnresolvedNormalForm(f"inconsistent rank sequence at power {s}")
        if c:
            mult[s] = c
    if sum(s * c for s, c in mult.items()) != n:
        raise UnresolvedNormalForm(f"Jordan sizes {mult} do not fill dimension {n}")

    if mult.get(1, 0) % 2 != 0:
        raise UnresolvedNormalForm("odd number of size-1 blocks")
    nu0 = mult.get(1, 0) // 2
    b0 = 0
    for s, c in mult.items():
        if s >= 3 and s % 2 == 1:
            if c % 2 != 0:
                raise UnresolvedNormalForm(f"odd multiplicity {c} of odd Jordan size {s}")
            b0 += c // 2

    b_plus = b_minus = 0
    for s, c in sorted(mult.items()):
        if s % 2 != 0:
            continue
        d = s // 2
        tops = _chain_tops(K, powers, s, c, rank_tol)
        Kd = powers[d - 1]
        W = Kd @ tops                                     # K^{d-1} on the tops
        beta = W.T @ S @ W
        beta = (beta + beta.T) / 2.0
        vals = np.linalg.eigvalsh(beta)
        zero_cut = max(rank_tol, float(np.abs(vals).max()) * 1e-9) if vals.size else rank_tol
        pos = int(np.sum(vals > zero_cut))
        neg = int(np.sum(vals < -zero_cut))
        if pos + neg != c:
            raise UnresolvedNormalForm(
                f"sign form on even chains of size {s} is degenerate: spectrum {vals}"
            )
        b_plus += pos
        b_minus += neg

    nu_g = n - ranks[1]
    return WilliamsonInvariants(nu0=nu0, b0=b0, b_plus=b_plus, b_minus=b_minus,
                                nu_g=nu_g, nu_a=m, m=m)


def _orth_basis(A: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated (qr is not)."""
    if A.shape[1] == 0:
        return A
    u, s, _vH = np.linalg.svd(A, full_matrices=False)
    cutoff = max(tol, (s[0] if s.size else 0.0) * 1e-12)
    return u[:, s > cutoff]


def _chain_tops(K, powers, s, count, tol) -> np.ndarray:
    """Representatives of the Jordan chains of size exactly s.

    Returns a (n, count) matrix spanning ker K^s transverse to
    ker K^{s-1} + K ker K^{s+1}.
    """
    n = K.shape[0]
    U = _null_basis(powers[s], tol)
    low_parts = [_null_basis(powers[s - 1], tol)]
    if s + 1 <= n:
        nxt = _null_basis(powers[s + 1], tol)
        if nxt.shape[1]:
            low_parts.append(K @ nxt)
    L = np.hstack([p for p in low_parts if p.shape[1]]) if low_parts else np.zeros((n, 0))
    if L.shape[1]:
        Q = _orth_basis(L, tol)
        resid = U - Q @ (Q.T @ U)
    else:
        resid = U
    uu, ss, _ = np.linalg.svd(resid, full_matrices=False)
    if ss.size < count or ss[count - 1] < tol:
        raise UnresolvedNormalForm(
            f"could not isolate {count} chain tops of size {s} (singular values {ss[:count]})"
        )
    return uu[:, :count]


# ---------------------------------------------------------------------------
# the slope check over the whole action spectrum
# ---------------------------------------------------------------------------

def enumerated_slope_valid(spec, slope: float, band: float = 1e-9) -> bool:
    """slope_valid over every period k * T_j up to the guard bound."""
    if slope <= 0:
        return False
    spectrum = action_spectrum(spec, slope * (1.0 + 2.0 * band) + band)
    return all(abs(slope - v) > band * max(1.0, slope) for v, _, _ in spectrum)


# ---------------------------------------------------------------------------
# rationality detection, the continued fraction re-folded at every step
# ---------------------------------------------------------------------------

def refold_detect_rational(x: float):
    """detect_rational with each convergent re-folded from the whole
    coefficient list, as before the convergent recurrence."""
    if x <= 0:
        raise InvalidParameter(f"ratio must be positive, got {x}")
    coeffs = []
    y = x
    for _ in range(64):
        a = math.floor(y)
        coeffs.append(a)
        rem = y - a
        frac = _from_cf(coeffs)
        if frac.denominator > _CF_DENOMINATOR_CAP:
            return None, True
        if rem < _CF_REMAINDER * max(1.0, abs(y)):
            return frac, False
        y = 1.0 / rem
    return None, True


def _from_cf(coeffs) -> Fraction:
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + (1 / value if value else Fraction(0))
    return value
