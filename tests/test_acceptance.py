"""Acceptance suite: one timed criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here; a failure prints its criterion line with
FAIL before the assertion surfaces.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from reeb_lab.audit import OrbitSystem, audit
from reeb_lab.ellipsoid import EllipsoidSpec, ellipsoid_profile, pseudo_rotation_instance
from reeb_lab.errors import UncertifiedRegion
from reeb_lab.fixedpoint import brouwer_index_of_map, lefschetz_residuals, trace_nonneg_scan
from reeb_lab.floergraph import Bar, FilteredComplex, barcode, check_bar_lengths
from reeb_lab.hamiltonian import (
    action_from_period,
    build_profile,
    check_action_ratio_monotone,
    homotopy_action_derivative,
    spline_slope,
    transfer_map,
)
from reeb_lab.indices import IterationProfile, SystemOrbit, cz_index_sampled, index_triple
from reeb_lab.recurrence import RecurrenceQuery, convexity_gap_check, recurrence_search
from reeb_lab.symplectic import validate_symplectic, williamson_invariants

from _matrices import quadratic_flow, williamson_from_counts
from _oracles import bars_betti, finite_difference, flow_path, random_complex, sublevel_betti

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

FAMILIES = [("quadratic", {}), ("cubic", {"theta": 0.6}), ("exp", {"beta": 1.5})]


@contextmanager
def criterion(number, budget_seconds, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL          - {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"criterion {number:2d}: PASS ({elapsed:6.2f}s) - {label}")


def test_criterion_01_index_normalization():
    with criterion(1, 1.0, "positive definite flow has index m for m = 1, 2, 3"):
        for m in (1, 2, 3):
            diag = 0.1 + 0.07 * np.arange(2 * m)
            S = np.diag(diag)
            assert cz_index_sampled(flow_path(S, n_samples=200)) == m
        # one coupled (non-diagonal) positive definite form
        S = np.diag([0.11, 0.23, 0.17, 0.29])
        S[0, 1] = S[1, 0] = 0.03
        assert cz_index_sampled(flow_path(S, n_samples=200)) == 2


def test_criterion_02_mean_index_sandwich():
    with criterion(2, 10.0, "mean-index sandwich, 1000 profiles x k <= 50, exact"):
        rng = np.random.default_rng(2024)
        violations = 0
        strictness_violations = 0
        for _ in range(1000):
            n_e = int(rng.integers(0, 3))
            n_h = int(rng.integers(0, 3))
            deg = None
            if n_e + n_h == 0 or rng.random() < 0.15:
                deg = williamson_from_counts(
                    nu0=int(rng.integers(0, 2)), b_plus=int(rng.integers(0, 2)),
                    b_minus=int(rng.integers(0, 2)))
                if deg.m == 0:
                    deg = williamson_from_counts(nu0=1)
            profile = IterationProfile(
                loop_index=2 * int(rng.integers(-2, 3)),
                elliptic=tuple(float(rng.uniform(-3, 3)) for _ in range(n_e)),
                hyperbolic=tuple(int(rng.integers(-5, 6)) for _ in range(n_h)),
                degenerate=deg)
            m = profile.dim_half
            for k in range(1, 51):
                t = index_triple(profile, k)
                if not (t.mu_hat - m <= t.mu_minus <= t.mu_plus <= t.mu_hat + m):
                    violations += 1
                if not t.nu_a:
                    if not (t.mu_hat - m < t.mu_minus and t.mu_plus < t.mu_hat + m):
                        strictness_violations += 1
        assert violations == 0
        assert strictness_violations == 0


def test_criterion_03_unipotent_perturbation_oracle():
    with criterion(3, 5.0, "unipotent invariants match perturbed-path indices"):
        eps = 1e-3
        families_2d = [np.diag([0.0, 1.0]), np.diag([0.0, -1.0]), np.zeros((2, 2))]
        for S in families_2d:
            inv = williamson_invariants(validate_symplectic(quadratic_flow(S)))
            mu_plus = inv.b0 + inv.b_plus + inv.nu0
            mu_minus = -(inv.b0 + inv.b_minus + inv.nu0)
            assert cz_index_sampled(flow_path(S + eps * np.eye(2), 300)) == mu_plus
            assert cz_index_sampled(flow_path(S - eps * np.eye(2), 300)) == mu_minus
        S4 = np.diag([0.0, 0.0, 0.0, 1.0])   # zero plane + positive chain
        inv = williamson_invariants(validate_symplectic(quadratic_flow(S4)))
        assert (inv.nu0, inv.b_plus) == (1, 1)
        assert cz_index_sampled(flow_path(S4 + eps * np.eye(4), 300)) == 2
        assert cz_index_sampled(flow_path(S4 - eps * np.eye(4), 300)) == -1


def test_criterion_04_action_function_identities():
    with criterion(4, 5.0, "radial action identities on three families, 4096-grid"):
        for family, params in FAMILIES:
            p = build_profile(family, slope=5.0, r_max=2.0, **params)
            rs = np.linspace(1.0, p.r_max, 4096)
            A = p.action(rs)
            assert np.all(np.diff(A) >= -1e-12 * p.c)
            assert A[-1] == pytest.approx(p.c, rel=1e-12)
            assert p.c >= p.slope
            for T in np.linspace(0.05 * p.slope, 0.95 * p.slope, 64):
                _, r = action_from_period(p, float(T))
                fd = finite_difference(
                    lambda t: action_from_period(p, t)[0], float(T))
                assert fd == pytest.approx(r, rel=1e-6)


def test_criterion_05_transfer_sandwich_and_derivative():
    with criterion(5, 10.0, "transfer sandwich (200 draws/family) + derivative identity"):
        rng = np.random.default_rng(55)
        for family, params in FAMILIES:
            p = build_profile(family, slope=5.0, r_max=2.0, **params)
            for _ in range(200):
                k = float(rng.uniform(1.0, 6.0))
                lam = float(rng.uniform(0.1, 4.0))
                tau = float(rng.uniform(0.0, k * p.c))
                res = transfer_map(p, k, lam, [tau])
                assert res.upper_slack >= -1e-9
                assert res.lower_slack >= -1e-9
            k, lam = 3.0, 2.0
            for s in (0.25, 0.75):
                for T in np.linspace(0.5, 0.9 * k * p.slope, 7):
                    def a_of_s(sv):
                        return action_from_period(p, float(T), k=k + sv * lam)[0]
                    v = homotopy_action_derivative(p, k, lam, s, float(T))
                    assert v == pytest.approx(finite_difference(a_of_s, s, 1e-5),
                                              rel=1e-6, abs=1e-8)
                    assert -lam * float(p.h(p.r_max)) - 1e-12 <= v <= 0.0


def test_criterion_06_action_ratio_monotone():
    with criterion(6, 2.0, "A(r)/r nondecreasing on certified regions"):
        for family, params in FAMILIES:
            p = build_profile(family, slope=5.0, r_max=2.0, **params)
            assert check_action_ratio_monotone(p, p.r_max)
        knots = (0.5, 2.0, 1.0)   # third derivative flips sign
        bad = build_profile("spline", slope=spline_slope(knots, 2.0),
                            r_max=2.0, knots=knots)
        with pytest.raises(UncertifiedRegion):
            check_action_ratio_monotone(bad, 2.0)


def test_criterion_07_index_recurrence_search():
    with criterion(7, 60.0, "recurrence search on the sqrt(2) ellipsoid profiles"):
        spec = EllipsoidSpec((1.0, SQRT2))
        profiles = (ellipsoid_profile(spec, 1), ellipsoid_profile(spec, 2))
        res = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, n_divisor=1,
            k_bound=10 ** 6, count=3))
        assert len(res.solutions) >= 3
        for s in res.solutions:
            assert s.certificate.ok
            assert all(k <= 10 ** 6 for k in s.k)
            assert s.d % 1 == 0 and all(k % 1 == 0 for k in s.k)
            gap = convexity_gap_check(profiles, s, m=1)
            assert gap.ok
        # divisibility control: every output divisible by 10 when requested
        res10 = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, n_divisor=10,
            k_bound=10 ** 6, count=1))
        for s in res10.solutions:
            assert s.d % 10 == 0 and all(k % 10 == 0 for k in s.k)


def test_criterion_08_hyperbolic_linearity():
    with criterion(8, 1.0, "hyperbolic iterate indices are exactly linear to k = 1000"):
        for h in (3, 4, -5):
            p = IterationProfile(hyperbolic=(h,))
            for k in range(1, 1001):
                t = index_triple(p, k)
                assert t.mu_minus == t.mu_plus == k * h
                assert t.mu_hat == k * h


def test_criterion_09_barcode_oracle_and_bar_lengths():
    with criterion(9, 10.0, "barcodes match brute-force sublevel ranks (<= 12 gens)"):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            gens, boundary = random_complex(rng, n)
            bars = barcode(FilteredComplex(generators=tuple(gens),
                                           boundary=boundary))
            for level in sorted({g[1] for g in gens}):
                expect = {d: r for d, r in sublevel_betti(
                    gens, {k: set(v) for k, v in boundary.items()}, level).items() if r}
                got = {d: r for d, r in bars_betti(bars, level).items() if r}
                assert got == expect
        bars = [Bar(0.0, 1.0, 2), Bar(2.0, 2.5, 3)]
        assert check_bar_lengths(bars, max_length=1.5, level=10.0).ok
        assert not check_bar_lengths([Bar(0.0, 3.0, 2)], 2.0, 10.0).ok
        assert check_bar_lengths([Bar(0.0, math.inf, 2)], 2.0, 10.0).ok


def test_criterion_10_flagship_audits():
    with criterion(10, 120.0, "orbit-system audits in both modes"):
        spec = EllipsoidSpec((1.0, SQRT2))
        hyper = OrbitSystem(
            orbits=(
                SystemOrbit(period=3.0, profile=IterationProfile(hyperbolic=(3,)),
                            hyperbolic=True),
                SystemOrbit(period=math.pi, profile=ellipsoid_profile(spec, 1)),
                SystemOrbit(period=SQRT2 * math.pi,
                            profile=ellipsoid_profile(spec, 2)),
            ),
            hamiltonian=build_profile("quadratic", slope=5.0, r_max=2.0),
            n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="hyperbolic")
        rep = audit(hyper, count=3)
        assert rep.ok
        assert len(rep.solutions) == 3
        for s in rep.solutions:
            assert s.total_pairs == sum(s.counts.values())
            for cert in s.aligned:
                if cert.kind == "short-action-gap":
                    assert cert.numbers["action_gap"] < hyper.sigma
                else:
                    assert cert.numbers["lower_bound"] > 0
        gaps = [s.min_diverging_gap for s in rep.solutions]
        assert all(b > a for a, b in zip(gaps, gaps[1:])), gaps

        seed = pseudo_rotation_instance(EllipsoidSpec((1.0, PHI)), k_max=30,
                                        locally_maximal=1)
        pseudo = OrbitSystem(
            orbits=tuple(SystemOrbit(period=o.period, profile=o.profile,
                                     locally_maximal=o.locally_maximal)
                         for o in seed.orbits),
            hamiltonian=build_profile("quadratic", slope=6.0, r_max=2.0),
            n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="pseudo_rotation")
        rep2 = audit(pseudo, count=3)
        assert rep2.ok
        assert {s.protected["which"] for s in rep2.solutions} <= {"upper", "lower"}


def test_criterion_11_planar_fixed_points():
    with criterion(11, 30.0, "winding, alternating traces, nonnegative-trace scan"):
        theta = 2.0 * math.pi / SQRT2

        def rot(p):
            c, s = math.cos(theta), math.sin(theta)
            return (c * p[0] - s * p[1], s * p[0] + c * p[1])

        for m in range(1, 51):
            def f(p, m=m):
                for _ in range(m):
                    p = rot(p)
                return p
            assert brouwer_index_of_map(f) == 1

        rep = lefschetz_residuals(induced_maps=[1.0, -1.0, None],
                                  fixed_point_indices=[1, 1], m_max=20)
        assert rep.max_abs_residual == 0.0

        rng = np.random.default_rng(11)
        for _ in range(100):
            L = rng.integers(-5, 6, size=(3, 3)) / rng.integers(1, 5)
            assert trace_nonneg_scan(L, m_max=1000).count >= 1
