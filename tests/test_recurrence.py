import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reeb_lab.recurrence as recurrence_module
from reeb_lab.ellipsoid import EllipsoidSpec, ellipsoid_profile
from reeb_lab.errors import HypothesisFailed, InvalidParameter, IterateUnderflow
from reeb_lab.indices import INTEGER_BAND, IterationProfile
from reeb_lab.recurrence import (
    _CHUNK,
    RecurrenceQuery,
    RecurrenceSolution,
    _batch,
    _companion_window,
    _r1,
    _r1_candidates,
    convexity_gap_check,
    recurrence_search,
    verify_recurrence,
)

from _matrices import williamson_from_counts
from _oracles import scalar_index_triple, scalar_verify_recurrence, scan_recurrence_search

SQRT2 = math.sqrt(2.0)


def sqrt2_profiles():
    spec = EllipsoidSpec((1.0, SQRT2))
    return (ellipsoid_profile(spec, 1), ellipsoid_profile(spec, 2))


class TestVerify:
    def test_hyperbolic_always_aligned(self):
        p = IterationProfile(hyperbolic=(4,))
        for k in (5, 9, 40):
            cert = verify_recurrence([p], d=4 * k, ks=[k], eta=0.5, ell0=3)
            assert cert.ok

    def test_wrong_d_fails_with_report(self):
        p = IterationProfile(hyperbolic=(4,))
        cert = verify_recurrence([p], d=4 * 7 + 1, ks=[7], eta=2.0, ell0=2)
        assert not cert.ok
        bad = [r for r in cert.records if not r.ok]
        assert any(r.name.startswith("R2") for r in bad)

    def test_elliptic_candidate_from_search(self):
        p = IterationProfile(loop_index=2, elliptic=(1.0 / SQRT2,))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.1, ell0=3, k_bound=10 ** 5, count=1))
        assert res.solutions
        s = res.solutions[0]
        assert verify_recurrence([p], s.d, s.k, 0.1, 3).ok

    def test_underflow_guard(self):
        p = IterationProfile(hyperbolic=(4,))
        with pytest.raises(IterateUnderflow):
            verify_recurrence([p], d=8, ks=[2], eta=0.5, ell0=3)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(HypothesisFailed):
            RecurrenceQuery(profiles=(IterationProfile(hyperbolic=(-2,)),),
                            eta=0.1, ell0=1)

    def test_degenerate_correction_exercised(self):
        deg = williamson_from_counts(b_plus=1)
        p = IterationProfile(loop_index=2, degenerate=deg)
        # mu_pm(k) = 2k +- offsets; recurrences hold with d = 2k exactly
        k = 9
        cert = verify_recurrence([p], d=2 * k, ks=[k], eta=0.5, ell0=3)
        assert cert.ok, [r.to_json() for r in cert.records if not r.ok]


class TestSearch:
    def test_single_irrational_elliptic_kronecker(self):
        p = IterationProfile(loop_index=2, elliptic=(1.0 / SQRT2,))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.1, ell0=3, k_bound=10 ** 6, count=3))
        assert len(res.solutions) >= 3
        assert not res.horizon_exhausted
        ds = [s.d for s in res.solutions]
        assert ds == sorted(ds) and len(set(ds)) == len(ds)

    def test_sqrt2_pair(self):
        res = recurrence_search(RecurrenceQuery(
            profiles=sqrt2_profiles(), eta=0.1, ell0=3, k_bound=10 ** 6, count=3))
        assert len(res.solutions) == 3
        for s in res.solutions:
            assert s.certificate.ok
            # R1 windows: fractional parts near 0 or 1 with width eta/2
            for p, k in zip(sqrt2_profiles(), s.k):
                rho = float(p.elliptic[0])
                frac = (k * rho) % 1.0
                assert frac < 0.05 or frac > 0.95

    def test_round_trip_reverification(self):
        profiles = sqrt2_profiles()
        res = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, k_bound=10 ** 6, count=3))
        for s in res.solutions:
            cert = verify_recurrence(profiles, s.d, s.k, s.eta, s.ell0)
            assert cert.ok

    def test_monotone_horizon(self):
        profiles = sqrt2_profiles()
        small = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, k_bound=200, count=10))
        large = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, k_bound=2000, count=10))
        small_keys = [(s.d, s.k) for s in small.solutions]
        large_keys = [(s.d, s.k) for s in large.solutions]
        assert large_keys[:len(small_keys)] == small_keys

    def test_divisibility(self):
        p = IterationProfile(loop_index=2, elliptic=(1.0 / SQRT2,))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.45, ell0=2, n_divisor=10,
            k_bound=10 ** 6, count=2))
        assert res.solutions
        for s in res.solutions:
            assert s.d % 10 == 0
            assert all(k % 10 == 0 for k in s.k)

    def test_rationally_related_profiles_common_multiples(self):
        # exact rational data: solutions at common multiples of the periods
        p1 = IterationProfile(loop_index=2, elliptic=(Fraction(1, 3),))
        p2 = IterationProfile(loop_index=2, elliptic=(Fraction(2, 3),))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p1, p2), eta=0.49, ell0=2, k_bound=10 ** 4, count=2))
        assert res.solutions
        for s in res.solutions:
            # the common mechanism: all k_i rho_i integral, d = mean exactly
            assert (s.k[0] * Fraction(1, 3)).denominator == 1
            assert (s.k[1] * Fraction(2, 3)).denominator == 1

    def test_fractional_part_window_shrinks_with_eta(self):
        # a single elliptic profile: every found k puts {k rho} inside a
        # two-sided window of half-width eta / 2
        p = IterationProfile(loop_index=2, elliptic=(1.0 / SQRT2,))
        for eta in (0.2, 0.05):
            res = recurrence_search(RecurrenceQuery(
                profiles=(p,), eta=eta, ell0=3, k_bound=10 ** 6, count=4))
            for s in res.solutions:
                frac = (s.k[0] / SQRT2) % 1.0
                assert frac < eta / 2 or frac > 1.0 - eta / 2

    def test_exhausted_horizon_flagged(self):
        p = IterationProfile(loop_index=2, elliptic=(1.0 / SQRT2,))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.01, ell0=3, k_bound=30, count=5))
        assert res.horizon_exhausted
        assert res.scanned_up_to == 30

    def test_scanned_up_to_is_the_last_tested_k0(self):
        # the count is reached at k0 = 41; the next solution, at k0 = 58, is
        # not tested
        res = recurrence_search(RecurrenceQuery(
            profiles=sqrt2_profiles(), eta=0.1, ell0=3, k_bound=10 ** 6, count=3))
        assert [s.k[0] for s in res.solutions] == [17, 24, 41]
        assert not res.horizon_exhausted and res.scanned_up_to == 41
        for k_bound in (0, 57):
            res = recurrence_search(RecurrenceQuery(
                profiles=sqrt2_profiles(), eta=0.1, ell0=3, k_bound=k_bound, count=4))
            assert res.horizon_exhausted and res.scanned_up_to == k_bound

    def test_wide_windows_batched_by_size(self):
        # eta 300 puts about 298 multiples of N in each companion window: a
        # batch holds at most _CHUNK of them in all, not a whole block's
        query = RecurrenceQuery(profiles=(IterationProfile(loop_index=2),
                                          IterationProfile(loop_index=2, elliptic=(0.01,))),
                                eta=300.0, ell0=1)
        d = 2 * np.arange(2, 10_000, dtype=np.int64)
        assert _CHUNK // 300 <= _batch(query, d) <= _CHUNK // 296
        assert _batch(query, d[:5]) == 5

    def test_block_count(self, monkeypatch):
        # perfbench's recurrence_scan queries: the three-weight ellipsoid
        # exhausts 10^7 k0, the rational pair finds 100 solutions by 34,650
        spec = EllipsoidSpec((1.0, SQRT2, math.sqrt(3.0)))
        rational = (IterationProfile(loop_index=2, elliptic=(Fraction(2, 7), Fraction(5, 11))),
                    IterationProfile(loop_index=2, elliptic=(Fraction(1, 5), Fraction(3, 5))))
        calls = []

        def counted(*args):
            calls.append(args)
            return _r1_candidates(*args)

        monkeypatch.setattr(recurrence_module, "_r1_candidates", counted)
        for query in (
                RecurrenceQuery(profiles=tuple(ellipsoid_profile(spec, j) for j in (1, 2, 3)),
                                eta=0.001, ell0=4, k_bound=10 ** 7, count=10),
                RecurrenceQuery(profiles=rational, eta=0.2, ell0=3, k_bound=10 ** 6,
                                count=100)):
            calls.clear()
            recurrence_search(query)
            assert 0 < len(calls) <= 3

    def test_streaming_callback(self):
        seen = []
        recurrence_search(RecurrenceQuery(
            profiles=sqrt2_profiles(), eta=0.1, ell0=3, k_bound=10 ** 5,
            count=2), on_solution=seen.append)
        assert len(seen) == 2


class TestConvexityGap:
    def test_sqrt2_gap_holds(self):
        profiles = sqrt2_profiles()
        res = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, k_bound=10 ** 6, count=3))
        for s in res.solutions:
            rep = convexity_gap_check(profiles, s, m=1)
            assert rep.ok
            for (_i, _ell, mu_plus, bound) in rep.rows:
                assert mu_plus <= bound

    def test_hyperbolic_arithmetic(self):
        m = 1
        p = IterationProfile(hyperbolic=(m + 2,))
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.4, ell0=2, k_bound=100, count=1))
        rep = convexity_gap_check((p,), res.solutions[0], m=m)
        assert rep.ok

    def test_hypothesis_rejected(self):
        p = IterationProfile(hyperbolic=(2,))   # mu_- = 2 = m + 1 < m + 2
        res = recurrence_search(RecurrenceQuery(
            profiles=(p,), eta=0.4, ell0=2, k_bound=100, count=1))
        with pytest.raises(HypothesisFailed):
            convexity_gap_check((p,), res.solutions[0], m=1)

    def test_order_at_most_ell0_rejected(self):
        # as in verify_recurrence: the iterate k - ell0 must exist
        profiles = sqrt2_profiles()
        s = RecurrenceSolution(d=6, k=(3, 2), eta=0.1, ell0=3, profiles=profiles)
        with pytest.raises(IterateUnderflow, match="k = 3 <= ell0 = 3"):
            convexity_gap_check(profiles, s, m=1)

    @pytest.mark.parametrize("take", [1, 4])
    def test_one_profile_per_order(self, take):
        # a two-orbit solution against one profile or four: none dropped
        profiles = sqrt2_profiles()
        s = recurrence_search(RecurrenceQuery(
            profiles=profiles, eta=0.1, ell0=3, k_bound=10 ** 6, count=1)).solutions[0]
        with pytest.raises(InvalidParameter,
                           match=f"^2 iteration orders for {take} profiles$"):
            convexity_gap_check((profiles * 2)[:take], s, m=1)


def core_ok(p, d, k, eta, ell0) -> bool:
    """R1-R3 of one profile by the per-ell oracle, without the consequences."""
    cert = scalar_verify_recurrence([p], d, [k], eta, ell0)
    return all(r.ok for r in cert.records if r.name.split("[")[0] in ("R1", "R2", "R3"))


def assert_solutions_match_oracle(query):
    """Each certificate equals the per-ell oracle's, and no smaller companion
    candidate in the R1 window passes R1-R3."""
    res = recurrence_search(query)
    assert res.solutions
    for s in res.solutions:
        oracle = scalar_verify_recurrence(query.profiles, s.d, s.k, s.eta, s.ell0)
        assert oracle.ok and s.certificate.to_json() == oracle.to_json()
        assert verify_recurrence(query.profiles, s.d, s.k, s.eta, s.ell0).to_json() \
            == oracle.to_json()
        for p, k in zip(query.profiles[1:], s.k[1:]):
            mi = p.mean_index(1)
            window = range(max(s.ell0 + 1, math.floor((s.d - s.eta) / mi)), k)
            assert not any(core_ok(p, s.d, c, s.eta, s.ell0) for c in window
                           if abs(c * mi - s.d) < s.eta)
    return res


# the rational entry orders the benchmark's seeds draw from
RATIONAL_ORDERS = [(a, b) for a in (("2/7", "5/11"), ("5/11", "2/7"))
                   for b in (("1/5", "3/5"), ("3/5", "1/5"))]

FAILING_PROFILES = {
    "fraction_hit": IterationProfile(loop_index=2, elliptic=(Fraction(1, 3),)),
    "band_edge": IterationProfile(loop_index=2, elliptic=(INTEGER_BAND,)),
    "float_third": IterationProfile(elliptic=(1.0 / 3.0, 0.25)),
    "degenerate": IterationProfile(loop_index=2, degenerate=williamson_from_counts(
        b_plus=1)),
}


class TestCertificateOracle:
    """Certificates against the per-ell loop kept in _oracles."""

    def test_ellipsoid_scan_solutions(self):
        spec = EllipsoidSpec((1.0, SQRT2, math.sqrt(3.0)))
        profiles = tuple(ellipsoid_profile(spec, j) for j in (1, 2, 3))
        res = assert_solutions_match_oracle(RecurrenceQuery(
            profiles=profiles, eta=0.001, ell0=4, k_bound=10 ** 7, count=10))
        assert len(res.solutions) == 4 and res.horizon_exhausted

    @pytest.mark.parametrize("orders", RATIONAL_ORDERS)
    def test_rational_scan_solutions(self, orders):
        profiles = tuple(IterationProfile(loop_index=2,
                                          elliptic=tuple(Fraction(r) for r in entries))
                         for entries in orders)
        res = assert_solutions_match_oracle(RecurrenceQuery(
            profiles=profiles, eta=0.2, ell0=3, k_bound=10 ** 6, count=100))
        assert len(res.solutions) == 100

    @pytest.mark.parametrize("name", sorted(FAILING_PROFILES))
    def test_failing_candidates(self, name):
        p = FAILING_PROFILES[name]
        outcomes = set()
        for k in range(4, 40):
            mean = p.mean_index(k)
            for d in range(math.floor(mean) - 3, math.ceil(mean) + 4):
                for ks, profiles in (([k], [p]), ([k, 7], [p, FAILING_PROFILES["degenerate"]])):
                    cert = verify_recurrence(profiles, d, ks, 0.5, 3)
                    assert cert.to_json() == \
                        scalar_verify_recurrence(profiles, d, ks, 0.5, 3).to_json()
                    outcomes.add(cert.ok)
        assert False in outcomes

    def test_underflow_raised_as_the_oracle(self):
        p = FAILING_PROFILES["degenerate"]
        for check in (verify_recurrence, scalar_verify_recurrence):
            with pytest.raises(IterateUnderflow, match="profile 1: k = 3 <= ell0 = 3"):
                check([p, p], 8, [5, 3], 0.5, 3)

    def test_gap_rows_match_scalar_calls(self):
        profiles = sqrt2_profiles()
        s = recurrence_search(RecurrenceQuery(profiles=profiles, eta=0.1, ell0=3,
                                              count=2)).solutions[-1]
        rep = convexity_gap_check(profiles, s, m=1)
        assert rep.rows == tuple(
            (i, ell, scalar_index_triple(p, k - ell).mu_plus, s.d - 2)
            for i, (p, k) in enumerate(zip(profiles, s.k)) for ell in range(1, 4))


ROTATIONS = st.one_of(st.floats(0.001, 1.999), st.fractions(0, 2, max_denominator=13))


@st.composite
def decision_profiles(draw):
    """A profile with elliptic (float and Fraction), hyperbolic and
    degenerate factors, each possibly absent."""
    counts = draw(st.tuples(*[st.integers(0, 2)] * 4))
    return IterationProfile(
        loop_index=draw(st.sampled_from((0, 2))),
        elliptic=tuple(draw(st.lists(ROTATIONS, max_size=2))),
        hyperbolic=tuple(draw(st.lists(st.integers(1, 5), max_size=1))),
        degenerate=williamson_from_counts(*counts) if draw(st.booleans()) else None)


class TestOneDecision:
    """_Iterates.ok, which alone decides R1-R3, against every record."""

    @settings(max_examples=150, deadline=None)
    @given(profiles=st.lists(decision_profiles(), min_size=1, max_size=3),
           ell0=st.integers(1, 4), k0=st.integers(5, 200), d_shift=st.integers(-1, 1),
           k_shifts=st.lists(st.integers(-1, 1), min_size=2, max_size=2),
           eta=st.floats(0.01, 1.0))
    @example(profiles=[FAILING_PROFILES["degenerate"]], ell0=3, k0=9, d_shift=0,
             k_shifts=[0, 0], eta=0.5)
    @example(profiles=[FAILING_PROFILES["degenerate"]], ell0=3, k0=9, d_shift=1,
             k_shifts=[0, 0], eta=0.5)
    # R1 and R2 hold, R3 fails at ell = 1
    @example(profiles=[FAILING_PROFILES["fraction_hit"]], ell0=1, k0=4, d_shift=-1,
             k_shifts=[0, 0], eta=1.0)
    def test_ok_is_every_record(self, profiles, ell0, k0, d_shift, k_shifts, eta):
        d = round(profiles[0].mean_index(k0)) + d_shift
        # each companion near its R1 window, or at k0 when its mean index is 0
        ks = [k0] + [max(ell0 + 1, (round(d / m) if (m := p.mean_index(1)) > 0 else k0) + t)
                     for p, t in zip(profiles[1:], k_shifts)]
        cert = verify_recurrence(profiles, d, ks, eta, ell0)
        assert cert.ok == all(r.ok for r in cert.records) \
            == scalar_verify_recurrence(profiles, d, ks, eta, ell0).ok


class TestCompanionWindow:
    """_companion_window against a scan of every multiple of N through _r1."""

    @settings(max_examples=200, deadline=None)
    @given(loop_index=st.sampled_from((0, 2)), rho=ROTATIONS.filter(lambda r: r > 0),
           d=st.integers(0, 400),
           eta=st.one_of(st.floats(1e-4, 0.49), st.sampled_from((0.5, 0.7, 2.5))),
           N=st.sampled_from((1, 2, 3, 5)))
    def test_window_holds_every_passing_multiple(self, loop_index, rho, d, eta, N):
        p = IterationProfile(loop_index=loop_index, elliptic=(rho,))
        (bottom,), (top,) = _companion_window(p, np.array([d]), eta, N)
        # one multiple past (d + eta) / (N mean), beyond which none passes R1
        j = np.arange(int((d + eta) / (N * p.mean_index(1))) + 2)
        passing = j[_r1(p.mean_index(N * j), d, eta)]
        assert np.all((bottom <= passing) & (passing <= top))
        # and it is no wider than the R1 interval, widened to integers
        assert top - bottom <= 2 * eta / (N * p.mean_index(1)) + 2


def run_search(search, query):
    """(result or exception, streamed solutions) of one search, as JSON."""
    streamed = []
    try:
        outcome = search(query, on_solution=streamed.append).to_json()
    except ValueError as exc:
        outcome = repr(exc)
    return outcome, [s.to_json() for s in streamed]


PROFILE_FAMILIES = st.one_of(
    st.lists(st.floats(0.001, 1.999), min_size=1, max_size=2).map(
        lambda rhos: IterationProfile(loop_index=2, elliptic=tuple(rhos))),
    st.lists(st.fractions(0, 2, max_denominator=13), min_size=1, max_size=2).map(
        lambda rhos: IterationProfile(loop_index=2, elliptic=tuple(rhos))),
    st.tuples(st.sampled_from((0, 2)), st.integers(1, 5)).map(
        lambda lh: IterationProfile(loop_index=lh[0], hyperbolic=(lh[1],))),
    st.integers(0, 1).map(lambda b: IterationProfile(
        loop_index=2, degenerate=williamson_from_counts(b_plus=b, b_minus=1 - b))),
)


class TestScanOracle:
    """The residue-class search against the scan over every k0 it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(profiles=st.lists(PROFILE_FAMILIES, min_size=1, max_size=3),
           eta=st.one_of(st.floats(1e-4, 0.49), st.sampled_from((0.5, 0.7, 2.5))),
           ell0=st.integers(1, 4), n_divisor=st.sampled_from((1, 2, 3, 5)),
           k_bound=st.integers(0, 4000), count=st.integers(1, 20))
    @example(profiles=[IterationProfile(loop_index=2,
                                        elliptic=(0.2853121277467563, 0.7140821412202493)),
                       IterationProfile(loop_index=2, elliptic=(Fraction(1, 13),),
                                        hyperbolic=(2,))],
             eta=0.1, ell0=1, n_divisor=5, k_bound=70_000, count=3)
    @example(profiles=[IterationProfile(loop_index=2,
                                        elliptic=(1.4491219427993907, 0.3689641828677386)),
                       IterationProfile(loop_index=2,
                                        elliptic=(0.03610962854758206, 0.028819641693376336))],
             eta=0.1, ell0=2, n_divisor=1, k_bound=70_000, count=20)
    # indices of iterate 16 leave int64, after 11 solutions: raised for a
    # 12th, not for 11
    @example(profiles=[IterationProfile(hyperbolic=(2 ** 58,))],
             eta=0.1, ell0=2, n_divisor=1, k_bound=100, count=12)
    @example(profiles=[IterationProfile(hyperbolic=(2 ** 58,))],
             eta=0.1, ell0=2, n_divisor=1, k_bound=100, count=11)
    # a companion's R1 window is wider than the divisor spacing, so the
    # search's companion prefilter skips it
    @example(profiles=[IterationProfile(loop_index=2, elliptic=(0.3,)),
                       IterationProfile(hyperbolic=(1,))],
             eta=2.5, ell0=1, n_divisor=1, k_bound=200, count=3)
    # two R1 survivors propose the same d: the second is skipped
    @example(profiles=[IterationProfile(elliptic=(0.15,))],
             eta=0.4, ell0=1, n_divisor=1, k_bound=200, count=5)
    # every k0 from 2 is a solution (k0, k0), in one block, and the
    # companion's iterate 16 leaves int64: 13 solutions return before the
    # candidate k0 = 15 is tested, and a 14th raises at it
    @example(profiles=[IterationProfile(loop_index=2),
                       IterationProfile(hyperbolic=(2 ** 57, 2 - 2 ** 57))],
             eta=0.1, ell0=1, n_divisor=1, k_bound=100, count=13)
    @example(profiles=[IterationProfile(loop_index=2),
                       IterationProfile(hyperbolic=(2 ** 57, 2 - 2 ** 57))],
             eta=0.1, ell0=1, n_divisor=1, k_bound=100, count=14)
    # 50 solutions of two Fraction profiles inside the first block
    @example(profiles=[IterationProfile(loop_index=2, elliptic=(Fraction(1, 4),)),
                       IterationProfile(loop_index=2, elliptic=(Fraction(2, 5),))],
             eta=0.3, ell0=1, n_divisor=1, k_bound=2000, count=50)
    # a third block from each branch of the block rule, at the first block of
    # 2,048 j: sized by the yield of the one solution the first two blocks
    # found (6 of 8 in all, the horizon exhausted)
    @example(profiles=[IterationProfile(loop_index=2, elliptic=(1.437856,)),
                       IterationProfile(loop_index=2, elliptic=(1.876266, 1.270367))],
             eta=0.7, ell0=4, n_divisor=3, k_bound=65_326, count=8)
    # doubled: candidates pass profile 0's mask in every block, none solves
    @example(profiles=[IterationProfile(loop_index=2, elliptic=(0.110917,)),
                       IterationProfile(loop_index=2, elliptic=(0.665757, 0.038438))],
             eta=0.5, ell0=4, n_divisor=2, k_bound=23_949, count=10)
    # the cap: the second block holds no candidate that passes the mask
    @example(profiles=[IterationProfile(loop_index=2, hyperbolic=(2,)),
                       IterationProfile(loop_index=2, elliptic=(Fraction(10, 11),)),
                       IterationProfile(loop_index=2, elliptic=(1.973229, 1.771577))],
             eta=0.075, ell0=4, n_divisor=2, k_bound=21_876, count=3)
    # profile 0's iterate 2306 leaves int64, in the second block, after the
    # solutions at k0 = 1009 and 2018 (the companion solves where 1009
    # divides k0): raised for a 3rd, not for 2
    @example(profiles=[IterationProfile(hyperbolic=(2 * 10 ** 15,)),
                       IterationProfile(hyperbolic=(1009 * 125 * 10 ** 12,))],
             eta=0.1, ell0=2, n_divisor=1, k_bound=10 ** 6, count=3)
    @example(profiles=[IterationProfile(hyperbolic=(2 * 10 ** 15,)),
                       IterationProfile(hyperbolic=(1009 * 125 * 10 ** 12,))],
             eta=0.1, ell0=2, n_divisor=1, k_bound=10 ** 6, count=2)
    def test_same_result_and_stream(self, profiles, eta, ell0, n_divisor, k_bound, count):
        # whatever the first block, and so wherever each later block starts
        query = RecurrenceQuery(profiles=tuple(profiles), eta=eta, ell0=ell0,
                                n_divisor=n_divisor, k_bound=k_bound, count=count)
        expected = run_search(scan_recurrence_search, query)
        for block in (1, 3, 2048, 2 ** 20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recurrence_module, "_BLOCK", block)
                assert run_search(recurrence_search, query) == expected, block

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.one_of(st.floats(1e-12, 1e6),
                           st.fractions(0, 20, max_denominator=60).filter(bool).map(float)),
           eta=st.floats(1e-9, 0.49), n_divisor=st.sampled_from((1, 2, 3, 5)),
           a=st.integers(1, 10 ** 12), length=st.integers(1, 5000))
    @example(alpha=3.0, eta=0.1, n_divisor=1, a=1, length=2048)
    def test_candidates_hold_every_r1_pass(self, alpha, eta, n_divisor, a, length):
        # far beyond the horizons the scan oracle can reach: R1's own float
        # expressions over every j of one block
        js = np.arange(a, a + length, dtype=np.int64)
        k0s = n_divisor * js
        means = k0s * alpha
        ds = np.rint(means / n_divisor).astype(np.int64) * n_divisor
        passing = js[np.abs(means - ds) < eta]
        found = _r1_candidates(alpha, eta / n_divisor, a, a + length)
        assert (np.diff(found) > 0).all() and np.isin(found, js).all()
        assert np.isin(passing, found).all()
