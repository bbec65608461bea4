import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reeb_lab.ellipsoid as ellipsoid_module
from reeb_lab.ellipsoid import (
    EllipsoidSpec,
    action_spectrum,
    detect_rational,
    ellipsoid_periods,
    ellipsoid_profile,
    pseudo_rotation_instance,
    slope_valid,
)
from reeb_lab.errors import DegenerateEllipsoid, HypothesisFailed, InvalidParameter
from reeb_lab.indices import ConvexityReport, SystemOrbit, cz_index_sampled, index_triple

from _matrices import direct_sum, rotation2
from _oracles import enumerated_slope_valid, refold_detect_rational

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestRationalDetection:
    def test_simple_fractions(self):
        frac, capped = detect_rational(1.5)
        assert frac is not None and frac.numerator == 3 and frac.denominator == 2
        assert not capped

    def test_surd_is_irrational(self):
        frac, _ = detect_rational(math.sqrt(2.0))
        assert frac is None

    def test_golden_is_irrational(self):
        assert detect_rational(PHI)[0] is None

    def test_near_rational_float_detected(self):
        assert detect_rational(1.0 / 3.0)[0] is not None

    def test_cap_flags_soft_verdict(self):
        # denominator just above the cap: treated irrational, flagged capped
        x = 1.0 + 1.0 / (10 ** 6 + 7)
        frac, capped = detect_rational(x)
        assert frac is None and capped


    @settings(max_examples=500, deadline=None)
    @given(x=st.one_of(
        st.floats(0.0, 1e12, exclude_min=True),
        st.fractions(0, 1000, max_denominator=2 * 10 ** 6).filter(bool).map(float),
        st.floats(allow_nan=False)))
    @example(x=1.0 + 1.0 / (10 ** 6 + 7))
    @example(x=5e-324)
    def test_convergent_recurrence_matches_refolding(self, x):
        def outcome(detect):
            try:
                return detect(x)
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)

        assert outcome(detect_rational) == outcome(refold_detect_rational)


class TestPeriods:
    def test_round_sphere(self):
        assert ellipsoid_periods(EllipsoidSpec((1.0, 1.0))) == [math.pi, math.pi]

    def test_one_two(self):
        assert ellipsoid_periods(EllipsoidSpec((1.0, 2.0))) == [math.pi, 2 * math.pi]

    def test_sqrt2(self):
        T = ellipsoid_periods(EllipsoidSpec((1.0, math.sqrt(2.0))))
        assert T[1] == pytest.approx(math.sqrt(2.0) * math.pi)

    def test_sorted_required(self):
        with pytest.raises(ValueError):
            EllipsoidSpec((2.0, 1.0))


class TestProfiles:
    def test_golden_first_orbit(self):
        spec = EllipsoidSpec((1.0, PHI))
        p = ellipsoid_profile(spec, 1)
        assert index_triple(p, 1).mu_minus == 3

    def test_disk(self):
        spec = EllipsoidSpec((1.0,))
        p = ellipsoid_profile(spec, 1)
        assert index_triple(p, 5).mu_minus == 10   # mu = 2k with no angles

    def test_golden_second_orbit(self):
        spec = EllipsoidSpec((1.0, PHI))
        p = ellipsoid_profile(spec, 2)
        assert index_triple(p, 1).mu_minus == 5    # 1 + 2(floor(phi) + 1)

    def test_rational_rejected(self):
        with pytest.raises(DegenerateEllipsoid):
            ellipsoid_profile(EllipsoidSpec((1.0, 2.0)), 1)

    @pytest.mark.parametrize("weights", [(1.0, PHI), (1.0, PHI, PHI ** 2)])
    def test_profile_vs_sampled_path(self, weights):
        # transverse linearized path: one rotation plane per other weight, the
        # trivialization twist absorbed into the first plane as a full extra
        # turn per iteration
        spec = EllipsoidSpec(weights)
        for j in range(1, spec.n + 1):
            profile = ellipsoid_profile(spec, j)
            for k in (1, 2, 5):
                rhos = list(profile.elliptic)
                rhos[0] += 1.0   # loop factor, Maslov 2 per iteration
                n_s = max(600, int(200 * k * (1 + max(rhos))))
                ts = np.linspace(0.0, 1.0, n_s + 1)
                path = np.array([
                    direct_sum([rotation2(2 * math.pi * rho * k * t) for rho in rhos])
                    for t in ts
                ])
                sampled = cz_index_sampled(path)
                triple = index_triple(profile, k)
                assert sampled == triple.mu_minus == triple.mu_plus

    def test_mean_index_consistency(self):
        for weights in ((1.0, math.sqrt(2.0)), (1.0, PHI, PHI ** 2)):
            spec = EllipsoidSpec(weights)
            for j in range(1, spec.n + 1):
                p = ellipsoid_profile(spec, j)
                closed_form = 2.0 * sum(spec.weights[j - 1] / a for a in spec.weights)
                assert p.mean_index(1) == pytest.approx(closed_form, rel=1e-12)
                t = index_triple(p, 1000)
                assert t.mu_minus / 1000 == pytest.approx(p.mean_index(1), abs=5e-3)


class TestSpectrum:
    def test_enumeration_against_brute_force(self):
        spec = EllipsoidSpec((1.0, 2.0))
        t_max = 7 * math.pi
        sp = action_spectrum(spec, t_max)
        brute = sorted(
            [(k * math.pi, 1, k) for k in range(1, 8)] +
            [(k * 2 * math.pi, 2, k) for k in range(1, 4)],
            key=lambda e: (e[0], e[1], e[2]))
        assert [(pytest.approx(v), j, k) for v, j, k in brute] == \
               [(pytest.approx(v), j, k) for v, j, k in sp]
        # plain tuples of atomic values, which the cyclic collector stops tracking
        gc.collect()
        assert not any(gc.is_tracked(row) for row in sp)

    def test_multiplicity_merge_order(self):
        sp = action_spectrum(EllipsoidSpec((1.0, 2.0)), 2 * math.pi + 0.1)
        # at value 2 pi both orbits appear; orbit 1 (k=2) precedes orbit 2 (k=1)
        assert [(j, k) for _, j, k in sp] == [(1, 1), (1, 2), (2, 1)]

    def test_empty_below_min_period(self):
        assert action_spectrum(EllipsoidSpec((1.0, 1.5)), 1.0) == []

    def test_round_sphere_multiplicities(self):
        sp = action_spectrum(EllipsoidSpec((1.0, 1.0)), 4 * math.pi)
        assert [k for _, _, k in sp] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_linear_growth(self):
        spec = EllipsoidSpec((1.0, math.sqrt(2.0)))
        slope_density = sum(1.0 / T for T in ellipsoid_periods(spec))
        for T in (50.0, 100.0, 200.0):
            count = len(action_spectrum(spec, T))
            assert count == pytest.approx(slope_density * T, abs=4)

    @pytest.mark.parametrize("weights, t_max", [
        ((1.0, 2.0), 1e300),            # about 5e299 periods: never listed
        ((1e-310, 2.0), 1.0),           # t_max / T_1 overflows to inf
        ((1.0, 2.0), 2.1e6),            # about 1.003e6 periods, just above the cap
    ])
    def test_spectrum_above_the_cap_rejected(self, weights, t_max):
        with pytest.raises(InvalidParameter, match="holds more than 1000000 periods"):
            action_spectrum(EllipsoidSpec(weights), t_max)

    @pytest.mark.parametrize("call", [
        lambda: EllipsoidSpec((1.0, math.inf)),
        lambda: EllipsoidSpec((math.nan,)),
        # an infinite bound is tested out of process, in test_cli.py
        lambda: action_spectrum(EllipsoidSpec((1.0, 2.0)), math.nan),
        lambda: slope_valid(EllipsoidSpec((1.0, 2.0)), math.nan),
    ])
    def test_nonfinite_input_rejected(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    def test_slope_validity(self, monkeypatch):
        spec = EllipsoidSpec((1.0, math.sqrt(2.0)))
        assert not slope_valid(spec, math.pi)           # exactly a period
        assert not slope_valid(spec, 2 * math.pi)
        assert slope_valid(spec, 5.0)
        assert not slope_valid(spec, math.pi + 1e-12)   # inside the guard band
        # about 5e11 periods lie below 1e12; only those next to it are checked
        assert not slope_valid(spec, 1e12)              # a band 1000 wide, periods pi apart
        monkeypatch.setattr(ellipsoid_module, "_SLOPE_BAND", 1e-18)
        assert slope_valid(spec, 1e12)


@st.composite
def slopes_near_periods(draw):
    """Sorted weights, a band, and a slope: anywhere below 1000, or within a
    few band widths of a multiple k * T_j."""
    weights = tuple(sorted(draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3))))
    band = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]))
    if draw(st.booleans()):
        return weights, draw(st.floats(-1.0, 1000.0)), band
    value = draw(st.integers(1, 50)) * math.pi * draw(st.sampled_from(weights))
    slope = value + draw(st.floats(-3.0, 3.0)) * band * max(1.0, value)
    return weights, slope, band


class TestSlopeValidity:
    @settings(max_examples=400, deadline=None)
    @given(case=slopes_near_periods())
    @example(case=((1.0, math.sqrt(2.0)), math.pi + 1e-9, 1e-9))
    @example(case=((1.0, 2.0), 2 * math.pi * (1 + 1e-9) + 1e-9, 1e-9))
    @example(case=((0.05,), 0.5, 0.1))
    def test_nearest_multiples_decide_as_the_spectrum_does(self, case):
        weights, slope, band = case
        spec = EllipsoidSpec(weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ellipsoid_module, "_SLOPE_BAND", band)
            assert slope_valid(spec, slope) == enumerated_slope_valid(spec, slope, band)


class TestPseudoRotation:
    def test_sqrt2_instance(self):
        seed = pseudo_rotation_instance(EllipsoidSpec((1.0, math.sqrt(2.0))), k_max=20,
                                        locally_maximal=2)
        assert len(seed.orbits) == 2
        assert all(type(o) is SystemOrbit for o in seed.orbits)
        assert [o.locally_maximal for o in seed.orbits] == [False, True]
        assert all(o["nondegenerate"] for o in seed.to_json()["orbits"])
        assert seed.convexity.ok
        assert seed.convexity.min_mu_minus == 3

    def test_three_weights(self):
        spec = EllipsoidSpec((1.0, PHI, PHI ** 2))
        seed = pseudo_rotation_instance(spec, k_max=20)
        assert len(seed.orbits) == 3
        assert seed.convexity.ok
        assert seed.convexity.min_mu_minus == 4   # n + 1 for n = 3

    def test_rational_rejected(self):
        with pytest.raises(DegenerateEllipsoid):
            pseudo_rotation_instance(EllipsoidSpec((1.0, 2.0)))

    def test_failed_convexity_is_typed(self, monkeypatch):
        failing = ConvexityReport(ok=False, witnesses=((0, 1, 2),), weak_ok=True,
                                  weak_witnesses=(), min_mu_minus=2)
        monkeypatch.setattr(ellipsoid_module, "check_dynamical_convexity",
                            lambda orbits, n: failing)
        with pytest.raises(HypothesisFailed):
            pseudo_rotation_instance(EllipsoidSpec((1.0, math.sqrt(2.0))), k_max=5)

    def test_convexity_sweep_small_ratios(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            ratios = np.sort(1.0 + rng.uniform(0.01, 9.0, size=n - 1))
            weights = (1.0, *[float(r) + math.sqrt(2) * 1e-3 for r in ratios])
            spec = EllipsoidSpec(tuple(sorted(weights)))
            if not spec.irrational:
                continue
            seed = pseudo_rotation_instance(spec, k_max=100)
            assert seed.convexity.ok
