import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reeb_lab.cli import main
from reeb_lab.ellipsoid import EllipsoidSpec
from reeb_lab.errors import (
    DegenerateEndpoint,
    DimensionMismatch,
    InvalidParameter,
    MalformedInput,
    PathNotSplittable,
    SamplingTooCoarse,
    SupportOutOfRange,
    WrongType,
)
from reeb_lab.fixedpoint import PlanarMapSample
from reeb_lab.hamiltonian import CylinderTrace
from reeb_lab.indices import (
    INTEGER_BAND,
    IterationProfile,
    _fits_int64,
    check_dynamical_convexity,
    cz_index_sampled,
    index_triple,
    rotation_path,
    stretch_path,
    support_interval,
    winding,
)
from reeb_lab.recurrence import RecurrenceQuery
from reeb_lab.symplectic import WilliamsonInvariants

from _matrices import direct_sum, rotation2, williamson_from_counts

from _oracles import (
    crossing_index,
    flow_path,
    per_call_fits_int64,
    per_call_mean_index,
    rotation_index_closed_form,
    scalar_index_triple,
    scalar_nu_a,
    scalar_support_interval,
)


class TestSampledIndex:
    def test_rotation_examples(self):
        assert cz_index_sampled(rotation_path(0.3)) == 1
        assert cz_index_sampled(rotation_path(1.2)) == 3

    def test_hyperbolic_path_is_zero(self):
        assert cz_index_sampled(stretch_path(math.e)) == 0

    def test_crossing_oracle_agreement_grid(self):
        # a grid of 500 rotation numbers in [-5, 5], half-steps, so every
        # value sits at distance >= 0.01 from the integers
        rhos = (np.arange(500) + 0.5) / 500.0 * 10.0 - 5.0
        assert np.min(np.abs(rhos - np.round(rhos))) > 0.009
        for rho in rhos:
            got = cz_index_sampled(rotation_path(float(rho)))
            assert got == rotation_index_closed_form(float(rho))
            triple = index_triple(IterationProfile(elliptic=(float(rho),)), 1)
            assert triple.mu_minus == triple.mu_plus == got
        # spot-check the independent crossing-count oracle on a subsample
        # (its degeneracy threshold scales with the step, so sample finely)
        for rho in rhos[::20]:
            path = rotation_path(float(rho), n_samples=int(3000 * max(1, abs(rho))))
            assert crossing_index(path) == rotation_index_closed_form(float(rho))

    def test_degenerate_endpoint_rejected(self):
        with pytest.raises(DegenerateEndpoint):
            cz_index_sampled(rotation_path(2.0))   # endpoint is the identity

    def test_coarse_sampling_rejected(self):
        with pytest.raises(SamplingTooCoarse):
            cz_index_sampled(rotation_path(1.7, n_samples=3))

    @pytest.mark.parametrize("rho, n_samples", [(1.2, 1), (2.1, 2), (-1.2, 1)])
    def test_aliasing_sample_count_rejected(self, rho, n_samples):
        # one step of 1.2 turns wraps to 0.2 turns, which the quarter-turn
        # rule of the winding lift cannot tell apart
        with pytest.raises(SamplingTooCoarse):
            cz_index_sampled(rotation_path(rho, n_samples=n_samples))
        assert cz_index_sampled(rotation_path(rho)) == rotation_index_closed_form(rho)

    def test_winding_lift(self):
        # steps are wrapped across the branch cut at +-pi
        assert winding([3.0, -3.0, -2.0]) == pytest.approx((2 * math.pi - 6.0 + 1.0)
                                                           / (2 * math.pi))
        turn = np.linspace(0.0, 2 * math.pi, 9)
        assert winding(turn) == pytest.approx(1.0)
        assert winding(-turn) == pytest.approx(-1.0)
        # a quarter turn between samples is already too coarse
        with pytest.raises(SamplingTooCoarse):
            winding([0.0, math.pi / 2])
        assert winding([0.0, math.pi / 2 - 1e-9]) == pytest.approx(0.25)

    @pytest.mark.parametrize("path, value, message", [
        (rotation_path, math.inf, "rotation number must be finite, got inf"),
        (rotation_path, math.nan, "rotation number must be finite, got nan"),
        (stretch_path, math.nan, "stretch factor must be positive and finite, got nan"),
        (stretch_path, math.inf, "stretch factor must be positive and finite, got inf"),
        (stretch_path, -2.0, "stretch factor must be positive and finite, got -2.0"),
    ])
    def test_nonfinite_path_parameter_rejected(self, path, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            path(value)

    def test_negative_hyperbolic_iterates_linear(self):
        # half-turn composed with a stretch: odd index, linear under iteration
        def path(k, n=1200):
            ts = np.linspace(0.0, 1.0, n + 1)
            out = []
            for t in ts:
                ang = math.pi * k * t
                R = np.array([[math.cos(ang), -math.sin(ang)],
                              [math.sin(ang), math.cos(ang)]])
                lam = math.exp(0.8 * k * t)
                out.append(R @ np.diag([lam, 1.0 / lam]))
            return np.array(out)
        assert [cz_index_sampled(path(k)) for k in (1, 2, 3)] == [1, 2, 3]

    def test_block_sums(self):
        # rotation + hyperbolic blocks assembled in split coordinates
        n = 300
        ts = np.linspace(0.0, 1.0, n + 1)
        path = np.array([
            direct_sum([rotation2(2 * math.pi * 0.3 * t),
                        np.diag([math.e ** t, math.e ** (-t)])])
            for t in ts
        ])
        assert cz_index_sampled(path) == 1

    def test_positive_definite_flow_normalization(self):
        # index m for a small positive definite form, m = 1, 2, 3
        for m in (1, 2, 3):
            diag = np.arange(1.0, m + 1) / 10.0
            S = np.diag(np.concatenate([diag, diag * 1.37]))
            assert cz_index_sampled(flow_path(S)) == m

    def test_non_split_coordinates_positive_definite(self):
        # couple the planes: still handled via an eigenplane change of basis
        S = np.diag([0.11, 0.23, 0.17, 0.29])
        S[0, 1] = S[1, 0] = 0.03
        S[2, 3] = S[3, 2] = -0.02
        assert cz_index_sampled(flow_path(S)) == 2

    def test_time_varying_splitting_not_splittable(self, tmp_path, capsys):
        # two rotation planes conjugated by the shear S(t) = [[I, tB], [0, I]],
        # symplectic for symmetric B: each sample splits, but into planes that
        # move with t, so no constant change of basis splits the whole path
        B = np.array([[0.0, 1.0], [1.0, 0.0]])

        def shear(s):
            return np.block([[np.eye(2), s * B], [np.zeros((2, 2)), np.eye(2)]])
        ts = np.linspace(0.0, 1.0, 201)
        planes = np.array([direct_sum([rotation2(2 * math.pi * 0.3 * t),
                                       rotation2(2 * math.pi * 0.7 * t)]) for t in ts])
        # conjugated by one constant shear, the path still splits
        assert cz_index_sampled(shear(1.0) @ planes @ shear(-1.0)) == 2
        path = np.array([shear(t) @ m @ shear(-t) for t, m in zip(ts, planes)])
        with pytest.raises(PathNotSplittable, match="common splitting"):
            cz_index_sampled(path)
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps(path.tolist()))
        assert main(["cz-index", "--path-file", str(path_file)]) == 2
        assert "common splitting" in capsys.readouterr().err

    def test_identity_start_required(self):
        path = rotation_path(0.3)
        with pytest.raises(ValueError):
            cz_index_sampled(path[5:])

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            cz_index_sampled(np.zeros((4, 3, 3)))


class TestIndexTriple:
    def test_single_elliptic(self):
        t = index_triple(IterationProfile(elliptic=(0.3,)), 1)
        assert (t.mu_minus, t.mu_plus) == (1, 1)
        assert t.mu_hat == pytest.approx(0.6)

    def test_hyperbolic_linear(self):
        t = index_triple(IterationProfile(hyperbolic=(3,)), 5)
        assert (t.mu_minus, t.mu_plus, t.mu_hat) == (15, 15, 15.0)

    def test_degenerate_split(self):
        deg = williamson_from_counts(b_plus=1)
        t = index_triple(IterationProfile(degenerate=deg), 2)
        assert (t.mu_minus, t.mu_plus) == (0, 1)
        assert t.mu_hat == 0.0

    def test_integer_elliptic_iterate_splits(self):
        # k rho integer: the iterate is degenerate and mu_pm split by 2
        t = index_triple(IterationProfile(elliptic=(Fraction(1, 3),)), 3)
        assert (t.mu_minus, t.mu_plus) == (1, 3)
        assert t.mu_hat == 2.0

    def test_guard_band_on_floats(self):
        t = index_triple(IterationProfile(elliptic=(1.0 / 3.0,)), 3)
        assert (t.mu_minus, t.mu_plus) == (1, 3)

    def test_loop_contribution(self):
        t = index_triple(IterationProfile(loop_index=2, elliptic=(0.25,)), 2)
        # loop adds 2k to everything; elliptic 0.5 at k=2 hits no integer
        assert (t.mu_minus, t.mu_plus) == (4 + 1, 4 + 1)
        assert t.mu_hat == pytest.approx(4 + 1.0)

    def test_oracle_agreement_pure_blocks(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            rho = float(rng.uniform(-5, 5))
            if abs(rho - round(rho)) < 0.02:
                continue
            t = index_triple(IterationProfile(elliptic=(rho,)), 1)
            assert t.mu_minus == t.mu_plus == cz_index_sampled(rotation_path(rho))


@st.composite
def profiles(draw):
    n_e = draw(st.integers(0, 2))
    n_h = draw(st.integers(0, 2))
    deg = draw(st.booleans()) and n_e + n_h == 0
    elliptic = tuple(
        draw(st.floats(-4, 4).filter(lambda x: abs(x - round(x)) > 1e-6))
        for _ in range(n_e))
    hyperbolic = tuple(draw(st.integers(-5, 5)) for _ in range(n_h))
    degenerate = None
    if deg or (n_e + n_h == 0):
        degenerate = williamson_from_counts(
            nu0=draw(st.integers(0, 1)), b_plus=draw(st.integers(0, 1)),
            b_minus=draw(st.integers(0, 1)))
        if degenerate.m == 0:
            degenerate = williamson_from_counts(nu0=1)
    return IterationProfile(loop_index=2 * draw(st.integers(-2, 2)),
                            elliptic=elliptic, hyperbolic=hyperbolic,
                            degenerate=degenerate)


class TestMeanIndexSandwich:
    @settings(max_examples=300, deadline=None)
    @given(profiles(), st.integers(1, 50))
    def test_sandwich(self, profile, k):
        m = profile.dim_half
        t = index_triple(profile, k)
        assert t.mu_hat * 1 == profile.mean_index(k)
        assert t.mu_hat - m <= t.mu_minus <= t.mu_plus <= t.mu_hat + m
        if not t.nu_a:
            assert t.mu_hat - m < t.mu_minus and t.mu_plus < t.mu_hat + m

    @settings(max_examples=150, deadline=None)
    @given(profiles(), st.integers(1, 40))
    def test_mean_index_homogeneous(self, profile, k):
        assert profile.mean_index(k) == pytest.approx(k * profile.mean_index(1),
                                                      rel=1e-12, abs=1e-12)

    def test_hyperbolic_linearity_long_range(self):
        p = IterationProfile(hyperbolic=(4, -3))
        for k in range(1, 1001):
            t = index_triple(p, k)
            assert t.mu_minus == t.mu_plus == k * 1
        p2 = IterationProfile(hyperbolic=(2,), loop_index=2)
        for k in range(1, 1001):
            t = index_triple(p2, k)
            assert t.mu_minus == t.mu_plus == 4 * k


class TestSupportInterval:
    def test_nondegenerate(self):
        # mu = 5 at k = 1, half-dimension 2 for ambient n = 3
        p = IterationProfile(loop_index=2, elliptic=(0.3,), hyperbolic=(2,))
        assert index_triple(p, 1).mu_minus == 5
        assert support_interval(p, 1, 3) == (5, 6)

    def test_hyperbolic(self):
        p = IterationProfile(hyperbolic=(3,), elliptic=(0.49,))
        lo, hi = support_interval(p, 4, 3)
        t = index_triple(p, 4)
        assert (lo, hi) == (t.mu_minus, t.mu_plus + 1)

    def test_pair_of_angles(self):
        p = IterationProfile(elliptic=(0.49, 0.51))
        assert support_interval(p, 1, 3) == (2, 3)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            support_interval(IterationProfile(elliptic=(0.3,)), 1, 4)


ARRAY_PROFILES = {
    "float": IterationProfile(elliptic=(math.sqrt(2.0) - 1.0,)),
    "float_third": IterationProfile(elliptic=(1.0 / 3.0,)),
    "band_edge": IterationProfile(elliptic=(INTEGER_BAND,)),   # k = 1 hits at the edge
    "fraction_third": IterationProfile(elliptic=(Fraction(1, 3),)),
    "mixed": IterationProfile(loop_index=2, elliptic=(0.25, Fraction(-5, 7)),
                              hyperbolic=(3, -1)),
    "hyperbolic": IterationProfile(hyperbolic=(3,)),
    "loop": IterationProfile(loop_index=-4, elliptic=(2.6180339887498949,)),
    "degenerate": IterationProfile(
        degenerate=williamson_from_counts(b_plus=1, nu0=1)),
}

# dense near both ends of 1..10**6, strided in between
ARRAY_KS = np.unique(np.concatenate([
    np.arange(1, 3001), np.arange(3001, 10 ** 6 - 2000, 997),
    np.arange(10 ** 6 - 2000, 10 ** 6 + 1)])).astype(np.int64)


def assert_matches_scalar(profile, ks):
    t = index_triple(profile, ks)
    assert t.mu_minus.dtype == t.mu_plus.dtype == np.int64
    assert t.mu_hat.dtype == np.float64
    for pos, k in enumerate(ks.tolist()):
        s = scalar_index_triple(profile, k)
        assert (s.mu_minus, s.mu_plus, s.mu_hat) == (
            t.mu_minus[pos], t.mu_plus[pos], t.mu_hat[pos]), k
    return t


class TestKeptConstants:
    """A profile keeps dim_half, its first iterate's mean index and the
    growth bound of _fits_int64 from its construction."""

    @pytest.mark.parametrize("name", sorted(ARRAY_PROFILES))
    def test_each_constant_is_its_formula(self, name):
        p = ARRAY_PROFILES[name]
        ks = np.array([1, 2, 7, 999_983, 10 ** 12], dtype=np.int64)
        for k in (1, 3, np.int64(12), 10 ** 6):
            assert p.mean_index(k).hex() == per_call_mean_index(p, k).hex()
        assert np.array_equal(p.mean_index(ks).view(np.int64),
                              per_call_mean_index(p, ks).view(np.int64))
        for k in (1, 2 ** 40, 2 ** 59, 2 ** 60 + 1, 2 ** 62):
            assert _fits_int64(p, k) == per_call_fits_int64(p, k)
        deg = p.degenerate.m if p.degenerate is not None else 0
        assert p.dim_half == len(p.elliptic) + len(p.hyperbolic) + deg

    @settings(max_examples=200, deadline=None)
    @given(profiles(), st.lists(st.integers(-9, 9).filter(bool).map(lambda q: Fraction(1, q))
                                | st.floats(-4, 4), max_size=3),
           st.integers(1, 10 ** 9))
    def test_replace_refreshes_every_constant(self, p, elliptic, k):
        # _replace builds through the constructor, so the constants follow the fields
        q = p._replace(elliptic=tuple(elliptic), loop_index=p.loop_index + 2)
        assert q.mean_index(k).hex() == per_call_mean_index(q, k).hex()
        assert _fits_int64(q, 2 ** 62 // k) == per_call_fits_int64(q, 2 ** 62 // k)
        deg = q.degenerate.m if q.degenerate is not None else 0
        assert q.dim_half == len(q.elliptic) + len(q.hyperbolic) + deg


@pytest.mark.parametrize("make, message", [
    (lambda: IterationProfile(elliptic=("a",)),
     "profile entry elliptic[0] must be a real number, got 'a'"),
    (lambda: IterationProfile(elliptic=(0.3, b"0.3")),
     "profile entry elliptic[1] must be a real number, got b'0.3'"),
    (lambda: IterationProfile(hyperbolic=(None,)),
     "profile entry hyperbolic[0] must be an integer, got None"),
    (lambda: IterationProfile(loop_index=None), "loop index must be an integer, got None"),
    (lambda: index_triple(IterationProfile(elliptic=(0.3,)), 2.5),
     "iteration order must be an integer, got 2.5"),
    (lambda: support_interval(IterationProfile(elliptic=(0.3,)), "1", 2),
     "iteration order must be an integer, got '1'"),
    # text is no integer, though int() would parse it, and neither is NaN,
    # an infinity or 2.5, which int() refuses untyped or truncates
    (lambda: IterationProfile(hyperbolic=("3",)),
     "profile entry hyperbolic[0] must be an integer, got '3'"),
    (lambda: IterationProfile(hyperbolic=(3, math.nan)),
     "profile entry hyperbolic[1] must be an integer, got nan"),
    (lambda: IterationProfile(hyperbolic=(math.inf,)),
     "profile entry hyperbolic[0] must be an integer, got inf"),
    (lambda: IterationProfile(hyperbolic=(2.5,)),
     "profile entry hyperbolic[0] must be an integer, got 2.5"),
    # refused when the query is built, not by a bare error inside the search
    (lambda: RecurrenceQuery((IterationProfile(elliptic=(0.3,)),), 0.1, 3, count=math.nan),
     "count must be an integer, got nan"),
    (lambda: RecurrenceQuery((IterationProfile(elliptic=(0.3,)),), 0.1, math.nan),
     "ell0 must be an integer, got nan"),
    (lambda: RecurrenceQuery((IterationProfile(elliptic=(0.3,)),), 0.1, 2.5),
     "ell0 must be an integer, got 2.5"),
    # text is no real, though float() would parse it
    (lambda: EllipsoidSpec(("1", "2")), "weights must be a sequence of reals, got ('1', '2')"),
    # the other constructors' fields, each at its own check
    (lambda: PlanarMapSample(np.zeros((3, 2)), np.zeros((3, 2)), eps="1"),
     "eps must be a real number, got '1'"),
    (lambda: CylinderTrace(np.arange(3.0), np.arange(2.0), np.ones((3, 2)), None, 1.0),
     "r_plus must be a real number, got None"),
    (lambda: WilliamsonInvariants("1", 0, 0, 0, 2, 1, 1), "nu0 must be an integer, got '1'"),
])
def test_wrong_types_are_typed(make, message):
    with pytest.raises(WrongType) as err:
        make()
    assert str(err.value) == message


def test_numpy_scalars_fractions_and_bools_accepted():
    p = IterationProfile(loop_index=np.int64(2),
                         elliptic=(Fraction(1, 3), np.float32(0.25), True),
                         hyperbolic=(np.int32(3), False, 2.0))
    assert p.hyperbolic == (3, 0, 2) and p.dim_half == 6
    # an integral float is an integer: the loop index and the order are stored
    # and computed as ints, and the indices stay int64
    q = IterationProfile(loop_index=2.0, elliptic=(0.3,))
    assert type(q.loop_index) is int and all(type(h) is int for h in p.hyperbolic)
    assert index_triple(q, 2.0) == index_triple(q, 2)
    assert index_triple(q, np.arange(1, 4)).mu_minus.dtype == np.int64
    # so are a degenerate factor's counts, which the int64 index arrays add
    # in place: numpy refuses to add a float count there
    w = WilliamsonInvariants(1.0, 0, 0, 0, 2.0, 1.0, 1.0)
    assert all(type(c) is int for c in w)
    r = IterationProfile(elliptic=(0.3,), degenerate=w)
    assert index_triple(r, np.arange(1, 4)).mu_minus.dtype == np.int64
    for k in (True, np.int64(5), np.uint8(7)):
        assert index_triple(p, k).mu_hat == per_call_mean_index(p, int(k))
    # a wrong type is refused at its own check, in the order the checks run
    with pytest.raises(InvalidParameter, match="loop index must be even"):
        IterationProfile(loop_index=3, elliptic=("a",))
    with pytest.raises(InvalidParameter, match="non-finite"):
        IterationProfile(elliptic=(float("nan"), "a"))


class TestArrayPath:
    """index_triple, support_interval and nu_a on int64 arrays against the
    scalar formulas kept in _oracles, element by element and exactly."""

    @pytest.mark.parametrize("name", sorted(ARRAY_PROFILES))
    def test_index_triple_matches_scalar(self, name):
        assert_matches_scalar(ARRAY_PROFILES[name], ARRAY_KS)

    @pytest.mark.parametrize("name", sorted(ARRAY_PROFILES))
    def test_support_interval_matches_scalar(self, name):
        # an escape raises for the first k at which the int path raises
        p = ARRAY_PROFILES[name]
        n = p.dim_half + 1
        scalar = []
        for k in ARRAY_KS.tolist():
            try:
                scalar.append(scalar_support_interval(p, k, n))
            except SupportOutOfRange as exc:
                with pytest.raises(SupportOutOfRange, match=f"^{re.escape(str(exc))}$"):
                    support_interval(p, ARRAY_KS, n)
                return
        lo, hi = support_interval(p, ARRAY_KS, n)
        assert scalar == list(zip(lo.tolist(), hi.tolist()))

    @pytest.mark.parametrize("name", ["float_third", "fraction_third"])
    def test_exact_integer_hits_split(self, name):
        t = index_triple(ARRAY_PROFILES[name], np.arange(1, 301, dtype=np.int64))
        split = (t.mu_plus - t.mu_minus) == 2
        assert np.array_equal(np.flatnonzero(split) + 1, np.arange(3, 301, 3))

    def test_fraction_exact_beyond_int64_products(self):
        # k * p exceeds int64 for k near 10**6; multiples of 7 are exact hits
        rho = Fraction(10 ** 13 + 1, 7)
        ks = np.concatenate([np.arange(1, 501), np.arange(10 ** 6 - 500, 10 ** 6 + 1)])
        assert int(ks.max()) * rho.numerator > np.iinfo(np.int64).max
        t = assert_matches_scalar(IterationProfile(elliptic=(rho,)), ks)
        assert int(t.mu_plus[-1]) == 2 * (10 ** 6 * (10 ** 13 + 1) // 7) + 1

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(-2 ** 60, 2 ** 60), q=st.integers(1, 2 ** 60),
           loop_index=st.sampled_from((-2, 0, 2)),
           small=st.lists(st.integers(1, 1000), min_size=1, max_size=12),
           large=st.lists(st.integers(1, 2 ** 62), max_size=12))
    # max(k) |p| = 2^63 - 8 floors in int64, and 2^63 + 2^60 - 9 in Python ints
    @example(p=2 ** 60 - 1, q=2 ** 60 + 1, loop_index=0, small=[1], large=[8])
    @example(p=2 ** 60 - 1, q=2 ** 60 + 1, loop_index=0, small=[1], large=[9])
    @example(p=-(2 ** 60 - 1), q=2 ** 60 + 1, loop_index=0, small=[1], large=[8])
    @example(p=-(2 ** 60 - 1), q=2 ** 60 + 1, loop_index=0, small=[1], large=[9])
    # a denominator beyond int64 takes Python ints, whatever k p
    @example(p=3, q=2 ** 64 + 1, loop_index=0, small=[1], large=[2 ** 40])
    def test_fraction_floors_match_scalar(self, p, q, loop_index, small, large):
        # k p is floored in int64 while max(k) |p| < 2^63 and in Python ints
        # beyond: small orders next to orders up to the int64 limit of the indices
        profile = IterationProfile(loop_index=loop_index, elliptic=(Fraction(p, q),))
        k_max = max(1, int(2 ** 61 / (abs(loop_index) + 2 + 2 * abs(p / q))))
        ks = np.array([1 + (k - 1) % k_max for k in small + large], dtype=np.int64)
        t = assert_matches_scalar(profile, ks)
        assert t.nu_a.tolist() == [scalar_nu_a(profile, k) for k in ks.tolist()]

    def test_empty_array(self):
        t = index_triple(ARRAY_PROFILES["mixed"], np.arange(1, 1, dtype=np.int64))
        assert t.mu_minus.size == t.mu_plus.size == t.mu_hat.size == 0

    def test_order_checked(self):
        with pytest.raises(ValueError, match="got 0"):
            index_triple(ARRAY_PROFILES["float"], np.array([3, 0, -1]))

    def test_escape_is_typed_and_names_the_first_k(self):
        # k rho = 1 - 9e-10 sits inside the guard band, so k = 3 splits, but
        # mu_hat = 2 - 1.8e-9 leaves mu_+ + 1 = 4 above mu_hat + n + 1e-9
        p = IterationProfile(elliptic=(1.0 / 3.0 - 3e-10,))
        with pytest.raises(SupportOutOfRange) as scalar:
            scalar_support_interval(p, 3, 2)
        for k in (3, np.arange(1, 10)):
            with pytest.raises(SupportOutOfRange) as lib:
                support_interval(p, k, 2)
            assert str(lib.value) == str(scalar.value)

    @pytest.mark.parametrize("name", sorted(ARRAY_PROFILES))
    def test_nu_a_matches_scalar(self, name):
        p = ARRAY_PROFILES[name]
        ks = ARRAY_KS[:3000]
        nu = index_triple(p, ks).nu_a
        assert nu.dtype == np.int64
        assert nu.tolist() == [scalar_nu_a(p, k) for k in ks.tolist()]

    @pytest.mark.parametrize("name", sorted(ARRAY_PROFILES))
    def test_int_is_an_array_of_length_one(self, name):
        # an int (or numpy integer) k unwraps to Python ints and a float
        p = ARRAY_PROFILES[name]
        for k in (1, 2, 3, 7, np.int64(12), np.int32(999_999)):
            t = index_triple(p, k)
            assert [type(v) for v in t] == [int, int, float]
            assert tuple(t) == tuple(scalar_index_triple(p, int(k)))
            a = index_triple(p, np.array([k], dtype=np.int64))
            assert tuple(t) == (a.mu_minus[0], a.mu_plus[0], a.mu_hat[0])
            assert type(t.nu_a) is int and t.nu_a == scalar_nu_a(p, int(k))
        lo, hi = support_interval(ARRAY_PROFILES["float"], 5, 2)
        assert (type(lo), type(hi)) == (int, int)

    def test_orders_outside_int64_rejected(self):
        hyp = ARRAY_PROFILES["hyperbolic"]
        with pytest.raises(ValueError, match="outside int64"):
            index_triple(hyp, 2 ** 63)
        # k fits, but 3k does not: no silent wrap-around
        for k in (2 ** 62, np.array([1, 2 ** 62], dtype=np.int64)):
            with pytest.raises(ValueError, match="leave int64"):
                index_triple(hyp, k)
        with pytest.raises(ValueError, match="leave int64"):
            index_triple(ARRAY_PROFILES["float"], 2 ** 62)
        with pytest.raises(ValueError, match=r"non-finite rotation number elliptic\[0\] = nan"):
            IterationProfile(elliptic=(float("nan"),))
        with pytest.raises(ValueError, match="got 0"):
            support_interval(hyp, 0, 2)
        assert index_triple(hyp, 2 ** 58).mu_minus == 3 * 2 ** 58


class TestDynamicalConvexity:
    def test_violating_hyperbolic(self):
        rep = check_dynamical_convexity([(IterationProfile(hyperbolic=(2,)), 1)], n=3)
        assert not rep.ok
        assert rep.witnesses[0] == (0, 1, 2)   # mu_- = 2 < n + 1 = 4

    def test_empty_is_vacuous(self):
        rep = check_dynamical_convexity([], n=3)
        assert rep.ok and rep.weak_ok and rep.min_mu_minus is None

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_no_iterates_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            check_dynamical_convexity([(IterationProfile(hyperbolic=(4,)), 3),
                                       (IterationProfile(hyperbolic=(4,)), k_max)], n=3)

    def test_weak_flag_uses_nu_a(self):
        # rational elliptic angle: iterate 2 is degenerate, nu_a jumps
        p = IterationProfile(loop_index=2, elliptic=(Fraction(1, 2),))
        rep = check_dynamical_convexity([(p, 4)], n=2)
        assert rep.ok  # mu_- stays >= 3
        # weak condition needs mu_- >= 2 + nu_a at the degenerate iterates
        t = index_triple(p, 2)
        assert t.mu_minus >= max(3, 2 + t.nu_a) or not rep.weak_ok


def per_k_convexity(orbits, n) -> dict:
    """check_dynamical_convexity(orbits, n).to_json() by one scalar call per iterate."""
    witnesses, weak, min_mu = [], [], None
    for pos, (profile, k_max) in enumerate(orbits):
        for k in range(1, k_max + 1):
            mu = scalar_index_triple(profile, k).mu_minus
            min_mu = mu if min_mu is None else min(min_mu, mu)
            if mu < n + 1:
                witnesses.append([pos, k, mu])
            if mu < max(3, 2 + scalar_nu_a(profile, k)):
                weak.append([pos, k, mu])
    return {"ok": not witnesses, "witnesses": witnesses, "weak_ok": not weak,
            "weak_witnesses": weak, "min_mu_minus": min_mu}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_convexity_witnesses_match_per_k_loop(n):
    orbits = [(p, 40) for p in ARRAY_PROFILES.values()] + [
        (IterationProfile(hyperbolic=(2,)), 3),
        (IterationProfile(loop_index=2, elliptic=(Fraction(1, 2), 1 / math.sqrt(2))), 25),
    ]
    rep = check_dynamical_convexity(orbits, n)
    assert rep.to_json() == per_k_convexity(orbits, n)
    assert all(type(v) is int for w in rep.witnesses + rep.weak_witnesses for v in w)


def test_profile_json_roundtrip():
    deg = williamson_from_counts(b_plus=1)
    p = IterationProfile(loop_index=2, elliptic=(0.3, Fraction(1, 3)),
                         hyperbolic=(4,), degenerate=deg)
    q = IterationProfile.from_json(p.to_json())
    assert q.loop_index == 2
    assert q.elliptic[1] == Fraction(1, 3)
    assert q.degenerate.b_plus == 1


@pytest.mark.parametrize("blob", [
    [0.3],
    {"loop_index": None},
    {"loop_index": 2.5},
    {"elliptic": [True]},
    {"elliptic": ["1/0"]},
    {"elliptic": ["a third"]},
    {"elliptic": [[0.3]]},
    {"hyperbolic": "3"},
    {"hyperbolic": [True]},
    {"degenerate": 5},
    {"degenerate": {}},
    {"degenerate": {**williamson_from_counts(b_plus=1).to_json(), "m": "1"}},
    {"elliptic": [0.3], "Hyperbolic": [3]},
    {"degenerate": {**williamson_from_counts(b_plus=1).to_json(), "M": 1}},
    {"elliptic": ["1.5"]},
    {"elliptic": ["1/3 "]},
])
def test_profile_from_json_typed_errors(blob):
    with pytest.raises(MalformedInput):
        IterationProfile.from_json(blob)


def test_profile_from_json_converts_as_the_schema_allows():
    p = IterationProfile.from_json({"loop_index": 2.0, "elliptic": [1, "-1/3"],
                                    "hyperbolic": [3.0], "degenerate": None})
    assert p == IterationProfile(loop_index=2, elliptic=(1.0, Fraction(-1, 3)),
                                 hyperbolic=(3,))
    assert type(p.loop_index) is int and type(p.elliptic[0]) is float
    assert IterationProfile.from_json({}) == IterationProfile()
