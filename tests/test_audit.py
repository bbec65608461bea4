import functools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reeb_lab.audit as audit_module
import reeb_lab.indices as indices_module
import reeb_lab.recurrence as recurrence_module

from reeb_lab.audit import (
    CASE_ALIGNED,
    CASE_FAR,
    CASE_NEAR,
    CASE_SAME,
    MODES,
    OrbitSystem,
    _audit_solution,
    _index_tables,
    audit,
    case_classify,
    j_range,
    resonance_classify,
)
from reeb_lab.ellipsoid import (
    EllipsoidSpec,
    action_spectrum,
    detect_rational,
    ellipsoid_profile,
    pseudo_rotation_instance,
    slope_valid,
)
from reeb_lab.errors import (
    AuditFailed,
    BadGeometry,
    HypothesisFailed,
    InvalidParameter,
    IterateUnderflow,
    JOutOfRange,
    MalformedInput,
    NotExcluded,
    ReebLabError,
    ShellMarginNotFound,
    SupportOutOfRange,
)
from reeb_lab.fixedpoint import PlanarMapSample
from reeb_lab.hamiltonian import (
    CylinderTrace,
    build_profile,
    check_cylinder_trace,
    check_transfer_parameters,
    homotopy_action_derivative,
    spline_slope,
)
from reeb_lab.indices import (
    IterationProfile,
    SystemOrbit,
    check_dynamical_convexity,
    cz_index_sampled,
    index_triple,
    rotation_path,
    stretch_path,
    support_interval,
)
from reeb_lab.symplectic import validate_symplectic, williamson_invariants
from reeb_lab.recurrence import (
    RecurrenceQuery,
    RecurrenceSolution,
    _Iterates,
    recurrence_search,
    verify_recurrence,
)

from _matrices import williamson_from_counts
from _oracles import (
    scalar_audit_solution,
    scalar_index_triple,
    scalar_nu_a,
)

SQRT2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def sqrt2_system(**overrides):
    spec = EllipsoidSpec((1.0, SQRT2))
    kwargs = dict(
        orbits=(
            SystemOrbit(period=3.0, profile=IterationProfile(hyperbolic=(3,)),
                        hyperbolic=True),
            SystemOrbit(period=math.pi, profile=ellipsoid_profile(spec, 1)),
            SystemOrbit(period=SQRT2 * math.pi, profile=ellipsoid_profile(spec, 2)),
        ),
        hamiltonian=build_profile("quadratic", slope=5.0, r_max=2.0),
        n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="hyperbolic",
    )
    kwargs.update(overrides)
    return OrbitSystem(**kwargs)


def golden_system(**overrides):
    seed = pseudo_rotation_instance(EllipsoidSpec((1.0, PHI)), k_max=30,
                                    locally_maximal=1)
    kwargs = dict(
        orbits=tuple(SystemOrbit(period=o.period, profile=o.profile,
                                 locally_maximal=o.locally_maximal)
                     for o in seed.orbits),
        hamiltonian=build_profile("quadratic", slope=6.0, r_max=2.0),
        n=2, sigma=0.6, eta=0.1, ell0=3, cbar=2.0, mode="pseudo_rotation",
    )
    kwargs.update(overrides)
    return OrbitSystem(**kwargs)


@pytest.mark.parametrize("build, message", [
    (lambda: IterationProfile(loop_index=1), "loop index must be even, got 1"),
    (lambda: IterationProfile(elliptic=(math.nan,)),
     "profile has a non-finite rotation number elliptic[0] = nan"),
    (lambda: IterationProfile(elliptic=(10 ** 400,)),
     "profile entry elliptic[0] is too large for a float"),
    (lambda: EllipsoidSpec((0.0, 1.0)), "weights must be positive and finite, got (0.0, 1.0)"),
    (lambda: EllipsoidSpec((2.0, 1.0)), "weights must be sorted ascending"),
    (lambda: PlanarMapSample(np.zeros((3, 2)), np.zeros((4, 2))),
     "bad sample shapes (3, 2) vs (4, 2)"),
    (lambda: PlanarMapSample(np.zeros((3, 2)), np.zeros((3, 2)), eps=-1.0),
     "eps must be positive and finite, got -1.0"),
    (lambda: sqrt2_system(mode="elliptic"), f"mode must be one of {MODES}"),
    (lambda: sqrt2_system(orbits=()), "need at least one orbit"),
    (lambda: check_transfer_parameters(math.inf, 1.0),
     "k and lam must be finite, got k = inf, lam = 1.0"),
    (lambda: check_transfer_parameters(0.5, 1.0), "need k >= 1 and lam > 0"),
    (lambda: build_profile("exp", slope=5.0, r_max=2.0, beta=800.0),
     "expm1(beta * (r_max - 1)) overflows at beta = 800.0"),
    (lambda: validate_symplectic(np.array([[1.0, 1e200], [0.0, 1.0]])),
     "matrix entries must square to a finite float, got 1.000e+200"),
    # ellipsoid
    (lambda: detect_rational(-1.0), "ratio must be positive, got -1.0"),
    (lambda: ellipsoid_profile(EllipsoidSpec((1.0, 2.0)), 3), "orbit index 3 outside 1..2"),
    (lambda: action_spectrum(EllipsoidSpec((1.0, 2.0)), 0.0),
     "t_max must be positive and finite, got 0.0"),
    (lambda: slope_valid(EllipsoidSpec((1.0, 2.0)), math.nan), "slope must be finite, got nan"),
    (lambda: slope_valid(EllipsoidSpec((1e-310, 2.0)), 1.0),
     "slope 1.0 over the period 3.1415926535898e-310 overflows a float"),
    # hamiltonian
    (lambda: build_profile("cosine", slope=1.0, r_max=2.0), "unknown profile family 'cosine'"),
    (lambda: homotopy_action_derivative(build_profile("quadratic", slope=5.0, r_max=2.0),
                                        1.0, 1.0, 2.0, 1.0), "s = 2.0 outside [0, 1]"),
    # indices
    (lambda: index_triple(IterationProfile(elliptic=(0.3,)), 2 ** 63),
     "iteration order 9223372036854775808 outside int64"),
    (lambda: index_triple(IterationProfile(elliptic=(0.3,)), 0),
     "iteration order must be >= 1, got 0"),
    (lambda: index_triple(IterationProfile(elliptic=(0.3,)), 2 ** 62),
     "indices of iterate 4611686018427387904 leave int64"),
    (lambda: check_dynamical_convexity([(IterationProfile(elliptic=(0.3,)), 0)], 2),
     "k_max must be at least 1, got 0 for orbit 0"),
    (lambda: cz_index_sampled(np.array([2.0 * np.eye(2), np.eye(2)])),
     "path must start at the identity"),
    (lambda: rotation_path(math.inf), "rotation number must be finite, got inf"),
    (lambda: stretch_path(0.0), "stretch factor must be positive and finite, got 0.0"),
    # a negative count would let R3 hold while its nu_a bound fails
    (lambda: williamson_from_counts(b_plus=1, b_minus=-1),
     "negative block count in WilliamsonInvariants(nu0=0, b0=0, b_plus=1, b_minus=-1, "
     "nu_g=0, nu_a=0, m=0)"),
    # recurrence
    (lambda: RecurrenceQuery(profiles=(), eta=0.1, ell0=3), "need at least one profile"),
    (lambda: RecurrenceQuery(profiles=(IterationProfile(elliptic=(1e308,)),), eta=0.1, ell0=3),
     "profile 0 has mean index inf"),
    (lambda: RecurrenceQuery(profiles=(IterationProfile(elliptic=(0.3,)),), eta=0.0, ell0=3),
     "finite eta > 0, ell0 >= 1, divisor >= 1, count >= 1 required"),
    (lambda: RecurrenceQuery(profiles=(IterationProfile(elliptic=(0.3,)),), eta=0.1, ell0=3,
                             k_bound=-5), "k_bound must be >= 0, got -5"),
    (lambda: verify_recurrence([IterationProfile(elliptic=(0.3,))], 1, [4, 5], 0.1, 3),
     "2 iteration orders for 1 profiles"),
    (lambda: recurrence_search(RecurrenceQuery(
        profiles=(IterationProfile(hyperbolic=(2 ** 58,)),), eta=0.1, ell0=2, k_bound=100,
        count=12)), "indices of iterate 16 leave int64"),
])
def test_invalid_parameters_are_typed(build, message):
    # a ReebLabError for a library caller, and still the ValueError it was
    with pytest.raises(InvalidParameter) as exc:
        build()
    assert isinstance(exc.value, ReebLabError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == message


#: the three criterion-10 flagship systems
FLAGSHIPS = pytest.mark.parametrize("factory", [
    sqrt2_system,
    lambda **kw: sqrt2_system(mode="hyperbolic_lower", **kw),
    golden_system,
], ids=["hyperbolic", "hyperbolic_lower", "pseudo_rotation"])


class TestConstruction:
    def test_constants_quadratic_closed_forms(self):
        sys_ = sqrt2_system()
        d = sys_.derived
        # quadratic family: h'' = a/w, so C1 = 2w/a, c1 = w/a, C2 = r_max a/w
        assert d.C1 == pytest.approx(2.0 * 1.0 / 5.0)
        assert d.c1 == pytest.approx(1.0 / 5.0)
        assert d.C2 == pytest.approx(2.0 * 5.0)
        assert d.r_star == pytest.approx(1.6)
        assert d.c2 == pytest.approx((1.0 + d.xi) * 5.0)

    @pytest.mark.parametrize("family, params", [
        ("quadratic", {}), ("cubic", {"theta": 0.6}), ("exp", {"beta": 1.5})])
    @pytest.mark.parametrize("slope, r_max", [(5.0, 2.0), (8.0, 2.0), (8.0, 3.0)])
    def test_closed_form_constants_are_endpoint_values(self, family, params, slope, r_max):
        # h'' and r h'' are nondecreasing: each constant is its value at an
        # end of its interval, bit for bit
        H = build_profile(family, slope=slope, r_max=r_max, **params)
        d = sqrt2_system(hamiltonian=H, sigma=100.0).derived
        assert d.C2 == r_max * H.d2h_shell(r_max)
        assert d.c1 == 1.0 / H.d2h_shell(r_max)
        assert d.c2 == (1.0 + d.xi) * H.d2h_shell(1.0 + d.xi)

    def test_tall_spline_knot_between_grid_points(self):
        # h'' is 5 but for one knot of 1000 between two points of a
        # 4096-point grid of the shell, which sit on knots of 5
        knots = [5.0] * 8191
        knots[201] = 1000.0
        H = build_profile("spline", slope=spline_slope(knots, 2.0), r_max=2.0,
                          knots=tuple(knots))
        d = sqrt2_system(hamiltonian=H, sigma=100.0).derived
        assert d.c1 == 1.0 / 1000.0
        assert d.C2 == pytest.approx((1.0 + 201 / 8190) * 1000.0, rel=1e-15)

    def test_eta_budget_enforced(self):
        with pytest.raises(BadGeometry):
            sqrt2_system(sigma=0.1)   # C * eta = 0.4 >= sigma

    @pytest.mark.parametrize("constants", [
        {"sigma": math.inf}, {"sigma": math.nan}, {"cbar": math.inf}, {"cbar": math.nan}])
    def test_constants_must_be_finite(self, constants):
        with pytest.raises(BadGeometry, match="positive and finite"):
            sqrt2_system(**constants)

    def test_slope_too_small(self):
        H = build_profile("quadratic", slope=4.0, r_max=2.0)
        with pytest.raises(BadGeometry):
            sqrt2_system(hamiltonian=H)   # slope below the sqrt2 orbit period... period pi*sqrt2 = 4.44

    def test_shell_margin_failure(self):
        # a slow companion pushes its aligned level past the slope: no
        # positive margin fits and the system is rejected
        slow = SystemOrbit(period=4.9,
                           profile=IterationProfile(loop_index=2, elliptic=(0.05,)))
        with pytest.raises((ShellMarginNotFound, BadGeometry)):
            sqrt2_system(orbits=(*sqrt2_system().orbits, slow))

    def test_hyperbolic_mode_needs_hyperbolic_z(self):
        spec = EllipsoidSpec((1.0, SQRT2))
        with pytest.raises(HypothesisFailed):
            sqrt2_system(orbits=(
                SystemOrbit(period=3.0, profile=ellipsoid_profile(spec, 1)),
            ))

    def test_low_index_z_rejected(self):
        with pytest.raises(HypothesisFailed):
            sqrt2_system(orbits=(
                SystemOrbit(period=3.0, profile=IterationProfile(hyperbolic=(2,)),
                            hyperbolic=True),
            ))

    def test_mean_index_hypothesis(self):
        bad = SystemOrbit(period=1.0, profile=IterationProfile(hyperbolic=(-3,)),
                          hyperbolic=True)
        with pytest.raises(HypothesisFailed):
            sqrt2_system(orbits=(bad,))

    def test_pseudo_rotation_needs_marker(self):
        seed = pseudo_rotation_instance(EllipsoidSpec((1.0, PHI)), k_max=10)
        with pytest.raises(HypothesisFailed):
            golden_system(orbits=tuple(
                SystemOrbit(period=o.period, profile=o.profile)
                for o in seed.orbits))

    def test_ell0_fixed_in_pseudo_rotation_mode(self):
        with pytest.raises(BadGeometry):
            golden_system(ell0=4)

    @pytest.mark.parametrize("mode", MODES)
    def test_iterate_hypotheses_match_per_ell_loop(self, mode):
        companions = [
            IterationProfile(hyperbolic=(3,)),
            IterationProfile(loop_index=2, elliptic=(Fraction(1, 2),)),
            IterationProfile(loop_index=2, elliptic=(0.5,)),
            IterationProfile(loop_index=2, elliptic=(0.3,)),
            IterationProfile(elliptic=(1.3,)),
            IterationProfile(hyperbolic=(2,)),
            IterationProfile(loop_index=2, elliptic=(Fraction(1, 3),)),
            IterationProfile(elliptic=(Fraction(1),)),
            IterationProfile(loop_index=2,
                             degenerate=williamson_from_counts(b_plus=1)),
        ]
        z = SystemOrbit(period=3.0, profile=IterationProfile(hyperbolic=(3,)),
                        hyperbolic=True, locally_maximal=True)
        failures = 0
        for x in companions:
            orbits = (z, SystemOrbit(period=3.2, profile=x))
            want = per_ell_hypothesis_failure(mode, orbits, ell0=3, n=2)
            try:
                sqrt2_system(orbits=orbits, mode=mode)
                got = None
            except HypothesisFailed as exc:
                got = str(exc)
            except BadGeometry:
                got = None
            assert got == want, x
            failures += want is not None
        assert failures >= 3

    def test_json_roundtrip(self):
        sys_ = sqrt2_system()
        round_ = OrbitSystem.from_json(sys_.to_json())
        assert round_.derived.to_json() == sys_.derived.to_json()
        assert round_.norm_periods == sys_.norm_periods


@st.composite
def _profiles_and_intervals(draw):
    """A built profile of any family and a subinterval [a, b] of its shell."""
    family = draw(st.sampled_from(["quadratic", "cubic", "exp", "spline"]))
    r_max = draw(st.floats(1.01, 10.0))
    if family == "spline":
        knots = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40)))
        H = build_profile("spline", slope=spline_slope(knots, r_max), r_max=r_max, knots=knots)
    else:
        params = {"cubic": {"theta": draw(st.floats(0.05, 0.95))},
                  "exp": {"beta": draw(st.floats(0.1, 5.0))}}.get(family, {})
        H = build_profile(family, slope=draw(st.floats(0.1, 100.0)), r_max=r_max, **params)
    u, v = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    w = r_max - 1.0
    return H, 1.0 + u * w, 1.0 + v * w


@settings(max_examples=200, deadline=None)
@given(case=_profiles_and_intervals())
def test_exact_shell_extremes_bound_a_dense_grid(case):
    H, a, b = case
    rs, d2 = H.d2h_extremes(a, b)
    assert np.all((a <= rs) & (rs <= b))
    grid = np.linspace(a, b, 20001)
    d2_grid = H.d2h_shell(grid)
    scale = float(np.max(d2_grid)) * b
    # each extreme is a value of h'' on [a, b], up to rounding ...
    assert np.all(np.abs(d2 - H.d2h_shell(rs)) <= 1e-9 * scale)
    # ... and no sample of the grid lies beyond them, by more than rounding
    for exact, sampled in ((d2, d2_grid), (rs * d2, grid * d2_grid)):
        assert exact.max() >= sampled.max() - 1e-12 * scale
        assert exact.min() <= sampled.min() + 1e-12 * scale


def per_ell_hypothesis_failure(mode, orbits, ell0, n):
    """The first failing iterate hypothesis of OrbitSystem, one ell at a time."""
    for pos, o in enumerate(orbits):
        if mode == "pseudo_rotation" and o.profile.degenerate is not None:
            return f"orbit {pos} is degenerate"
        for ell in range(1, ell0 + 1):
            mu, nu = scalar_index_triple(o.profile, ell).mu_minus, scalar_nu_a(o.profile, ell)
            if mode == "pseudo_rotation":
                if nu > 0:
                    return f"orbit {pos} iterate {ell} degenerate"
                if mu < n + 1:
                    return f"orbit {pos} iterate {ell} breaks dynamical convexity"
                continue
            need = 3 + nu if mode == "hyperbolic_lower" else max(3, 2 + nu)
            if mu < need:
                return f"orbit {pos} iterate {ell}: mu_- = {mu} < {need}"
    return None


class TestResonance:
    def test_sqrt2_companions_nonresonant(self):
        sys_ = sqrt2_system()
        for i in (1, 2):
            kind, delta = resonance_classify(sys_, i)
            assert kind == "nonresonant" and delta > 0.2

    def test_exact_resonant_copy(self):
        # companion with T / mean = T0 / mean(z) exactly
        extra = SystemOrbit(period=4.0, profile=IterationProfile(hyperbolic=(4,)),
                            hyperbolic=True)
        sys_ = sqrt2_system(orbits=(*sqrt2_system().orbits, extra))
        kind, delta = resonance_classify(sys_, 3)
        assert kind == "resonant" and delta is None

    def test_distinguished_rejected(self):
        with pytest.raises(JOutOfRange):
            resonance_classify(sqrt2_system(), 0)


class TestCasePartition:
    def test_covers_every_pair_exactly_once(self):
        sys_ = sqrt2_system()
        sols = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in sys_.orbits),
            eta=sys_.eta, ell0=sys_.ell0, k_bound=10 ** 6, count=1)).solutions
        s = sols[0]
        for i in range(len(sys_.orbits)):
            top = j_range(sys_, s, i)
            assert top >= 1
            cases = [case_classify(sys_, s, i, j, top) for j in range(1, top + 1)]
            if i == 0:
                assert set(cases) == {CASE_SAME}
            else:
                assert cases.count(CASE_ALIGNED) == 1
                near = [c for c in cases if c == CASE_NEAR]
                assert len(near) == 2 * sys_.ell0 or s.k[i] + sys_.ell0 > top
                assert set(cases) <= {CASE_ALIGNED, CASE_NEAR, CASE_FAR}
        top = j_range(sys_, s, 1)
        with pytest.raises(JOutOfRange):
            case_classify(sys_, s, 1, 0, top)
        with pytest.raises(JOutOfRange):
            case_classify(sys_, s, 1, top + 1, top)


class TestCertificates:
    """What each kind of certificate states, read from the audit report of
    one solution of the sqrt(2) system."""

    def setup_method(self):
        self.sys = sqrt2_system()
        self.sol = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in self.sys.orbits),
            eta=0.1, ell0=3, k_bound=10 ** 6, count=1)).solutions[0]
        self.rep = audit_solution(self.sys, self.sol)

    def test_same_pair(self):
        assert self.rep.counts["same-pair"] == 1

    def test_same_orbit_gap_at_least_two(self):
        # the distinguished orbit alone: every iterate but k_0 is an index-gap
        # pair at distance >= 2 from the protected degree
        alone = sqrt2_system(orbits=self.sys.orbits[:1])
        rep = audit_solution(alone, self.sol)
        assert rep.counts == {"same-pair": 1, "index-gap": j_range(alone, self.sol, 0) - 1,
                              "short-action-gap": 0, "diverging-action-gap": 0}
        assert rep.min_index_gap >= 2

    def test_aligned_diverging(self):
        assert [r.i for r in self.rep.aligned] == [1, 2]
        assert self.rep.counts["diverging-action-gap"] == 2
        for r in self.rep.aligned:
            assert r.kind == "diverging-action-gap" and r.j == self.sol.k[r.i]
            assert r.numbers["lower_bound"] > 0
            assert r.numbers["action_gap"] >= r.numbers["lower_bound"] - 1e-9
            assert r.numbers["level_in_shell"]

    def test_aligned_resonant_short_gap(self):
        extra = SystemOrbit(period=4.0, profile=IterationProfile(hyperbolic=(4,)),
                            hyperbolic=True)
        sys_ = sqrt2_system(orbits=(*sqrt2_system().orbits, extra))
        sols = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in sys_.orbits),
            eta=0.1, ell0=3, k_bound=10 ** 6, count=1)).solutions
        s = sols[0]
        rep = audit_solution(sys_, s)
        [r] = [r for r in rep.aligned if r.i == 3]
        assert r.kind == "short-action-gap" and r.j == s.k[3]
        assert rep.counts["short-action-gap"] == 1
        assert r.numbers["action_gap"] < sys_.sigma
        assert r.numbers["apriori_ok"]

    def test_near_and_far_certificates(self):
        i = 1
        k_i, ell0 = self.sol.k[i], self.sys.ell0
        top = j_range(self.sys, self.sol, i)
        near = {r.j: r for r in self.rep.near if r.i == i}
        assert sorted(near) == [k_i + l for l in range(-ell0, ell0 + 1) if l]
        assert {(r.kind, r.case) for r in near.values()} == {("index-gap", CASE_NEAR)}
        assert "recurrence_floor" in near[k_i + 2].numbers
        assert "recurrence_ceiling" in near[k_i - 2].numbers
        # a far pair is listed nowhere; it is one of the index-gap pairs,
        # which are every pair but the three centres
        far = k_i + ell0 + 5
        assert case_classify(self.sys, self.sol, i, far, top) == CASE_FAR
        assert far not in near
        assert self.rep.counts["index-gap"] == self.rep.total_pairs - 3

    def test_index_gap_soundness_recomputed(self):
        # every near certificate's support recomputes to its distance >= 2
        protected = self.rep.protected["degree"]
        assert protected == self.sol.d + 1 and len(self.rep.near) == 4 * self.sys.ell0
        for r in self.rep.near:
            lo, hi = support_interval(self.sys.orbits[r.i].profile, r.j, self.sys.n)
            gap = lo - protected if protected < lo else protected - hi
            assert r.numbers["support"] == [lo, hi] and r.numbers["gap"] == gap >= 2
        assert self.rep.min_index_gap >= 2

    def test_action_gap_arithmetic_within_claims(self):
        # direct action computation sits inside the certificate's claims
        H = self.sys.hamiltonian
        k = self.sol.k[0]
        for r in self.rep.aligned:
            level = float(H.dh_inv(r.j * self.sys.norm_periods[r.i] / k))
            direct = abs(H.action(level, k=k) -
                         H.action(self.sys.derived.r_star, k=k))
            assert direct == pytest.approx(r.numbers["action_gap"], rel=1e-12)
            assert direct >= r.numbers["lower_bound"] - 1e-9


class TestAuditRuns:
    def test_hyperbolic_flagship(self):
        rep = audit(sqrt2_system(), count=3)
        assert rep.ok
        assert len(rep.solutions) == 3
        gaps = [s.min_diverging_gap for s in rep.solutions]
        assert all(g is not None for g in gaps)
        assert gaps == sorted(gaps)
        assert all(s.w_vertex_gap_ok for s in rep.solutions)
        assert all(s.contradiction["ready"] for s in rep.solutions)
        assert rep.diverging_trend_ok

    def test_pseudo_rotation_flagship(self):
        rep = audit(golden_system(), count=3)
        assert rep.ok
        kinds = {w for s in rep.solutions for w in (s.protected["which"],)}
        assert kinds <= {"upper", "lower"}
        for s in rep.solutions:
            assert s.counts["short-action-gap"] == 1   # the one aligned companion

    def test_lower_variant_runs(self):
        rep = audit(sqrt2_system(mode="hyperbolic_lower"), count=2)
        assert rep.ok
        for s in rep.solutions:
            assert s.protected["which"] == "lower"

    def test_supplied_solutions_reverified(self):
        sys_ = sqrt2_system()
        sols = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in sys_.orbits),
            eta=0.1, ell0=3, k_bound=10 ** 6, count=2)).solutions
        rep = audit(sys_, solutions=sols)
        assert rep.ok and len(rep.solutions) == 2
        bad = sols[0].to_json()
        bad["d"] += 2
        from reeb_lab.recurrence import RecurrenceSolution
        fake = RecurrenceSolution(d=bad["d"], k=tuple(bad["k"]), eta=0.1, ell0=3,
                                  profiles=sols[0].profiles)
        with pytest.raises(AuditFailed):
            audit(sys_, solutions=[fake])

    def test_supplied_solutions_verified_at_the_system_constants(self):
        # valid at their own eta 0.45 and ell0 1, not at the system's 0.1 and 3
        sys_ = sqrt2_system()
        sols = recurrence_search(RecurrenceQuery(
            profiles=tuple(o.profile for o in sys_.orbits),
            eta=0.45, ell0=1, k_bound=10 ** 6, count=2)).solutions
        assert [s.d for s in sols] == [24, 48]
        with pytest.raises(AuditFailed, match="^supplied solution d=24 fails verification"):
            audit(sys_, solutions=sols)
        with pytest.raises(AuditFailed, match="^supplied solution d=48 fails verification"):
            audit(sys_, solutions=sols[1:])
        # an order k_i <= 3 has no iterate k_i - ell0 at the system's ell0
        short = RecurrenceSolution(d=6, k=(2, 2, 1), eta=0.45, ell0=1,
                                   profiles=sols[0].profiles)
        with pytest.raises(AuditFailed, match="^supplied solution d=6 fails verification"):
            audit(sys_, solutions=[short])

    def test_a_pair_left_unexcluded_fails_the_audit(self, monkeypatch):
        # no test system leaves a pair unexcluded, so one aligned pair is
        # made to fail; the audit stops at it
        failure = NotExcluded("companion 1 at j = 2 is not excluded", {"i": 1, "j": 2})

        def fail(*args):
            raise failure
        monkeypatch.setattr(audit_module, "_aligned_certificate", fail)
        with pytest.raises(AuditFailed) as err:
            audit(sqrt2_system(), count=1)
        assert err.value.first_failure is failure
        assert err.value.first_failure.context == {"i": 1, "j": 2}
        assert str(err.value) == "companion 1 at j = 2 is not excluded"

    def test_no_supplied_solution_fails(self):
        # as a search that finds none does: 0 of 0 pairs certifies nothing
        with pytest.raises(AuditFailed, match="^no recurrence solutions supplied$"):
            audit(sqrt2_system(), solutions=[])

    @FLAGSHIPS
    @pytest.mark.parametrize("swap", [False, True])
    def test_every_pair_has_one_certificate(self, factory, swap):
        rep = audit(swapped(factory) if swap else factory(), count=3)
        for s in rep.solutions:
            assert sum(s.counts.values()) == s.total_pairs
        assert rep.certified_pairs == rep.total_pairs and rep.ok

    def test_certified_pairs_counts_certificates(self, monkeypatch):
        # a sweep that certifies one pair too few must not report ok
        sweep = audit_module._audit_solution

        def one_short(system, solution, tables):
            a = sweep(system, solution, tables)
            return a._replace(counts={**a.counts, "index-gap": a.counts["index-gap"] - 1})

        monkeypatch.setattr(audit_module, "_audit_solution", one_short)
        rep = audit(sqrt2_system(), count=2)
        assert rep.certified_pairs == rep.total_pairs - 2
        assert not rep.ok and rep.to_json()["ok"] is False

    def test_text_summary_mentions_counts(self):
        rep = audit(sqrt2_system(), count=1)
        text = rep.text_summary()
        assert "pairs certified" in text and "min_div_gap" in text


def _encoded_instances():
    """An instance of every class whose to_json encodes its fields, and of
    each profile family."""
    system = sqrt2_system()
    report = audit(system, count=3)
    audited = report.solutions[0]
    search = recurrence_search(RecurrenceQuery(
        profiles=(IterationProfile(loop_index=2, elliptic=(Fraction(1, 3),)),
                  IterationProfile(loop_index=2, elliptic=(Fraction(2, 5),))),
        eta=0.1, ell0=2, k_bound=10 ** 5, count=2))
    solution = search.solutions[0]
    quadratic = build_profile("quadratic", slope=5.0, r_max=2.0)
    trace = CylinderTrace(np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 2.0, 8),
                          np.full((9, 8), 1.5), r_plus=1.5, r_minus=1.5)
    return [
        report, audited, audited.aligned[0], audited.near[0], system.derived,
        system.orbits[1], search, solution, solution.certificate,
        solution.certificate.records[0],
        check_dynamical_convexity([(IterationProfile(elliptic=(0.3,)), 5)], n=2),
        williamson_invariants(validate_symplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))),
        check_cylinder_trace(trace, quadratic, 2.0),
        quadratic,
        build_profile("cubic", slope=5.0, r_max=2.0, theta=0.6),
        build_profile("exp", slope=5.0, r_max=2.0, beta=1.5),
        build_profile("spline", slope=spline_slope((1.0, 2.0), 2.0), r_max=2.0,
                      knots=(1.0, 2.0)),
    ]


def test_no_condition_records_on_the_hot_paths(monkeypatch):
    # the search and the audit decide R1-R3 by _Iterates.ok alone; records
    # are built only when a certificate is read
    system = sqrt2_system()
    query = RecurrenceQuery(profiles=tuple(o.profile for o in system.orbits),
                            eta=system.eta, ell0=system.ell0, count=3)

    def refuse(self, i):
        raise AssertionError("ConditionRecords built on a hot path")

    monkeypatch.setattr(_Iterates, "records", refuse)
    solutions = recurrence_search(query).solutions
    assert len(solutions) == 3
    assert audit(system, count=3).ok
    assert audit(system, solutions=solutions).ok
    with pytest.raises(AssertionError, match="hot path"):
        solutions[0].to_json()
    monkeypatch.undo()
    for s in solutions:
        assert s.to_json() == {
            "d": s.d, "k": list(s.k), "eta": s.eta, "ell0": s.ell0,
            "certificate": verify_recurrence(query.profiles, s.d, s.k, s.eta,
                                             s.ell0).to_json()}


def test_to_json_is_plain_json():
    # a tuple fails the comparison; a Fraction or a numpy integer or bool fails
    # json.dumps
    instances = _encoded_instances()
    assert {type(x).__name__ for x in instances} == {
        "AuditReport", "SolutionAudit", "ExclusionReason", "DerivedConstants",
        "SystemOrbit", "SearchResult", "RecurrenceSolution", "Certificate",
        "ConditionRecord", "ConvexityReport", "WilliamsonInvariants", "TraceReport",
        "QuadraticProfile", "CubicProfile", "ExpProfile", "SplineProfile"}
    for x in instances:
        data = x.to_json()
        assert json.loads(json.dumps(data)) == data, type(x).__name__


# the key order of every to_json that encodes its class's fields: the
# field order, which a change of the class's machinery must keep
_JSON_KEYS = {
    "AuditReport": ["mode", "n", "constants", "normalization", "solutions",
                    "diverging_trend_ok", "certified_pairs", "total_pairs", "ok"],
    "SolutionAudit": ["d", "k", "counts", "min_index_gap", "min_diverging_gap", "aligned",
                      "near", "protected", "w_vertex_gap_ok", "contradiction", "total_pairs"],
    "ExclusionReason": ["kind", "case", "i", "j", "numbers"],
    "DerivedConstants": ["r_star", "C1", "C2", "c1", "c2", "xi", "C", "C_raw", "levels"],
    "SystemOrbit": ["period", "profile", "hyperbolic", "locally_maximal"],
    "SearchResult": ["solutions", "horizon_exhausted", "scanned_up_to"],
    "RecurrenceSolution": ["d", "k", "eta", "ell0", "certificate"],
    "Certificate": ["ok", "records"],
    "ConditionRecord": ["name", "ok", "detail"],
    "ConvexityReport": ["ok", "witnesses", "weak_ok", "weak_witnesses", "min_mu_minus"],
    "WilliamsonInvariants": ["nu0", "b0", "b_plus", "b_minus", "nu_g", "nu_a", "m"],
    "TraceReport": ["max_principle_ok", "monotonicity_ok", "average_inequality_ok",
                    "time_below_ok", "details", "ok"],
    "QuadraticProfile": ["family", "slope", "r_max", "c0"],
    "CubicProfile": ["family", "slope", "r_max", "c0", "theta"],
    "ExpProfile": ["family", "slope", "r_max", "c0", "beta"],
    "SplineProfile": ["family", "slope", "r_max", "c0", "knots"],
}


def test_named_tuple_semantics():
    # records and validating types are named tuples; what a plain tuple
    # would change is pinned here
    cubic = build_profile("cubic", slope=5.0, r_max=2.0, theta=0.5)
    exp = build_profile("exp", slope=5.0, r_max=2.0, beta=0.5)
    assert tuple(cubic) == tuple(exp) and cubic != exp and not cubic == exp
    assert cubic != (5.0, 2.0, 0.0, 0.5)
    twin = build_profile("cubic", slope=5.0, r_max=2.0, theta=0.5)
    assert cubic == twin and not cubic != twin and hash(cubic) == hash(twin)
    assert IterationProfile.from_json({}) == IterationProfile()

    profiles = (IterationProfile(loop_index=2, elliptic=(0.3,)),)
    s = RecurrenceSolution(d=6, k=(3,), eta=0.1, ell0=2, profiles=profiles)
    t = s._replace(profiles=(IterationProfile(loop_index=4),))
    assert s == t and not s != t and hash(s) == hash(t) and repr(s) == repr(t)
    assert "profiles" not in repr(s) and s != s._replace(d=7)

    reason = audit_module.ExclusionReason(kind="same-pair", case=CASE_SAME, i=0, j=1)
    assert reason.numbers == {} and reason.numbers is not audit_module.ExclusionReason(
        kind="same-pair", case=CASE_SAME, i=0, j=1).numbers
    system = sqrt2_system()
    for obj, name in ((cubic, "theta"), (cubic, "h_triple_nonneg_up_to"), (reason, "i"),
                      (system, "eta"), (system, "derived"), (profiles[0], "elliptic")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    # _replace builds through the checks of a validating type
    with pytest.raises(InvalidParameter, match="theta"):
        cubic._replace(theta=2.0)

    for x in _encoded_instances():
        assert list(x.to_json()) == _JSON_KEYS[type(x).__name__]


def flagship_solutions(system, count):
    return recurrence_search(RecurrenceQuery(
        profiles=tuple(o.profile for o in system.orbits), eta=system.eta,
        ell0=system.ell0, k_bound=10 ** 6, count=count)).solutions


def swapped(system_factory):
    """The system with its companions in reverse order (a no-op for the
    golden system, which has one companion)."""
    orbits = system_factory().orbits
    return system_factory(orbits=(orbits[0], *orbits[:0:-1]))


def unverified(solution, d, k):
    return RecurrenceSolution(d=d, k=tuple(k), eta=solution.eta, ell0=solution.ell0,
                              profiles=solution.profiles)


def audit_solution(system, solution):
    """_audit_solution on the index tables of this one solution."""
    return _audit_solution(system, solution, _index_tables(system, [solution]))


def outcome(sweep, system, solution):
    """The report of one solution, or the error, message and context it fails
    with."""
    try:
        return sweep(system, solution).to_json()
    except NotExcluded as exc:
        return {"error": "NotExcluded", "failed": str(exc), "context": exc.context}
    except SupportOutOfRange as exc:
        return {"error": "SupportOutOfRange", "failed": str(exc)}


def banded_sqrt2_system():
    """The sqrt(2) system whose second companion has rotation number
    140/99 - 0.75e-9/99, so that its iterate 99 sits inside the guard band."""
    system = sqrt2_system()
    return sqrt2_system(orbits=(*system.orbits[:2], SystemOrbit(
        period=system.orbits[2].period,
        profile=IterationProfile(loop_index=2, elliptic=(140 / 99 - 0.75e-9 / 99,)))))


def degenerate_system():
    """The sqrt(2) system with one companion of rotation number 1/2, whose
    even iterates are degenerate: nu_a enters the near recurrence ceilings."""
    companion = SystemOrbit(period=3.1, profile=IterationProfile(
        loop_index=2, elliptic=(Fraction(1, 2),)))
    return sqrt2_system(orbits=(sqrt2_system().orbits[0], companion))


class TestArraySweep:
    """_audit_solution against the pair-by-pair sweep it replaced."""

    @FLAGSHIPS
    @pytest.mark.parametrize("swap", [False, True])
    def test_reports_equal_the_oracle(self, factory, swap):
        system = swapped(factory) if swap else factory()
        for solution in flagship_solutions(system, 10):
            assert (audit_solution(system, solution).to_json()
                    == scalar_audit_solution(system, solution).to_json())

    def test_degenerate_near_iterates_equal_the_oracle(self):
        # rho = 1/2: the companion's even iterates are degenerate, so nu_a
        # enters the recurrence ceilings of its near pairs
        companion = SystemOrbit(period=3.1, profile=IterationProfile(
            loop_index=2, elliptic=(Fraction(1, 2),)))
        system = sqrt2_system(orbits=(sqrt2_system().orbits[0], companion))
        solutions = flagship_solutions(system, 3)
        for s in solutions:
            assert outcome(audit_solution, system, s) == \
                outcome(scalar_audit_solution, system, s)
        near = [r for s in solutions for r in audit_solution(system, s).near]
        assert any(r.numbers["l"] == -2 for r in near)

    def test_hyperbolic_failure_equals_the_oracle(self):
        system = sqrt2_system()
        fails = []
        for s in flagship_solutions(system, 10):
            fake = unverified(s, s.d, (*s.k[:-1], s.k[-1] + 1))
            got = outcome(audit_solution, system, fake)
            assert got == outcome(scalar_audit_solution, system, fake)
            fails.append(got)
        assert fails[1]["context"]["j"] == 82
        assert fails[1]["context"]["case"] == CASE_NEAR

    def test_far_failure_reported_before_aligned_failure(self):
        # k_1 + 4 moves the aligned pair to j = 62, where the diverging bound
        # fails too, but the far pair j = 58 comes first in (i, j) order
        system = sqrt2_system()
        s = flagship_solutions(system, 1)[0]
        fake = unverified(s, s.d, (s.k[0], s.k[1] + 4, s.k[2]))
        got = outcome(audit_solution, system, fake)
        assert got == outcome(scalar_audit_solution, system, fake)
        assert got["context"]["j"] == 58 and got["context"]["case"] == CASE_FAR

    def test_escape_after_an_earlier_failure_equals_the_oracle(self):
        # 140/99 - 0.75e-9/99 puts iterate 99 of the second companion inside
        # the guard band, where its support escapes.  The second solution
        # reaches j = 99 and fails there; its k[-1] + 1 fake fails first on
        # the near pair j = 82
        system = sqrt2_system()
        companion = system.orbits[2]
        banded = sqrt2_system(orbits=(*system.orbits[:2], SystemOrbit(
            period=companion.period,
            profile=IterationProfile(loop_index=2, elliptic=(140 / 99 - 0.75e-9 / 99,)))))
        got = []
        for s in flagship_solutions(system, 3):
            for sol in (s, unverified(s, s.d, (*s.k[:-1], s.k[-1] + 1))):
                got.append(outcome(audit_solution, banded, sol))
                assert got[-1] == outcome(scalar_audit_solution, banded, sol)
        assert got[2]["error"] == "SupportOutOfRange"
        assert got[2]["failed"].endswith("at k=99")
        assert got[3]["error"] == "NotExcluded" and got[3]["context"]["j"] == 82

    def test_pseudo_rotation_failure_equals_the_oracle(self):
        system = golden_system()
        fails = []
        for s in flagship_solutions(system, 10):
            fake = unverified(s, s.d + 2, s.k)
            got = outcome(audit_solution, system, fake)
            assert got == outcome(scalar_audit_solution, system, fake)
            fails.append(got)
        assert fails[1]["context"]["j"] == 35
        assert "distinguished orbit" in fails[1]["failed"]

    @pytest.mark.parametrize("factory, solved, errors", [
        (sqrt2_system, sqrt2_system, {"NotExcluded"}),
        (golden_system, golden_system, {"NotExcluded"}),
        (lambda: swapped(sqrt2_system), lambda: swapped(sqrt2_system), {"NotExcluded"}),
        (degenerate_system, degenerate_system, {"NotExcluded"}),
        (banded_sqrt2_system, sqrt2_system, {"NotExcluded", "SupportOutOfRange"}),
    ], ids=["sqrt2", "golden", "sqrt2_swapped", "degenerate", "banded"])
    def test_every_pool_equals_the_oracle(self, factory, solved, errors):
        # each system's solutions, their k[-1] + 1 fakes and their d + 2
        # fakes; the banded system runs on the solutions of the sqrt(2) system
        system = factory()
        reached = set()
        for s in flagship_solutions(solved(), 3):
            for sol in (s, unverified(s, s.d, (*s.k[:-1], s.k[-1] + 1)),
                        unverified(s, s.d + 2, s.k)):
                got = outcome(audit_solution, system, sol)
                assert got == outcome(scalar_audit_solution, system, sol)
                reached.add(got.get("error", "report"))
        assert reached == errors | {"report"}


def test_banded_escape_is_read_from_the_tables(monkeypatch):
    # the escape at k = 99 is the one support_interval raises, and it is read
    # from the audit's one index table per orbit, not from another index call
    system = banded_sqrt2_system()
    with pytest.raises(SupportOutOfRange) as expected:
        support_interval(system.orbits[2].profile, 99, system.n)
    called = []

    def counted(profile, k):
        called.append(profile)
        return index_triple(profile, k)
    monkeypatch.setattr(audit_module, "index_triple", counted)
    monkeypatch.setattr(indices_module, "index_triple", counted)
    with pytest.raises(SupportOutOfRange) as got:
        audit(system, count=3)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("support [477, 480] escapes")
    assert called == [o.profile for o in system.orbits]


def tight_system():
    """A hyperbolic system whose one companion, of rotation number sqrt 2 - 1,
    has its resonant level 0.1% below the slope: each aligned iterate k_1
    is the companion's last j, so k_1 + ell0 sizes its index table.  Its
    supplied orders pass R1 where k_1 (sqrt 2 - 1) lies just below an
    integer, and R2 fails there."""
    rho = math.sqrt(2.0) - 1.0
    companion = SystemOrbit(period=(2.0 + 2.0 * rho) * 5.0 / 3.0 * (1.0 - 1e-3),
                            profile=IterationProfile(loop_index=2, elliptic=(rho,)))
    return sqrt2_system(orbits=(sqrt2_system().orbits[0], companion))


@functools.lru_cache(maxsize=None)
def supplied_pool(name):
    """(system, solutions) to supply to audit: found ones; fakes that fail
    R1 (d + 2), that have an order k_i <= ell0, or one order too few; and,
    for the tight system, orders that pass R1 and fail R2-R3."""
    system = {"sqrt2": sqrt2_system, "golden": golden_system, "tight": tight_system,
              "degenerate": degenerate_system, "banded": banded_sqrt2_system}[name]()
    # the banded system is supplied the solutions of the sqrt(2) system
    found = flagship_solutions(sqrt2_system() if name == "banded" else system, 3)
    s = found[0]
    pool = [*found, unverified(s, s.d + 2, s.k), unverified(s, s.d, (s.k[0], 3, *s.k[2:])),
            unverified(s, s.d, s.k[:-1])]
    if name == "tight":
        pool += [unverified(s, d, k) for d, k in ((51, (17, 18)), (99, (33, 35)))]
    return system, tuple(pool)


def supplied_outcome(run, system, solutions):
    """The solutions' reports of run(system, solutions), or the error, message
    and first failure's context it raises."""
    try:
        return run(system, solutions)
    except AuditFailed as exc:
        first = exc.first_failure
        return {"error": "AuditFailed", "failed": str(exc),
                "context": None if first is None else first.context}
    except (InvalidParameter, SupportOutOfRange) as exc:
        return {"error": type(exc).__name__, "failed": str(exc)}


def tabled_audit(system, solutions):
    return audit(system, solutions=solutions).to_json()["solutions"]


def scalar_audit(system, solutions):
    """audit(system, solutions=solutions) from its parts before the index
    tables: each solution's certificate from verify_recurrence at the
    system's eta and ell0 (an order k_i <= ell0 fails R1).  The first
    solution, in order, that fails R1 is reported, else the first that
    fails R2-R3; then every pair is certified by scalar_audit_solution."""
    profiles = [o.profile for o in system.orbits]

    def unverified(s):
        return AuditFailed(f"supplied solution d={s.d} fails verification at "
                           f"eta={system.eta}, ell0={system.ell0}")

    certificates = []
    for s in solutions:
        try:
            cert = verify_recurrence(profiles, s.d, s.k, system.eta, system.ell0)
        except IterateUnderflow:
            raise unverified(s) from None
        if not all(r.ok for r in cert.records if r.name.startswith("R1[")):
            raise unverified(s)
        certificates.append(cert)
    for s, cert in zip(solutions, certificates):
        if not cert.ok:
            raise unverified(s)
    try:
        return [scalar_audit_solution(system, s).to_json() for s in solutions]
    except NotExcluded as exc:
        raise AuditFailed(str(exc), first_failure=exc) from exc


@st.composite
def supplied(draw):
    system, pool = supplied_pool(draw(st.sampled_from(
        ["sqrt2", "golden", "tight", "degenerate", "banded"])))
    return system, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


class TestIndexTables:
    """audit(system, solutions=...) reads every index from one table per
    orbit: its reports and errors are those of the pair-by-pair oracle
    after the table-free R1-R3 check."""

    @settings(max_examples=60, deadline=None)
    @given(supplied())
    def test_supplied_audit_equals_the_oracle(self, case):
        system, solutions = case
        assert (supplied_outcome(tabled_audit, system, solutions)
                == supplied_outcome(scalar_audit, system, solutions))

    @pytest.mark.parametrize("name, error", [
        ("sqrt2", None), ("golden", None), ("degenerate", None),
        ("tight", None), ("banded", "SupportOutOfRange")])
    def test_every_pool_reaches_its_outcomes(self, name, error):
        # the pools hold what the differential test needs: several passing
        # solutions, each kind of rejected one, and the failures they reach
        system, pool = supplied_pool(name)
        found, r1, short, few = pool[:3], pool[3], pool[4], pool[5]
        outcome = supplied_outcome(tabled_audit, system, list(found))
        assert (outcome.get("error") if isinstance(outcome, dict) else None) == error
        for fake in (r1, short):
            assert supplied_outcome(tabled_audit, system, [fake])["error"] == "AuditFailed"
        assert supplied_outcome(tabled_audit, system, [few])["error"] == "InvalidParameter"
        if name == "tight":
            # k_1 + ell0 beyond the companion's j_range, and R1 without R2-R3
            assert all(s.k[1] + system.ell0 > j_range(system, s, 1) for s in found)
            for fake in pool[6:]:
                assert verify_recurrence([o.profile for o in system.orbits], fake.d, fake.k,
                                         system.eta, system.ell0).records[0].ok
                assert supplied_outcome(tabled_audit, system, [fake])["error"] == "AuditFailed"

    @pytest.mark.parametrize("factory, count", [
        (sqrt2_system, 1), (sqrt2_system, 3), (golden_system, 1), (golden_system, 3),
        (tight_system, 2)])
    def test_one_index_triple_call_per_orbit(self, monkeypatch, factory, count):
        system = factory()
        solutions = flagship_solutions(system, count)
        calls = []

        def counted(profile, k):
            calls.append(profile)
            return index_triple(profile, k)

        for module in (audit_module, recurrence_module, indices_module):
            monkeypatch.setattr(module, "index_triple", counted)
        report = audit(system, solutions=solutions)
        assert report.ok and len(report.solutions) == count
        assert calls == [o.profile for o in system.orbits]

    def test_a_solution_that_fails_r1_builds_no_table(self, monkeypatch):
        system = sqrt2_system()
        s = flagship_solutions(system, 1)[0]

        def refuse(profile, k):
            raise AssertionError("an index table was built")

        for module in (audit_module, recurrence_module, indices_module):
            monkeypatch.setattr(module, "index_triple", refuse)
        # k_0 = 10^12 at the same d fails R1, and so does d + 2: each is
        # rejected before any index is computed
        for fake in (unverified(s, s.d, (10 ** 12, *s.k[1:])), unverified(s, s.d + 2, s.k)):
            with pytest.raises(AuditFailed,
                               match=f"^supplied solution d={fake.d} fails verification"):
                audit(system, solutions=[fake])

    def test_the_first_failing_solution_is_reported(self):
        # the checks made before any index come first, in order: an R1
        # failure is reported before an R2 failure ahead of it, an order
        # too few behind an R1 failure is not reached, and the first of
        # two R2 failures is reported
        system, pool = supplied_pool("tight")
        found, r1, few, r2, r2_later = pool[0], pool[3], pool[5], pool[6], pool[7]
        for solutions, d in (([found, r2, r1], r1.d), ([r2_later, found, r2], r2_later.d),
                             ([r1, few], r1.d), ([r2, found], r2.d)):
            with pytest.raises(AuditFailed, match=f"^supplied solution d={d} fails"):
                audit(system, solutions=solutions)
        for solutions in ([found, few, r1], [r2, few]):
            with pytest.raises(InvalidParameter, match="1 iteration orders for 2 profiles"):
                audit(system, solutions=solutions)


class TestJRange:
    """j_range is the floor of the exact quotient k * slope / T'_i."""

    @staticmethod
    def j_range_at(k, slope, period):
        system = SimpleNamespace(hamiltonian=SimpleNamespace(slope=slope),
                                 norm_periods=(period,))
        return j_range(system, SimpleNamespace(k=(k,)), 0)

    @pytest.mark.parametrize("k, slope, m", [
        (800877, 5.0, 1069838), (467024, 7.5, 479750), (984771, 2.964285714285714, 2879322)])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_an_integer_plus_or_minus_one_ulp(self, k, slope, m, ulps):
        # the period k slope / m as a float, and one ulp either side: the
        # quotient lies within about an ulp of the integer m.  At the float
        # period it rounds up to m, while the exact quotient lies below m
        period = k * slope / m
        if ulps:
            period = math.nextafter(period, math.inf if ulps > 0 else 0.0)
        exact = math.floor(Fraction(k) * Fraction(slope) / Fraction(period))
        assert self.j_range_at(k, slope, period) == exact
        if not ulps:
            assert math.floor(k * slope / period) == m == exact + 1

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 10 ** 12), m=st.integers(1, 10 ** 12),
           slope=st.sampled_from([5.0, 6.0, 7.5, 2.964285714285714, 0.1]),
           ulps=st.integers(-3, 3))
    def test_is_the_fraction_floor(self, k, m, slope, ulps):
        period = k * slope / m
        for _ in range(abs(ulps)):
            period = math.nextafter(period, math.inf if ulps > 0 else 0.0)
        assert self.j_range_at(k, slope, period) == math.floor(
            Fraction(k) * Fraction(slope) / Fraction(period))


class TestMalformedSystem:
    @pytest.mark.parametrize("edit", [
        lambda b: b.pop("n"),
        lambda b: b.pop("orbits"),
        lambda b: b.pop("hamiltonian"),
        lambda b: b.pop("constants"),
        lambda b: b["constants"].pop("sigma"),
        lambda b: b["constants"].pop("eta"),
        lambda b: b["constants"].pop("ell0"),
        lambda b: b["constants"].pop("cbar"),
        lambda b: b["orbits"][1].pop("period"),
        lambda b: b["orbits"][1].pop("profile"),
        lambda b: b["hamiltonian"].pop("family"),
        lambda b: b.update(n="2"),
        lambda b: b.update(n=2.5),
        lambda b: b.update(orbits={"period": 3.0}),
        lambda b: b.update(orbits=[3.0]),
        lambda b: b["constants"].update(sigma=[0.6]),
        lambda b: b["constants"].update(ell0=True),
        lambda b: b["constants"].update(b="high"),
        lambda b: b["orbits"][0].update(period="3"),
        lambda b: b["orbits"][0].update(profile=[3]),
        lambda b: b["orbits"][0]["profile"].update(hyperbolic=3),
        lambda b: b["hamiltonian"].update(slope=None),
        # flags are JSON booleans, not truthy values
        lambda b: b["orbits"][0].update(hyperbolic="no"),
        lambda b: b["orbits"][0].update(hyperbolic=1),
        lambda b: b["orbits"][1].update(locally_maximal=None),
        # every object is closed, as "additionalProperties": false says
        lambda b: b.update(modes="hyperbolic"),
        lambda b: b["constants"].update(B=4.0),
        lambda b: b["orbits"][1].update(hyperbolicity=True),
        lambda b: b["orbits"][1]["profile"].update(loopindex=2),
        lambda b: b["hamiltonian"].update(theta=0.5),
        lambda b: b["hamiltonian"].update(slope=True),
    ])
    def test_typed_error(self, edit):
        blob = sqrt2_system().to_json()
        edit(blob)
        with pytest.raises(MalformedInput):
            OrbitSystem.from_json(blob)

    def test_integral_float_accepted_as_int(self):
        blob = sqrt2_system().to_json()
        blob["n"] = 2.0
        assert OrbitSystem.from_json(blob).n == 2
