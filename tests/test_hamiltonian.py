import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_lab import hamiltonian
from reeb_lab.cli import _load_csv
from reeb_lab.errors import (
    ActionOutOfRange,
    BadGeometry,
    ConvexityViolation,
    InvalidParameter,
    JoinDiscontinuity,
    MalformedTrace,
    NotDominated,
    PeriodOutOfRange,
    ReebLabError,
    SandwichViolated,
    SlopeMismatch,
    UncertifiedRegion,
    WrongType,
)
from reeb_lab.hamiltonian import (
    CylinderTrace,
    ExpProfile,
    SplineProfile,
    _bisect,
    _pow,
    action_from_period,
    action_inverse,
    action_tables,
    build_profile,
    check_action_ratio_monotone,
    check_cylinder_trace,
    compare_action_functions,
    homotopy_action_derivative,
    profile_from_json,
    spline_slope,
    transfer_map,
)

from _oracles import (
    finite_difference,
    scalar_action_inverse,
    scalar_bisect,
    scalar_spline_dh_inv,
)

FAMILIES = [
    ("quadratic", {}),
    ("cubic", {"theta": 0.6}),
    ("exp", {"beta": 1.5}),
]


def make(family="quadratic", slope=5.0, r_max=2.0, c0=0.0, **params):
    return build_profile(family, slope=slope, r_max=r_max, c0=c0, **params)


class TestBuild:
    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_families_accepted(self, family, params):
        p = make(family, **params)
        assert p.c >= p.slope                       # max action at least the slope
        assert p.h_triple_nonneg_up_to == p.r_max   # closed forms certify everywhere
        assert float(p.dh(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(p.dh(p.r_max)) == pytest.approx(p.slope, rel=1e-12)

    def test_quadratic_closed_form(self):
        p = make("quadratic", slope=4.0, r_max=3.0)
        # c = a (r_max + 1) / 2 for the quadratic family
        assert p.c == pytest.approx(4.0 * (3.0 + 1.0) / 2.0)

    @pytest.mark.parametrize("family, slope, r_max, c0", [
        ("quadratic", 3e7, 2.0, 0.0),
        ("quadratic", 5.0, 1e8, 0.0),
        ("quadratic", 5.0, 2.0, -1e9),
        ("cubic", 3e7, 2.0, 0.0),
        ("exp", 3e7, 2.0, 0.0),
    ])
    def test_large_scales_build(self, family, slope, r_max, c0):
        # c = r_max a - h(r_max), with the shell piece h(r_max) - c0 in closed
        # form at the default theta = 0.5 and beta = 2
        p = make(family, slope=slope, r_max=r_max, c0=c0)
        w = r_max - 1.0
        shell = {"quadratic": lambda: slope * w / 2.0,
                 "cubic": lambda: slope * w * (0.5 / 2.0 + 0.5 / 3.0),
                 "exp": lambda: slope * (math.expm1(2.0 * w) / 2.0 - w) / math.expm1(2.0 * w),
                 }[family]()
        assert p.c == pytest.approx(r_max * slope - c0 - shell, rel=1e-12)

    @pytest.mark.parametrize("slope, beta, r_max", [(5.0, 708.0, 2.0), (5.0, 709.0, 2.0),
                                                     (1e300, 300.0, 3.0)])
    def test_exp_pieces_that_overflow_rejected(self, slope, beta, r_max):
        with pytest.raises(InvalidParameter, match="overflows"):
            make("exp", slope=slope, r_max=r_max, beta=beta)

    @pytest.mark.parametrize("slope", [0.0, -5.0])
    def test_exp_bound_takes_no_log_of_a_nonpositive_slope(self, slope):
        # the slope is checked before the overflow bound takes its log
        with pytest.raises(SlopeMismatch) as err:
            ExpProfile(slope=slope, r_max=2.0, beta=2.0)
        assert str(err.value) == f"slope must be positive and finite, got {slope}"

    def test_spline_roundtrip_and_certified_region(self):
        knots = (0.5, 1.0, 2.0, 1.5)   # h''' flips sign on the last piece
        slope = spline_slope(knots, r_max=2.0)
        p = make("spline", slope=slope, r_max=2.0, knots=knots)
        assert p.h_triple_nonneg_up_to == pytest.approx(1.0 + 2.0 / 3.0)

    def test_convexity_violation_located(self):
        knots = (1.0, -0.5, 1.0)
        with pytest.raises(ConvexityViolation) as err:
            make("spline", slope=spline_slope(knots, 2.0), r_max=2.0, knots=knots)
        assert 1.0 < err.value.r < 2.0

    def test_certified_on_the_fixed_grid(self):
        # convexity is read from the knots, with no grid for a caller to
        # coarsen: the negative inner knot is named at its own level
        knots = (1.0, -0.5, 1.0)
        args = dict(slope=spline_slope(knots, 2.0), r_max=2.0, knots=knots)
        with pytest.raises(TypeError):
            build_profile("spline", grid=2, **args)
        with pytest.raises(ConvexityViolation, match=r"^h''\(1.5\) = -5.000e-01 < 0$"):
            build_profile("spline", **args)

    def test_convexity_violation_of_a_zero_h2_is_not_negative(self):
        # h'' underflows to 0 at r = 1, the least value of a closed form's
        # nondecreasing h'', on a very long shell
        with pytest.raises(ConvexityViolation,
                           match=r"^h''\(1\) = 0.000e\+00 is not positive$"):
            make("exp", beta=1e-28, slope=5.0, r_max=7e30)

    def test_falling_h1_between_grid_points_reported_as_h1(self):
        # knots twice as dense as the old 4096-point certification grid: h''
        # was 1 at every grid point and dips to -1000 at one knot between two
        # of them; the knot itself is reported
        knots = [1.0] * 8191
        knots[201] = -1000.0
        with pytest.raises(ConvexityViolation,
                           match=r"^h''\(1.02454\) = -1.000e\+03 < 0$"):
            make("spline", slope=spline_slope(knots, 2.0), r_max=2.0, knots=tuple(knots))

    @pytest.mark.parametrize("knots, message", [
        ((-1.0, 1.0, 3.0), r"^h''\(1\) = -1.000e\+00 < 0$"),
        ((1.0, 0.0, 1.0), r"^h''\(1.5\) = 0.000e\+00 is not positive$"),
        ((1.0, 2.0, -0.5), r"^h''\(2\) = -5.000e-01 < 0$"),
        # the first offending knot in r order, not the most negative
        ((1.0, 0.0, -0.5, 3.0), r"^h''\(1.33333\) = 0.000e\+00 is not positive$"),
    ])
    def test_knots_decide_convexity(self, knots, message):
        with pytest.raises(ConvexityViolation, match=message):
            make("spline", slope=spline_slope(knots, 2.0), r_max=2.0, knots=knots)

    @pytest.mark.parametrize("knots", [(0.0, 1.0), (1.0, 0.0), (0.0, 2.0, 0.0)])
    def test_end_knots_of_zero_build(self, knots):
        # h'' > 0 is asked of the open shell only
        p = make("spline", slope=spline_slope(knots, 2.0), r_max=2.0, knots=knots)
        assert p.d2h_shell(1.0) == knots[0] and p.d2h_shell(2.0) == knots[-1]

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                         min_size=2, max_size=2).filter(any),
           inner=st.lists(st.floats(1e-3, 1e3), max_size=38),
           r_max=st.floats(1.001, 50.0))
    def test_spline_slope_is_the_built_h1_at_r_max(self, ends, inner, r_max):
        # one integration of h'' for both, summed in knot order: Python's
        # sum() of floats rounds differently from 3.12 on.  The knots are
        # those of a convex spline: inner knots > 0, end knots >= 0
        knots = [ends[0], *inner, ends[1]]
        slope = spline_slope(knots, r_max)
        assert SplineProfile(slope=slope, r_max=r_max, knots=tuple(knots))._dh_knots[-1] == slope
        dx, sequential = (r_max - 1.0) / (len(knots) - 1), 0.0
        for a, b in zip(knots, knots[1:]):
            sequential = sequential + 0.5 * (a + b) * dx
        assert sequential == slope

    def test_spline_slope_mismatch(self):
        # knots integrate to slope 1, not the declared 2
        with pytest.raises(SlopeMismatch):
            make("spline", slope=2.0, r_max=2.0, knots=(1.0, 1.0))

    @pytest.mark.parametrize("family, args, error", [
        ("quadratic", {"slope": math.nan}, SlopeMismatch),
        ("quadratic", {"slope": math.inf}, SlopeMismatch),
        ("quadratic", {"r_max": math.nan}, BadGeometry),
        ("quadratic", {"c0": math.nan}, JoinDiscontinuity),
        ("spline", {"slope": 1.5, "knots": (math.nan, 1.0)}, SlopeMismatch),
        ("exp", {"beta": math.nan}, InvalidParameter),
        ("exp", {"beta": math.inf}, InvalidParameter),
    ])
    def test_nan_parameters_rejected(self, family, args, error):
        with pytest.raises(error):
            make(family, **args)

    def test_json_roundtrip(self):
        for family, params in FAMILIES:
            p = make(family, **params)
            q = profile_from_json(p.to_json())
            rs = np.linspace(1.0, p.r_max, 17)
            assert np.allclose(p.h(rs), q.h(rs))


# a valid profile of each family, whose fields the rows below override
VALID_ARGS = {
    "quadratic": {"slope": 5.0, "r_max": 2.0},
    "cubic": {"slope": 5.0, "r_max": 2.0, "theta": 0.5},
    "exp": {"slope": 5.0, "r_max": 2.0, "beta": 2.0},
    "spline": {"slope": 2.0, "r_max": 2.0, "knots": (1.0, 2.0, 3.0)},
}

# build_profile's refusals, one row per check and then rows with several
# faults, where the first check in order names its own: slope, r_max, c0,
# the family's parameters, convexity.  The joins at r = 1 and r_max are
# checked too, but no profile that passes the checks before them misses a
# join, so they have no row
INVALID_PROFILES = [
    ("quadratic", {"slope": 0.0}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("quadratic", {"slope": -1.0}, SlopeMismatch,
     "slope must be positive and finite, got -1.0"),
    ("quadratic", {"slope": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("quadratic", {"slope": math.inf}, SlopeMismatch,
     "slope must be positive and finite, got inf"),
    ("quadratic", {"r_max": 1.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 1.0"),
    ("quadratic", {"r_max": 0.5}, BadGeometry,
     "r_max must be finite and exceed 1, got 0.5"),
    ("quadratic", {"r_max": math.nan}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("quadratic", {"r_max": math.inf}, BadGeometry,
     "r_max must be finite and exceed 1, got inf"),
    ("quadratic", {"c0": 0.5}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("quadratic", {"c0": math.nan}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got nan"),
    ("quadratic", {"c0": -math.inf}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got -inf"),
    ("cubic", {"slope": 0.0}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("cubic", {"slope": -1.0}, SlopeMismatch,
     "slope must be positive and finite, got -1.0"),
    ("cubic", {"slope": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("cubic", {"slope": math.inf}, SlopeMismatch,
     "slope must be positive and finite, got inf"),
    ("cubic", {"r_max": 1.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 1.0"),
    ("cubic", {"r_max": 0.5}, BadGeometry,
     "r_max must be finite and exceed 1, got 0.5"),
    ("cubic", {"r_max": math.nan}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("cubic", {"r_max": math.inf}, BadGeometry,
     "r_max must be finite and exceed 1, got inf"),
    ("cubic", {"c0": 0.5}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("cubic", {"c0": math.nan}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got nan"),
    ("cubic", {"c0": -math.inf}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got -inf"),
    ("exp", {"slope": 0.0}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("exp", {"slope": -1.0}, SlopeMismatch,
     "slope must be positive and finite, got -1.0"),
    ("exp", {"slope": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("exp", {"slope": math.inf}, SlopeMismatch,
     "slope must be positive and finite, got inf"),
    ("exp", {"r_max": 1.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 1.0"),
    ("exp", {"r_max": 0.5}, BadGeometry,
     "r_max must be finite and exceed 1, got 0.5"),
    ("exp", {"r_max": math.nan}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("exp", {"r_max": math.inf}, BadGeometry,
     "r_max must be finite and exceed 1, got inf"),
    ("exp", {"c0": 0.5}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("exp", {"c0": math.nan}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got nan"),
    ("exp", {"c0": -math.inf}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got -inf"),
    ("spline", {"slope": 0.0}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("spline", {"slope": -1.0}, SlopeMismatch,
     "slope must be positive and finite, got -1.0"),
    ("spline", {"slope": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("spline", {"slope": math.inf}, SlopeMismatch,
     "slope must be positive and finite, got inf"),
    ("spline", {"r_max": 1.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 1.0"),
    ("spline", {"r_max": 0.5}, BadGeometry,
     "r_max must be finite and exceed 1, got 0.5"),
    ("spline", {"r_max": math.nan}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("spline", {"r_max": math.inf}, BadGeometry,
     "r_max must be finite and exceed 1, got inf"),
    ("spline", {"c0": 0.5}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("spline", {"c0": math.nan}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got nan"),
    ("spline", {"c0": -math.inf}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got -inf"),
    ("cubic", {"theta": 0.0}, InvalidParameter,
     "theta must be in (0, 1), got 0.0"),
    ("cubic", {"theta": 1.0}, InvalidParameter,
     "theta must be in (0, 1), got 1.0"),
    ("cubic", {"theta": -0.5}, InvalidParameter,
     "theta must be in (0, 1), got -0.5"),
    ("cubic", {"theta": 2.0}, InvalidParameter,
     "theta must be in (0, 1), got 2.0"),
    ("cubic", {"theta": math.nan}, InvalidParameter,
     "theta must be in (0, 1), got nan"),
    ("exp", {"beta": 0.0}, InvalidParameter,
     "beta must be positive and finite, got 0.0"),
    ("exp", {"beta": -1.0}, InvalidParameter,
     "beta must be positive and finite, got -1.0"),
    ("exp", {"beta": math.nan}, InvalidParameter,
     "beta must be positive and finite, got nan"),
    ("exp", {"beta": math.inf}, InvalidParameter,
     "beta must be positive and finite, got inf"),
    ("exp", {"beta": 709.0}, InvalidParameter,
     "slope * max(1, beta) * e^(beta * (r_max - 1)) overflows at slope = 5.0, beta = 709.0"),
    ("exp", {"slope": 1e+300, "r_max": 3.0, "beta": 300.0}, InvalidParameter,
     "slope * max(1, beta) * e^(beta * (r_max - 1)) overflows at slope = 1e+300, beta = 300.0"),
    ("exp", {"r_max": 7e+30, "beta": 1e-28}, ConvexityViolation,
     "h''(1) = 0.000e+00 is not positive"),
    ("spline", {"knots": ()}, InvalidParameter,
     "a spline needs at least 2 knots, got 0"),
    ("spline", {"knots": (1.0,)}, InvalidParameter,
     "a spline needs at least 2 knots, got 1"),
    ("spline", {"slope": 3.0}, SlopeMismatch,
     "knots integrate to slope 2, profile declares 3"),
    ("spline", {"knots": (math.nan, 1.0), "slope": 1.5}, SlopeMismatch,
     "knots integrate to slope nan, profile declares 1.5"),
    ("spline", {"knots": (1.0, -0.5, 1.0), "slope": 0.25}, ConvexityViolation,
     "h''(1.5) = -5.000e-01 < 0"),
    ("spline", {"knots": (2.0, -3.0, 10.0), "slope": 1.5}, ConvexityViolation,
     "h''(1.5) = -3.000e+00 < 0"),
    ("spline", {"knots": (1.0, 0.0, 1.0), "slope": 0.5}, ConvexityViolation,
     "h''(1.5) = 0.000e+00 is not positive"),
    ("spline", {"knots": (-1.0, 1.0, 3.0), "slope": 1.0}, ConvexityViolation,
     "h''(1) = -1.000e+00 < 0"),
    ("spline", {"knots": (1.0, 2.0, -0.5), "slope": 1.125}, ConvexityViolation,
     "h''(2) = -5.000e-01 < 0"),
    ("spline", {"r_max": math.nan, "knots": (1.0,)}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("spline", {"slope": -1.0, "knots": ()}, SlopeMismatch,
     "slope must be positive and finite, got -1.0"),
    ("spline", {"c0": math.nan, "knots": (1.0,)}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got nan"),
    ("spline", {"slope": 5.0, "knots": (1.0, -0.5, 1.0)}, SlopeMismatch,
     "knots integrate to slope 0.25, profile declares 5"),
    ("cubic", {"slope": math.nan, "theta": 2.0}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("cubic", {"r_max": 1.0, "theta": 0.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 1.0"),
    ("cubic", {"c0": 1.0, "theta": math.nan}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 1.0"),
    ("exp", {"slope": 0.0, "beta": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("exp", {"slope": -5.0, "beta": 709.0}, SlopeMismatch,
     "slope must be positive and finite, got -5.0"),
    ("exp", {"r_max": math.nan, "beta": -1.0}, BadGeometry,
     "r_max must be finite and exceed 1, got nan"),
    ("exp", {"c0": 0.5, "beta": 709.0}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("quadratic", {"slope": math.nan, "r_max": math.nan, "c0": math.nan}, SlopeMismatch,
     "slope must be positive and finite, got nan"),
    ("quadratic", {"r_max": 0.5, "c0": 2.0}, BadGeometry,
     "r_max must be finite and exceed 1, got 0.5"),
    ("cubicc", {"slope": math.nan}, InvalidParameter,
     "unknown profile family 'cubicc'"),
    # knots that are not reals, refused as they are converted, before any
    # other check
    ("spline", {"knots": 5}, WrongType,
     "knots must be a sequence of reals, got 5"),
    ("spline", {"knots": ("a", 1.0)}, WrongType,
     "knots must be a sequence of reals, got ('a', 1.0)"),
    ("spline", {"knots": (None, 1.0), "slope": math.nan}, WrongType,
     "knots must be a sequence of reals, got (None, 1.0)"),
    # text is no sequence of reals, though float() would parse it and a str
    # iterates by character
    ("spline", {"knots": "12"}, WrongType,
     "knots must be a sequence of reals, got '12'"),
    ("spline", {"knots": ("1", b"2")}, WrongType,
     "knots must be a sequence of reals, got ('1', b'2')"),
    ("spline", {"knots": b"123", "slope": math.nan}, WrongType,
     "knots must be a sequence of reals, got b'123'"),
    # a field that is no real number is refused at its own check, in order
    ("quadratic", {"slope": "5"}, WrongType, "slope must be a real number, got '5'"),
    ("quadratic", {"r_max": None}, WrongType, "r_max must be a real number, got None"),
    ("quadratic", {"c0": 1j}, WrongType, "c0 must be a real number, got 1j"),
    ("quadratic", {"slope": 0.0, "r_max": "2"}, SlopeMismatch,
     "slope must be positive and finite, got 0.0"),
    ("cubic", {"theta": "0.5"}, WrongType, "theta must be a real number, got '0.5'"),
    ("cubic", {"c0": 0.5, "theta": None}, JoinDiscontinuity,
     "constant piece must be finite and <= 0, got 0.5"),
    ("exp", {"beta": None}, WrongType, "beta must be a real number, got None"),
    # a real that overflows a float is refused at its own check, before the
    # convexity checks or float() raise a bare OverflowError
    ("quadratic", {"slope": 10 ** 400}, InvalidParameter, "slope is too large for a float"),
    ("spline", {"knots": (1.0, 10 ** 400)}, InvalidParameter, "knots is too large for a float"),
]


@pytest.mark.parametrize("family, params", [
    ("quadratic", {"slope": np.float32(5), "r_max": Fraction(2), "c0": np.int64(0)}),
    ("cubic", {"slope": Fraction(5), "r_max": np.float64(2), "theta": Fraction(1, 2)}),
    ("exp", {"slope": np.int32(5), "r_max": 2, "c0": False, "beta": True}),
    ("spline", {"slope": True, "r_max": Fraction(3), "knots": (np.float32(0.5), Fraction(1, 2))}),
])
def test_numpy_scalars_fractions_and_bools_build(family, params):
    # the WrongType checks refuse only what cannot be compared
    p = build_profile(family, **params)
    assert tuple(p) == tuple(params.get(key, p._field_defaults.get(key)) for key in p._fields)
    assert p.c == p.action(p.r_max)


@pytest.mark.parametrize("family, args, error, message", INVALID_PROFILES)
def test_build_profile_refusals(family, args, error, message):
    with pytest.raises(error) as err:
        # an unknown family gets the quadratic's valid fields
        build_profile(family, **{**VALID_ARGS.get(family, VALID_ARGS["quadratic"]), **args})
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("family, key, message", [
    ("quadratic", "theta", "the quadratic family takes no keyword 'theta', only slope, r_max, c0"),
    ("cubic", "beta", "the cubic family takes no keyword 'beta', only slope, r_max, c0, theta"),
    ("exp", "knots", "the exp family takes no keyword 'knots', only slope, r_max, c0, beta"),
    ("spline", "grid", "the spline family takes no keyword 'grid', only slope, r_max, c0, knots"),
])
def test_build_profile_names_the_keywords_a_family_takes(family, key, message):
    with pytest.raises(WrongType) as err:
        build_profile(family, **{**VALID_ARGS[family], key: 0.5})
    assert isinstance(err.value, ReebLabError) and isinstance(err.value, TypeError)
    assert str(err.value) == message


@pytest.mark.parametrize("family, args, error, message",
                         [row for row in INVALID_PROFILES if row[0] in VALID_ARGS])
def test_every_construction_refuses_what_build_profile_refuses(family, args, error, message):
    # the family's constructor holds the checks, so a profile built directly
    # or by _replace from a valid one meets them all, in the same order
    valid = build_profile(family, **VALID_ARGS[family])
    cls = type(valid)
    for construct in (lambda: cls(**{**VALID_ARGS[family], **args}),
                      lambda: valid._replace(**args)):
        with pytest.raises(error) as err:
            construct()
        assert type(err.value) is error and str(err.value) == message


def assert_constants_are_their_formulas(p):
    assert p._w.hex() == (p.r_max - 1.0).hex()
    assert float(p._h_w).hex() == float(p._piece_h(p._w)).hex()
    assert p.c.hex() == p.action(p.r_max).hex()
    if p.family == "exp":
        assert p._den.hex() == math.expm1(p.beta * p._w).hex()


@pytest.mark.parametrize("name", ["quadratic", "cubic", "exp", "spline", "spline-nonmonotone"])
def test_each_kept_constant_is_its_formula(name):
    # each profile computes _w, _h_w, c (and an exp's _den) once, when built,
    # by the expression that was evaluated on every call; _replace builds
    # through the constructor, so they follow the fields
    p = array_profile(name)
    assert_constants_are_their_formulas(p)
    if name in SPLINE_KNOTS:
        q = p._replace(r_max=3.0, slope=spline_slope(p.knots, 3.0))
    else:
        q = p._replace(r_max=3.0, c0=-0.5)
    assert_constants_are_their_formulas(q)
    assert q._w != p._w and q._h_w != p._h_w and q.c != p.c
    if name == "exp":
        r = p._replace(beta=0.5)
        assert_constants_are_their_formulas(r)
        assert r._den != p._den
    # h beyond the shell reads _h_w
    assert q.h(4.0) == q.c0 + (q._h_w + q.slope * (4.0 - q.r_max))


# floats where a clamp can go wrong: signed zeros, NaNs of either sign and
# with a payload, infinities, subnormals and the ends of the normal range
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
                     float(np.array(0x7FF8000000000001).view(float))]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def placed(values, n: int, offset: int) -> np.ndarray:
    """values repeated to length n, starting offset elements into a buffer."""
    buffer = np.empty(n + offset)
    buffer[offset:] = np.resize(np.asarray(values, dtype=float), n)
    return buffer[offset:]


# a clamp's bounds in src/ are never NaN: where both are, the two spellings
# return different NaN payloads
EDGE_BOUNDS = EDGE_FLOATS.filter(lambda b: not math.isnan(b))


@settings(max_examples=400, deadline=None)
@given(values=st.lists(EDGE_FLOATS, min_size=1, max_size=24), n=st.integers(0, 300),
       offset=st.integers(0, 2),
       bounds=st.tuples(EDGE_BOUNDS, EDGE_BOUNDS)
       | st.tuples(st.lists(EDGE_BOUNDS, min_size=1, max_size=8),
                   st.lists(EDGE_BOUNDS, min_size=1, max_size=8)))
def test_clamp_spelling_is_np_clip(values, n, offset, bounds):
    # src/ clamps as np.minimum(hi, np.maximum(lo, x)), over lengths and
    # offsets that reach numpy's vector loops and their tails, an upper bound
    # below the lower one included.  With scalar bounds, as in hamiltonian,
    # that has the bits of np.clip(x, lo, hi), -0.0 and NaN included.  With
    # array bounds np.clip takes other loops, and the sign of a zero result
    # may differ; recurrence, whose upper bounds are arrays, casts the result
    # to int64, and adding 0.0 makes every zero +0.0 and leaves the rest
    x = placed(values, n, offset)
    lo, hi = (b if isinstance(b, float) else placed(b, n, 2 - offset) for b in bounds)
    got, expect = np.minimum(hi, np.maximum(lo, x)), np.clip(x, lo, hi)
    if not isinstance(hi, float):
        got, expect = got + 0.0, expect + 0.0
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_clamp_with_x_first_loses_negative_zero():
    # the other order is not np.clip: it turns -0.0 into +0.0
    x = np.array([-0.0])
    assert np.signbit(np.clip(x, 0.0, 1.0)[0])
    assert np.signbit(np.minimum(1.0, np.maximum(0.0, x))[0])
    assert not np.signbit(np.minimum(np.maximum(x, 0.0), 1.0)[0])


class TestRadialAction:
    def test_zero_at_one_semiadmissible(self):
        assert make().action(1.0) == 0.0
        assert make().action(0.5) == 0.0

    def test_constant_beyond_r_max(self):
        p = make()
        assert p.action(p.r_max) == pytest.approx(p.c)
        assert p.action(p.r_max + 5.0) == pytest.approx(p.c)
        assert p.c >= p.slope

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_matches_symbolic_difference(self, family, params):
        p = make(family, **params)
        for r in np.linspace(1.1, p.r_max - 0.1, 7):
            assert p.action(r) == pytest.approx(
                r * float(p.dh(r)) - float(p.h(r)), rel=1e-12)

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_monotone_with_derivative_r_h2(self, family, params):
        p = make(family, **params)
        rs = np.linspace(1.0, p.r_max, 4096)
        A = p.action(rs)
        assert np.all(np.diff(A) >= -1e-12 * p.c)
        mid = 0.5 * (rs[1:] + rs[:-1])
        expect = mid * p.d2h(mid)
        got = np.diff(A) / np.diff(rs)
        assert np.allclose(got, expect, rtol=1e-3, atol=1e-6 * p.c)

    def test_scaling_identities(self):
        p = make()
        rs = np.linspace(1.0, p.r_max, 50)
        assert np.allclose(p.action(rs, k=3.0), 3.0 * p.action(rs))
        for T in np.linspace(0.0, 3.0 * p.slope, 11):
            v, _ = action_from_period(p, T, k=3.0)
            w, _ = action_from_period(p, T / 3.0)
            assert v == pytest.approx(3.0 * w, rel=1e-12, abs=1e-12)


class TestActionFromPeriod:
    def test_endpoints(self):
        p = make()
        assert action_from_period(p, 0.0) == (pytest.approx(0.0), pytest.approx(1.0))
        v, r = action_from_period(p, p.slope)
        assert v == pytest.approx(p.c) and r == pytest.approx(p.r_max)

    def test_quadratic_midpoint_closed_form(self):
        p = make("quadratic", slope=4.0, r_max=3.0)
        v, r = action_from_period(p, 2.0)
        assert r == pytest.approx(1.0 + (3.0 - 1.0) / 2.0)
        assert v == pytest.approx(r * 2.0 - float(p.h(r)))

    def test_out_of_range(self):
        with pytest.raises(PeriodOutOfRange):
            action_from_period(make(), 5.0 + 1e-6)

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_derivative_is_level(self, family, params):
        # a' (T) = r(T) against centered differences, relative 1e-6
        p = make(family, **params)
        for T in np.linspace(0.5, p.slope - 0.5, 9):
            r = action_from_period(p, T)[1]
            fd = finite_difference(lambda t: action_from_period(p, t)[0], T)
            assert fd == pytest.approx(r, rel=1e-6)

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_convexity_of_period_action(self, family, params):
        p = make(family, **params)
        Ts = np.linspace(0.0, p.slope, 1024)
        vals = np.array([action_from_period(p, float(T))[0] for T in Ts])
        assert np.all(np.diff(vals, 2) >= -1e-9 * p.c)

    def test_inverse_roundtrip(self):
        p = make()
        for alpha in np.linspace(0.0, 2.0 * p.c, 9):
            T = action_inverse(p, float(alpha), k=2.0)
            assert action_from_period(p, T, k=2.0)[0] == pytest.approx(alpha, abs=1e-9)
        with pytest.raises(ActionOutOfRange):
            action_inverse(p, p.c * 1.1)


class TestComparison:
    def test_equality(self):
        p = make()
        cert = compare_action_functions(p, p)
        assert cert.ok and cert.max_violation <= 1e-9

    def test_doubled_profile_dominates(self):
        p = make("quadratic", slope=4.0, r_max=2.0)
        q = make("quadratic", slope=8.0, r_max=2.0)   # 2 * h pointwise
        cert = compare_action_functions(p, q)
        assert cert.ok

    def test_not_dominated(self):
        p = make("quadratic", slope=4.0, r_max=2.0)
        q = make("quadratic", slope=4.0, r_max=3.0)   # smaller on [1, 2]... check
        # H1 >= H0 fails somewhere: swap roles to force the error
        with pytest.raises(NotDominated):
            compare_action_functions(q, p) if float(p.h(2.5)) < float(q.h(2.5)) \
                else compare_action_functions(p, q)


class TestTransfer:
    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_sandwich_random_draws(self, family, params):
        p = make(family, **params)
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = float(rng.uniform(1.0, 6.0))
            lam = float(rng.uniform(0.1, 4.0))
            taus = rng.uniform(0.0, k * p.c, size=5)
            res = transfer_map(p, k, lam, taus)
            assert res.upper_slack >= -1e-9
            assert res.lower_slack >= -1e-9

    def test_zero_action_fixed(self):
        p = make()
        res = transfer_map(p, 2.0, 1.5, [0.0])
        assert res.values[0] == pytest.approx(0.0, abs=1e-9)

    def test_small_lambda_near_identity(self):
        p = make()
        lam = 1e-6
        taus = np.linspace(0.0, 2.0 * p.c, 9)
        res = transfer_map(p, 2.0, lam, taus)
        assert np.allclose(res.values, taus, atol=lam * float(p.h(p.r_max)) + 1e-9)

    def test_out_of_range(self):
        p = make()
        with pytest.raises(ActionOutOfRange):
            transfer_map(p, 2.0, 1.0, [2.0 * p.c + 1.0])

    def test_sandwich_violation_is_typed(self, monkeypatch):
        # a negative tolerance demands slack the map cannot have
        monkeypatch.setattr(hamiltonian, "_TRANSFER_TOL", -1.0)
        p = make()
        with pytest.raises(SandwichViolated) as info:
            transfer_map(p, 2.0, 1.5, np.linspace(0.0, 2.0 * p.c, 5))
        assert isinstance(info.value, ReebLabError)


SPLINE_KNOTS = {
    "spline": (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.5, 7.0),
    "spline-nonmonotone": (3.0, 1.0, 4.0, 0.5, 2.0, 6.0),
}


def array_profile(name):
    if name in SPLINE_KNOTS:
        knots = SPLINE_KNOTS[name]
        return make("spline", slope=spline_slope(knots, 2.0), knots=knots)
    return make(name, **dict(FAMILIES)[name])


class TestArrayPath:
    """Array calls reproduce the scalar path element for element, bit for bit."""

    @pytest.mark.parametrize("name", [f for f, _ in FAMILIES] + list(SPLINE_KNOTS))
    def test_matches_scalar_path(self, name):
        p = array_profile(name)
        rng = np.random.default_rng(2309)
        k = float(rng.uniform(1.0, 5.0))
        lam = float(rng.uniform(0.1, 3.0))
        taus = np.concatenate([[0.0, k * p.c], rng.uniform(0.0, k * p.c, 4)])

        T = action_inverse(p, taus, k)
        scalar_T = [scalar_action_inverse(p, float(a), k) for a in taus]
        assert T.tolist() == scalar_T

        res = transfer_map(p, k, lam, taus)
        values = np.array([action_from_period(p, t, k + lam)[0] for t in scalar_T])
        assert res.values.tolist() == values.tolist()
        assert res.upper_slack == float(np.min(taus - values))
        assert res.lower_slack == float(np.min(values - (taus - lam * float(p.h(p.r_max)))))

        Ts = np.concatenate([[0.0, k * p.slope], rng.uniform(0.0, k * p.slope, 6)])
        vals, levels = action_from_period(p, Ts, k)
        for i, t in enumerate(Ts):
            v, r = action_from_period(p, float(t), k)
            assert type(v) is float and type(r) is float
            assert (v, r) == (vals[i], levels[i])
            one_v, one_r = action_from_period(p, np.array([t]), k)
            assert (v, r) == (one_v[0], one_r[0])
        for a, t in zip(taus[1:4], scalar_T[1:4]):
            one = action_inverse(p, float(a), k)
            assert type(one) is float
            assert one == t == action_inverse(p, np.array([a]), k)[0]

    def test_powers_round_as_float_pow(self):
        # the scalar path took x ** n on floats, which is C pow(); numpy's **
        # on arrays may round differently, so the profiles raise through _pow
        xs = np.random.default_rng(3).uniform(0.0, 1.5, 2000)
        for n in (2, 3):
            assert _pow(xs, n).tolist() == [x ** n for x in xs.tolist()]

    @pytest.mark.parametrize("name", list(SPLINE_KNOTS))
    def test_spline_inverse_matches_scalar_loop(self, name):
        # random interior targets stop the bisection early; 0 never lets it
        # stop; the slope and h' at the knots (with their neighbours) are
        # the ends of the pieces; a tiny and a wide shell move the point
        # at which the brackets settle
        knots = SPLINE_KNOTS[name]
        for r_max in (2.0, 1.0 + 1e-6, 40.0):
            p = make("spline", slope=spline_slope(knots, r_max), r_max=r_max, knots=knots)
            ends = np.concatenate([[0.0, p.slope], p._dh_knots])
            targets = np.concatenate([
                np.random.default_rng(57).uniform(0.0, p.slope, 40), ends,
                np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
            targets = np.clip(targets, 0.0, p.slope)
            assert (p._piece_dh_inv(targets).tolist()
                    == scalar_spline_dh_inv(p, targets).tolist()), r_max

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(["quadratic", "cubic", "exp", "spline"]),
           r_max=st.floats(1.0 + 1e-6, 40.0),
           slope=st.floats(0.5, 20.0),
           shape=st.floats(0.05, 0.95),
           knots=st.lists(st.floats(0.1, 8.0), min_size=2, max_size=8),
           k=st.floats(1.0, 5.0),
           fractions=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=1, max_size=3))
    def test_action_inverse_matches_scalar_oracle(self, family, r_max, slope, shape,
                                                  knots, k, fractions):
        params = {"quadratic": {}, "cubic": {"theta": shape},
                  "exp": {"beta": 3.0 * shape}, "spline": {"knots": tuple(knots)}}[family]
        if family == "spline":
            slope = spline_slope(knots, r_max)
        p = make(family, slope=slope, r_max=r_max, **params)
        taus = np.asarray(fractions) * (k * p.c)
        assert (action_inverse(p, taus, k).tolist()
                == [scalar_action_inverse(p, float(a), k) for a in taus])


def dipped(x):
    """x, except 4 ulps lower on (0.5, 0.5 + 2^-30): increasing but for an
    ulp-level dip, which a bisection toward 0.5 meets."""
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.5) & (x < 0.5 + 2.0 ** -30), x - 4 * np.spacing(x), x)


def bisection_case(name):
    """(f, top, scale): f on [0, top], with targets drawn from [0, scale]."""
    if name == "dipped":
        return dipped, 1.0, 1.0
    p = array_profile("spline" if name == "spline h'" else "spline-nonmonotone")
    if name == "spline h'":
        return p._piece_dh, p._w, p.slope
    # h'' of knots that fall and rise again: an f that is not monotone
    return p._piece_d2h, p._w, max(p.knots)


class TestBisectLevels:
    """_bisect covers several levels per call of f and returns what the
    one-level loop (scalar_bisect) returns, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["spline h'", "nonmonotone spline h''", "dipped"]),
           size=st.sampled_from([0, 1, 2, 3]) | st.integers(0, 3 * hamiltonian._NODE_BUDGET),
           rows=st.sampled_from([None, 1, 2, 3]),
           steps=st.sampled_from([1, 2, 7, 51, 64, 80]),
           at_ends=st.sampled_from([0.0, 0.1, 1.0]),
           near_dip=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_one_level_loop(self, name, size, rows, steps, at_ends, near_dip,
                                       seed):
        # sizes up to 3x the budget draw every depth, one level per call
        # included; rows give 2-D targets; a share of the targets sits at 0
        # and at the top of f's range
        f, top, scale = bisection_case(name)
        rng = np.random.default_rng(seed)
        if near_dip:
            targets = 0.5 + rng.integers(-8, 8, size) * np.spacing(0.5)
        else:
            targets = rng.uniform(0.0, scale, size)
        at_end = rng.random(size) < at_ends
        targets[at_end] = np.where(rng.random(size) < 0.5, 0.0, scale)[at_end]
        if rows is not None:
            targets = targets[:size - size % rows].reshape(rows, -1)
        got = _bisect(f, targets, top, steps)
        want = scalar_bisect(f, targets, top, steps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tolist() == want.tolist()


class TestBisectionStop:
    """_bisect stops at its fixed point, counted in levels of f's calls:
    counts, which do not depend on the machine, stand in for the time that
    saves."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(np.array(x))
            return f(x)
        return g, calls

    @staticmethod
    def levels(calls, size):
        """Levels per call: a call takes the 2^K - 1 nodes of K levels of
        each of ``size`` elements."""
        return [(x.size // size + 1).bit_length() - 1 for x in calls]

    def test_interior_spline_level_stops_well_before_64(self):
        p = array_profile("spline")
        f, calls = self.counted(p._piece_dh)
        _bisect(f, np.array([0.3 * p.slope, 0.7 * p.slope]), p._w, 64)
        # the one-level loop stopped within 58 levels; 2 elements take
        # 6 levels per call
        assert sum(self.levels(calls, 2)) <= 60

    def test_each_level_of_the_path_evaluated_once(self):
        # the one-level loop decides at each point of the path once and
        # stops before f once every midpoint is an end of its bracket; the
        # calls cover those levels, each level in one call, and no call
        # starts at the stop
        p = array_profile("spline")
        target = np.array([0.3 * p.slope])
        f, calls = self.counted(p._piece_dh)
        _bisect(f, target, p._w, 64)
        g, path = self.counted(p._piece_dh)
        scalar_bisect(g, target, p._w, 64)
        path = [float(x[0]) for x in path]
        assert len(set(path)) == len(path)
        levels = self.levels(calls, 1)
        assert sum(levels[:-1]) < len(path) <= sum(levels)
        starts = np.cumsum([0] + levels)
        for level, point in enumerate(path):
            call = int(np.searchsorted(starts, level, side="right")) - 1
            assert point in calls[call].tolist()

    @pytest.mark.parametrize("targets", [[0.0], [0.0, 1.0]])
    def test_target_zero_takes_all_64(self, targets):
        p = array_profile("spline")
        f, calls = self.counted(p._piece_dh)
        _bisect(f, np.array(targets), p._w, 64)
        assert sum(self.levels(calls, len(targets))) == 64

    def test_action_inverse_stops_before_80(self, monkeypatch):
        p, k = array_profile("spline"), 3.0
        periods = []
        original = hamiltonian._action_from_period

        def recorded(profile, T, k):
            periods.append(np.array(T))
            return original(profile, T, k)
        monkeypatch.setattr(hamiltonian, "_action_from_period", recorded)
        # the bisection's calls, then one for the Newton step
        action_inverse(p, np.array([0.3, 0.6]) * k * p.c, k)
        assert sum(self.levels(periods[:-1], 2)) <= 60
        periods.clear()
        action_inverse(p, np.array([0.0, 0.6]) * k * p.c, k)
        assert sum(self.levels(periods[:-1], 2)) == 80

    @pytest.mark.parametrize("size", [hamiltonian._NODE_BUDGET // 3 + 1,
                                      hamiltonian._NODE_BUDGET, 3 * hamiltonian._NODE_BUDGET])
    def test_large_array_takes_one_level_per_call(self, size):
        p = array_profile("spline")
        f, calls = self.counted(p._piece_dh)
        targets = np.random.default_rng(size).uniform(0.0, p.slope, size)
        _bisect(f, targets, p._w, 64)
        assert set(self.levels(calls, size)) == {1}
        # the largest array below a third of the budget takes two
        calls.clear()
        _bisect(f, targets[:hamiltonian._NODE_BUDGET // 3], p._w, 64)
        assert set(self.levels(calls, hamiltonian._NODE_BUDGET // 3)) == {2}


RANGE_PROFILES = {
    "semi": lambda: make(),
    "admissible": lambda: make(c0=-1.0),
    "spline": lambda: make("spline", slope=spline_slope((1.0, 2.0, 3.0), 2.0),
                           knots=(1.0, 2.0, 3.0)),
}


@pytest.mark.parametrize("profile, call, error, message", [
    ("semi", lambda p: p.dh_inv(-1.0), PeriodOutOfRange, "period outside [0, 5.0]: -1"),
    ("semi", lambda p: p.dh_inv(5.1), PeriodOutOfRange, "period outside [0, 5.0]: 5.1"),
    ("semi", lambda p: p.dh_inv(np.array([0.1, 6.0, -3.0])), PeriodOutOfRange,
     "period outside [0, 5.0]: 6"),
    ("spline", lambda p: p.dh_inv(2.5), PeriodOutOfRange, "period outside [0, 2.0]: 2.5"),
    ("semi", lambda p: action_from_period(p, -0.1), PeriodOutOfRange,
     "T = -0.1 outside [0, 5]"),
    ("semi", lambda p: action_from_period(p, 10.5, 2.0), PeriodOutOfRange,
     "T = 10.5 outside [0, 10]"),
    ("semi", lambda p: action_from_period(p, [1.0, -2.0, 20.0]), PeriodOutOfRange,
     "T = -2 outside [0, 5]"),
    ("admissible", lambda p: action_from_period(p, 6.0), PeriodOutOfRange,
     "T = 6 outside [0, 5]"),
    ("semi", lambda p: action_inverse(p, -1.0), ActionOutOfRange,
     "action -1 outside [0, 7.5]"),
    ("semi", lambda p: action_inverse(p, [0.0, 16.0], 2.0), ActionOutOfRange,
     "action 16 outside [0, 15]"),
    ("spline", lambda p: action_inverse(p, 5.0), ActionOutOfRange,
     "action 5 outside [0, 3.16667]"),
    ("admissible", lambda p: action_inverse(p, 0.0), ActionOutOfRange,
     "action inversion is normalized for semi-admissible profiles; "
     "shift the profile by its constant first"),
    ("semi", lambda p: transfer_map(p, 2.0, 1.0, [-1.0]), ActionOutOfRange,
     "tau grid escapes [0, 15]"),
    ("semi", lambda p: transfer_map(p, 2.0, 1.0, [0.0, 16.0]), ActionOutOfRange,
     "tau grid escapes [0, 15]"),
    ("semi", lambda p: transfer_map(p, 0.5, 1.0, [0.0]), ValueError,
     "need k >= 1 and lam > 0"),
    ("semi", lambda p: transfer_map(p, 2.0, 0.0, [0.0]), ValueError,
     "need k >= 1 and lam > 0"),
    ("admissible", lambda p: transfer_map(p, 2.0, 1.0, [0.0]), ActionOutOfRange,
     "the transfer sandwich is stated for semi-admissible profiles"),
    ("semi", lambda p: homotopy_action_derivative(p, 1.0, 1.0, 1.5, 0.0), ValueError,
     "s = 1.5 outside [0, 1]"),
    ("admissible", lambda p: homotopy_action_derivative(p, 1.0, 1.0, 0.5, 0.0),
     PeriodOutOfRange, "the derivative identity is normalized for h(1) = 0"),
    # the period range of a_F at s is action_from_period's at k + s lam
    ("semi", lambda p: homotopy_action_derivative(p, 1.0, 1.0, 0.0, 6.0),
     PeriodOutOfRange, "T = 6 outside [0, 5]"),
    ("semi", lambda p: homotopy_action_derivative(p, 1.0, 1.0, 0.5, -0.5),
     PeriodOutOfRange, "T = -0.5 outside [0, 7.5]"),
    ("semi", lambda p: homotopy_action_derivative(p, 2.0, 2.0, 1.0, 20.5),
     PeriodOutOfRange, "T = 20.5 outside [0, 20]"),
    ("semi", lambda p: transfer_map(p, math.nan, 1.0, [0.0]), ValueError,
     "k and lam must be finite, got k = nan, lam = 1.0"),
    ("semi", lambda p: transfer_map(p, 3.0, math.nan, [0.0]), ValueError,
     "k and lam must be finite, got k = 3.0, lam = nan"),
    ("semi", lambda p: transfer_map(p, math.inf, 1.0, [0.0]), ValueError,
     "k and lam must be finite, got k = inf, lam = 1.0"),
    ("semi", lambda p: check_action_ratio_monotone(p, math.nan), BadGeometry,
     "r0 = nan outside (1, r_max]"),
    # NaN is inside no range, and the first value outside is the one reported
    ("semi", lambda p: action_inverse(p, math.nan), ActionOutOfRange,
     "action nan outside [0, 7.5]"),
    ("semi", lambda p: p.dh_inv([0.5, math.nan]), PeriodOutOfRange,
     "period outside [0, 5.0]: nan"),
    ("semi", lambda p: action_from_period(p, math.nan), PeriodOutOfRange,
     "T = nan outside [0, 5]"),
    ("semi", lambda p: transfer_map(p, 3.0, 1.0, [0.5, math.nan]), ActionOutOfRange,
     "tau grid escapes [0, 22.5]"),
    ("spline", lambda p: p.dh_inv([-1.0, 0.5]), PeriodOutOfRange,
     "period outside [0, 2.0]: -1"),
    # a grid that is empty or not a line is a typed error, not numpy's
    ("semi", lambda p: transfer_map(p, 3.0, 2.0, []), InvalidParameter,
     "tau grid must be a nonempty 1-D sequence, got shape (0,)"),
    ("semi", lambda p: transfer_map(p, 3.0, 2.0, [[0.1, 0.2]]), InvalidParameter,
     "tau grid must be a nonempty 1-D sequence, got shape (1, 2)"),
])
def test_out_of_range_inputs(profile, call, error, message):
    with pytest.raises(error) as err:
        call(RANGE_PROFILES[profile]())
    assert str(err.value) == message


class TestHomotopyDerivative:
    def test_zero_period(self):
        assert homotopy_action_derivative(make(), 2.0, 1.0, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_bounded_below(self, family, params):
        p = make(family, **params)
        lam = 2.0
        floor = -lam * float(p.h(p.r_max))
        for s in (0.0, 0.3, 1.0):
            for T in np.linspace(0.0, 2.0 * p.slope, 9):
                v = homotopy_action_derivative(p, 2.0, lam, s, float(T))
                assert floor - 1e-12 <= v <= 0.0

    @pytest.mark.parametrize("family,params", FAMILIES)
    def test_matches_finite_differences(self, family, params):
        p = make(family, **params)
        k, lam = 3.0, 2.0
        for s in (0.2, 0.5, 0.8):
            for T in np.linspace(0.5, k * p.slope * 0.9, 5):
                def a_of_s(sv):
                    ks = k + sv * lam
                    return action_from_period(p, float(T), k=ks)[0]
                fd = finite_difference(a_of_s, s, h=1e-5)
                v = homotopy_action_derivative(p, k, lam, s, float(T))
                assert v == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_out_of_domain(self):
        with pytest.raises(PeriodOutOfRange):
            homotopy_action_derivative(make(), 1.0, 1.0, 0.0, 6.0)


class TestRatioMonotone:
    def test_quadratic(self):
        p = make()
        assert check_action_ratio_monotone(p, p.r_max)

    def test_cubic(self):
        p = make("cubic", theta=0.7)
        assert check_action_ratio_monotone(p, p.r_max)

    def test_uncertified_region_rejected(self):
        knots = (0.5, 2.0, 1.0)    # h''' < 0 past the middle knot
        p = make("spline", slope=spline_slope(knots, 2.0), r_max=2.0, knots=knots)
        assert p.h_triple_nonneg_up_to < 2.0
        with pytest.raises(UncertifiedRegion):
            check_action_ratio_monotone(p, 2.0)
        assert check_action_ratio_monotone(p, p.h_triple_nonneg_up_to)

    def test_falls_where_c0_is_below_minus_h2_at_1(self):
        # h''(1) + c0 = 5 - 6 < 0: A_h/r falls just past r = 1
        p = make(c0=-6.0)
        assert not check_action_ratio_monotone(p, p.r_max)
        rs = np.linspace(1.0, 1.001, 3)
        assert np.diff(p.action(rs) / rs)[0] < 0
        assert check_action_ratio_monotone(make(c0=-5.0), p.r_max)    # = 0 rises
        # h''(1) = 1 = -c0 computes to 1 - 2^-52, within the rounding allowed
        q = make("cubic", theta=0.9, r_max=1.5, c0=-1.0)
        assert float(q.d2h_shell(1.0)) < 1.0 and check_action_ratio_monotone(q, q.r_max)

    @pytest.mark.parametrize("family,params", FAMILIES)
    @pytest.mark.parametrize("c0", np.linspace(0.0, -20.0, 8).tolist())
    def test_matches_a_dense_grid(self, family, params, c0):
        p = make(family, c0=c0, **params)
        rs = np.linspace(1.0, p.r_max, 4096)
        ratio = p.action(rs) / rs
        sampled = bool(np.all(np.diff(ratio) >= -1e-12 * max(1.0, p.c)))
        assert check_action_ratio_monotone(p, p.r_max) == sampled


def _constant_trace(profile, k=2.0, level=1.5, n_s=9, n_t=8):
    s = np.linspace(-1.0, 1.0, n_s)
    t = np.linspace(0.0, k, n_t)
    r = np.full((n_s, n_t), level)
    return CylinderTrace(s, t, r, r_plus=level, r_minus=level)


class TestCylinderTrace:
    def test_constant_trace_passes(self):
        p = make()
        rep = check_cylinder_trace(_constant_trace(p), p, 2.0)
        assert rep.ok

    def test_monotone_interpolating_trace_passes(self):
        p = make()
        k = 2.0
        s = np.linspace(-4.0, 4.0, 41)
        t = np.linspace(0.0, k, 16)
        r_plus, r_minus = 1.52, 1.5
        prof = r_minus + (r_plus - r_minus) / (1.0 + np.exp(2.0 * s))
        r = np.tile(prof[:, None], (1, len(t)))
        trace = CylinderTrace(s, t, r, r_plus=r_plus, r_minus=r_minus)
        rep = check_cylinder_trace(trace, p, k, tol=1e-3)
        assert rep.ok, rep.to_json()

    def test_dip_below_r_minus_fails(self):
        p = make()
        k = 2.0
        s = np.linspace(-1.0, 1.0, 9)
        t = np.linspace(0.0, k, 8)
        r = np.full((9, 8), 1.5)
        r[4, :] = 1.3    # the whole slice drops below r_minus
        trace = CylinderTrace(s, t, r, r_plus=1.5, r_minus=1.5)
        rep = check_cylinder_trace(trace, p, k)
        assert not rep.monotonicity_ok

    def test_above_r_plus_fails(self):
        p = make()
        r = np.full((9, 8), 1.5)
        r[2, 3] = 1.9
        trace = CylinderTrace(np.linspace(-1, 1, 9), np.linspace(0, 2, 8), r,
                              r_plus=1.5, r_minus=1.5)
        assert not check_cylinder_trace(trace, p, 2.0).max_principle_ok

    def test_malformed(self):
        with pytest.raises(MalformedTrace):
            CylinderTrace(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                          np.zeros((2, 2)) + 1.0, r_plus=1.0, r_minus=2.0)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s,t,r\n0,0,1.5\n0,1,1.5\n1,0,1.5\n1,1,1.5\n2,0,1.5\n2,1,1.5\n")
        trace = CylinderTrace.from_samples(_load_csv(str(path), ("s", "t", "r")),
                                           r_plus=1.5, r_minus=1.5)
        assert trace.r_values.shape == (3, 2)

    def test_samples_in_any_order(self):
        s, t = np.meshgrid([0.0, 1.0, 2.0], [0.0, 0.5], indexing="ij")
        rows = np.column_stack([s.ravel(), t.ravel(), 1.0 + s.ravel() + t.ravel()])
        trace = CylinderTrace.from_samples(rows[::-1], r_plus=4.0, r_minus=1.0)
        assert trace.s_grid.tolist() == [0.0, 1.0, 2.0]
        assert trace.t_grid.tolist() == [0.0, 0.5]
        assert np.array_equal(trace.r_values, 1.0 + s + t)

    @pytest.mark.parametrize("extra, message", [
        ((1.0, 0.5, 1.5), "(s, t) = (0, 0.5) is sampled 0 times, not once"),
        ((1.0, 1.0, 9.0), "(s, t) = (1, 1) is sampled 2 times, not once"),
    ])
    def test_every_grid_point_sampled_once(self, extra, message):
        rows = [(s, t, 1.5) for s in (0.0, 1.0, 2.0) for t in (0.0, 1.0)] + [extra]
        with pytest.raises(MalformedTrace) as err:
            CylinderTrace.from_samples(rows, r_plus=1.5, r_minus=1.5)
        assert str(err.value) == message


def test_action_tables_csv():
    p = make()
    tables = action_tables(p, grid=32)
    rows = tables.csv_rows()
    assert len(tables.r_rows) == 32 and len(tables.t_rows) == 32
    assert len(rows) == 64 and all(len(row) == len(tables.CSV_HEADER) for row in rows)
    assert rows[0] == ("r", *tables.r_rows[0], "")
    assert rows[32] == ("T", tables.t_rows[0][0], "", "", "", *tables.t_rows[0][1:])


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_action_tables_reach_both_ends(grid):
    p = make()
    with pytest.raises(InvalidParameter, match=f"^grid must be at least 2, got {grid}$"):
        action_tables(p, grid=grid)
    tables = action_tables(p, grid=2)
    assert [row[0] for row in tables.r_rows] == [1.0, p.r_max]
    assert [row[0] for row in tables.t_rows] == [0.0, p.slope]
