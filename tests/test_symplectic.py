from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_lab.errors import (
    InvalidParameter,
    NotSymplectic,
    NotUnipotent,
    OddDimension,
    ReebLabError,
    UnresolvedNormalForm,
)
from reeb_lab.symplectic import validate_symplectic, williamson_invariants

from _matrices import direct_sum, hyperbolic2, quadratic_flow, rotation2
from _oracles import flow_path, log_williamson_invariants
from reeb_lab.indices import cz_index_sampled


def random_symplectic(rng: np.random.Generator, m: int, scale: float = 0.7) -> np.ndarray:
    """exp(JHAT S) for a random symmetric S; always symplectic."""
    B = rng.normal(size=(2 * m, 2 * m)) * scale
    return quadratic_flow((B + B.T) / 2.0)


def test_identity_accepted():
    M = validate_symplectic(np.eye(4), tol=1e-9)
    assert M.dim_half == 2


def test_canonical_blocks_accepted():
    M = direct_sum([rotation2(0.7), hyperbolic2(2.0)])
    assert validate_symplectic(M, tol=1e-9).dim_half == 2
    # a loxodromic block C on the q-plane with C^-T on the p-plane
    C = 1.1 * rotation2(0.9)
    M = np.block([[C, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(C).T]])
    assert validate_symplectic(M, tol=1e-9).dim_half == 2
    # noise well inside the tolerance
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = direct_sum([rotation2(1.0), hyperbolic2(3.0)]) + rng.normal(size=(4, 4)) * 1e-10
        assert validate_symplectic(M, tol=1e-6).dim_half == 2


def test_non_symplectic_rejected():
    with pytest.raises(NotSymplectic) as err:
        validate_symplectic(np.diag([2.0, 2.0, 0.5, 1.0 / 3.0]))
    assert err.value.residual > 0


@pytest.mark.parametrize("entry", [1e200, np.nan, np.inf])
def test_entries_beyond_the_squared_scale_rejected(entry):
    # the residual is compared with tol * max|M|^2, which must be a finite float
    with pytest.raises(InvalidParameter, match="must square to a finite float"):
        validate_symplectic(np.array([[1.0, entry], [0.0, 1.0]]))


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        validate_symplectic(np.eye(3))
    with pytest.raises(OddDimension):
        validate_symplectic(np.ones((2, 4)))


def test_eigenvalue_symmetry_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        M = random_symplectic(rng, m)
        eigs = np.linalg.eigvals(M)
        for lam in eigs:
            # 1/lambda must be present in the multiset
            assert np.min(np.abs(eigs - 1.0 / lam)) < 1e-6


def _deg(S):
    """Totally degenerate map exp(JHAT S) as a validated matrix."""
    return validate_symplectic(quadratic_flow(S))


class TestWilliamson:
    def test_identity_r4(self):
        inv = williamson_invariants(validate_symplectic(np.eye(4)))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (2, 0, 0, 0)
        assert inv.nu_g == 4 and inv.nu_a == 2

    def test_positive_shear(self):
        inv = williamson_invariants(_deg(np.diag([0.0, 1.0])))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (0, 0, 1, 0)
        assert inv.nu_g == 1 and inv.nu_a == 1

    def test_negative_shear(self):
        inv = williamson_invariants(_deg(np.diag([0.0, -1.0])))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (0, 0, 0, 1)

    def test_even_chain_of_width_two(self):
        # form p1 q2 + p2^2 / 2 on R^4: a single signed chain of full width
        S = np.zeros((4, 4))
        S[1, 2] = S[2, 1] = 1.0
        S[3, 3] = 1.0
        inv = williamson_invariants(_deg(S))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (0, 0, 1, 0)
        assert inv.nu_g == 1 and inv.nu_a == 2
        inv_m = williamson_invariants(_deg(-S))
        assert (inv_m.b_plus, inv_m.b_minus) == (0, 1)

    def test_odd_chain_pair(self):
        # form p1 q2 + p2 q3 on R^6: one odd chain pair (b0 = 1)
        S = np.zeros((6, 6))
        S[1, 3] = S[3, 1] = 1.0   # p1 q2
        S[2, 4] = S[4, 2] = 1.0   # p2 q3
        inv = williamson_invariants(_deg(S))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (0, 1, 0, 0)
        assert inv.nu_g == 2 and inv.nu_a == 3

    def test_mixed_sum(self):
        S = np.zeros((4, 4))
        S[3, 3] = -1.0    # negative shear on the (q2, p2) plane; zero plane (q1, p1)
        inv = williamson_invariants(_deg(S))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (1, 0, 0, 1)
        assert inv.nu_g == 3

    def test_compound_eight_dimensional(self):
        # odd chain pair filling six dimensions plus a positive shear plane
        S = np.zeros((8, 8))
        S[4, 1] = S[1, 4] = 1.0    # p1 q2
        S[5, 2] = S[2, 5] = 1.0    # p2 q3
        S[7, 7] = 1.0              # p4^2 / 2
        inv = williamson_invariants(_deg(S))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (0, 1, 1, 0)
        assert inv.nu_g == 3 and inv.nu_a == 4

    def test_not_unipotent_rejected(self):
        with pytest.raises(NotUnipotent):
            williamson_invariants(validate_symplectic(hyperbolic2(2.0)))

    def test_counts_identity(self):
        # nu_g = 2(b0 + nu0) + b+ + b- holds on every construction
        rng = np.random.default_rng(3)
        for _ in range(20):
            nu0 = int(rng.integers(0, 2))
            bp = int(rng.integers(0, 2))
            bm = int(rng.integers(0, 2))
            m = nu0 + bp + bm
            if m == 0:
                continue
            diag = [0.0] * nu0 + [1.0] * bp + [-1.0] * bm
            S = np.diag([0.0] * m + diag)
            inv = williamson_invariants(_deg(S))
            assert (inv.nu0, inv.b_plus, inv.b_minus) == (nu0, bp, bm)
            assert inv.nu_g == 2 * (inv.b0 + inv.nu0) + inv.b_plus + inv.b_minus

    def test_conjugation_invariance_fuzz(self):
        rng = np.random.default_rng(11)
        S = np.zeros((4, 4))
        S[1, 2] = S[2, 1] = 1.0
        S[3, 3] = 1.0
        base = quadratic_flow(S)
        expected = williamson_invariants(validate_symplectic(base)).to_json()
        for _ in range(200):
            C = random_symplectic(rng, 2, scale=0.4)
            M = validate_symplectic(np.linalg.inv(C) @ base @ C, tol=1e-6)
            assert williamson_invariants(M, tol=1e-6).to_json() == expected

    def test_rational_reproducibility(self):
        # exactly representable entries, nilpotency degree <= 4: bitwise stable
        S = np.zeros((4, 4))
        S[1, 2] = S[2, 1] = 0.5
        S[3, 3] = 0.25
        A = quadratic_flow(S)
        runs = [williamson_invariants(validate_symplectic(A)).to_json()
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


def chain_form(d: int, sign: float) -> np.ndarray:
    """Generator form p_1 q_2 + ... + p_(d-1) q_d + sign p_d^2 / 2 on R^(2d).

    A nonzero sign gives one even chain of size 2d with that sign; sign 0
    gives a zero plane for d = 1 and an odd chain pair of size d for d = 3.
    """
    S = np.zeros((2 * d, 2 * d))
    for i in range(d - 1):
        S[d + i, i + 1] = S[i + 1, d + i] = 1.0
    S[2 * d - 1, 2 * d - 1] = sign
    return S


def symplectic_sum(forms) -> np.ndarray:
    """Block sum of forms in split coordinates: each keeps its own q and p."""
    m = sum(f.shape[0] // 2 for f in forms)
    S = np.zeros((2 * m, 2 * m))
    at = 0
    for f in forms:
        k = f.shape[0] // 2
        idx = np.r_[at:at + k, m + at:m + at + k]
        S[np.ix_(idx, idx)] = f
        at += k
    return S


#: (d, sign) of chain_form: zero plane, signed chains of sizes 2, 4, 6 and 8,
#: and the odd chain pair of size 3
NORMAL_FORMS = [(1, 0.0), (3, 0.0)] + [(d, sign) for d in (1, 2, 3, 4) for sign in (1.0, -1.0)]


def _count_of(d: int, sign: float) -> str:
    if sign:
        return "b_plus" if sign > 0 else "b_minus"
    return "nu0" if d == 1 else "b0"


@st.composite
def conjugated_normal_forms(draw, scales, spread, half_dim=4):
    """A random direct sum of NORMAL_FORMS, each scaled by a factor in
    scales, flowed for time one and conjugated by exp(JHAT B) for a random
    symmetric B of entry scale at most spread; with the counts it carries."""
    blocks, room = [], half_dim
    while room and (not blocks or draw(st.booleans())):
        blocks.append(draw(st.sampled_from([b for b in NORMAL_FORMS if b[0] <= room])))
        room -= blocks[-1][0]
    S = symplectic_sum([chain_form(d, sign) * draw(st.floats(*scales)) for d, sign in blocks])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.normal(size=S.shape) * draw(st.floats(0.0, spread))
    C = quadratic_flow((B + B.T) / 2.0)
    return np.linalg.inv(C) @ quadratic_flow(S) @ C, Counter(_count_of(*b) for b in blocks)


def _invariants_or_error(williamson, A, tol):
    try:
        return williamson(validate_symplectic(A, tol=tol), tol=tol).to_json()
    except ReebLabError as exc:
        return type(exc)


class TestWilliamsonFromNilpotentPart:
    """The form on ker (A - I)^s against the logarithm of A it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=conjugated_normal_forms(scales=(0.5, 2.0), spread=0.5),
           tol=st.sampled_from([1e-9, 1e-6]))
    def test_matches_the_logarithm_oracle(self, case, tol):
        # in this range the logarithm path resolves every draw; farther out it
        # reports inconsistent ranks of K^8 where the nilpotent part reads the
        # counts (test_never_misreads_a_normal_form)
        A, _ = case
        assert (_invariants_or_error(williamson_invariants, A, tol)
                == _invariants_or_error(log_williamson_invariants, A, tol))

    @settings(max_examples=200, deadline=None)
    @given(case=conjugated_normal_forms(scales=(0.25, 4.0), spread=0.3),
           tol=st.sampled_from([1e-9, 1e-6]))
    def test_never_misreads_a_normal_form(self, case, tol):
        # an ill-conditioned draw may be refused, but never given wrong counts
        A, counts = case
        try:
            inv = williamson_invariants(validate_symplectic(A, tol=tol), tol=tol)
        except UnresolvedNormalForm:
            return
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus) == (
            counts["nu0"], counts["b0"], counts["b_plus"], counts["b_minus"])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_even_chain_signs(self, d, sign):
        A = validate_symplectic(quadratic_flow(chain_form(d, sign)))
        inv = williamson_invariants(A)
        assert (inv.b_plus, inv.b_minus, inv.nu_g, inv.m) == (sign > 0, sign < 0, 1, d)
        assert inv.to_json() == log_williamson_invariants(A).to_json()

    @pytest.mark.parametrize("shear", [1e8, 1e9, 1e12, 1e100])
    def test_large_shears(self, shear):
        # the rank tolerance grows with max|A - I| and used to exceed 1, so
        # that the identity came out of rank 0 from 6e8 on; and at 1e100 the
        # bound tol * n * |A - I|^n of the 4x4 sum is 1e400, not a float, so
        # it is taken factor by factor and neither raises nor becomes inf
        inv = williamson_invariants(validate_symplectic(np.array([[1.0, shear], [0.0, 1.0]])))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus, inv.nu_g) == (0, 0, 0, 1, 1)
        plane = np.eye(4)
        plane[0, 2] = shear
        inv = williamson_invariants(validate_symplectic(plane))
        assert (inv.nu0, inv.b0, inv.b_plus, inv.b_minus, inv.nu_g) == (1, 0, 0, 1, 3)

    def test_power_overflowing_to_inf_fails_the_unipotency_bound(self):
        with pytest.raises(NotUnipotent, match=r"\(A - I\)\^4 has max entry inf"):
            williamson_invariants(validate_symplectic(np.diag([1e100, 1.0, 1e-100, 1.0])))


class TestPerturbationOracle:
    """mu_pm from the invariants must match the index of perturbed flows."""

    @pytest.mark.parametrize("S,mu_plus,mu_minus", [
        (np.diag([0.0, 1.0]), 1, 0),       # one positive chain
        (np.diag([0.0, -1.0]), 0, -1),     # one negative chain
        (np.zeros((2, 2)), 1, -1),         # one zero plane
    ])
    def test_two_dim_families(self, S, mu_plus, mu_minus):
        inv = williamson_invariants(_deg(S))
        assert inv.b0 + inv.b_plus + inv.nu0 == mu_plus
        assert -(inv.b0 + inv.b_minus + inv.nu0) == mu_minus
        eps = 1e-3
        assert cz_index_sampled(flow_path(S + eps * np.eye(2))) == mu_plus
        assert cz_index_sampled(flow_path(S - eps * np.eye(2))) == mu_minus

    @pytest.mark.parametrize("diag,mu_plus,mu_minus", [
        ((0.0, 0.0, 0.0, 1.0), 2, -1),     # zero plane + positive chain
        ((0.0, 0.0, 1.0, -1.0), 1, -1),    # positive + negative chain
        ((0.0, 0.0, 0.0, 0.0), 2, -2),     # two zero planes
    ])
    def test_four_dim_families(self, diag, mu_plus, mu_minus):
        S = np.diag(diag)
        inv = williamson_invariants(_deg(S))
        assert inv.b0 + inv.b_plus + inv.nu0 == mu_plus
        assert -(inv.b0 + inv.b_minus + inv.nu0) == mu_minus
        eps = 1e-3
        assert cz_index_sampled(flow_path(S + eps * np.eye(4))) == mu_plus
        assert cz_index_sampled(flow_path(S - eps * np.eye(4))) == mu_minus

    def test_even_chain_upper_side(self):
        # the full-width chain: the positive perturbation splits into planes,
        # the negative one is intrinsically loxodromic and rejected by design
        S = np.zeros((4, 4))
        S[1, 2] = S[2, 1] = 1.0
        S[3, 3] = 1.0
        inv = williamson_invariants(_deg(S))
        assert inv.b0 + inv.b_plus + inv.nu0 == 1
        assert cz_index_sampled(flow_path(S + 1e-2 * np.eye(4))) == 1
