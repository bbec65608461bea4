import math

import numpy as np
import pytest

import reeb_lab.fixedpoint as fixedpoint_module
from reeb_lab.cli import _load_csv
from reeb_lab.errors import FixedPointOnCircle, SamplingTooCoarse
from reeb_lab.fixedpoint import (
    PlanarMapSample,
    brouwer_index,
    brouwer_index_of_map,
    lefschetz_residuals,
    trace_nonneg_scan,
)


def rotation_map(theta):
    c, s = math.cos(theta), math.sin(theta)
    return lambda p: (c * p[0] - s * p[1], s * p[0] + c * p[1])


def conjugated_rotation_map(theta, a=2.0):
    # S R(theta) S^-1 with S = diag(a, 1/a): still irrationally elliptic
    c, s = math.cos(theta), math.sin(theta)
    return lambda p: (c * p[0] - a * a * s * p[1],
                      s * p[0] / (a * a) + c * p[1])


def monkey_saddle(p):
    # z + i conj(z)^2: area-preserving to leading order, index -2
    z = complex(p[0], p[1])
    w = z + 1j * np.conj(z) ** 2
    return (w.real, w.imag)


def winding_map(w, eps=1e-3):
    """A map whose displacement on the circle of radius eps turns w times:
    at angle t it is eps (cos w t, sin w t)."""
    def f(p):
        t = math.atan2(p[1], p[0])
        return (p[0] + eps * math.cos(w * t), p[1] + eps * math.sin(w * t))
    return f


def iterate(f, m):
    def g(p):
        for _ in range(m):
            p = f(p)
        return p
    return g


class TestBrouwerIndex:
    def test_irrational_rotation_all_iterates(self):
        theta = 2.0 * math.pi / math.sqrt(2.0)
        f = rotation_map(theta)
        for m in (1, 2, 7, 50):
            assert brouwer_index_of_map(iterate(f, m)) == 1

    def test_conjugated_rotation_all_iterates(self):
        theta = 2.0 * math.pi * (math.sqrt(5.0) - 2.0)
        f = conjugated_rotation_map(theta)
        for m in range(1, 51):
            assert brouwer_index_of_map(iterate(f, m)) == 1

    def test_monkey_saddle_model(self):
        assert brouwer_index_of_map(monkey_saddle, eps=1e-3) == -2

    def test_translation_no_fixed_point(self):
        assert brouwer_index_of_map(lambda p: (p[0] + 1.0, p[1]), eps=0.5) == 0

    def test_hyperbolic_saddle(self):
        assert brouwer_index_of_map(lambda p: (2.0 * p[0], 0.5 * p[1])) == -1

    def test_samples_double_until_the_winding_certifies(self):
        # winding 20 steps 20/64 of a turn at 64 samples, more than a
        # quarter, and 20/128 at 128 (16 would sit on the edge at 64)
        assert brouwer_index_of_map(winding_map(20)) == 20
        with pytest.raises(SamplingTooCoarse):
            brouwer_index(PlanarMapSample.from_map(winding_map(20), n_samples=64))

    @pytest.mark.parametrize("tries, last", [(1, 64), (2, 128)])
    def test_exhaustion_names_the_last_count_tried(self, monkeypatch, tries, last):
        # winding 40 needs 256 samples
        monkeypatch.setattr(fixedpoint_module, "_TRIES", tries)
        with pytest.raises(SamplingTooCoarse) as err:
            brouwer_index_of_map(winding_map(40))
        assert str(err.value) == f"no certified winding after {last} samples"

    def test_radius_refinement_invariance(self):
        theta = 1.0
        f = rotation_map(theta)
        values = {brouwer_index_of_map(f, eps=e) for e in (1e-2, 5e-3, 2.5e-3)}
        assert values == {1}

    def test_fixed_point_on_circle_rejected(self):
        sample = PlanarMapSample.from_map(lambda p: p, eps=1.0, n_samples=16)
        with pytest.raises(FixedPointOnCircle):
            brouwer_index(sample)

    def test_coarse_samples_rejected_without_map(self):
        # the displacement turns twice per circle: steps of 4 pi / 6 > pi / 2
        sample = PlanarMapSample.from_map(monkey_saddle, n_samples=6)
        with pytest.raises(SamplingTooCoarse, match="refine the sampling"):
            brouwer_index(sample)

    def test_too_few_samples_rejected(self):
        # a translation's displacement never turns, so every step passes the
        # quarter-turn rule; below five samples that certifies nothing
        def translation(p):
            return (p[0] + 1.0, p[1])
        with pytest.raises(SamplingTooCoarse, match="only in 5 or more steps"):
            brouwer_index(PlanarMapSample.from_map(translation, n_samples=4))
        assert brouwer_index(PlanarMapSample.from_map(translation, n_samples=5)) == 0

    def test_csv_rows(self, tmp_path):
        f = rotation_map(0.7)
        ts = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        rows = ["x,y,fx,fy"]
        for t in ts:
            x, y = math.cos(t), math.sin(t)
            rows.append(",".join(repr(v) for v in (x, y, *f((x, y)))))
        path = tmp_path / "map.csv"
        path.write_text("\n".join(rows))
        data = _load_csv(str(path), ("x", "y", "fx", "fy"))
        assert data.shape == (64, 4)
        assert brouwer_index(PlanarMapSample(data[:, :2], data[:, 2:])) == 1


class TestLefschetz:
    def test_alternating_trace_configuration(self):
        # quotient of a disk-like pair: degree 0 trace 1, degree 2 absent;
        # two fixed points of index one force declared trace -1 in degree 1
        # at every iterate (no matrix realizes that; the residual just
        # confirms the bookkeeping closes)
        rep = lefschetz_residuals(
            induced_maps=[1.0, -1.0, None],
            fixed_point_indices=[1, 1],
            m_max=12)
        assert rep.ok
        assert rep.max_abs_residual == 0.0

    @pytest.mark.parametrize("scalar", [np.int64, np.float64])
    def test_numpy_scalar_is_a_declared_trace(self, scalar):
        # a numpy scalar is a number, not a 1x1 matrix whose powers alternate
        rep = lefschetz_residuals(
            induced_maps=[scalar(1), scalar(-1), None],
            fixed_point_indices=[1, 1],
            m_max=4)
        assert rep.residuals == (0.0, 0.0, 0.0, 0.0)

    def test_matrix_degree_one_breaks_from_second_iterate(self):
        # an actual matrix with trace -1 has trace +1 at even powers: the
        # residual surfaces exactly the impossibility the identity encodes
        rep = lefschetz_residuals(
            induced_maps=[np.array([[1.0]]), np.array([[-1.0]]), None],
            fixed_point_indices=[1, 1],
            m_max=4)
        assert not rep.ok
        assert rep.residuals[0] == 0.0 and rep.residuals[1] == -2.0

    def test_identity_sphere_euler(self):
        # identity on a sphere-like complex: traces are Betti numbers and the
        # index sum must equal the Euler characteristic
        rep = lefschetz_residuals(
            induced_maps=[np.eye(1), np.zeros((0, 0)), np.eye(1)],
            fixed_point_indices=[2],
            m_max=6)
        assert rep.ok

    def test_perturbed_traces_reported(self):
        rep = lefschetz_residuals(
            induced_maps=[np.array([[1.0]]), np.array([[-0.5]]), np.zeros((0, 0))],
            fixed_point_indices=[1, 1],
            m_max=4)
        assert not rep.ok
        assert rep.max_abs_residual > 0.1


class TestTraceScan:
    def test_minus_identity(self):
        scan = trace_nonneg_scan(-np.eye(2), m_max=100)
        assert scan.count == 50
        assert scan.first_hits[0] == 2

    def test_rotation_by_third(self):
        theta = 2.0 * math.pi / 3.0
        L = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        scan = trace_nonneg_scan(L, m_max=99)
        assert scan.count >= 33
        assert all(m % 3 == 0 for m in scan.first_hits)

    def test_random_rational_matrices_always_hit(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            L = rng.integers(-5, 6, size=(3, 3)) / rng.integers(1, 5)
            scan = trace_nonneg_scan(L, m_max=1000)
            assert scan.count >= 1

    def test_heuristic_floor_reported_not_asserted(self):
        rng = np.random.default_rng(43)
        passes = 0
        for _ in range(50):
            L = rng.normal(size=(3, 3))
            scan = trace_nonneg_scan(L, m_max=600)
            if scan.count >= 600 // (2 * 3):
                passes += 1
        assert passes >= 40   # the floor is a bulk trend, not a law
