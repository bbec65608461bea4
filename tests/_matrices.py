"""Matrix builders of the tests: quadratic flows, 2x2 symplectic blocks and
their direct sums in split coordinates (see :mod:`reeb_lab.symplectic`),
and Williamson invariants from block counts alone."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reeb_lab.symplectic import WilliamsonInvariants, standard_form


def flow_rotation(m: int) -> np.ndarray:
    """JHAT = -J; the flow of z^T S z / 2 is exp(t * JHAT @ S)."""
    return -standard_form(m)


def quadratic_flow(S: np.ndarray) -> np.ndarray:
    """Time-1 flow map of the quadratic Hamiltonian with Hessian S."""
    S = np.asarray(S, dtype=float)
    m = S.shape[0] // 2
    return _expm(flow_rotation(m) @ S)


def _expm(K: np.ndarray) -> np.ndarray:
    # Scaling-and-squaring with a Taylor core; avoids a scipy dependency.
    n = int(np.ceil(max(0.0, np.log2(max(1e-300, np.linalg.norm(K, 2))))) + 4)
    A = K / (2.0 ** n)
    out = np.eye(K.shape[0])
    term = np.eye(K.shape[0])
    for j in range(1, 24):
        term = term @ A / j
        out = out + term
    for _ in range(n):
        out = out @ out
    return out


def rotation2(theta: float) -> np.ndarray:
    """Counterclockwise rotation; flow of the positive definite form at theta > 0."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def hyperbolic2(lam: float) -> np.ndarray:
    return np.diag([lam, 1.0 / lam])


def direct_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble 2x2 symplectic blocks into split coordinates.

    Block i acts on the plane (q_i, p_i), i.e. rows/columns (i, m+i).
    """
    m = len(blocks)
    M = np.eye(2 * m)
    for i, B in enumerate(blocks):
        idx = np.array([i, m + i])
        M[np.ix_(idx, idx)] = B
    return M


def williamson_from_counts(nu0: int = 0, b0: int = 0, b_plus: int = 0,
                           b_minus: int = 0, m: int | None = None) -> WilliamsonInvariants:
    """Invariants from block counts alone (nu_a = m, totally degenerate).

    Without an explicit m, chains are assumed minimal: d = 3 for odd
    chains, d = 1 for signed even chains.
    """
    if m is None:
        m = nu0 + 3 * b0 + b_plus + b_minus
    nu_g = 2 * (b0 + nu0) + b_plus + b_minus
    return WilliamsonInvariants(nu0=nu0, b0=b0, b_plus=b_plus, b_minus=b_minus,
                                nu_g=nu_g, nu_a=m, m=m)
