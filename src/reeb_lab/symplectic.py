"""Symplectic linear algebra: validation and the normal-form invariants of
unipotent symplectic maps.

Conventions
-----------
Coordinates are split, ``z = (q_1..q_m, p_1..p_m)``.  The symplectic form is
``omega(u, v) = u^T J v`` with ``J = [[0, I], [-I, 0]]``.  The time-t flow of a
quadratic Hamiltonian ``H(z) = z^T S z / 2`` is ``exp(t * JHAT @ S)`` where
``JHAT = -J``; with this sign a positive definite form generates a
counterclockwise rotation in every (q_i, p_i) plane, which is what fixes the
index normalization used in :mod:`reeb_lab.indices`.

A unipotent ``A`` (all eigenvalues 1) equals ``exp(K)`` for a nilpotent
``K = JHAT @ S`` with ``S`` symmetric.  The symmetric form decomposes
symplectically into zero planes, odd chain pairs and signed even chains; the
counts (nu0, b0, b_plus, b_minus) are complete invariants.
:func:`williamson_invariants` reads them off ``N = A - I`` with no logarithm:
K is N times an invertible power series in N, so the two share their Jordan
chains, and on ker N^s the sign form S(K^(d-1) u, K^(d-1) v) of the chains of
size s = 2d equals (-1)^(d-1) u^T J N^(s-1) v.  Zero planes and the d = 1 odd
chain are the same object; they are counted under nu0.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import (
    Checked,
    InvalidParameter,
    JsonFields,
    MalformedInput,
    NotSymplectic,
    NotUnipotent,
    OddDimension,
    UnresolvedNormalForm,
    json_field,
    json_object,
)

DEFAULT_TOL = 1e-9


def standard_form(m: int) -> np.ndarray:
    """Matrix of the symplectic form in split coordinates."""
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


class SymplecticMatrix(Checked, namedtuple("SymplecticMatrix", "dim_half entries")):
    """A validated element of Sp(2m): entries is a read-only float array."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2 * self.dim_half


def validate_symplectic(M: np.ndarray, tol: float = DEFAULT_TOL) -> SymplecticMatrix:
    """Check M^T J M = J (and det M = 1) within tol and wrap the matrix.

    Raises OddDimension for non-square or odd-dimensional input,
    InvalidParameter for an entry that is not finite or whose square
    overflows a float, and NotSymplectic with the max-norm residual otherwise.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise OddDimension(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 != 0:
        raise OddDimension(f"dimension {M.shape[0]} is odd")
    m = M.shape[0] // 2
    J = standard_form(m)
    peak = float(np.abs(M).max())
    if not peak <= np.sqrt(np.finfo(float).max):
        raise InvalidParameter(f"matrix entries must square to a finite float, got {peak:.3e}")
    scale = max(1.0, peak) ** 2
    residual = float(np.abs(M.T @ J @ M - J).max())
    if residual > tol * scale:
        raise NotSymplectic(residual, tol * scale)
    det_err = abs(np.linalg.det(M) - 1.0)
    if det_err > max(tol * scale, 1e-6):
        raise NotSymplectic(det_err, tol * scale)
    return SymplecticMatrix(dim_half=m, entries=M)


# ---------------------------------------------------------------------------
# unipotent invariants
# ---------------------------------------------------------------------------

class WilliamsonInvariants(Checked, JsonFields, namedtuple(
        "WilliamsonInvariants", "nu0 b0 b_plus b_minus nu_g nu_a m")):
    """Block counts of a unipotent symplectic map.

    nu0 counts zero planes (including d = 1 odd chains, which coincide with
    them), b0 the odd chain pairs of length >= 3, b_plus/b_minus the signed
    even chains.  nu_g is the geometric and 2*nu_a the algebraic multiplicity
    of eigenvalue 1; m is the half-dimension of the block.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if min(self.nu0, self.b0, self.b_plus, self.b_minus) < 0:
            raise InvalidParameter(f"negative block count in {self}")
        if self.nu_g != 2 * (self.b0 + self.nu0) + self.b_plus + self.b_minus:
            raise UnresolvedNormalForm(
                f"nu_g = {self.nu_g} != 2(b0 + nu0) + b+ + b- "
                f"= {2 * (self.b0 + self.nu0) + self.b_plus + self.b_minus}"
            )
        if not (self.nu_g / 2 <= self.nu_a <= self.m):
            raise UnresolvedNormalForm(f"nu_a = {self.nu_a} outside [nu_g/2, m]")
        if self.nu_a < self.nu0 + self.b0 + self.b_plus + self.b_minus:
            raise UnresolvedNormalForm("nu_a < nu0 + b0 + b+ + b-")

    @classmethod
    def from_json(cls, obj: dict) -> "WilliamsonInvariants":
        """Raises MalformedInput on a missing or unknown key, a value that is
        not an integer or a negative count."""
        where = "williamson invariants"
        keys = ("nu0", "b0", "b_plus", "b_minus", "nu_g", "nu_a", "m")
        json_object(obj, keys, where)
        counts = {key: json_field(obj, key, int, where) for key in keys}
        for key, value in counts.items():
            if value < 0:
                raise MalformedInput(f"{where}: {key!r} must be >= 0, got {value}")
        return cls(**counts)


def williamson_invariants(A: SymplecticMatrix, tol: float = DEFAULT_TOL) -> WilliamsonInvariants:
    """Normal-form counts (nu0, b0, b_plus, b_minus) of a unipotent map.

    The ranks of N^j, N = A - I, give the Jordan partition: size-1 blocks
    come two per zero plane and odd blocks >= 3 pair up into b0 chains.  The
    chains of size s = 2d are signed by the form (-1)^(d-1) u^T J N^(s-1) v
    on ker N^s, whose radical is ker N^(s-1) + N ker N^(s+1) (Burgoyne &
    Cushman, J. Algebra 44, 1977; Long 2002).  As K^T J = -J K for K = log A,
    and K^(s-1) = N^(s-1) on ker N^s, it is the form S(K^(d-1) u, K^(d-1) v).
    """
    n = A.dim
    m = A.dim_half
    N = A.entries - np.eye(n)
    powers = [np.eye(n), N]
    with np.errstate(over="ignore"):    # an overflow to inf fails the bound below
        while len(powers) <= n:
            powers.append(powers[-1] @ N)

    # nilpotency: N^n must vanish up to the rounding of the power products,
    # tol * n * |N|^n; dividing by |N| n times keeps the bound from overflowing
    peak = float(np.abs(powers[n]).max())
    nm = max(1.0, float(np.linalg.norm(N, 2)))
    excess = peak
    for _ in range(n):
        excess /= nm
    if not excess <= tol * n:
        raise NotUnipotent(f"(A - I)^{n} has max entry {peak:.3e}")

    rank_tol = max(tol, 1e-11) * max(1.0, float(np.abs(N).max())) * n

    # ranks[j] = rank N^j, with N^0 = I of full rank and N^(n+1) = 0
    ranks = [n] + [_rank(P, rank_tol) for P in powers[1:]] + [0]
    mult = {}
    for s in range(1, n + 1):
        c = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
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

    J = standard_form(m)
    b_plus = b_minus = 0
    for s, c in sorted(mult.items()):
        if s % 2 != 0:
            continue
        U = _null_basis(powers[s], rank_tol)
        beta = (-1) ** (s // 2 - 1) * (U.T @ J @ powers[s - 1] @ U)
        beta = (beta + beta.T) / 2.0
        vals = np.linalg.eigvalsh(beta)
        zero_cut = max(rank_tol, float(np.abs(vals).max()) * 1e-9)
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


def _null_basis(A: np.ndarray, tol: float) -> np.ndarray:
    u, s, vH = np.linalg.svd(A)
    cutoff = max(tol, (s[0] if s.size else 0.0) * 1e-12)
    rank = int(np.sum(s > cutoff))
    return vH[rank:].T.conj()


def _rank(A: np.ndarray, tol_scale: float) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    cutoff = max(tol_scale, s[0] * 1e-12, 1e-300)
    return int(np.sum(s > cutoff))
