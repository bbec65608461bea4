"""reeb_lab: desk-scale calculus for Reeb dynamics on spheres.

Symplectic index arithmetic, unipotent normal-form invariants, radial
Hamiltonian action functions, integer recurrence search for iterate indices,
persistence barcodes of filtered F2 complexes, closed-form ellipsoid models
and the planar fixed-point bookkeeping, wired together by a batch CLI.
"""

__version__ = "0.1.0"
