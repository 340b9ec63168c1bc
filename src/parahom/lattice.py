"""Lattice geometry: elementary cell, dual lattice, Brillouin zone inradius."""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import SingularBasis

_DET_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Periodicity lattice and its dual.

    ``basis`` rows are the primitive vectors a_j; ``dual_basis`` rows b^l
    satisfy <b^l, a_j> = 2*pi*delta.
    """

    dimension: int
    basis: np.ndarray
    dual_basis: np.ndarray
    cell_volume: float

    @property
    def is_rectangular(self):
        off = self.basis - np.diag(np.diag(self.basis))
        return bool(np.max(np.abs(off)) < 1e-12 * max(np.max(np.abs(self.basis)), 1.0))

    def dual_shell(self):
        """Rows: the nonzero dual vectors with multi-index max-norm <= 2."""
        return np.array([np.asarray(i, dtype=float) @ self.dual_basis
                         for i in product(range(-2, 3), repeat=self.dimension)
                         if any(i)])

    @property
    def r0(self):
        """Inscribed-ball radius of the closed Brillouin zone: half the
        shortest nonzero dual vector (valid for any lattice: Voronoi faces
        sit at distance |b|/2)."""
        return float(0.5 * min(np.linalg.norm(b) for b in self.dual_shell()))


def build_lattice(basis):
    """Construct a Lattice from primitive vectors (rows of ``basis``)."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise SingularBasis(f"basis must be d x d, got {basis.shape}")
    det = np.linalg.det(basis)
    if abs(det) < _DET_TOL * max(np.max(np.abs(basis)) ** d, 1.0):
        raise SingularBasis("basis vectors are linearly dependent")
    dual = 2.0 * np.pi * np.linalg.inv(basis.T)
    return Lattice(d, basis, dual, abs(det))


def cubic_lattice(d):
    return build_lattice(np.eye(d))
