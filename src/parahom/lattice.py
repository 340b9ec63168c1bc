"""Lattice geometry: elementary cell, dual lattice, Brillouin zone radii."""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import SingularBasis

_DET_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Periodicity lattice and its dual.

    ``basis`` rows are the primitive vectors a_j; ``dual_basis`` rows b^l
    satisfy <b^l, a_j> = 2*pi*delta.  ``r0`` is the inscribed-ball radius of
    the closed Brillouin zone, ``r1`` its half-diameter.
    """

    dimension: int
    basis: np.ndarray
    dual_basis: np.ndarray
    cell_volume: float
    r0: float
    r1: float

    @property
    def is_rectangular(self):
        off = self.basis - np.diag(np.diag(self.basis))
        return bool(np.max(np.abs(off)) < 1e-12 * max(np.max(np.abs(self.basis)), 1.0))

    def dual_vector(self, index):
        """Dual lattice vector for an integer multi-index."""
        return np.asarray(index, dtype=float) @ self.dual_basis

    def dual_shell(self):
        """All nonzero dual vectors with multi-index max-norm <= 2."""
        idx = [i for i in product(range(-2, 3), repeat=self.dimension)
               if any(i)]
        return np.array([self.dual_vector(i) for i in idx])


def _voronoi_vertex_radius(dual_basis):
    """Circumradius of the origin's Voronoi cell of the dual lattice."""
    from scipy.spatial import Voronoi

    d = dual_basis.shape[0]
    idx = list(product(range(-2, 3), repeat=d))
    pts = np.array([np.asarray(i, dtype=float) @ dual_basis for i in idx])
    origin = idx.index(tuple([0] * d))
    vor = Voronoi(pts)
    region = vor.regions[vor.point_region[origin]]
    verts = vor.vertices[[v for v in region if v != -1]]
    return float(np.max(np.linalg.norm(verts, axis=1)))


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
    vol = abs(det)

    # inscribed radius: half the shortest nonzero dual vector (valid for any
    # lattice: Voronoi faces sit at distance |b|/2)
    shell = [np.asarray(i, dtype=float) @ dual
             for i in product(range(-2, 3), repeat=d) if any(i)]
    r0 = 0.5 * min(np.linalg.norm(b) for b in shell)

    off = dual - np.diag(np.diag(dual))
    if d == 1:
        r1 = r0
    elif np.max(np.abs(off)) < 1e-12 * np.max(np.abs(dual)):
        # rectangular: the zone is a box, half-diagonal is exact
        r1 = 0.5 * float(np.linalg.norm(np.diag(dual)))
    else:
        r1 = _voronoi_vertex_radius(dual)
    return Lattice(d, basis, dual, vol, float(r0), float(r1))


def cubic_lattice(d):
    return build_lattice(np.eye(d))
