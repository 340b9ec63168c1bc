import numpy as np
import pytest

from parahom.errors import SingularBasis
from parahom.lattice import build_lattice, cubic_lattice

import oracles


def test_integer_lattice_1d():
    lat = cubic_lattice(1)
    assert lat.r0 == pytest.approx(np.pi)
    assert lat.r1 == pytest.approx(np.pi)
    assert lat.cell_volume == pytest.approx(1.0)


def test_integer_lattice_2d():
    lat = cubic_lattice(2)
    assert lat.r0 == pytest.approx(np.pi)
    assert lat.r1 == pytest.approx(np.pi * np.sqrt(2))


def test_integer_lattice_3d():
    lat = cubic_lattice(3)
    assert lat.r0 == pytest.approx(np.pi)
    assert lat.r1 == pytest.approx(np.pi * np.sqrt(3))


def test_dual_relations():
    basis = np.array([[1.3, 0.2], [-0.1, 0.9]])
    lat = build_lattice(basis)
    gram = lat.dual_basis @ basis.T
    assert np.abs(gram - 2 * np.pi * np.eye(2)).max() < 1e-12
    assert lat.r0 <= lat.r1 + 1e-12


def test_hexagonal_radii_vs_voronoi_oracle():
    basis = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    lat = build_lattice(basis)
    r0_ref, r1_ref = oracles.voronoi_radii(lat.dual_basis)
    assert lat.r0 == pytest.approx(r0_ref, rel=1e-10)
    assert lat.r1 == pytest.approx(r1_ref, rel=1e-10)


def test_singular_basis_raises():
    with pytest.raises(SingularBasis):
        build_lattice(np.array([[1.0, 2.0], [0.5, 1.0]]))
