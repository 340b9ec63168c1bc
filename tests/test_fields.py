import numpy as np
import pytest

from parahom import fields as fd
from parahom.errors import DataError
from parahom.lattice import cubic_lattice

import oracles


def test_truncation_symmetric_and_contains_zero():
    for d in (1, 2):
        tr = fd.Truncation(3, d)
        modes = tr.modes
        assert (modes[tr.zero_index] == 0).all()
        as_set = {tuple(m) for m in modes}
        assert all(tuple(-m) in as_set for m in modes)
        assert tr.size == 7 ** d


def test_eval_matrix_unitary_columns():
    tr = fd.Truncation(5, 1)
    E = fd.eval_matrix(tr, (24,))
    assert np.abs(E.conj().T @ E - np.eye(tr.size)).max() < 1e-13


@pytest.mark.parametrize("n_modes,grid", [(5, (24,)), (4, (12, 10)),
                                           (2, (6, 8, 7))])
def test_eval_matrix_matches_direct_exponentials(n_modes, grid):
    tr = fd.Truncation(n_modes, len(grid))
    got = fd.eval_matrix(tr, grid)
    assert np.abs(got - oracles.eval_matrix_direct(tr, grid)).max() < 1e-14


def test_mult_matrix_against_quadrature_oracle():
    from scipy.integrate import quad

    tr = fd.Truncation(3, 1)
    grid = (32,)
    field = fd.harmonic_field(grid, 1, 1, [((1,), [[0.7]], 0.4),
                                           ((2,), [[0.3]], 0.0)],
                              const=[[1.5]])

    def gfun(x):
        return 1.5 + 0.7 * np.cos(2 * np.pi * x + 0.4) \
            + 0.3 * np.cos(4 * np.pi * x)

    mm = fd.mult_matrix(field, tr)
    modes = tr.modes[:, 0]
    for i in (0, 2, 5):
        for j in (1, 3, 6):
            re, _ = quad(lambda x: (gfun(x)
                                    * np.exp(2j * np.pi * (modes[j] - modes[i]) * x)).real,
                         0, 1, epsabs=1e-13)
            im, _ = quad(lambda x: (gfun(x)
                                    * np.exp(2j * np.pi * (modes[j] - modes[i]) * x)).imag,
                         0, 1, epsabs=1e-13)
            assert mm[i, j] == pytest.approx(re + 1j * im, abs=1e-12)


def test_mult_matrix_consistent_with_grid_product():
    rng = np.random.default_rng(1)
    tr = fd.Truncation(4, 2)
    grid = (20, 20)
    field = fd.harmonic_field(grid, 2, 2,
                              [((1, 0), rng.standard_normal((2, 2)), 0.3)],
                              const=np.eye(2))
    E = fd.eval_matrix(tr, grid)
    u = rng.standard_normal((tr.size, 2)) + 1j * rng.standard_normal((tr.size, 2))
    grid_vals = np.einsum("gm,mn->gn", E, u)
    prod = np.einsum("gpq,gq->gp", field.reshape(-1, 2, 2), grid_vals)
    back = np.einsum("gm,gp->mp", E.conj(), prod)
    via_matrix = (fd.mult_matrix(field, tr) @ u.reshape(-1)).reshape(tr.size, 2)
    assert np.abs(back - via_matrix).max() < 1e-12


def test_pointwise_sqrtm_squares_back():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((6, 6, 2, 2))
    g = w @ np.swapaxes(w, -1, -2) + 0.5 * np.eye(2)
    h = fd.pointwise_sqrtm(g)
    assert np.abs(h @ h - g).max() < 1e-12
    assert np.abs(h - np.swapaxes(h.conj(), -1, -2)).max() < 1e-12


def test_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    field = rng.standard_normal((8, 8, 2, 3)) + 1j * rng.standard_normal((8, 8, 2, 3))
    path = tmp_path / "field.phom"
    fd.write_field(path, field)
    back = fd.read_field(path)
    assert back.shape == field.shape
    assert np.abs(back - field).max() == 0.0


def test_grid_file_bad_magic(tmp_path):
    path = tmp_path / "bad.phom"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(DataError):
        fd.read_field(path)


def test_grid_file_truncated(tmp_path):
    rng = np.random.default_rng(4)
    field = rng.standard_normal((4, 1, 1)).astype(complex)
    path = tmp_path / "t.phom"
    fd.write_field(path, field)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataError):
        fd.read_field(path)


def test_symbol_blockdiag_values():
    tr = fd.Truncation(2, 1)
    lat = cubic_lattice(1)
    sym = fd.symbol_blockdiag(lambda q: np.array([[q[0] ** 2]]), tr, lat,
                              k=np.array([0.5]))
    freqs = tr.modes[:, 0] * 2 * np.pi + 0.5
    assert np.abs(np.diag(sym) - freqs ** 2).max() < 1e-12
