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


def test_truncation_modes_built_once_and_read_only():
    tr = fd.Truncation(3, 2)
    modes = tr.modes
    assert tr.modes is modes
    with pytest.raises(ValueError):
        modes[0, 0] = 5
    assert fd.Truncation(3, 2).modes[0, 0] == -3


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



def _random_symbol(rng, d, rows, cols, constant):
    """Random symbol xi -> A0 + sum_l xi_l A_l with (rows, cols) blocks, or
    its constant part A0 alone."""
    a = rng.standard_normal((d + 1, rows, cols)) \
        + 1j * rng.standard_normal((d + 1, rows, cols))
    if constant:
        return lambda xi: a[0]
    return lambda xi: a[0] + np.tensordot(xi, a[1:], axes=1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("left_const,right_const",
                         [(False, False), (True, False), (False, True),
                          (True, True)])
def test_sandwich_matrices_match_dense_route(d, left_const, right_const):
    # L(D)* [field] R(D) against dense block-diagonal symbols around the
    # multiplication matrix: a p x q field with p != q, blocks whose column
    # counts differ, and a constant stack (1, p, i) standing for the same
    # block at every mode
    rng = np.random.default_rng(10 + 4 * d + 2 * left_const + right_const)
    p, q = 2, 3
    tr = fd.Truncation(3 if d == 1 else 2, d)
    lat = cubic_lattice(d)
    terms = [(tuple(rng.integers(-2, 3, size=d)),
              rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)),
              rng.uniform(0, 2 * np.pi)) for _ in range(3)]
    field = fd.harmonic_field((16,) * d, p, q, terms,
                              const=rng.standard_normal((p, q)))
    freqs = tr.freqs(lat)
    mult = fd.mult_matrix(field, tr)
    symbols, pairs = [], []
    for i, j in ((1, 2), (3, 1), (2, 2)):
        sym_l = _random_symbol(rng, d, p, i, left_const)
        sym_r = _random_symbol(rng, d, q, j, right_const)
        stacks = [np.array([sym(f) for f in (freqs[:1] if const else freqs)])
                  for sym, const in ((sym_l, left_const),
                                     (sym_r, right_const))]
        symbols.append((sym_l, sym_r))
        pairs.append(tuple(stacks))
    together = fd.sandwich_matrices(field, tr, pairs)
    for (sym_l, sym_r), pair, got in zip(symbols, pairs, together):
        ref = (fd.symbol_blockdiag(sym_l, tr, lat).conj().T @ mult
               @ fd.symbol_blockdiag(sym_r, tr, lat))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        # several pairs in one call equal one call per pair, bit for bit
        alone, = fd.sandwich_matrices(field, tr, [pair])
        assert np.array_equal(alone, got)
