"""Periodic matrix-valued fields on the unit cell and their spectral algebra.

Fields are dense complex arrays of shape ``(*grid_shape, p, q)``: grid samples
of a p x q matrix field on the affine cell grid x = sum_l (i_l/G_l) a_l.

Vectors of the truncated Fourier space carry shape ``(M, n)`` (mode-major,
flattened C-order to ``M*n`` when used as matrix columns), with the orthonormal
basis e_b(x) = |Omega|^{-1/2} exp(i<b, x>).

Three operator representations are used:

* multiplication matrices [C] on the truncated space (Fourier convolution),
  gathered from the field's FFT bins through one small mode-difference index
  per axis (:func:`difference_index`),
* constant-coefficient symbols as block stacks (M, p, q), one block per mode,
  applied by broadcasting in the Galerkin sandwiches L(D)* [C] R(D), which
  are accumulated in place with no multiplication matrix,
* maps into the quadrature-grid space with the weighted inner product
  (|Omega|/G^d) * sum over nodes, which makes X*X the alias-free Galerkin
  matrix of the quadratic form.  They are held factored, pointwise blocks
  times the evaluation matrix E of :func:`eval_matrix` times per-mode
  blocks (``fibers.GridMap``), and a form such as E*[q]E as two of them.
"""

import functools
import struct
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Truncation:
    """Symmetric Fourier mode set: all multi-indices with max-norm <= n_modes."""

    n_modes: int
    dimension: int

    @functools.cached_property
    def modes(self):
        """(M, d) multi-indices, built once and shared read-only."""
        rng = range(-self.n_modes, self.n_modes + 1)
        modes = np.array(list(product(rng, repeat=self.dimension)), dtype=int)
        modes.setflags(write=False)
        return modes

    @property
    def size(self):
        return (2 * self.n_modes + 1) ** self.dimension

    @property
    def zero_index(self):
        # modes are lexicographic over [-N..N]^d, zero sits in the middle
        return (self.size - 1) // 2

    def freqs(self, lattice, k=None):
        """Frequencies b + k of the modes: (M, d)."""
        return self.modes @ lattice.dual_basis + (0.0 if k is None else k)


def grid_freqs(grid_shape, lattice):
    """Dual-lattice frequencies of the FFT bins of a cell grid: (*grid, d)."""
    idx = np.meshgrid(*[np.fft.fftfreq(g, 1.0 / g).astype(int)
                        for g in grid_shape], indexing="ij")
    return np.stack(idx, axis=-1) @ lattice.dual_basis


def fft_coeffs(field):
    """Normalized Fourier coefficients of grid samples; index 0 is the mean."""
    field = np.asarray(field, dtype=complex)
    grid_axes = tuple(range(field.ndim - 2))
    g_total = np.prod([field.shape[a] for a in grid_axes])
    return np.fft.fftn(field, axes=grid_axes) / g_total


def field_from_coeffs(coeffs):
    """Inverse of :func:`fft_coeffs`."""
    grid_axes = tuple(range(coeffs.ndim - 2))
    g_total = np.prod([coeffs.shape[a] for a in grid_axes])
    return np.fft.ifftn(coeffs, axes=grid_axes) * g_total


def resample_field(field, new_grid):
    """Trigonometric resampling of a band-limited field to another grid."""
    field = np.asarray(field, dtype=complex)
    old_grid = field.shape[:-2]
    if tuple(old_grid) == tuple(new_grid):
        return field.copy()
    coeffs = fft_coeffs(field)
    p, q = field.shape[-2:]
    out = np.zeros((*new_grid, p, q), dtype=complex)
    d = len(old_grid)
    signed = [np.fft.fftfreq(g, 1.0 / g).astype(int) for g in old_grid]
    mesh = np.meshgrid(*signed, indexing="ij")
    flat_idx = [m.ravel() for m in mesh]
    limit = [min(o, n) // 2 for o, n in zip(old_grid, new_grid)]
    keep = np.ones(len(flat_idx[0]), dtype=bool)
    for ax in range(d):
        keep &= np.abs(flat_idx[ax]) <= limit[ax]
    src = tuple(flat_idx[ax][keep] % old_grid[ax] for ax in range(d))
    dst = tuple(flat_idx[ax][keep] % new_grid[ax] for ax in range(d))
    out[dst] = coeffs[src]
    return field_from_coeffs(out)


def mean_field(field):
    """Cell average, shape (p, q)."""
    grid_axes = tuple(range(np.ndim(field) - 2))
    return np.asarray(field).mean(axis=grid_axes)


def mult_matrix(field, trunc, trunc_cols=None):
    """Matrix of multiplication by ``field`` on the truncated Fourier space.

    Rows follow ``trunc`` and columns ``trunc_cols`` (default ``trunc``):
    shape (M_rows*p, M_cols*q).  Exact whenever the field's spectrum fits the
    sampling grid alias-free together with the mode-difference range.
    """
    coeffs = fft_coeffs(field)
    cols = trunc if trunc_cols is None else trunc_cols
    p, q = coeffs.shape[-2:]
    blocks = coeffs[difference_index(trunc, cols, coeffs.shape[:-2])]
    return blocks.reshape(trunc.size, cols.size, p, q).transpose(0, 2, 1, 3) \
        .reshape(trunc.size * p, cols.size * q)


def difference_index(rows, cols, grid):
    """FFT-bin index of every mode difference a - b, a a mode of the
    truncation ``rows`` and b of ``cols``: per axis l, (a_l - b_l) mod G_l
    over the (2N_rows+1) x (2N_cols+1) axis values, shaped to broadcast over
    the rows' d axes followed by the columns' d axes.  Modes are C-ordered
    tensor products, so indexing a (*grid, ...) coefficient array with it
    gathers the (M_rows, M_cols, ...) block by a reshape, and no index of
    that size is formed."""
    d = len(grid)
    diff = (np.arange(-rows.n_modes, rows.n_modes + 1)[:, None]
            - np.arange(-cols.n_modes, cols.n_modes + 1))
    index = []
    for ax, g in enumerate(grid):
        shape = [1] * (2 * d)
        shape[ax], shape[d + ax] = diff.shape
        index.append((diff % g).reshape(shape))
    return tuple(index)


def sandwich_matrices(field, trunc, pairs):
    """Galerkin matrices of L(D)* [field] R(D), one per symbol pair (L, R).

    L and R are block stacks (M or 1, p, i) and (M or 1, q, j) over the modes
    of ``trunc`` (1: the same block at every mode) for a (*grid, p, q) field.
    Entry (a, i; b, j) of a pair's (M*i, M*j) matrix is
    sum_pq conj(L(a)[p, i]) field^_pq(a - b) R(b)[q, j]: each field^_pq is
    gathered once as an (M, M) array for all pairs, and no multiplication
    matrix is formed.  Each term is accumulated in place, through at most
    one work array of the largest pair's size; a single pair with i = j = 1
    multiplies into the gathered copy itself and needs none.
    """
    coeffs = fft_coeffs(field)
    idx = difference_index(trunc, trunc, coeffs.shape[:-2])
    m = trunc.size
    outs = [np.zeros((m, left.shape[-1], m, right.shape[-1]), dtype=complex)
            for left, right in pairs]
    sizes = [out.size for out in outs]
    work = None if sizes == [m * m] else np.empty(max(sizes), dtype=complex)
    for p, q in np.ndindex(coeffs.shape[-2:]):
        entry = coeffs[..., p, q][idx].reshape(m, 1, m, 1)
        for out, (left, right) in zip(outs, pairs):
            term = entry if work is None else work[:out.size].reshape(out.shape)
            np.multiply(left[:, p, :].conj()[:, :, None, None], entry,
                        out=term)
            np.multiply(term, right[:, q, :], out=term)
            out += term
        # freed before the next gather
        del entry, term
    return [out.reshape(m * out.shape[1], -1) for out in outs]


def symbol_blockdiag(symbol, trunc, lattice, k=None):
    """Dense block-diagonal matrix of a constant-coefficient symbol.

    ``symbol`` maps a frequency vector to a (p, q) matrix; the block at mode b
    is symbol(b + k).  The package applies symbols as block stacks
    (:func:`sandwich_matrices`); this dense form is the reference for tests.
    """
    blocks = np.array([symbol(f) for f in trunc.freqs(lattice, k)])
    m = trunc.size
    p, q = blocks.shape[-2:]
    out = np.zeros((m, p, m, q), dtype=complex)
    out[np.arange(m), :, np.arange(m), :] = blocks
    return out.reshape(m * p, m * q)


def eval_matrix(trunc, grid_shape):
    """Unitary-column map from truncated coefficients to weighted grid values.

    E[p, m] = G^{-d/2} exp(2*pi*i <mode_m, frac_p>); E*E = identity as long as
    2*n_modes < min(grid_shape).  Nodes and modes are both C-ordered over the
    axes, so E is the Kronecker product of the per-axis factors
    G_l^{-1/2} exp(2*pi*i j b / G_l), with j b reduced mod G_l exactly.
    """
    ks = np.arange(-trunc.n_modes, trunc.n_modes + 1)
    factors = [np.exp(2j * np.pi * (np.outer(np.arange(g), ks) % g) / g)
               / np.sqrt(g) for g in grid_shape]
    return functools.reduce(np.kron, factors)


def pointwise_sqrtm(g):
    """Pointwise Hermitian square root of an HPD matrix field."""
    g = np.asarray(g, dtype=complex)
    w, v = np.linalg.eigh(g)
    if w.min() <= 0:
        raise DataError("matrix field is not positive definite on the grid")
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def pointwise_inv(g):
    return np.linalg.inv(np.asarray(g, dtype=complex))


# ---------------------------------------------------------------------------
# harmonic field builders

def harmonic_field(grid_shape, p, q, terms, const=None):
    """Field c0 + sum_k M_k * cos(2*pi*<h_k, frac> + phase_k).

    ``terms`` is an iterable of (h, matrix, phase) with integer multi-index h.
    """
    d = len(grid_shape)
    axes = [np.arange(g) / g for g in grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.zeros((*grid_shape, p, q), dtype=complex)
    if const is not None:
        out += np.asarray(const, dtype=complex)
    for h, mat, phase in terms:
        arg = sum(2.0 * np.pi * h[ax] * mesh[ax] for ax in range(d)) + phase
        out += np.cos(arg)[..., None, None] * np.asarray(mat, dtype=complex)
    return out


def constant_field(grid_shape, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    out = np.zeros((*grid_shape, *mat.shape), dtype=complex)
    out += mat
    return out


# ---------------------------------------------------------------------------
# binary grid-file format: magic "PHOM", then uint32 header words
# (d, p, q, G_1..G_d), then row-major complex128 payload of shape
# (G_1..G_d, p, q) stored as interleaved float64 pairs.

_MAGIC = b"PHOM"


def write_field(path, field):
    field = np.ascontiguousarray(np.asarray(field, dtype=complex))
    if field.ndim < 3:
        raise DataError("field must have shape (*grid, p, q)")
    grid = field.shape[:-2]
    p, q = field.shape[-2:]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", len(grid), p, q))
        fh.write(struct.pack(f"<{len(grid)}I", *grid))
        fh.write(field.astype(np.complex128).tobytes())


def read_field(path):
    """Field written by :func:`write_field`.  DataError when the file cannot
    be read, has another magic, or is shorter than its header says."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise DataError(f"{path}: bad magic {magic!r}")
            d, p, q = struct.unpack("<III", fh.read(12))
            grid = struct.unpack(f"<{d}I", fh.read(4 * d))
            count = int(np.prod(grid)) * p * q
            payload = fh.read(16 * count)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except struct.error as exc:
        raise DataError(f"{path}: truncated header ({exc})") from exc
    if len(payload) != 16 * count:
        raise DataError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype=np.complex128).copy()
    return data.reshape(*grid, p, q)
