"""Dense linear-algebra helpers: Hermitian semigroups with their closed-form
integrals, operator norms, and a Cholesky certificate of a spectral floor.

Everything here works on plain complex ndarrays.  All exponentials are of
Hermitian matrices and go through one eigendecomposition each, which
``HermitianFlow`` reuses for the closed-form corrector integrals; there is no
scaling-and-squaring.
"""

import numpy as np
import scipy.linalg

from .errors import IllConditioned

# relative eigenvalue gap below which the confluent limit s*exp(-l*s) is used
CONFLUENT_RTOL = 1e-10


def herm(a):
    """Symmetrized copy (A + A*)/2, batched over leading axes."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def opnorm(a):
    """Spectral norm (largest singular value) from a full SVD."""
    return float(np.linalg.norm(np.asarray(a), 2))


def herm_norm(a):
    """Spectral norm max|eigvalsh| of the Hermitian part of ``a``, batched
    over leading axes; equals :func:`opnorm` on Hermitian matrices."""
    return np.abs(np.linalg.eigvalsh(herm(a))).max(axis=-1)


def inf_norm_bound(a):
    """Upper bound of ||A||_inf, and so of every |eigenvalue|, for a complex
    (D, D) array: the largest row sum of |Re| + |Im|, raised by 4Du to cover
    the rounding of the 2D-term sums.  NaN when an entry is NaN."""
    rows = np.abs(a.view(float)).sum(axis=-1)
    return rows.max() * (1.0 + 2.0 ** -50 * a.shape[-1])


def spectrum_above(matrix, mu):
    """True when one Cholesky proves every eigenvalue of the Hermitian
    ``matrix`` (D, D) above ``mu``; False if it fails or an entry or mu is
    not finite.

    zpotrf runs on matrix - (mu + gamma) I.  Success gives R*R = that matrix
    + dA with ||dA||_2 <= gamma1 = D c (1+c) nrm, c = sqrt(2)(D+2)u/(1-(D+2)u)
    (Higham, Accuracy and Stability, Thm 10.3 with complex arithmetic) and
    nrm >= ||matrix - mu I||_inf; gamma adds 4u(nrm + gamma1) for the rounded
    diagonal shift.  So lambda_min > mu.
    """
    u, dim = 2.0 ** -53, matrix.shape[-1]
    shifted = matrix.copy()
    diag = shifted.reshape(-1)[::dim + 1]
    diag -= mu
    nrm = inf_norm_bound(shifted)
    if not np.isfinite(nrm):         # OpenBLAS's zpotrf passes NaN pivots
        return False
    c = np.sqrt(2.0) * (dim + 2) * u / (1.0 - (dim + 2) * u)
    gamma = dim * c * (1.0 + c) * nrm
    diag -= gamma + 4.0 * u * (nrm + gamma)
    # the transpose is Fortran-ordered with the same spectrum: no copy
    return scipy.linalg.lapack.zpotrf(shifted.T, overwrite_a=True)[1] == 0


def check_floor(w, cstar_check, tau_sq, error, what):
    """Raise ``error`` when a spectrum falls below its floor.

    ``w`` holds eigenvalues (..., n) and the floor is cstar_check * tau_sq,
    with ``tau_sq`` = |k|^2 + eps^2 broadcasting over the leading axes.  The
    slack is 1e-9 * max(1, floor); no floor is enforced when cstar_check <= 0.
    """
    if cstar_check <= 0.0:
        return
    wmin = np.ravel(np.min(w, axis=-1))
    floor = np.broadcast_to(cstar_check * np.ravel(tau_sq), wmin.shape)
    bad = np.flatnonzero(wmin < floor - 1e-9 * np.maximum(1.0, floor))
    if bad.size:
        i = bad[0]
        raise error(f"{what} eigenvalue {wmin[i]:.3e} below bound {floor[i]:.3e}")


def confluent_weights_batch(lam, s):
    """Weights w[..., i, j] = (e^{-lam_j s} - e^{-lam_i s})/(lam_i - lam_j).

    ``lam`` has shape (..., n), the output (..., n, n).  This is the entrywise
    kernel of int_0^s e^{-L(s-t)} (.) e^{-L t} dt in the eigenbasis of L.
    Degenerate pairs use the limit s*e^{-lam s}.
    """
    lam = np.asarray(lam, dtype=float)
    e = np.exp(-lam * s)
    li = lam[..., :, None]
    lj = lam[..., None, :]
    diff = li - lj
    scale = np.maximum(np.abs(li), np.abs(lj))
    degen = np.abs(diff) <= CONFLUENT_RTOL * np.maximum(scale, 1.0)
    safe = np.where(degen, 1.0, diff)
    w = (e[..., None, :] - e[..., :, None]) / safe
    w_conf = s * np.exp(-0.5 * (li + lj) * s)
    return np.where(degen, w_conf, w)


class HermitianFlow:
    """Semigroup e^{-Hs} of a Hermitian H = U diag(w) U* from one
    eigendecomposition, sandwiched by an optional Hermitian ``outer`` M: with
    v = M U, expm(s) is M e^{-Hs} M and integral(N, s) is M int_0^s
    e^{-H(s-t)} (M N M) e^{-Ht} dt M.  ``matrix`` may carry leading batch
    axes, (..., n, n); every method then acts per matrix of the batch.
    """

    def __init__(self, matrix, outer=None):
        self.w, self.v = np.linalg.eigh(herm(matrix))
        if outer is not None:
            self.v = outer @ self.v

    @classmethod
    def from_eigh(cls, w, v):
        """Flow of an eigendecomposition already at hand (no copy)."""
        flow = cls.__new__(cls)
        flow.w, flow.v = w, v
        return flow

    def _vh(self):
        return np.swapaxes(self.v.conj(), -1, -2)

    def _weigh(self, weights, right=None):
        """v W v* right (v W v* when ``right`` is None) for eigen-coordinate
        weights W, diag(weights) when ``weights`` is (..., r)."""
        left = (self.v * weights[..., None, :] if weights.ndim == self.w.ndim
                else self.v @ weights)
        return left @ (self._vh() if right is None else self._vh() @ right)

    def decay(self, s):
        """Eigen-coordinate weights e^{-ws}."""
        return np.exp(-self.w * s)

    def expm(self, s):
        """M e^{-Hs} M."""
        return self._weigh(self.decay(s))

    def apply(self, s, vec):
        """M e^{-Hs} M vec for ``vec`` of shape (..., n)."""
        return self._weigh(self.decay(s), vec[..., None])[..., 0]

    def integral(self, n_mat, s):
        """Closed form of M int_0^s e^{-H(s-t)} (M N M) e^{-Ht} dt M, exact in
        the eigenbasis of H with the confluent limit on degenerate pairs."""
        return self._weigh(confluent_weights_batch(self.w, s)
                           * (self._vh() @ n_mat @ self.v))


def inv_sqrtm_herm(a):
    """A^{-1/2} for Hermitian positive definite A."""
    w, v = np.linalg.eigh(herm(a))
    if w.min() <= 0:
        raise IllConditioned("matrix not positive definite")
    return (v * (w ** -0.5)) @ v.conj().T
