"""Dense linear-algebra helpers: Hermitian semigroups with their closed-form
integrals, and operator norms.

Everything here works on plain complex ndarrays.  All exponentials are of
Hermitian matrices and go through one eigendecomposition each, which
``HermitianFlow`` reuses for the closed-form corrector integrals; there is no
scaling-and-squaring.
"""

import numpy as np

from .errors import IllConditioned

# relative eigenvalue gap below which the confluent limit s*exp(-l*s) is used
CONFLUENT_RTOL = 1e-10


def herm(a):
    """Symmetrized copy (A + A*)/2, batched over leading axes."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def hermiticity_defect(a):
    """Relative Hermiticity defect ||A - A*|| / max(||A||, 1e-300)."""
    n = np.linalg.norm(a)
    if n == 0.0:
        return 0.0
    return np.linalg.norm(a - a.conj().T) / n


def opnorm(a):
    """Spectral norm (largest singular value) from a full SVD."""
    return float(np.linalg.norm(np.asarray(a), 2))


def eigh_herm(a):
    """Eigendecomposition of a (numerically) Hermitian matrix."""
    return np.linalg.eigh(herm(a))


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
    """Semigroup e^{-Hs} of a Hermitian H from one eigendecomposition.

    ``matrix`` may carry leading batch axes, (..., n, n); every method then
    acts per matrix of the batch.
    """

    def __init__(self, matrix):
        self.w, self.v = np.linalg.eigh(herm(matrix))

    def _vh(self):
        return np.swapaxes(self.v.conj(), -1, -2)

    def expm(self, s):
        """e^{-Hs}."""
        return (self.v * np.exp(-self.w * s)[..., None, :]) @ self._vh()

    def apply(self, s, vec):
        """e^{-Hs} vec for ``vec`` of shape (..., n)."""
        coeffs = np.exp(-self.w * s) * (self._vh() @ vec[..., None])[..., 0]
        return (self.v @ coeffs[..., None])[..., 0]

    def integral(self, n_mat, s):
        """Closed form of int_0^s e^{-H(s-t)} N e^{-H t} dt.

        Exact in the eigenbasis of H, with the confluent limit on
        (numerically) degenerate eigenvalue pairs.
        """
        vh = self._vh()
        ntil = vh @ n_mat @ self.v
        return self.v @ (confluent_weights_batch(self.w, s) * ntil) @ vh


def inv_sqrtm_herm(a):
    """A^{-1/2} for Hermitian positive definite A."""
    w, v = eigh_herm(a)
    if w.min() <= 0:
        raise IllConditioned("matrix not positive definite")
    return (v * (w ** -0.5)) @ v.conj().T
