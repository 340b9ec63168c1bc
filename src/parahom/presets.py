"""Named coefficient presets (cosine/sine lattice harmonics).

Every preset returns a PeriodicProblem on a cubic lattice; parameters come
from the experiment config.  Random presets draw their harmonics from a
seeded generator so runs are reproducible.
"""

import inspect

import numpy as np

from . import fields as fd
from .cell import PeriodicProblem
from .errors import ConfigError
from .lattice import cubic_lattice


def sampling_grid(n_modes, d):
    """4 samples per mode cutoff and axis: coefficient products alias-free."""
    return (max(4 * n_modes, 2 * n_modes + 2),) * d


def osc1d(n_modes=16, lam=1.0):
    """d=1, n=m=1, b(D)=D, g(x) = 2 + cos(2 pi x); the effective
    coefficient is the harmonic mean sqrt(3)."""
    lat = cubic_lattice(1)
    grid = sampling_grid(n_modes, 1)
    g = fd.harmonic_field(grid, 1, 1, [((1,), [[1.0]], 0.0)],
                          const=[[2.0]])
    return PeriodicProblem(lat, np.array([[[1.0]]]), g, lam=lam)


def osc1d_full(n_modes=16, lam=4.0):
    """1D problem exercising every term: oscillatory g, a_1, and potential."""
    lat = cubic_lattice(1)
    grid = sampling_grid(n_modes, 1)
    g = fd.harmonic_field(grid, 1, 1, [((1,), [[0.9]], 0.0)], const=[[2.0]])
    a1 = fd.harmonic_field(grid, 1, 1,
                           [((1,), [[0.4]], 0.3), ((2,), [[0.2j]], 0.0)])
    q = fd.harmonic_field(grid, 1, 1, [((1,), [[0.5]], 1.1)], const=[[0.2]])
    return PeriodicProblem(lat, np.array([[[1.0]]]), g,
                           a=np.stack([a1]), Qdensity=q, lam=lam)


def random_scalar_2d(seed, n_modes=8, lam=1.0):
    """d=2, n=1, m=2, b(D)=D (gradient); random smooth HPD g with three
    harmonics of contrast 0.45 in all."""
    rng = np.random.default_rng(seed)
    lat = cubic_lattice(2)
    grid = sampling_grid(n_modes, 2)
    terms = []
    total = 0.0
    for _ in range(3):
        h = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        if h == (0, 0):
            h = (1, 0)
        sym = rng.standard_normal((2, 2))
        sym = 0.5 * (sym + sym.T) * 0.45 / 3
        phase = rng.uniform(0, 2 * np.pi)
        terms.append((h, sym, phase))
        total += np.linalg.norm(sym, 2)
    g = fd.harmonic_field(grid, 2, 2, terms,
                          const=np.eye(2) * (1.0 + 1.3 * total))
    b = np.zeros((2, 2, 1))
    b[0, 0, 0] = 1.0
    b[1, 1, 0] = 1.0
    return PeriodicProblem(lat, b, g, lam=lam)


def divergence_free_2d(n_modes=8, lam=1.0):
    """d=2, n=1, m=2 with divergence-free g columns (stream-function build)
    and constant first-order coefficient, so both cell correctors vanish."""
    lat = cubic_lattice(2)
    grid = sampling_grid(n_modes, 2)
    w = (2 * np.pi) ** 2 * 0.015
    # g = 2 I + w(x) [[-1, 1], [1, -1]], w(x) = w cos(2 pi (x1 + x2))
    terms = [((1, 1), np.array([[-w, w], [w, -w]]), 0.0)]
    g = fd.harmonic_field(grid, 2, 2, terms, const=2.0 * np.eye(2))
    b = np.zeros((2, 2, 1))
    b[0, 0, 0] = 1.0
    b[1, 1, 0] = 1.0
    a1 = fd.constant_field(grid, [[0.12]])
    a2 = fd.constant_field(grid, [[-0.06]])
    return PeriodicProblem(lat, b, g, a=np.stack([a1, a2]), lam=lam)


def constant_2d(n_modes=6, lam=1.0):
    """Constant-coefficient control problem (fiber equals effective)."""
    lat = cubic_lattice(2)
    grid = sampling_grid(n_modes, 2)
    g0 = np.array([[1.4, 0.2], [0.2, 1.1]])
    g = fd.constant_field(grid, g0)
    b = np.zeros((2, 2, 1))
    b[0, 0, 0] = 1.0
    b[1, 1, 0] = 1.0
    return PeriodicProblem(lat, b, g, lam=lam)


def random_fiber_instance(seed, d=1, n_modes=16, lam=6.0):
    """Random smooth problem for the abstract-vs-explicit cross-check.

    b(D) = D is the gradient, n = 1 and m = d, with a_j and potential.
    """
    rng = np.random.default_rng(seed)
    lat = cubic_lattice(d)
    grid = sampling_grid(n_modes, d)
    b = np.eye(d)[:, :, None]
    n, m = 1, d

    def rand_terms(p, scale, hermitize=True):
        terms = []
        for _ in range(2):
            h = tuple(int(v) for v in rng.integers(-2, 3, size=d))
            if all(v == 0 for v in h):
                h = (1,) * d
            mat = (rng.standard_normal((p, p))
                   + 1j * rng.standard_normal((p, p))) * scale / 2
            if hermitize:
                mat = 0.5 * (mat + mat.conj().T)
            terms.append((h, mat, rng.uniform(0, 2 * np.pi)))
        return terms

    gt = rand_terms(m, 0.5)
    tot = sum(np.linalg.norm(t[1], 2) for t in gt)
    g = fd.harmonic_field(grid, m, m, gt, const=np.eye(m) * (1.0 + 1.4 * tot))
    # first-order coefficients are arbitrary matrices: keep them non-Hermitian
    a = np.stack([fd.harmonic_field(grid, n, n,
                                    rand_terms(n, 0.35, hermitize=False))
                  for _ in range(d)])
    q = fd.harmonic_field(grid, n, n, rand_terms(n, 0.4),
                          const=0.1 * np.eye(n))
    return PeriodicProblem(lat, b, g, a=a, Qdensity=q, lam=lam)


PRESETS = {
    "osc1d": osc1d,
    "osc1d_full": osc1d_full,
    "random_scalar_2d": random_scalar_2d,
    "divergence_free_2d": divergence_free_2d,
    "constant_2d": constant_2d,
    "random_fiber": random_fiber_instance,
}


def make_problem(name, **kwargs):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    try:
        inspect.signature(PRESETS[name]).bind(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"preset {name!r}: {exc}") from exc
    return PRESETS[name](**kwargs)
