"""Spectral engine for periodic parabolic homogenization.

Subpackages and modules:

* ``abstract`` -- finite-dimensional threshold engine for Hermitian pencils
* ``lattice``/``fields`` -- cell geometry and spectral field algebra
* ``cell`` -- cell problems, effective matrix, third-order coefficients
* ``fibers`` -- quasimomentum fibers, correctors, remainders, cross-validation
* ``evolution`` -- box flows, smoothing, source terms, convergence sweeps
* ``scalar_example`` -- the scalar metric/magnetic/singular-potential operator
* ``cli`` -- the ``homog`` command line harness
"""

from .lattice import Lattice, build_lattice, cubic_lattice
from .fields import Truncation
from .cell import CellSolution, NGCoefficients, PeriodicProblem, \
    ng_coefficients, solve_cell_problems, voigt_reuss
from .fibers import FiberOperator, FiberPencil, assemble_fiber, \
    cross_validate_abstract, estimate_constants, fiber_corrector, \
    fiber_remainder
from .abstract import AbstractFamily, BorderedFamily, ThresholdData, \
    compute_threshold

__all__ = [
    "Lattice", "build_lattice", "cubic_lattice", "Truncation",
    "PeriodicProblem", "CellSolution", "NGCoefficients",
    "solve_cell_problems", "ng_coefficients", "voigt_reuss",
    "FiberOperator", "FiberPencil", "assemble_fiber", "estimate_constants",
    "fiber_corrector", "fiber_remainder", "cross_validate_abstract",
    "AbstractFamily", "BorderedFamily", "ThresholdData",
    "compute_threshold",
]

__version__ = "0.1.0"
