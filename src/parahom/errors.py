"""Exception types shared across the package."""


class ParahomError(Exception):
    """Base class for all package errors."""


class DegenerateKernel(ParahomError):
    """The reference operator has a trivial kernel (n = 0), or its kernel
    basis is not certified: the operator does not annihilate it."""


class IllConditioned(ParahomError):
    """A restricted Gram matrix is numerically singular."""


class NonPositiveL(ParahomError):
    """The threshold quadratic form violates its spectral lower bound."""


class OutsideThresholdBall(ParahomError):
    """(t^2 + eps^2)^{1/2} exceeds tau_0; threshold expansions do not apply."""


class RankMismatch(ParahomError):
    """Spectral projector rank differs from the kernel dimension."""


class MismatchBeyondTolerance(ParahomError):
    """A cross-validation identity failed; carries the offending object name."""

    def __init__(self, name, value, tol):
        self.name = name
        self.value = value
        self.tol = tol
        super().__init__(f"{name}: mismatch {value:.3e} exceeds tolerance {tol:.1e}")


class SingularBasis(ParahomError):
    """Lattice basis vectors are linearly dependent."""


class PositivityViolation(ParahomError):
    """Assembled fiber matrix dips below its spectral lower bound."""


class NonPositiveEffective(ParahomError):
    """Effective symbol violates its positivity bound."""


class RegimeViolation(ParahomError):
    """Operation requested outside its validity regime (e.g. s < eps^2)."""


class QuadratureUnderResolved(ParahomError):
    """Halving the quadrature step changed the result beyond tolerance."""


class InsufficientDecades(ParahomError):
    """A rate fit needs at least three dyadic points."""


class DegenerateSeries(ParahomError):
    """Errors at machine floor; slope fit meaningless."""


class MeanNotZero(ParahomError):
    """A field required to have zero cell average does not."""


class ConfigError(ParahomError):
    """Malformed experiment configuration."""


class DataError(ParahomError):
    """Malformed or missing grid data file."""
