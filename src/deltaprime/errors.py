"""Exception and warning taxonomy, and the one input-array rule, shared across the package.

DomainError subclasses map to CLI exit code 1 (math-domain failures,
poles, infeasible configurations); SchemaError maps to exit code 2
(malformed configs).  Warnings never abort a computation.
"""

import numpy as np


def _checked_floats(values, name: str, increasing: bool = False, dtype=float) -> np.ndarray:
    """A read-only, at least 1-d copy of values as dtype (float or complex); the one
    finite check of outside data.  ValueError names the first non-finite value, or
    says the values are not increasing where asked."""
    a = np.array(values, dtype=dtype, ndmin=1)
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")
    if increasing and a.size > 1 and not (a[1:] > a[:-1]).all():
        raise ValueError(f"{name} must be strictly increasing")
    a.setflags(write=False)
    return a


class DomainError(ValueError):
    """Base class for mathematical domain errors."""


class SchemaError(ValueError):
    """A configuration file or record violates the published schema."""


# -- boundary-condition algebra ------------------------------------------

class SplitHasNoLambda(DomainError):
    """Split conditions decouple the line; no transmission matrix exists."""


class GammaPole(DomainError):
    """theta = (2+gamma)/(2-gamma) degenerates at |gamma| = 2: no delta'-potential,
    characteristic or family-3d model exists there."""


class SingularD(DomainError):
    """B-to-Lambda denominator D vanishes (decoupling limit)."""


class PlaneNotGraph(DomainError):
    """A boundary plane admits no unitary parametrization numerically."""


class DegenerateComposition(DomainError):
    """gamma-composition denominator 1 + g1*g2/4 vanishes."""


# -- transfer matrices / approximation families --------------------------

class ComplexCoefficient(DomainError):
    """Three-atom family coefficients are real only for |gamma| > 2."""


class AmbiguousClassification(DomainError):
    """Neither the limit nor the decoupling criterion stabilizes."""


# -- line spectra ----------------------------------------------------------

class NotAnEigenvalue(DomainError):
    """Eigenfunction extraction requested where no eigenvalue of the
    counting matrix (T or H) vanishes: kappa is not a bound state."""


class NotSelfAdjoint(DomainError):
    """The condition plane is not Lagrangian: the boundary form does not
    vanish on it, so no bound-state count exists."""


class GridTooCoarse(Warning):
    """A resolution too coarse for what it must resolve.

    On the line: a bound state's matching residual exceeds
    STATE_RESIDUAL_TOL, so its null vector is not resolved to working
    precision.  For measures: a Nystrom grid's node spacing next to some
    negative atom exceeds |beta_k w_k|, so that grid's count of negative
    eigenvalues falls short of the number of negative atoms.
    """


# -- variational certificates ---------------------------------------------

class SupportOverlap(DomainError):
    """Chosen test-function supports collide."""


class NeighborhoodOverlap(DomainError):
    """delta-neighborhoods of distinct subsets intersect."""


class SubsetNotNegative(DomainError):
    """A subset carries non-negative intensity mass."""


# -- measures / kernels -----------------------------------------------------

class DepthTooLarge(DomainError):
    """Cantor construction depth capped at 20."""


class JumpOffSupport(DomainError):
    """Function jumps at a point carrying no measure."""


class EvaluationOnAtom(DomainError):
    """Kernel or derivative-family evaluation requested on an atom."""


class UnconvergedEigenvalue(DomainError):
    """Grid refinement disagrees beyond 10x the estimated rate."""


# -- deficiency elements ----------------------------------------------------

class BranchCut(DomainError):
    """Spectral parameter lies on [0, +inf)."""


class IllConditioned(Warning):
    """Gram singular values cluster at the rank tolerance."""
