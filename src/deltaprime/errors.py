"""Exception and warning taxonomy shared across the package.

DomainError subclasses map to CLI exit code 1 (math-domain failures,
poles, infeasible configurations); SchemaError maps to exit code 2
(malformed configs).  Warnings never abort a computation.
"""


class DomainError(ValueError):
    """Base class for mathematical domain errors."""


class SchemaError(ValueError):
    """A configuration file or record violates the published schema."""


# -- boundary-condition algebra ------------------------------------------

class SplitHasNoLambda(DomainError):
    """Split conditions decouple the line; no transmission matrix exists."""


class GammaPole(DomainError):
    """theta = (2+gamma)/(2-gamma) degenerates at |gamma| = 2."""


class SingularD(DomainError):
    """B-to-Lambda denominator D vanishes (decoupling limit)."""


class PlaneNotGraph(DomainError):
    """A boundary plane admits no unitary parametrization numerically."""


class DegenerateComposition(DomainError):
    """gamma-composition denominator 1 + g1*g2/4 vanishes."""


class CharacteristicPole(DomainError):
    """Additive characteristic undefined at |gamma| = 2."""


# -- transfer matrices / approximation families --------------------------

class ComplexCoefficient(DomainError):
    """Three-atom family coefficients are real only for |gamma| > 2."""


class AmbiguousClassification(DomainError):
    """Neither the limit nor the decoupling criterion stabilizes."""


# -- line spectra ----------------------------------------------------------

class NotAnEigenvalue(DomainError):
    """Eigenfunction extraction requested off a secular root."""


class SplitNotSupported(DomainError):
    """Split conditions are out of scope for full-line systems."""


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
