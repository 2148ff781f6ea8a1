"""Transfer matrices for delta-combs and piecewise-constant potentials.

A comb of delta scatterers is crossed by multiplying jump factors
[[1,0],[a,1]] with free propagators over the gaps; piecewise-constant
potentials use the constant-coefficient propagator at the local
wavenumber sqrt(lam^2 - v).  One builder stacks the factors of one comb
or of a family of combs (_factors), and one ordered product multiplies
them and a potential's propagators (_product).  The approximation
families reproduce the short-range models whose transfer matrices
converge (or fail to) as the spacing goes to zero: two atoms limiting to
a delta'-potential, three atoms limiting to a delta'-potential while the
potential itself tends to a multiple of delta', and the four-atom
presets with free and Dirichlet-decoupled limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AmbiguousClassification, ComplexCoefficient, DomainError, _checked_floats
from .interactions import TransmissionMatrix, theta_of_gamma

SERIES_CUT = 1e-4  # |lam*eps| below which sin(u)/lam switches to its series


@dataclass(frozen=True)
class DeltaComb:
    """Ordered delta scatterers (position, strength)."""

    positions: np.ndarray
    strengths: np.ndarray

    def __post_init__(self):
        x = _checked_floats(self.positions, "comb positions", increasing=True)
        a = _checked_floats(self.strengths, "comb strengths")
        if x.shape != a.shape:
            raise ValueError("positions and strengths must align")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "strengths", a)

    def __len__(self) -> int:
        return self.positions.size

    def moments(self) -> tuple[float, float]:
        """(integral of v, delta'-coefficient -integral of x v)."""
        m0 = float(np.sum(self.strengths))
        m1 = -float(np.sum(self.strengths * self.positions))
        return m0, m1


@dataclass(frozen=True)
class PiecewisePotential:
    """Compactly supported piecewise-constant potential (zero outside)."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = _checked_floats(self.breakpoints, "breakpoints", increasing=True)
        v = _checked_floats(self.values, "potential values")
        if b.size != v.size + 1:
            raise ValueError("need len(breakpoints) == len(values) + 1")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)


@np.errstate(over="ignore", invalid="ignore")      # the finite check at the end names an overflow
def free_propagator(eps, lam) -> np.ndarray:
    """Free transfer matrices over gaps of lengths eps at wavenumber lam,
    shape (..., 2, 2) for eps and lam broadcast together: a float and a
    scalar give one matrix.

    [[cos(lam eps), sin(lam eps)/lam], [-lam sin(lam eps), cos(lam eps)]];
    the (1,2) entry uses a short series near lam*eps = 0, where it tends
    to eps.  det = 1 identically.  The one home of the propagator, so of its
    checks: a negative gap or a non-finite lam raises ValueError, and a
    matrix that overflows DomainError naming its lam and gap.
    """
    _checked_floats(lam, "lam", dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    eps = np.asarray(eps, dtype=float)
    if np.count_nonzero(eps < 0):
        raise ValueError("gap length must be nonnegative")
    u = lam * eps
    s = np.sin(u)
    out = np.empty(u.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(u)
    np.multiply(-lam, s, out=out[..., 1, 0])
    big = abs(u) >= SERIES_CUT               # lam = 0 gives u = 0: the quotient never divides by 0
    if np.count_nonzero(big) < big.size:
        # the series' arguments, 0 where the quotient holds, with a trailing axis of one
        # value, so each has a view as two floats: a quotient by a float is taken per
        # component, as Python's complex / float takes it
        v = np.where(big, 0.0, u)[..., None]
        u2 = v * v
        u4 = u2 * u2
        over = lambda z, d: (z.view(float) / d).view(complex)
        out[..., 0, 1] = (eps[..., None] * (1.0 - over(u2, 6.0) + over(u4, 120.0)
                                            - over(u4 * u2, 5040.0)))[..., 0]
    np.divide(s, lam, out=out[..., 0, 1], where=big)
    if np.count_nonzero(np.isfinite(out)) < out.size:
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        lam, eps = (np.broadcast_to(a, u.shape)[bad][0] for a in (lam, eps))
        raise DomainError(f"the free propagator at lam = {lam} over the gap {eps} overflows")
    return out


def _factors(strengths: np.ndarray, gaps: np.ndarray, lam: complex) -> np.ndarray:
    """The factors of combs' transfer matrices in the order they apply, the
    identity, J_1, F_1, J_2, ..., along the first axis: every jump
    J_i = [[1, 0], [a_i, 1]] of strengths, shape (n,) + S, and every gap's
    propagator F_i of gaps, shape (n-1,) + S, from one free_propagator call,
    for combs with any leading axes S; the identity alone for n = 0."""
    mats = np.zeros((2 * len(strengths) or 1,) + strengths.shape[1:] + (2, 2), dtype=complex)
    mats.reshape(-1, 4)[:, ::3] = 1.0         # every diagonal
    mats[1::2, ..., 1, 0] = strengths
    mats[2::2] = free_propagator(gaps, lam)
    return mats


def _product(factors) -> np.ndarray:
    """The ordered product of factors along their first axis, m = f @ m from the first."""
    m = factors[0]
    for f in factors[1:]:
        m = f @ m
    return m


def comb_transfer(comb: DeltaComb, lam: complex) -> np.ndarray:
    """Transfer matrix of a comb from just left of its first atom to just
    right of its last; the identity for an empty comb.  Its factors
    (_factors) are built at once, so the product is taken atom by atom as
    m = J_i (F_i m)."""
    xs = comb.positions
    return _product(_factors(comb.strengths, xs[1:] - xs[:-1], lam))


def _family_transfers(combs: Sequence[DeltaComb], lam: complex) -> np.ndarray:
    """comb_transfer of every comb, shape (E, 2, 2), from one stack of their
    factors (_factors), so with one free_propagator call, and one product for
    all combs at once.  A comb with fewer atoms than the longest leads with
    jumps of strength 0 over gaps of length 0, identities to the last bit, so
    every matrix keeps comb_transfer's bits."""
    n = max(len(c) for c in combs)
    strengths, gaps = np.zeros((n, len(combs))), np.zeros((max(n - 1, 0), len(combs)))
    for col, c in enumerate(combs):
        strengths[n - len(c):, col] = c.strengths
        gaps[n - len(c):, col] = np.diff(c.positions)
    return _product(_factors(strengths, gaps, lam))


def pc_transfer(pot: PiecewisePotential, lam: complex) -> np.ndarray:
    """Transfer matrix of a piecewise-constant potential across its support.

    Each piece contributes the constant-coefficient propagator at local
    wavenumber sqrt(lam^2 - v); the branch is irrelevant (even entry
    dependence), det = 1.  The propagators are built at once and multiplied,
    from the identity, by the combs' product (_product).  A non-finite
    lam raises ValueError, and a lam whose lam^2 - v overflows DomainError,
    as does a piece whose propagator overflows: it names lam, then the
    piece's local wavenumber and gap.
    """
    lam = complex(_checked_floats(lam, "lam", dtype=complex)[0])
    k2 = lam * lam - pot.values + 0j
    if not np.isfinite(k2).all():
        raise DomainError(f"lam = {lam} is too large: lam^2 - v overflows")
    try:
        props = free_propagator(np.diff(pot.breakpoints), np.sqrt(k2))
    except DomainError as e:
        raise DomainError(f"lam = {lam}: {e}") from None
    return _product((np.eye(2, dtype=complex), *props))


# ---------------------------------------------------------------------------
# approximation families
# ---------------------------------------------------------------------------

def family_3d(gamma: float, eps: float) -> DeltaComb:
    """Two-atom model of a delta'-potential: atoms a1/eps at 0, a2/eps at eps.

    a1 = g(1 - g/2)^(-1), a2 = -g(1 + g/2)^(-1); the transfer matrix
    tends to diag(theta, 1/theta) while the potentials have no
    distributional limit.
    """
    theta_of_gamma(gamma)        # GammaPole at |gamma| = 2
    a1 = gamma / (1.0 - 0.5 * gamma)
    a2 = -gamma / (1.0 + 0.5 * gamma)
    return DeltaComb([0.0, eps], [a1 / eps, a2 / eps])


def family_4d(gamma: float, sign: int, eps: float) -> DeltaComb:
    """Three-atom model at -eps, 0, eps limiting to a delta'-potential
    while the potential itself tends to kappa * delta' distributionally.

    a2 = sign * 2 g (g^2-4)^(-1/2) (real only for |g| > 2),
    a1 = g/2 - (a2/2)(1 + g/2),  a3 = -g/2 - (a2/2)(1 - g/2).
    The delta'-coefficient kappa = a1 - a3 depends on the sign choice,
    so it does not determine the intensity gamma.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if gamma * gamma <= 4.0:
        raise ComplexCoefficient("family 4d coefficients are real only for |gamma| > 2")
    a2 = sign * 2.0 * gamma / np.sqrt(gamma * gamma - 4.0)
    a1 = 0.5 * gamma - 0.5 * a2 * (1.0 + 0.5 * gamma)
    a3 = -0.5 * gamma - 0.5 * a2 * (1.0 - 0.5 * gamma)
    return DeltaComb([-eps, 0.0, eps], [a1 / eps, a2 / eps, a3 / eps])


FAMILY_5D_PRESETS = {
    "free": (-1.0, 6.0, -3.0, -2.0),
    "dirichlet": (3.0, -3.0, -3.0, 3.0),
}


def family_5d(preset: str, eps: float) -> DeltaComb:
    """Four-atom presets at 0, eps, 2eps, 3eps.

    'free': strengths (-1,6,-3,-2)/eps; the potential tends to 6 delta'
    yet the transfer matrix tends to the identity (free operator).
    'dirichlet': (3,-3,-3,3)/eps; the potential tends to 0 yet the
    operators decouple into Dirichlet half-lines.
    """
    try:
        alphas = FAMILY_5D_PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(FAMILY_5D_PRESETS)}")
    xs = [0.0, eps, 2.0 * eps, 3.0 * eps]
    return DeltaComb(xs, [a / eps for a in alphas])


# ---------------------------------------------------------------------------
# limit diagnostics
# ---------------------------------------------------------------------------

LIMIT = "limit"
DIRICHLET = "dirichlet-decoupling"
DIVERGENT = "divergent"


@dataclass
class ConvergenceReport:
    classification: str
    eps_seq: np.ndarray
    matrices: np.ndarray                   # shape (E, 2, 2), one per eps
    diffs: np.ndarray                      # per-entry |M_k - M_{k+1}|
    limit: Optional[TransmissionMatrix] = None
    observed_order: Optional[float] = None
    decoupling_ratios: Optional[np.ndarray] = None
    notes: list[str] = field(default_factory=list)


def limit_diagnose(
    family: Callable[[float], DeltaComb],
    lam: complex,
    eps_seq: Sequence[float],
) -> ConvergenceReport:
    """Classify the eps -> 0 behavior of a comb family's transfer matrices.

    Limit: the steps |M_k - M_{k+1}| shrink monotonically and the
    distance left to the limit is below 1e-3 of the entry scale; with a
    stable observed order p in (0.2, 6) (estimated from consecutive
    steps) that distance is the geometric tail step/(rho^p - 1), else
    the raw last step.  The limit is Richardson-extrapolated at the
    observed order, with first-order fallback.  Dirichlet decoupling:
    |M21| grows without bound while M11/M21 and M22/M21 tend to zero
    (the transfer-matrix signature of separated Dirichlet conditions).
    Otherwise divergent; mixed signals raise AmbiguousClassification.  A
    non-finite lam raises ValueError, in free_propagator.
    """
    eps_seq = np.asarray(eps_seq, dtype=float)
    if eps_seq.size < 3:
        raise ValueError("need at least three eps values")
    if not np.all(np.diff(eps_seq) < 0) or eps_seq[-1] <= 0:
        raise ValueError("eps_seq must decrease strictly to positive values")

    mats = _family_transfers([family(e) for e in eps_seq], lam)
    diffs = np.abs(mats[1:] - mats[:-1])
    dstep = diffs.max(axis=(1, 2))
    scale = max(1.0, float(np.abs(mats[-1]).max()))

    mod = np.hypot(mats.real, mats.imag)        # |M_ij|, rounded as the scalar abs rounds it
    m21 = mod[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.diagonal(mod, axis1=1, axis2=2) / m21[:, None]       # M11/M21, M22/M21

    order = _estimate_order(eps_seq, dstep)
    stable = order is not None and 0.2 < order < 6
    p = order if stable else 1.0
    fac = (eps_seq[-2] / eps_seq[-1]) ** p - 1.0
    tail = dstep[-1] / fac if stable else dstep[-1]
    cauchy = bool(np.all(dstep[1:] <= dstep[:-1] * 0.9 + 1e-14)) and tail < 1e-3 * scale
    free = max(1.0, np.maximum(mod[:, 0].max(), mod[:, 1, 1].max()))    # the scale without M21
    blowing = bool(np.all(m21[1:] >= m21[:-1] * 1.5)) and m21[-1] > 1e2 * free
    ratios_decay = bool(np.all(ratios[-1] < 1e-2) and np.all(ratios[-1] <= ratios[0] + 1e-14))

    if cauchy:
        extrap = mats[-1] + (mats[-1] - mats[-2]) / fac
        rep = ConvergenceReport(
            LIMIT, eps_seq, mats, diffs,
            limit=TransmissionMatrix(extrap),
            observed_order=order if order is not None else p,
            decoupling_ratios=ratios,
        )
        if order is None:
            rep.notes.append("order estimate unstable; first-order Richardson used")
        return rep
    if blowing != ratios_decay:
        raise AmbiguousClassification("M21 growth and off-ratio decay disagree over the eps sequence")
    return ConvergenceReport(DIRICHLET if blowing else DIVERGENT, eps_seq, mats, diffs,
                             decoupling_ratios=ratios)


def _estimate_order(eps_seq: np.ndarray, dstep: np.ndarray) -> Optional[float]:
    if np.any(dstep <= 0):
        return None
    with np.errstate(divide="ignore"):
        ps = np.log(dstep[:-1] / dstep[1:]) / np.log(eps_seq[:-2] / eps_seq[1:-1])
    ps = sorted(ps[np.isfinite(ps)].tolist())
    if not ps:
        return None
    # the sorted middle: np.median's value, without the numpy.ma that np.median imports
    half = len(ps) // 2
    med = ps[half] if len(ps) % 2 else (ps[half - 1] + ps[half]) / 2
    if len(ps) >= 2 and max(ps[-1] - med, med - ps[0]) > 0.75:
        return None
    return med
