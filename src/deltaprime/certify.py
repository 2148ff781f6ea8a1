"""Variational trial functions and certified lower bounds on negative counts.

The point-interaction trial function is piecewise parabolic with a
prescribed value jump beta at its center (so it satisfies the delta'
condition there with unit mean derivative) and a closing pair of
parabolas far to the right; its quadratic form has the closed value

    beta + (2/3) eps + (2/(3r)) (beta + eps)^2.

Calibrating (eps, r) drives the form to beta/2 < 0, and disjointly
supported copies give an n-dimensional strictly negative subspace: a
certificate that at least n negative eigenvalues exist.  The measure
version integrates a smoothed indicator chi of a subset of atoms
against the measure and closes with the same parabola pair.  It is
built once, from its subset's atoms alone: chi is 1 on them, and its
support keeps a gap to every other atom, so its form splits into the
three integrals I1 = int |chi|^2 dx, I2 = (2/3) c^2 / r and
I3 = int beta |chi|^2 dmu = sum over the subset of beta w.

Both certificates check disjointness by one sweep over sorted open
regions; a point certificate's are its bumps split at their points, its
closing intervals and every interaction point as a zero-width (p, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    SubsetNotNegative,
    DomainError,
    NeighborhoodOverlap,
    SupportOverlap,
)

# quintic smoothstep ramp s(u) = 6u^5 - 15u^4 + 10u^3: C^2, 0 -> 1 on [0, 1], with
# int_0^1 s = 1/2 exactly.  Both polynomials are evaluated in Horner order, highest
# coefficient first, which is the order of numpy's polyval, so the values are its bits.
def _ramp(u):
    return ((6.0 * u - 15.0) * u + 10.0) * u * u * u


def _ramp_int(u):
    """int_0^u s = u^6 - 3u^5 + 2.5u^4."""
    return ((u - 3.0) * u + 2.5) * u * u * u * u


_RAMP_SQ_INT = 0.39177489177489555   # int_0^1 s^2 = 181/462, in numpy polyval's rounding

# measure certificates: smallest closing half-width r, spacing between
# consecutive closing intervals, and the cap on delta halvings
R_MIN = 1.0
PAD = 1.0
MAX_HALVINGS = 60


def _closing(u, p, r):
    """(value, slope) of the closing parabola pair at u = x - l >= 0.

    Falls from the plateau p with zero slope at u = 0, turns at u = r
    and reaches zero with zero slope at u = 2r; zero beyond.
    """
    u = np.minimum(u, 2 * r)
    near = u < r
    w = np.where(near, u, 2 * r - u)
    q = p * w ** 2 / (2 * r * r)
    return np.where(near, p - q, q), -p * w / (r * r)


# ---------------------------------------------------------------------------
# point-interaction trial function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Piecewise-parabolic trial function with value jump beta at x0.

    Zero left of x0-eps, rises on a parabola to eps/2, jumps by beta,
    climbs to the plateau beta+eps, and closes through two parabolas on
    [x0+l, x0+l+2r].  Derivative is continuous at x0 with mean value 1,
    so the delta' condition psi_s = beta psi'_r holds by construction.
    """

    x0: float
    eps: float
    beta: float
    l: float
    r: float

    __test__ = False  # keep pytest from collecting the domain type

    def __post_init__(self):
        if self.eps <= 0 or self.r <= 0 or self.l < self.eps:
            raise ValueError("need eps > 0, r > 0, l >= eps")

    @property
    def support(self) -> tuple[float, float]:
        return (self.x0 - self.eps, self.x0 + self.l + 2 * self.r)

    def one_sided(self, x, side: int):
        """(value, derivative) limit at x from the right (+1) or left (-1)."""
        y = np.asarray(x, dtype=float) - self.x0
        e, l, r = self.eps, self.l, self.r
        p = self.beta + e
        # pieces: zero, rising parabola, falling parabola, plateau, closing pair
        piece = np.searchsorted([-e, 0.0, e, l], y, side="right" if side > 0 else "left")
        yc = np.clip(y, -e, e)
        cv, cd = _closing(np.maximum(y - l, 0.0), p, r)
        val = np.choose(piece, (0.0, (yc + e) ** 2 / (2 * e), p - (yc - e) ** 2 / (2 * e), p, cv))
        der = np.choose(piece, (0.0, (yc + e) / e, (e - yc) / e, 0.0, cd))
        return (val.item(), der.item()) if y.ndim == 0 else (val, der)

    def evaluate(self, x):
        return self.one_sided(x, +1)[0]

    def derivative(self, x):
        return self.one_sided(x, +1)[1]

    def jump_points(self) -> list[float]:
        return [self.x0]


def quadratic_form_point(t: TestFunction) -> float:
    """Closed-form quadratic form beta + (2/3)eps + (2/(3r))(beta+eps)^2, its
    last term taken without the square, which underflows for a weak beta."""
    b = t.beta + t.eps
    return t.beta + (2.0 / 3.0) * t.eps + (2.0 / 3.0) * b * (b / t.r)


def choose_params(
    betas: Sequence[float], eps0: float, diameter: float
) -> list[tuple[float, float, float]]:
    """(eps_k, r_k, l_k) per negative intensity, calibrated to form = beta/2.

    eps_k <= eps0 keeps the bumps inside each point's private
    neighborhood; r solves the half-intensity identity exactly; the
    closing intervals (l_k, l_k + 2 r_k) sit beyond the diameter and are
    pairwise disjoint.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    out = []
    l_next = diameter + 1.0
    for b in betas:
        if b >= 0:
            raise ValueError("choose_params expects strictly negative intensities")
        eps = min(eps0, -3.0 * b / 8.0)
        den = -0.5 * b - (2.0 / 3.0) * eps    # >= -b/4 > 0 for eps <= -3b/8
        r = (2.0 / 3.0) * (b + eps) * ((b + eps) / den)    # no square: it underflows for a weak b
        out.append((eps, r, l_next))
        l_next += 2.0 * r + 1.0
    return out


@dataclass
class PointCertificate:
    """Disjoint trial functions whose Gram is negative-definite diagonal."""

    count: int
    points: np.ndarray
    betas: np.ndarray
    functions: list[TestFunction]
    gram: np.ndarray
    secular_count: Optional[int] = None


def certify_count_points(sys, verify_secular: bool = True) -> PointCertificate:
    """Variational lower bound on the negative count of a pure delta' system.

    Builds one trial function per negative intensity; the Gram matrix
    [(A t_j, t_k)] is diagonal with entries beta_k/2 < 0 because all
    derivative supports and bump neighborhoods are pairwise disjoint,
    which certifies at least n = #{beta_k < 0} negative eigenvalues.
    """
    from .line import count_negative

    betas = sys.delta_prime_betas()
    if betas is None:
        raise ValueError("certificate requires a per-point delta' system")
    pts = sys.points
    neg = np.nonzero(betas < 0)[0]
    n = neg.size
    eps0 = min(0.45 * float(np.diff(pts).min(initial=np.inf)), 0.5)
    diameter = float(pts[-1] - pts[0]) if pts.size > 1 else 0.0
    params = choose_params(betas[neg], eps0, diameter)

    funcs = [TestFunction(pts[k], e, betas[k], l, r) for k, (e, r, l) in zip(neg, params)]
    # bumps split at their own points, closing intervals, and each point as (p, p)
    _assert_regions_disjoint(
        [iv for t in funcs for iv in ((t.x0 - t.eps, t.x0), (t.x0, t.x0 + t.eps),
                                      (t.x0 + t.l, t.x0 + t.l + 2 * t.r))]
        + [(p, p) for p in pts.tolist()])

    gram = np.diag(0.5 * betas[neg])
    cert = PointCertificate(n, pts[neg], betas[neg], funcs, gram)
    if verify_secular:
        cert.secular_count = count_negative(sys)
        if cert.secular_count < n:
            raise AssertionError(f"secular count {cert.secular_count} below certified bound {n}")
    return cert


def _assert_regions_disjoint(regions: list[tuple[float, float]]) -> None:
    """Raise SupportOverlap if two of the open intervals overlap; a
    zero-width region (p, p) overlaps one that holds p strictly inside.

    Sorted by left end, if region i overlaps a later region j then it
    also overlaps region i + 1, which starts no later than j; so
    comparing sorted neighbours finds every overlap.
    """
    iv = np.array(sorted(regions), dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(iv[1:, 0] < iv[:-1, 1])
    if bad.size:
        (a1, b1), (a2, b2) = iv[bad[0]], iv[bad[0] + 1]
        raise SupportOverlap(f"active regions [{a1},{b1}] and [{a2},{b2}] overlap")


# ---------------------------------------------------------------------------
# smoothed indicators and measure-supported trial functions
# ---------------------------------------------------------------------------

class SmoothIndicator:
    """C^1 piecewise-polynomial 0/1 profile over merged core intervals.

    Equals 1 on each core, ramps to 0 over a width `rho` on both sides
    (quintic smoothstep), so with cores [x - delta/2, x + delta/2] and
    rho = delta/2 the support is exactly the delta-neighborhood.
    """

    def __init__(self, cores: Sequence[tuple[float, float]], rho: float):
        if rho <= 0:
            raise ValueError("ramp width must be positive")
        cores = sorted(cores)
        merged = []
        for lo, hi in cores:
            if merged and lo - merged[-1][1] < 2 * rho:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        self.cores = merged
        self.rho = rho

    @property
    def support(self) -> tuple[float, float]:
        return (self.cores[0][0] - self.rho, self.cores[-1][1] + self.rho)

    def support_measure(self) -> float:
        return sum(hi - lo + 2 * self.rho for lo, hi in self.cores)

    def _ramps(self, x):
        """x with a trailing core axis, the cores' ends, and each core's rising and
        falling ramp arguments at x clipped to [0, 1].  Merged cores lie at least
        2 rho apart, so at each x one core at most has both arguments nonzero."""
        x = np.asarray(x, dtype=float)[..., None]
        lo, hi = np.array(self.cores).T
        up = np.clip((x - lo + self.rho) / self.rho, 0.0, 1.0)
        return x, lo, hi, up, np.clip((hi + self.rho - x) / self.rho, 0.0, 1.0)

    def __call__(self, x):
        *_, up, down = self._ramps(x)
        out = (_ramp(up) * _ramp(down)).sum(axis=-1)
        return float(out) if np.ndim(x) == 0 else out

    def integral(self) -> float:
        return sum(hi - lo for lo, hi in self.cores) + 2 * self.rho * 0.5 * len(self.cores)

    def square_integral(self) -> float:
        return sum(hi - lo for lo, hi in self.cores) + 2 * self.rho * _RAMP_SQ_INT * len(self.cores)

    def cumulative(self, x) -> np.ndarray:
        """int_{-inf}^x chi, exact per polynomial piece: per core, the rising
        ramp's integral, the clipped core length and the falling ramp's integral."""
        y, lo, hi, up, down = self._ramps(x)
        out = (self.rho * _ramp_int(up) + np.clip(y - lo, 0.0, hi - lo)
               + self.rho * (0.5 - _ramp_int(down))).sum(axis=-1)
        return float(out) if np.ndim(x) == 0 else out


def _neighborhood(points: np.ndarray, delta: float) -> SmoothIndicator:
    """Smoothed indicator supported exactly on the union of [x - delta, x + delta]."""
    return SmoothIndicator([(x - delta / 2, x + delta / 2) for x in points.tolist()], delta / 2)


@dataclass
class MeasureTestFunction:
    """Trial function (antiderivative of chi plus measure terms) for a subset.

    `positions` holds the subset's atoms in increasing order and `jumps`
    their beta w.  chi is 1 on those atoms and 0 on every other atom,
    so for x <= l the function is int_{-inf}^x chi plus the jumps of the
    subset atoms at or below x (the right limit, which evaluate gives); it
    takes the plateau value c_k = int chi + sum(jumps) right of the support
    and closes through two parabolas on [l, l+2r].
    """

    chi: SmoothIndicator
    positions: np.ndarray
    jumps: np.ndarray
    l: float
    r: float
    delta: float

    def __post_init__(self):
        self.c_k = float(self.chi.integral() + self.jumps.sum())

    def one_sided(self, x, side: int):
        """(value, derivative) limit at x from the right (+1) or left (-1);
        the right limit at a subset atom takes its jump."""
        x = np.asarray(x, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.jumps)))
        below = np.searchsorted(self.positions, x, side="right" if side > 0 else "left")
        cv, cd = _closing(np.maximum(x - self.l, 0.0), self.c_k, self.r)
        close = x >= self.l
        val = np.where(close, cv, self.chi.cumulative(x) + cum[below])
        der = np.where(close, cd, self.chi(x))
        return (val.item(), der.item()) if x.ndim == 0 else (val, der)

    def evaluate(self, x):
        return self.one_sided(x, +1)[0]

    def jump_points(self) -> list[float]:
        return list(self.positions[self.jumps != 0])


def _outside_gaps(xs: np.ndarray, subsets: Sequence[np.ndarray]) -> list[float]:
    """Distance from each disjoint subset's atoms to the nearest atom outside it (inf if none).

    The atoms are sorted, so each distance is attained by index neighbours in
    different subsets (or one in none): one O(N) pass serves every subset.
    """
    label = np.full(xs.size, len(subsets))     # the last slot: atoms in no subset
    for k, s in enumerate(subsets):
        label[s] = k
    j = np.flatnonzero(label[:-1] != label[1:])
    d = xs[j + 1] - xs[j]
    gaps = np.full(len(subsets) + 1, np.inf)
    np.minimum.at(gaps, label[j], d)
    np.minimum.at(gaps, label[j + 1], d)
    return gaps[:-1].tolist()


def measure_test_build(
    subset: Sequence[int],
    mu,
    beta,
    delta: float,
    l: float,
    r: float,
) -> MeasureTestFunction:
    """Assemble the trial function of one closed subset of atoms.

    Every atom outside the subset must lie farther than delta from it,
    so chi vanishes there and only the subset's atoms enter.
    """
    subset = np.sort(np.asarray(subset, dtype=int))
    xs = mu.positions
    jumps = beta.jumps(mu)[subset]
    if _outside_gaps(xs, [subset])[0] <= delta:
        raise NeighborhoodOverlap("delta-neighborhood touches atoms outside the subset")
    if l <= xs[-1] + delta:
        raise ValueError("plateau start l must lie right of the support")
    sel = xs[subset]
    return MeasureTestFunction(_neighborhood(sel, delta), sel, jumps, l=float(l), r=float(r),
                               delta=float(delta))


def measure_form_breakdown(t: MeasureTestFunction) -> tuple[float, float, float]:
    """The three integrals of the quadratic form: I1, I2, I3."""
    i1 = t.chi.square_integral()
    i2 = (2.0 / 3.0) * t.c_k ** 2 / t.r
    i3 = float(t.jumps.sum())
    return i1, i2, i3


def quadratic_form_measure(t: MeasureTestFunction) -> float:
    """Quadratic form of a measure trial function (Green's first formula)."""
    i1, i2, i3 = measure_form_breakdown(t)
    return i1 + i2 + i3


@dataclass
class MeasureCertificate:
    count: int
    epsilon: float
    functions: list[MeasureTestFunction]
    forms: np.ndarray
    bounds: np.ndarray        # the -(1/8) eps mu(Gamma_k) thresholds


def certify_count_measure(mu, beta, subsets: Sequence[Sequence[int]]) -> MeasureCertificate:
    """Min-max certificate: one negative-form trial function per subset.

    Each subset must carry strictly negative intensity (beta <= -eps on
    it); delta starts at half the gap to the nearest outside atom and is
    halved until 2 delta is below that gap (so neighboring supports
    cannot touch) and the neighborhood's Lebesgue measure is below
    (1/4) eps mu(Gamma_k); r is sized so the closing cost stays below
    (1/8) eps mu(Gamma_k) with margin.  Disjoint supports make the cross
    Gram entries exactly zero, so the certified count is the number of
    subsets.
    """
    xs, ws = mu.positions, mu.weights
    bs, bw = beta.at_atoms(mu), beta.jumps(mu)
    subsets = [np.asarray(s, dtype=int) for s in subsets]
    seen = np.concatenate(subsets) if subsets else np.array([], dtype=int)
    if seen.size != len(set(seen.tolist())) or not all(s.size for s in subsets):
        raise ValueError("subsets must be nonempty and disjoint")

    epsilon = -float(bs[seen].max()) if seen.size else 1.0
    if epsilon <= 0:
        raise SubsetNotNegative("every subset needs beta <= -eps < 0")

    specs = []
    for s, gap in zip(subsets, _outside_gaps(xs, subsets)):
        mu_k = float(ws[s].sum())
        order = np.sort(s)
        sel = xs[order]
        delta = min(0.5 * gap, 1.0)
        target = 0.25 * epsilon * mu_k
        halvings = 0
        # the loop ends on a delta whose indicator chi was built and fits
        while 2 * delta >= gap or (chi := _neighborhood(sel, delta)).support_measure() > target:
            delta *= 0.5
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise DomainError(
                    "delta halving cap hit: neighborhood measure cannot reach (1/4) eps mu"
                )
        specs.append((chi, sel, bw[order], mu_k, delta))

    funcs = []
    l_next = float(xs[-1]) + max((delta for *_, delta in specs), default=0.0) + PAD
    for chi, sel, jumps, mu_k, delta in specs:
        tf = MeasureTestFunction(chi, sel, jumps, l=l_next, r=R_MIN, delta=delta)
        # the plateau c_k does not depend on r
        try:
            tf.r = max(R_MIN, 16.0 * tf.c_k ** 2 / (epsilon * mu_k))
        except OverflowError:
            raise DomainError(f"the plateau c_k = {tf.c_k:.3g} of beta's jumps needs a closing "
                              "ramp beyond the floats") from None
        funcs.append(tf)
        l_next += 2.0 * tf.r + PAD

    _assert_regions_disjoint([iv for t in funcs for iv in (t.chi.support, (t.l, t.l + 2 * t.r))])
    forms = np.array([quadratic_form_measure(t) for t in funcs])
    bounds = np.array([-0.125 * epsilon * mu_k for *_, mu_k, _ in specs])
    bad = forms > bounds + 1e-12
    if np.any(bad):
        raise AssertionError(f"certificate forms {forms[bad]} exceed bounds {bounds[bad]}")
    return MeasureCertificate(len(funcs), epsilon, funcs, forms, bounds)
