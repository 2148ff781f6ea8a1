"""Variational trial functions and certified lower bounds on negative counts.

The point-interaction trial function is piecewise parabolic with a
prescribed value jump beta at its center (so it satisfies the delta'
condition there with unit mean derivative) and a closing pair of
parabolas far to the right; its quadratic form has the closed value

    beta + (2/3) eps + (2/(3r)) (beta + eps)^2.

Calibrating (eps, r) drives the form to beta/2 < 0, and disjointly
supported copies give an n-dimensional strictly negative subspace: a
certificate that at least n negative eigenvalues exist.  The measure
version integrates a smoothed indicator chi of a subset against the
measure, closes with the same parabola pair, and its form splits into
the three integrals I1 = int |chi|^2 dx, I2 = (2/3) c^2 / r,
I3 = int beta |chi|^2 dmu.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (
    SubsetNotNegative,
    DomainError,
    NeighborhoodOverlap,
    SupportOverlap,
)

# quintic smoothstep ramp: C^2, 0 -> 1 on [0, 1]
_RAMP = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
_RAMP_INT = _RAMP.integ()            # int_0^u s
_RAMP_SQ_INT = (_RAMP * _RAMP).integ()   # int_0^u s^2

# measure certificates: smallest closing half-width r, spacing between
# consecutive closing intervals, and the cap on delta halvings
R_MIN = 1.0
PAD = 1.0
MAX_HALVINGS = 60


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

    def evaluate(self, x):
        scalar = np.ndim(x) == 0
        y = np.atleast_1d(np.asarray(x, dtype=float)) - self.x0
        e, b, l, r = self.eps, self.beta, self.l, self.r
        p = b + e
        out = np.zeros_like(y)
        m = (y >= -e) & (y < 0)
        out[m] = (y[m] + e) ** 2 / (2 * e)
        m = (y >= 0) & (y < e)
        out[m] = p - (y[m] - e) ** 2 / (2 * e)
        m = (y >= e) & (y < l)
        out[m] = p
        m = (y >= l) & (y < l + r)
        out[m] = p - p * (l - y[m]) ** 2 / (2 * r * r)
        m = (y >= l + r) & (y < l + 2 * r)
        out[m] = p * (l + 2 * r - y[m]) ** 2 / (2 * r * r)
        return float(out[0]) if scalar else out

    def derivative(self, x):
        scalar = np.ndim(x) == 0
        y = np.atleast_1d(np.asarray(x, dtype=float)) - self.x0
        e, l, r = self.eps, self.l, self.r
        p = self.beta + e
        out = np.zeros_like(y)
        m = (y >= -e) & (y < 0)
        out[m] = (y[m] + e) / e
        m = (y >= 0) & (y < e)
        out[m] = (e - y[m]) / e
        m = (y >= l) & (y < l + r)
        out[m] = p * (l - y[m]) / (r * r)
        m = (y >= l + r) & (y < l + 2 * r)
        out[m] = -p * (l + 2 * r - y[m]) / (r * r)
        return float(out[0]) if scalar else out

    def one_sided(self, x: float, side: int) -> tuple[float, float]:
        """(value, derivative) limit at x from the right (+1) or left (-1)."""
        y = x - self.x0
        if y == 0.0:
            if side > 0:
                return self.beta + self.eps / 2.0, 1.0
            return self.eps / 2.0, 1.0
        # continuous away from the jump; both side limits agree
        return float(self.evaluate(x)), float(self.derivative(x))

    def jump_points(self) -> list[float]:
        return [self.x0]


def quadratic_form_point(t: TestFunction) -> float:
    """Closed-form quadratic form beta + (2/3)eps + (2/(3r))(beta+eps)^2."""
    return t.beta + (2.0 / 3.0) * t.eps + (2.0 / (3.0 * t.r)) * (t.beta + t.eps) ** 2


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
        r = (2.0 / 3.0) * (b + eps) ** 2 / den
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
    if n == 0:
        cert = PointCertificate(0, pts[neg], betas[neg], [], np.zeros((0, 0)))
        if verify_secular:
            cert.secular_count = count_negative(sys)
        return cert

    gaps = np.diff(pts)
    eps0 = 0.45 * float(gaps.min()) if gaps.size else 0.5
    eps0 = min(eps0, 0.5)
    diameter = float(pts[-1] - pts[0]) if pts.size > 1 else 0.0
    params = choose_params(betas[neg], eps0, diameter)

    funcs = [
        TestFunction(pts[k], e, betas[k], l, r)
        for k, (e, r, l) in zip(neg, params)
    ]
    _assert_disjoint(funcs, pts)

    gram = np.diag([0.5 * betas[k] for k in neg])
    cert = PointCertificate(n, pts[neg], betas[neg], funcs, gram)
    if verify_secular:
        cert.secular_count = count_negative(sys)
        if cert.secular_count < n:
            raise AssertionError(
                f"secular count {cert.secular_count} below certified bound {n}"
            )
    return cert


def _assert_regions_disjoint(regions: list[tuple[float, float]]) -> None:
    for i, (a1, b1) in enumerate(regions):
        for a2, b2 in regions[i + 1:]:
            if max(a1, a2) < min(b1, b2):
                raise SupportOverlap(f"active regions [{a1},{b1}] and [{a2},{b2}] overlap")


def _assert_disjoint(funcs: list[TestFunction], all_points: np.ndarray) -> None:
    # intervals where t' != 0, plus the jump cores
    _assert_regions_disjoint([iv for t in funcs for iv in (
        (t.x0 - t.eps, t.x0 + t.eps), (t.x0 + t.l, t.x0 + t.l + 2 * t.r))])
    for t in funcs:
        for p in all_points:
            if p != t.x0 and (
                t.x0 - t.eps < p < t.x0 + t.eps
                or t.x0 + t.l < p < t.x0 + t.l + 2 * t.r
            ):
                raise SupportOverlap(f"interaction point {p} inside an active region")


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

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for lo, hi in self.cores:
            m = (x >= lo) & (x <= hi)
            out[m] = 1.0
            m = (x > lo - self.rho) & (x < lo)
            out[m] = _RAMP((x[m] - lo + self.rho) / self.rho)
            m = (x > hi) & (x < hi + self.rho)
            out[m] = _RAMP((hi + self.rho - x[m]) / self.rho)
        return float(out[0]) if scalar else out

    def integral(self) -> float:
        ramp = float(_RAMP_INT(1.0))  # = 1/2
        return sum(hi - lo for lo, hi in self.cores) + 2 * self.rho * ramp * len(self.cores)

    def square_integral(self) -> float:
        ramp = float(_RAMP_SQ_INT(1.0))
        return sum(hi - lo for lo, hi in self.cores) + 2 * self.rho * ramp * len(self.cores)

    def cumulative(self, x) -> np.ndarray:
        """int_{-inf}^x chi, exact per polynomial piece."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        ramp_full = self.rho * float(_RAMP_INT(1.0))
        for lo, hi in self.cores:
            # up-ramp
            u = np.clip((x - lo + self.rho) / self.rho, 0.0, 1.0)
            out += self.rho * _RAMP_INT(u)
            # core
            out += np.clip(x - lo, 0.0, hi - lo)
            # down-ramp: integral of s mirrored
            w = np.clip((x - hi) / self.rho, 0.0, 1.0)
            out += ramp_full - self.rho * _RAMP_INT(1.0 - w)
        return float(out[0]) if scalar else out


@dataclass
class MeasureTestFunction:
    """Trial function (antiderivative of chi plus measure terms) for a subset.

    For x <= l the function is int_a^x chi + int_(a,x) beta chi dmu; it
    takes the plateau value c_k right of the support and closes through
    two parabolas on [l, l+2r].
    """

    chi: SmoothIndicator
    atom_positions: np.ndarray
    atom_weights: np.ndarray
    beta_at_atoms: np.ndarray
    a: float
    l: float
    r: float
    delta: float
    subset: np.ndarray = field(default=None)

    def __post_init__(self):
        self.chi_at_atoms = self.chi(self.atom_positions)
        self.c_k = float(
            self.chi.integral()
            + np.sum(self.beta_at_atoms * self.atom_weights * self.chi_at_atoms)
        )

    def evaluate(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.chi.cumulative(x)
        # atomic part: atoms strictly below x contribute beta w chi
        contrib = self.beta_at_atoms * self.atom_weights * self.chi_at_atoms
        idx = np.searchsorted(self.atom_positions, x, side="left")
        cum = np.concatenate(([0.0], np.cumsum(contrib)))
        out = out + cum[idx]
        c, l, r = self.c_k, self.l, self.r
        m = (x >= l) & (x < l + r)
        out[m] = c - c * (l - x[m]) ** 2 / (2 * r * r)
        m = (x >= l + r) & (x < l + 2 * r)
        out[m] = c * (l + 2 * r - x[m]) ** 2 / (2 * r * r)
        out[x >= l + 2 * r] = 0.0
        out[x < self.a] = 0.0
        return float(out[0]) if scalar else out

    def one_sided(self, x: float, side: int) -> tuple[float, float]:
        if x < self.l:
            val = float(self.evaluate(x))
            j = np.searchsorted(self.atom_positions, x)
            if side > 0 and j < self.atom_positions.size and self.atom_positions[j] == x:
                val += float(
                    self.beta_at_atoms[j] * self.atom_weights[j] * self.chi_at_atoms[j]
                )
            return val, float(self.chi(x))
        c, l, r = self.c_k, self.l, self.r
        if x < l + r:
            return float(self.evaluate(x)), c * (l - x) / (r * r)
        if x < l + 2 * r:
            return float(self.evaluate(x)), -c * (l + 2 * r - x) / (r * r)
        return 0.0, 0.0

    def jump_points(self) -> list[float]:
        mask = self.beta_at_atoms * self.atom_weights * self.chi_at_atoms != 0
        return list(self.atom_positions[mask])


def measure_test_build(
    subset: Sequence[int],
    mu,
    beta,
    delta: float,
    l: float,
    r: float,
) -> MeasureTestFunction:
    """Assemble the trial function of one closed subset of atoms, anchored
    at a = min(atoms) - delta - 1."""
    subset = np.asarray(subset, dtype=int)
    xs = mu.positions
    ws = mu.weights
    bs = beta.at_atoms(mu)
    sel = xs[subset]
    others = np.delete(xs, subset)
    if others.size and np.min(np.abs(others[:, None] - sel[None, :])) <= delta:
        raise NeighborhoodOverlap("delta-neighborhood touches atoms outside the subset")
    if l <= xs.max() + delta:
        raise ValueError("plateau start l must lie right of the support")
    chi = SmoothIndicator([(x - delta / 2, x + delta / 2) for x in sel], delta / 2)
    return MeasureTestFunction(
        chi, xs, ws, bs, a=float(xs.min() - delta - 1.0), l=float(l), r=float(r),
        delta=float(delta), subset=subset,
    )


def measure_form_breakdown(t: MeasureTestFunction) -> tuple[float, float, float]:
    """The three integrals of the quadratic form: I1, I2, I3."""
    i1 = t.chi.square_integral()
    i2 = (2.0 / 3.0) * t.c_k ** 2 / t.r
    i3 = float(np.sum(t.beta_at_atoms * t.atom_weights * t.chi_at_atoms ** 2))
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
    bs = beta.at_atoms(mu)
    subsets = [np.asarray(s, dtype=int) for s in subsets]
    seen = np.concatenate(subsets) if subsets else np.array([], dtype=int)
    if seen.size != np.unique(seen).size:
        raise ValueError("subsets must be disjoint")

    sup = max((float(bs[s].max()) for s in subsets), default=-1.0)
    if sup >= 0:
        raise SubsetNotNegative("every subset needs beta <= -eps < 0")
    epsilon = min((-float(bs[s].max()) for s in subsets), default=1.0)

    specs = []
    for s in subsets:
        mu_k = float(ws[s].sum())
        sel = xs[s]
        others = np.delete(xs, s)
        gap = float(np.min(np.abs(others[:, None] - sel[None, :]))) if others.size else np.inf
        delta = min(0.5 * gap, 1.0) if np.isfinite(gap) else 1.0
        target = 0.25 * epsilon * mu_k
        halvings = 0
        while 2 * delta >= gap or _merged_measure(sel, delta) > target:
            delta *= 0.5
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise DomainError(
                    "delta halving cap hit: neighborhood measure cannot reach (1/4) eps mu"
                )
        specs.append((s, mu_k, delta))

    base_l = float(xs.max()) + max((d for _, _, d in specs), default=0.0) + PAD
    funcs = []
    l_next = base_l
    for s, mu_k, delta in specs:
        tf = measure_test_build(s, mu, beta, delta, l=l_next, r=R_MIN)
        r = max(R_MIN, 16.0 * tf.c_k ** 2 / (epsilon * mu_k))
        tf = measure_test_build(s, mu, beta, delta, l=l_next, r=r)
        funcs.append(tf)
        l_next += 2.0 * r + PAD

    _assert_measure_disjoint(funcs)
    forms = np.array([quadratic_form_measure(t) for t in funcs])
    bounds = np.array(
        [-0.125 * epsilon * float(ws[s].sum()) for s, _, _ in specs]
    )
    bad = forms > bounds + 1e-12
    if np.any(bad):
        raise AssertionError(
            f"certificate forms {forms[bad]} exceed bounds {bounds[bad]}"
        )
    return MeasureCertificate(len(funcs), epsilon, funcs, forms, bounds)


def _merged_measure(points: np.ndarray, delta: float) -> float:
    """Lebesgue measure of the union of [x - delta, x + delta]."""
    ivs = sorted((x - delta, x + delta) for x in points)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _assert_measure_disjoint(funcs: list[MeasureTestFunction]) -> None:
    _assert_regions_disjoint([iv for t in funcs for iv in (t.chi.support, (t.l, t.l + 2 * t.r))])
