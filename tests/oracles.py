"""Independent reference routes that only the tests compare against."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from mpmath import iv
from scipy.integrate import quad

from deltaprime import line, transfer
from deltaprime.certify import PAD, R_MIN, _neighborhood, measure_test_build, quadratic_form_measure
from deltaprime.deficiency import GPRIMECONV, DeficiencyElement, _sqrt_upper, element_eval
from deltaprime.errors import SupportOverlap
from deltaprime.measures import GreenKernel, MeasureBoundaryData, _cells

NUMERIC_RADIUS = 40.0     # e_functional_numeric truncates at this many decay lengths
NUMERIC_NODES = 200_001


def quadratic_form_point_numeric(t) -> float:
    """Quadrature of |t'|^2 plus beta |t'_r(x0)|^2 for a point TestFunction.

    This is the first Green formula applied to the trial function; the
    mean derivative at the jump is 1 exactly.
    """
    x0, e, l, r = t.x0, t.eps, t.l, t.r
    pieces = [
        (x0 - e, x0), (x0, x0 + e),
        (x0 + l, x0 + l + r), (x0 + l + r, x0 + l + 2 * r),
    ]
    total = 0.0
    for a, b in pieces:
        val, _ = quad(lambda x: t.derivative(x) ** 2, a, b,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total + t.beta * 1.0


def jump_sum_amplitudes(points, betas, kappa: float, u: np.ndarray) -> np.ndarray:
    """Piece table, shape (N+1, 2), of the delta' state whose derivative at
    the points is -u, an eigenvector of T(kappa) at a root, as prefix and
    suffix sums of the value jumps c = -beta u:

        b_i = sum_{j <= i} (c_j/2) e^{-kappa(x_i - x_j)},
        a_i = -sum_{j >= i} (c_j/2) e^{-kappa(x_j - x_i)},

    with row 0 = (a_1, 0), row i = (a_{i+1}, b_i) and row N = (0, b_N).
    """
    r = np.exp(-kappa * np.diff(points))
    c = -np.asarray(betas) * u
    b, a = 0.5 * c, -0.5 * c
    for i in range(1, len(c)):
        b[i] += r[i - 1] * b[i - 1]
    for i in range(len(c) - 2, -1, -1):
        a[i] += r[i] * a[i + 1]
    return np.stack((np.append(a, 0.0), np.insert(b, 0, 0.0)), axis=1)


def certified_count(points, betas, kappa: float) -> Optional[int]:
    """C(kappa) = #{beta < 0} - n_-(T(kappa)), the number of states of a delta'
    system with decay rate above kappa, proved: the LDL^T pivots of
    T(kappa) = (2/kappa) E^{-1} + diag(beta) in mpmath.iv interval arithmetic
    at 30 digits, from the floats as given.  None when a pivot interval
    contains 0, so its sign is not proved."""
    keep, iv.dps = iv.dps, 30
    try:
        k, x = iv.mpf(kappa), [iv.mpf(float(p)) for p in points]
        r = [iv.exp(-k * (b - a)) for a, b in zip(x, x[1:])]
        s = [q * q / (1 - q * q) for q in r]                 # 1/(1 - r^2) - 1
        off = [-2 / k * q / (1 - q * q) for q in r]
        negative, pivot = 0, None
        for i, beta in enumerate(betas):
            diag = 2 / k * (1 + (s[i - 1] if i else 0) + (s[i] if i < len(r) else 0)) + float(beta)
            pivot = diag if pivot is None else diag - off[i - 1] ** 2 / pivot
            if 0 in pivot:
                return None
            negative += pivot.b < 0
    finally:
        iv.dps = keep
    return int(np.sum(np.asarray(betas) < 0)) - negative


def explicit_tridiagonal(sys: line.PointSystem, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """T(kappa) = (2/kappa) E^{-1} + diag(beta) of a delta' system entry by entry,
    in float64 scalars on _gaps' table r, 1 - r^2 at one kappa: with t = r/(1 - r^2)
    and s = r t, diag_i = (2/kappa)((1 + s_i) + s_{i-1}) + beta_i, s_i the gap to
    the point's right and s_{i-1} the one to its left, each where the point has
    it, and off_i = -(2/kappa) t_i."""
    r, den = line._gaps(sys._spacing, kappa)
    two, n = np.float64(2.0) / kappa, sys.n_points
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = [ri / di for ri, di in zip(r, den)]
        s = [ri * ti for ri, ti in zip(r, t)]
        diag = []
        for i, beta in enumerate(sys.delta_prime_betas()):
            sum_ = np.float64(1.0)
            if i < n - 1:
                sum_ = sum_ + s[i]
            if i > 0:
                sum_ = sum_ + s[i - 1]
            diag.append(two * sum_ + beta)
        return np.array(diag), np.array([-(two * ti) for ti in t])


def dense_relation(sys: line.PointSystem, normalized: bool = False) -> np.ndarray:
    """The 2N x 4N relation of sys: its condition blocks on the diagonal,
    or with normalized=True the row-normalized blocks the residuals read.
    A global relation is its own single block."""
    blocks = sys._conditions if normalized else sys._blocks
    k, rows, cols = blocks.shape
    a = np.zeros((k, rows, k, cols), dtype=blocks.dtype)
    a[np.arange(k), :, np.arange(k)] = blocks
    return a.reshape(k * rows, k * cols)


def secular_values(sys: line.PointSystem, kappas) -> np.ndarray:
    """Secular function det H(kappa) on an array of decay rates kappa > 0.

    Real for every self-adjoint system; it vanishes exactly at bound
    states and changes sign across each simple one.  The determinant
    overflows for large N kappa, so only small systems suit it.
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    if np.any(kappas <= 0):
        raise ValueError("kappa must be positive")
    return np.array([np.linalg.det(line._krein(sys, float(k))).real for k in kappas])


def sequential_comb_transfer(comb: transfer.DeltaComb, lam: complex) -> np.ndarray:
    """A comb's transfer matrix atom by atom, m = J_i (F_i m), from the identity,
    each gap's propagator F_i and each jump J_i = [[1, 0], [a_i, 1]] built alone
    in scalar arithmetic: the reference for the batched build of comb_transfer."""
    lam, xs = complex(lam), comb.positions
    m = np.eye(2, dtype=complex)
    for i, a in enumerate(comb.strengths):
        if i:
            eps = xs[i] - xs[i - 1]
            u = lam * eps
            c, s = np.cos(u), np.sin(u)
            if abs(u) < transfer.SERIES_CUT:
                u2 = u * u
                e12 = eps * (1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0)
            else:
                e12 = s / lam
            m = np.array([[c, e12], [-lam * s, c]]) @ m
        m = np.array([[1.0, 0.0], [a, 1.0]], dtype=complex) @ m
    return m


def cantor_measure_loop(depth: int, interval: tuple[float, float] = (0.0, 1.0)):
    """(positions, weights) of the level-depth middle-thirds midpoints, each
    piece split alone in Python floats: the reference for the level-at-once
    split of measures.cantor_measure."""
    pieces = [(float(interval[0]), float(interval[1]))]
    for _ in range(depth):
        nxt = []
        for lo, hi in pieces:
            third = (hi - lo) / 3.0
            nxt += [(lo, lo + third), (hi - third, hi)]
        pieces = nxt
    mids = np.array([0.5 * (lo + hi) for lo, hi in pieces])
    return mids, np.full(mids.size, 0.5 ** depth)


@dataclass
class DiscretizedOperator:
    grid: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    kernel: GreenKernel


def discretize(k: GreenKernel, n: int) -> DiscretizedOperator:
    """Dense symmetrized Nystrom matrix M_ij = sqrt(h_i h_j) G(x_i, x_j).

    Midpoint rule on the segment-aligned cells of `measures._cells`, the
    grid on which negative_spectrum solves the tridiagonal inverse of M.
    """
    grid, weights, idx = _cells(k, n)
    mins = np.minimum.outer(grid, grid)
    base = mins - k.a
    atom_part = k.atom_offsets[np.minimum.outer(idx, idx)]
    sw = np.sqrt(weights)
    m = np.outer(sw, sw) * (base + atom_part)
    m = 0.5 * (m + m.T)   # exact symmetry against rounding
    return DiscretizedOperator(grid, weights, m, k)


def e_functional_numeric(e: DeficiencyElement) -> complex:
    """Trapezoid check of the functional on a truncated domain."""
    s = _sqrt_upper(e.z)
    lo, hi = e.measure.support
    r = NUMERIC_RADIUS / s.imag
    xs = np.linspace(lo - r, hi + r, NUMERIC_NODES)
    if e.kind == GPRIMECONV:
        xs += 0.5 * (xs[1] - xs[0])  # stay off the atoms
    vals = element_eval(e, xs)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return complex(trapezoid(vals, xs))


def mu_derivative_loop(psi, mu) -> MeasureBoundaryData:
    """Per-atom reference for measures.mu_derivative: two scalar one_sided
    calls per atom, divided by its weight one at a time."""
    out = MeasureBoundaryData(*(np.zeros(len(mu), dtype=complex) for _ in range(4)))
    for i, (x, w) in enumerate(zip(mu.positions, mu.weights)):
        vm, dm = psi.one_sided(float(x), -1)
        vp, dp = psi.one_sided(float(x), +1)
        out.dpsi_dmu[i] = (vp - vm) / w
        out.dpsi_prime_dmu[i] = (dp - dm) / w
        out.psi_r[i] = 0.5 * (vp + vm)
        out.dpsi_r[i] = 0.5 * (dp + dm)
    return out


def assert_disjoint_loop(funcs, points) -> None:
    """Per-pair reference for the point certificate's overlap check.

    Raises SupportOverlap if two of the open bumps (x0 - eps, x0 + eps) and
    closing intervals (x0 + l, x0 + l + 2r) of the trial functions overlap,
    or if an interaction point other than a function's own lies strictly
    inside one of its two regions.
    """
    regions = [iv for t in funcs for iv in (
        (t.x0 - t.eps, t.x0 + t.eps), (t.x0 + t.l, t.x0 + t.l + 2 * t.r))]
    for i, (a1, b1) in enumerate(regions):
        for a2, b2 in regions[i + 1:]:
            if a1 < b2 and a2 < b1:
                raise SupportOverlap(f"active regions [{a1},{b1}] and [{a2},{b2}] overlap")
    for t in funcs:
        for p in points:
            if p != t.x0 and (
                t.x0 - t.eps < p < t.x0 + t.eps
                or t.x0 + t.l < p < t.x0 + t.l + 2 * t.r
            ):
                raise SupportOverlap(f"interaction point {p} inside an active region")


def measure_certificate_rebuilt(mu, beta, subsets):
    """Reference for certify.certify_count_measure: (epsilon, functions,
    forms, bounds) with each trial function rebuilt by measure_test_build,
    which evaluates beta on every atom and finds the gap again, after a first
    pass that takes each gap from all pairs of subset and outside atoms."""
    xs, ws = mu.positions, mu.weights
    epsilon = -max(float(beta.at_atoms(mu)[s].max()) for s in subsets)
    specs = []
    for s in subsets:
        mu_k = float(ws[s].sum())
        others = np.delete(xs, s)
        gap = np.min(np.abs(others[:, None] - xs[s][None, :])) if others.size else np.inf
        delta = min(0.5 * gap, 1.0)
        while 2 * delta >= gap or _neighborhood(xs[s], delta).support_measure() > 0.25 * epsilon * mu_k:
            delta *= 0.5
        specs.append((s, mu_k, delta))
    l_next = float(xs[-1]) + max(d for _, _, d in specs) + PAD
    funcs = []
    for s, mu_k, delta in specs:
        t = measure_test_build(s, mu, beta, delta, l=l_next, r=R_MIN)
        t.r = max(R_MIN, 16.0 * t.c_k ** 2 / (epsilon * mu_k))
        funcs.append(t)
        l_next += 2.0 * t.r + PAD
    forms = np.array([quadratic_form_measure(t) for t in funcs])
    bounds = np.array([-0.125 * epsilon * mu_k for _, mu_k, _ in specs])
    return epsilon, funcs, forms, bounds
