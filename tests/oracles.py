"""Independent reference routes that only the tests compare against."""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from deltaprime import line
from deltaprime.deficiency import GPRIMECONV, DeficiencyElement, _sqrt_upper, element_eval
from deltaprime.measures import GreenKernel, _cells

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
    """Flat amplitudes (c_L, a_1, b_1, ..., c_R) of the delta' state whose
    derivative at the points is -u, an eigenvector of T(kappa) at a root,
    as prefix and suffix sums of the value jumps c = -beta u:

        b_i = sum_{j <= i} (c_j/2) e^{-kappa(x_i - x_j)},
        a_i = -sum_{j >= i} (c_j/2) e^{-kappa(x_j - x_i)}.
    """
    r = np.exp(-kappa * np.diff(points))
    c = -np.asarray(betas) * u
    b, a = 0.5 * c, -0.5 * c
    for i in range(1, len(c)):
        b[i] += r[i - 1] * b[i - 1]
    for i in range(len(c) - 2, -1, -1):
        a[i] += r[i] * a[i + 1]
    return np.concatenate((a[:1], np.stack((a[1:], b[:-1]), axis=1).ravel(), b[-1:]))


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
