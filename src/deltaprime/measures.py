"""The delta'-operator over a measured set: kernels, discretization, spectra.

A finite atomic Radon measure carries the generalized boundary data:
the measure derivative of a function is its jump divided by the atom
weight, and the delta' conditions read dpsi'/dmu = 0,
dpsi/dmu = beta psi'_r on every atom.  Every function the package
reads this data from implements one protocol: one_sided(x, side)
returns the (value, derivative) limit from the right (side +1) or the
left (-1) at a scalar or an array of points, with the same shape (a
Python float or complex for a scalar), and jump_points() lists where it
may jump.  x is on an atom only when it equals the atom's float
exactly.  mu_derivative reads every atom with two one_sided calls.

Boxing the operator between a Dirichlet end at `a` and a Neumann end at
`b` makes its inverse an integral operator with the explicitly known
kernel

    G(x, s) = min(x, s) - a + sum_{x_k < min(x,s)} beta(x_k) w_k,

and the negative eigenvalues of the operator are the reciprocals of
the negative eigenvalues of its symmetrized Nystrom matrix.  That
matrix is the inverse of a symmetric tridiagonal matrix (a three-point
finite-difference delta' operator), so negative_spectrum solves the
tridiagonal inverse directly in O(n k) time and O(n) memory.  The
per-grid count is #{dg < 0}, the number of negative steps of the
kernel diagonal g_i = G(x_i, x_i); it is exact by Sylvester's law of
inertia, with no cut on small eigenvalues.  It counts the negative
atoms whose beta_k w_k outweighs the node spacing across them, so a
grid sees every negative atom once h < min |beta_k w_k|.  No dense
matrix is assembled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from . import tridiagonal
from .errors import (
    DepthTooLarge,
    DomainError,
    EvaluationOnAtom,
    GridTooCoarse,
    JumpOffSupport,
    UnconvergedEigenvalue,
    _checked_floats,
)


# ---------------------------------------------------------------------------
# atomic measures and intensity functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive measure supported on finitely many atoms."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = _checked_floats(self.positions, "atom positions", increasing=True)
        w = _checked_floats(self.weights, "atom weights")
        if x.shape != w.shape:
            raise ValueError("positions and weights must align")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support(self) -> tuple[float, float]:
        """(first atom, last atom); an empty measure has no support, a ValueError."""
        if not len(self):
            raise ValueError("the measure is empty: it has no atoms, so no support")
        return float(self.positions[0]), float(self.positions[-1])

    def __len__(self) -> int:
        return self.positions.size


class BetaFunction:
    """Real intensity on the atoms of a measure: one constant, or one value per atom.
    Its values are checked finite when it is built."""

    def __init__(self, rule: Union[float, Sequence[float]]):
        self._values = _checked_floats(rule, "beta")
        self._constant = np.ndim(rule) == 0

    @classmethod
    def constant(cls, value: float) -> "BetaFunction":
        return cls(float(value))

    def at_atoms(self, mu: AtomicMeasure) -> np.ndarray:
        vals = self._values.repeat(len(mu)) if self._constant else self._values
        if vals.shape != mu.positions.shape:
            raise ValueError("beta values must align with the atoms")
        return vals

    def jumps(self, mu: AtomicMeasure) -> np.ndarray:
        """beta_k w_k per atom: the delta' intensity an atom carries as a point."""
        return self.at_atoms(mu) * mu.weights


def _on_atoms(xs: np.ndarray, p) -> np.ndarray:
    """Whether each point p is one of the sorted atoms xs: equal to its float;
    with no atoms, none is."""
    if not xs.size:
        return np.zeros(np.shape(p), dtype=bool)
    return xs[np.minimum(np.searchsorted(xs, p), xs.size - 1)] == p


def cantor_measure(depth: int, interval: tuple[float, float] = (0.0, 1.0)) -> AtomicMeasure:
    """Uniform mass on the midpoints of the level-`depth` middle-thirds pieces.

    2^depth atoms of weight 2^-depth; total mass 1 at every depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > 20:
        raise DepthTooLarge("cantor depth capped at 20")
    c0, c1 = float(interval[0]), float(interval[1])
    if c1 <= c0:
        raise ValueError("interval must be nondegenerate")
    lo, hi = np.array([c0]), np.array([c1])
    for _ in range(depth):      # each piece splits into its outer thirds, kept in order
        third = (hi - lo) / 3.0
        lo, hi = np.column_stack((lo, hi - third)).ravel(), np.column_stack((lo + third, hi)).ravel()
    mids = 0.5 * (lo + hi)
    return AtomicMeasure(mids, np.full(mids.size, 0.5 ** depth))


def cantor_blocks(depth: int, level: int) -> list[np.ndarray]:
    """Atom-index blocks of a depth-`depth` measure grouped at `level`.

    2^level blocks of 2^(depth-level) consecutive atoms each, matching
    the level-`level` construction intervals.
    """
    if not 0 <= level <= depth:
        raise ValueError("need 0 <= level <= depth")
    per = 2 ** (depth - level)
    return [np.arange(b * per, (b + 1) * per) for b in range(2 ** level)]


# ---------------------------------------------------------------------------
# measure boundary data
# ---------------------------------------------------------------------------

@dataclass
class MeasureBoundaryData:
    """Per-atom boundary data: measure derivatives and mean traces."""

    dpsi_dmu: np.ndarray
    dpsi_prime_dmu: np.ndarray
    psi_r: np.ndarray
    dpsi_r: np.ndarray


def mu_derivative(psi, mu: AtomicMeasure) -> MeasureBoundaryData:
    """Boundary data of a piecewise function with jumps only on the atoms;
    a jump anywhere else raises JumpOffSupport.

    `psi` implements the one_sided/jump_points protocol of this module.
    On an atom of weight w, dpsi/dmu is the value jump divided by w and
    dpsi'/dmu the derivative jump divided by w; the arrays take the
    dtype of psi's limits.
    """
    xs, ws = mu.positions, mu.weights
    p = np.asarray(psi.jump_points(), dtype=float)
    off = ~_on_atoms(xs, p)
    if off.any():
        raise JumpOffSupport(f"jump at {p[off][0]} off the measure support")
    vm, dm = psi.one_sided(xs, -1)
    vp, dp = psi.one_sided(xs, +1)
    return MeasureBoundaryData((vp - vm) / ws, (dp - dm) / ws, 0.5 * (vp + vm), 0.5 * (dp + dm))


@dataclass
class PiecewiseFunction:
    """Helper wrapper: callables (f, f') valid between consecutive breakpoints.

    The callables take and return arrays.
    """

    breakpoints: np.ndarray
    values: list          # piece i valid on (breakpoints[i-1], breakpoints[i])
    derivatives: list

    def __post_init__(self):
        self.breakpoints = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        if len(self.values) != self.breakpoints.size + 1:
            raise ValueError("need one piece more than breakpoints")

    def one_sided(self, x, side: int):
        x = np.asarray(x, dtype=float)
        piece = np.searchsorted(self.breakpoints, x, side="right" if side > 0 else "left")
        val, der = np.zeros(x.shape), np.zeros(x.shape)
        for i in np.unique(piece):
            m = piece == i
            val[m], der[m] = self.values[i](x[m]), self.derivatives[i](x[m])
        return (val.item(), der.item()) if x.ndim == 0 else (val, der)

    def jump_points(self) -> list[float]:
        vm, _ = self.one_sided(self.breakpoints, -1)
        vp, _ = self.one_sided(self.breakpoints, +1)
        return self.breakpoints[vm != vp].tolist()


# ---------------------------------------------------------------------------
# Green kernel and Nystrom discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenKernel:
    """Kernel of the inverse boxed operator (Dirichlet at a, Neumann at b)."""

    a: float
    b: float
    mu: AtomicMeasure
    beta: BetaFunction

    def __post_init__(self):
        _checked_floats((self.a, self.b), "box ends")
        lo, hi = self.mu.support
        if not (self.a < lo and hi < self.b):
            raise ValueError("the box (a, b) must contain the support")

    @cached_property
    def atom_offsets(self) -> np.ndarray:
        """[0, cumsum(beta*w)]: entry i is the kernel's atomic part above i atoms."""
        return np.concatenate(([0.0], np.cumsum(self.beta.jumps(self.mu))))


def green_kernel_value(k: GreenKernel, x: float, s: float) -> float:
    """G(x,s) = min(x,s) - a + sum of beta*w over atoms strictly below min."""
    xs = k.mu.positions
    if _on_atoms(xs, np.array([x, s], dtype=float)).any():
        raise EvaluationOnAtom("kernel evaluation requested on an atom")
    if not (k.a < x < k.b and k.a < s < k.b):
        raise ValueError("kernel arguments must lie inside the box")
    m = min(x, s)
    idx = np.searchsorted(xs, m, side="left")
    return m - k.a + float(k.atom_offsets[idx])


def _cells(k: GreenKernel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment-aligned midpoint cells: (nodes, widths, atoms below each node).

    Exactly n cells allocated proportionally to segment length between
    consecutive atoms: every segment gets at least one, the remainder
    goes by largest fractional part, and a surplus from the one-cell
    minimum is taken back from the segments with the most cells.
    Raises DomainError when n is below the segment count (atoms + 1).
    Aligning the kernel's kink lines with cell boundaries keeps every
    node off the atoms by construction and puts at most one atom between
    neighbouring nodes.
    """
    if n < 8:
        raise ValueError("need n >= 8")
    xs = k.mu.positions
    if n < xs.size + 1:
        raise DomainError(f"n = {n} cells cannot cover {xs.size + 1} segments")
    edges = np.concatenate(([k.a], xs, [k.b]))
    lengths = np.diff(edges)
    total = k.b - k.a
    counts = np.maximum(1, np.floor(n * lengths / total).astype(int))
    # distribute the remainder by largest fractional part, deterministically
    frac = n * lengths / total - np.floor(n * lengths / total)
    short = n - counts.sum()
    if short > 0:
        counts[np.argsort(-frac, kind="stable")[:short]] += 1
    for _ in range(-short):
        counts[np.argmax(counts)] -= 1
    weights = np.repeat(lengths / counts, counts)
    within = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    grid = np.repeat(edges[:-1], counts) + (within + 0.5) * weights
    if _on_atoms(xs, grid).any():
        raise EvaluationOnAtom("grid node collided with an atom")
    return grid, weights, np.searchsorted(xs, grid, side="left")


@dataclass
class NegativeSpectrumResult:
    """Per-grid counts and eigenvalues plus the extrapolated spectrum."""

    grid_sizes: np.ndarray
    counts: np.ndarray
    per_grid: list[np.ndarray]     # operator eigenvalues 1/nu, ascending
    eigenvalues: np.ndarray        # extrapolated, ascending
    errors: np.ndarray             # estimated discretization error


def _negative_eigenvalues(k: GreenKernel, n: int) -> np.ndarray:
    """Negative operator eigenvalues on the n-cell grid, ascending.

    The kernel matrix K_ij = g_min(i,j), g_i = G(x_i, x_i), factors as
    L diag(dg) L^T with L the all-ones lower triangle and dg = diff(g,
    prepend=0), so the inverse of M = S K S, S = diag(sqrt(h)), is the
    symmetric tridiagonal T = S^-1 L^-T diag(1/dg) L^-1 S^-1.  By
    Sylvester's law of inertia T has exactly count = #{dg < 0} negative
    eigenvalues, and they are the first count that bisection returns.
    ||T|| grows like 1/(h |dg_i|), so the bisection's absolute resolution
    (tridiagonal.resolution) costs shallow eigenvalues relative accuracy
    as the node spacing across a negative atom nears |beta_k w_k|, where
    dg_i vanishes.  Raises DomainError when the shallowest of them is not
    below minus that resolution.  Where dg_i is exactly 0, rows i-1 and i
    of K are equal, so K is singular; its nonzero eigenvalues are those of
    the grid with node i merged into node i-1, their weights summed.
    """
    grid, h, idx = _cells(k, n)
    dg = np.diff(grid - k.a + k.atom_offsets[idx], prepend=0.0)
    if not dg.all():
        kept = np.flatnonzero(dg)      # dg[0] = x_0 - a > 0 is always kept
        h, dg = np.add.reduceat(h, kept), dg[kept]
    count = int(np.count_nonzero(dg < 0.0))
    if count == 0:
        return np.empty(0)
    r = 1.0 / dg
    diag = (r + np.append(r[1:], 0.0)) / h
    off = -r[1:] / np.sqrt(h[:-1] * h[1:])
    lam = tridiagonal.eigenvalues(diag, off, 0, count - 1)
    if not lam[-1] < -tridiagonal.resolution(diag, off):
        raise DomainError(f"a negative eigenvalue on the n = {n} grid lies below the "
                          "resolution of the eigenvalue solver")
    return lam


def negative_spectrum(kern: GreenKernel, refine: Sequence[int]) -> NegativeSpectrumResult:
    """Negative eigenvalues of the boxed operator across grid sizes.

    On each grid the negative eigenvalues come from the tridiagonal
    inverse of the Nystrom matrix (see `_negative_eigenvalues`) in
    O(n k) time and O(n) memory; no dense matrix is built.  The count on
    a grid is exact: a node pair (x_i-1, x_i) straddling atom k gives
    dg_i = x_i - x_i-1 + beta_k w_k, so a negative atom is seen exactly
    when the node spacing across it is below |beta_k w_k|.  A grid that
    misses a negative atom this way warns GridTooCoarse with the
    resolution it needs; since no count exceeds the number of negative
    atoms, this also flags every count change across refinement.
    Matched eigenvalues across the two finest grids are
    Richardson-refined with an error estimate.  Raises
    UnconvergedEigenvalue when matched values disagree beyond 10x the
    estimated rate, DomainError when a grid's shallowest negative
    eigenvalue lies below the resolution of the eigenvalue solver, and
    ValueError unless at least two distinct grid sizes are given.
    """
    sizes = np.asarray(sorted(refine), dtype=int)
    if sizes.size < 2:
        raise ValueError("refine must contain at least two grid sizes")
    if np.any(np.diff(sizes) == 0):
        raise ValueError("grid sizes must be distinct")
    bw = kern.beta.jumps(kern.mu)
    neg_bw = -bw[bw < 0.0]
    per_grid = [_negative_eigenvalues(kern, int(n)) for n in sizes]
    counts = np.array([lam.size for lam in per_grid])
    for n, c in zip(sizes, counts):
        if c < neg_bw.size:
            warnings.warn(
                f"grid n = {n} resolves {c} of {neg_bw.size} negative atoms: the node "
                f"spacing next to each needs h < |beta_k w_k|, min {neg_bw.min():.6g}",
                GridTooCoarse, stacklevel=2,
            )

    m = int(min(counts[-1], counts[-2]))
    if m == 0:
        return NegativeSpectrumResult(sizes, counts, per_grid, np.array([]), np.array([]))
    # match from the shallow end: states closest to zero converge first
    fine = per_grid[-1][::-1][:m]
    prev = per_grid[-2][::-1][:m]
    diff = np.abs(fine - prev)
    rho = sizes[-1] / sizes[-2]
    # second-order midpoint-rule baseline; observed order used when stable
    order = 2.0
    if counts.size >= 3 and counts[-3] >= m:
        prev2 = per_grid[-3][::-1][:m]
        d1 = float(np.abs(prev - prev2).max())
        d2 = float(diff.max())
        if d2 > 10.0 * d1 and d1 > 0:
            raise UnconvergedEigenvalue(
                f"matched eigenvalue differences grew under refinement: {d1:g} -> {d2:g}"
            )
        if d1 > 0 and d2 > 0:
            est = np.log(d1 / d2) / np.log(sizes[-2] / sizes[-3])
            if 0.5 < est < 4.0:
                order = float(est)
    fac = rho ** order - 1.0
    extr = fine + (fine - prev) / fac
    err = diff / fac
    asc = np.argsort(extr)
    return NegativeSpectrumResult(sizes, counts, per_grid, extr[asc], err[asc])


def atomic_to_point_system(mu: AtomicMeasure, beta: BetaFunction):
    """Bridge oracle: the measure system as local delta' point interactions.

    On an atom, dpsi/dmu = psi_s / w and the condition dpsi/dmu =
    beta psi'_r becomes psi_s = (beta w) psi'_r: a delta' point
    interaction of intensity beta(x_k) w_k.
    """
    from .line import delta_prime_system

    return delta_prime_system(mu.positions, beta.jumps(mu))
