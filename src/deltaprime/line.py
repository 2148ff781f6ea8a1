"""Bound states of finitely many point interactions on the full line.

A system is a strictly increasing set of points x_1 < ... < x_N with
either one transmission matrix per point or a single global linear
relation A v = 0 on the stacked trace vector

    v = (psi(x_k+0), psi(x_k-0), psi'(x_k+0), psi'(x_k-0))_{k=1..N},

four entries per point, point-major.  Every system stores A as one stack
of blocks: a per-point system as N blocks of two rows on the four traces
of one point each, a global relation as the single 2N x 4N block.  The
H(kappa) route below builds its frame one block at a time, so a
per-point system never assembles a dense relation.  Bound states are
counted exactly by a Krein-Weyl inertia (Albeverio et al., Solvable
Models in Quantum Mechanics, ch. II.3; Derkach-Malamud boundary
triples).  Take the values Gamma0 = (v+_k, v-_k), the inward derivatives
Gamma1 = (d+_k, -d-_k), and an orthonormal frame of the condition plane
with Gamma0 rows X and Gamma1 rows Y, restricted to (ker X)^perp.  Then

    H(kappa) = X^H Y - X^H M(kappa) X

is Hermitian and increases with kappa, and its number of negative
eigenvalues C(kappa) is the number of bound states with decay rate above
kappa.  M is the Dirichlet-to-Neumann (Weyl) matrix of the line cut at
the points: -kappa on the two tails, and across a gap g, -kappa coth(kappa g)
on the diagonal and kappa csch(kappa g) off it, which tend to -1/g and
1/g as kappa -> 0.  So C(0+) = n_-(H(0)) is the exact total; an
eigenvalue of H(0) within rounding of zero is a zero-energy resonance
(the free line, delta'-potentials), not a state.  As -M(kappa) >=
kappa tanh(kappa g_min / 2), H(kappa) > 0 above a closed-form hi, so
[0, hi] holds every state.  Each ordered eigenvalue of H increases with
kappa, so the counts at the two ends of the window name the eigenvalues
that cross zero inside it, each exactly once, and Brent's method finds
every crossing however close two roots lie.  kappa_max never moves the
window: it selects branches by the count at min(hi, kappa_max), and none
below the lower end of a delta' window, where T > 0.  Each
state comes from the eigenvector h of H whose eigenvalue vanishes at its
root: the point values Gamma0 = X h fix the decaying solution on every
piece, as amplitudes of exponentials anchored at the interval ends,
e^{kappa(x - x_{i+1})} and e^{-kappa(x - x_i)}, by one 2 x 2 solve per gap.

Pure delta' systems (one matrix per point, each with a delta'
intensity beta_k, so that delta_prime_betas() is not None) take an O(N)
route instead; global relations and delta, mixed, gauged or nonlocal
systems keep H.  With E_ij = e^{-kappa |x_i - x_j|}, the delta' Krein
matrix is Q(kappa) = diag(1/beta) + (kappa/2) E, and E^{-1} is
tridiagonal.  Haynsworth inertia additivity gives

    C(kappa) = #{beta < 0} - n_-(T(kappa)),   T(kappa) = (2/kappa) E^{-1} + diag(beta),

with T symmetric tridiagonal, so a count is the signs of N LDL^T pivots;
deltaprime.tridiagonal owns that count, the bisection and its resolution.
Each ordered eigenvalue of T decreases with kappa; Brent's method runs on
those that cross zero in the window of _exact_window.  A null vector u of
T (LAPACK inverse iteration) is minus psi' at the points, where psi' is
continuous; psi'/kappa is a decaying solution, so the same gap solve on
-u/kappa gives the state.  This route never builds the frame.

A mirror-symmetric delta' system, whose points mirror about their midpoint
to within 4 eps max|x| and whose intensities equal their mirror images' to
within 4 ulps (decided once, when the system is built), has a T that
commutes with the reversal J, so T splits into an even and an odd
tridiagonal of sizes ceil(N/2) and floor(N/2) (_halves), read off each
round's one T build.  Their counts add, Brent runs on both halves' roots in
one lockstep, clusters form within a half, and each state's u is lifted as
(v, +-Jv), so it is even or odd by construction.  The symmetric pair's
halves are 1 x 1, so it runs without LAPACK.

On both routes all roots of a search advance together, one Brent step of
each per round, and each route builds its matrix, T or H, once per round
for all the round's kappas; the H route diagonalizes them in one stacked
call.  Each matrix reads the gap table r = e^{-kappa g}, 1 - r^2 at its
kappas (_gaps), and the table reads the system's gaps g and their cap
1e3/g, computed once per system, on first use, and kept read-only.  The
states of a search are built in one pass on one gap table, with a row at
every cluster's mean kappa followed by a row at every root: from it one
build of every cluster's T or H, an eigen-solve per cluster of roots (one
stacked call for H), whose orthonormal eigenvectors give independent
states, then in one call each the piece tables of every state (_anchored),
their traces, residuals and norms, and the parities.  A state is its kappa
and one piece table, the (a, b) of every piece.

Both routes share one mirror rule for points (_is_mirrored) and one parity
rule: a state's parity is the mirror block it was found in.  On the delta'
route that is its half of T (a lone point's T is its own even half).  On the
H route, a plane on mirrored points that the reflection maps to itself is
decided once, in _frame, whose frame is then turned so that H(kappa) splits
into odd and even blocks; one stacked eigh returns each eigenvector on one
block.  Every state of a system that is not mirror-invariant is "none".
A weak attractive delta' intensity binds at kappa ~ 2/|beta|; DomainError
marks an energy -kappa^2 beyond the floats, a delta' intensity so strong or a
gap so small that T overflows at the window's lower end or at a count's kappa,
and eigenvalues below eps ||T||.  An error that a gap causes names the
smallest gap and its two points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import tridiagonal
from .errors import (
    DomainError,
    GridTooCoarse,
    NotAnEigenvalue,
    NotSelfAdjoint,
    _checked_floats,
)
from .interactions import DeltaPrime, InteractionKind, TransmissionMatrix, _phase_defects, lambda_of

DEFAULT_GRID = 2048          # unused here; kept because perfbench/workloads.py reads it
NEAR_THRESHOLD = 1e-6
THRESHOLD_RTOL = 1e-10       # relative eigenvalue of H(0) taken as a zero-energy resonance
RESIDUAL_TOL = 1e-6          # relative eigenvalue of T or H accepted as a root
STATE_RESIDUAL_TOL = 1e-8    # matching residual above which a state is flagged
FRAME_RANK_TOL = 1e-12       # relative singular value of X kept; mirror residual of an invariant frame
DEFECT_TOL = 1e-8            # boundary-form defect above which a plane is rejected
CLUSTER_RTOL = 1e-10         # roots closer than this (relative) form one cluster
# ROOT_RTOL bounds Brent's bracket, not the error in kappa: the eps ||T|| resolution
# of the eigenvalue Brent reads sets that, 1.7e-11 to 1.2e-10 relative at Cantor depth 10
ROOT_RTOL = 4 * np.finfo(float).eps
ROOT_XTOL = np.finfo(float).smallest_subnormal   # the least positive xtol: ROOT_RTOL sets the bracket


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class PointSystem:
    """Point interactions on the line, per-point or globally coupled.

    The conditions are one read-only stack of blocks, shape (K, R, C): one
    2 x 4 block per point (K = N), or a global relation as the single
    2N x 4N block (K = 1).  A pure delta' system also stores its
    intensities.  The row-normalized stack and the frame of the plane in
    boundary-triple coordinates are built on first use, only by the routes
    that need them.  All stay read-only.
    """

    def __init__(
        self,
        points: Sequence[float],
        lambdas: Optional[Sequence[TransmissionMatrix]] = None,
        relation: Optional[np.ndarray] = None,
    ):
        self.points = _checked_floats(points, "points", increasing=True)
        n = self.points.size
        if (lambdas is None) == (relation is None) and n > 0:
            raise ValueError("give exactly one of per-point lambdas or a global relation")
        self._betas, self._mirrored = None, False
        if lambdas is not None:
            if len(lambdas) != n:
                raise ValueError("need one transmission matrix per point")
            mats = np.array([lam.entries for lam in lambdas]).reshape(n, 2, 2)
            if not np.all(_phase_defects(mats) <= 1e-9):     # a NaN defect fails too
                raise ValueError("per-point matrix violates the e^{i eta} R, det R = 1 form")
            self._blocks = _per_point_blocks(mats)
            b = self._betas = _delta_prime_betas(mats)
            # T splits when the intensities also mirror, to within 4 ulps; a lone
            # point's T is its own even half
            self._mirrored = b is not None and n > 1 and _is_mirrored(self.points) and bool(np.all(
                np.abs(b - b[::-1]) <= 4.0 * np.spacing(np.maximum(np.abs(b), np.abs(b[::-1])))))
        elif relation is not None:
            relation = _checked_floats(relation, "relation", dtype=complex)
            if relation.shape != (2 * n, 4 * n):
                raise ValueError(f"relation must be {2*n}x{4*n}")
            if np.linalg.matrix_rank(relation, tol=1e-10) < 2 * n:
                raise ValueError("relation must have full row rank")
            self._blocks = relation[None]
        else:
            self._blocks = np.zeros((0, 2, 4), dtype=complex)
        for a in (self._blocks, self._betas):
            if a is not None:
                a.setflags(write=False)

    @cached_property
    def _conditions(self) -> np.ndarray:
        """The blocks with every row scaled to unit norm, for the residuals."""
        a = self._blocks / np.linalg.norm(self._blocks, axis=-1, keepdims=True)
        a.setflags(write=False)
        return a

    @cached_property
    def _spacing(self) -> np.ndarray:
        """The gaps g of the points and the cap 1e3/g of _gaps (_spacing_of)."""
        return _spacing_of(self.points)

    @cached_property
    def _min_gap(self) -> float:
        """The smallest gap of the points, inf for fewer than two."""
        return float(self._spacing[0].min(initial=np.inf))

    @cached_property
    def _plane(self) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
        """X, X^H Y, the defect of the frame, the decay bound constant c and
        the mirror sign of each column of _frame: the delta' route needs none
        of them."""
        frame = _frame(self._blocks, self.points)
        for a in frame[:2] + frame[4:]:
            a.setflags(write=False)
        return frame

    @property
    def n_points(self) -> int:
        return self.points.size

    def delta_prime_betas(self) -> Optional[np.ndarray]:
        """Per-point delta' intensities (read-only), or None if not a pure
        delta' system."""
        return self._betas


def _per_point_blocks(mats: np.ndarray) -> np.ndarray:
    """(N, 2, 4) rows of v+ = L11 v- + L12 d-, d+ = L21 v- + L22 d- on the
    traces (v+, v-, d+, d-) of each point."""
    b = np.zeros((len(mats), 2, 4), dtype=complex)
    b[:, 0, 0] = 1.0
    b[:, 1, 2] = 1.0
    b[:, :, 1] = -mats[:, :, 0]
    b[:, :, 3] = -mats[:, :, 1]
    return b


def _delta_prime_betas(m: np.ndarray) -> Optional[np.ndarray]:
    """The (1,2) entries of per-point matrices m, or None unless all are delta'."""
    # delta' iff Lambda - I leaves only a real (1,2) entry
    rest = np.abs((m - np.eye(2))[:, [0, 1, 1], [0, 0, 1]])
    if max(rest.max(initial=0.0), np.abs(m[:, 0, 1].imag).max(initial=0.0)) > 1e-12:
        return None
    return m[:, 0, 1].real


def _is_mirrored(points: np.ndarray) -> bool:
    """Whether points mirror about their midpoint to within 4 eps max|x|: the one
    point rule of both routes, for the halves of T (_halves) and the mirror
    blocks of the frame (_frame)."""
    drift = np.abs(points + points[::-1] - (points[0] + points[-1]))
    return bool(np.all(drift <= 4.0 * np.finfo(float).eps * np.abs(points).max()))


def _frame(blocks: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray]:
    """X, X^H Y, the boundary-form defect of the plane cut out by the stack
    of condition blocks, shape (K, R, C), on the points,
    c = max(0, -lambda_min(X^H Y)) / s_min(X)^2, and the mirror sign of each
    column: +1 even, -1 odd, or 0 throughout a frame that is not mirror-invariant.

    One batched SVD gives the null space of every block; placed on the
    diagonal, they are an orthonormal basis (X; Y) of the plane in the
    coordinates Gamma0 = (v+_k, v-_k), Gamma1 = (d+_k, -d-_k), so a
    per-point system takes N SVDs of 2 x 4 blocks.  The defect
    ||X^H Y - Y^H X||_2 is the largest |omega(p, q)| over unit traces of
    the plane: zero iff the plane is Lagrangian.  X and X^H Y are then
    restricted to (ker X)^perp, on which the form does not vanish
    identically; c is taken there and bounds the decay rates (_window).

    On mirrored points (_is_mirrored) the reflection x -> 2c - x reverses the
    rows of X and of Y, so the plane is invariant when X[::-1] = XS and
    Y[::-1] = YS to within FRAME_RANK_TOL, S = X^H X[::-1] + Y^H Y[::-1], a
    Hermitian involution.  Such a frame is turned by S's eigenvectors, odd
    (S = -1) first, whose eigenvalues are the signs, so that H(kappa) is block
    diagonal (_krein).
    """
    k, rank, width = blocks.shape
    dim = k * width
    if dim == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), 0.0, 0.0, np.zeros(0)
    if not blocks.imag.any():
        blocks = blocks.real
    null = np.linalg.svd(blocks)[2][:, rank:].conj().transpose(0, 2, 1)
    basis = np.zeros((k, width, k, width - rank), null.dtype)
    basis[np.arange(k), :, np.arange(k)] = null
    basis = basis.reshape(dim // 4, 4, -1)
    x = basis[:, :2].reshape(dim // 2, -1)
    y = (basis[:, 2:] * np.array([[1.0], [-1.0]])).reshape(dim // 2, -1)
    form = x.conj().T @ y
    defect = float(np.linalg.norm(form - form.conj().T, 2))
    _, s, vh = np.linalg.svd(x)
    s = s[s > FRAME_RANK_TOL * s[0]]
    keep, signs = vh[: s.size].conj().T, np.zeros(s.size)
    if _is_mirrored(points):
        xk, yk = x @ keep, y @ keep
        mirror = xk.conj().T @ xk[::-1] + yk.conj().T @ yk[::-1]
        if max(np.abs(xk[::-1] - xk @ mirror).max(), np.abs(yk[::-1] - yk @ mirror).max()) <= FRAME_RANK_TOL:
            signs, turn = np.linalg.eigh(mirror)
            keep, signs = keep @ turn, np.sign(signs)
    xy = keep.conj().T @ form @ keep
    xy = 0.5 * (xy + xy.conj().T)
    # min(lambda_min, 0) and s_min, both 0-safe: singular values of X are at most 1
    lam = np.linalg.eigvalsh(xy).min(initial=0.0)
    return x @ keep, xy, defect, -float(lam) / s.min(initial=1.0) ** 2, signs


def from_kinds(items: Sequence[tuple[float, InteractionKind]]) -> PointSystem:
    """Assemble a per-point system from (position, kind) pairs; lambda_of
    refuses a split kind (SplitHasNoLambda)."""
    items = sorted(items, key=lambda t: t[0])
    return PointSystem(
        [x for x, _ in items], lambdas=[lambda_of(k) for _, k in items]
    )


def delta_prime_system(points: Sequence[float], betas: Sequence[float]) -> PointSystem:
    return PointSystem(points, lambdas=[lambda_of(DeltaPrime(b)) for b in betas])


def delta_prime_pair(beta: float) -> PointSystem:
    """Local delta' interactions of equal intensity at -1 and +1."""
    return delta_prime_system([-1.0, 1.0], [beta, beta])


def nonlocal_example(verbatim: bool = False) -> PointSystem:
    """Two-point nonlocal system at -1, +1: derivative continuous at both
    points, and for j = 1, 2

        psi'(x_j+0) + psi'(x_j-0)
          + [psi(x_1+0) - psi(x_1-0)] + [psi(x_2+0) - psi(x_2-0)] = 0.

    This plane is Lagrangian and carries exactly one negative
    eigenvalue, at the positive root of k = 1 + tanh(k), with an odd
    eigenfunction.  With verbatim=True the second condition instead
    repeats the x_1 *derivative* jump, a transcription of these
    conditions that circulates in the literature; that plane is not
    Lagrangian and rejects the odd eigenfunction (kept so the
    discrepancy stays demonstrable).
    """
    # columns (v+, v-, d+, d-) at x_1, then at x_2
    a = np.array([[0, 0, 1, -1, 0, 0, 0, 0],     # d+(x1) - d-(x1) = 0
                  [0, 0, 0, 0, 0, 0, 1, -1],     # d+(x2) - d-(x2) = 0
                  [1, -1, 1, 1, 1, -1, 0, 0],    # d+(x1) + d-(x1) + jumps of psi at x1, x2
                  [1, -1, 0, 0, 1, -1, 1, 1]])   # d+(x2) + d-(x2) + the same jumps
    if verbatim:                                  # the x1 jump of psi' in place of psi's
        a[2:, :4] += [-1, 1, 1, -1]
    return PointSystem([-1.0, 1.0], relation=a)


# ---------------------------------------------------------------------------
# Krein-Weyl counting function
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")      # a subnormal g's cap is inf, which leaves kappa g as it is
def _spacing_of(points: np.ndarray) -> np.ndarray:
    """The rows (g, 1e3/g), read-only: the gaps g of points and the cap of
    _gaps' kappa."""
    g = points[1:] - points[:-1]
    spacing = np.array((g, 1e3 / g))
    spacing.setflags(write=False)
    return spacing


def _gaps(spacing: np.ndarray, kappa) -> tuple[np.ndarray, np.ndarray]:
    """The gap table: r = e^{-kappa g} and 1 - r^2 for every gap g of a
    spacing (g, 1e3/g) (_spacing_of), the latter accurate for small kappa g;
    kappa is a float or a column of floats, a row of the table per kappa."""
    g, cap = spacing
    # the cap changes no value (r = 0 from kappa g = 746 on) and keeps 2 kappa g finite
    kg = np.minimum(kappa, cap) * g
    return np.exp(-kg), -np.expm1(-2.0 * kg)


def _krein(sys: PointSystem, kappa, table=None) -> np.ndarray:
    """H(kappa) = X^H Y - X^H M(kappa) X, shape (r, r), for kappa >= 0; a
    column of kappa gives one H per row, shape (B, r, r), each with the bits
    of its own build, read off the gap table at kappa > 0 when it is given.
    In a mirror-invariant frame (_frame) M commutes with the reflection, so
    the blocks joining odd and even columns vanish to rounding; they are set
    to 0, the mirror average that _halves takes for T."""
    x, xy, defect, _, signs = sys._plane
    if defect > DEFECT_TOL:
        raise NotSelfAdjoint(
            f"condition plane is not Lagrangian (boundary-form defect {defect:.2e})"
        )
    # kappa coth and kappa csch of kappa g, finite for large kappa g; a kappa = 0 row reads
    # them at kappa = 1, so kappa times them is 0, and then takes their limits 1/g
    zero = kappa == 0
    r, den = _gaps(sys._spacing, kappa + zero) if table is None else table
    kcoth, kcsch = kappa * ((1.0 + r * r) / den), kappa * (2.0 * r / den)
    if np.count_nonzero(zero):
        lim = zero / sys._spacing[0]
        kcoth, kcsch = kcoth + lim, kcsch + lim
    # rows of X: v+_1, v-_1, ..., v+_N, v-_N; gap j joins v+_j and v-_{j+1}
    m = np.full(np.shape(kappa)[:-1] + x.shape[:1], -kappa)
    m[..., 0:-2:2] = m[..., 3::2] = -kcoth
    mx = m[..., None] * x
    off = kcsch[..., None]
    mx[..., 0:-2:2, :] += off * x[3::2]
    mx[..., 3::2, :] += off * x[0:-2:2]
    h = xy - x.conj().T @ mx
    if signs.any():
        h[..., signs[:, None] != signs] = 0.0
    return h


def _eigenvalues(sys: PointSystem, kappa) -> np.ndarray:
    """The ascending eigenvalues of H(kappa); a column of kappa is diagonalized
    in one stacked call, a row of eigenvalues per kappa."""
    return np.linalg.eigvalsh(_krein(sys, kappa))


# ---------------------------------------------------------------------------
# Krein-Sturm route for pure delta' systems
# ---------------------------------------------------------------------------

def _tridiagonal(sys: PointSystem, kappa, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of T(kappa) = (2/kappa) E^{-1} + diag(beta),
    E_ij = e^{-kappa |x_i - x_j|}; a column of kappa gives the rows of each,
    read off the gap table at kappa when it is given."""
    r, den = _gaps(sys._spacing, kappa) if table is None else table
    t = r / den                                 # r / (1 - r^2), finite for small kappa g
    s = r * t                                   # 1/(1 - r^2) - 1
    diag = np.ones(r.shape[:-1] + (sys.n_points,))
    diag[..., :-1] += s
    diag[..., 1:] += s
    return (2.0 / kappa) * diag + sys._betas, (-2.0 / kappa) * t


def _t_blocks(sys: PointSystem, kappa, table=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """T(kappa) as tridiagonals whose spectra together are T's: T itself, or the
    even and odd halves of a mirror-symmetric system, all from one _tridiagonal
    build (on the gap table, if given); a column of kappa gives the rows of each."""
    t = _tridiagonal(sys, kappa, table)
    return _halves(*t) if sys._mirrored else [t]


def _halves(diag: np.ndarray, off: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The even and odd halves (Cantoni and Butler, LAA 13, 1976) of the mirror
    average (T + JTJ)/2 of a tridiagonal T that commutes with the reversal J to
    rounding, whose eigenvalues differ from T's only at second order in T - JTJ;
    T's left half alone would differ at first order, as mirrored gaps g agree
    only to eps max|x|, a relative eps max|x| / g.  In the basis (e_i +- e_{N-1-i})/sqrt 2, with e_m
    for the middle point of odd N: for even N the entry o joining the two middle
    points adds +-o to the last diagonal entry; for odd N the middle point joins
    the even half, its off-diagonal entry scaled by sqrt 2."""
    n = diag.shape[-1]
    m = n // 2
    d = 0.5 * (diag[..., :n - m] + diag[..., ::-1][..., :n - m])
    o = 0.5 * (off[..., :m] + off[..., ::-1][..., :m])
    if n % 2:
        o[..., m - 1:] *= math.sqrt(2.0)
        return [(d, o), (d[..., :m], o[..., :m - 1])]
    even, odd = d.copy(), d
    even[..., -1] += o[..., -1]
    odd[..., -1] -= o[..., -1]
    return [(even, o[..., :-1]), (odd, o[..., :-1])]


def _lift(v: np.ndarray, n: int, block: int) -> np.ndarray:
    """Eigenvectors of T, shape (n, k), from eigenvectors v of its even (block 0)
    or odd (block 1) half: (v, +-Jv)/sqrt 2, and for odd n the middle entry of v,
    or 0 in the odd half."""
    m = n // 2
    pair = math.sqrt(0.5) * v[:m]
    middle = v[m:] if len(v) > m else np.zeros((n % 2, v.shape[1]))
    return np.concatenate((pair, middle, (1.0, -1.0)[block] * pair[::-1]))


def _exact_window(sys: PointSystem) -> tuple[float, float]:
    """(lo, hi) outside which a delta' system with some beta < 0 has no
    state, from closed-form bounds that do not use the count.

    Both follow from Weyl's inequalities for T = (2/kappa) E^{-1} + diag(beta).
    The entries of E lie in (0, 1], so ||E|| <= N, (2/lo) E^{-1} >= 2 max|beta|
    and T(lo) > 0.  Gershgorin on the tridiagonal E^{-1}, whose row sums are
    1 + sum over adjacent gaps of 1/(e^{kappa g} - 1) <= 1 + 2/(kappa g_min),
    gives ||(2/hi) E^{-1}|| <= min|beta_-|/2, so the #{beta < 0} negative
    eigenvalues of diag(beta) stay negative in T(hi).
    """
    attract = -sys._betas[sys._betas < 0]
    # Python floats overflow to inf without a warning, as hi does for a weak intensity
    weakest = float(attract.min())
    g = sys._min_gap
    lo = 1.0 / (sys.n_points * float(attract.max()))
    # (2/kappa)(1 + 2/(kappa g)) equals min|beta_-| at half of hi
    hi = 2.0 * (1.0 + math.sqrt(1.0 + 4.0 * weakest / g)) / weakest
    return lo, hi


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundState:
    """Decaying solution at energy -kappa^2 with its matching data.

    pieces, shape (N+1, 2), holds on piece i the (a, b) of
    psi = a e^{kappa(x - hi)} + b e^{-kappa(x - lo)}, lo and hi the piece's
    end points; the left tail's b and the right tail's a are 0.
    """

    kappa: float
    pieces: np.ndarray
    points: np.ndarray
    residual: float
    parity: str = "none"

    @property
    def energy(self) -> float:
        return -self.kappa ** 2

    @property
    def near_threshold(self) -> bool:
        return self.kappa < NEAR_THRESHOLD

    @property
    def c_left(self):
        return self.pieces[0, 0]

    @property
    def c_right(self):
        return self.pieces[-1, 1]

    @property
    def interior(self) -> np.ndarray:
        """The (a_i, b_i) of the N - 1 gaps, shape (N-1, 2)."""
        return self.pieces[1:-1]

    def one_sided(self, x, side: int):
        """(psi, psi') limit at x from the right (+1) or left (-1)."""
        x = np.asarray(x, dtype=float)
        pts, k = self.points, self.kappa
        idx = pts.searchsorted(x, side="right" if side > 0 else "left")
        # the clamps keep the tails' zero terms finite
        grow = self.pieces[idx, 0] * np.exp(np.minimum(k * (x - pts[np.minimum(idx, pts.size - 1)]), 0.0))
        decay = self.pieces[idx, 1] * np.exp(np.minimum(-k * (x - pts[np.maximum(idx - 1, 0)]), 0.0))
        val, der = grow + decay, k * (grow - decay)
        return (val.item(), der.item()) if val.ndim == 0 else (val, der)

    def evaluate(self, x):
        """psi(x); at a point the interval to its right applies."""
        return self.one_sided(x, +1)[0]

    def jump_points(self) -> list[float]:
        return self.points.tolist()

    def norm_squared(self):
        """||psi||^2, by the state pass's formula (_norm_squared)."""
        k, spacing = np.array([self.kappa]), _spacing_of(self.points)
        return _norm_squared(k, self.pieces, *_gaps(spacing, k), spacing[0])


def _norm_squared(k: np.ndarray, pieces: np.ndarray, r: np.ndarray, den: np.ndarray, g: np.ndarray):
    """||psi||^2 of piece tables of shape S + (N+1, 2) at decay rates k of
    shape S + (1,), from the gap table r, den at k and the gaps g: shape S."""
    a, b = pieces[..., 1:-1, 0], pieces[..., 1:-1, 1]
    gaps = (np.abs(a) ** 2 + np.abs(b) ** 2) * den / (2 * k) + 2 * np.real(a * np.conj(b)) * r * g
    c = pieces[..., (0, -1), (0, 1)]         # c_left, c_right
    # hypot, then pow: |c|^2 rounded as the scalar abs(c) ** 2 rounds it, on any leading axes
    tails = np.float_power(np.hypot(c.real, c.imag), 2)
    return (tails[..., 0] + tails[..., 1]) / (2 * k[..., 0]) + gaps.sum(axis=-1)


def _states(sys: PointSystem, clusters: list[list[tuple[float, tuple[int, int]]]]) -> list[BoundState]:
    """Every state of a search, clusters of (kappa, (b, j)) of one block b each,
    by descending first kappa: the one builder of BoundState.  One gap table
    (_gaps) serves the pass: a row at each cluster's mean kappa (a lone
    root's is the root) for the cluster's T or H, its piece tables and
    traces, then a row at every root for its norm.  Per cluster,
    eigenvectors j.. of block b of T (pure delta', _t_blocks) or of H at its
    mean, every cluster's matrix built in one call, give the states' point
    values; their eigenvalues must vanish relative to sum |beta| u^2 for T,
    where the two terms of u^T T u cancel at a root, or max(1, ||H||), as in
    _window.  Then once for all: the piece tables (_anchored), the residual
    of the one-sided traces in the row-normalized blocks, a scaling to
    largest amplitude 1, so the norm cannot underflow, and the norm at each
    root; the parity is the mirror block each state was found in.  The first
    failing cluster raises DomainError when -kappa^2 is not a float or the
    eigenvalues vanish only to their route's resolution, else
    NotAnEigenvalue; the first cluster holds the deepest root."""
    deepest = clusters[0][0][0]
    if not math.isfinite(deepest * deepest):
        raise _too_deep(sys, deepest)
    roots = [kappa for cluster in clusters for kappa, _ in cluster]
    means = [c[0][0] if len(c) == 1 else float(np.mean([kappa for kappa, _ in c])) for c in clusters]
    spans = [(min(key for _, key in cluster), len(cluster)) for cluster in clusters]
    # the gap table's rows: the cluster means, then every root
    n_means = len(means)
    at_mean = [i for i, cluster in enumerate(clusters) for _ in cluster]
    column = np.array(means + roots)
    r, den = _gaps(sys._spacing, column[:, None])
    route = _h_amplitudes if sys._betas is None else _t_amplitudes
    values, parities = [], []
    for cluster, (lam, scale, resolution, vp, vm, parity) in zip(
            clusters, route(sys, column[:n_means], spans, (r[:n_means], den[:n_means]))):
        if not np.all(np.abs(lam) <= RESIDUAL_TOL * scale):
            worst, root = np.abs(lam).max(), f"{len(cluster)}-fold root at kappa={cluster[0][0]:.9g}"
            if worst <= resolution():
                raise DomainError(f"the {root} lies below the resolution of the eigenvalue solver")
            raise NotAnEigenvalue(f"eigenvalue {worst:.2e} exceeds {RESIDUAL_TOL:g} times its "
                                  f"scale {np.min(scale):.2e} at the {root}")
        values.append((vp, vm))
        parities += parity
    k = column[at_mean][:, None]
    # on gap i, psi is a_i r_i + b_i at its left end and a_i + b_i r_i at its right end;
    # on a tail, whose other amplitude is 0, r is 1: the columns of r padded by 1 on each side
    padded = np.ones((len(roots), sys.n_points + 1))
    padded[:, 1:-1] = r[at_mean]
    tables = _anchored(*(np.hstack(v) for v in zip(*values)), padded[:, 1:-1].T, den[at_mean].T)
    if sys._betas is not None:
        tables[:, 1:, 1] *= -1.0      # the derivative of a decaying exponential (_t_amplitudes)
    a, b = tables[..., 0], tables[..., 1]
    grow, decay = a[:, 1:] * padded[:, 1:], b[:, :-1] * padded[:, :-1]
    # (N, 4, states): v+, v-, d+, d-, laid out state by state for the norms' summation order
    traces = np.stack((grow + b[:, 1:], a[:, :-1] + decay,
                       k * (grow - b[:, 1:]), k * (a[:, :-1] - decay)), axis=-1).transpose(1, 2, 0)
    rows = sys._conditions
    miss = np.einsum("kij,kjm->kim", rows, traces.reshape(len(rows), -1, len(roots)))
    res = np.linalg.norm(miss, axis=(0, 1)) / np.linalg.norm(traces, axis=(0, 1))
    flat = tables.reshape(len(roots), -1).astype(complex)
    pieces = (flat / flat[np.arange(len(roots)), np.abs(flat).argmax(axis=1)][:, None]).reshape(tables.shape)
    pieces /= np.sqrt(_norm_squared(column[n_means:, None], pieces, r[n_means:], den[n_means:],
                                    sys._spacing[0]))[:, None, None]
    pieces[:, 0, 1] = pieces[:, -1, 0] = 0.0      # +0 again where a complex pivot flipped a sign
    pieces.setflags(write=False)
    return [BoundState(kappa, pieces[i], sys.points, float(res[i]), parities[i])
            for i, kappa in enumerate(roots)]


def _t_amplitudes(sys: PointSystem, kappas: np.ndarray, spans: list[tuple[tuple[int, int], int]], table):
    """Per kappa and span ((block, first), mult): eigenvalues first.. of that
    block of T(kappa) (_t_blocks), their scales, the block's resolution as a
    function, as only a miss reads it, the values (vp, vm), shape (N, mult),
    at the points of the solutions the states derive from, and their
    parities; every T is built in one _tridiagonal call on the gap table at
    kappas.  An eigenvector u of T at a root, lifted from a half (_lift) for
    a mirror-symmetric system, is -psi' at the points, where psi' is
    continuous, so psi'/kappa is the decaying solution with value -u/kappa on
    both sides of every point, and the state's decay column is that
    solution's with its sign flipped, as the derivative of a decaying
    exponential.  So the even half, or a lone point's T, gives odd states,
    the odd half even ones, and the full T of an asymmetric system none."""
    blocks = _t_blocks(sys, kappas[:, None], table)
    for i, (kappa, ((b, first), mult)) in enumerate(zip(kappas, spans)):
        diag, off = blocks[b][0][i], blocks[b][1][i]
        lam, u = tridiagonal.eigenvectors(diag, off, first, first + mult - 1)
        if sys._mirrored:
            u = _lift(u, sys.n_points, b)
        d = -u / kappa
        parity = ("odd", "even")[b] if sys._mirrored or sys.n_points == 1 else "none"
        yield (lam, np.abs(sys._betas) @ (u * u),
               lambda diag=diag, off=off: tridiagonal.resolution(diag, off), d, d, [parity] * mult)


def _h_amplitudes(sys: PointSystem, kappas: np.ndarray, spans: list[tuple[tuple[int, int], int]], table):
    """Per kappa and span ((0, first), mult): eigenvalues first.. of H(kappa), their
    scale, eps times it (as a function, as for T), the point values
    Gamma0 = X h, (v+_k, v-_k), of the eigenvectors h, and their parities;
    every H is built in one _krein call on the gap table at kappas and
    diagonalized in one stacked eigh.  In a mirror-invariant frame H is block
    diagonal, so eigh returns each h on one block, odd or even, which names
    its parity; other frames give none."""
    lams, hs = np.linalg.eigh(_krein(sys, kappas[:, None], table))
    for lam, h, ((_, first), mult) in zip(lams, hs, spans):
        scale = max(1.0, np.abs(lam).max())
        h = h[:, first:first + mult]
        v = (sys._plane[0] @ h).reshape(-1, 2, mult)
        # the mirror sign of h's block, +1 even or -1 odd; a frame that is not turned gives none
        parity = ([("odd", "even")[int(p > 0)] for p in sys._plane[4] @ np.abs(h) ** 2]
                  if sys._plane[4].any() else ["none"] * mult)
        yield (lam[first:first + mult], scale, lambda scale=scale: np.finfo(float).eps * scale,
               v[:, 0], v[:, 1], parity)


def _anchored(vp, vm, r: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Piece tables, shape (m, N+1, 2), of the decaying solutions with
    values vp = psi(x_k+0), vm = psi(x_k-0), shape (N, m), one kappa per
    column, from the gap table at those kappas with a column per state, r
    and 1 - r^2 of shape (N-1, m): the left tail's a is vm_1, the right
    tail's b is vp_N and, on gap i, [[r, 1], [1, r]] (a_i, b_i) =
    (vp_i, vm_{i+1}), r = e^{-kappa g_i}."""
    out = np.zeros((vp.shape[1], vp.shape[0] + 1, 2), np.result_type(vp, vm))
    out[:, 0, 0], out[:, -1, 1] = vm[0], vp[-1]
    out[:, 1:-1, 0] = ((vm[1:] - r * vp[:-1]) / den).T
    out[:, 1:-1, 1] = ((vp[:-1] - r * vm[1:]) / den).T
    return out


def _too_deep(sys: PointSystem, kappa: float) -> DomainError:
    """The error for a state at decay rate kappa whose energy -kappa^2 is not
    a finite float.  For a delta' system it names the weakest attractive
    intensity, which binds at kappa ~ 2/|beta|, or, when that kappa^2 is a
    float, the smallest gap, whose two points bind as one."""
    cause = ""
    if sys._betas is not None:
        weakest = float(sys._betas[sys._betas < 0].max())
        lone = 2.0 / weakest          # Python floats: inf, not a warning
        cause = (f": {_closest(sys)} is too small" if math.isfinite(lone * lone)
                 else f": the delta' intensity {weakest:.3g} binds at kappa ~ 2/|beta|")
    return DomainError(f"a bound state decays at kappa = {kappa:.3g}, so its energy -kappa^2 "
                       f"is not a finite float{cause}")


def _overflow(sys: PointSystem, lo: float, kappa: float, where: str) -> DomainError:
    """The error for a delta' T(kappa) beyond the floats, at the window's lower
    end lo or a count's kappa.  T(lo) ~ 2 L^2/g for L = 1/lo = N max|beta| and
    the smallest gap g, so it names that gap when its factor 1/g exceeds the
    intensities' L^2, else the strongest intensity."""
    cause = (f"{_closest(sys)} is too small" if sys._min_gap < lo * lo
             else f"the delta' intensity {sys._betas.min():.3g} is too strong")
    return DomainError(f"{cause}: T(kappa) overflows at {where} kappa = {kappa:.3g}")


def _closest(sys: PointSystem) -> str:
    """The smallest gap of a system and its two points, for the errors it causes."""
    i = int(np.argmin(sys._spacing[0]))
    a, b = sys.points[i:i + 2].tolist()
    return f"the gap {b - a:.3g} between the points {a!r} and {b!r}"


def _window(sys: PointSystem, kappa_max: Optional[float]) -> tuple[float, float, list, dict]:
    """[lo, hi] holding every bound state, from closed-form bounds, the keys
    (block, j) of the ordered eigenvalues j that cross zero in it at the states
    with kappa <= kappa_max, selected by the count at min(hi, kappa_max), and
    the eigenvalues of H at each kappa where the counts diagonalized it (none
    for delta').  The blocks are _t_blocks' for a pure delta' system, whose
    counts add, and H alone (block 0) otherwise.

    Pure delta': _exact_window, and hi = kappa_max where that overflows; a
    kappa_max below lo selects nothing, with no count of T at it, which
    rounding would lose at a tiny kappa_max.  A count whose pivots' signs are
    lost, as T or a square of its off-diagonal is beyond the floats, raises
    DomainError (_overflow).
    Otherwise lo = 0, where C(0+) is the total, and hi = 0 when that is 0.
    Else, with c from _frame, H(kappa) >= (kappa tanh(kappa g_min/2)
    s_min(X)^2 + lambda_min(X^H Y)) I, and tanh u >= tanh(1) min(u, 1)
    makes it > 0 above hi = max(c/tanh 1, sqrt(2c/(g_min tanh 1))).
    """
    kappa_max = np.inf if kappa_max is None else kappa_max
    if not kappa_max > 0:
        raise ValueError("kappa_max must be positive")
    if sys._betas is not None:
        if not np.any(sys._betas < 0):
            return 0.0, 0.0, [], {}    # T(kappa) > 0 for every kappa when beta >= 0
        lo, hi = _exact_window(sys)
        hi = hi if math.isfinite(hi) else kappa_max    # the selected branches cross below a cap
        # T > 0 up to lo, so every eigenvalue negative at kappa crossed above lo, and none below lo
        kappa = min(hi, kappa_max)
        with np.errstate(over="ignore", invalid="ignore"):     # negatives refuses a T beyond the floats
            try:
                counts = [tridiagonal.negatives(*t) for t in _t_blocks(sys, kappa)] if kappa_max >= lo else []
            except DomainError:
                raise _overflow(sys, lo, kappa, "the count's") from None
        return lo, hi, [(b, j) for b, n in enumerate(counts) for j in range(n)], {}
    ends = {0.0: _eigenvalues(sys, 0.0)}
    # an eigenvalue of H(0) within THRESHOLD_RTOL * max(1, ||H(0)||) of zero
    # is a zero-energy resonance, not a state
    total = int(np.sum(ends[0.0] < -THRESHOLD_RTOL * max(1.0, np.abs(ends[0.0]).max(initial=0.0))))
    if total == 0:
        return 0.0, 0.0, [], ends
    c = sys._plane[3] / np.tanh(1.0)
    hi = max(c, np.sqrt(2.0 * c / sys._min_gap))
    cap = min(hi, kappa_max)
    ends[cap] = _eigenvalues(sys, cap)
    return 0.0, hi, [(0, j) for j in range(int(np.sum(ends[cap] < 0.0)), total)], ends


def _brent_steps(a: float, b: float, xtol: float, rtol: float, maxiter: int = 100):
    """Brent's method (Brent 1973, Algorithms for Minimization Without
    Derivatives, ch. 4): yields each x, receives f(x), returns the root, step
    for step as scipy's C brentq, so every root keeps its bits: x and f(x)
    are Python floats, a sign is C's signbit (-0.0 is negative), and a zero
    divisor, inf or nan in C, fails the step test and bisects.

    Raises DomainError, a ValueError with scipy's message, when f(a) and
    f(b) have one sign; ValueError when f returns NaN; and RuntimeError
    after maxiter steps without convergence.
    """
    def value(x: float):
        fx = float((yield x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; Brent's method cannot continue")
        return fx

    negative = lambda v: math.copysign(1.0, v) < 0.0
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre = yield from value(xpre)
    fcur = yield from value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise DomainError("f(a) and f(b) must have different signs")
    # the root stays between xcur and xblk; xpre is the previous iterate
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield from value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def _lockstep(values, lo: float, hi: float, crossing) -> list[tuple[float, object]]:
    """(kappa, j), the root in [lo, hi] of each eigenvalue j of crossing, by one
    _brent_steps per j in lockstep: a round evaluates every pending kappa in one
    values(kappas, js) call, so _values builds T or H once per round.  As the
    counts prove a sign change, a one-sign bracket means it lies below eps ||T||
    or eps ||H||: a DomainError, as is a root that Brent's steps do not reach."""
    steps = {j: _brent_steps(lo, hi, ROOT_XTOL, ROOT_RTOL) for j in crossing}
    pending, roots = {j: next(s) for j, s in steps.items()}, []
    while pending:
        for j, fx in zip(list(pending), values(list(pending.values()), list(pending))):
            try:
                pending[j] = steps[j].send(fx)
            except StopIteration as done:
                roots.append((done.value, j))
                del pending[j]
            except DomainError:             # _brent_steps' one-sign bracket
                raise DomainError(f"an eigenvalue crossing zero in [{lo:.3g}, {hi:.3g}] lies "
                                  "below the resolution of the eigenvalue solver") from None
            except RuntimeError as e:
                raise DomainError(f"Brent's method on eigenvalue {j} crossing zero in "
                                  f"[{lo:.3g}, {hi:.3g}]: {e}") from None
    return roots


def _values(sys: PointSystem, kappas: list[float], keys: list[tuple[int, int]], ends: dict) -> list:
    """Eigenvalue j of block b at kappas[i], (b, j) = keys[i], each row keeping the
    bits of its own build: of H, the round's new kappas (each once, in order) built in
    one _krein call and diagonalized in one stacked eigvalsh into ends, so no kappa is
    diagonalized twice; or of a block of T as kappa lambda_j, from one T build for all:
    linear in kappa for a lone point (2 + kappa beta), which saves Brent steps, and a
    Python float, so inf, not a warning."""
    if sys._betas is None:
        new = [k for k in dict.fromkeys(kappas) if k not in ends]
        if new:
            ends.update(zip(new, _eigenvalues(sys, np.array(new)[:, None])))
        return [ends[k][j] for k, (_, j) in zip(kappas, keys)]
    blocks = _t_blocks(sys, np.array(kappas)[:, None])
    return [k * float(tridiagonal.eigenvalues(blocks[b][0][i], blocks[b][1][i], j, j)[0])
            for i, (k, (b, j)) in enumerate(zip(kappas, keys))]


def find_bound_states(sys: PointSystem, kappa_max: Optional[float] = None) -> list[BoundState]:
    """Every bound state, or those with kappa <= kappa_max (inf filters
    nothing), by descending kappa; states below NEAR_THRESHOLD are flagged.

    Brent's method finds every eigenvalue crossing of _window, of T for a
    pure delta' system and of H otherwise, all in lockstep (_lockstep), over a
    bracket that does not depend on kappa_max: a capped search returns the
    roots of the uncapped one that the count selects, bit for bit, and one of
    them may lie a few ulps above kappa_max.  Each round builds T or H once
    for all its kappas, and H's are diagonalized in one stacked call.  Roots
    closer than CLUSTER_RTOL (relative) form a cluster whose states come from
    the orthonormal eigenvectors of one matrix, so they are linearly
    independent; _states builds every state in one pass on one gap table,
    all clusters' matrices, T or H, in one build, and H's in one stacked
    eigen-solve.
    Exactly as many states as the count are returned: a failed extraction raises
    NotAnEigenvalue, and a state whose matching residual exceeds
    STATE_RESIDUAL_TOL is kept and reported via GridTooCoarse.  Raises
    NotSelfAdjoint when the condition plane is not Lagrangian, and
    DomainError when -kappa^2 is not a finite float, a delta' T(kappa)
    overflows at the window's lower end or at the count's kappa, naming
    the intensity or the smallest gap that causes it, an eigenvalue lies
    below the solver's resolution eps ||T|| or eps ||H||, or Brent's method
    does not converge on a root.
    The H route runs on numpy alone; the delta' route runs LAPACK's
    bisection and inverse iteration through the tridiagonal core's handle,
    on the halves of T for a mirror-symmetric system, which for the pair are
    1 x 1 and need no LAPACK.
    """
    lo, hi, crossing, ends = _window(sys, kappa_max)
    if not math.isfinite(hi):
        raise _too_deep(sys, hi)
    if crossing and sys._betas is not None:
        # T(lo) <= (2/lo)(1 + 1/(lo g_min)) entrywise, and bisection squares its off-diagonal
        peak = 2.0 / lo * (1.0 + 1.0 / lo / sys._min_gap)
        if not math.isfinite(peak * peak if sys.n_points > 1 + sys._mirrored else peak):
            raise _overflow(sys, lo, lo, "the window's lower end")
    if not crossing:
        return []
    roots = _lockstep(lambda kappas, keys: _values(sys, kappas, keys, ends), lo, hi, crossing)
    clusters, last = [], {}         # last: each block's latest cluster
    for kappa, key in sorted(roots, reverse=True):
        cluster = last.get(key[0])
        if cluster and cluster[-1][0] - kappa <= CLUSTER_RTOL * kappa:
            cluster.append((kappa, key))
        else:
            last[key[0]] = [(kappa, key)]
            clusters.append(last[key[0]])
    states = sorted(_states(sys, clusters), key=lambda st: -st.kappa)
    for st in states:
        if st.residual > STATE_RESIDUAL_TOL:
            warnings.warn(f"root kappa={st.kappa:.6g} has residual {st.residual:.2e}", GridTooCoarse)
    return states


def count_negative(sys: PointSystem, kappa_max: Optional[float] = None) -> int:
    """Number of bound states, or of those with kappa <= kappa_max, from the
    exact counts of _window, the total and the count at min(hi, kappa_max),
    with no root search.  For a pure delta' system the total is the number
    of points with negative intensity, by Haynsworth's inertia additivity,
    and a mirror-symmetric one adds the counts of the halves of T.  A delta'
    T beyond the floats at min(hi, kappa_max) raises DomainError, never a
    count its lost pivots would give."""
    return len(_window(sys, kappa_max)[2])


# ---------------------------------------------------------------------------
# characteristic equations of the two-point examples
# ---------------------------------------------------------------------------

TANH_EQ = "tanh"
COTH_EQ = "coth"


def characteristic_root(kind: str) -> float:
    """Positive root of k = 1 + tanh(k) (odd mode) or k = 1 + coth(k) (even),
    by _lockstep's Brent on [1.5, 3], with no scipy."""
    if kind == TANH_EQ:
        f = lambda k: k - 1.0 - np.tanh(k)
    elif kind == COTH_EQ:
        f = lambda k: k - 1.0 - 1.0 / np.tanh(k)
    else:
        raise ValueError("kind must be 'tanh' or 'coth'")
    return _lockstep(lambda ks, _: [f(k) for k in ks], 1.5, 3.0, range(1))[0][0]


# ---------------------------------------------------------------------------
# plane diagnostics
# ---------------------------------------------------------------------------

def boundary_form_defect(sys: PointSystem) -> float:
    """Largest |sum_k omega(traces_p, traces_q)| over unit traces p, q of
    the condition plane, ||X^H Y - Y^H X||_2 in the frame.

    Zero (to rounding) iff the condition plane is Lagrangian, i.e. the
    system is self-adjoint.
    """
    return sys._plane[2]
