"""Bound states of finitely many point interactions on the full line.

A system is a strictly increasing set of points x_1 < ... < x_N with
either one transmission matrix per point or a single global linear
relation A v = 0 on the stacked trace vector

    v = (psi(x_k+0), psi(x_k-0), psi'(x_k+0), psi'(x_k-0))_{k=1..N},

four entries per point, point-major.  A per-point system stores only
its N blocks of A, two rows on the four traces of one point each; the
dense 2N x 4N relation is built on demand, only by the H(kappa) route
below.  Bound states are counted exactly by a Krein-Weyl
inertia (Albeverio et al., Solvable Models in Quantum Mechanics, ch.
II.3; Derkach-Malamud boundary triples).  Take the values Gamma0 =
(v+_k, v-_k), the inward derivatives Gamma1 = (d+_k, -d-_k), and an
orthonormal frame of the condition plane with Gamma0 rows X and Gamma1
rows Y, restricted to (ker X)^perp.  Then

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
window: it selects branches by the count at min(hi, kappa_max).  Each
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

with T symmetric tridiagonal, so a count is the signs of N LDL^T pivots.
Each ordered eigenvalue of T decreases with kappa; Brent's method runs on
those that cross zero in the window of _exact_window, each found by
LAPACK bisection.  A null vector u of T (LAPACK inverse iteration) is
minus psi' at the points, where psi' is continuous; psi'/kappa is itself
a decaying solution, so the same gap solve on -u/kappa gives the state.
This route reads the per-point blocks and never builds the dense relation.

On both routes the eigenvectors of one cluster of roots are orthonormal,
so its states are linearly independent, and a state's parity under the
mirror image of symmetric points is read off its amplitudes, which the
reflection reverses.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz
from scipy.optimize import brentq

from .errors import (
    GridTooCoarse,
    NotAnEigenvalue,
    NotSelfAdjoint,
    SplitNotSupported,
)
from .interactions import (
    InteractionKind,
    Split,
    TransmissionMatrix,
    lambda_of,
)

DEFAULT_GRID = 2048          # unused here; kept because perfbench/workloads.py reads it
NEAR_THRESHOLD = 1e-6
THRESHOLD_RTOL = 1e-10       # relative eigenvalue of H(0) taken as a zero-energy resonance
RESIDUAL_TOL = 1e-6          # relative eigenvalue of T or H accepted as a root
STATE_RESIDUAL_TOL = 1e-8    # matching residual above which a state is flagged
PARITY_TOL = 1e-8
FRAME_RANK_TOL = 1e-12       # relative singular value of X kept in the frame
DEFECT_TOL = 1e-8            # boundary-form defect above which a plane is rejected
CLUSTER_RTOL = 1e-10         # roots closer than this (relative) form one cluster
ROOT_RTOL = 4 * np.finfo(float).eps
ROOT_XTOL = np.finfo(float).smallest_subnormal   # brentq needs xtol > 0; ROOT_RTOL governs


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class PointSystem:
    """Point interactions on the line, per-point or globally coupled.

    A per-point system stores one 2 x 4 block per point and, for a pure
    delta' system, the intensities; a global relation is stored as given.
    The dense 2N x 4N relation of a per-point system, the row-normalized
    relation and the frame of the plane in boundary-triple coordinates
    are built on first use, only by the routes that need them.  All stay
    read-only.
    """

    def __init__(
        self,
        points: Sequence[float],
        lambdas: Optional[Sequence[TransmissionMatrix]] = None,
        relation: Optional[np.ndarray] = None,
    ):
        self.points = np.array(points, dtype=float)
        if self.points.size > 1 and not np.all(np.diff(self.points) > 0):
            raise ValueError("points must be strictly increasing")
        n = self.points.size
        if (lambdas is None) == (relation is None) and n > 0:
            raise ValueError("give exactly one of per-point lambdas or a global relation")
        self.lambdas = list(lambdas) if lambdas is not None else None
        self._blocks = self._betas = None
        if self.lambdas is not None:
            if len(self.lambdas) != n:
                raise ValueError("need one transmission matrix per point")
            for lam in self.lambdas:
                if not lam.is_self_adjoint_plane(1e-9):
                    raise ValueError("per-point matrix violates the e^{i eta} R, det R = 1 form")
            mats = np.array([lam.entries for lam in self.lambdas]).reshape(n, 2, 2)
            self._blocks = _per_point_blocks(mats)
            self._betas = _delta_prime_betas(mats)
        elif relation is not None:
            relation = np.array(relation, dtype=complex)
            if relation.shape != (2 * n, 4 * n):
                raise ValueError(f"relation must be {2*n}x{4*n}")
            if np.linalg.matrix_rank(relation, tol=1e-10) < 2 * n:
                raise ValueError("relation must have full row rank")
            relation.setflags(write=False)
            self.relation = relation
        else:
            self._blocks = np.zeros((0, 2, 4), dtype=complex)
        for a in (self._blocks, self._betas):
            if a is not None:
                a.setflags(write=False)

    @cached_property
    def relation(self) -> np.ndarray:
        """Dense block-diagonal 2N x 4N relation of a per-point system."""
        n = self.n_points
        a = np.zeros((n, 2, n, 4), dtype=complex)
        k = np.arange(n)
        a[k, :, k, :] = self._blocks
        a = a.reshape(2 * n, 4 * n)
        a.setflags(write=False)
        return a

    @cached_property
    def _normalized(self) -> np.ndarray:
        a = _row_normalized(self.relation)
        a.setflags(write=False)
        return a

    @cached_property
    def _plane(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """X, X^H Y, the defect of the frame and the decay bound constant c
        of _frame: the delta' route needs none of them."""
        x, xy, defect, c = _frame(self.relation)
        x.setflags(write=False)
        xy.setflags(write=False)
        return x, xy, defect, c

    @property
    def n_points(self) -> int:
        return self.points.size

    def normalized_relation(self) -> np.ndarray:
        return self._normalized

    def delta_prime_betas(self) -> Optional[np.ndarray]:
        """Per-point delta' intensities (read-only), or None if not a pure
        delta' system."""
        return self._betas

    def translated(self, c: float) -> "PointSystem":
        # conditions act on traces only, so the shifted system shares them,
        # with whatever dense form has been built so far
        out = copy.copy(self)
        out.points = self.points + c
        return out


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


def _row_normalized(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _frame(relation: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """X, X^H Y, the boundary-form defect of the plane ker(relation) and
    c = max(0, -lambda_min(X^H Y)) / s_min(X)^2.

    (X; Y) is an orthonormal basis of the plane in the coordinates
    Gamma0 = (v+_k, v-_k), Gamma1 = (d+_k, -d-_k).  The defect
    ||X^H Y - Y^H X||_2 is the largest |omega(p, q)| over unit traces of
    the plane: zero iff the plane is Lagrangian.  X and X^H Y are then
    restricted to (ker X)^perp, on which the form does not vanish
    identically; c is taken there and bounds the decay rates (_window).
    """
    rank, dim = relation.shape
    if dim == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), 0.0, 0.0
    if not relation.imag.any():
        relation = relation.real
    basis = np.linalg.svd(relation)[2][rank:].conj().T.reshape(dim // 4, 4, -1)
    x = basis[:, :2].reshape(dim // 2, -1)
    y = (basis[:, 2:] * np.array([[1.0], [-1.0]])).reshape(dim // 2, -1)
    form = x.conj().T @ y
    defect = float(np.linalg.norm(form - form.conj().T, 2))
    _, s, vh = np.linalg.svd(x)
    s = s[s > FRAME_RANK_TOL * s[0]]
    keep = vh[: s.size].conj().T
    xy = keep.conj().T @ form @ keep
    xy = 0.5 * (xy + xy.conj().T)
    # min(lambda_min, 0) and s_min, both 0-safe: singular values of X are at most 1
    lam = np.linalg.eigvalsh(xy).min(initial=0.0)
    return x @ keep, xy, defect, -float(lam) / s.min(initial=1.0) ** 2


def from_kinds(items: Sequence[tuple[float, InteractionKind]]) -> PointSystem:
    """Assemble a per-point system from (position, kind) pairs."""
    items = sorted(items, key=lambda t: t[0])
    for _, kind in items:
        if isinstance(kind, Split):
            raise SplitNotSupported("split conditions decouple the line")
    return PointSystem(
        [x for x, _ in items], lambdas=[lambda_of(k) for _, k in items]
    )


def delta_prime_system(points: Sequence[float], betas: Sequence[float]) -> PointSystem:
    mats = [
        TransmissionMatrix(np.array([[1.0, b], [0.0, 1.0]])) for b in betas
    ]
    return PointSystem(points, lambdas=mats)


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
    a = np.zeros((4, 8))
    a[0, 2], a[0, 3] = 1.0, -1.0          # d+(x1) - d-(x1) = 0
    a[1, 6], a[1, 7] = 1.0, -1.0          # d+(x2) - d-(x2) = 0
    for j, row in enumerate((2, 3)):
        a[row, 4 * j + 2] = 1.0           # d+(xj)
        a[row, 4 * j + 3] += 1.0          # d-(xj)
        if verbatim:
            a[row, 2] += 1.0              # d+(x1) - d-(x1)
            a[row, 3] += -1.0
        else:
            a[row, 0] += 1.0              # v+(x1) - v-(x1)
            a[row, 1] += -1.0
        a[row, 4] += 1.0                  # v+(x2) - v-(x2)
        a[row, 5] += -1.0
    return PointSystem([-1.0, 1.0], relation=a)


# ---------------------------------------------------------------------------
# Krein-Weyl counting function
# ---------------------------------------------------------------------------

def _krein(sys: PointSystem, kappa: float) -> np.ndarray:
    """H(kappa) = X^H Y - X^H M(kappa) X, shape (r, r), for kappa >= 0."""
    x, xy, defect, _ = sys._plane
    if defect > DEFECT_TOL:
        raise NotSelfAdjoint(
            f"condition plane is not Lagrangian (boundary-form defect {defect:.2e})"
        )
    g = np.diff(sys.points)
    if kappa == 0:
        kcoth = kcsch = 1.0 / g                       # the limits of kappa coth, kappa csch
    else:
        e = np.exp(-kappa * g)
        den = -np.expm1(-2.0 * kappa * g)
        coth, csch = (1.0 + e * e) / den, 2.0 * e / den   # of kappa g, finite for large kappa g
        kcoth, kcsch = kappa * coth, kappa * csch
    # rows of X: v+_1, v-_1, ..., v+_N, v-_N; gap j joins v+_j and v-_{j+1}
    m = np.full(x.shape[0], -kappa)
    m[0:-2:2] = m[3::2] = -kcoth
    mx = m[:, None] * x
    off = kcsch[:, None]
    mx[0:-2:2] += off * x[3::2]
    mx[3::2] += off * x[0:-2:2]
    return xy - x.conj().T @ mx


def _eigenvalues(sys: PointSystem, kappa: float) -> np.ndarray:
    return np.linalg.eigvalsh(_krein(sys, kappa))


def _count(sys: PointSystem, kappa: float) -> int:
    """Number of bound states with decay rate above kappa.  At kappa = 0 an
    eigenvalue of H(0) within THRESHOLD_RTOL * max(1, ||H(0)||) of zero is
    a zero-energy resonance, not a state."""
    ev = _eigenvalues(sys, kappa)
    tol = THRESHOLD_RTOL * max(1.0, np.abs(ev).max(initial=0.0)) if kappa == 0 else 0.0
    return int(np.sum(ev < -tol))


# ---------------------------------------------------------------------------
# Krein-Sturm route for pure delta' systems
# ---------------------------------------------------------------------------

def _tridiagonal(sys: PointSystem, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of T(kappa) = (2/kappa) E^{-1} + diag(beta),
    E_ij = e^{-kappa |x_i - x_j|}, whose inverse is tridiagonal."""
    kg = kappa * (sys.points[1:] - sys.points[:-1])
    r = np.exp(-kg)
    t = r / -np.expm1(-2.0 * kg)                # r / (1 - r^2), finite for small kappa g
    s = r * t                                   # 1/(1 - r^2) - 1
    diag = np.ones(sys.n_points)
    diag[:-1] += s
    diag[1:] += s
    return (2.0 / kappa) * diag + sys._betas, (-2.0 / kappa) * t


def _negatives(sys: PointSystem, kappa: float) -> int:
    """n_-(T(kappa)) from the signs of the LDL^T pivots; the count of
    delta' states with decay rate above kappa is #{beta < 0} minus this."""
    diag, off = _tridiagonal(sys, kappa)
    count, pivot = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0] + (off * off).tolist()):
        pivot = a - b2 / pivot
        if pivot == 0.0:                        # counted as negative, as in LAPACK's bisection
            pivot = -np.finfo(float).tiny
        count += pivot < 0.0
    return count


def _t_eigenvalue(sys: PointSystem, kappa: float, j: int) -> float:
    """Ordered eigenvalue j of T(kappa) by LAPACK bisection, called as
    eigh_tridiagonal(select="i") calls it but without the input checks
    that cost more than the bisection itself on a few points."""
    diag, off = _tridiagonal(sys, kappa)
    if diag.size == 1:
        return float(diag[0])
    _, w, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, j + 1, j + 1, 0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"bisection on T failed (LAPACK info={info})")
    return float(w[0])


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
    weakest = attract.min()
    g = np.diff(sys.points).min(initial=np.inf)
    lo = 1.0 / (sys.n_points * float(attract.max()))
    # (2/kappa)(1 + 2/(kappa g)) equals min|beta_-| at half of hi
    hi = 2.0 * (1.0 + np.sqrt(1.0 + 4.0 * weakest / g)) / weakest
    return lo, float(hi)


def _traces(points: np.ndarray, kappa: float, amps: np.ndarray) -> np.ndarray:
    """One-sided traces (v+, v-, d+, d-) at every point, shape (N, 4, ...),
    of decaying solutions with amplitudes amps = (c_L, a_1, b_1, ...,
    a_{N-1}, b_{N-1}, c_R) along the first axis.

    The tails are c_L e^{kappa(x-x_1)} and c_R e^{-kappa(x-x_N)}, interval i
    carries a_i e^{kappa(x-x_{i+1})} + b_i e^{-kappa(x-x_i)}.
    """
    grow = np.concatenate((amps[:1], amps[1:-1:2]))      # left of each point: c_L, a_1, ...
    decay = np.concatenate((amps[2:-1:2], amps[-1:]))    # right of each point: b_1, ..., c_R
    r = np.exp(-kappa * np.diff(points)).reshape((-1,) + (1,) * (amps.ndim - 1))
    zero = np.zeros_like(amps[:1])
    ahead = np.concatenate((r * grow[1:], zero))         # a_{j+1} e^{-kappa g_j} at x_j + 0
    behind = np.concatenate((zero, r * decay[:-1]))      # b_{j-1} e^{-kappa g_{j-1}} at x_j - 0
    return np.stack((ahead + decay, grow + behind,
                     kappa * (ahead - decay), kappa * (grow - behind)), axis=1)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

@dataclass
class BoundState:
    """Decaying solution at energy -kappa^2 with its matching data."""

    kappa: float
    energy: float
    c_left: complex
    c_right: complex
    interior: np.ndarray          # (N-1, 2) anchored amplitudes (a_i, b_i)
    points: np.ndarray
    residual: float
    parity: str = "none"
    near_threshold: bool = False

    def evaluate(self, x) -> np.ndarray:
        """psi(x); at a point the interval to its right applies."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(x.shape, dtype=complex)
        pts, k = self.points, self.kappa
        idx = pts.searchsorted(x, side="right")      # number of points <= x
        left = idx == 0
        out[left] = self.c_left * np.exp(k * (x[left] - pts[0]))
        right = idx == pts.size
        out[right] = self.c_right * np.exp(-k * (x[right] - pts[-1]))
        seg = ~(left | right)
        if seg.any():
            i, xs = idx[seg] - 1, x[seg]
            a, b = self.interior[i].T
            out[seg] = a * np.exp(k * (xs - pts[i + 1])) + b * np.exp(-k * (xs - pts[i]))
        return complex(out[0]) if scalar else out

    def norm_squared(self) -> float:
        k = self.kappa
        g = self.points[1:] - self.points[:-1]
        a, b = self.interior.T
        e = np.exp(-k * g)
        gaps = ((np.abs(a) ** 2 + np.abs(b) ** 2) * (1 - e * e) / (2 * k)
                + 2 * np.real(a * np.conj(b)) * e * g)
        return float((abs(self.c_left) ** 2 + abs(self.c_right) ** 2) / (2 * k) + gaps.sum())


def eigenfunction(sys: PointSystem, kappa: float) -> BoundState:
    """The L2-normalized state at a root kappa > 0, from the eigenvector of
    T(kappa) or H(kappa) whose eigenvalue lies nearest zero; raises
    NotAnEigenvalue when that eigenvalue is not zero to RESIDUAL_TOL."""
    if sys.n_points == 0 or not kappa > 0:
        raise NotAnEigenvalue("bound states need a point and kappa > 0")
    if sys._betas is None:
        ev = _eigenvalues(sys, kappa)
    else:
        ev = eigh_tridiagonal(*_tridiagonal(sys, kappa), eigvals_only=True)
    return _cluster_states(sys, [kappa], int(np.argmin(np.abs(ev))))[0]


def _cluster_states(sys: PointSystem, kappas: list[float], first: int) -> list[BoundState]:
    """One state per root of a cluster, from the orthonormal eigenvectors
    first.. of T (pure delta') or H at the cluster's mean kappa.

    The eigenvalues must vanish relative to their scale: sum |beta| u^2 for
    T, where at a root the two terms of u^T T u cancel, and max(1, ||H||)
    for H, as in _count.  Each state's residual is that of its one-sided
    traces in the row-normalized conditions, block by block for a per-point
    system.
    """
    n, mult = sys.n_points, len(kappas)
    kappa = float(np.mean(kappas))
    route = _h_amplitudes if sys._betas is None else _t_amplitudes
    lam, scale, amps = route(sys, kappa, first, mult)
    rel = np.abs(lam) / scale
    if rel.max() > RESIDUAL_TOL:
        raise NotAnEigenvalue(
            f"relative eigenvalue {rel.max():.2e} for a {mult}-fold root at "
            f"kappa={kappas[0]:.9g} exceeds {RESIDUAL_TOL:g}"
        )
    traces = _traces(sys.points, kappa, amps)
    if sys._blocks is None:
        miss = (sys.normalized_relation() @ traces.reshape(4 * n, mult)).reshape(n, 2, mult)
    else:
        miss = np.einsum("kij,kjm->kim", _row_normalized(sys._blocks), traces)
    res = np.linalg.norm(miss, axis=(0, 1)) / np.linalg.norm(traces, axis=(0, 1))
    return [_bound_state(sys, kj, amps[:, j], float(res[j])) for j, kj in enumerate(kappas)]


def _t_amplitudes(sys: PointSystem, kappa: float, first: int, mult: int) -> tuple:
    """Eigenvalues first.. of T(kappa), their scales and the anchored
    amplitudes of their states.  An eigenvector u of T at a root is -psi'
    at the points, where psi' is continuous, so psi'/kappa is the decaying
    solution with value -u/kappa on both sides of every point and
    amplitudes (c_L, a_i, -b_i, -c_R)."""
    lam, u = eigh_tridiagonal(*_tridiagonal(sys, kappa), select="i",
                              select_range=(first, first + mult - 1))
    d = -u / kappa
    return lam, np.abs(sys._betas) @ (u * u), _anchored(sys.points, kappa, d, d, -1.0)


def _h_amplitudes(sys: PointSystem, kappa: float, first: int, mult: int) -> tuple:
    """Eigenvalues first.. of H(kappa), their scale and the anchored
    amplitudes of their states, from the point values Gamma0 = X h,
    (v+_k, v-_k), of the eigenvectors h."""
    lam, h = np.linalg.eigh(_krein(sys, kappa))
    scale = max(1.0, np.abs(lam).max())
    v = (sys._plane[0] @ h[:, first:first + mult]).reshape(-1, 2, mult)
    return lam[first:first + mult], scale, _anchored(sys.points, kappa, v[:, 0], v[:, 1])


def _anchored(points: np.ndarray, kappa: float, vp, vm, sign: float = 1.0) -> np.ndarray:
    """Flat amplitudes (c_L, a_1, b_1, ..., c_R), a column per state, of the
    decaying solutions with values vp = psi(x_k+0), vm = psi(x_k-0), shape
    (N, m): c_L = vm_1, c_R = vp_N and, on gap i, [[r, 1], [1, r]] (a_i, b_i)
    = (vp_i, vm_{i+1}), r = e^{-kappa g_i}.  sign multiplies b_i and c_R."""
    g = np.diff(points)[:, None]
    r = np.exp(-kappa * g)
    den = -np.expm1(-2.0 * kappa * g)          # 1 - r^2, accurate for small kappa g
    a = (vm[1:] - r * vp[:-1]) / den
    b = sign * (vp[:-1] - r * vm[1:]) / den
    return np.concatenate((vm[:1], np.stack((a, b), 1).reshape(-1, vp.shape[1]), sign * vp[-1:]))


def _bound_state(sys: PointSystem, kappa: float, amp: np.ndarray, residual: float) -> BoundState:
    """Phase-fixed, L2-normalized state with amplitudes (c_L, a_1, b_1, ..., c_R)."""
    amp = amp.astype(complex)
    lead = amp[np.argmax(np.abs(amp))]
    amp = amp / (lead / abs(lead))              # the largest amplitude real and positive
    state = BoundState(
        kappa=float(kappa),
        energy=-float(kappa) ** 2,
        c_left=amp[0],
        c_right=amp[-1],
        interior=amp[1:-1].reshape(-1, 2),
        points=sys.points,
        residual=residual,
        near_threshold=bool(kappa < NEAR_THRESHOLD),
    )
    scale = np.sqrt(state.norm_squared())
    state.c_left /= scale
    state.c_right /= scale
    state.interior = state.interior / scale
    state.parity = _detect_parity(state)
    return state


def _detect_parity(state: BoundState) -> str:
    """Even or odd under the reflection x -> 2c - x of mirror-symmetric
    points, which maps the flat amplitudes (c_L, a_1, b_1, ..., c_R) of a
    state to their reverse."""
    pts = state.points
    if np.abs(pts + pts[::-1] - (pts[0] + pts[-1])).max() > 1e-12 * np.abs(pts).max():
        return "none"
    amps = np.concatenate(([state.c_left], state.interior.ravel(), [state.c_right]))
    scale = np.abs(amps).max()
    if np.abs(amps - amps[::-1]).max() <= PARITY_TOL * scale:
        return "even"
    if np.abs(amps + amps[::-1]).max() <= PARITY_TOL * scale:
        return "odd"
    return "none"


def _window(sys: PointSystem, kappa_max: Optional[float]) -> tuple[float, float, range]:
    """[lo, hi] holding every bound state, from closed-form bounds, and the
    indices of the ordered eigenvalues (of T for a pure delta' system, of H
    otherwise) that cross zero in it at the states with kappa <= kappa_max,
    selected by the count at min(hi, kappa_max).

    Pure delta': _exact_window.  Otherwise lo = 0, where C(0+) is the total,
    and hi = 0 when that is 0.  Else, with c from _frame, H(kappa) >=
    (kappa tanh(kappa g_min/2) s_min(X)^2 + lambda_min(X^H Y)) I, and
    tanh u >= tanh(1) min(u, 1) makes it > 0 above
    hi = max(c/tanh 1, sqrt(2c/(g_min tanh 1))).
    """
    kappa_max = np.inf if kappa_max is None else kappa_max
    if not kappa_max > 0:
        raise ValueError("kappa_max must be positive")
    if sys._betas is not None:
        if not np.any(sys._betas < 0):
            return 0.0, 0.0, range(0)        # T(kappa) > 0 for every kappa when beta >= 0
        lo, hi = _exact_window(sys)
        # T > 0 up to lo, so every eigenvalue negative at kappa crossed above lo
        return lo, hi, range(_negatives(sys, min(hi, kappa_max)))
    total = _count(sys, 0.0)
    if total == 0:
        return 0.0, 0.0, range(0)
    c = sys._plane[3] / np.tanh(1.0)
    hi = max(c, np.sqrt(2.0 * c / np.diff(sys.points).min(initial=np.inf)))
    return 0.0, hi, range(_count(sys, min(hi, kappa_max)), total)


def find_bound_states(sys: PointSystem, kappa_max: Optional[float] = None) -> list[BoundState]:
    """Every bound state, or those with kappa <= kappa_max (inf filters
    nothing), by descending kappa; states below NEAR_THRESHOLD are flagged.

    Brent's method finds each eigenvalue crossing of _window, of T for a
    pure delta' system and of H otherwise, over a bracket that does not
    depend on kappa_max: a capped search returns the roots of the uncapped
    one that the count selects, bit for bit, and one of them may lie a few
    ulps above kappa_max.  Roots closer than CLUSTER_RTOL (relative) form
    a cluster whose states come from the orthonormal eigenvectors of the
    same matrix at the cluster's mean kappa, so they are linearly
    independent.  Exactly as many states as the count are returned: a
    failed extraction raises NotAnEigenvalue, and a state whose matching
    residual exceeds STATE_RESIDUAL_TOL is kept and reported via
    GridTooCoarse.  Raises NotSelfAdjoint when the condition plane is not
    Lagrangian.
    """
    lo, hi, crossing = _window(sys, kappa_max)
    if sys._betas is None:
        # every root shares the bracket, so H is diagonalized at its ends once
        ends = {lo: _eigenvalues(sys, lo), hi: _eigenvalues(sys, hi)} if crossing else {}
        value = lambda k, j: (ends[k] if k in ends else _eigenvalues(sys, k))[j]
    else:
        # kappa lambda_j has the sign of lambda_j and is linear in kappa
        # for a lone point (2 + kappa beta), which saves Brent steps
        value = lambda k, j: k * _t_eigenvalue(sys, k, j)
    roots = [
        (brentq(value, lo, hi, args=(j,), xtol=ROOT_XTOL, rtol=ROOT_RTOL), j)
        for j in crossing
    ]
    clusters = []
    for kappa, j in sorted(roots, reverse=True):
        if clusters and clusters[-1][-1][0] - kappa <= CLUSTER_RTOL * kappa:
            clusters[-1].append((kappa, j))
        else:
            clusters.append([(kappa, j)])
    states = []
    for cluster in clusters:
        for st in _cluster_states(sys, [kappa for kappa, _ in cluster], min(j for _, j in cluster)):
            if st.residual > STATE_RESIDUAL_TOL:
                warnings.warn(
                    f"root kappa={st.kappa:.6g} has residual {st.residual:.2e}", GridTooCoarse
                )
            states.append(st)
    return states


def count_negative(sys: PointSystem, kappa_max: Optional[float] = None) -> int:
    """Number of bound states, or of those with kappa <= kappa_max, from the
    exact counts of _window, the total and the count at min(hi, kappa_max),
    with no root search.  For a pure delta' system the total is the number
    of points with negative intensity, by Haynsworth's inertia additivity."""
    return len(_window(sys, kappa_max)[2])


# ---------------------------------------------------------------------------
# characteristic equations of the two-point examples
# ---------------------------------------------------------------------------

TANH_EQ = "tanh"
COTH_EQ = "coth"


def characteristic_root(kind: str) -> float:
    """Positive root of k = 1 + tanh(k) (odd mode) or k = 1 + coth(k) (even)."""
    if kind == TANH_EQ:
        f = lambda k: k - 1.0 - np.tanh(k)
    elif kind == COTH_EQ:
        f = lambda k: k - 1.0 - 1.0 / np.tanh(k)
    else:
        raise ValueError("kind must be 'tanh' or 'coth'")
    return float(brentq(f, 1.5, 3.0, xtol=1e-14, rtol=8.9e-16))


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
