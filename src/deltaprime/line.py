"""Bound states of finitely many point interactions on the full line.

A system is a strictly increasing set of points x_1 < ... < x_N with
either one transmission matrix per point or a single global linear
relation A v = 0 on the stacked trace vector

    v = (psi(x_k+0), psi(x_k-0), psi'(x_k+0), psi'(x_k-0))_{k=1..N},

four entries per point, point-major.  Decaying solutions at energy
E = -kappa^2 are matched through the points; the determinant of the
resulting homogeneous system (the secular function) vanishes exactly at
bound states.  Interior amplitudes multiply exponentials anchored at
the interval ends, e^{kappa(x - x_{i+1})} and e^{-kappa(x - x_i)}, so
no entry of the matching matrix exceeds O(kappa).
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    GridTooCoarse,
    NonRealSystem,
    NotAnEigenvalue,
    SplitNotSupported,
)
from .interactions import (
    BoundaryTraces,
    InteractionKind,
    Split,
    TransmissionMatrix,
    boundary_form,
    lambda_of,
)

DEFAULT_GRID = 2048
NEAR_THRESHOLD = 1e-6
RESIDUAL_TOL = 1e-6          # relative singular value accepted as a root
STATE_RESIDUAL_TOL = 1e-8    # matching residual above which a state is flagged
PARITY_TOL = 1e-8
DEFECT_SAMPLES = 40
DEFECT_SEED = 0


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class PointSystem:
    """Point interactions on the line, per-point or globally coupled.

    The 2N x 4N relation, its row-normalized form and the real relation
    the secular scan runs on are built once here and stay read-only.
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
        scan = None   # relation whose real part carries the secular scan
        if self.lambdas is not None:
            if len(self.lambdas) != n:
                raise ValueError("need one transmission matrix per point")
            for lam in self.lambdas:
                if not lam.is_self_adjoint_plane(1e-9):
                    raise ValueError("per-point matrix violates the e^{i eta} R, det R = 1 form")
            mats = np.array([lam.entries for lam in self.lambdas]).reshape(n, 2, 2)
            relation = _per_point_relation(mats)
            # Lambda_k = e^{i eta_k} R_k: rephasing psi right of each point is
            # a unitary gauge, so the real R_k carry the same bound states
            phases = np.exp(-1j * np.array([lam.eta for lam in self.lambdas]))
            scan = _per_point_relation(mats * phases[:, None, None])
        elif relation is not None:
            relation = np.array(relation, dtype=complex)
            if relation.shape != (2 * n, 4 * n):
                raise ValueError(f"relation must be {2*n}x{4*n}")
            if np.linalg.matrix_rank(relation, tol=1e-10) < 2 * n:
                raise ValueError("relation must have full row rank")
        else:
            relation = np.zeros((0, 0), dtype=complex)
        self.relation = relation
        self.is_real = bool(np.abs(relation.imag).max() < 1e-14) if n else True
        if scan is None and self.is_real:
            scan = relation
        self._normalized = _row_normalized(relation)
        # None leaves complex global relations only the |det|^2 route
        self._secular = None if scan is None else _row_normalized(scan).real
        for a in (self.relation, self._normalized, self._secular):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.points.size

    def normalized_relation(self) -> np.ndarray:
        return self._normalized

    def delta_prime_betas(self) -> Optional[np.ndarray]:
        """Per-point delta' intensities, or None if not a pure delta' system."""
        if self.lambdas is None:
            return None
        m = np.array([lam.entries for lam in self.lambdas]).reshape(-1, 2, 2)
        # delta' iff Lambda - I leaves only a real (1,2) entry
        rest = np.abs((m - np.eye(2))[:, [0, 1, 1], [0, 0, 1]])
        if max(rest.max(initial=0.0), np.abs(m[:, 0, 1].imag).max(initial=0.0)) > 1e-12:
            return None
        return m[:, 0, 1].real

    def translated(self, c: float) -> "PointSystem":
        # the relation acts on traces only, so the shifted system shares it
        out = copy.copy(self)
        out.points = self.points + c
        return out


def _per_point_relation(mats: np.ndarray) -> np.ndarray:
    """Block-diagonal relation v+ = L11 v- + L12 d-, d+ = L21 v- + L22 d-."""
    n = len(mats)
    a = np.zeros((n, 2, n, 4), dtype=complex)
    k = np.arange(n)
    a[k, 0, k, 0] = 1.0
    a[k, 1, k, 2] = 1.0
    a[k, :, k, 1] = -mats[:, :, 0]
    a[k, :, k, 3] = -mats[:, :, 1]
    return a.reshape(2 * n, 4 * n)


def _row_normalized(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


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
# secular function
# ---------------------------------------------------------------------------

def _trace_map(points: np.ndarray, kappas: np.ndarray) -> np.ndarray:
    """Batched 4N x 2N map from decay amplitudes to boundary traces.

    Unknowns: (c_L, a_1, b_1, ..., a_{N-1}, b_{N-1}, c_R); the tails are
    c_L e^{kappa(x-x_1)} and c_R e^{-kappa(x-x_N)}, interval i carries
    a_i e^{kappa(x-x_{i+1})} + b_i e^{-kappa(x-x_i)}.
    """
    n = points.size
    t = np.zeros((kappas.size, 4 * n, 2 * n))
    kcol = kappas
    gaps = np.diff(points)
    decays = np.exp(-np.outer(kappas, gaps)) if n > 1 else np.zeros((kappas.size, 0))
    for j in range(n):
        rv_p, rv_m, rd_p, rd_m = 4 * j, 4 * j + 1, 4 * j + 2, 4 * j + 3
        # right side of point j
        if j < n - 1:
            ca, cb = 1 + 2 * j, 2 + 2 * j
            e = decays[:, j]
            t[:, rv_p, ca] = e
            t[:, rv_p, cb] = 1.0
            t[:, rd_p, ca] = kcol * e
            t[:, rd_p, cb] = -kcol
        else:
            t[:, rv_p, 2 * n - 1] = 1.0
            t[:, rd_p, 2 * n - 1] = -kcol
        # left side of point j
        if j > 0:
            ca, cb = 1 + 2 * (j - 1), 2 + 2 * (j - 1)
            e = decays[:, j - 1]
            t[:, rv_m, ca] = 1.0
            t[:, rv_m, cb] = e
            t[:, rd_m, ca] = kcol
            t[:, rd_m, cb] = -kcol * e
        else:
            t[:, rv_m, 0] = 1.0
            t[:, rd_m, 0] = kcol
    return t


def secular_values(sys: PointSystem, kappas: np.ndarray) -> np.ndarray:
    """Secular function on an array of decay rates kappa > 0.

    Real-valued determinant for real condition matrices, and for
    per-point systems through their real gauge; |det|^2 with a
    NonRealSystem warning for complex global relations (sign-change
    bracketing then fails, and minima must be located instead).
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    if np.any(kappas <= 0):
        raise ValueError("kappa must be positive")
    n = sys.n_points
    if n == 0:
        return np.ones_like(kappas)
    t = _trace_map(sys.points, kappas)
    if sys._secular is not None:
        return np.linalg.det(np.einsum("rc,kcu->kru", sys._secular, t))
    warnings.warn("complex condition matrix: secular value is |det|^2", NonRealSystem)
    m = np.einsum("rc,kcu->kru", sys.normalized_relation(), t.astype(complex))
    return np.abs(np.linalg.det(m)) ** 2


def secular_value(sys: PointSystem, kappa: float) -> float:
    return float(secular_values(sys, np.array([kappa]))[0])


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
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        pts, k = self.points, self.kappa
        left = x < pts[0]
        out[left] = self.c_left * np.exp(k * (x[left] - pts[0]))
        right = x >= pts[-1]
        out[right] = self.c_right * np.exp(-k * (x[right] - pts[-1]))
        for i in range(pts.size - 1):
            seg = (x >= pts[i]) & (x < pts[i + 1])
            a, b = self.interior[i]
            out[seg] = a * np.exp(k * (x[seg] - pts[i + 1])) + b * np.exp(
                -k * (x[seg] - pts[i])
            )
        return complex(out[0]) if scalar else out

    def norm_squared(self) -> float:
        k, pts = self.kappa, self.points
        total = (abs(self.c_left) ** 2 + abs(self.c_right) ** 2) / (2 * k)
        for i in range(pts.size - 1):
            g = pts[i + 1] - pts[i]
            a, b = self.interior[i]
            e = np.exp(-k * g)
            total += (abs(a) ** 2 + abs(b) ** 2) * (1 - e * e) / (2 * k)
            total += 2 * np.real(a * np.conj(b)) * e * g
        return float(total)


def eigenfunction(sys: PointSystem, kappa: float) -> BoundState:
    """Null-vector extraction and L2 normalization at a secular root."""
    n = sys.n_points
    if n == 0:
        raise NotAnEigenvalue("empty system has no bound states")
    a = sys.normalized_relation()
    t = _trace_map(sys.points, np.array([kappa]))[0]
    m = a @ t.astype(complex)
    u_, s, vh = np.linalg.svd(m)
    rel = s[-1] / s[0]
    if rel > RESIDUAL_TOL:
        raise NotAnEigenvalue(
            f"relative smallest singular value {rel:.2e} exceeds {RESIDUAL_TOL:g}"
        )
    amp = vh[-1].conj()
    traces = t @ amp
    residual = float(np.linalg.norm(a @ traces) / np.linalg.norm(traces))

    state = BoundState(
        kappa=float(kappa),
        energy=-float(kappa) ** 2,
        c_left=amp[0],
        c_right=amp[-1],
        interior=amp[1:-1].reshape(-1, 2) if n > 1 else np.zeros((0, 2), dtype=complex),
        points=sys.points,
        residual=residual,
        near_threshold=bool(kappa < NEAR_THRESHOLD),
    )
    _normalize_phase(state)
    scale = np.sqrt(state.norm_squared())
    state.c_left /= scale
    state.c_right /= scale
    state.interior = state.interior / scale
    state.parity = _detect_parity(state)
    return state


def _normalize_phase(state: BoundState) -> None:
    amps = np.concatenate(([state.c_left], state.interior.ravel(), [state.c_right]))
    lead = amps[np.argmax(np.abs(amps))]
    phase = lead / abs(lead)
    state.c_left /= phase
    state.c_right /= phase
    state.interior = state.interior / phase


def _detect_parity(state: BoundState) -> str:
    pts = state.points
    c = 0.5 * (pts[0] + pts[-1])
    if not np.allclose(pts - c, -(pts[::-1] - c), atol=1e-12):
        return "none"
    span = max(pts[-1] - pts[0], 1.0)
    y = np.linspace(0.013, 1.71, 37) * span  # avoids the points themselves
    fp = state.evaluate(c + y)
    fm = state.evaluate(c - y)
    scale = max(np.abs(fp).max(), np.abs(fm).max())
    if scale == 0:
        return "none"
    if np.abs(fp - fm).max() / scale < PARITY_TOL:
        return "even"
    if np.abs(fp + fm).max() / scale < PARITY_TOL:
        return "odd"
    return "none"


def find_bound_states(
    sys: PointSystem,
    kappa_max: float,
    grid: int = DEFAULT_GRID,
) -> list[BoundState]:
    """All bound states with kappa in (0, kappa_max], sorted by descending kappa.

    Sign-change bracketing on a uniform kappa-grid with Brent
    refinement; |secular| dips without a sign change are re-scanned on
    nested 65-node grids so nearly degenerate root pairs are either
    resolved or reported via GridTooCoarse.  Per-point systems are
    scanned through their real gauge, so delta-magnetic phases keep the
    sign changes.  A state whose matching residual exceeds
    STATE_RESIDUAL_TOL is kept and reported via GridTooCoarse.
    """
    if kappa_max <= 0:
        raise ValueError("kappa_max must be positive")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    if sys.n_points == 0:
        return []

    ks = np.linspace(kappa_max / grid, kappa_max, grid)
    roots = sorted(_scan_brackets(sys, ks, secular_values(sys, ks)), reverse=True)
    spacing = kappa_max / grid
    merged = []
    for r in roots:
        if not merged or abs(merged[-1] - r) > 1e-9:
            merged.append(r)
            continue
        # two brackets collapsed onto one kappa: benign when the sign
        # still flips across the widened window (a rounding-flipped node
        # split one simple root in two); suspicious otherwise
        lo = max(r - spacing, spacing * 1e-3)
        if np.sign(secular_value(sys, lo)) != np.sign(secular_value(sys, r + spacing)):
            continue
        warnings.warn(
            f"distinct brackets collapsed onto kappa={r:.9g}; "
            "a nearly degenerate pair may be undercounted",
            GridTooCoarse,
        )
    roots = merged

    states = []
    for r in roots:
        try:
            st = eigenfunction(sys, r)
        except NotAnEigenvalue:
            warnings.warn(f"discarding spurious root near kappa={r:.6g}", GridTooCoarse)
            continue
        if st.residual > STATE_RESIDUAL_TOL:
            warnings.warn(
                f"root kappa={r:.6g} has residual {st.residual:.2e}", GridTooCoarse
            )
        states.append(st)
    return states


def _polish(sys: PointSystem, ks: np.ndarray, vals: np.ndarray) -> list[float]:
    """Grid nodes where the secular value is exactly zero, plus a Brent
    root inside every sign change."""
    fun = lambda k: secular_value(sys, k)
    sign = np.sign(vals)
    roots = [float(k) for k in ks[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(float(brentq(fun, ks[i], ks[i + 1], xtol=1e-12, rtol=1e-15)))
    return roots


def _scan_brackets(sys: PointSystem, ks: np.ndarray, vals: np.ndarray) -> list[float]:
    roots = _polish(sys, ks, vals)
    sign = np.sign(vals)
    # dips: local minima of |s| that do not cross zero may hide root pairs
    absv = np.abs(vals)
    scale = np.median(absv) + absv.max() * 1e-300
    for i in range(1, len(ks) - 1):
        if absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1]:
            if sign[i - 1] * sign[i] < 0 or sign[i] * sign[i + 1] < 0:
                continue  # already bracketed
            if absv[i] > 1e-2 * scale:
                continue
            roots.extend(_refine_dip(sys, ks[i - 1], ks[i + 1], absv[i], depth=0))
    return roots


def _refine_dip(sys: PointSystem, lo: float, hi: float, dip: float, depth: int) -> list[float]:
    ks = np.linspace(lo, hi, 65)
    vals = secular_values(sys, ks)
    roots = _polish(sys, ks, vals)
    if roots:
        return roots
    absv = np.abs(vals)
    j = int(np.argmin(absv))
    if absv[j] > 0.25 * dip:
        return []  # dip bottomed out above zero: no root hiding here
    if hi - lo < 1e-12 or depth > 40:
        # still falling when the window hit rounding scale: a root pair
        # may be hiding below resolution
        warnings.warn(
            f"unresolved |secular| dip near kappa={ks[j]:.9g}", GridTooCoarse
        )
        return []
    lo2 = ks[max(j - 1, 0)]
    hi2 = ks[min(j + 1, len(ks) - 1)]
    return _refine_dip(sys, lo2, hi2, absv[j], depth + 1)


def default_kappa_max(sys: PointSystem) -> Optional[float]:
    """4 max(2/|beta_k|) over the nonzero delta' intensities, or None when
    the system is not a delta' system with a nonzero intensity."""
    betas = sys.delta_prime_betas()
    if betas is None or not np.any(betas != 0):
        return None
    return 4.0 * float(np.max(2.0 / np.abs(betas[betas != 0])))


def count_negative(sys: PointSystem, kappa_max: Optional[float] = None) -> int:
    """Number of negative eigenvalues (bound states).

    For pure delta' systems this equals the number of points with
    negative intensity; kappa_max defaults to default_kappa_max there.
    """
    if kappa_max is None:
        kappa_max = default_kappa_max(sys)
        if kappa_max is None:
            raise ValueError("kappa_max required for non-delta' systems")
    return len(find_bound_states(sys, kappa_max))


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
    """Largest |sum_k omega(traces_p, traces_q)| over DEFECT_SAMPLES random
    pairs in the plane (generator seeded with DEFECT_SEED).

    Zero (to rounding) iff the condition plane is Lagrangian, i.e. the
    system is self-adjoint.
    """
    from scipy.linalg import null_space

    basis = null_space(sys.normalized_relation())
    rng = np.random.default_rng(DEFECT_SEED)
    worst = 0.0
    for _ in range(DEFECT_SAMPLES):
        p = basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
        q = basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
        # rows of the (N, 4) reshape are the per-point traces (v+, v-, d+, d-)
        total = boundary_form(BoundaryTraces(*p.reshape(-1, 4).T),
                              BoundaryTraces(*q.reshape(-1, 4).T)).sum()
        worst = max(worst, abs(total) / (np.linalg.norm(p) * np.linalg.norm(q)))
    return worst
