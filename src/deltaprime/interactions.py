"""Algebra of one-point boundary conditions on the line.

A self-adjoint point interaction at x0 is a Lagrangian plane in the
four-dimensional space of boundary traces

    (psi(x0+0), psi(x0-0), psi'(x0+0), psi'(x0-0)).

The plane can be presented as a transmission matrix Lambda linking
(psi, psi') across the point, as a Hermitian intensity matrix B acting
on jump/mean traces, or as the Cayley unitary of either coordinate
chart.  This module holds the four canonical interaction types
(delta, delta', delta'-potential, delta-magnetic), the transparent
conditions, the conversions between the parametrizations, and the
composition laws for merging adjacent interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateComposition,
    DomainError,
    GammaPole,
    PlaneNotGraph,
    SingularD,
    SplitHasNoLambda,
    _checked_floats,
)

POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# trace vectors and the boundary form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryTraces:
    """One-sided boundary values of psi and psi' at an interaction point."""

    v_plus: complex
    v_minus: complex
    d_plus: complex
    d_minus: complex

    @property
    def psi_s(self) -> complex:
        return self.v_plus - self.v_minus

    @property
    def dpsi_s(self) -> complex:
        return self.d_plus - self.d_minus

    @property
    def psi_r(self) -> complex:
        return 0.5 * (self.v_plus + self.v_minus)

    @property
    def dpsi_r(self) -> complex:
        return 0.5 * (self.d_plus + self.d_minus)


def boundary_form(p: BoundaryTraces, q: BoundaryTraces) -> complex:
    """Sesquilinear boundary form omega(Gamma p, Gamma q).

    Antisymmetric in the sense omega(p, q) = -conj(omega(q, p)); a
    boundary condition is self-adjoint iff omega vanishes on all pairs
    of traces satisfying it.
    """
    return (
        p.d_plus * np.conj(q.v_plus)
        - p.v_plus * np.conj(q.d_plus)
        - p.d_minus * np.conj(q.v_minus)
        + p.v_minus * np.conj(q.d_minus)
    )


# ---------------------------------------------------------------------------
# parametrizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmissionMatrix:
    """2x2 matrix Lambda with col(v+, d+) = Lambda col(v-, d-).

    Self-adjointness requires Lambda = e^{i eta} R with R real and
    det R = 1; equivalently |det Lambda| = 1 and e^{-i eta} Lambda real
    for eta = arg(det Lambda)/2.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _checked_floats(self.entries, "transmission matrix entries", dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("transmission matrix must be 2x2")
        object.__setattr__(self, "entries", m)

    @property
    def eta(self) -> float:
        """Phase with e^{-i eta} Lambda real, in (-pi/2, pi/2] mod pi."""
        return 0.5 * np.angle(np.linalg.det(self.entries))

    def phase_defect(self) -> float:
        """Distance from the e^{i eta} * (real, det 1) family."""
        return float(_phase_defects(self.entries))

    def apply(self, v_minus: complex, d_minus: complex) -> tuple[complex, complex]:
        out = self.entries @ np.array([v_minus, d_minus], dtype=complex)
        return out[0], out[1]

    def traces(self, v_minus: complex, d_minus: complex) -> BoundaryTraces:
        v_plus, d_plus = self.apply(v_minus, d_minus)
        return BoundaryTraces(v_plus, v_minus, d_plus, d_minus)


@np.errstate(invalid="ignore")
def _phase_defects(m: np.ndarray) -> np.ndarray:
    """The distance of each matrix of m, shape (..., 2, 2), from the
    e^{i eta} * (real, det 1) family: the larger of ||det| - 1| and the
    largest |Im| of e^{-i eta} m, eta = arg(det)/2; NaN, quietly, for a NaN entry."""
    det = np.linalg.det(m)
    # eta is defined mod pi; both branches give R or -R, equally real
    r = m * np.exp(-1j * (0.5 * np.angle(det)))[..., None, None]
    return np.maximum(np.abs(np.hypot(det.real, det.imag) - 1.0), np.abs(r.imag).max(axis=(-2, -1)))


@dataclass(frozen=True)
class SelfAdjointB:
    """Intensity matrix of the jump/mean chart: col(psi'_s, psi_s) = B col(psi_r, -psi'_r).

    Units: alpha ~ 1/length, beta ~ length, gamma and mu dimensionless.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    mu: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        a, b, g, m = self.alpha, self.beta, self.gamma, self.mu
        return np.array([[a, g - 1j * m], [g + 1j * m, -b]], dtype=complex)


@dataclass(frozen=True)
class AdditiveCharacteristic:
    """Additive coordinates (xi, s) of a delta'-potential: (2+g)/(2-g) = s e^xi."""

    xi: float
    s: int

    def __add__(self, other: "AdditiveCharacteristic") -> "AdditiveCharacteristic":
        return AdditiveCharacteristic(self.xi + other.xi, self.s * other.s)


# ---------------------------------------------------------------------------
# interaction kinds (tagged union)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Delta:
    alpha: float


@dataclass(frozen=True)
class DeltaPrime:
    beta: float


@dataclass(frozen=True)
class DeltaPrimePotential:
    gamma: float

    def __post_init__(self):
        theta_of_gamma(self.gamma)   # GammaPole at |gamma| = 2


@dataclass(frozen=True)
class DeltaMagnetic:
    mu: float


@dataclass(frozen=True)
class Transparent:
    lambda0: float

    def __post_init__(self):
        if self.lambda0 == 0:
            raise ValueError("transparent conditions require lambda0 != 0")


@dataclass(frozen=True)
class Split:
    """Separated conditions cos(a)psi - sin(a)psi' = 0 on each side."""

    alpha_plus: float
    alpha_minus: float


InteractionKind = Union[
    Delta, DeltaPrime, DeltaPrimePotential, DeltaMagnetic,
    Transparent, Split, SelfAdjointB,
]


def theta_of_gamma(gamma: float) -> float:
    """theta = (2+gamma)/(2-gamma); the one check of the pole at |gamma| = 2.
    A non-finite gamma raises ValueError."""
    _checked_floats(gamma, "gamma")
    if abs(abs(gamma) - 2.0) < POLE_TOL:
        raise GammaPole(f"delta'-potential requires |gamma| != 2, got {gamma}")
    return (2.0 + gamma) / (2.0 - gamma)


def lambda_of(kind: InteractionKind) -> TransmissionMatrix:
    """Canonical transmission matrix of a (non-split) interaction kind."""
    if isinstance(kind, Split):
        raise SplitHasNoLambda("split conditions decouple the line: no transmission matrix")
    if isinstance(kind, Delta):
        m = np.array([[1.0, 0.0], [kind.alpha, 1.0]], dtype=complex)
    elif isinstance(kind, DeltaPrime):
        m = np.array([[1.0, kind.beta], [0.0, 1.0]], dtype=complex)
    elif isinstance(kind, DeltaPrimePotential):
        th = theta_of_gamma(kind.gamma)
        m = np.diag([th, 1.0 / th]).astype(complex)
    elif isinstance(kind, DeltaMagnetic):
        eta = mu_to_eta(kind.mu)
        m = np.exp(1j * eta) * np.eye(2, dtype=complex)
    elif isinstance(kind, Transparent):
        l0 = kind.lambda0
        m = 1j * np.array([[0.0, -1.0 / l0], [l0, 0.0]], dtype=complex)
    elif isinstance(kind, SelfAdjointB):
        return b_to_lambda(kind)
    else:
        raise TypeError(f"unknown interaction kind {kind!r}")
    return TransmissionMatrix(m)


def b_to_lambda(b: SelfAdjointB) -> TransmissionMatrix:
    """Transmission matrix of the intensity matrix B.

    Lambda = (1/D) [[th+, beta], [alpha, th-]] with
    D = (1 - i mu/2)^2 - alpha beta/4 - gamma^2/4 and
    th_pm = (1 +- gamma/2)^2 + alpha beta/4 + mu^2/4.
    """
    a, be, g, m = b.alpha, b.beta, b.gamma, b.mu
    try:
        d = (1.0 - 0.5j * m) ** 2 - 0.25 * a * be - 0.25 * g * g
        th_p = (1.0 + 0.5 * g) ** 2 + 0.25 * a * be + 0.25 * m * m
        th_m = (1.0 - 0.5 * g) ** 2 + 0.25 * a * be + 0.25 * m * m
    except OverflowError:       # a power beyond the floats
        d = th_p = th_m = np.nan
    if abs(d) < POLE_TOL:
        raise SingularD("decoupling limit: D = 0")
    with np.errstate(all="ignore"):
        lam = np.array([[th_p, be], [a, th_m]], dtype=complex) / d
    if not np.all(np.isfinite(lam)):
        raise DomainError(f"B = (alpha, beta, gamma, mu) = ({a:g}, {be:g}, {g:g}, {m:g}) "
                          "takes the transmission matrix beyond the floats")
    return TransmissionMatrix(lam)


def b_to_unitary(b: SelfAdjointB) -> np.ndarray:
    """Cayley unitary (B - i)^(-1) (B + i) of the jump/mean chart."""
    m = b.matrix
    eye = np.eye(2, dtype=complex)
    return np.linalg.solve(m - 1j * eye, m + 1j * eye)


def compose(left: TransmissionMatrix, right: TransmissionMatrix) -> TransmissionMatrix:
    """Merge two adjacent interactions: Lambda = Lambda_left @ Lambda_right.

    `left` is the interaction crossed second (larger x), matching the
    matrix product Lambda = Lambda^+ Lambda^-.
    """
    return TransmissionMatrix(left.entries @ right.entries)


def gamma_compose(gm: float, gp: float) -> float:
    """Total delta'-potential intensity of two merged interactions; an
    intensity at the pole |gamma| = 2 raises GammaPole and a non-finite one
    ValueError (theta_of_gamma)."""
    theta_of_gamma(gm)
    theta_of_gamma(gp)
    den = 1.0 + 0.25 * gm * gp
    if abs(den) < POLE_TOL:
        raise DegenerateComposition(
            "product leaves the delta'-potential family (1 + gm*gp/4 = 0)"
        )
    return (gm + gp) / den


def gamma_to_characteristic(gamma: float) -> AdditiveCharacteristic:
    """Additive characteristic (xi, s) with (2+g)/(2-g) = s e^xi."""
    theta = theta_of_gamma(gamma)
    return AdditiveCharacteristic(float(np.log(abs(theta))), 1 if theta > 0 else -1)


def characteristic_to_gamma(c: AdditiveCharacteristic) -> float:
    """Inverse of gamma_to_characteristic."""
    t = c.s * np.exp(c.xi)  # theta
    return 2.0 * (t - 1.0) / (t + 1.0)


def mu_to_eta(mu: float) -> float:
    """Phase eta = 2 arctan(mu/2) of the delta-magnetic potential."""
    return 2.0 * np.arctan(0.5 * mu)


def eta_to_mu(eta: float) -> float:
    """Intensity mu = 2 tan(eta/2); eta normalized to (-pi, pi]."""
    eta = normalize_eta(eta)
    return 2.0 * np.tan(0.5 * eta)


def normalize_eta(eta: float) -> float:
    out = np.mod(eta + np.pi, 2.0 * np.pi) - np.pi
    if out == -np.pi:
        out = np.pi
    return float(out)


# ---------------------------------------------------------------------------
# unitary charts of Lagrangian planes
# ---------------------------------------------------------------------------
#
# A Darboux chart is one constant 4x4 matrix taking the traces
# (v+, v-, d+, d-) to the stacked coordinates (G1; G2):
#   plain:  G1 = (d+, -d-),          G2 = (v+, v-)
#   hatted: G1 = (dpsi_s, psi_s),    G2 = (psi_r, -dpsi_r)
# Each parametrizes self-adjoint planes via the Cayley condition
#   G1 + i G2 = U (G1 - i G2),
# whose plane is spanned by the columns G1 = (U + I)/2, G2 = (U - I)/2i.
# So every conversion is traces -> chart -> Cayley unitary, and
# unitary -> chart -> traces is its one inverse.

_PLAIN = np.array([[0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, -1.0],
                   [1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0]])
_HATTED = np.array([[0.0, 0.0, 1.0, -1.0],
                    [1.0, -1.0, 0.0, 0.0],
                    [0.5, 0.5, 0.0, 0.0],
                    [0.0, 0.0, -0.5, -0.5]])


def _cayley_from_columns(chart: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Cayley unitary, in chart, of the plane spanned by the columns of traces."""
    g1, g2 = np.split(chart @ traces, 2)
    num = g1 + 1j * g2
    den = g1 - 1j * g2
    if abs(np.linalg.det(den)) < 1e-13 * max(1.0, np.abs(den).max() ** 2):
        raise PlaneNotGraph("plane admits no unitary parametrization")
    return num @ np.linalg.inv(den)


def _traces(chart: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Columns (v+, v-, d+, d-) spanning the plane of the unitary u of chart."""
    eye = np.eye(2)
    return np.linalg.inv(chart) @ np.vstack([0.5 * (u + eye), (u - eye) / 2j])


def unitary_of_lambda(lam: TransmissionMatrix) -> np.ndarray:
    """Plain-chart Cayley unitary of a transmission-matrix plane."""
    # basis: (v-, d-) = e1, e2; (v+, d+) = Lambda columns
    m = lam.entries
    return _cayley_from_columns(_PLAIN, np.vstack([m[0], [1.0, 0.0], m[1], [0.0, 1.0]]))


def split_unitary(kind: Split) -> np.ndarray:
    """Diagonal plain-chart unitary of split conditions."""
    return np.diag(
        [np.exp(2j * kind.alpha_plus), np.exp(-2j * kind.alpha_minus)]
    ).astype(complex)


def u_hat_from_u(u: np.ndarray) -> np.ndarray:
    """Re-express a plain-chart unitary in the jump/mean chart.

    Raises PlaneNotGraph if the plane of u is numerically not a unitary
    graph in the hatted chart (cannot happen for genuine Lagrangian planes).
    """
    return _cayley_from_columns(_HATTED, _traces(_PLAIN, u))


def u_from_u_hat(u_hat: np.ndarray) -> np.ndarray:
    """Inverse of u_hat_from_u."""
    return _cayley_from_columns(_PLAIN, _traces(_HATTED, u_hat))
