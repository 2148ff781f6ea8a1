"""Deficiency elements g_z * mu and (g_z * nu)' for atomic measures.

g_z(x) = (i / 2 sqrt(z)) e^{i sqrt(z) |x|} with Im sqrt(z) > 0 solves
-g'' = z g off the origin, is continuous, and its derivative jumps by
exactly -1 there for every admissible z.  Atomic convolutions are
weighted sums of shifts; their mutual L2 inner products reduce to
closed-form integrals of exponentials, so Gram ranks never depend on
quadrature.  With s = sigma + i tau = sqrt(z):

    <g(.-p), g(.-q)>   = F(q-p),
    <g'(.-p), g(.-q)>  = F'(q-p),
    <g(.-p), g'(.-q)>  = -F'(q-p),
    <g'(.-p), g'(.-q)> = conj(z) F(q-p) + g_z(q-p),

    F(d)  = e^{-tau |d|} [cos(sigma |d|)/tau + sin(sigma |d|)/sigma] / (4|z|),
    F'(d) = -sign(d) e^{-tau |d|} sin(sigma |d|) / (4 sigma tau),

with the removable sigma -> 0 limits sin(sigma d)/sigma -> d.

Elements implement the one_sided/jump_points protocol of `measures`,
so free_pair_check is the mu-boundary data (mu_derivative) of the pair
g_z * mu, g_conj(z) * mu and of their derivatives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BranchCut, EvaluationOnAtom, IllConditioned
from .measures import AtomicMeasure, _on_atoms, mu_derivative

GCONV = "g"
GPRIMECONV = "g_prime"
RANK_TOL = 1e-8


def _sqrt_upper(z: complex) -> complex:
    s = np.sqrt(complex(z))
    if s.imag < 0:
        s = -s
    if s.imag <= 0:
        raise BranchCut("z must lie off [0, +inf)")
    return s


def g_z(x, z: complex):
    """Free resolvent kernel profile at spectral parameter z."""
    s = _sqrt_upper(z)
    x = np.asarray(x, dtype=float)
    return (0.5j / s) * np.exp(1j * s * np.abs(x))


@dataclass(frozen=True)
class DeficiencyElement:
    """g_z * mu (kind 'g') or (g_z * mu)' (kind 'g_prime')."""

    kind: str
    measure: AtomicMeasure
    z: complex

    def __post_init__(self):
        if self.kind not in (GCONV, GPRIMECONV):
            raise ValueError(f"kind must be {GCONV!r} or {GPRIMECONV!r}")
        _sqrt_upper(self.z)  # validates the branch

    def one_sided(self, x, side: int):
        """(value, derivative) limit at x from the right (+1) or left (-1).

        On an atom the jumping factor sign(x - x_k) of g_z' takes the
        side; g'' = -z g off the atoms gives the derivative of g_z' * mu.
        """
        s = _sqrt_upper(self.z)
        x = np.asarray(x, dtype=float)
        d = x[..., None] - self.measure.positions
        ex = np.exp(1j * s * np.abs(d))
        g = ((0.5j / s) * ex) @ self.measure.weights
        gp = (-0.5 * np.where(d == 0.0, side, np.sign(d)) * ex) @ self.measure.weights
        val, der = (g, gp) if self.kind == GCONV else (gp, -self.z * g)
        return (val.item(), der.item()) if x.ndim == 0 else (val, der)

    def jump_points(self) -> list[float]:
        return self.measure.positions.tolist()


def element_eval(e: DeficiencyElement, x):
    """Pointwise value; GPrimeConv refuses evaluation on atoms."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if e.kind == GPRIMECONV and _on_atoms(e.measure.positions, xa).any():
        raise EvaluationOnAtom("derivative family is discontinuous on atoms")
    return e.one_sided(x, +1)[0]


def e_functional(e: DeficiencyElement) -> complex:
    """Integral over the line: -mass/z on the g-family, 0 on derivatives."""
    if e.kind == GCONV:
        return -e.measure.total_mass / e.z
    return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# closed-form inner products and Gram ranks
# ---------------------------------------------------------------------------

def _f_pair(d: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """F(d) and F'(d) elementwise."""
    s = _sqrt_upper(z)
    sig, tau = s.real, s.imag
    ad = np.abs(d)
    damp = np.exp(-tau * ad)
    sin_over = ad * np.sinc(sig * ad / np.pi)       # sin(sigma |d|) / sigma, |d| at sigma = 0
    mod2 = sig * sig + tau * tau
    f = damp * (np.cos(sig * ad) / tau + sin_over) / (4.0 * mod2)
    fp = -np.sign(d) * damp * sin_over / (4.0 * tau)
    return f, fp


def _kernel(prime1, prime2, p: np.ndarray, q: np.ndarray, z: complex) -> np.ndarray:
    """<shift at p_i, shift at q_j> in L2, closed form, for every pair; prime1
    and prime2 flag the g' shifts, as scalars or arrays broadcast over the rows
    and the columns."""
    d = np.subtract.outer(q, p).T
    f, fp = _f_pair(d, z)
    return np.where(prime1 & prime2, np.conj(z) * f + g_z(d, z),
                    np.where(prime1 == prime2, f, np.where(prime1, fp, -fp)))


def inner_product(e1: DeficiencyElement, e2: DeficiencyElement) -> complex:
    """L2 inner product <e1, e2> (second slot conjugated)."""
    if e1.z != e2.z:
        raise ValueError("elements must share the spectral parameter")
    k = _kernel(e1.kind == GPRIMECONV, e2.kind == GPRIMECONV, e1.measure.positions,
                e2.measure.positions, e1.z)
    return complex(e1.measure.weights @ k @ e2.measure.weights)


def gram_matrix(elements: Sequence[DeficiencyElement]) -> np.ndarray:
    """[<e_i, e_j>] = W^T K W: K the closed-form kernel over all atoms, W the
    one-hot atoms x elements matrix carrying each atom's weight."""
    zs = {e.z for e in elements}
    if len(zs) > 1:
        raise ValueError("elements must share the spectral parameter")
    if not elements:
        return np.zeros((0, 0), dtype=complex)
    ms = [e.measure for e in elements]
    owner = np.repeat(np.arange(len(ms)), [len(m) for m in ms])
    w = (owner[:, None] == np.arange(len(ms))) * np.concatenate([m.weights for m in ms])[:, None]
    prime = np.array([e.kind == GPRIMECONV for e in elements])[owner]
    p = np.concatenate([m.positions for m in ms])
    return w.T @ _kernel(prime[:, None], prime, p, p, zs.pop()) @ w


def gram_rank(elements: Sequence[DeficiencyElement]) -> int:
    """Numerical rank of the Gram matrix from closed-form inner products.

    Singular values below RANK_TOL * sigma_max count as zero; values
    within a decade of the cut trigger the IllConditioned warning so the
    caller can audit the spectrum.
    """
    if not elements:
        raise ValueError("need at least one element")
    g = gram_matrix(elements)
    s = np.linalg.svd(g, compute_uv=False)
    cut = RANK_TOL * s[0]
    if np.any((s > 0.1 * cut) & (s < 10.0 * cut)):
        warnings.warn("singular values cluster at the rank tolerance", IllConditioned)
    return int(np.sum(s > cut))


def point_family(
    points: Sequence[float], z: complex, drop_prime_at: Sequence[float] = ()
) -> list[DeficiencyElement]:
    """Unit-mass g and g' shifts at isolated points, optionally without
    the derivative member at selected points, each equal to one of them;
    ValueError names the first point given twice, or the first drop entry
    that is not a point."""
    values = np.asarray(points, dtype=float).tolist()
    if len(set(values)) < len(values):
        repeated = next(p for i, p in enumerate(values) if p in values[:i])
        raise ValueError(f"point {repeated} is given twice: the points must be distinct")
    missing = [q for q in drop_prime_at if q not in points]
    if missing:
        raise ValueError(f"drop_prime_at entry {missing[0]} is not one of the points")
    out = []
    for p in points:
        unit = AtomicMeasure([p], [1.0])
        out.append(DeficiencyElement(GCONV, unit, z))
        if p not in drop_prime_at:
            out.append(DeficiencyElement(GPRIMECONV, unit, z))
    return out


# ---------------------------------------------------------------------------
# the smooth-pair identity behind the free extension
# ---------------------------------------------------------------------------

@dataclass
class FreePairReport:
    atoms: np.ndarray
    value_jumps: np.ndarray          # of g_{z-} * mu - g_{z+} * mu
    derivative_jumps: np.ndarray
    prime_value_jumps: np.ndarray    # of the derivative analogue
    prime_derivative_jumps: np.ndarray

    @property
    def max_jump(self) -> float:
        return float(max(np.abs(j).max(initial=0.0) for j in (
            self.value_jumps, self.derivative_jumps,
            self.prime_value_jumps, self.prime_derivative_jumps)))


def free_pair_check(mu: AtomicMeasure, z: complex = -1j) -> FreePairReport:
    """Jump cancellation in g_z*mu - g_conj(z)*mu and its derivative.

    Each jump is w dpsi/dmu from the mu-boundary data of the convolutions.
    The derivative jump -w_k of each convolution is z-independent, so the
    differences are jump-free at every atom (they belong to the smooth
    Sobolev class); all four jump families must vanish to rounding.
    """
    jumps = []
    for kind in (GCONV, GPRIMECONV):
        a, b = (mu_derivative(DeficiencyElement(kind, mu, zz), mu) for zz in (z, np.conj(z)))
        jumps += [mu.weights * (a.dpsi_dmu - b.dpsi_dmu),
                  mu.weights * (a.dpsi_prime_dmu - b.dpsi_prime_dmu)]
    return FreePairReport(mu.positions, *jumps)
