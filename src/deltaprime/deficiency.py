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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BranchCut, EvaluationOnAtom, IllConditioned
from .measures import AtomicMeasure

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


def g_z_prime(x, z: complex):
    """Derivative of g_z away from the origin; odd, jump -1 at 0."""
    s = _sqrt_upper(z)
    x = np.asarray(x, dtype=float)
    return -0.5 * np.sign(x) * np.exp(1j * s * np.abs(x))


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


def element_eval(e: DeficiencyElement, x):
    """Pointwise value; GPrimeConv refuses evaluation on atoms."""
    xs, ws = e.measure.positions, e.measure.weights
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if e.kind == GPRIMECONV and np.min(np.abs(xa[:, None] - xs[None, :])) < 1e-12:
        raise EvaluationOnAtom("derivative family is discontinuous on atoms")
    fn = g_z if e.kind == GCONV else g_z_prime
    out = np.zeros(xa.shape, dtype=complex)
    for xk, wk in zip(xs, ws):
        out += wk * fn(xa - xk, e.z)
    return complex(out[0]) if np.ndim(x) == 0 else out


def element_one_sided(e: DeficiencyElement, x: float, side: int) -> tuple[complex, complex]:
    """(value, derivative) limit at x from the right (+1) or left (-1)."""
    s = _sqrt_upper(e.z)
    xs, ws = e.measure.positions, e.measure.weights
    val = 0.0 + 0.0j
    der = 0.0 + 0.0j
    for xk, wk in zip(xs, ws):
        d = x - xk
        on_atom = abs(d) < 1e-14
        if e.kind == GCONV:
            val += wk * g_z(d, e.z)
            if on_atom:
                der += wk * (-0.5 * side)
            else:
                der += wk * g_z_prime(d, e.z)
        else:
            if on_atom:
                val += wk * (-0.5 * side)
            else:
                val += wk * g_z_prime(d, e.z)
            der += wk * (-e.z) * g_z(d, e.z)   # g'' = -z g off the atom
    return val, der


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
    # sin(sigma |d|) / sigma, by its Taylor series where sigma |d| is tiny
    if abs(sig) * (np.max(ad, initial=0.0) + 1.0) < 1e-8:
        sin_over = ad * (1.0 - (sig * ad) ** 2 / 6.0)
    else:
        sin_over = np.sin(sig * ad) / sig
    mod2 = sig * sig + tau * tau
    f = damp * (np.cos(sig * ad) / tau + sin_over) / (4.0 * mod2)
    fp = -np.sign(d) * damp * sin_over / (4.0 * tau)
    return f, fp


def pair_inner(kind1: str, kind2: str, p: np.ndarray, q: np.ndarray, z: complex) -> np.ndarray:
    """<kind1 shift at p, kind2 shift at q> in L2, closed form; [i,j] = (p_i, q_j)."""
    d = np.subtract.outer(np.atleast_1d(q), np.atleast_1d(p)).T
    f, fp = _f_pair(d, z)
    if kind1 == GCONV and kind2 == GCONV:
        return f.astype(complex)
    if kind1 == GPRIMECONV and kind2 == GCONV:
        return fp.astype(complex)
    if kind1 == GCONV and kind2 == GPRIMECONV:
        return -fp.astype(complex)
    return np.conj(z) * f + g_z(d, z)


def inner_product(e1: DeficiencyElement, e2: DeficiencyElement) -> complex:
    """L2 inner product <e1, e2> (second slot conjugated)."""
    if e1.z != e2.z:
        raise ValueError("elements must share the spectral parameter")
    k = pair_inner(e1.kind, e2.kind, e1.measure.positions, e2.measure.positions, e1.z)
    return complex(e1.measure.weights @ k @ e2.measure.weights)


def gram_matrix(elements: Sequence[DeficiencyElement]) -> np.ndarray:
    """[<e_i, e_j>]: one closed-form block per pair of kinds over all atoms,
    summed into elements with the atom weights."""
    zs = {e.z for e in elements}
    if len(zs) > 1:
        raise ValueError("elements must share the spectral parameter")
    z = next(iter(zs), None)
    groups = []   # (kind, element indices, atom positions, atoms x elements weights)
    for kind in (GCONV, GPRIMECONV):
        idx = [i for i, e in enumerate(elements) if e.kind == kind]
        if idx:
            ms = [elements[i].measure for i in idx]
            # one-hot atoms x elements matrix carrying each atom's weight
            owner = np.repeat(np.arange(len(ms)), [len(m) for m in ms])
            weights = np.concatenate([m.weights for m in ms])
            groups.append((kind, idx, np.concatenate([m.positions for m in ms]),
                           (owner[:, None] == np.arange(len(ms))) * weights[:, None]))
    g = np.zeros((len(elements), len(elements)), dtype=complex)
    for k1, idx1, p1, w1 in groups:
        for k2, idx2, p2, w2 in groups:
            g[np.ix_(idx1, idx2)] = w1.T @ pair_inner(k1, k2, p1, p2, z) @ w2
    return g


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
    the derivative member at selected points."""
    out = []
    for p in points:
        unit = AtomicMeasure([p], [1.0])
        out.append(DeficiencyElement(GCONV, unit, z))
        if not any(abs(p - q) < 1e-14 for q in drop_prime_at):
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
        return float(
            max(
                np.abs(self.value_jumps).max(initial=0.0),
                np.abs(self.derivative_jumps).max(initial=0.0),
                np.abs(self.prime_value_jumps).max(initial=0.0),
                np.abs(self.prime_derivative_jumps).max(initial=0.0),
            )
        )


def free_pair_check(mu: AtomicMeasure, z: complex = -1j) -> FreePairReport:
    """Jump cancellation in g_z*mu - g_conj(z)*mu and its derivative.

    The derivative jump -w_k of each convolution is z-independent, so
    the differences are jump-free at every atom (they belong to the
    smooth Sobolev class); all four jump families must vanish to
    rounding.
    """
    zm, zp = z, np.conj(z)
    em = DeficiencyElement(GCONV, mu, zm)
    ep = DeficiencyElement(GCONV, mu, zp)
    dm = DeficiencyElement(GPRIMECONV, mu, zm)
    dp = DeficiencyElement(GPRIMECONV, mu, zp)
    n = len(mu)
    vj, dj = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    pvj, pdj = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    for i, x in enumerate(mu.positions):
        for (e1, e2), out_v, out_d in (
            ((em, ep), vj, dj),
            ((dm, dp), pvj, pdj),
        ):
            v1p, d1p = element_one_sided(e1, x, +1)
            v1m, d1m = element_one_sided(e1, x, -1)
            v2p, d2p = element_one_sided(e2, x, +1)
            v2m, d2m = element_one_sided(e2, x, -1)
            out_v[i] = (v1p - v1m) - (v2p - v2m)
            out_d[i] = (d1p - d1m) - (d2p - d2m)
    return FreePairReport(mu.positions, vj, dj, pvj, pdj)
