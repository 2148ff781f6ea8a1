"""Exact references computed without the library's solvers.

- Characteristic roots of k = 1 + tanh k and k = 1 + coth k (the odd and
  even states of the delta' pair at beta = -1; the odd root is also the
  state of the nonlocal two-point example).
- Energies of the boxed delta' operator over a few atoms: roots of the
  transfer-matrix characteristic function psi'(b) of the solution with
  psi(a) = 0, psi'(a) = 1, crossing psi(x+) = psi(x-) + beta w psi'(x)
  on each atom.
- Bound states of real delta systems from the Krein matrix
  M(kappa) = diag(1/alpha) + exp(-kappa |x_i - x_j|) / (2 kappa): it
  decreases in kappa, so #{alpha < 0} - #neg M(kappa) counts the states
  with decay rate above kappa exactly, and bisection on that count
  isolates every root, however close two roots lie.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

ROOT_TANH = 1.9611797513715394   # positive root of k = 1 + tanh k


def tanh_root() -> float:
    return float(brentq(lambda k: k - 1.0 - np.tanh(k), 1.0, 4.0, xtol=1e-15, rtol=1e-15))


def coth_root() -> float:
    return float(brentq(lambda k: k - 1.0 - 1.0 / np.tanh(k), 1.0, 4.0, xtol=1e-15, rtol=1e-15))


def theta(gamma: float) -> float:
    """Limit transmission diag(theta, 1/theta) of a delta'-potential of intensity gamma."""
    return (2.0 + gamma) / (2.0 - gamma)


# ---------------------------------------------------------------------------
# boxed delta' operator over a few atoms
# ---------------------------------------------------------------------------

def _box_char(kappa: float, a: float, b: float, xs, cs) -> float:
    """psi'(b) of the Dirichlet solution at a, rescaled to unit size per step."""
    v, d, x = 0.0, 1.0, a
    for xi, c in list(zip(xs, cs)) + [(b, 0.0)]:
        e = np.exp(-2.0 * kappa * (xi - x))
        v, d = (0.5 * (1 + e) * v + 0.5 * (1 - e) / kappa * d,
                0.5 * kappa * (1 - e) * v + 0.5 * (1 + e) * d)
        s = abs(v) + abs(d)
        v, d = v / s, d / s
        v += c * d
        x = xi
    return d / (abs(v) + abs(d))


def box_energies(a: float, b: float, xs, cs, scan: int = 4000) -> np.ndarray:
    """Negative energies, ascending, of the boxed operator (Dirichlet a, Neumann b).

    cs are the atom intensities beta_k w_k.  The count must equal
    #{c_k < 0}; a scan that misses a root raises instead of returning
    a short reference.
    """
    cs = np.asarray(cs, dtype=float)
    neg = cs[cs < 0]
    want = int(neg.size)
    if want == 0:
        return np.array([])
    kmax = 4.0 * float(np.max(2.0 / np.abs(neg))) + 1.0
    ks = np.linspace(kmax / scan, kmax, scan)
    f = np.array([_box_char(k, a, b, xs, cs) for k in ks])
    roots = [
        brentq(_box_char, ks[i], ks[i + 1], args=(a, b, xs, cs), xtol=1e-15, rtol=1e-15)
        for i in np.nonzero(f[:-1] * f[1:] < 0)[0]
    ]
    if len(roots) != want:
        raise RuntimeError(f"box reference found {len(roots)} roots, expected {want}")
    return np.sort(-np.asarray(roots) ** 2)


# ---------------------------------------------------------------------------
# real delta systems: Krein-matrix inertia
# ---------------------------------------------------------------------------

def _states_above(kappa: float, xs: np.ndarray, alphas: np.ndarray) -> int:
    m = np.exp(-kappa * np.abs(xs[:, None] - xs[None, :])) / (2.0 * kappa)
    m[np.diag_indices_from(m)] += 1.0 / alphas
    return int(np.sum(alphas < 0)) - int(np.sum(np.linalg.eigvalsh(m) < 0))


def delta_states(xs, alphas, k_lo: float, k_hi: float, rtol: float = 1e-14) -> np.ndarray:
    """Decay rates in (k_lo, k_hi] of -d^2/dx^2 + sum alpha_k delta(x - x_k), descending."""
    xs = np.asarray(xs, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas == 0):
        raise ValueError("zero intensities carry no interaction")
    out: list[float] = []

    def isolate(lo, hi, c_lo, c_hi):
        if c_lo == c_hi:
            return
        if hi - lo <= rtol * hi:
            out.extend([0.5 * (lo + hi)] * (c_lo - c_hi))
            return
        mid = 0.5 * (lo + hi)
        c_mid = _states_above(mid, xs, alphas)
        isolate(mid, hi, c_mid, c_hi)
        isolate(lo, mid, c_lo, c_mid)

    isolate(k_lo, k_hi, _states_above(k_lo, xs, alphas), _states_above(k_hi, xs, alphas))
    return np.array(out)
