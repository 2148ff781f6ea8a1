"""Independent reference routes that only the tests compare against."""

from scipy.integrate import quad


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
