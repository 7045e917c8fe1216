"""Forms of Q_ell and sigma'_ell equivalent to the ones the library evaluates.

The library computes Q_ell in the wronskian form and sigma'_ell from it with
no division by J'_ell(mu rho).  The forms here are written from the public
bessel_j, bessel_y and hankel values and derivatives, so the tests can pin
the identities that connect them:

* C'_n = C_{n-1} - (n/z) C_n turns the derivative matching into char_q;
* mu^2 J'_n^2 - (n/rho)^2 J_n^2 = -mu^2 J_{n-1} J_{n+1} at mu rho turns the
  primary sigma'_n into the division-free one.
"""

import math

from scipy.special import jv

from resonance_lab import SurfacePoint, Well, bessel_j, bessel_y, hankel, mu


def q_derivative_form(ell: int, lam, well: Well) -> complex:
    """mu J'_n(rho mu) H_n^(1)(lambda rho) - lambda J_n(rho mu) H_n^(1)'(lambda rho), n = |ell|,
    at one point; hankel goes first, so it rejects what char_q rejects."""
    point = lam if isinstance(lam, SurfacePoint) else SurfacePoint.from_complex(lam)
    n = abs(ell)
    h = hankel(1, n, point.scaled(well.rho))
    m = mu(point, well.a)
    j = bessel_j(n, well.rho * m)
    return m * j.derivative * h.value - point.value * j.value * h.derivative


def _edge(ell: int, lam: float, well: Well):
    """(n, mu, J_n(mu rho), J_n(lambda rho), Y_n(lambda rho)) at n = |ell|, each Bessel
    term as the real parts of its (value, derivative, low)."""
    n, m = abs(ell), math.sqrt(lam * lam + well.a * well.a)
    parts = bessel_j(n, m * well.rho), bessel_j(n, lam * well.rho), bessel_y(n, lam * well.rho)
    return (n, m, *((c.value.real, c.derivative.real, c.low.real) for c in parts))


def sigma_primary_form(ell: int, lam: float, well: Well) -> float:
    """sigma'_ell(lambda) in the form that divides by J'_n(mu rho)."""
    n, m, (j, dj, _), (ej, dej, _), (y, dy, _) = _edge(ell, lam, well)
    amp = -(lam / m) * j / dj
    num = 1.0 - (n * n) / (lam * well.rho) ** 2 * amp * amp
    u, v = ej + amp * dej, y + amp * dy
    return -(well.a * well.a) / (m * m) * (2.0 / (math.pi**2 * lam)) * num / (u * u + v * v)


def sigma_alternate_form(ell: int, lam: float, well: Well) -> float:
    """sigma'_ell(lambda) = 2 a^2 J_{n-1} J_{n+1}(mu rho) / (pi^2 lambda (A^2 + B^2)), with
    A + iB = Q_n, in the operation order of phase; J_{n+1} straight from scipy, as it
    may be one order past bessel_j's range."""
    n, m, (j, _, j_low), (ej, _, ej_low), (y, _, y_low) = _edge(ell, lam, well)
    j_high = float(jv(n + 1, m * well.rho))
    big_a = m * j_low * ej - lam * j * ej_low
    big_b = m * j_low * y - lam * j * y_low
    return (2.0 * well.a * well.a) / (math.pi**2 * lam) * j_low * j_high / (big_a * big_a + big_b * big_b)
