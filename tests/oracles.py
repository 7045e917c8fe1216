"""Independent reference implementations used to pin test expectations.

Everything here is deliberately naive: plain power series, bisection,
finite differences, and closed forms derived from matching conditions.
Slow is fine; these only certify the production code paths.
"""

import cmath
import math

import mpmath
import numpy as np
from scipy.special import jv, yv


def j_series(ell: int, z: complex, terms: int = 60) -> complex:
    """Partial sum of the J_ell power series; good to ~1e-13 for |z| <= 12."""
    n = abs(ell)
    z = complex(z)
    half = z / 2.0
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + n))
        total += term
    if ell < 0 and n % 2 == 1:
        total = -total
    return total


def j_series_derivative(ell: int, z: complex, terms: int = 60) -> complex:
    return (j_series(ell - 1, z, terms) - j_series(ell + 1, z, terms)) / 2.0


def y_by_nu_derivative(n: int, x: float, h: float = 1e-6) -> complex:
    """Y_n via the nu-derivative limit of J_nu, evaluated in mpmath.

    Y_n = (1/pi) dJ_nu/dnu |_{nu=n} + ((-1)^n/pi) dJ_nu/dnu |_{nu=-n}.
    """
    with mpmath.workdps(30):
        dp = (mpmath.besselj(n + h, x) - mpmath.besselj(n - h, x)) / (2 * h)
        dm = (mpmath.besselj(-n + h, x) - mpmath.besselj(-n - h, x)) / (2 * h)
        y = dp / mpmath.pi + (-1) ** n * dm / mpmath.pi
        return complex(y)


def series_zero(ell: int, k: int) -> float:
    """k-th positive zero of J_ell by sign scan + bisection on the series.

    Only trustworthy while the zero is <= ~12 (series conditioning).
    """
    f = lambda x: j_series(ell, x, 120).real
    step = 0.05
    x_prev, f_prev = step, f(step)
    hits = 0
    x = x_prev
    while x < 40.0:
        x += step
        f_cur = f(x)
        if f_prev * f_cur < 0:
            hits += 1
            if hits == k:
                lo, hi = x - step, x
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if f(lo) * f(mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi)
        f_prev = f_cur
    raise AssertionError(f"zero ({ell},{k}) not found below 40")


def lambert_lower_real(x: float) -> float:
    """W_{-1}(x) for x in (-1/e, 0), by bisection on w*e^w = x over w <= -1."""
    assert -1.0 / math.e < x < 0.0
    f = lambda w: w * math.exp(w) - x
    lo, hi = -745.0, -1.0  # f(lo) > 0 (x < 0), f(hi) = -1/e - x < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mu_by_path(lam: complex, a: float, steps: int = 100) -> complex:
    """Continue sqrt(lam^2 + a^2) from the positive real axis to lam.

    Walks |lam|e^{i t arg(lam)}, t in [0, 1], keeping the root continuous.
    """
    r = abs(lam)
    theta = cmath.phase(lam)
    current = math.sqrt(r * r + a * a)
    for i in range(1, steps + 1):
        t = theta * i / steps
        point = r * cmath.exp(1j * t)
        root = cmath.sqrt(point * point + a * a)
        if abs(root - current) > abs(-root - current):
            root = -root
        current = root
    return current


def _jp(n: int, z):
    if n == 0:
        return -jv(1, z)
    return jv(n - 1, z) - (n / z) * jv(n, z)


def _yp(n: int, z):
    if n == 0:
        return -yv(1, z)
    return yv(n - 1, z) - (n / z) * yv(n, z)


def s_matrix_real_form(ell: int, lam, a: float, rho: float = 1.0):
    """S_ell for real lambda > 0 entirely in real J/Y arithmetic; lambda may
    be an array.

    With A = mu J'_ell(mu rho) J_ell(lam rho) - lam J_ell(mu rho) J'_ell(lam rho)
    and B the same with Y, the eigenvalue is -(A - iB)/(A + iB).
    """
    n = abs(ell)
    m = np.sqrt(lam * lam + a * a)
    x, y = m * rho, lam * rho
    big_a = m * _jp(n, x) * jv(n, y) - lam * jv(n, x) * _jp(n, y)
    big_b = m * _jp(n, x) * yv(n, y) - lam * jv(n, x) * _yp(n, y)
    return -(big_a - 1j * big_b) / (big_a + 1j * big_b)


def fd_phase_derivative(
    ell: int, lam: float, a: float, rho: float = 1.0, h: float = 1e-6
) -> float:
    """sigma'_ell from the phase of S_ell by central differences."""
    s_hi = s_matrix_real_form(ell, lam + h, a, rho)
    s_lo = s_matrix_real_form(ell, lam - h, a, rho)
    return cmath.phase(s_hi / s_lo) / (4.0 * math.pi * h)


def delta_s_matrix(a: float, lam: float) -> complex:
    """Half-line delta scattering matrix from the transmission condition.

    Inside solution sin(lam x) (Dirichlet at 0); matching u continuous and
    u'(1+) - u'(1-) = a u(1) against e^{-i lam x} - s e^{i lam x} gives
    s = -e^{-2 i lam} (C + iD)/(C - iD), C = a sin + lam cos, D = lam sin.
    """
    c = a * math.sin(lam) + lam * math.cos(lam)
    d = lam * math.sin(lam)
    return -cmath.exp(-2j * lam) * (c + 1j * d) / (c - 1j * d)


def delta_fd_phase_derivative(a: float, lam: float, h: float = 1e-6) -> float:
    s_hi = delta_s_matrix(a, lam + h)
    s_lo = delta_s_matrix(a, lam - h)
    return cmath.phase(s_hi / s_lo) / (4.0 * math.pi * h)


def hankel_leading(kind: int, ell: int, z: complex) -> complex:
    """Leading large-|z| form sqrt(2/(pi z)) e^{+-i(z - ell pi/2 - pi/4)}."""
    sign = 1.0 if kind == 1 else -1.0
    return cmath.sqrt(2.0 / (math.pi * z)) * cmath.exp(
        sign * 1j * (z - ell * math.pi / 2.0 - math.pi / 4.0)
    )
