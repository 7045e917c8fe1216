"""Reference computations the benchmark checks library outputs against.

Nothing here calls resonance_lab: each oracle is written from the defining
equations with mpmath, scipy.special or numpy, so a library change cannot
move the reference along with the result.

* q_residual: |Q_ell| / (|t1| + |t2|) at a point of the logarithmic cover,
  in mpmath, with the integer-order sheet continuation written out here.
* phase_derivative / total_phase_derivative: sigma'_ell from the exact
  derivative of arg S_ell (real J/Y form, numpy-vectorised over lambda).
* scattering_phase: sigma(lambda) as exact phase shifts up to 0.01 plus
  adaptive Gauss-Legendre quadrature of sigma' in log lambda above it.
* mode0_axis_zeros, mode0_axis_abs_q: zeros and magnitude of Q_0 on
  arg lambda = pi/2, from the modified-Bessel (K) form of the matching
  condition.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import jv, jvp, kv, yv, yvp

RESIDUAL_DPS = 20


def _sheet_hankel1(k: int, modulus, theta: float):
    """H^(1)_k at modulus * e^{i theta} on the logarithmic cover (mpmath).

    theta = theta0 + m pi with theta0 in [-pi/2, pi/2]; for integer k,
    J_k(z e^{i m pi}) = (-1)^{mk} J_k(z) and
    Y_k(z e^{i m pi}) = (-1)^{mk} [Y_k(z) + 2 i m J_k(z)].
    """
    m = round(theta / math.pi)
    z0 = modulus * mpmath.expjpi(mpmath.mpf(theta - m * math.pi) / mpmath.pi)
    j0 = mpmath.besselj(k, z0)
    y0 = mpmath.bessely(k, z0)
    sign = -1 if (m * k) % 2 else 1
    return sign * (j0 + 1j * (y0 + 2j * m * j0))


def q_residual(ell: int, log_lam: complex, a: float, rho: float) -> float:
    """Normalised |Q_ell(lambda)| of the well (a, rho) at lambda = exp(log_lam).

    Q_ell = mu J_{n-1}(rho mu) H_n(lambda rho) - lambda J_n(rho mu) H_{n-1}(lambda rho)
    with n = |ell| and mu^2 = lambda^2 + a^2; the zero set does not depend
    on the branch of mu.  The result is |Q| / (|t1| + |t2|).
    """
    n = abs(ell)
    with mpmath.workdps(RESIDUAL_DPS):
        lam = mpmath.exp(mpmath.mpc(log_lam.real, log_lam.imag))
        mu = mpmath.sqrt(lam * lam + mpmath.mpf(a) ** 2)
        edge = mpmath.exp(mpmath.mpf(log_lam.real)) * rho
        t1 = mu * mpmath.besselj(n - 1, rho * mu) * _sheet_hankel1(n, edge, log_lam.imag)
        t2 = lam * mpmath.besselj(n, rho * mu) * _sheet_hankel1(n - 1, edge, log_lam.imag)
        return float(abs(t1 - t2) / (abs(t1) + abs(t2)))


def _ab(ell: int, lam: np.ndarray, a: float, rho: float):
    """(A, A', B, B') of S_ell = -(A - iB)/(A + iB) for real lambda > 0.

    A = mu J'_l(mu rho) J_l(lam rho) - lam J_l(mu rho) J'_l(lam rho), B the
    same with Y_l(lam rho); primes on A, B are d/dlambda, and second
    derivatives come from the Bessel equation.  Where A' or B' overflow
    (lambda rho below ~1e-150) they come back inf or nan; A and B do not.
    """
    mu = np.sqrt(lam * lam + a * a)
    x = mu * rho
    y = lam * rho
    jx = jv(ell, x)
    jpx = jvp(ell, x)
    c = mu * jpx
    e = lam * jx
    dc = -(lam / mu) * (x * x - ell * ell) * jx / x
    de = jx + lam * lam * rho * jpx / mu
    out = []
    for f, fp in ((jv, jvp), (yv, yvp)):
        fy = f(ell, y)
        fpy = fp(ell, y)
        fppy = -fpy / y - (1.0 - ell * ell / (y * y)) * fy
        out.append(c * fy - e * fpy)
        out.append(dc * fy + c * rho * fpy - de * fpy - e * rho * fppy)
    return out


def phase_derivative(ell: int, lam, a: float, rho: float) -> np.ndarray:
    """sigma'_ell = (1/2pi) d arg S_ell / d lambda = -(A B' - B A') / (pi (A^2 + B^2))."""
    lam = np.asarray(lam, dtype=float)
    a_, da, b_, db = _ab(abs(ell), lam, a, rho)
    return -(a_ * db - b_ * da) / (math.pi * (a_ * a_ + b_ * b_))


def _active_modes(lam: np.ndarray, rho: float, ell: int) -> np.ndarray:
    # the mode terms fall like (e lam rho / (2 ell))^(2 ell) once ell passes
    # e lam rho / 2; stop two modes past that and below 1e-18
    x = math.e * lam * rho / 2.0
    return (ell <= np.ceil(x) + 2) | ((x / ell) ** (2 * ell) >= 1e-18)


def total_phase_derivative(lam, a: float, rho: float) -> np.ndarray:
    """sigma' = sigma'_0 + 2 sum_{ell >= 1} sigma'_ell, vectorised over lambda."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    total = phase_derivative(0, lam, a, rho)
    ell = 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            active = _active_modes(lam, rho, ell)
            if not active.any():
                return total
            total[active] += 2.0 * phase_derivative(ell, lam[active], a, rho)
            ell += 1


_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _gauss(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X[None, :]
    return half * (f(nodes.ravel()).reshape(nodes.shape) @ _GL_W)


def scattering_phase(lam: float, a: float, rho: float, lam_split: float = 0.01,
                     tol: float = 1e-10) -> tuple[float, float]:
    """(sigma(lam), error estimate), independent of the library's quadrature.

    Below lam_split, sigma is the sum of exact phase shifts
    sigma_l = -(phi_l(lam) - phi_l(0+))/pi with phi_l = atan2(B_l, A_l),
    unwrapped along a geometric grid: B_l carries the Y singularity, so
    A_l/B_l -> 0 and phi_l(0+) is the odd multiple of pi/2 nearest the
    first grid value.  For l >= 1 the grid starts at 1e-7 because below
    that the double-precision depth of an exact zero-energy well
    (a = j_{0,1}, j_{1,1}) moves B_l through zero; the library treats such
    wells as the exact case, and so does this reference.  The phase sum is
    used there because sigma' loses digits like 1e-16/lambda^2 near zero.

    Above lam_split, sigma' is integrated in t = log lambda by adaptive
    10-point Gauss-Legendre, splitting every panel whose whole and halved
    estimates differ by more than its share of tol (or, on a narrow peak,
    by more than the integrand's rounding).
    """
    low = min(lam, lam_split)
    total = 0.0
    ell = 0
    while True:
        # a near-threshold mode-0 state turns phi_0 at lambda ~ exp(-1/eps):
        # follow mode 0 from far below; l >= 1 thresholds scale like sqrt(eps)
        start = 1e-250 if ell == 0 else 1e-7
        decades = math.ceil(math.log10(low / start))
        grid = np.geomspace(start, low, (20 if ell == 0 else 100) * decades + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            a_, _, b_, _ = _ab(ell, grid, a, rho)
        if not abs(a_[0] / b_[0]) < 0.5:
            raise ArithmeticError(f"phase of mode {ell} is far from its limit at {start}")
        phi = np.unwrap(np.arctan2(b_, a_))
        phi_0 = (math.floor(phi[0] / math.pi) + 0.5) * math.pi
        term = -(1.0 if ell == 0 else 2.0) * (phi[-1] - phi_0) / math.pi
        total += term
        if ell >= 2 and abs(term) < 1e-18:
            break
        ell += 1
    if lam <= lam_split:
        return total, 0.0

    def g(t):
        x = np.exp(t)
        return x * total_phase_derivative(x, a, rho)

    t0, t1 = math.log(lam_split), math.log(lam)
    edges = np.linspace(t0, t1, 33)
    lo, hi = edges[:-1], edges[1:]
    err = 0.0
    while len(lo):
        if len(lo) > 20000:
            raise ArithmeticError(f"quadrature did not converge on [{lam_split}, {lam}]")
        mid = 0.5 * (lo + hi)
        whole = _gauss(g, lo, hi)
        halves = _gauss(g, lo, mid) + _gauss(g, mid, hi)
        diff = np.abs(whole - halves)
        done = diff <= tol * (hi - lo) / (t1 - t0) + 1e-10 * np.abs(halves)
        total += float(halves[done].sum())
        err += float(diff[done].sum())
        lo, hi = np.concatenate([lo[~done], mid[~done]]), np.concatenate(
            [mid[~done], hi[~done]]
        )
    return total, err


def _mode0_axis(kappa: np.ndarray, a: float, rho: float) -> np.ndarray:
    # Q_0(i kappa) = (2i/pi) [mu J_1(mu rho) K_0(kappa rho) - kappa J_0(mu rho) K_1(kappa rho)]
    mu = np.sqrt(a * a - kappa * kappa)
    return mu * jv(1, mu * rho) * kv(0, kappa * rho) - kappa * jv(0, mu * rho) * kv(
        1, kappa * rho
    )


def mode0_axis_abs_q(kappa: float, a: float, rho: float) -> float:
    """|Q_0(i kappa)| = (2/pi) |mu J_1(mu rho) K_0(kappa rho) - kappa J_0(mu rho) K_1(kappa rho)|."""
    return float(2.0 / math.pi * abs(_mode0_axis(np.array([kappa]), a, rho)[0]))


def mode0_axis_zeros(a: float, rho: float, radius: float) -> list[float]:
    """The kappa in (0, radius] with Q_0(i kappa) = 0, by sign scan and bisection."""
    kappa = np.geomspace(1e-250, radius, 3000)
    vals = _mode0_axis(kappa, a, rho)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        lo, hi = kappa[i], kappa[i + 1]
        f_lo = vals[i]
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            f_mid = _mode0_axis(np.array([mid]), a, rho)[0]
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        roots.append(math.sqrt(lo * hi))
    return roots
