"""Forms equivalent to the ones the library evaluates.

The library computes Q_ell in the wronskian form and sigma'_ell from it with
no division by J'_ell(mu rho).  The forms here are written from the public
bessel_j, bessel_y and hankel values and derivatives, so the tests can pin
the identities that connect them:

* C'_n = C_{n-1} - (n/z) C_n turns the derivative matching into char_q;
* mu^2 J'_n^2 - (n/rho)^2 J_n^2 = -mu^2 J_{n-1} J_{n+1} at mu rho turns the
  primary sigma'_n into the division-free one.

It also keeps finder's Newton refinement as it ran before track refined its
asymptotic guesses in lockstep: one scalar chain per start, one point after
the other, from public calls only.  The lockstep track must give the same
records, bit for bit.

And it writes the two terms of Q_n out one point at a time, straight from
scipy's jv and yv, so the list body's bits are pinned by something other
than its own one-point case.
"""

import cmath
import dataclasses
import math
import warnings

from scipy.special import jv, yv

from resonance_lab import (
    Classification,
    ResonanceRecord,
    ResonanceTrack,
    SheetDriftWarning,
    SurfacePoint,
    Well,
    bessel_j,
    bessel_y,
    char_q,
    char_q_scale,
    finder,
    hankel,
    mu,
)
from resonance_lab.errors import RangeError


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


def q_terms_per_point(n: int, w: complex, a: float, rho: float) -> tuple[complex, complex]:
    """(t1, t2) of Q_n at the point of the cover with logarithm w, in the well of
    depth a and radius rho, one scipy call per order and Bessel function: H^(1)
    at lambda rho continued from arg in (-pi/2, pi/2] by the connection
    formulas, mu from cmath.sqrt, J at rho mu on the float path where rho mu is
    real and positive, then t1 = mu J_{n-1} H_n and t2 = lambda J_n H_{n-1} in
    Python complex arithmetic."""
    at = w + math.log(rho)
    m = math.ceil((at.imag - math.pi / 2) / math.pi - 1e-15)
    z0 = cmath.exp(complex(at.real, at.imag - m * math.pi))
    lam = cmath.exp(w)
    mu = cmath.sqrt(lam * lam + a * a)
    z = rho * mu
    h, j = [], []
    for order in (n, n - 1):
        jk, yk = complex(jv(order, z0)), complex(yv(order, z0))
        if m:
            sign = -1.0 if (m * order) % 2 else 1.0
            jk, yk = sign * jk, sign * (yk + 2j * m * jk)
        h.append(jk + 1j * yk)
        real = z.imag == 0.0 and z.real > 0.0
        j.append(complex(jv(order, z.real)) if real else complex(jv(order, z)))
    return mu * j[1] * h[0], lam * j[0] * h[1]


def _not_found(eps: float, guess: SurfacePoint, last: SurfacePoint) -> ResonanceRecord:
    try:
        energy = last.value ** 2
    except OverflowError:
        energy = complex(math.inf, math.inf)
    return ResonanceRecord(eps, guess, last, math.inf, Classification.NOT_FOUND, energy)


def refine_sequential(ell: int, guess: SurfacePoint, well: Well, epsilon: float = math.nan):
    """finder.refine as one scalar Newton chain: three char_q calls a step,
    then |Q| / (|t1| + |t2|), whose two parts have the bits of refine's
    residual terms."""
    n = abs(ell)
    if guess.log_value.real > math.log(finder.GUESS_BASIN):
        return _not_found(epsilon, guess, guess)
    w = guess.log_value
    step = finder.FD_STEP
    try:
        for _ in range(finder.MAX_ITER):
            f = char_q(n, SurfacePoint(w), well)
            fp = (char_q(n, SurfacePoint(w + step), well) - char_q(n, SurfacePoint(w - step), well)) / (2 * step)
            if fp == 0 or not (abs(f) < math.inf and abs(fp) < math.inf):
                return _not_found(epsilon, guess, SurfacePoint(w))
            dw = f / fp
            w = w - dw
            if abs(dw) <= finder.STEP_TOL:
                break
        q, scale = char_q(n, SurfacePoint(w), well), char_q_scale(n, SurfacePoint(w), well)
        residual = abs(q) / scale if scale > 0 else math.inf
    except (RangeError, OverflowError):
        return _not_found(epsilon, guess, SurfacePoint(w))
    refined = SurfacePoint(w)
    if not (residual <= finder.RESIDUAL_TOL):
        return _not_found(epsilon, guess, refined)
    if abs(refined.argument - guess.argument) > math.pi / 2:
        warnings.warn(
            f"refined arg {refined.argument:.4f} drifted from guess arg {guess.argument:.4f}",
            SheetDriftWarning,
        )
    energy = refined.value ** 2
    on_axis = abs(refined.argument - math.pi / 2) <= finder.EIGEN_ARG_TOL
    real_energy = abs(energy.imag) <= 1e-8 * abs(energy)
    classification = (
        Classification.EIGENVALUE if on_axis and real_energy else Classification.RESONANCE
    )
    return ResonanceRecord(epsilon, guess, refined, residual, classification, energy)


def track_sequential(ell, family, eps_list, kind) -> ResonanceTrack:
    """finder.track with each point refined from its guess (finder.initial_guess),
    then from the previous kept zero, before the next point starts."""
    eps_tuple = tuple(float(e) for e in eps_list)
    records, prev = [], None
    for eps in eps_tuple:
        guess, well = finder.initial_guess(ell, eps, family, kind), family.well(eps)
        best = refine_sequential(ell, guess, well, eps)
        if prev is not None:
            alt = refine_sequential(ell, prev, well, eps)
            if alt.residual < best.residual:
                best = dataclasses.replace(alt, guess=guess)
        records.append(best)
        if best.classification is not Classification.NOT_FOUND:
            prev = best.refined
    return ResonanceTrack(ell, family, kind, tuple(records))


def derivative_by_recurrence(ell: int, c, z: complex) -> complex:
    """C'_ell(z) from one scalar call's value and low, in the operation order
    the kernels used when they computed it with every call:
    C_{n-1} - (n/z) C_n at n = |ell| on the unreflected C_n, negated for odd
    negative ell."""
    n = abs(ell)
    flip = ell < 0 and n % 2 == 1
    c0 = -c.value if flip else c.value
    derivative = c.low - (n / z) * c0
    return -derivative if flip else derivative
