"""Circular-well matching: characteristic function, S-matrix, states.

The potential is V = -a^2 on the disk r <= rho and 0 outside.  A mode-ell
solution is J_ell(mu r) inside and a combination of H_ell^(1,2)(lambda r)
outside, with mu = sqrt(lambda^2 + a^2).  Matching value and radial
derivative at r = rho produces:

* the characteristic function Q_ell(lambda), whose zeros on the logarithmic
  cover are the mode-ell eigenvalues (arg lambda = pi/2) and resonances;
* the S-matrix eigenvalue S_ell(lambda) = -conj(Q_ell)/Q_ell for real
  lambda > 0;
* the zero-energy kind of a mode (threshold resonance or eigenvalue),
  controlled by J_{|ell|-1}(rho a) = 0.

Depth families are parameterized as a^2(eps) = a0^2 - eps, so eps < 0
deepens the well and eps > 0 makes it shallower.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .cylinder import SurfacePoint, _prod, _sqrt, bessel_j, hankel
from .errors import BranchError, DomainError, MatchError, SingularityError

# |J_{|ell|-1}(rho a)| at or below this counts as J vanishing: the well then
# carries zero-energy structure in mode ell
ZERO_J_TOL = 1e-9


@dataclass(frozen=True)
class Well:
    """Circular well of finite depth amplitude a > 0 and radius rho > 0."""

    a: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf):
            raise DomainError("well depth amplitude a must be positive and finite")
        if not (0 < self.rho < math.inf):
            raise DomainError("well radius rho must be positive and finite")


@dataclass(frozen=True)
class CouplingFamily:
    """Depth family a^2(eps) = a0^2 - eps at fixed finite radius."""

    a0: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.a0 < math.inf):
            raise DomainError("family base depth a0 must be positive and finite")
        if not (0 < self.rho < math.inf):
            raise DomainError("family radius rho must be positive and finite")

    def well(self, eps: float) -> Well:
        a_sq = self.a0 * self.a0 - eps
        if a_sq <= 0:
            raise DomainError(f"eps = {eps} makes a^2 = {a_sq} nonpositive")
        return Well(math.sqrt(a_sq), self.rho)


class ZeroEnergyKind(enum.Enum):
    NONE = "none"
    S_RESONANCE = "s-resonance"
    P_RESONANCE = "p-resonance"
    ZERO_EIGENVALUE = "zero-eigenvalue"


def mu(lam: SurfacePoint | complex, a: float) -> complex:
    """sqrt(lambda^2 + a^2) on the branch that is positive for lambda > 0.

    The principal square root keeps Re mu >= 0, which is the continuous
    continuation from the positive real lambda axis throughout |lambda| < a.
    Callers must not cross the branch point lambda^2 = -a^2.  A grid of
    points gives an array, bit-equal to the calls at each point.
    """
    if not (a > 0):
        raise DomainError("a must be positive")
    lam_value = lam.value if isinstance(lam, SurfacePoint) else complex(lam)
    if isinstance(lam_value, complex):
        radicand = lam_value * lam_value + a * a
        if radicand == 0:
            raise BranchError("lambda^2 = -a^2 is the branch point of mu")
        return cmath.sqrt(radicand)
    radicand = _prod(lam_value, lam_value)
    radicand += a * a
    if not radicand.all():
        raise BranchError("lambda^2 = -a^2 is the branch point of mu")
    return _sqrt(radicand)


def _as_point(lam: SurfacePoint | complex) -> SurfacePoint:
    return lam if isinstance(lam, SurfacePoint) else SurfacePoint.from_complex(lam)


def _edge(ell: int, point: SurfacePoint, well: Well):
    """(mu, J_n(rho mu), H_n^(1)(lambda rho)) at n = |ell|: the edge values
    that Q, S and the resonant state are built from.  hankel goes first, so
    a non-finite phase or a non-integer order is rejected before
    point.value is read."""
    n = abs(ell)
    h = hankel(1, n, point.scaled(well.rho))
    m = mu(point, well.a)
    rho_m = well.rho * m if isinstance(m, complex) else _prod(well.rho, m)
    return m, bessel_j(n, rho_m), h


def _q_terms(ell: int, point: SurfacePoint, well: Well) -> tuple[complex, complex]:
    """The two terms whose difference is Q_ell; |t1| + |t2| is the scale.
    A grid of points or an array of orders gives arrays, with products
    rounded as CPython's."""
    m, j, h = _edge(ell, point, well)
    lam = point.value
    if isinstance(h.value, complex):
        return m * j.low * h.value, lam * j.value * h.low
    return _prod(_prod(m, j.low), h.value), _prod(_prod(lam, j.value), h.low)


def char_q(ell: int, lam: SurfacePoint | complex, well: Well) -> complex:
    """Characteristic function Q_ell(lambda) of the mode-ell matching problem.

    Q_ell = mu J_{ell-1}(rho mu) H_ell^(1)(lambda rho)
          - lambda J_ell(rho mu) H_{ell-1}^(1)(lambda rho)

    is the derivative matching mu J'_ell H_ell^(1) - lambda J_ell H_ell^(1)' with each
    C'_n = C_{n-1} - (n/z) C_n: the (n/z) terms cancel.
    Zeros with 0 < arg lambda < pi are square roots of eigenvalues; all
    other zeros on the cover are resonances.  Negative ell maps to |ell|.

    lam may be a SurfacePoint holding a grid of points, and ell an array of
    orders: Q is then a complex array, broadcast over both, with the bits of
    the calls at each point, from one range check.
    """
    t1, t2 = _q_terms(ell, _as_point(lam), well)
    if isinstance(t1, complex):
        return t1 - t2
    # as in CPython's complex arithmetic, inf - inf signals nothing
    with np.errstate(all="ignore"):
        t1 -= t2
    return t1


def char_q_scale(ell: int, lam: SurfacePoint | complex, well: Well) -> float:
    """Local magnitude |t1| + |t2| of the two Q_ell terms, for residuals;
    over a grid as char_q."""
    t1, t2 = _q_terms(ell, _as_point(lam), well)
    if isinstance(t1, complex):
        return abs(t1) + abs(t2)
    # CPython's abs is hypot, but returns its own NaN where a part is NaN
    with np.errstate(all="ignore"):
        scale = np.hypot(t1.real, t1.imag) + np.hypot(t2.real, t2.imag)
    scale[np.isnan(scale)] = math.nan
    return scale


def zero_energy_kind(ell: int, well: Well) -> ZeroEnergyKind:
    """Zero-energy structure of mode ell, present when |J_{|ell|-1}(rho a)| <= ZERO_J_TOL.

    Mode 0 then carries an s-resonance (J_{-1} = -J_1), mode +-1 a
    p-resonance (J_0), and |ell| >= 2 a zero eigenvalue.
    """
    n = abs(ell)
    if not abs(bessel_j(n - 1, well.rho * well.a).value) <= ZERO_J_TOL:
        return ZeroEnergyKind.NONE
    if n == 0:
        return ZeroEnergyKind.S_RESONANCE
    if n == 1:
        return ZeroEnergyKind.P_RESONANCE
    return ZeroEnergyKind.ZERO_EIGENVALUE


def s_matrix_eigenvalue(ell: int, lam: float, well: Well) -> complex:
    """S-matrix eigenvalue S_ell(lambda) = -conj(Q_ell)/Q_ell for real lambda > 0.

    Q_ell is char_q, in its wronskian form.  For real lambda, mu and
    J_ell(mu rho) are real and H_ell^(2) = conj(H_ell^(1)), so the H^(2)
    matching that S needs in its numerator is conj(Q_ell).
    |S_ell| = 1 and S_{-ell} = S_ell.
    """
    if not (lam > 0):
        raise DomainError("S-matrix eigenvalues are defined for real lambda > 0")
    t1, t2 = _q_terms(ell, SurfacePoint.from_polar(lam, 0.0), well)
    q = t1 - t2
    if abs(q) <= 1e-13 * (abs(t1) + abs(t2)):
        raise SingularityError(
            "matching denominator vanished at real lambda; numerical trouble"
        )
    return -q.conjugate() / q


def resonant_state(
    ell: int, lam: SurfacePoint, well: Well, r: float
) -> complex:
    """The mode-ell state u(r) attached to a zero lambda of char_q.

    Outside the well u(r) = H_ell^(1)(lambda r) (coefficient fixed to 1);
    inside u(r) = b J_ell(mu r) with b = H_ell^(1)(lambda rho)/J_ell(mu rho),
    which matches the value at r = rho.  The radial derivative must then
    match on its own: the derivative-form terms of Q_ell must agree to 1e-8
    relative, or lambda was not a zero and MatchError is raised.
    """
    if not (r > 0):
        raise DomainError("radius r must be positive")
    n = abs(ell)
    m, j, h = _edge(ell, lam, well)
    if abs(j.value) <= 1e-290:
        raise MatchError("interior solution vanishes at the edge; cannot match")
    t1, t2 = m * j.derivative * h.value, lam.value * j.value * h.derivative
    mismatch = abs(t1 - t2) / (abs(t1) + abs(t2) + 1e-300)
    if mismatch > 1e-8:
        raise MatchError(
            f"derivative mismatch {mismatch:.3e} at r = rho; lambda is not a zero"
        )
    if r <= well.rho:
        return h.value / j.value * bessel_j(n, m * r).value
    return hankel(1, n, lam.scaled(r)).value
