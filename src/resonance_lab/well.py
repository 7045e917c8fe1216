"""Circular-well matching: characteristic function, S-matrix, states.

The potential is V = -a^2 on the disk r <= rho and 0 outside.  A mode-ell
solution is J_ell(mu r) inside and a combination of H_ell^(1,2)(lambda r)
outside, with mu = sqrt(lambda^2 + a^2).  Matching value and radial
derivative at r = rho produces:

* the characteristic function Q_ell(lambda), whose zeros on the logarithmic
  cover are the mode-ell eigenvalues (arg lambda = pi/2) and resonances;
* the S-matrix eigenvalue S_ell(lambda) for real lambda > 0;
* the zero-energy classification of a well (which modes carry a threshold
  resonance or eigenvalue), controlled by J_{|ell|-1}(rho a) = 0.

Depth families are parameterized as a^2(eps) = a0^2 - eps, so eps < 0
deepens the well and eps > 0 makes it shallower.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .cylinder import CylinderValue, SurfacePoint, bessel_j, hankel
from .errors import BranchError, DomainError, MatchError, SingularityError

# |J_{|ell|-1}(rho a)| at or below this counts as J vanishing: the well then
# carries zero-energy structure in mode ell
ZERO_J_TOL = 1e-9


@dataclass(frozen=True)
class Well:
    """Circular well of depth amplitude a > 0 and radius rho > 0."""

    a: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a > 0):
            raise DomainError("well depth amplitude a must be positive")
        if not (self.rho > 0):
            raise DomainError("well radius rho must be positive")


@dataclass(frozen=True)
class CouplingFamily:
    """Depth family a^2(eps) = a0^2 - eps at fixed radius."""

    a0: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a0 > 0):
            raise DomainError("family base depth a0 must be positive")
        if not (self.rho > 0):
            raise DomainError("family radius rho must be positive")

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


@dataclass(frozen=True)
class ZeroEnergyClass:
    """Zero-energy structure of one angular mode."""

    mode: int
    kind: ZeroEnergyKind


def mu(lam: SurfacePoint | complex, a: float) -> complex:
    """sqrt(lambda^2 + a^2) on the branch that is positive for lambda > 0.

    The principal square root keeps Re mu >= 0, which is the continuous
    continuation from the positive real lambda axis throughout |lambda| < a.
    Callers must not cross the branch point lambda^2 = -a^2.
    """
    if not (a > 0):
        raise DomainError("a must be positive")
    lam_value = lam.value if isinstance(lam, SurfacePoint) else complex(lam)
    radicand = lam_value * lam_value + a * a
    if radicand == 0:
        raise BranchError("lambda^2 = -a^2 is the branch point of mu")
    return cmath.sqrt(radicand)


def _as_point(lam: SurfacePoint | complex) -> SurfacePoint:
    return lam if isinstance(lam, SurfacePoint) else SurfacePoint.from_complex(lam)


def _q_terms(
    ell: int, point: SurfacePoint, well: Well, form: str
) -> tuple[complex, complex]:
    """The two terms whose difference is Q_ell; |t1| + |t2| is the scale."""
    n = abs(ell)
    lam = point.value
    m = mu(point, well.a)
    edge = point.scaled(well.rho)
    if form == "wronskian":
        # order ell-1 at ell=0 goes through the reflection C_{-1} = -C_1
        sign = -1.0 if n == 0 else 1.0
        low = 1 if n == 0 else n - 1
        j_low = sign * bessel_j(low, well.rho * m).value
        h_low = sign * hankel(1, low, edge).value
        j_n = bessel_j(n, well.rho * m).value
        h_n = hankel(1, n, edge).value
        return m * j_low * h_n, lam * j_n * h_low
    if form == "derivative":
        j_in = bessel_j(n, well.rho * m)
        h = hankel(1, n, edge)
        return m * j_in.derivative * h.value, lam * j_in.value * h.derivative
    raise DomainError(f"unknown char_q form {form!r}")


def char_q(
    ell: int, lam: SurfacePoint | complex, well: Well, form: str = "wronskian"
) -> complex:
    """Characteristic function Q_ell(lambda) of the mode-ell matching problem.

    Q_ell = mu J_{ell-1}(rho mu) H_ell^(1)(lambda rho)
          - lambda J_ell(rho mu) H_{ell-1}^(1)(lambda rho)

    (form="wronskian"); form="derivative" evaluates the equivalent
    mu J'_ell(rho mu) H_ell^(1) - lambda J_ell(rho mu) H_ell^(1)'.
    Zeros with 0 < arg lambda < pi are square roots of eigenvalues; all
    other zeros on the cover are resonances.  Negative ell maps to |ell|.
    """
    t1, t2 = _q_terms(ell, _as_point(lam), well, form)
    return t1 - t2


def char_q_scale(
    ell: int, lam: SurfacePoint | complex, well: Well, form: str = "wronskian"
) -> float:
    """Local magnitude |t1| + |t2| of the two Q_ell terms, for residuals."""
    t1, t2 = _q_terms(ell, _as_point(lam), well, form)
    return abs(t1) + abs(t2)


def classify_zero_energy(well: Well, l_max: int) -> list[ZeroEnergyClass]:
    """Zero-energy structures of modes 0..l_max, by |J_{ell-1}(rho a)| <= ZERO_J_TOL.

    Mode 0 carries an s-resonance when J_1(rho a) = 0, mode 1 a p-resonance
    when J_0(rho a) = 0, and mode ell >= 2 a zero eigenvalue when
    J_{ell-1}(rho a) = 0.
    """
    if l_max < 2:
        raise DomainError("l_max must be at least 2")
    x = well.rho * well.a
    out: list[ZeroEnergyClass] = []
    for ell in range(l_max + 1):
        order = 1 if ell == 0 else ell - 1
        hit = abs(bessel_j(order, x).value) <= ZERO_J_TOL
        if not hit:
            kind = ZeroEnergyKind.NONE
        elif ell == 0:
            kind = ZeroEnergyKind.S_RESONANCE
        elif ell == 1:
            kind = ZeroEnergyKind.P_RESONANCE
        else:
            kind = ZeroEnergyKind.ZERO_EIGENVALUE
        out.append(ZeroEnergyClass(ell, kind))
    return out


def s_matrix_eigenvalue(ell: int, lam: float, well: Well) -> complex:
    """S-matrix eigenvalue S_ell(lambda) for real lambda > 0.

    Evaluated in the multiplied-through form

        S_ell = - [mu J'_ell(mu rho) H_ell^(2) - lambda J_ell(mu rho) H_ell^(2)']
              /   [mu J'_ell(mu rho) H_ell^(1) - lambda J_ell(mu rho) H_ell^(1)']

    which needs no division by J'_ell(mu rho).  |S_ell| = 1 and
    S_{-ell} = S_ell.
    """
    if not (lam > 0):
        raise DomainError("S-matrix eigenvalues are defined for real lambda > 0")
    n = abs(ell)
    m = mu(lam, well.a)
    edge = SurfacePoint.from_polar(lam * well.rho, 0.0)
    j_in = bessel_j(n, well.rho * m)
    h1 = hankel(1, n, edge)
    h2 = hankel(2, n, edge)
    den_1 = m * j_in.derivative * h1.value
    den_2 = lam * j_in.value * h1.derivative
    den = den_1 - den_2
    if abs(den) <= 1e-13 * (abs(den_1) + abs(den_2)):
        raise SingularityError(
            "matching denominator vanished at real lambda; numerical trouble"
        )
    num = m * j_in.derivative * h2.value - lam * j_in.value * h2.derivative
    return -num / den


def resonant_state(
    ell: int, lam: SurfacePoint, well: Well, r: float
) -> complex:
    """The mode-ell state u(r) attached to a zero lambda of char_q.

    Outside the well u(r) = H_ell^(1)(lambda r) (coefficient fixed to 1);
    inside u(r) = b J_ell(mu r) with b = H_ell^(1)(lambda rho)/J_ell(mu rho),
    which matches the value at r = rho.  The radial derivative must then
    match on its own; if it does not to 1e-8 relative, lambda was not a
    zero and MatchError is raised.
    """
    if not (r > 0):
        raise DomainError("radius r must be positive")
    n = abs(ell)
    m = mu(lam, well.a)
    edge_in = bessel_j(n, well.rho * m)
    edge_out = hankel(1, n, lam.scaled(well.rho))
    if abs(edge_in.value) <= 1e-290:
        raise MatchError("interior solution vanishes at the edge; cannot match")
    b = edge_out.value / edge_in.value
    d_in = b * m * edge_in.derivative
    d_out = lam.value * edge_out.derivative
    mismatch = abs(d_in - d_out) / (abs(d_in) + abs(d_out) + 1e-300)
    if mismatch > 1e-8:
        raise MatchError(
            f"derivative mismatch {mismatch:.3e} at r = rho; lambda is not a zero"
        )
    if r <= well.rho:
        return b * bessel_j(n, m * r).value
    return hankel(1, n, lam.scaled(r)).value
