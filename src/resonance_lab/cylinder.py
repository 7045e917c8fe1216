"""Cylinder functions on the logarithmic cover.

Integer-order Bessel functions J_ell, Y_ell and Hankel functions H_ell^(1),
H_ell^(2) with derivatives, for arguments whose phase may live on any sheet
of the Riemann surface of the logarithm, plus real Bessel zeros j_{ell,k}.

Points of the surface are represented by their logarithm, so arguments keep
an unrestricted phase and two points whose phases differ by 2*pi stay
distinct.  Evaluation reduces the phase to the best-conditioned half-plane
theta in (-pi/2, pi/2] and applies the integer-order connection formulas

    J_ell(z e^{i m pi}) = (-1)^{m ell} J_ell(z),
    Y_ell(z e^{i m pi}) = (-1)^{m ell} [Y_ell(z) + 2 i m J_ell(z)],

m times.  Principal-sheet values come from scipy.special; derivatives use
the downward recurrence C'_ell = C_{ell-1} - (ell/z) C_ell.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros, jv, yv

from .errors import DomainError, RangeError

# gamma = -Gamma'(1)
EULER_GAMMA = np.euler_gamma

# validated evaluation box; scipy is accurate well beyond, but nothing in
# the problem needs more and the tests only certify this range
MAX_ABS_ARGUMENT = 100.0
MAX_ORDER = 80
MAX_ZERO_ORDER = 20
MAX_ZERO_INDEX = 20


@dataclass(frozen=True)
class SurfacePoint:
    """A point lambda on the logarithmic cover, stored as w = log(lambda).

    Re w is log|lambda| and Im w is arg(lambda), unrestricted.  Points whose
    arguments differ by 2*pi are distinct.  lambda = 0 has no representation.
    """

    log_value: complex

    @classmethod
    def from_complex(cls, z: complex) -> "SurfacePoint":
        """Lift a nonzero finite complex number using its principal argument."""
        z = complex(z)
        if z == 0:
            raise DomainError("lambda = 0 cannot be represented on the cover")
        if not cmath.isfinite(z):
            raise DomainError(f"lambda = {z} is not finite")
        return cls(cmath.log(z))

    @classmethod
    def from_polar(cls, modulus: float, argument: float) -> "SurfacePoint":
        if not (modulus > 0):
            raise DomainError("modulus must be positive")
        if not (math.isfinite(modulus) and math.isfinite(argument)):
            raise DomainError(f"modulus {modulus} and argument {argument} must be finite")
        return cls(complex(math.log(modulus), argument))

    @property
    def value(self) -> complex:
        """The underlying complex number exp(w), sheet information collapsed."""
        return cmath.exp(self.log_value)

    @property
    def modulus(self) -> float:
        return math.exp(self.log_value.real)

    @property
    def argument(self) -> float:
        return self.log_value.imag

    def scaled(self, factor: float) -> "SurfacePoint":
        """The point factor*lambda for a positive real factor (phase kept)."""
        if factor <= 0:
            raise DomainError("scaling factor must be positive")
        return SurfacePoint(self.log_value + math.log(factor))

    def displaced(self, dw: complex) -> "SurfacePoint":
        """The point with logarithm w + dw."""
        return SurfacePoint(self.log_value + dw)


@dataclass(frozen=True)
class CylinderValue:
    """A cylinder-function value and its derivative in the argument."""

    value: complex
    derivative: complex


def _check_order(ell: int) -> None:
    if abs(ell) > MAX_ORDER:
        raise RangeError(f"order {ell} outside validated range |ell| <= {MAX_ORDER}")


def _check_argument(z: complex) -> None:
    if z == 0:
        raise DomainError("cylinder functions are singular or trivial at z = 0")
    if abs(z) > MAX_ABS_ARGUMENT:
        raise RangeError(
            f"|z| = {abs(z):.3g} outside validated range <= {MAX_ABS_ARGUMENT}"
        )


def _pair(kind, ell: int, z: complex, real_path: bool):
    """Principal values of (C_ell, C_{ell-1}) for C in {J, Y}, ell >= 0."""
    if real_path:
        x = z.real
        c0 = complex(kind(ell, x))
        c1 = complex(kind(1, x)) if ell == 0 else complex(kind(ell - 1, x))
    else:
        c0 = complex(kind(ell, z))
        c1 = complex(kind(1, z)) if ell == 0 else complex(kind(ell - 1, z))
    return c0, c1


def _with_derivative(ell: int, z: complex, c0: complex, c_adj: complex) -> CylinderValue:
    # ell = 0 uses the reflection C_{-1} = -C_1, so C'_0 = -C_1
    if ell == 0:
        return CylinderValue(c0, -c_adj)
    return CylinderValue(c0, c_adj - (ell / z) * c0)


def _principal(kind, ell: int, z: complex) -> CylinderValue:
    """J or Y with derivative at principal phase, negative orders reflected."""
    _check_argument(z)
    n = abs(ell)
    _check_order(n)
    real_path = z.imag == 0.0 and z.real > 0.0
    c0, c_adj = _pair(kind, n, z, real_path)
    out = _with_derivative(n, z, c0, c_adj)
    if ell < 0 and n % 2 == 1:
        out = CylinderValue(-out.value, -out.derivative)
    return out


def bessel_j(ell: int, z: complex) -> CylinderValue:
    """J_ell(z) and J'_ell(z) at principal phase.

    Parameters
    ----------
    ell : int
        Order; negative orders are reflected via J_{-ell} = (-1)^ell J_ell.
    z : complex
        Nonzero argument with |z| <= 100.

    Returns
    -------
    CylinderValue
        Value and derivative.  Real positive z takes a real evaluation path,
        so the imaginary parts are exactly zero there.
    """
    return _principal(jv, ell, complex(z))


def bessel_y(ell: int, z: complex) -> CylinderValue:
    """Y_ell(z) and Y'_ell(z) at principal phase; conventions as bessel_j."""
    return _principal(yv, ell, complex(z))


def _reduce_argument(theta: float) -> tuple[float, int]:
    """Write theta = theta0 + m*pi with theta0 in (-pi/2, pi/2].

    The tiny guard keeps exact boundary values (theta = pi/2 + k*pi) on the
    sheet below instead of flipping on rounding noise.
    """
    m = math.ceil((theta - math.pi / 2) / math.pi - 1e-15)
    return theta - m * math.pi, m


def _continued_jy(n: int, point: SurfacePoint) -> tuple[complex, complex]:
    """(J_n, Y_n) at a surface point, n >= 0, continued across sheets."""
    theta0, m = _reduce_argument(point.argument)
    z0 = cmath.exp(complex(point.log_value.real, theta0))
    j0 = complex(jv(n, z0))
    y0 = complex(yv(n, z0))
    if m == 0:
        return j0, y0
    sign = -1.0 if (m * n) % 2 else 1.0
    return sign * j0, sign * (y0 + 2j * m * j0)


def hankel(kind: int, ell: int, point: SurfacePoint | complex) -> CylinderValue:
    """H_ell^(kind)(z) and its derivative at a point of the cover.

    Parameters
    ----------
    kind : int
        1 for J + iY, 2 for J - iY (built from the continued J and Y).
    ell : int
        Order; negative orders are reflected.
    point : SurfacePoint or complex
        Argument.  A plain complex number is lifted at principal phase.

    Returns
    -------
    CylinderValue
        Continuous in the phase across sheet boundaries.
    """
    if kind not in (1, 2):
        raise DomainError("kind must be 1 or 2")
    if not isinstance(point, SurfacePoint):
        point = SurfacePoint.from_complex(point)
    if point.modulus > MAX_ABS_ARGUMENT:
        raise RangeError(
            f"|z| = {point.modulus:.3g} outside validated range <= {MAX_ABS_ARGUMENT}"
        )
    n = abs(ell)
    _check_order(n)

    j0, y0 = _continued_jy(n, point)
    j1, y1 = _continued_jy(1 if n == 0 else n - 1, point)
    if kind == 1:
        h0, h_adj = j0 + 1j * y0, j1 + 1j * y1
    else:
        h0, h_adj = j0 - 1j * y0, j1 - 1j * y1
    out = _with_derivative(n, point.value, h0, h_adj)
    if ell < 0 and n % 2 == 1:
        out = CylinderValue(-out.value, -out.derivative)
    return out


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
