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
import operator
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
        """The point factor*lambda for a positive finite factor (phase kept)."""
        if not (0 < factor < math.inf):
            raise DomainError(f"scaling factor {factor} must be positive and finite")
        return SurfacePoint(self.log_value + math.log(factor))


@dataclass(frozen=True)
class CylinderValue:
    """C_ell(z), C'_ell(z) and low = C_{|ell|-1}(z), unreflected (complex, or float arrays)."""

    value: complex
    derivative: complex
    low: complex


def _integer(value, what: str) -> None:
    """DomainError unless value is an integer (int or numpy integer); a float
    with an integral value is rejected too, as is an array's float dtype."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value} is not an integer") from None


def _checked_order(ell, modulus: float):
    """|ell|, once order and argument modulus are inside the validated range.

    Written as `not modulus <= ...` so that a NaN modulus is rejected too;
    array calls pass their largest |ell| and modulus, NaN if any element is.
    """
    if not modulus <= MAX_ABS_ARGUMENT:
        raise RangeError(
            f"|z| = {modulus:.3g} outside validated range <= {MAX_ABS_ARGUMENT}"
        )
    _integer(ell, "order")
    n = abs(ell)
    if n > MAX_ORDER:
        raise RangeError(f"order {n} outside validated range |ell| <= {MAX_ORDER}")
    return n


def _with_derivative(ell, z, c0, c_low) -> CylinderValue:
    """C_ell and C'_ell from C_n, C_{n-1} at n = |ell|, negative orders reflected.

    The derivative is the recurrence C'_n = C_{n-1} - (n/z) C_n; scipy
    supplies C_{-1} = -C_1, so n = 0 needs no special case.
    """
    n = abs(ell)
    derivative = c_low - (n / z) * c0
    if isinstance(ell, np.ndarray):
        sign = np.where(ell < 0, (-1) ** n, 1)
        return CylinderValue(sign * c0, sign * derivative, c_low)
    if ell < 0 and n % 2 == 1:
        return CylinderValue(-c0, -derivative, c_low)
    return CylinderValue(c0, derivative, c_low)


def _principal(kind, ell, z) -> CylinderValue:
    """J or Y with derivative at principal phase: scalars in complex
    arithmetic (real positive z as a float, which keeps Im exactly 0), arrays
    elementwise in floats, equal to the real parts of the scalar calls."""
    if not (isinstance(ell, np.ndarray) or isinstance(z, np.ndarray)):
        z = complex(z)
        if z == 0:
            raise DomainError("cylinder functions are singular or trivial at z = 0")
        n = _checked_order(ell, abs(z))
        x = z.real if z.imag == 0.0 and z.real > 0.0 else z
        return _with_derivative(ell, z, complex(kind(n, x)), complex(kind(n - 1, x)))
    ell, x = np.asarray(ell), np.asarray(z)
    n = np.abs(ell)
    _checked_order(n.max(initial=0), x.max(initial=0.0))
    if x.dtype.kind == "c" or not x.min(initial=1.0) > 0:
        raise DomainError("array arguments must be real and positive")
    return _with_derivative(ell, x, kind(n, x), kind(n - 1, x))


def bessel_j(ell, z) -> CylinderValue:
    """J_ell(z) and J'_ell(z) at principal phase.

    Parameters
    ----------
    ell : int or array of int
        Order; negative orders are reflected via J_{-ell} = (-1)^ell J_ell.
    z : complex or array of float
        Nonzero argument with |z| <= 100; arrays must be real and positive.

    Returns
    -------
    CylinderValue
        Python complex value and derivative; real positive z takes a real
        path, so their imaginary parts are exactly 0.  low is J_{|ell|-1}(z).
        If ell or z is an array: float arrays, broadcast over both.
    """
    return _principal(jv, ell, z)


def bessel_y(ell, z) -> CylinderValue:
    """Y_ell(z) and Y'_ell(z) at principal phase; conventions as bessel_j.

    z may also be a SurfacePoint: off the principal sheet (arg z outside
    (-pi, pi]) Y is continued by the connection formula, as in hankel.
    """
    if isinstance(z, SurfacePoint):
        if not -math.pi < z.argument <= math.pi:
            return _on_cover(0, ell, z)
        z = z.value
    return _principal(yv, ell, z)


def _reduce_argument(theta: float) -> tuple[float, int]:
    """Write theta = theta0 + m*pi with theta0 in (-pi/2, pi/2].

    The tiny guard keeps exact boundary values (theta = pi/2 + k*pi) on the
    sheet below instead of flipping on rounding noise.
    """
    if not math.isfinite(theta):
        raise DomainError(f"argument {theta} must be finite")
    m = math.ceil((theta - math.pi / 2) / math.pi - 1e-15)
    return theta - m * math.pi, m


def _continued_jy(n: int, z0: complex, m: int) -> tuple[complex, complex]:
    """(J_n, Y_n) at z0 e^{i m pi}, n >= -1, continued from principal-phase z0."""
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
        Continuous in the phase across sheet boundaries; low is H_{|ell|-1}.
    """
    if kind not in (1, 2):
        raise DomainError("kind must be 1 or 2")
    if not isinstance(point, SurfacePoint):
        point = SurfacePoint.from_complex(point)
    return _on_cover(kind, ell, point)


def _on_cover(kind: int, ell: int, point: SurfacePoint) -> CylinderValue:
    """Y_ell (kind 0) or H_ell^(kind) (kind 1, 2) with derivative at a point
    of the cover, from J and Y continued off theta0 in (-pi/2, pi/2]."""
    n = _checked_order(ell, point.modulus)
    theta0, m = _reduce_argument(point.argument)
    z0 = cmath.exp(complex(point.log_value.real, theta0))
    j0, y0 = _continued_jy(n, z0, m)
    j1, y1 = _continued_jy(n - 1, z0, m)
    if kind == 0:
        c0, c_low = y0, y1
    elif kind == 1:
        c0, c_low = j0 + 1j * y0, j1 + 1j * y1
    else:
        c0, c_low = j0 - 1j * y0, j1 - 1j * y1
    return _with_derivative(ell, point.value, c0, c_low)


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    _integer(ell, "zero order")
    _integer(k, "zero index")
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
