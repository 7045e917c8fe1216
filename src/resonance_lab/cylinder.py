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

A SurfacePoint may hold a whole array of logarithms, a grid; hankel and
bessel_y then evaluate every point in one call, as bessel_j does for an
array of arguments, and return the bits of one call per point.  For that
the array path writes each complex product and quotient as float
operations in CPython's order (_Py_c_prod and _Py_c_quot in
Objects/complexobject.c), and square roots as cmath.sqrt computes them:
numpy's own complex `*`, `/` and sqrt round differently.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros, jv, yv

from .errors import DomainError, RangeError

# gamma = -Gamma'(1)
EULER_GAMMA = np.euler_gamma

# validated evaluation box; scipy is accurate well beyond, but nothing in
# the problem needs more and the tests only certify this range
MAX_ABS_ARGUMENT = 100.0
# points of the cover are checked in log scale: exp(log 100) is 100.00000000000004
_LOG_MAX_ABS_ARGUMENT = math.log(MAX_ABS_ARGUMENT)
MAX_ORDER = 80
MAX_ZERO_ORDER = 20
MAX_ZERO_INDEX = 20


@dataclass(frozen=True)
class SurfacePoint:
    """A point lambda on the logarithmic cover, stored as w = log(lambda).

    Re w is log|lambda| and Im w is arg(lambda), unrestricted.  Points whose
    arguments differ by 2*pi are distinct.  lambda = 0 has no representation.
    log_value may also be a complex array: a grid of points, which hankel,
    bessel_y and char_q evaluate in one call.  value, argument and scaled
    act on each point of a grid; modulus is for a single point.
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
    def from_polar(cls, modulus, argument) -> "SurfacePoint":
        """The point modulus * e^{i argument}; arrays broadcast to a grid of
        points, each log modulus taken by math.log as for a single point."""
        if not (isinstance(modulus, np.ndarray) or isinstance(argument, np.ndarray)):
            if not (modulus > 0):
                raise DomainError("modulus must be positive")
            if not (math.isfinite(modulus) and math.isfinite(argument)):
                raise DomainError(f"modulus {modulus} and argument {argument} must be finite")
            return cls(complex(math.log(modulus), argument))
        modulus, argument = np.asarray(modulus, float), np.asarray(argument, float)
        if not (modulus > 0).all():
            raise DomainError("modulus must be positive")
        if not (np.isfinite(modulus).all() and np.isfinite(argument).all()):
            raise DomainError("moduli and arguments must be finite")
        log_modulus = np.array([math.log(r) for r in modulus.flat]).reshape(modulus.shape)
        return cls(_complex(log_modulus, argument))

    @property
    def value(self) -> complex:
        """The underlying complex number exp(w), sheet information collapsed."""
        if isinstance(self.log_value, np.ndarray):
            return np.exp(self.log_value)
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
    """C_ell(z), C'_ell(z) and low = C_{|ell|-1}(z), unreflected (complex, or arrays)."""

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


def _checked_order(ell, modulus: float, log_modulus: float | None = None):
    """|ell|, once order and argument are inside the validated range.

    A point of the cover passes log|z| too, and that is what is checked.
    Written as `not x <= bound` so that NaN is rejected too; array calls
    pass their largest |ell|, modulus and log modulus, NaN if any element is.
    """
    if log_modulus is None:
        inside = modulus <= MAX_ABS_ARGUMENT
    else:
        inside = log_modulus <= _LOG_MAX_ABS_ARGUMENT
    if not inside:
        raise RangeError(
            f"|z| = {modulus!r} outside validated range <= {MAX_ABS_ARGUMENT}"
        )
    _integer(ell, "order")
    n = abs(ell)
    if n > MAX_ORDER:
        raise RangeError(f"order {n} outside validated range |ell| <= {MAX_ORDER}")
    return n


def _complex(re, im) -> np.ndarray:
    """The complex array re + i*im, broadcast over both and built without
    arithmetic, so no part is rounded and no signed zero changes."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real, out.imag = re, im
    return out


# CPython's complex arithmetic signals no overflow or invalid operation, so
# neither do the array paths that mirror it
@np.errstate(all="ignore")
def _prod(a, b) -> np.ndarray:
    """a * b over complex arrays, rounded as CPython's _Py_c_prod; a real
    operand counts as (x, 0.0), as CPython converts it."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast(a, b).shape, complex)
    re, im = out.real, out.imag
    np.multiply(ar, br, out=re)
    re -= ai * bi
    np.multiply(ar, bi, out=im)
    im += ai * br
    return out


def _quot(a, b) -> np.ndarray:
    """a / b over complex arrays with b != 0, rounded as CPython's
    _Py_c_quot: numerator and denominator are scaled by the ratio of the
    smaller to the larger part of b.  Each element reads one of the two
    branches; the other may divide by zero, so callers run under np.errstate."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai)
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar)
    re /= denom
    im /= denom
    return _complex(re, im)


@np.errstate(all="ignore")
def _sqrt(z) -> np.ndarray:
    """cmath.sqrt over a complex array without zeros, as CPython computes it
    (cmath_sqrt_impl); libm's csqrt, behind np.sqrt, rounds a subnormal part
    of the root differently.  Parts are scaled by 1/8, or by 2**53 where
    |z| is below the smallest normal float."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    if tiny.any():
        up = np.ldexp(ax[tiny], 53)
        s[tiny] = np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay[tiny], 53))), -27)
    d = ay / (2.0 * s)
    right = z.real >= 0.0
    return _complex(np.where(right, s, d), np.copysign(np.where(right, d, s), z.imag))


def _with_derivative(ell, z, c0, c_low) -> CylinderValue:
    """C_ell and C'_ell from C_n, C_{n-1} at n = |ell|, negative orders reflected.

    The derivative is the recurrence C'_n = C_{n-1} - (n/z) C_n; scipy
    supplies C_{-1} = -C_1, so n = 0 needs no special case.
    """
    n = abs(ell)
    if isinstance(z, complex):
        derivative = c_low - (n / z) * c0
        if ell < 0 and n % 2 == 1:
            return CylinderValue(-c0, -derivative, c_low)
        return CylinderValue(c0, derivative, c_low)
    if z.dtype.kind == "c":
        derivative = _prod(_quot(n, z), c0)
        np.subtract(c_low, derivative, out=derivative)
    else:
        derivative = c_low - (n / z) * c0
    flip = (ell < 0) & (n % 2 == 1)
    if np.any(flip):
        c0, derivative = np.where(flip, -c0, c0), np.where(flip, -derivative, derivative)
    return CylinderValue(c0, derivative, c_low)


def _principal(kind, ell, z, log_modulus=None) -> CylinderValue:
    """J or Y with derivative at principal phase: scalars in complex
    arithmetic (real positive z as a float, which keeps Im exactly 0),
    arrays in _principal_grid.  z = e^w for a point w of the cover comes
    with log_modulus = Re w, which the range check reads."""
    if isinstance(ell, np.ndarray) or isinstance(z, np.ndarray):
        return _principal_grid(kind, np.asarray(ell), np.asarray(z), log_modulus)
    z = complex(z)
    if z == 0:
        raise DomainError("cylinder functions are singular or trivial at z = 0")
    n = _checked_order(ell, abs(z), log_modulus)
    x = z.real if z.imag == 0.0 and z.real > 0.0 else z
    return _with_derivative(ell, z, complex(kind(n, x)), complex(kind(n - 1, x)))


@np.errstate(all="ignore")
def _principal_grid(kind, ell: np.ndarray, z: np.ndarray, log_modulus=None) -> CylinderValue:
    """_principal over broadcast arrays, one range check for all elements.
    A real z is evaluated in floats, equal to the real parts of the scalar
    calls; a complex z gives the scalar calls' bits, its real positive
    elements on the real path."""
    n = np.abs(ell)
    cplx = z.dtype.kind == "c"
    top = (np.hypot(z.real, z.imag) if cplx else z).max(initial=0.0)
    if log_modulus is not None:
        log_modulus = np.max(log_modulus, initial=-math.inf)
    _checked_order(n.max(initial=0), top, log_modulus)
    if not cplx:
        if not z.min(initial=1.0) > 0:
            raise DomainError("real array arguments must be positive")
        return _with_derivative(ell, z, kind(n, z), kind(n - 1, z))
    if not z.all():
        raise DomainError("cylinder functions are singular or trivial at z = 0")
    c0, c_low = np.asarray(kind(n, z)), np.asarray(kind(n - 1, z))
    real = np.broadcast_to((z.imag == 0.0) & (z.real > 0.0), c0.shape)
    if real.any():
        n_real = np.broadcast_to(n, c0.shape)[real]
        x = np.broadcast_to(z.real, c0.shape)[real]
        c0[real], c_low[real] = kind(n_real, x), kind(n_real - 1, x)
    return _with_derivative(ell, z, c0, c_low)


def bessel_j(ell, z) -> CylinderValue:
    """J_ell(z) and J'_ell(z) at principal phase.

    Parameters
    ----------
    ell : int or array of int
        Order; negative orders are reflected via J_{-ell} = (-1)^ell J_ell.
    z : complex, or array of float or complex
        Nonzero argument with |z| <= 100; real arrays must be positive.

    Returns
    -------
    CylinderValue
        Python complex value and derivative; real positive z takes a real
        path, so their imaginary parts are exactly 0.  low is J_{|ell|-1}(z).
        If ell or z is an array: arrays broadcast over both, float for a
        real z, else complex and bit-equal to the scalar calls.
    """
    return _principal(jv, ell, z)


def bessel_y(ell, z) -> CylinderValue:
    """Y_ell(z) and Y'_ell(z) at principal phase; conventions as bessel_j.

    z may also be a SurfacePoint, one point or a grid: off the principal
    sheet (arg z outside (-pi, pi]) Y is continued by the connection
    formula, as in hankel.
    """
    if not isinstance(z, SurfacePoint):
        return _principal(yv, ell, z)
    w = z.log_value
    if not isinstance(w, np.ndarray):
        if -math.pi < w.imag <= math.pi:
            return _principal(yv, ell, z.value, w.real)
        return _on_cover(0, ell, z)
    ell, w = np.broadcast_arrays(ell, w)
    on_sheet = (-math.pi < w.imag) & (w.imag <= math.pi)
    off = ~on_sheet
    parts = (
        (on_sheet, _principal(yv, ell[on_sheet], np.exp(w[on_sheet]), w.real[on_sheet])),
        (off, _on_cover(0, ell[off], SurfacePoint(w[off]))),
    )
    fields = {name: np.empty(w.shape, complex) for name in ("value", "derivative", "low")}
    for mask, part in parts:
        for name, out in fields.items():
            out[mask] = getattr(part, name)
    return CylinderValue(**fields)


@np.errstate(all="ignore")
def order_table(kind: str, top: np.ndarray, x: np.ndarray, spare: int = 0) -> np.ndarray:
    """J (kind "j") or Y ("y") at each real x[c] > 0 of a 1-d array and orders
    ell = -1..top[c] + spare, C_ell in row ell + 1 (0 past it).  One scipy call per element,
    and one range check for all, on top and x: the spare orders are not checked.  Bit-equal
    to the values and lows of the real path of bessel_j and bessel_y."""
    _checked_order(top.max(initial=0), x.max(initial=0.0))
    if not (x.min(initial=1.0) > 0 and top.min(initial=0) >= 0):
        raise DomainError("an order table needs tops >= 0 and real arguments > 0")
    height = top.max(initial=0) + spare + 2
    row, col = np.nonzero(np.arange(height)[:, None] <= top + spare + 1)
    rows = np.zeros((height, len(x)))
    rows[row, col] = {"j": jv, "y": yv}[kind](row - 1, x[col])
    return rows


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


def hankel(kind: int, ell, point: SurfacePoint | complex) -> CylinderValue:
    """H_ell^(kind)(z) and its derivative at a point of the cover.

    Parameters
    ----------
    kind : int
        1 for J + iY, 2 for J - iY (built from the continued J and Y).
    ell : int or array of int
        Order; negative orders are reflected.
    point : SurfacePoint or complex
        Argument.  A plain complex number is lifted at principal phase.  A
        SurfacePoint holding an array is a grid of points: the result is
        then complex arrays, broadcast with ell, bit-equal to the calls at
        each point, with one range check for the whole grid.

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


def _on_cover(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """Y_ell (kind 0) or H_ell^(kind) (kind 1, 2) with derivative at a point
    of the cover, from J and Y continued off theta0 in (-pi/2, pi/2]."""
    w = point.log_value
    if isinstance(w, np.ndarray) or isinstance(ell, np.ndarray):
        return _on_grid(kind, ell, point)
    n = _checked_order(ell, math.exp(w.real), w.real)
    theta0, m = _reduce_argument(w.imag)
    z0 = cmath.exp(complex(w.real, theta0))
    j0, y0 = _continued_jy(n, z0, m)
    j1, y1 = _continued_jy(n - 1, z0, m)
    if kind == 0:
        c0, c_low = y0, y1
    elif kind == 1:
        c0, c_low = j0 + 1j * y0, j1 + 1j * y1
    else:
        c0, c_low = j0 - 1j * y0, j1 - 1j * y1
    return _with_derivative(ell, cmath.exp(w), c0, c_low)


@np.errstate(all="ignore")
def _on_grid(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """_on_cover over a grid of points or an array of orders, broadcast,
    with one range check for all."""
    ell, w = np.asarray(ell), np.asarray(point.log_value)
    n, top = np.abs(ell), w.real.max(initial=-math.inf)
    _checked_order(n.max(initial=0), math.exp(top), top)
    c0, c_low = _continued_grid(kind, n, np.broadcast_to(w, np.broadcast(ell, w).shape))
    return _with_derivative(ell, np.asarray(point.value), c0, c_low)


def _continued_grid(kind: int, n, w: np.ndarray):
    """(C_n, C_{n-1}) at each e^w of a grid, C = Y (kind 0) or H^(kind):
    _on_cover's _reduce_argument and _continued_jy by element.  Its arrays
    are freed before the derivative's."""
    if not np.isfinite(w.imag).all():
        raise DomainError("arguments must be finite")
    m = np.ceil((w.imag - math.pi / 2) / math.pi - 1e-15)
    z0 = np.exp(_complex(w.real, w.imag - m * math.pi))
    (j0, y0), (j1, y1) = (_continued_jy_grid(k, z0, m) for k in (n, n - 1))
    if kind == 0:
        return y0, y1
    if kind == 1:
        j0 += _prod(1j, y0)
        j1 += _prod(1j, y1)
    else:
        j0 -= _prod(1j, y0)
        j1 -= _prod(1j, y1)
    return j0, j1


def _continued_jy_grid(n, z0: np.ndarray, m: np.ndarray):
    """_continued_jy at each element of z0 and m, which n broadcasts to."""
    j0, y0 = jv(n, z0), yv(n, z0)
    moved = m != 0
    if moved.any():
        m, j = m[moved], j0[moved]
        sign = np.where((m * np.broadcast_to(n, moved.shape)[moved]) % 2, -1.0, 1.0)
        y0[moved] = _prod(sign, y0[moved] + _prod(_prod(2j, m), j))
        j0[moved] = _prod(sign, j)
    return j0, y0


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    _integer(ell, "zero order")
    _integer(k, "zero index")
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
