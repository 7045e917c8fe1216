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
the downward recurrence C'_ell = C_{ell-1} - (ell/z) C_ell, evaluated when a
caller first reads one.

Every call evaluates one integer order.  One argument is the one-element
case of a Batch: a tuple of arguments whose values are computed in Python
complex arithmetic at each element, from one scipy call per Bessel function
over all of them (AMOS, Amos ACM TOMS 644 1986, and cephes give the same
bits per element as for one argument).  A SurfacePoint may also hold a
whole array of logarithms, a grid; hankel then evaluates every point in one
call, as bessel_j and bessel_y do for an array of complex arguments, and
returns the bits of one call per point.  A grid call makes one scipy call
per Bessel function over both orders n, n-1 of all its points; scipy's loops
release the GIL, so a large grid's call is split into chunks that run on
threads, at most one per CPU the process may use, each writing its part of
one output, with the same bits and no option to set.  The array path writes
each complex product as float operations in CPython's order (_Py_c_prod in
Objects/complexobject.c), and square roots as cmath.sqrt computes them:
numpy's own complex `*` and sqrt round differently.  An array derivative
is the scalar expression evaluated at each element.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import numbers
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import jn_zeros, jv, yv

from .errors import DomainError, RangeError

# gamma = -Gamma'(1)
EULER_GAMMA = np.euler_gamma

# validated evaluation box; scipy is accurate well beyond, but nothing in
# the problem needs more and the tests only certify this range.  Below the
# smallest normal float the derivative's n/z overflows, and e^w of a point
# of the cover underflows on its way to 0, so neither is evaluated there
MIN_ABS_ARGUMENT = sys.float_info.min
MAX_ABS_ARGUMENT = 100.0
# points of the cover are checked in log scale: exp(log 100) is 100.00000000000004
_LOG_MIN_ABS_ARGUMENT = math.log(MIN_ABS_ARGUMENT)
_LOG_MAX_ABS_ARGUMENT = math.log(MAX_ABS_ARGUMENT)
MAX_ORDER = 80
MAX_ZERO_ORDER = 20
MAX_ZERO_INDEX = 20
# a grid's scipy call runs in chunks of at least this many points, at most
# one per CPU; below about this chunk, on 2 cores, handing one to a thread
# costs more than it saves
MIN_CHUNK_POINTS = 512


class Batch(tuple):
    """Arguments evaluated together, as one kernel call: Python complex
    numbers, or logarithms of points of the cover as a SurfacePoint's
    log_value.  The results are Batches too, each element with the bits of
    the call at that argument alone.  A list or tuple is no Batch, so a
    kernel still rejects one as an argument."""


def _items(x) -> tuple:
    """The elements of a Batch, or (x,) for one value (an array counts as one)."""
    return x if isinstance(x, Batch) else (x,)


def _like(x, items: list):
    """items as x holds its values: a Batch for a Batch, else the one value."""
    return Batch(items) if isinstance(x, Batch) else items[0]


@dataclass(frozen=True)
class SurfacePoint:
    """A point lambda on the logarithmic cover, stored as w = log(lambda).

    Re w is log|lambda| and Im w is arg(lambda), unrestricted.  Points whose
    arguments differ by 2*pi are distinct.  lambda = 0 has no representation.
    log_value may also be a Batch of logarithms, which hankel evaluates in
    one call, or a complex array: a grid of points, which hankel and char_q
    evaluate in one call.  value and scaled act on each point of a Batch or
    grid, argument on each point of a grid; modulus is for a single point.
    """

    log_value: complex

    @classmethod
    def from_complex(cls, z: complex) -> "SurfacePoint":
        """Lift a nonzero finite complex number using its principal argument."""
        if not isinstance(z, numbers.Number):
            raise DomainError(f"lambda = {z!r} is not a number")
        z = complex(z)
        if z == 0:
            raise DomainError("lambda = 0 cannot be represented on the cover")
        if not cmath.isfinite(z):
            raise DomainError(f"lambda = {z} is not finite")
        return cls(cmath.log(z))

    @classmethod
    def from_polar(cls, modulus, argument) -> "SurfacePoint":
        """The point modulus * e^{i argument}; arrays broadcast to a grid of
        points.  Each log modulus is math.log of one Python float, and
        scalars give a Python complex log_value."""
        modulus, argument = np.asarray(modulus, float), np.asarray(argument, float)
        if not (modulus > 0).all():
            raise DomainError("modulus must be positive")
        if not (np.isfinite(modulus).all() and np.isfinite(argument).all()):
            raise DomainError(f"modulus {modulus} and argument {argument} must be finite")
        log_modulus = np.reshape([math.log(r) for r in modulus.ravel().tolist()], modulus.shape)
        w = _complex(log_modulus, argument)
        return cls(w if w.ndim else w.item())

    @property
    def value(self) -> complex:
        """The underlying complex number exp(w), sheet information collapsed."""
        w = self.log_value
        if isinstance(w, np.ndarray):
            return np.exp(w)
        return _like(w, [cmath.exp(x) for x in _items(w)])

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
        shift, w = math.log(factor), self.log_value
        return SurfacePoint(_like(w, [x + shift for x in _items(w)]))


@dataclass(frozen=True)
class CylinderValue:
    """C_ell(z), C'_ell(z) and low = C_{|ell|-1}(z), unreflected (complex, Batches or arrays).

    value and low are evaluated with the call; the derivative is computed when
    it is first read, from them and the argument, so a caller that reads only
    value and low (Q does) pays for no derivative.
    """

    value: complex
    low: complex
    _ell: int = field(repr=False, compare=False)
    # z, or the point of the cover whose value is z
    _at: object = field(repr=False, compare=False)

    @cached_property
    def derivative(self) -> complex:
        """The recurrence C'_n = C_{n-1} - (n/z) C_n at n = |ell|, reflected as
        value is, in Python complex arithmetic at each element of a Batch or
        an array; RangeError where |z| < MIN_ABS_ARGUMENT, as n/z overflows there."""
        n = abs(self._ell)
        flip = self._ell < 0 and n % 2 == 1
        z = self._at.value if isinstance(self._at, SurfacePoint) else self._at
        out = []
        for c, low, at in zip(*(np.ravel(x).tolist() for x in (self.value, self.low, z))):
            if not abs(at) >= MIN_ABS_ARGUMENT:
                raise RangeError(f"derivative at |z| = {abs(at)!r} < {MIN_ABS_ARGUMENT!r}")
            derivative = low - (n / at) * (-c if flip else c)
            out.append(-derivative if flip else derivative)
        if isinstance(z, Batch):
            return Batch(out)
        return np.array(out, complex).reshape(np.shape(z)) if np.ndim(z) else out[0]


def _integer(value, what: str) -> None:
    """DomainError unless value is one integer (int or numpy integer); a
    float with an integral value is rejected too, as is an array."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value} is not an integer") from None


def _checked_order(ell, moduli: list, log: bool = False):
    """|ell|, once order and arguments are inside the validated range.

    moduli are the |z| of the call's arguments; an array call may pass its
    smallest and largest alone.  Points of the cover pass log|z|, with log
    set, and that is what is checked, from log MIN_ABS_ARGUMENT up.  A NaN
    is rejected: it makes the sum NaN, where min and max may skip it, and
    `not bound <= x` holds for it.  No moduli check as |z| = 1.  |z| = 0 is
    a DomainError.
    """
    nan = math.isnan(sum(moduli))
    least, top = (math.nan,) * 2 if nan else (min(moduli, default=1.0), max(moduli, default=1.0))
    low, high = (_LOG_MIN_ABS_ARGUMENT, _LOG_MAX_ABS_ARGUMENT) if log else (0.0, MAX_ABS_ARGUMENT)
    if not (low <= least and top <= high):
        name = "log|z|" if log else "|z|"
        raise RangeError(f"{name} in [{least!r}, {top!r}] outside validated range [{low!r}, {high!r}]")
    if least == 0 and not log:
        raise DomainError("cylinder functions are singular or trivial at z = 0")
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
# neither do the array paths that mirror it: each public call that reaches
# _prod or _sqrt runs them under one np.errstate(all="ignore")
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


def _value(ell, at, c0, c_low) -> CylinderValue:
    """The CylinderValue of C_n, C_{n-1} at n = |ell| and argument at (z, or a
    point of the cover), odd negative orders reflected; scipy supplies
    C_{-1} = -C_1, so n = 0 needs no special case."""
    if ell < 0 and ell % 2:
        return CylinderValue(_like(c0, [-c for c in _items(c0)]), c_low, ell, at)
    return CylinderValue(c0, c_low, ell, at)


# the orders (n, n - 1) of _pair as a column, for each n: indexing it costs
# less than building the column on each call
_ORDER_PAIRS = np.arange(MAX_ORDER + 1.0)[:, None, None] - [[0.0], [1.0]]


def _pair(kind, n: int, x: list) -> list:
    """[C_n(x), C_{n-1}(x)], each a list over the floats or complex numbers
    x, from one scipy call: each element has the bits of kind(n, x[k]).
    The list goes to the ufunc as it is, which costs less than np.array."""
    return kind(_ORDER_PAIRS[n], x).tolist()


def _cpus() -> int:
    """The CPUs this process may run on: the most threads a grid call uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _workers() -> ThreadPoolExecutor:
    """The threads that run a grid call's chunks but the first, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(thread_name_prefix="resonance-lab")
        return _pool


def _forget_workers() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _grid_pair(kind, n: int, z: np.ndarray) -> np.ndarray:
    """C_n and C_{n-1} at each element of the float or complex array z, stacked
    on a new first axis, from kind(_ORDER_PAIRS[n], z) over z's elements in
    order.  From 2 * MIN_CHUNK_POINTS elements on, with more than one CPU,
    that call is split into one chunk per CPU (each of MIN_CHUNK_POINTS or
    more), each writing its columns of one output: this thread evaluates the
    first, _workers the others, each in a copy of the caller's context, so
    under its np.errstate.  A ufunc is elementwise, so every element has the
    bits of the one call."""
    x, orders = z.ravel(), _ORDER_PAIRS[n]
    parts = min(_cpus(), len(x) // MIN_CHUNK_POINTS)
    if parts < 2:
        return kind(orders, x).reshape((2,) + z.shape)
    out = np.empty((2, len(x)), x.dtype)
    cuts = [len(x) * k // parts for k in range(parts + 1)]
    pool = _workers()
    futures = [
        pool.submit(contextvars.copy_context().run, kind, orders, x[a:b], out=out[:, a:b])
        for a, b in zip(cuts[1:-1], cuts[2:])
    ]
    try:
        kind(orders, x[: cuts[1]], out=out[:, : cuts[1]])
    finally:
        for future in futures:
            future.result()
    return out.reshape((2,) + z.shape)


def _finite_on_cover(n: int, c0, c_low) -> None:
    """RangeError unless C_n and C_{n-1} (arrays, or lists) are finite: at
    small |z| and high order |Y_n(z)| ~ (n-1)! (2/|z|)^n / pi exceeds the
    largest float inside the validated range, and J +- iY turns that into NaN."""
    if isinstance(c0, np.ndarray):
        finite = np.isfinite(c0).all() and np.isfinite(c_low).all()
    else:
        finite = all(map(cmath.isfinite, c0 + c_low))
    if not finite:
        raise RangeError(f"order {n}: a cylinder value overflows at this point of the cover")


def _principal(kind, ell, z, log_modulus=None) -> CylinderValue:
    """J or Y at principal phase: one number, or each element of a Batch, in
    complex arithmetic (real positive elements as floats, which keeps Im
    exactly 0), with one scipy call for the real elements and one for the
    others; arrays as complex in _principal_grid.  z = e^w for a point w of
    the cover comes with log_modulus = Re w, which the range check reads."""
    if isinstance(z, np.ndarray):
        return _principal_grid(kind, ell, np.asarray(z, complex))
    if not isinstance(z, (Batch, numbers.Number)):
        raise DomainError(f"argument {z!r} is neither a number nor an array")
    zs = z if isinstance(z, Batch) else (complex(z),)
    if log_modulus is None:
        n = _checked_order(ell, [abs(x) for x in zs])
    else:
        n = _checked_order(ell, [log_modulus], log=True)
    real = [x.imag == 0.0 and x.real > 0.0 for x in zs]
    if not any(real):
        c0, c_low = _pair(kind, n, zs)
    else:
        c0, c_low = [None] * len(zs), [None] * len(zs)
        for on_real in set(real):
            at = [k for k, r in enumerate(real) if r == on_real]
            x = [zs[k].real if on_real else zs[k] for k in at]
            for k, a, b in zip(at, *_pair(kind, n, x)):
                c0[k], c_low[k] = complex(a), complex(b)
    return _value(ell, _like(z, zs), _like(z, c0), _like(z, c_low))


@np.errstate(all="ignore")
def _principal_grid(kind, ell, z: np.ndarray) -> CylinderValue:
    """_principal over a complex array, one range check for all elements:
    the scalar calls' bits, real positive elements on the real path."""
    modulus = np.hypot(z.real, z.imag)
    n = _checked_order(ell, [modulus.min(initial=1.0), modulus.max(initial=1.0)])
    c0, c_low = _grid_pair(kind, n, z)
    real = (z.imag == 0.0) & (z.real > 0.0)
    if real.any():
        c0[real], c_low[real] = _grid_pair(kind, n, z.real[real])
    return _value(ell, z, c0, c_low)


def bessel_j(ell, z) -> CylinderValue:
    """J_ell(z) and J'_ell(z) at principal phase.

    Parameters
    ----------
    ell : int
        One order; negative orders are reflected via J_{-ell} = (-1)^ell J_ell.
        An array of orders is a DomainError: order_table evaluates many.
    z : complex, or array of float or complex
        Nonzero argument with |z| <= 100; below MIN_ABS_ARGUMENT the
        values are returned, but reading the derivative raises RangeError.

    Returns
    -------
    CylinderValue
        Python complex value and derivative; real positive z takes a real
        path, so their imaginary parts are exactly 0.  low is J_{|ell|-1}(z).
        An array z, a float one read as complex, gives complex arrays
        bit-equal to the scalar calls.
    """
    return _principal(jv, ell, z)


def bessel_y(ell, z) -> CylinderValue:
    """Y_ell(z) and Y'_ell(z) at principal phase; conventions as bessel_j.

    z may also be one SurfacePoint (a grid or a Batch is a DomainError):
    off the principal sheet (arg z outside (-pi, pi]) Y is continued by the
    connection formula, as in hankel.  At a SurfacePoint, a value or low
    that overflows is a RangeError, as in hankel.
    """
    if not isinstance(z, SurfacePoint):
        return _principal(yv, ell, z)
    w = z.log_value
    if isinstance(w, (np.ndarray, Batch)):
        raise DomainError("bessel_y takes one point of the cover")
    if not -math.pi < w.imag <= math.pi:
        return _on_cover(0, ell, z)
    y = _principal(yv, ell, z.value, w.real)
    _finite_on_cover(abs(ell), [y.value], [y.low])
    return y


@np.errstate(all="ignore")
def order_table(kind: str, top: np.ndarray, x: np.ndarray, spare: int = 0) -> np.ndarray:
    """J (kind "j") or Y ("y") at each real x[c] > 0 of a 1-d array and orders
    ell = -1..top[c] + spare, C_ell in row ell + 1 (0 past it).  One scipy call per element,
    and one range check for all, on top and x: the spare orders are not checked.  Bit-equal
    to the values and lows of the real path of bessel_j and bessel_y."""
    if (x <= 0).any() or top.min(initial=0) < 0:
        raise DomainError("an order table needs tops >= 0 and real arguments > 0")
    _checked_order(top.max(initial=0), [x.min(initial=1.0), x.max(initial=1.0)])
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


def _continued_jy(n: int, z0: list, m: list) -> tuple[list, list]:
    """([J_n, J_{n-1}], [Y_n, Y_{n-1}]), each a list over k, at z0[k] e^{i m[k] pi},
    n >= 0, continued from principal-phase z0[k]: one jv and one yv call."""
    j, y = _pair(jv, n, z0), _pair(yv, n, z0)
    if any(m):
        for order, j_row, y_row in zip((n, n - 1), j, y):
            for k, mk in enumerate(m):
                if mk:
                    sign = -1.0 if (mk * order) % 2 else 1.0
                    j0, y0 = j_row[k], y_row[k]
                    j_row[k], y_row[k] = sign * j0, sign * (y0 + 2j * mk * j0)
    return j, y


def hankel(kind: int, ell, point: SurfacePoint | complex) -> CylinderValue:
    """H_ell^(kind)(z) and its derivative at a point of the cover.

    Parameters
    ----------
    kind : int
        1 for J + iY, 2 for J - iY (built from the continued J and Y).
    ell : int
        One order; negative orders are reflected.
    point : SurfacePoint or complex
        Argument with MIN_ABS_ARGUMENT <= |z| <= 100, checked on log|z|.
        A plain complex number is lifted at principal phase.  A
        SurfacePoint holding a Batch gives Batches, and one holding an
        array is a grid of points that gives complex arrays; either is
        bit-equal to the calls at each point, with one range check for all.

    Returns
    -------
    CylinderValue
        Continuous in the phase across sheet boundaries; low is H_{|ell|-1}.
        A value or low that overflows (high order at small |z|) is a
        RangeError.
    """
    if kind not in (1, 2):
        raise DomainError("kind must be 1 or 2")
    if not isinstance(point, SurfacePoint):
        point = SurfacePoint.from_complex(point)
    return _on_cover(kind, ell, point)


def _on_cover(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """Y_ell (kind 0) or H_ell^(kind) (kind 1, 2) at a point of the cover,
    or at each point of a Batch, from J and Y continued off theta0 in
    (-pi/2, pi/2]."""
    w = point.log_value
    if isinstance(w, np.ndarray):
        return _on_grid(kind, ell, point)
    ws = _items(w)
    n = _checked_order(ell, [x.real for x in ws], log=True)
    z0, m = [], []
    for x in ws:
        theta0, k = _reduce_argument(x.imag)
        z0.append(cmath.exp(complex(x.real, theta0)))
        m.append(k)
    (j0, j1), (y0, y1) = _continued_jy(n, z0, m)
    if kind == 0:
        c0, c_low = y0, y1
    elif kind == 1:
        c0, c_low = [a + 1j * b for a, b in zip(j0, y0)], [a + 1j * b for a, b in zip(j1, y1)]
    else:
        c0, c_low = [a - 1j * b for a, b in zip(j0, y0)], [a - 1j * b for a, b in zip(j1, y1)]
    _finite_on_cover(n, c0, c_low)
    return _value(ell, point, _like(w, c0), _like(w, c_low))


@np.errstate(all="ignore")
def _on_grid(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """H_ell^(kind) (kind 1, 2) as _on_cover over a grid of points, with one
    range check for all."""
    w = point.log_value
    n = _checked_order(ell, [w.real.min(initial=0.0), w.real.max(initial=0.0)], log=True)
    c0, c_low = _continued_grid(kind, n, w)
    _finite_on_cover(n, c0, c_low)
    return _value(ell, point, c0, c_low)


def _continued_grid(kind: int, n: int, w: np.ndarray):
    """(H_n, H_{n-1}) of the given kind at each e^w of a grid: _on_cover's
    _reduce_argument and _continued_jy by element."""
    if not np.isfinite(w.imag).all():
        raise DomainError("arguments must be finite")
    m = np.ceil((w.imag - math.pi / 2) / math.pi - 1e-15)
    z0 = np.exp(_complex(w.real, w.imag - m * math.pi))
    j, y = _continued_jy_grid(n, z0, m)
    if kind == 1:
        j += _prod(1j, y)
    else:
        j -= _prod(1j, y)
    return j[0], j[1]


def _continued_jy_grid(n: int, z0: np.ndarray, m: np.ndarray):
    """_continued_jy at each element of z0 and m: J and Y, each with the
    orders n, n - 1 on its first axis."""
    orders = _ORDER_PAIRS[n]
    j, y = _grid_pair(jv, n, z0), _grid_pair(yv, n, z0)
    moved = m != 0
    if moved.any():
        m, jm = m[moved], j[:, moved]
        sign = np.where((m * orders) % 2, -1.0, 1.0)
        y[:, moved] = _prod(sign, y[:, moved] + _prod(_prod(2j, m), jm))
        j[:, moved] = _prod(sign, jm)
    return j, y


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    _integer(ell, "zero order")
    _integer(k, "zero index")
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
