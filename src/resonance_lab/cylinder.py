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

m times.  Principal-sheet values come from scipy.special (real Y: cephes
yn; complex Y: AMOS yv; J: jv); derivatives use the downward recurrence
C'_ell = C_{ell-1} - (ell/z) C_ell, evaluated when a caller first reads one.

Every call evaluates one integer order.  One argument is the one-element
case of a list body (_cover_pair, _principal_pair), which the finder calls
with many: values computed in Python complex arithmetic at each element,
from one scipy call per Bessel function over all of them (AMOS, Amos ACM
TOMS 644 1986, and cephes give the same bits per element as for one
argument).  A SurfacePoint may also hold a whole array of logarithms, a
grid; hankel then evaluates every point in one call, as bessel_j and
bessel_y do for an array of complex arguments, and returns the bits of one
call per point.  A grid call makes one scipy call per Bessel function over
both orders n, n-1 of all its points; scipy's loops release the GIL, so a
large grid's call is split into chunks that run on the threads of one pool,
made at import (it starts a thread only when a chunk is first submitted), at
most one chunk per CPU the process may use, each writing its part of one
output, with the same bits and no option to set.  An order table makes one
scipy call over all its orders and arguments, on the calling thread: real Y
and J cost too little per element there for a thread to pay.  The cover
path has one function per form: _cover_pair for a list, _on_grid for a grid,
whose continuation is numpy's own complex arithmetic; its products here are
exact or round once, as CPython's do.  An array derivative is the scalar
expression evaluated at each element.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import numbers
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special
from scipy.special import jn_zeros, jv, yn, yv

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
# a grid's scipy call runs in chunks of at least this many elements, at most
# one per CPU; below about this chunk, on 2 cores, handing one to a thread
# costs more than it saves
MIN_CHUNK_POINTS = 512


@dataclass(frozen=True)
class SurfacePoint:
    """A point lambda on the logarithmic cover, stored as w = log(lambda).

    Re w is log|lambda| and Im w is arg(lambda), unrestricted.  Points whose
    arguments differ by 2*pi are distinct.  lambda = 0 has no representation.
    log_value may also be a complex array: a grid of points, which hankel
    and char_q evaluate in one call.  value, scaled and argument act on each
    point of a grid; modulus is for a single point.
    """

    log_value: complex

    @classmethod
    def from_complex(cls, z: complex) -> "SurfacePoint":
        """Lift a nonzero finite complex number using its principal argument."""
        _finite(z, "lambda", nonzero=True)  # 0 has no point on the cover
        return cls(cmath.log(z))

    @classmethod
    def from_polar(cls, modulus, argument) -> "SurfacePoint":
        """The point modulus * e^{i argument}; arrays broadcast to a grid of
        points.  Each log modulus is math.log of one Python float, and
        scalars give a Python complex log_value."""
        modulus, argument = _real_grid(modulus, "modulus"), _real_grid(argument, "argument")
        if not (modulus > 0).all():
            raise DomainError("modulus must be positive")
        log_modulus = np.reshape([math.log(r) for r in modulus.ravel().tolist()], modulus.shape)
        w = _complex(log_modulus, argument)
        return cls(w if w.ndim else w.item())

    @property
    def value(self) -> complex:
        """The underlying complex number exp(w), sheet information collapsed."""
        w = self.log_value
        return np.exp(w) if isinstance(w, np.ndarray) else cmath.exp(w)

    @property
    def modulus(self) -> float:
        return math.exp(self.log_value.real)

    @property
    def argument(self) -> float:
        return self.log_value.imag

    def scaled(self, factor: float) -> "SurfacePoint":
        """The point factor*lambda for a positive finite factor (phase kept)."""
        _positive(factor, "scaling factor")
        return SurfacePoint(self.log_value + math.log(factor))


@dataclass(frozen=True)
class CylinderValue:
    """C_ell(z), C'_ell(z) and low = C_{|ell|-1}(z), unreflected (complex, or arrays).

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
        value is, in Python complex arithmetic at each element of an array;
        RangeError where |z| < MIN_ABS_ARGUMENT, as n/z overflows there."""
        n = abs(self._ell)
        flip = self._ell < 0 and n % 2 == 1
        z = self._at.value if isinstance(self._at, SurfacePoint) else self._at
        out = []
        for c, low, at in zip(*(np.ravel(x).tolist() for x in (self.value, self.low, z))):
            if not abs(at) >= MIN_ABS_ARGUMENT:
                raise RangeError(f"derivative at |z| = {abs(at)!r} < {MIN_ABS_ARGUMENT!r}")
            derivative = low - (n / at) * (-c if flip else c)
            out.append(-derivative if flip else derivative)
        return np.array(out, complex).reshape(np.shape(z)) if np.ndim(z) else out[0]


def _integer(value, what: str) -> None:
    """DomainError unless value is one integer (int or numpy integer); a
    float with an integral value is rejected too, as is an array."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value} is not an integer") from None


def _positive(value, what: str) -> None:
    """DomainError unless value is one real number with 0 < value < inf; an
    array, a string, nan and inf are rejected."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise DomainError(f"{what} {value!r} must be one positive finite number")


def _finite(value, what: str, kind=numbers.Number, nonzero: bool = False) -> None:
    """DomainError unless value is one finite number of kind (numbers.Real for a real one),
    and not 0 if nonzero; an array, a string, nan and inf are rejected."""
    if not (isinstance(value, kind) and cmath.isfinite(value) and not (nonzero and value == 0)):
        raise DomainError(f"{what} {value!r} must be one finite "
                          f"{'nonzero ' if nonzero else ''}{kind.__name__.lower()}")


def _real_grid(value, what: str) -> np.ndarray:
    """value as a float array, once it holds finite real numbers alone: a string, a complex
    number, a ragged nest, nan or inf is a DomainError, as at the scalar entries."""
    try:
        grid = np.asarray(value)
        real = grid.dtype.kind in "iuf" and np.isfinite(grid).all()
    except ValueError:  # a ragged nest
        real = False
    if not real:
        raise DomainError(f"{what} {value!r} must hold finite real numbers alone")
    return np.asarray(grid, float)


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


def _value(ell, at, c0, c_low) -> CylinderValue:
    """The CylinderValue of C_n, C_{n-1} at n = |ell| and argument at (z, or a
    point of the cover), odd negative orders reflected; scipy supplies
    C_{-1} = -C_1, so n = 0 needs no special case."""
    return CylinderValue(-c0 if ell < 0 and ell % 2 else c0, c_low, ell, at)


# the orders (n, n - 1) of _pair as a column, for each n: indexing it costs
# less than building the column on each call
_ORDER_PAIRS = np.arange(MAX_ORDER + 1.0)[:, None, None] - [[0.0], [1.0]]


def _pair(kind, n: int, x: list) -> list:
    """[C_n(x), C_{n-1}(x)], each a list over the floats or complex numbers
    x, from one scipy call: each element has the bits of kind(n, x[k]).
    The list goes to the ufunc as it is, which costs less than np.array."""
    return kind(_ORDER_PAIRS[n], x).tolist()


def _scipy(kind: str, real: bool):
    """scipy's ufunc for J (kind "j") or Y ("y"), looked up at each call: real Y is cephes'
    integer-order yn (forward from Y_0, Y_1, stable for Y), complex Y AMOS's yv, J jv."""
    return jv if kind == "j" else yn if real else yv


def _cpus() -> int:
    """The CPUs this process may run on: the most threads a scipy call uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# the threads that run a split scipy call's chunks but the first; an executor
# starts no thread until a chunk is submitted
_pool = ThreadPoolExecutor(thread_name_prefix="resonance-lab")


def _forget_workers() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool
    _pool = ThreadPoolExecutor(thread_name_prefix="resonance-lab")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _chunk(err: dict, kind, orders, x, out) -> None:
    """kind(orders, x, out=out) under scipy.special's error state err, which
    scipy keeps per thread."""
    with special.errstate(**err):
        kind(orders, x, out=out)


def _grid_pair(kind, n: int, z: np.ndarray) -> np.ndarray:
    """C_n and C_{n-1} at each element of the float or complex array z, stacked
    on a new first axis, from kind(_ORDER_PAIRS[n], z) over z's elements.  From
    2 * MIN_CHUNK_POINTS elements on, with more than one CPU, the call is split
    into one chunk per CPU (each of MIN_CHUNK_POINTS or more), each writing its
    part of one output: this thread evaluates the first, _pool's threads the
    others, each in a copy of the caller's context, so under its np.errstate
    and its scipy.special error state.  Chunk k takes every parts-th element
    from k on, so each gets a share of every radius of a radius-major scan
    grid.  A ufunc is elementwise, so every element has the bits of the one
    call."""
    orders, x = _ORDER_PAIRS[n], z.ravel()
    parts = min(_cpus(), len(x) // MIN_CHUNK_POINTS)
    if parts < 2:
        return kind(orders, x).reshape((2,) + z.shape)
    out = np.empty((2, len(x)), np.result_type(x, 1.0))
    err = special.geterr()
    head, *rest = [(err, kind, orders, x[k::parts], out[:, k::parts]) for k in range(parts)]
    futures = [_pool.submit(contextvars.copy_context().run, _chunk, *chunk) for chunk in rest]
    try:
        _chunk(*head)
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


def _principal(kind: str, ell, z, log_modulus=None) -> CylinderValue:
    """J (kind "j") or Y ("y") at principal phase: one number, the
    one-element case of _principal_pair; arrays in _principal_grid."""
    if isinstance(z, np.ndarray) and z.dtype.kind in "iufc":
        return _principal_grid(kind, ell, np.asarray(z, complex))
    if not isinstance(z, numbers.Number):
        raise DomainError(f"argument {z!r} is neither a number nor an array of numbers")
    z = complex(z)
    (c0,), (c_low,) = _principal_pair(kind, ell, [z], log_modulus)
    return _value(ell, z, c0, c_low)


def _principal_pair(kind: str, ell, zs: list, log_modulus=None) -> tuple[list, list]:
    """J or Y (kind "j", "y") of orders n = |ell| and n - 1, unreflected, as
    lists over the Python complex zs at principal phase, from one scipy call
    for the real positive elements (as floats, which keeps Im exactly 0) and
    one for the others.  z = e^w for one point w of the cover comes with
    log_modulus = Re w, which the range check reads."""
    if log_modulus is None:
        n = _checked_order(ell, [abs(x) for x in zs])
    else:
        n = _checked_order(ell, [log_modulus], log=True)
    real = [x.imag == 0.0 and x.real > 0.0 for x in zs]
    if not any(real):
        return _pair(_scipy(kind, False), n, zs)
    c0, c_low = [None] * len(zs), [None] * len(zs)
    for on_real in set(real):
        at = [k for k, r in enumerate(real) if r == on_real]
        x = [zs[k].real if on_real else zs[k] for k in at]
        for k, a, b in zip(at, *_pair(_scipy(kind, on_real), n, x)):
            c0[k], c_low[k] = complex(a), complex(b)
    return c0, c_low


@np.errstate(all="ignore")
def _principal_grid(kind: str, ell, z: np.ndarray) -> CylinderValue:
    """_principal over a complex array, one range check for all elements:
    the scalar calls' bits, real positive elements on the real path and the
    others as complex, each evaluated once."""
    modulus = np.hypot(z.real, z.imag)
    n = _checked_order(ell, [modulus.min(initial=1.0), modulus.max(initial=1.0)])
    real = (z.imag == 0.0) & (z.real > 0.0)
    if not real.any():
        return _value(ell, z, *_grid_pair(_scipy(kind, False), n, z))
    c = np.empty((2,) + z.shape, complex)
    for part, values, on_real in ((real, z.real, True), (~real, z, False)):
        if part.any():
            c[:, part] = _grid_pair(_scipy(kind, on_real), n, values[part])
    return _value(ell, z, *c)


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
    return _principal("j", ell, z)


def bessel_y(ell, z) -> CylinderValue:
    """Y_ell(z) and Y'_ell(z) at principal phase; conventions as bessel_j.

    Real Y: cephes yn, finite wherever |Y| is; complex Y: AMOS yv; J: jv.

    z may also be one SurfacePoint (a grid is a DomainError):
    off the principal sheet (arg z outside (-pi, pi]) Y is continued by the
    connection formula, as in hankel.  At a SurfacePoint, a value or low
    that overflows is a RangeError, as in hankel.
    """
    if not isinstance(z, SurfacePoint):
        return _principal("y", ell, z)
    w = z.log_value
    if isinstance(w, np.ndarray):
        raise DomainError("bessel_y takes one point of the cover")
    if not -math.pi < w.imag <= math.pi:
        return _on_cover(0, ell, z)
    y = _principal("y", ell, z.value, w.real)
    _finite_on_cover(abs(ell), [y.value], [y.low])
    return y


@np.errstate(all="ignore")
def order_table(kind: str, top: np.ndarray, x: np.ndarray, spare: int = 0) -> np.ndarray:
    """J (kind "j") or Y ("y") at each real x[c] > 0 of a 1-d array and orders
    ell = -1..top[c] + spare, C_ell in row ell + 1 (0 past it).  One scipy call over all
    elements, on the calling thread, and one range check for all, on top and x: the spare
    orders are not checked.  Bit-equal to the values and lows of the real path of bessel_j
    and bessel_y (real Y: cephes yn; J: jv)."""
    if kind not in ("j", "y") or (x <= 0).any() or top.min(initial=0) < 0:
        raise DomainError(f"an order table needs kind 'j' or 'y' ({kind!r}), tops >= 0 and x > 0")
    _checked_order(top.max(initial=0), [x.min(initial=1.0), x.max(initial=1.0)])
    height = top.max(initial=0) + spare + 2
    row, col = np.nonzero(np.arange(height)[:, None] <= top + spare + 1)
    rows = np.zeros((height, len(x)))
    rows[row, col] = _scipy(kind, True)(row - 1, x[col])
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
        SurfacePoint holding an array is a grid of points that gives
        complex arrays, bit-equal to the calls at each point, with one
        range check for all.

    Returns
    -------
    CylinderValue
        Continuous in the phase across sheet boundaries; low is H_{|ell|-1}.
        A value or low that overflows (high order at small |z|) is a
        RangeError.
    """
    _integer(kind, "Hankel kind")
    if kind not in (1, 2):
        raise DomainError("kind must be 1 or 2")
    if not isinstance(point, SurfacePoint):
        point = SurfacePoint.from_complex(point)
    return _on_cover(kind, ell, point)


def _on_cover(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """Y_ell (kind 0) or H_ell^(kind) (kind 1, 2) at a point of the cover:
    the one-element case of _cover_pair; grids in _on_grid."""
    w = point.log_value
    if isinstance(w, np.ndarray):
        return _on_grid(kind, ell, point)
    (c0,), (c_low,) = _cover_pair(kind, ell, [w])
    return _value(ell, point, c0, c_low)


def _cover_pair(kind: int, ell, ws: list) -> tuple[list, list]:
    """Y (kind 0) or H^(kind) (kind 1, 2) of orders n = |ell| and n - 1,
    unreflected, as lists over the logarithms ws of points of the cover; one
    range check for all.  Each w is reduced to z0 = e^{w - i m pi} with arg z0
    in (-pi/2, pi/2]; J and Y at all z0 come from one jv and one yv call, are
    continued m times by the connection formulas and give J +- iY, and a value
    that overflows is a RangeError."""
    n = _checked_order(ell, [x.real for x in ws], log=True)
    z0, m = [], []
    for x in ws:
        theta0, k = _reduce_argument(x.imag)
        z0.append(cmath.exp(complex(x.real, theta0)))
        m.append(k)
    j, y = _pair(jv, n, z0), _pair(yv, n, z0)
    if any(m):
        for order, j_row, y_row in zip((n, n - 1), j, y):
            for k, mk in enumerate(m):
                if mk:
                    sign = -1.0 if (mk * order) % 2 else 1.0
                    jk, yk = j_row[k], y_row[k]
                    j_row[k], y_row[k] = sign * jk, sign * (yk + 2j * mk * jk)
    (j0, j1), (y0, y1) = j, y
    if kind == 0:
        c0, c_low = y0, y1
    elif kind == 1:
        c0, c_low = [a + 1j * b for a, b in zip(j0, y0)], [a + 1j * b for a, b in zip(j1, y1)]
    else:
        c0, c_low = [a - 1j * b for a, b in zip(j0, y0)], [a - 1j * b for a, b in zip(j1, y1)]
    _finite_on_cover(n, c0, c_low)
    return c0, c_low


@np.errstate(all="ignore")
def _on_grid(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """H_ell^(kind) (kind 1, 2) as _cover_pair at each point of a grid, in
    numpy arithmetic by element, with one range check for all."""
    w = point.log_value
    n = _checked_order(ell, [w.real.min(initial=0.0), w.real.max(initial=0.0)], log=True)
    if not np.isfinite(w.imag).all():
        raise DomainError("arguments must be finite")
    m = np.ceil((w.imag - math.pi / 2) / math.pi - 1e-15)
    z0 = np.exp(_complex(w.real, w.imag - m * math.pi))
    j, y = _grid_pair(jv, n, z0), _grid_pair(yv, n, z0)
    moved = m != 0
    if moved.any():
        m, jm = m[moved], j[:, moved]
        sign = np.where((m * _ORDER_PAIRS[n]) % 2, -1.0, 1.0)
        y[:, moved] = sign * (y[:, moved] + 2j * m * jm)
        j[:, moved] = sign * jm
    (np.add if kind == 1 else np.subtract)(j, 1j * y, out=j)
    _finite_on_cover(n, j[0], j[1])
    return _value(ell, point, j[0], j[1])


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    _integer(ell, "zero order")
    _integer(k, "zero index")
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
