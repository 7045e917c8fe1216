"""Cylinder functions on the logarithmic cover.

Integer-order Bessel functions J_ell, Y_ell and Hankel functions H_ell^(1),
H_ell^(2) with derivatives, for arguments whose phase may live on any sheet
of the Riemann surface of the logarithm, plus real Bessel zeros j_{ell,k}.

Points of the surface are represented by their logarithm, so arguments keep
an unrestricted phase and two points whose phases differ by 2*pi stay
distinct.  A point enters every body in that form (hankel, bessel_j and
bessel_y take one), and the body that evaluates it checks log|z| and
|arg z|.  Evaluation reduces the phase to the best-conditioned half-plane
theta in (-pi/2, pi/2] and applies the integer-order connection formulas

    J_ell(z e^{i m pi}) = (-1)^{m ell} J_ell(z),
    Y_ell(z e^{i m pi}) = (-1)^{m ell} [Y_ell(z) + 2 i m J_ell(z)],

m times; J is single-valued, so J at a point is J at e^w, as Y is on the
principal sheet.  Principal-sheet values come from scipy.special (real Y:
cephes yn; complex Y: AMOS yv; J: jv); derivatives use the downward
recurrence C'_ell = C_{ell-1} - (ell/z) C_ell, evaluated when a caller first
reads one.

Every call evaluates one integer order.  Each public kernel has one body,
which works on arrays; one argument is its 0-d case, returned as Python
complex.  A SurfacePoint may hold one logarithm or an array of them, a grid,
which hankel evaluates in one call, as bessel_j and bessel_y do an array of
complex arguments; each element has the bits of the call at that point
alone.  A call makes one scipy call per Bessel function over both orders n,
n-1 of all its points, and bessel_j and bessel_y one more over their real
positive arguments, as floats (AMOS, Amos ACM TOMS 644 1986, and cephes give
the same bits per element as for one argument).  scipy's loops release the
GIL, so a large grid's call is split into chunks that run on the threads of
one pool, made at import (it starts no thread until a chunk is submitted),
at most one chunk per CPU the process may use, each writing its part of one
output, with the same bits and no option to set.  An order table makes one
scipy call over all its orders and arguments, on the calling thread: real Y
and J cost too little per element there for a thread to pay.  The
continuation on the cover is numpy's complex arithmetic, whose products here
are exact or round once, as CPython's do; a derivative is the scalar
expression at each element.  The rules of the validated range
(_checked_order, _log_in_range, _reduce_argument) are written here alone;
the finder's list body, in well, reads them too.
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
# reducing a phase theta by m*pi in floats moves it by about |theta| * 1e-16: H^(1)_0 at |z|
# in [0.2, 3] was up to 5e-10 off mpmath at |theta| near 2^20, 3e-7 near 1e9, 2e-4 near 1e12
MAX_ABS_PHASE = 2.0**20
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

    def __post_init__(self) -> None:
        if not _numeric(self.log_value):  # nan and inf stay: a lost start's record may hold one
            raise DomainError(f"log value {self.log_value!r} is neither a number nor an array of numbers")

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
    float with an integral value is rejected too, as are a bool and an array."""
    try:
        operator.index(value)
    except TypeError:
        pass
    else:
        if not isinstance(value, bool):
            return
    raise DomainError(f"{what} {value} is not an integer")


def _one_number(x, kind=numbers.Number) -> bool:
    """Whether x is one number of kind, not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _numeric(x) -> bool:
    """Whether x is one number or an array of integers, floats or complex numbers (not bools)."""
    return _one_number(x) or isinstance(x, np.ndarray) and x.dtype.kind in "iufc"


def _positive(value, what: str) -> None:
    """DomainError unless value is one real number with 0 < value < inf; an
    array, a string, a bool, nan, inf and an int no float holds are rejected."""
    if not (_one_number(value, numbers.Real) and 0 < value <= sys.float_info.max):
        raise DomainError(f"{what} {value!r} must be one positive finite number")


def _finite(value, what: str, kind=numbers.Number, nonzero: bool = False) -> None:
    """DomainError unless value is one finite number of kind (numbers.Real for a real one),
    and not 0 if nonzero; an array, a string, a bool, nan, inf and an int no float holds
    are rejected."""
    big = sys.float_info.max
    if not (_one_number(value, kind) and abs(value.real) <= big and abs(value.imag) <= big
            and not (nonzero and value == 0)):
        raise DomainError(f"{what} {value!r} must be one finite "
                          f"{'nonzero ' if nonzero else ''}{kind.__name__.lower()}")


def _as_point(lam) -> SurfacePoint:
    """lam as a point of the cover: a number is lifted at principal phase."""
    return lam if isinstance(lam, SurfacePoint) else SurfacePoint.from_complex(lam)


def _one_point(lam, what: str) -> None:
    """DomainError unless lam is one SurfacePoint, not a number or a grid."""
    if not isinstance(lam, SurfacePoint) or isinstance(lam.log_value, np.ndarray):
        raise DomainError(f"{what} {lam!r} is not one SurfacePoint")


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
    is rejected, as `low <= x <= high` is false for it, and reported as the
    range [nan, nan].  No moduli check as |z| = 1.  |z| = 0 is a DomainError.
    """
    low, high = (_LOG_MIN_ABS_ARGUMENT, _LOG_MAX_ABS_ARGUMENT) if log else (0.0, MAX_ABS_ARGUMENT)
    if not all([low <= x <= high for x in moduli]):
        least, top = (math.nan,) * 2 if math.isnan(sum(moduli)) else (min(moduli), max(moduli))
        name = "log|z|" if log else "|z|"
        raise RangeError(f"{name} in [{least!r}, {top!r}] outside validated range [{low!r}, {high!r}]")
    if not log and 0 in moduli:
        raise DomainError("cylinder functions are singular or trivial at z = 0")
    _integer(ell, "order")
    n = abs(ell)
    if n > MAX_ORDER:
        raise RangeError(f"order {n} outside validated range |ell| <= {MAX_ORDER}")
    return n


def _extremes(x: np.ndarray) -> list:
    """The least and the largest element of x as Python floats, for a range
    check to test and to report; none for an empty x, and NaN if x holds one."""
    return [float(x.min()), float(x.max())] if x.size else []


def _complex(re, im) -> np.ndarray:
    """The complex array re + i*im, broadcast over both and built without
    arithmetic, so no part is rounded and no signed zero changes."""
    out = np.empty(np.broadcast(re, im).shape, complex)
    out.real, out.imag = re, im
    return out


def _value(ell, at, c0, c_low) -> CylinderValue:
    """The CylinderValue of C_n, C_{n-1} at n = |ell| and argument at (z, or a
    point of the cover), odd negative orders reflected; scipy supplies
    C_{-1} = -C_1, so n = 0 needs no special case.  A 0-d result, the call
    at one argument, is returned as Python complex."""
    if np.ndim(c0) == 0:
        c0, c_low = complex(c0), complex(c_low)
    return CylinderValue(-c0 if ell < 0 and ell % 2 else c0, c_low, ell, at)


# the orders (n, n - 1) of a scipy call as a column, for each n: indexing it
# costs less than building the column on each call
_ORDER_PAIRS = np.arange(MAX_ORDER + 1.0)[:, None, None] - [[0.0], [1.0]]


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
    parts = min(_cpus(), len(x) // MIN_CHUNK_POINTS) if len(x) >= 2 * MIN_CHUNK_POINTS else 1
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


def _finite_on_cover(n: int, c: np.ndarray) -> None:
    """RangeError unless every C_n and C_{n-1} in the array c is finite: at small
    |z| and high order |Y_n(z)| ~ (n-1)! (2/|z|)^n / pi exceeds the largest
    float inside the validated range, and J +- iY turns that into NaN."""
    if not np.isfinite(c).all():
        raise RangeError(f"order {n}: a cylinder value overflows at this point of the cover")


@np.errstate(all="ignore")
def _principal(kind: str, ell, z) -> CylinderValue:
    """J (kind "j") or Y ("y") at principal phase, at one number or at each
    element of an array, with one range check for all: real positive
    elements on the real path and the others as complex, each evaluated
    once.  One number is the 0-d case.  At one point w of the cover, log|z|
    and |arg z| are checked; Y off the principal sheet is continued on the
    cover, and otherwise both kinds are read at e^w, where a value that
    overflows is a RangeError."""
    point = isinstance(z, SurfacePoint)
    if point:
        _one_point(z, f"bessel_{kind} argument")
        w = z.log_value
        if kind == "y" and not -math.pi < w.imag <= math.pi:
            return _on_grid(0, ell, z)
        n = _checked_order(ell, [w.real], log=True)
        _reduce_argument(w.imag)
        z = np.asarray(z.value)
    elif _numeric(z):
        try:
            z = np.asarray(z, complex)
        except OverflowError:  # a Python int past the largest float: as inf, past the range
            z = np.asarray(math.inf, complex)
        n = _checked_order(ell, _extremes(np.hypot(z.real, z.imag)))
    else:
        raise DomainError(f"argument {z!r} is neither a number nor an array of numbers")
    x = z.ravel()
    real = (x.imag == 0.0) & (x.real > 0.0)
    c = np.empty((2, x.size), complex)
    for part, values, on_real in ((real, x.real, True), (~real, x, False)):
        if part.any():
            c[:, part] = _grid_pair(_scipy(kind, on_real), n, values[part])
    if point:
        _finite_on_cover(n, c)
    return _value(ell, z, *c.reshape((2,) + z.shape))


def bessel_j(ell, z) -> CylinderValue:
    """J_ell(z) and J'_ell(z) at principal phase.

    Parameters
    ----------
    ell : int
        One order; negative orders are reflected via J_{-ell} = (-1)^ell J_ell.
        An array of orders is a DomainError: order_table evaluates many.
    z : complex, array of float or complex, or SurfacePoint
        Nonzero argument with |z| <= 100; below MIN_ABS_ARGUMENT the
        values are returned, but reading the derivative raises RangeError.
        One SurfacePoint (a grid is a DomainError) is checked on log|z|
        and |arg z|, as in hankel, and read at its value e^w, J being
        single-valued; a value that overflows there is a RangeError.

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
    At one SurfacePoint off the principal sheet (arg z outside (-pi, pi])
    Y is continued by the connection formula, as in hankel.
    """
    return _principal("y", ell, z)


@np.errstate(all="ignore")
def order_table(kind: str, top: np.ndarray, x: np.ndarray, spare: int = 0) -> np.ndarray:
    """J (kind "j") or Y ("y") at each real x[c] > 0 of a 1-d array and orders
    ell = -1..top[c] + spare, C_ell in row ell + 1 (0 past it).  One scipy call over all
    elements, on the calling thread, and one range check for all, on top and x: the spare
    orders are not checked.  Bit-equal to the values and lows of the real path of bessel_j
    and bessel_y (real Y: cephes yn; J: jv)."""
    if kind not in ("j", "y") or (x <= 0).any() or top.min(initial=0) < 0:
        raise DomainError(f"an order table needs kind 'j' or 'y' ({kind!r}), tops >= 0 and x > 0")
    _checked_order(top.max(initial=0), _extremes(x))
    height = top.max(initial=0) + spare + 2
    row, col = np.nonzero(np.arange(height)[:, None] <= top + spare + 1)
    rows = np.zeros((height, len(x)))
    rows[row, col] = _scipy(kind, True)(row - 1, x[col])
    return rows


def _reduce_argument(theta: float) -> tuple[float, int]:
    """Write theta = theta0 + m*pi with theta0 in (-pi/2, pi/2].

    The tiny guard keeps exact boundary values (theta = pi/2 + k*pi) on the
    sheet below instead of flipping on rounding noise.  A phase that is not
    finite is a DomainError, and one past MAX_ABS_PHASE a RangeError.
    """
    if not -MAX_ABS_PHASE <= theta <= MAX_ABS_PHASE:
        if not math.isfinite(theta):
            raise DomainError(f"argument {theta} must be finite")
        raise RangeError(f"phase {theta!r} outside validated range |arg z| <= {MAX_ABS_PHASE!r}")
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
        Argument with MIN_ABS_ARGUMENT <= |z| <= 100, checked on log|z|,
        and |arg z| <= MAX_ABS_PHASE.
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
    return _on_grid(kind, ell, _as_point(point))


def _log_in_range(w: complex) -> bool:
    """Whether the point of the cover whose logarithm is w is inside the validated
    range, as hankel checks it on log|z| and |arg z|; not if a part of w is NaN."""
    return (_LOG_MIN_ABS_ARGUMENT <= w.real <= _LOG_MAX_ABS_ARGUMENT
            and -MAX_ABS_PHASE <= w.imag <= MAX_ABS_PHASE)


@np.errstate(all="ignore")
def _on_grid(kind: int, ell, point: SurfacePoint) -> CylinderValue:
    """Y_ell (kind 0) or H_ell^(kind) (kind 1, 2) at the one point of the
    cover that point holds, or at each point of its grid, with one range
    check for all, in numpy arithmetic by element; H^(1) has the bits of the
    finder's list body in well.  One point is the 0-d case."""
    w = np.asarray(point.log_value)
    n = _checked_order(ell, _extremes(w.real), log=True)
    for theta in _extremes(w.imag):  # _reduce_argument's checks, at the extreme phases
        _reduce_argument(theta)
    m = np.ceil((w.imag - math.pi / 2) / math.pi - 1e-15).ravel()
    z0 = np.exp(_complex(w.real.ravel(), w.imag.ravel() - m * math.pi))
    j, y = _grid_pair(jv, n, z0), _grid_pair(yv, n, z0)
    moved = m != 0
    if moved.any():
        m, jm = m[moved], j[:, moved]
        sign = np.where((m * _ORDER_PAIRS[n]) % 2, -1.0, 1.0)
        y[:, moved] = sign * (y[:, moved] + 2j * m * jm)
        j[:, moved] = sign * jm
    if kind:
        (np.add if kind == 1 else np.subtract)(j, 1j * y, out=j)
    c = (j if kind else y).reshape((2,) + w.shape)
    _finite_on_cover(n, c)
    return _value(ell, point, c[0], c[1])


def bessel_zero(ell: int, k: int) -> float:
    """The k-th positive zero j_{ell,k} of J_ell, ell >= 0, k >= 1."""
    _integer(ell, "zero order")
    _integer(k, "zero index")
    if ell < 0 or ell > MAX_ZERO_ORDER:
        raise RangeError(f"zero order must be in [0, {MAX_ZERO_ORDER}]")
    if k < 1 or k > MAX_ZERO_INDEX:
        raise RangeError(f"zero index must be in [1, {MAX_ZERO_INDEX}]")
    return float(jn_zeros(ell, k)[-1])
