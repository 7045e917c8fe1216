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

Each entry checks the mode before it reads the edge; the cylinder body that
evaluates a point of the cover checks log|lambda rho| and its phase, which
char_q reports as a RangeError.  The finder's Newton rows take the one list
body, _q_lists, which reads cylinder's range rules and gives NaN there.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, yv

from .cylinder import (MAX_ABS_ARGUMENT, _ORDER_PAIRS, SurfacePoint, _as_point, _checked_order, _finite,
                       _integer, _log_in_range, _one_point, _positive, _reduce_argument, bessel_j, hankel)
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
        _positive(self.a, "well depth a")
        _positive(self.rho, "well radius rho")


@dataclass(frozen=True)
class CouplingFamily:
    """Depth family a^2(eps) = a0^2 - eps at fixed finite radius."""

    a0: float
    rho: float = 1.0

    def __post_init__(self) -> None:
        _positive(self.a0, "family base depth a0")
        _positive(self.rho, "family radius rho")

    def well(self, eps: float) -> Well:
        _finite(eps, "eps", numbers.Real)
        a_sq = self.a0 * self.a0 - eps
        if a_sq <= 0:
            raise DomainError(f"eps = {eps} makes a^2 = {a_sq} nonpositive")
        return Well(math.sqrt(a_sq), self.rho)


class ZeroEnergyKind(enum.Enum):
    NONE = "none"
    S_RESONANCE = "s-resonance"
    P_RESONANCE = "p-resonance"
    ZERO_EIGENVALUE = "zero-eigenvalue"


def mu(lam: SurfacePoint | complex, a) -> complex:
    """sqrt(lambda^2 + a^2) on the branch that is positive for lambda > 0.

    The principal square root keeps Re mu >= 0, which is the continuous
    continuation from the positive real lambda axis throughout |lambda| < a.
    Callers must not cross the branch point lambda^2 = -a^2.  One lambda is
    _mu, the expression _q_lists evaluates at each point.  A grid of points
    gives an array, the same expression in numpy's arithmetic, which
    agrees with the calls at each point to 1e-13 relative.
    """
    _positive(a, "depth a")
    lam_value = lam.value if isinstance(lam, SurfacePoint) else lam
    if not isinstance(lam_value, np.ndarray):
        _finite(lam_value, "lambda")
        return _mu(complex(lam_value), a)
    with np.errstate(all="ignore"):
        radicand = lam_value * lam_value + a * a
        if not radicand.all():
            raise BranchError("lambda^2 = -a^2 is the branch point of mu")
        return np.sqrt(radicand)


def _mu(x: complex, a) -> complex:
    """mu at one Python complex lambda x and a depth a that Well or mu has
    checked, in Python complex arithmetic."""
    radicand = x * x + a * a
    if radicand == 0:
        raise BranchError("lambda^2 = -a^2 is the branch point of mu")
    return cmath.sqrt(radicand)


def _edge(ell: int, point: SurfacePoint, a: float, rho: float):
    """(lambda, mu, J_n(rho mu), H_n^(1)(lambda rho)) at n = |ell| in the
    well of depth a and radius rho, at one point or over a grid: the edge
    values that Q and the resonant state are built from.
    The mode is checked first, then hankel goes, so a non-finite phase is
    rejected before point.value is read."""
    _integer(ell, "mode")
    n = abs(ell)
    h = hankel(1, n, point.scaled(rho))
    lam = point.value
    m = mu(lam, a)
    return lam, m, bessel_j(n, rho * m), h


def _q_terms(ell: int, point: SurfacePoint, a: float, rho: float) -> tuple[complex, complex]:
    """The two terms whose difference is Q_ell; |t1| + |t2| is the scale.
    ell is one order and a the depth.  From _edge: one point gives Python
    complex terms, in Python's arithmetic, with the bits of _q_lists there;
    a grid gives arrays, in numpy's arithmetic under the caller's
    np.errstate."""
    lam, m, j, h = _edge(ell, point, a, rho)
    return m * j.low * h.value, lam * j.value * h.low


def _q_lists(n: int, ws: list, depths: list, rho: float) -> tuple[list, list]:
    """The two terms of Q_n at each logarithm of ws, each point in a well of
    radius rho and of its own depth in depths, as lists of Python complex:
    the list body that only the finder's Newton rows take, with the bits of
    _q_terms at each point.  After the order's check, each log(lambda rho)
    is tested against the range and reduced to z0, arg z0 in (-pi/2, pi/2];
    then lambda, mu and rho mu.  J at every z0 and rho mu is one jv call, Y
    at every z0 one yv call (J at a real positive rho mu one more, on
    floats, keeping Im exactly 0); J and Y at z0 are continued on the cover
    into H^(1) = J + iY.  Where char_q raises RangeError, the terms read NaN
    (no e^w is taken outside the range; |rho mu| > 100) or a non-finite
    value; only the order's check and mu's BranchError raise."""
    n = _checked_order(n, [])
    nan = complex(math.nan, math.nan)
    shift = math.log(rho)
    lam, z0, sheet = [nan] * len(ws), [nan] * len(ws), [0] * len(ws)
    for k, x in enumerate(ws):
        at = x + shift
        if _log_in_range(at):
            theta0, sheet[k] = _reduce_argument(at.imag)
            lam[k], z0[k] = cmath.exp(x), cmath.exp(complex(at.real, theta0))
    m = [_mu(x, d) for x, d in zip(lam, depths)]
    z = [v if abs(v) <= MAX_ABS_ARGUMENT else nan for v in (rho * x for x in m)]
    # J at z0, then J at rho mu, each with orders n, n - 1 down its rows
    orders = _ORDER_PAIRS[n]
    (j, j_edge), y = jv(orders, [[z0], [z]]).tolist(), yv(orders, z0).tolist()
    real = [k for k, x in enumerate(z) if x.imag == 0.0 and x.real > 0.0]
    if real:
        for row, values in zip(j_edge, jv(orders, [z[k].real for k in real]).tolist()):
            for k, x in zip(real, values):
                row[k] = complex(x)
    if any(sheet):
        for order, j_row, y_row in zip((n, n - 1), j, y):
            for k, mk in enumerate(sheet):
                if mk:
                    sign = -1.0 if (mk * order) % 2 else 1.0
                    jk, yk = j_row[k], y_row[k]
                    j_row[k], y_row[k] = sign * jk, sign * (yk + 2j * mk * jk)
    (j0, j1), (y0, y1), (e0, e1) = j, y, j_edge
    t1 = [x * e * (a + 1j * b) for x, e, a, b in zip(m, e1, j0, y0)]
    t2 = [x * e * (a + 1j * b) for x, e, a, b in zip(lam, e0, j1, y1)]
    return t1, t2


def char_q(ell: int, lam: SurfacePoint | complex, well: Well) -> complex:
    """Characteristic function Q_ell(lambda) of the mode-ell matching problem.

    Q_ell = mu J_{ell-1}(rho mu) H_ell^(1)(lambda rho)
          - lambda J_ell(rho mu) H_{ell-1}^(1)(lambda rho)

    is the derivative matching mu J'_ell H_ell^(1) - lambda J_ell H_ell^(1)' with each
    C'_n = C_{n-1} - (n/z) C_n: the (n/z) terms cancel.
    Zeros with 0 < arg lambda < pi are square roots of eigenvalues; all
    other zeros on the cover are resonances.  Negative ell maps to |ell|.

    ell is one order (an array of orders is a DomainError).  lam may be a
    SurfacePoint holding a grid of points: Q is then a complex array, from
    one range check, in numpy's arithmetic, and within 1e-13 char_q_scale
    of the calls at each point.
    """
    # as in CPython's complex arithmetic, nothing signals
    with np.errstate(all="ignore"):
        t1, t2 = _q_terms(ell, _as_point(lam), well.a, well.rho)
        return t1 - t2


def char_q_scale(ell: int, lam: SurfacePoint | complex, well: Well) -> float:
    """Local magnitude |t1| + |t2| of the two Q_ell terms, for residuals,
    at one point or over a grid; a grid's agrees with the calls at each
    point to 1e-13 relative, as char_q's does."""
    with np.errstate(all="ignore"):
        t1, t2 = _q_terms(ell, _as_point(lam), well.a, well.rho)
        return abs(t1) + abs(t2)


def zero_energy_kind(ell: int, well: Well) -> ZeroEnergyKind:
    """Zero-energy structure of mode ell, present when |J_{|ell|-1}(rho a)| <= ZERO_J_TOL.

    Mode 0 then carries an s-resonance (J_{-1} = -J_1), mode +-1 a
    p-resonance (J_0), and |ell| >= 2 a zero eigenvalue.
    """
    _integer(ell, "mode")
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
    _positive(lam, "lambda")
    t1, t2 = _q_terms(ell, SurfacePoint.from_polar(lam, 0.0), well.a, well.rho)
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
    _positive(r, "radius r")
    _one_point(lam, "lambda")
    lam_value, m, j, h = _edge(ell, lam, well.a, well.rho)
    n = abs(ell)
    if abs(j.value) <= 1e-290:
        raise MatchError("interior solution vanishes at the edge; cannot match")
    t1, t2 = m * j.derivative * h.value, lam_value * j.value * h.derivative
    mismatch = abs(t1 - t2) / (abs(t1) + abs(t2) + 1e-300)
    if mismatch > 1e-8:
        raise MatchError(
            f"derivative mismatch {mismatch:.3e} at r = rho; lambda is not a zero"
        )
    if r <= well.rho:
        return h.value / j.value * bessel_j(n, m * r).value
    return hankel(1, n, lam.scaled(r)).value
