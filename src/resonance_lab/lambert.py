"""Multi-branch Lambert W function and its small-argument branch limits.

W_n(x) solves w e^w = x on branch n.  The resonance formulas for the |ell|=1
modes live on the nonprincipal branches, approached along the real axis from
either side, so alongside the evaluator this module provides the limiting
imaginary parts

    lim_{eps -> 0^-} Im W_n(eps) = pi (1 + 2n - sgn n),
    lim_{eps -> 0^+} Im W_n(eps) = pi (2n - sgn n),

used by the tests as an oracle for the branch layout.
"""

from __future__ import annotations

import math

from scipy.special import lambertw as _lambertw

from .cylinder import _finite, _integer
from .errors import DomainError, RangeError

# w e^w has its real branch point at -1/e; scipy returns NaN exactly there
# on branches 0 and -1, where the true value is -1
_BRANCH_POINT = -1.0 / math.e
_BRANCH_POINT_TOL = 1e-12


def lambert_w(n: int, x: complex) -> complex:
    """W_n(x) with |w e^w - x| <= 1e-12 * max(1, |x|).

    Parameters
    ----------
    n : int
        Branch index; a non-integer (1.5, or even 1.0) is a DomainError, and
        one outside the 64-bit integers that scipy takes a RangeError.
    x : complex
        Finite argument; x = 0 is valid only on the principal branch
        (W_0(0) = 0).

    Returns
    -------
    complex
    """
    _integer(n, "branch index")
    _finite(x, "W_n argument")
    if x == 0:
        if n == 0:
            return 0j
        raise DomainError("W_n is unbounded at x = 0 for n != 0")
    if n in (0, -1) and abs(x - _BRANCH_POINT) <= _BRANCH_POINT_TOL:
        return complex(-1.0)
    try:
        return complex(_lambertw(x, n))
    except OverflowError:  # scipy converts n to a C long
        raise RangeError(f"branch index {n} outside [-2**63, 2**63 - 1], the C long scipy takes") from None


def branch_limit_check(n: int, sign: str) -> float:
    """Limiting Im W_n(eps) as real eps approaches 0 from one side.

    Parameters
    ----------
    n : int
        Branch index, n != 0.
    sign : str
        "up" for eps increasing to 0 from below, "down" for eps decreasing
        to 0 from above.

    Returns
    -------
    float
        pi(1 + 2n - sgn n) from below, pi(2n - sgn n) from above.
    """
    _integer(n, "branch index")
    if n == 0:
        raise DomainError("branch limits are defined for n != 0 only")
    sgn = 1 if n > 0 else -1
    if sign == "up":
        return math.pi * (1 + 2 * n - sgn)
    if sign == "down":
        return math.pi * (2 * n - sgn)
    raise DomainError(f"sign must be 'up' or 'down', got {sign!r}")
