"""Half-line delta-potential benchmark with closed-form resonances.

The operator -d^2/dx^2 + a*delta(x-1) on [0, infinity) with a Dirichlet
condition at 0 has resonances expressible through Lambert W branches:

    lambda_k = (a - W_{-k}(a e^a)) / (2i),   k in Z \\ {0},

and a scattering-phase derivative with an elementary closed form.  Both
are exact, which makes this system the end-to-end check for the Lambert
module and for the Breit-Wigner peak machinery: sigma' computed here must
be a sum of Lorentzians at the lambda_k plus a flat -L/pi background.
"""

from __future__ import annotations

import math
import sys

from .cylinder import _integer, _positive
from .errors import DomainError, RangeError
from .lambert import lambert_w

# a e^a must stay finite in double precision
MAX_STRENGTH = 300.0


def delta_resonance(a: float, k: int) -> complex:
    """The k-th resonance lambda_k = (a - W_{-k}(a e^a))/(2i), k != 0.

    Negative k gives the mirror -conj(lambda_{|k|}).  The result satisfies
    the outgoing matching condition w e^w = a e^a with w = a - 2i lambda.
    """
    _positive(a, "delta strength a")
    if a > MAX_STRENGTH:
        raise RangeError(f"a = {a} overflows a*e^a in double precision")
    _integer(k, "resonance index")
    if k == 0:
        raise DomainError("resonance index k must be nonzero")
    w = lambert_w(-k, a * math.exp(a))
    return (a - w) / 2j


def delta_phase_derivative(a: float, lam: float) -> float:
    """sigma'(lambda) of the delta system, limit-safe at lambda = n*pi.

    The textbook form -1/pi + (1/pi)(a + lambda^2 csc^2)/((a + lambda cot)^2
    + lambda^2) is multiplied through by sin^2(lambda), removing the
    cot/csc singularities (they are removable in the combination).  It is a
    RangeError where its numerator or denominator is no positive normal float.
    """
    _positive(a, "delta strength a")
    _positive(lam, "lambda")
    a, lam = float(a), float(lam)
    s, c = math.sin(lam), math.cos(lam)
    try:
        num = a * s * s + lam * lam
        den = (a * s + lam * c) ** 2 + lam * lam * s * s
    except OverflowError:
        num = den = math.inf
    if not (sys.float_info.min <= num < math.inf and sys.float_info.min <= den < math.inf):
        raise RangeError(f"sigma' at a = {a!r}, lambda = {lam!r} is outside the float range "
                         "of its sin^2-multiplied form")
    return -1.0 / math.pi + num / (math.pi * den)
