"""Scattering-phase derivative: exact modes, certified totals, small-energy laws.

For real lambda > 0 the derivative of the total scattering phase is

    sigma'(lambda) = sigma'_0(lambda) + 2 sum_{ell >= 1} sigma'_ell(lambda),

where each per-mode term is an explicit ratio of Bessel data at the well
edge.  The mode sum converges superexponentially; truncation is certified
by the explicit tail bound (ell^3/(mu^2 lambda)) (lambda rho e/(2 ell))^{2 ell}
with a safety factor of 100 rather than by a fixed cutoff.

Near lambda = 0 the behavior depends on the zero-energy structure of the
well: a mode-1 threshold resonance (J_0(a rho) = 0), a mode-0 threshold
resonance (J_1(a rho) = 0), or neither (generic).  The matching closed-form
small-lambda laws and their integrals are provided, as are Breit-Wigner
peak overlays for comparing sigma' with nearby resonances.

Everything here is real arithmetic; sigma'_ell values are floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .cylinder import EULER_GAMMA, bessel_j, bessel_y
from .errors import CaseMismatch, DomainError, QuadratureError, RangeError
from .well import ZERO_J_TOL, Well

LAMBDA_MAX = 5.0
SIGMA_SPLIT = 1e-6
# the mode sum stops once 100x the certified tail bound is below this
TAIL_TOL = 1e-14


class CaseKind(enum.Enum):
    P_RESONANCE_AT_ZERO = "p-resonance-at-zero"
    S_RESONANCE_AT_ZERO = "s-resonance-at-zero"
    GENERIC = "generic"


@dataclass(frozen=True)
class AsymptoticCase:
    """Small-lambda case selector; the generic case carries C(rho, a)."""

    kind: CaseKind
    c_constant: float | None = None

    def __post_init__(self) -> None:
        if self.kind is CaseKind.GENERIC and self.c_constant is None:
            raise DomainError("the generic case requires its constant C(rho, a)")
        if self.kind is not CaseKind.GENERIC and self.c_constant is not None:
            raise DomainError("only the generic case carries a constant")

    @classmethod
    def p_resonance_at_zero(cls) -> "AsymptoticCase":
        return cls(CaseKind.P_RESONANCE_AT_ZERO)

    @classmethod
    def s_resonance_at_zero(cls) -> "AsymptoticCase":
        return cls(CaseKind.S_RESONANCE_AT_ZERO)

    @classmethod
    def generic(cls, c_constant: float) -> "AsymptoticCase":
        return cls(CaseKind.GENERIC, float(c_constant))


class TotalPhaseDerivative(NamedTuple):
    value: float
    l_max: int


def _j(ell: int, x: float) -> float:
    return bessel_j(ell, x).value.real


def _case_kind_of(well: Well) -> CaseKind:
    x = well.rho * well.a
    if abs(_j(0, x)) <= ZERO_J_TOL:
        return CaseKind.P_RESONANCE_AT_ZERO
    if abs(_j(1, x)) <= ZERO_J_TOL:
        return CaseKind.S_RESONANCE_AT_ZERO
    return CaseKind.GENERIC


def asymptotic_case_for(well: Well) -> AsymptoticCase:
    """The small-lambda case of a well, with C(rho, a) filled in if generic."""
    kind = _case_kind_of(well)
    if kind is CaseKind.GENERIC:
        x = well.rho * well.a
        c = math.log(well.rho) + _j(0, x) / (x * _j(1, x))
        return AsymptoticCase.generic(c)
    return AsymptoticCase(kind)


def phase_shift_derivative(
    ell: int, lam: float, well: Well, form: str = "auto"
) -> float:
    """Exact sigma'_ell(lambda) for real lambda > 0.

    The primary form divides by J'_ell(mu rho); when that is small relative
    to the neighboring J values (or form="alternate"), an equivalent
    expression free of the division is used.  Both agree to 1e-10 relative
    where both are well conditioned.
    """
    if not (lam > 0):
        raise DomainError("sigma'_ell is defined for real lambda > 0")
    n = abs(ell)
    a, rho = well.a, well.rho
    m = math.sqrt(lam * lam + a * a)
    j_in = bessel_j(n, m * rho)
    jm = j_in.value.real
    jmp = j_in.derivative.real
    j_low = _j(n - 1, m * rho)

    if form == "auto":
        form = "primary" if abs(jmp) > 1e-6 * (abs(jm) + abs(j_low)) else "alternate"

    if form == "primary":
        edge_j = bessel_j(n, lam * rho)
        edge_y = bessel_y(n, lam * rho)
        amp = -(lam / m) * jm / jmp
        num = 1.0
        if n >= 1:
            num -= (n * n) / (lam * rho) ** 2 * amp * amp
        u = edge_j.value.real + amp * edge_j.derivative.real
        v = edge_y.value.real + amp * edge_y.derivative.real
        return -(a * a) / (m * m) * (2.0 / (math.pi**2 * lam)) * num / (u * u + v * v)

    if form == "alternate":
        j_high = _j(n + 1, m * rho)
        ej = _j(n, lam * rho)
        ey = bessel_y(n, lam * rho).value.real
        ej_low = _j(n - 1, lam * rho)
        ey_low = bessel_y(n - 1, lam * rho).value.real
        u = m * j_low * ej - lam * jm * ej_low
        v = m * j_low * ey - lam * jm * ey_low
        return (2.0 * a * a) / (math.pi**2 * lam) * j_low * j_high / (u * u + v * v)

    raise DomainError(f"unknown sigma'_ell form {form!r}")


def mode_tail_bound(ell: int, lam: float, well: Well) -> float:
    """Tail majorant (ell^3/(mu^2 lambda)) (lambda rho e/(2 ell))^{2 ell}.

    Valid (with a 100x safety margin) for ell beyond e*lambda*rho/2; the
    measured |sigma'_ell| stays below 100 times this value there.
    """
    if not (lam > 0) or ell < 1:
        raise DomainError("tail bound needs lambda > 0 and ell >= 1")
    mu_sq = lam * lam + well.a * well.a
    base = lam * well.rho * math.e / (2.0 * ell)
    return (ell**3 / (mu_sq * lam)) * math.exp(2.0 * ell * math.log(base))


def total_phase_derivative(lam: float, well: Well) -> TotalPhaseDerivative:
    """sigma'(lambda) summed until the certified tail drops below TAIL_TOL.

    Returns the value and the largest mode index actually summed.
    """
    if not (0 < lam <= LAMBDA_MAX):
        raise RangeError(f"lambda = {lam} outside validated range (0, {LAMBDA_MAX}]")
    total = phase_shift_derivative(0, lam, well)
    ell_start = max(2, math.ceil(math.e * lam * well.rho / 2.0) + 1)
    ell = 1
    while True:
        if ell >= ell_start and 100.0 * mode_tail_bound(ell, lam, well) < TAIL_TOL:
            return TotalPhaseDerivative(total, ell - 1)
        total += 2.0 * phase_shift_derivative(ell, lam, well)
        ell += 1
        if ell > 200:
            raise RangeError("mode sum failed to certify truncation by ell = 200")


def asymptotic_phase_derivative(case: AsymptoticCase, lam: float, well: Well) -> float:
    """The small-lambda law of sigma'(lambda) for the well's case.

    Raises CaseMismatch when the supplied case is not the well's actual
    zero-energy case.
    """
    if not (lam > 0):
        raise DomainError("asymptotic sigma' is defined for lambda > 0")
    actual = _case_kind_of(well)
    if case.kind is not actual:
        raise CaseMismatch(
            f"supplied case {case.kind.value} but the well is {actual.value}"
        )
    rho = well.rho
    if case.kind is CaseKind.P_RESONANCE_AT_ZERO:
        u = math.log(lam * rho / 2.0) + EULER_GAMMA
        v = u - 0.5
        return -(2.0 / lam) / (4.0 * u * u + math.pi**2) + (-4.0 / lam) / (
            4.0 * v * v + math.pi**2
        )
    if case.kind is CaseKind.S_RESONANCE_AT_ZERO:
        return -1.5 * rho * rho * lam
    x = well.rho * well.a
    u = math.log(lam / 2.0) + case.c_constant + EULER_GAMMA
    return -(2.0 / lam) / (4.0 * u * u + math.pi**2) + (
        _j(2, x) / _j(0, x)
    ) * rho * rho * lam


def breit_wigner_overlay(
    lambda_grid,
    resonances,
    background: str = "none",
    coefficient: float = 0.0,
    omit_pi: bool = False,
) -> np.ndarray:
    """Sum of resonance peaks (-Im k)/(pi |lambda - k|^2) plus a background.

    Backgrounds: "none", "sqrt" (coefficient*sqrt(lambda)), "log"
    (coefficient*log(lambda)).  omit_pi drops the 1/pi factor, matching
    plot conventions that fold it into the peak height.  Every resonance
    must have Im < 0.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    out = np.zeros_like(grid)
    norm = 1.0 if omit_pi else math.pi
    for k in resonances:
        k = complex(k)
        if k.imag >= 0:
            raise DomainError(f"resonance {k} has Im >= 0")
        out += (-k.imag) / (norm * np.abs(grid - k) ** 2)
    if background == "none":
        return out
    if background == "sqrt":
        return out + coefficient * np.sqrt(grid)
    if background == "log":
        return out + coefficient * np.log(grid)
    raise DomainError(f"unknown background form {background!r}")


def _sigma_analytic(case: AsymptoticCase, lam: float, well: Well) -> float:
    """Closed-form integral of the case law over (0, lam]."""
    rho = well.rho
    if case.kind is CaseKind.P_RESONANCE_AT_ZERO:
        u = math.log(lam * rho / 2.0) + EULER_GAMMA
        v = u - 0.5
        piece1 = -math.atan(2.0 * u / math.pi) / math.pi - 0.5
        piece2 = -2.0 * math.atan(2.0 * v / math.pi) / math.pi - 1.0
        return piece1 + piece2
    if case.kind is CaseKind.S_RESONANCE_AT_ZERO:
        return -0.75 * rho * rho * lam * lam
    x = well.rho * well.a
    u = math.log(lam / 2.0) + case.c_constant + EULER_GAMMA
    piece1 = -math.atan(2.0 * u / math.pi) / math.pi - 0.5
    return piece1 + (_j(2, x) / _j(0, x)) * rho * rho * lam * lam / 2.0


def scattering_phase(lam: float, well: Well) -> float:
    """sigma(lambda) = integral of sigma' from 0, normalized to sigma(0) = 0.

    Below the split point 1e-6 the case law is integrated in closed form
    (sigma' there behaves like -1/(lambda log^2 lambda), integrable but
    stiff); above it, adaptive quadrature runs over a fixed doubling panel
    grid.  Absolute error target 1e-6; QuadratureError when the estimates
    cannot certify it.
    """
    if not (0 < lam <= LAMBDA_MAX):
        raise RangeError(f"lambda = {lam} outside validated range (0, {LAMBDA_MAX}]")
    case = asymptotic_case_for(well)
    if lam <= SIGMA_SPLIT:
        return _sigma_analytic(case, lam, well)

    total = _sigma_analytic(case, SIGMA_SPLIT, well)
    edges = [SIGMA_SPLIT]
    step = 0.01
    while edges[-1] < lam:
        edges.append(min(step, lam) if step > edges[-1] else lam)
        step *= 2.0
    err_budget = 0.0
    for lo, hi in zip(edges, edges[1:]):
        res = quad(
            lambda t: total_phase_derivative(t, well).value,
            lo,
            hi,
            epsabs=1e-10,
            epsrel=1e-10,
            limit=200,
            full_output=1,
        )
        if len(res) > 3:
            raise QuadratureError(f"quadrature trouble on [{lo}, {hi}]: {res[3]}")
        total += res[0]
        err_budget += res[1]
    if err_budget > 1e-6:
        raise QuadratureError(f"accumulated quadrature error {err_budget:.2e} > 1e-6")
    return total


@dataclass(frozen=True)
class PhaseTable:
    """sigma' sampled on a lambda grid, optionally with per-mode rows.

    total[i] is sigma'(lambda_grid[i]) and l_max[i] the certified mode
    cutoff used there.  per_mode maps ell to the sampled sigma'_ell row.
    Small-lambda laws and Breit-Wigner overlays on the same grid come from
    asymptotic_phase_derivative and breit_wigner_overlay.
    """

    lambda_grid: np.ndarray
    total: np.ndarray
    l_max: np.ndarray
    per_mode: dict[int, np.ndarray] | None = None

    @classmethod
    def build(
        cls, lambda_grid, well: Well, include_modes: int | None = None
    ) -> "PhaseTable":
        grid = np.asarray(lambda_grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise DomainError("lambda grid must be a nonempty 1-d array")
        if not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
            raise DomainError("lambda grid must be positive and increasing")
        totals = np.empty_like(grid)
        lmaxes = np.empty(len(grid), dtype=int)
        for i, lam in enumerate(grid):
            totals[i], lmaxes[i] = total_phase_derivative(lam, well)
        per_mode = None
        if include_modes is not None:
            per_mode = {
                ell: np.array(
                    [phase_shift_derivative(ell, lam, well) for lam in grid]
                )
                for ell in range(include_modes + 1)
            }
        return cls(lambda_grid=grid, total=totals, l_max=lmaxes, per_mode=per_mode)
