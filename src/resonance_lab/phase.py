"""Scattering-phase derivative: exact modes, certified totals, small-energy laws.

For real lambda > 0 the derivative of the total scattering phase is

    sigma'(lambda) = sigma'_0(lambda) + 2 sum_{ell >= 1} sigma'_ell(lambda),

where each per-mode term is an explicit ratio of Bessel data at the well
edge.  The mode sum converges superexponentially; truncation is certified
by the explicit tail bound (ell^3/(mu^2 lambda)) (lambda rho e/(2 ell))^{2 ell}
with a safety factor of 100 rather than by a fixed cutoff.

Near lambda = 0 the behavior depends on the zero-energy structure of the
well: a mode-1 threshold resonance (J_0(a rho) = 0), a mode-0 threshold
resonance (J_1(a rho) = 0), or neither (generic).  Each closed-form
small-lambda law is written once, beside its integral; Breit-Wigner peak
overlays compare sigma' with nearby resonances.

Everything here is real arithmetic.  sigma'_ell has one evaluation, over
arrays of (ell, lambda) pairs; the scalar calls are its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cylinder import EULER_GAMMA, bessel_j, bessel_y
from .errors import DomainError, QuadratureError, RangeError
from .well import Well, ZeroEnergyKind, zero_energy_kind

LAMBDA_MAX = 5.0
SIGMA_SPLIT = 1e-6
# the mode sum stops once 100x the certified tail bound is below this
TAIL_TOL = 1e-14
# scattering_phase's panels; SIGMA_NOISE is a rounding allowance, since
# sigma' itself carries about 1e-10 relative noise on a narrow peak
SIGMA_PANELS = 16
SIGMA_TARGET = 1e-9
SIGMA_NOISE = 1e-9
SIGMA_MAX_OPEN = 256
SIGMA_ERROR = 1e-6


class TotalPhaseDerivative(NamedTuple):
    value: float
    l_max: int


def _mode_values(n: np.ndarray, lam: np.ndarray, well: Well, form: str = "auto") -> np.ndarray:
    """sigma'_n(lambda) elementwise over 1-d arrays of orders n >= 0 and real
    lambda > 0, the form chosen per element as phase_shift_derivative says."""
    a, rho = well.a, well.rho
    m = np.sqrt(lam * lam + a * a)
    # J_n (and J_{n-1} as low) at mu rho and lambda rho in one call
    j = bessel_j(n, np.array([m * rho, lam * rho]))
    (jm, ej), (jmp, ejp), (j_low, ej_low) = j.value, j.derivative, j.low
    if form == "auto":
        primary = np.abs(jmp) > 1e-6 * (np.abs(jm) + np.abs(j_low))
    elif form in ("primary", "alternate"):
        primary = np.full(n.shape, form == "primary")
    else:
        raise DomainError(f"unknown sigma'_ell form {form!r}")

    y = bessel_y(n, lam * rho)
    # evaluated everywhere; where J'_n(mu rho) ~ 0 the value is not selected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amp = -(lam / m) * jm / jmp
        num = 1.0 - (n * n) / (lam * rho) ** 2 * amp * amp
        u = ej + amp * ejp
        v = y.value + amp * y.derivative
        out = -(a * a) / (m * m) * (2.0 / (math.pi**2 * lam)) * num / (u * u + v * v)

    alt = ~primary
    if alt.any():
        n, lam, m, jm, j_low = n[alt], lam[alt], m[alt], jm[alt], j_low[alt]
        j_high = bessel_j(n + 1, m * rho).value
        u = m * j_low * ej[alt] - lam * jm * ej_low[alt]
        v = m * j_low * y.value[alt] - lam * jm * y.low[alt]
        out[alt] = (2.0 * a * a) / (math.pi**2 * lam) * j_low * j_high / (u * u + v * v)
    return out


def phase_shift_derivative(ell: int, lam: float, well: Well, form: str = "auto") -> float:
    """Exact sigma'_ell(lambda) for real lambda > 0.

    The primary form divides by J'_ell(mu rho); when that is small relative
    to the neighboring J values (or form="alternate"), an equivalent
    expression free of the division is used.  Both agree to 1e-10 relative
    where both are well conditioned.
    """
    if not (lam > 0):
        raise DomainError("sigma'_ell is defined for real lambda > 0")
    return float(_mode_values(np.array([abs(ell)]), np.array([lam], dtype=float), well, form)[0])


def mode_tail_bound(ell, lam, well: Well):
    """Tail majorant (ell^3/(mu^2 lambda)) (lambda rho e/(2 ell))^{2 ell}.

    Valid (with a 100x safety margin) for ell beyond e*lambda*rho/2; the
    measured |sigma'_ell| stays below 100 times this value there.  ell and
    lambda broadcast; scalars give a float.
    """
    ell, lam = np.asarray(ell), np.asarray(lam, dtype=float)
    if not (lam.min(initial=1.0) > 0 and ell.min(initial=1) >= 1):
        raise DomainError("tail bound needs lambda > 0 and ell >= 1")
    mu_sq = lam * lam + well.a * well.a
    two_ell = 2.0 * ell
    out = (ell**3 / (mu_sq * lam)) * np.exp(two_ell * np.log(lam * well.rho * math.e / two_ell))
    return out if out.ndim else float(out)


def _mode_cutoff(lam: np.ndarray, well: Well) -> np.ndarray:
    """The certified l_max at each lambda of a 1-d array: one less than the first
    ell >= max(2, ceil(e lambda rho/2) + 1), and <= 200, with 100 x mode_tail_bound
    below TAIL_TOL, searched in blocks from there that double until all are found."""
    start = np.maximum(2, np.ceil(math.e * lam * well.rho / 2.0).astype(int) + 1)
    for span in (16, 32, 64, 128, 256):
        ell = start + np.arange(span)[:, None]
        ok = (ell <= 200) & (100.0 * mode_tail_bound(ell, lam, well) < TAIL_TOL)
        if ok.any(axis=0).all():
            return start + ok.argmax(axis=0) - 1
    raise RangeError("mode sum failed to certify truncation by ell = 200")


def _phase_table(lam: np.ndarray, well: Well, modes: int = 0):
    """sigma'_ell over ell = 0..max(l_max, modes) at each lambda of a 1-d array
    (0 past both, unevaluated), the totals sigma' and the cutoffs l_max."""
    if not (lam.min() > 0 and lam.max() <= LAMBDA_MAX):
        raise RangeError(f"lambda in [{lam.min()}, {lam.max()}] outside (0, {LAMBDA_MAX}]")
    l_max = _mode_cutoff(lam, well)
    need = np.maximum(l_max, modes)
    ell, col = np.nonzero(np.arange(need.max() + 1)[:, None] <= need)
    table = np.zeros((need.max() + 1, len(lam)))
    table[ell, col] = _mode_values(ell, lam[col], well)
    # sigma'_0 + 2 sigma'_1 + ... added mode by mode, in that order (an
    # accumulate, not a pairwise sum), and each total read at its l_max
    terms = 2.0 * table
    terms[0] = table[0]
    totals = np.add.accumulate(terms)[l_max, np.arange(len(lam))]
    return table, totals, l_max


def total_phase_derivative(lam: float, well: Well) -> TotalPhaseDerivative:
    """sigma'(lambda) summed until the certified tail drops below TAIL_TOL.

    Returns the value and the largest mode index actually summed.
    """
    _, totals, l_max = _phase_table(np.array([lam], dtype=float), well)
    return TotalPhaseDerivative(float(totals[0]), int(l_max[0]))


def _small_lambda_law(lam: float, well: Well) -> tuple[float, float]:
    """(sigma'(lambda), sigma(lambda)) by the small-lambda law of the well's
    zero-energy case, each sigma the integral of its law over (0, lambda]:
    p-resonance (mode 1) before s-resonance (mode 0), else the generic law."""
    rho = well.rho
    if zero_energy_kind(1, well) is ZeroEnergyKind.P_RESONANCE:
        u = math.log(lam * rho / 2.0) + EULER_GAMMA
        v = u - 0.5
        return (
            -(2.0 / lam) / (4.0 * u * u + math.pi**2) + (-4.0 / lam) / (4.0 * v * v + math.pi**2),
            (-math.atan(2.0 * u / math.pi) / math.pi - 0.5)
            + (-2.0 * math.atan(2.0 * v / math.pi) / math.pi - 1.0),
        )
    if zero_energy_kind(0, well) is ZeroEnergyKind.S_RESONANCE:
        return -1.5 * rho * rho * lam, -0.75 * rho * rho * lam * lam
    # generic: u = log(lambda/2) + C + gamma, C = log rho + J_0(x)/(x J_1(x)),
    # and J_2(x)/J_0(x), at x = rho a
    x = rho * well.a
    j0, j1, j2 = bessel_j(np.arange(3), x).value
    c = math.log(rho) + float(j0 / (x * j1))
    u = math.log(lam / 2.0) + c + EULER_GAMMA
    ratio = float(j2 / j0)
    return (
        -(2.0 / lam) / (4.0 * u * u + math.pi**2) + ratio * rho * rho * lam,
        (-math.atan(2.0 * u / math.pi) / math.pi - 0.5) + ratio * rho * rho * lam * lam / 2.0,
    )


def asymptotic_phase_derivative(lam: float, well: Well) -> float:
    """The small-lambda law of sigma'(lambda) for the well's zero-energy case."""
    if not (lam > 0):
        raise DomainError("asymptotic sigma' is defined for lambda > 0")
    return _small_lambda_law(lam, well)[0]


def breit_wigner_overlay(lambda_grid, resonances) -> np.ndarray:
    """Sum of resonance peaks (-Im k)/(pi |lambda - k|^2) over the grid.

    Every resonance must be finite with Im < 0.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    out = np.zeros_like(grid)
    for k in resonances:
        k = complex(k)
        if not (np.isfinite(k) and k.imag < 0):
            raise DomainError(f"resonance {k} is not finite with Im < 0")
        out += (-k.imag) / (math.pi * np.abs(grid - k) ** 2)
    return out


def scattering_phase(lam: float, well: Well) -> float:
    """sigma(lambda) = integral of sigma' from 0, normalized to sigma(0) = 0.

    Below the split point 1e-6 the small-lambda law is integrated in closed form
    (sigma' there behaves like -1/(lambda log^2 lambda), integrable but
    stiff).  Above it, 8-point Gauss-Legendre on SIGMA_PANELS equal panels in
    t = log lambda integrates lambda sigma', each round sending every open
    panel, whole and halved, to one array call.  A panel is accepted once the
    two agree to its share of SIGMA_TARGET plus SIGMA_NOISE of its integral
    of |lambda sigma'|; QuadratureError when more than SIGMA_MAX_OPEN panels
    are open or the accepted differences add up to more than SIGMA_ERROR.
    """
    if not (0 < lam <= LAMBDA_MAX):
        raise RangeError(f"lambda = {lam} outside validated range (0, {LAMBDA_MAX}]")
    if lam <= SIGMA_SPLIT:
        return _small_lambda_law(lam, well)[1]
    # computed here, not at import: the eigenvalue solve costs about 1 MB of RSS
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t0, t1 = math.log(SIGMA_SPLIT), math.log(lam)
    edges = np.linspace(t0, t1, SIGMA_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    total, err = _small_lambda_law(SIGMA_SPLIT, well)[1], 0.0
    while len(lo):
        if len(lo) > SIGMA_MAX_OPEN:
            raise QuadratureError(f"{len(lo)} panels open from lambda = {math.exp(lo.min()):.3g}")
        mid = 0.5 * (lo + hi)
        # rows: every open panel whole, then its lower and its upper half
        start, stop = np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])
        half = 0.5 * (stop - start)
        x = np.exp((start + half)[:, None] + half[:, None] * nodes)
        f = x * _phase_table(x.ravel(), well)[1].reshape(x.shape)
        whole, low, high = np.split(half * (f @ weights), 3)
        size = (half * (np.abs(f) @ weights))[: len(lo)]
        halves = low + high
        diff = np.abs(whole - halves)
        done = diff <= SIGMA_TARGET * (hi - lo) / (t1 - t0) + SIGMA_NOISE * size
        total += float(halves[done].sum())
        err += float(diff[done].sum())
        lo, hi = np.concatenate([lo[~done], mid[~done]]), np.concatenate([mid[~done], hi[~done]])
    if err > SIGMA_ERROR:
        raise QuadratureError(f"quadrature error estimate {err:.2e} > {SIGMA_ERROR}")
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
    def build(cls, lambda_grid, well: Well, include_modes: int | None = None) -> "PhaseTable":
        grid = np.asarray(lambda_grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0 or not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
            raise DomainError("lambda grid must be a nonempty 1-d array, positive and increasing")
        table, totals, l_max = _phase_table(grid, well, include_modes or 0)
        per_mode = None if include_modes is None else dict(enumerate(table[: include_modes + 1]))
        return cls(lambda_grid=grid, total=totals, l_max=l_max, per_mode=per_mode)
