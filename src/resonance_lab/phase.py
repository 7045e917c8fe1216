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
small-lambda law is written once, beside its integral and its split; above
the split sigma is read from the phase of Q_ell, as S_ell = -conj(Q_ell)/Q_ell
(Birman-Krein).  Breit-Wigner peak overlays compare sigma' with resonances.

Everything here is real arithmetic.  sigma'_ell and phi_ell have one evaluation, over
ell = 0..l_max at each lambda of an array, which reads J(mu rho), J(lambda rho) and
Y(lambda rho) from one order table each, one scipy call per table on the calling thread;
the scalar calls are its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cylinder import (EULER_GAMMA, MAX_ORDER, MIN_ABS_ARGUMENT, _finite, _integer, _positive,
                       _real_grid, order_table)
from .errors import DomainError, QuadratureError, RangeError
from .well import Well, ZeroEnergyKind, zero_energy_kind

LAMBDA_MAX = 5.0
TAIL_TOL = 1e-14  # the mode sum stops once 100x the certified tail bound is below this
# scattering_phase's first panels, its branch tolerance and its node budget
SIGMA_STEPS = 16
SIGMA_BRANCH_TOL = 1e-3
SIGMA_MAX_NODES = 2048


class TotalPhaseDerivative(NamedTuple):
    value: float
    l_max: int


def _mode_values(lam: np.ndarray, need: np.ndarray, well: Well):
    """(sigma'_n, phi_n), stacked, over n = 0..need[c] at each lambda[c] of a 1-d array (0 past
    need[c]), from A_n + i B_n, the wronskian-form Q_n (see phase_shift_derivative)."""
    a, rho = well.a, well.rho
    mu = np.sqrt(lam * lam + a * a)
    n, col = np.nonzero(np.arange(need.max() + 1)[:, None] <= need)
    # C_{n-1}, C_n, ... in rows n, n + 1, ...; J(mu rho) one order past each top mode
    inner = order_table("j", need, mu * rho, spare=1)
    j_low, j, j_high = inner[n, col], inner[n + 1, col], inner[n + 2, col]
    edge_j, edge_y = order_table("j", need, lam * rho), order_table("y", need, lam * rho)
    ej_low, ej, y_low, y = edge_j[n, col], edge_j[n + 1, col], edge_y[n, col], edge_y[n + 1, col]
    lam, m = lam[col], mu[col]
    with np.errstate(all="ignore"):
        big_a = m * j_low * ej - lam * j * ej_low
        big_b = m * j_low * y - lam * j * y_low
        # inf - inf where Y_{n-1} and Y_n(lambda rho) overflow: B is its Y_n term's, the larger
        lost = np.isnan(big_b)
        big_b[lost] = np.copysign(np.inf, -j_low[lost])
        out = (2.0 * a * a) / (math.pi**2 * lam) * j_low * j_high / (big_a * big_a + big_b * big_b)
        phase = np.arctan2(big_b, big_a)
    values = np.zeros((2, need.max() + 1, len(need)))
    values[:, n, col] = out, phase
    return values


def phase_shift_derivative(ell: int, lam: float, well: Well) -> float:
    """Exact sigma'_ell(lambda), MIN_ABS_ARGUMENT <= lambda <= LAMBDA_MAX, at n = |ell|, with
    no division by J'_n: 2 a^2 J_{n-1}(mu rho) J_{n+1}(mu rho) / (pi^2 lambda |Q_n|^2),
    Q_n = char_q(n, lambda); 0, its limit, where |Q_n| is past the float range (high modes
    at small lambda)."""
    _integer(ell, "mode")
    _positive(lam, "lambda")
    return float(_mode_values(_in_range(np.array([float(lam)])), np.array([abs(ell)]), well)[0, -1, 0])


@np.errstate(all="ignore")
def mode_tail_bound(ell, lam, well: Well):
    """Tail majorant (ell^3/(mu^2 lambda)) (lambda rho e/(2 ell))^{2 ell}.

    Valid (with a 100x safety margin) for ell beyond e*lambda*rho/2; the
    measured |sigma'_ell| stays below 100 times this value there.  Integer ell
    and lambda broadcast; scalars give a float.  Where the power underflows to
    0 the bound is 0, though the factor before it may overflow (tiny lambda).
    """
    ell, lam = np.asarray(ell), _real_grid(lam, "lambda")
    if not (ell.dtype.kind in "iu" and lam.min(initial=1.0) > 0 and ell.min(initial=1) >= 1):
        raise DomainError("tail bound needs integer ell >= 1 and lambda > 0")
    mu_sq = lam * lam + well.a * well.a
    two_ell = 2.0 * ell
    power = np.exp(two_ell * np.log(lam * well.rho * math.e / two_ell))
    # ell**3.0 is a float power: a small integer dtype does not wrap
    out = np.where(power > 0.0, (ell**3.0 / (mu_sq * lam)) * power, 0.0)
    return out if out.ndim else float(out)


def _mode_cutoff(lam: np.ndarray, well: Well) -> np.ndarray:
    """The certified l_max at each lambda of a 1-d array: one less than the first
    ell >= max(3, ceil(e lambda rho/2) + 1) with 100 x mode_tail_bound below TAIL_TOL,
    searched in blocks from there that double until all are found (order_table bounds it).
    It is at least 2: mode 2 shares mode 0's threshold, which the generic lambda^(2 ell) misses."""
    start = np.maximum(3, np.ceil(math.e * lam * well.rho / 2.0).astype(int) + 1)
    for span in (16, 32, 64, 128, 256):
        ell = start + np.arange(span)[:, None]
        ok = 100.0 * mode_tail_bound(ell, lam, well) < TAIL_TOL
        if ok.any(axis=0).all():
            return start + ok.argmax(axis=0) - 1
    raise RangeError(f"mode sum failed to certify truncation by ell = {ell.max()}")


def _in_range(lam: np.ndarray) -> np.ndarray:
    """lam, a 1-d array, once all of it is in [MIN_ABS_ARGUMENT, LAMBDA_MAX]: every sigma'
    entry's range, whose lower end is the cylinder functions'."""
    if not (lam.min() >= MIN_ABS_ARGUMENT and lam.max() <= LAMBDA_MAX):
        raise RangeError(
            f"lambda in [{lam.min()}, {lam.max()}] outside [{MIN_ABS_ARGUMENT}, {LAMBDA_MAX}]")
    return lam


def _phase_table(lam: np.ndarray, well: Well, modes: int = 0):
    """sigma'_ell and phi_ell, stacked, over ell = 0..max(l_max, modes) at each lambda
    of a 1-d array (0 past both, unevaluated), the totals sigma' and the cutoffs l_max."""
    l_max = _mode_cutoff(_in_range(lam), well)
    values = _mode_values(lam, np.maximum(l_max, modes), well)
    # sigma'_0 + 2 sigma'_1 + ... added mode by mode, in that order (an
    # accumulate, not a pairwise sum), and each total read at its l_max
    terms = 2.0 * values[0]
    terms[0] = values[0, 0]
    totals = np.add.accumulate(terms)[l_max, np.arange(len(lam))]
    return values, totals, l_max


def total_phase_derivative(lam: float, well: Well) -> TotalPhaseDerivative:
    """sigma'(lambda) summed until the certified tail drops below TAIL_TOL.

    Returns the value and the largest mode index actually summed.
    """
    _positive(lam, "lambda")
    _, totals, l_max = _phase_table(np.array([lam], dtype=float), well)
    return TotalPhaseDerivative(float(totals[0]), int(l_max[0]))


def _log_law(lam: float, u: float) -> tuple[float, float]:
    """(sigma', sigma) of the threshold term -atan(2u/pi)/pi - 1/2, u = log lambda + const."""
    return -(2.0 / lam) / (4.0 * u * u + math.pi**2), -math.atan(2.0 * u / math.pi) / math.pi - 0.5


def _small_lambda_law(well: Well):
    """(law, split): law(lambda) = (sigma', sigma), sigma the integral of sigma' over (0, lambda],
    for p-resonance (mode 1), s-resonance (mode 0) or generic wells, used up to split."""
    rho = well.rho
    if zero_energy_kind(1, well) is ZeroEnergyKind.P_RESONANCE:
        # sigma is 2.4e-6 off at 1e-6, 8.5e-10 at 1e-4: a double j_{0,1} is not exact
        def law(lam):
            u = math.log(lam * rho / 2.0) + EULER_GAMMA
            (du, su), (dv, sv) = _log_law(lam, u), _log_law(lam, u - 0.5)
            return du + 2.0 * dv, su + 2.0 * sv
        return law, 1e-4
    if zero_energy_kind(0, well) is ZeroEnergyKind.S_RESONANCE:
        return lambda lam: (-1.5 * rho * rho * lam, -0.75 * rho * rho * lam * lam), 1e-6
    # generic: u = log(lambda/2) + gamma + log rho + J_0(x)/(x J_1(x)), x = rho a
    x = rho * well.a
    j0, j1, j2 = order_table("j", np.array([1]), np.array([x]), spare=1)[1:, 0]
    c, ratio = math.log(rho) + float(j0 / (x * j1)), float(j2 / j0)
    def law(lam):
        du, su = _log_law(lam, math.log(lam / 2.0) + c + EULER_GAMMA)
        return du + ratio * rho * rho * lam, su + ratio * rho * rho * lam * lam / 2.0
    return law, 1e-6


def asymptotic_phase_derivative(lam: float, well: Well) -> float:
    """The small-lambda law of sigma'(lambda) for the well's zero-energy case."""
    _positive(lam, "lambda")
    return _small_lambda_law(well)[0](lam)[0]


def breit_wigner_overlay(lambda_grid, resonances) -> np.ndarray:
    """Sum of resonance peaks (-Im k)/(pi |lambda - k|^2) over the grid.

    Every lambda must be finite and real, every resonance finite with Im < 0.
    """
    grid = _real_grid(lambda_grid, "lambda")
    out = np.zeros_like(grid)
    for k in resonances:
        _finite(k, "resonance")
        if not k.imag < 0:
            raise DomainError(f"resonance {k!r} has Im >= 0")
        out += (-k.imag) / (math.pi * np.abs(grid - k) ** 2)
    return out


def scattering_phase(lam: float, well: Well) -> float:
    """sigma(lambda) = integral of sigma' from 0, normalized to sigma(0) = 0.

    Up to the split of the small-lambda law it is the law's integral; above, sigma_ell
    moves by -1/pi times the change of phi_ell, known modulo 2.  On SIGMA_STEPS panels,
    equal in log lambda, each half takes the even integer nearest its trapezoid of
    lambda sigma'_ell, and a panel is halved until both halves and their sum are within
    SIGMA_BRANCH_TOL of the trapezoids of the halves and the whole (QuadratureError past
    SIGMA_MAX_NODES nodes).  If all three miss by one even integer, as with two narrow
    resonances of one mode between two nodes, sigma is off by it (twice for ell >= 1).
    """
    _positive(lam, "lambda")
    _in_range(np.array([float(lam)]))
    law, split = _small_lambda_law(well)
    if lam <= split:
        return law(lam)[1]
    x = np.geomspace(split, lam, 2 * SIGMA_STEPS + 1)
    values, _, l_max = _phase_table(x, well)
    # no later node needs more rows (the cutoff grows with lambda); on panel k, nodes 2k..2k+2,
    # a mode counts where both ends count it
    ell = np.arange(len(values[0]))[:, None]
    while True:
        live = ell <= np.minimum(l_max[:-2:2], l_max[2::2])
        f, t = x * values[0], np.log(x)
        half = 0.5 * np.diff(t) * (f[:, :-1] + f[:, 1:])
        step = -np.diff(values[1]) / math.pi
        step += 2.0 * np.round((half - step) / 2.0)
        pair = step[:, ::2] + step[:, 1::2]
        whole = 0.5 * (t[2::2] - t[:-2:2]) * (f[:, :-2:2] + f[:, 2::2])
        off = np.maximum(np.abs(step - half).reshape(len(ell), -1, 2).max(axis=2), np.abs(pair - whole))
        at = np.nonzero((live & ~(off <= SIGMA_BRANCH_TOL)).any(axis=0))[0]
        if not len(at):
            break
        at = (2 * at[:, None] + np.array([1, 2])).ravel()  # both halves' midpoints
        if len(x) + len(at) > SIGMA_MAX_NODES:
            raise QuadratureError(f"sigma's branch is open on {len(at) // 2} panels at {len(x)} nodes")
        mid = np.sqrt(x[at - 1] * x[at])
        more, _, more_l_max = _phase_table(mid, well, len(ell) - 1)
        x, l_max = np.insert(x, at, mid), np.insert(l_max, at, more_l_max)
        values = np.insert(values, at, more, axis=2)
    sums = np.where(live, pair, 0.0).sum(axis=1)
    return law(split)[1] + float(sums[0] + 2.0 * sums[1:].sum())


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
        grid = _real_grid(lambda_grid, "lambda")
        if grid.ndim != 1 or len(grid) == 0 or not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
            raise DomainError("lambda grid must be a nonempty 1-d array, positive and increasing")
        if include_modes is not None:
            _integer(include_modes, "include_modes")
            if include_modes < 0:
                raise DomainError(f"include_modes = {include_modes} must be >= 0")
            if include_modes > MAX_ORDER:
                raise RangeError(f"include_modes = {include_modes} past the largest order {MAX_ORDER}")
        (table, _), totals, l_max = _phase_table(grid, well, include_modes or 0)
        per_mode = None if include_modes is None else dict(enumerate(table[: include_modes + 1]))
        return cls(lambda_grid=grid, total=totals, l_max=l_max, per_mode=per_mode)
