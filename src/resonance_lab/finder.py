"""Resonance location: asymptotic guesses, Newton refinement, tracks.

Eigenvalues and resonances of a mode ell are the zeros of char_q on the
logarithmic cover.  Near zero energy they form branch-indexed families, and
each family has a closed-form leading approximation that serves as a Newton
starting point:

* Disappearing0 (ell = 0, deepening only): log-scale guess
  lambda = (2/rho) exp(2/(rho^2 eps) - gamma + i pi/2); for eps > 0 the
  mode-0 zero leaves every small sector, so there is nothing to guess.
* PersistSqrt (|ell| >= 2, sheet m): lambda^2 = eps (|ell|-1)/|ell| placed
  at arg = m pi (eps > 0) or m pi + pi/2 (eps < 0).
* PersistLw (|ell| = 1, branch n != 0): log lambda = log(2/rho) + 1/2
  - gamma + i pi/2 + W_n(eps rho^2 e^{2 gamma - 1}/4)/2.

Refinement runs Newton on Q_ell in the log(lambda) coordinate, which keeps
the iteration on whatever sheet the guess started and makes sheet drift an
observable (warned) event rather than a silent wraparound.  A track refines
all its guesses in lockstep, one batched Q evaluation per Newton step, with
the records of one chain per guess; its continuation from the previous root
runs point after point through refine.  Each Q evaluation is one Batch of
points: one scipy call per Bessel function, and the scalar arithmetic at
each point, so a batch gives the bits of char_q calls at its points.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cylinder import EULER_GAMMA, Batch, SurfacePoint, _cpus, _integer
from .errors import (
    DomainError,
    Inconclusive,
    RangeError,
    SheetDriftWarning,
    StructureError,
)
from .lambert import lambert_w
from .well import (
    CouplingFamily,
    Well,
    ZeroEnergyKind,
    _q_terms,
    char_q,
    zero_energy_kind,
)

# Newton stays honest only if the guess is in the small-|lambda| regime the
# asymptotics cover; outside it we record NotFound instead of wandering
GUESS_BASIN = 3.0
RESIDUAL_TOL = 1e-9
EIGEN_ARG_TOL = 1e-6
FD_STEP = 1e-7
# Newton stops once a step in log lambda is this small, or after MAX_ITER steps
STEP_TOL = 1e-12
MAX_ITER = 20
# sector_scan reports a zero where |Q_0| dips below this share of its median
SCAN_DEPTH_TOL = 1e-3


class Classification(enum.Enum):
    EIGENVALUE = "eigenvalue"
    RESONANCE = "resonance"
    NOT_FOUND = "not-found"


class Verdict(enum.Enum):
    PERSISTS = "persists"
    DISAPPEARS = "disappears"


@dataclass(frozen=True)
class GuessKind:
    """Guess family selector; persist kinds carry their branch index."""

    family: str
    branch: int | None = None

    _FAMILIES = ("disappearing0", "persist-lw", "persist-sqrt")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise DomainError(f"unknown guess family {self.family!r}")
        if self.family == "disappearing0" and self.branch is not None:
            raise DomainError("disappearing0 carries no branch index")
        if self.family != "disappearing0" and self.branch is None:
            raise DomainError(f"{self.family} requires a branch index")
        if self.branch is not None:
            _integer(self.branch, "branch index")
        if self.family == "persist-lw" and self.branch == 0:
            raise DomainError("persist-lw branch index must be nonzero")

    @classmethod
    def disappearing0(cls) -> "GuessKind":
        return cls("disappearing0")

    @classmethod
    def persist_lw(cls, n: int) -> "GuessKind":
        return cls("persist-lw", n)

    @classmethod
    def persist_sqrt(cls, m: int) -> "GuessKind":
        return cls("persist-sqrt", m)


@dataclass(frozen=True)
class ResonanceRecord:
    """One refined point of a track."""

    epsilon: float
    guess: SurfacePoint
    refined: SurfacePoint
    residual: float
    classification: Classification
    energy: complex


@dataclass(frozen=True)
class ResonanceTrack:
    """Ordered refinement records of one mode along an eps grid."""

    ell: int
    family: CouplingFamily
    kind: GuessKind
    records: tuple[ResonanceRecord, ...]


@dataclass(frozen=True)
class SectorScan:
    """Grid scan of |Q_0| over a closed sector of the physical half-plane."""

    minimum: float
    median: float
    location: SurfacePoint
    found_zero: bool


def thread_budget() -> int:
    """The threads a large grid's scipy call is split across, the calling
    thread included: one per CPU this process may run on.  Tracks and
    Newton run on the calling thread.

    Not part of the public API: perfbench/worker.py records it in its run
    environment.
    """
    return _cpus()


def _check_structure(ell: int, family: CouplingFamily) -> None:
    # Well(a0, rho), not family.well(0.0): sqrt(a0^2) may differ from a0
    if zero_energy_kind(ell, Well(family.a0, family.rho)) is ZeroEnergyKind.NONE:
        raise StructureError(
            f"family a0 = {family.a0:.12g} has no zero-energy structure in mode "
            f"{ell}: J_{abs(ell) - 1}(rho a0) does not vanish"
        )


def initial_guess(
    ell: int, eps: float, family: CouplingFamily, kind: GuessKind
) -> SurfacePoint:
    """Leading-order location of the mode-ell zero at coupling offset eps.

    Raises StructureError when the family has no zero-energy structure in
    this mode at eps = 0, and DomainError for eps = 0, a non-finite eps, or
    a disappearing0 guess with eps > 0 (the zero has left every small sector).
    """
    if eps == 0 or not math.isfinite(eps):
        raise DomainError(f"eps = {eps} must be finite and nonzero (0 is the degenerate point)")
    n = abs(ell)
    rho = family.rho
    if kind.family == "disappearing0":
        if n != 0:
            raise DomainError("disappearing0 guesses apply to ell = 0 only")
        _check_structure(0, family)
        if eps > 0:
            raise DomainError("no small zero exists for eps > 0 in mode 0")
        w = (
            math.log(2.0 / rho)
            + 2.0 / (rho * rho * eps)
            - EULER_GAMMA
            + 1j * (math.pi / 2)
        )
        return SurfacePoint(w)
    if kind.family == "persist-sqrt":
        if n < 2:
            raise DomainError("persist-sqrt guesses apply to |ell| >= 2")
        _check_structure(n, family)
        m = kind.branch
        arg = m * math.pi + (math.pi / 2 if eps < 0 else 0.0)
        return SurfacePoint(
            0.5 * math.log(abs(eps) * (n - 1) / n) + 1j * arg
        )
    # persist-lw
    if n != 1:
        raise DomainError("persist-lw guesses apply to |ell| = 1")
    _check_structure(1, family)
    x = eps * rho * rho * math.exp(2.0 * EULER_GAMMA - 1.0) / 4.0
    w = (
        math.log(2.0 / rho)
        + 0.5
        - EULER_GAMMA
        + 1j * (math.pi / 2)
        + 0.5 * lambert_w(kind.branch, x)
    )
    return SurfacePoint(w)


def _not_found(eps: float, guess: SurfacePoint, last: SurfacePoint) -> ResonanceRecord:
    try:
        energy = last.value ** 2
    except OverflowError:
        energy = complex(math.inf, math.inf)
    return ResonanceRecord(
        epsilon=eps,
        guess=guess,
        refined=last,
        residual=math.inf,
        classification=Classification.NOT_FOUND,
        energy=energy,
    )


def _q_rows(n: int, rows: list, wells: list, terms: bool) -> list:
    """Q_n (or, with terms, its two terms) at each log-point of each row, in
    the row's well, as Python complex.

    All points go to one _q_terms call as a Batch, one depth per point (the
    wells of a track share rho), so each Bessel function is one scipy call
    and each point keeps the bits of a char_q call there.  A row reads None
    where its evaluation leaves the validated range (RangeError,
    OverflowError): a batch that raises one is redone row by row.
    """
    if not rows:
        return []
    try:
        return _q_batch(n, rows, wells, terms)
    except (RangeError, OverflowError):
        if len(rows) == 1:
            return [None]
    out = []
    for row, well in zip(rows, wells):
        try:
            out += _q_batch(n, [row], [well], terms)
        except (RangeError, OverflowError):
            out.append(None)
    return out


def _q_batch(n: int, rows: list, wells: list, terms: bool) -> list:
    """_q_rows for rows that all stay in range, from one _q_terms call."""
    points, depths = [], []
    for row, well in zip(rows, wells):
        points += row
        depths += [well.a] * len(row)
    t1, t2 = _q_terms(n, SurfacePoint(Batch(points)), Batch(depths), wells[0].rho)
    values = list(zip(t1, t2)) if terms else [a - b for a, b in zip(t1, t2)]
    out, k = [], 0
    for row in rows:
        out.append(values[k : k + len(row)])
        k += len(row)
    return out


def _refine_all(
    n: int, starts: list, wells: list, epsilons: list
) -> list[ResonanceRecord]:
    """Newton refinement of char_q from each start in its own well, all in
    lockstep: each step is one _q_rows call over the central-difference
    points of every start still running, and one more gives the residuals.
    The per-point arithmetic is refine's, on Python complex values, so each
    record is the one a refinement of that start alone gives.
    """
    records: list = [None] * len(starts)
    w = [start.log_value for start in starts]

    def lost(i: int) -> None:
        records[i] = _not_found(epsilons[i], starts[i], SurfacePoint(w[i]))

    running = []
    for i, start in enumerate(starts):
        # compare in log scale so absurd guesses cannot overflow exp()
        if start.log_value.real > math.log(GUESS_BASIN):
            records[i] = _not_found(epsilons[i], start, start)
        else:
            running.append(i)
    stopped = []
    for _ in range(MAX_ITER):
        if not running:
            break
        rows = [(w[i], w[i] + FD_STEP, w[i] - FD_STEP) for i in running]
        values = _q_rows(n, rows, [wells[i] for i in running], terms=False)
        still = []
        for i, row in zip(running, values):
            if row is None:
                lost(i)
                continue
            f, q_up, q_down = row
            try:
                fp = (q_up - q_down) / (2 * FD_STEP)
                if fp == 0 or not (abs(f) < math.inf and abs(fp) < math.inf):
                    lost(i)
                    continue
                dw = f / fp
                w[i] = w[i] - dw
                (stopped if abs(dw) <= STEP_TOL else still).append(i)
            except OverflowError:
                lost(i)
        running = still
    stopped = sorted(stopped + running)
    values = _q_rows(n, [(w[i],) for i in stopped], [wells[i] for i in stopped], terms=True)
    for i, row in zip(stopped, values):
        if row is None:
            lost(i)
            continue
        ((t1, t2),) = row
        try:
            scale = abs(t1) + abs(t2)
            residual = abs(t1 - t2) / scale if scale > 0 else math.inf
        except OverflowError:
            lost(i)
            continue
        records[i] = _record(epsilons[i], starts[i], SurfacePoint(w[i]), residual)
    return records


def _record(
    eps: float, guess: SurfacePoint, refined: SurfacePoint, residual: float
) -> ResonanceRecord:
    """The record of a Newton run that stopped at refined."""
    if not (residual <= RESIDUAL_TOL):
        return _not_found(eps, guess, refined)

    if abs(refined.argument - guess.argument) > math.pi / 2:
        warnings.warn(
            f"refined arg {refined.argument:.4f} drifted from guess arg "
            f"{guess.argument:.4f}",
            SheetDriftWarning,
            stacklevel=4,
        )

    energy = refined.value ** 2
    on_axis = abs(refined.argument - math.pi / 2) <= EIGEN_ARG_TOL
    real_energy = abs(energy.imag) <= 1e-8 * abs(energy)
    classification = (
        Classification.EIGENVALUE if on_axis and real_energy else Classification.RESONANCE
    )
    return ResonanceRecord(
        epsilon=eps,
        guess=guess,
        refined=refined,
        residual=residual,
        classification=classification,
        energy=energy,
    )


def refine(
    ell: int,
    guess: SurfacePoint,
    well: Well,
    epsilon: float = math.nan,
) -> ResonanceRecord:
    """Newton refinement of char_q in the log(lambda) coordinate.

    Runs at most MAX_ITER steps with central-difference derivatives (step
    1e-7 in log lambda, i.e. 1e-7*|lambda| in lambda), stopping when the
    step drops below STEP_TOL.  The record is NotFound when the normalized
    residual |Q|/(|t1|+|t2|) stays above 1e-9, when evaluation leaves the
    kernel's validated range, or when the guess is outside the small-energy
    basin |lambda| <= 3.  A SheetDriftWarning is issued when the refined
    argument moved more than pi/2 from the guess.  This is the one-start
    case of the Newton loop that track runs over all its guesses at once,
    so every step is one Batch of three points.
    """
    return _refine_all(abs(ell), [guess], [well], [epsilon])[0]


def _validate_eps_grid(eps_list: tuple[float, ...]) -> None:
    """The grid's shape; initial_guess checks each eps itself."""
    if not eps_list:
        raise DomainError("eps grid is empty")
    diffs = [b - a for a, b in zip(eps_list, eps_list[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise DomainError("eps grid must be strictly monotone")


def track(
    ell: int,
    family: CouplingFamily,
    eps_list: tuple[float, ...] | list[float],
    kind: GuessKind,
) -> ResonanceTrack:
    """Refine the mode-ell family over an ordered eps grid.

    Each point is refined from its asymptotic guess, all points in lockstep
    (one batched Q evaluation per Newton step), and then, in order, once a
    zero has been kept, again from the previous kept zero (continuation,
    through refine); the result with the smaller residual is kept, recorded
    against the asymptotic guess.  NotFound points are recorded and the
    track continues.
    """
    eps_tuple = tuple(float(e) for e in eps_list)
    # every guess and well is built before any refinement, so a bad grid
    # point raises before work is done; the guesses go first, so a zero or
    # non-finite eps is reported by name
    guesses = [initial_guess(ell, e, family, kind) for e in eps_tuple]
    _validate_eps_grid(eps_tuple)
    wells = [family.well(e) for e in eps_tuple]

    records = _refine_all(abs(ell), guesses, wells, eps_tuple)
    prev: SurfacePoint | None = None
    for i, (eps, guess, well) in enumerate(zip(eps_tuple, guesses, wells)):
        if prev is not None:
            alt = refine(ell, prev, well, epsilon=eps)
            if alt.residual < records[i].residual:
                records[i] = dataclasses.replace(alt, guess=guess)
        if records[i].classification is not Classification.NOT_FOUND:
            prev = records[i].refined
    return ResonanceTrack(ell=ell, family=family, kind=kind, records=tuple(records))


def sector_scan(
    well: Well,
    radius: float = 0.3,
    n_radii: int = 200,
    n_angles: int = 60,
) -> SectorScan:
    """Scan |Q_0| over {0 < |lambda| <= radius, |arg lambda| <= pi/2}.

    found_zero is True when some grid point dips below SCAN_DEPTH_TOL times
    the grid median, the signature of a zero inside the sector.  The grid
    needs integers n_radii >= 1 and n_angles >= 2; one char_q call
    evaluates all of it.
    """
    _integer(n_radii, "n_radii")
    _integer(n_angles, "n_angles")
    if not (n_radii >= 1 and n_angles >= 2):
        raise DomainError(f"sector grid {n_radii} x {n_angles} needs n_radii >= 1, n_angles >= 2")
    radii = radius * np.arange(1, n_radii + 1) / n_radii
    angles = -math.pi / 2 + math.pi * np.arange(n_angles) / (n_angles - 1)
    # radius-major, as best is read below
    q = char_q(0, SurfacePoint.from_polar(radii[:, None], angles), well).ravel()
    q = np.hypot(q.real, q.imag)
    best, k = int(np.argmin(q)), len(q) // 2
    minimum, median = float(q[best]), float(np.partition(q, k)[k])
    return SectorScan(
        minimum=minimum,
        median=median,
        location=SurfacePoint.from_polar(
            float(radii[best // n_angles]), float(angles[best % n_angles])
        ),
        found_zero=minimum < SCAN_DEPTH_TOL * median,
    )


def persistence_verdict(trk: ResonanceTrack) -> Verdict:
    """Decide whether the zero-energy family persists through eps = 0.

    Persist-type tracks must span both signs of eps with a gap-free,
    jump-bounded chain of found zeros; broken chains raise Inconclusive.
    Disappearing0 tracks (eps < 0 only) are judged by sector scans on the
    shallow side, at the two smallest |eps| of the track: no dip of |Q_0|
    anywhere in the sector means Disappears.
    """
    recs = trk.records
    for i, rec in enumerate(recs):
        if rec.classification is Classification.NOT_FOUND and 0 < i < len(recs) - 1:
            raise Inconclusive(f"interior NotFound gap at eps = {rec.epsilon}")
    found = [r for r in recs if r.classification is not Classification.NOT_FOUND]
    if not found:
        raise Inconclusive("no refined zeros in the track")

    if trk.kind.family == "disappearing0":
        mags = sorted(abs(r.epsilon) for r in recs)
        for e in dict.fromkeys(mags[:2]):
            if sector_scan(trk.family.well(e)).found_zero:
                return Verdict.PERSISTS
        return Verdict.DISAPPEARS

    signs = {math.copysign(1.0, r.epsilon) for r in found}
    if len(signs) < 2:
        raise DomainError("persistence needs a track spanning both signs of eps")
    for a, b in zip(found, found[1:]):
        jump = abs(a.refined.value - b.refined.value)
        allowed = 2.0 * (a.refined.modulus + b.refined.modulus) + 1e-6
        if jump > allowed:
            raise Inconclusive(
                f"jump {jump:.3e} between eps = {a.epsilon} and {b.epsilon}"
            )
    return Verdict.PERSISTS
