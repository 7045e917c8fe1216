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
runs point after point through refine.  Each Q evaluation is one call of
well's list body, _q_lists, over flat lists of points and depths; the
finder is its one caller.  It returns the two terms (t1, t2) of Q at each
point: one jv and one yv call, and Python complex arithmetic at each point,
so t1 - t2 has the bits of a char_q call there, whose scalar form is the
0-d case of the array body.
A track checks its family's zero-energy structure once.
Every record, found or not, is built in one place, which alone decides
NOT_FOUND.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .cylinder import EULER_GAMMA, SurfacePoint, _cpus, _finite, _integer, _positive
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
    _one_point,
    _q_lists,
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
    thread included: one per CPU this process may run on.  Order tables, tracks and
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

    Raises StructureError when the family has no zero-energy structure in this
    mode at eps = 0, and DomainError for a mode that is not an integer, an eps
    that is not one finite nonzero real number (0 is the degenerate point), or
    a disappearing0 guess with eps > 0 (the zero has left every small sector);
    RangeError for an eps so small that the guess has no logarithm: a
    persist-sqrt |eps| (n-1)/n that underflows, or a disappearing0
    2/(rho^2 eps) that overflows (lambda would be 0).
    """
    return _guesses(ell, (eps,), family, kind)[0]


def _guesses(ell: int, eps_list: tuple, family: CouplingFamily, kind: GuessKind) -> list:
    """initial_guess at each eps of eps_list in turn, raising what the first
    call to fail would raise.  Whether the kind applies to the mode, and the
    family's zero-energy structure, do not depend on eps: they are checked
    with the first eps alone."""
    _integer(ell, "mode")
    n, rho = abs(ell), family.rho
    guesses = []
    for eps in eps_list:
        _finite(eps, "eps", numbers.Real, nonzero=True)
        eps = float(eps)
        if not guesses:
            applies, modes = {"disappearing0": (n == 0, "ell = 0 only"), "persist-lw": (n == 1, "|ell| = 1"),
                              "persist-sqrt": (n >= 2, "|ell| >= 2")}[kind.family]
            if not applies:
                raise DomainError(f"{kind.family} guesses apply to {modes}")
            _check_structure(n, family)
        if kind.family == "disappearing0":
            if eps > 0:
                raise DomainError("no small zero exists for eps > 0 in mode 0")
            power = 2.0 / (rho * rho * eps) if rho * rho * eps else -math.inf
            if power == -math.inf:  # lambda = e^w would be 0, which has no logarithm
                raise RangeError(f"eps {eps!r} is too small for a guess: 2/(rho^2 eps) overflows")
            w = math.log(2.0 / rho) + power - EULER_GAMMA + 1j * (math.pi / 2)
        elif kind.family == "persist-sqrt":
            m = kind.branch
            arg = m * math.pi + (math.pi / 2 if eps < 0 else 0.0)
            square = abs(eps) * (n - 1) / n
            if square == 0.0:  # a subnormal eps underflows: lambda^2 has no logarithm
                raise RangeError(f"eps {eps!r} is too small for a guess: |eps| (n-1)/n is 0")
            w = 0.5 * math.log(square) + 1j * arg
        else:
            x = eps * rho * rho * math.exp(2.0 * EULER_GAMMA - 1.0) / 4.0
            w = math.log(2.0 / rho) + 0.5 - EULER_GAMMA + 1j * (math.pi / 2) + 0.5 * lambert_w(kind.branch, x)
        guesses.append(SurfacePoint(w))
    return guesses


def _q_rows(n: int, points: list, depths: list, rho: float, width: int) -> tuple[list, list]:
    """The two terms t1, t2 of Q_n at each log-point, each in a well of
    radius rho and of its own depth, as flat lists of Python complex: Q is
    t1 - t2 and |t1| + |t2| its scale.  All points go to one _q_lists call,
    so each keeps the bits of a char_q call there.  They form rows of width
    points, one per start; a row reads None at each point where its
    evaluation leaves the validated range (RangeError, OverflowError): a
    call over several rows that raises one is redone row by row.
    """
    if not points:
        return [], []
    try:
        return _q_lists(n, points, depths, rho)
    except (RangeError, OverflowError):
        if len(points) == width:
            return [None] * width, [None] * width
    rows = [_q_rows(n, points[k : k + width], depths[k : k + width], rho, width)
            for k in range(0, len(points), width)]
    return [t for t1, _ in rows for t in t1], [t for _, t2 in rows for t in t2]


def _refine_all(
    n: int, starts: list, wells: list, epsilons: list
) -> list[ResonanceRecord]:
    """Newton refinement of char_q from each start in its own well (the
    wells share rho), all in lockstep: each step is one _q_rows call over
    the flat list of central-difference points of every start still
    running, whose Q values are t1 - t2, and one more gives the residuals.
    The per-point arithmetic is refine's, on Python complex values, so each
    record is the one a refinement of that start alone gives.  Every record
    comes from _record; a start outside the basin, or lost on the way,
    passes residual inf.
    """
    records: list = [None] * len(starts)
    w = [start.log_value for start in starts]
    depths = [well.a for well in wells]
    rho = wells[0].rho

    def lost(i: int) -> None:
        records[i] = _record(epsilons[i], starts[i], SurfacePoint(w[i]), math.inf)

    running = []
    for i, start in enumerate(starts):
        # compare in log scale so absurd guesses cannot overflow exp()
        if start.log_value.real > math.log(GUESS_BASIN):
            lost(i)
        else:
            running.append(i)
    stopped = []
    for _ in range(MAX_ITER):
        if not running:
            break
        points = [x for i in running for x in (w[i], w[i] + FD_STEP, w[i] - FD_STEP)]
        t1, t2 = _q_rows(n, points, [depths[i] for i in running for _ in (0, 1, 2)], rho, 3)
        still = []
        for i, k in zip(running, range(0, len(points), 3)):
            if t1[k] is None:
                lost(i)
                continue
            f, q_up, q_down = t1[k] - t2[k], t1[k + 1] - t2[k + 1], t1[k + 2] - t2[k + 2]
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
    t1, t2 = _q_rows(n, [w[i] for i in stopped], [depths[i] for i in stopped], rho, 1)
    for i, a, b in zip(stopped, t1, t2):
        residual = math.inf
        if a is not None:
            try:
                scale = abs(a) + abs(b)
                residual = abs(a - b) / scale if scale > 0 else math.inf
            except OverflowError:
                pass
        records[i] = _record(epsilons[i], starts[i], SurfacePoint(w[i]), residual)
    return records


def _record(
    eps: float, guess: SurfacePoint, refined: SurfacePoint, residual: float
) -> ResonanceRecord:
    """The record of a Newton run from guess that stopped at refined, the
    one place NOT_FOUND is decided: unless residual <= RESIDUAL_TOL the
    record is NOT_FOUND with residual inf (a lost start passes inf).  Only a
    found record is checked for sheet drift and classified."""
    try:
        energy = refined.value ** 2
    except OverflowError:
        energy = complex(math.inf, math.inf)
    if not (residual <= RESIDUAL_TOL):
        classification, residual = Classification.NOT_FOUND, math.inf
    else:
        if abs(refined.argument - guess.argument) > math.pi / 2:
            warnings.warn(
                f"refined arg {refined.argument:.4f} drifted from guess arg "
                f"{guess.argument:.4f}",
                SheetDriftWarning,
                stacklevel=4,
            )
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
    so every step is one Q evaluation of three points.  guess must be one
    SurfacePoint (DomainError otherwise).
    """
    _one_point(guess, "guess")
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
    eps_list = tuple(eps_list)
    # every guess and well is built before any refinement, so a bad grid
    # point raises before work is done; the guesses go first, so an eps that
    # is not one finite nonzero real number is reported by name, and the
    # family's structure is checked once
    guesses = _guesses(ell, eps_list, family, kind)
    eps_tuple = tuple(float(e) for e in eps_list)
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
    _positive(radius, "scan radius")
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

    Persist-type tracks must span both signs of eps with a gap-free chain
    of found zeros; broken chains raise Inconclusive.  Only the gaps and the
    signs of eps are checked: nothing yet certifies that consecutive roots
    are one zero moving.
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
    return Verdict.PERSISTS
