"""Guess formulas, Newton refinement, eps-tracks, persistence verdicts."""

import cmath
import math
import os
import warnings

import numpy as np
import pytest

from resonance_lab import finder
from resonance_lab import (
    Classification,
    CouplingFamily,
    DomainError,
    EULER_GAMMA,
    GuessKind,
    Inconclusive,
    ResonanceRecord,
    ResonanceTrack,
    SheetDriftWarning,
    StructureError,
    SurfacePoint,
    Verdict,
    Well,
    bessel_zero,
    char_q,
    initial_guess,
    persistence_verdict,
    refine,
    sector_scan,
    track,
)
from resonance_lab.cylinder import MIN_CHUNK_POINTS, Batch
from resonance_lab.errors import RangeError
from equivalent_forms import refine_sequential, track_sequential

FAM_P = CouplingFamily(a0=bessel_zero(0, 1), rho=1.0)  # J_0 structure, |ell|=1
FAM_S = CouplingFamily(a0=bessel_zero(1, 1), rho=1.0)  # J_1 structure, ell=0 and 2
FAM_D = CouplingFamily(a0=bessel_zero(2, 1), rho=1.0)  # J_2 structure, |ell|=3

# Figure-node values: (ell, family, kind, eps) -> lambda
GOLDEN = [
    (1, FAM_P, GuessKind.persist_lw(-1), 0.09, 0.1119944 - 0.0344571j),
    (2, FAM_S, GuessKind.persist_sqrt(0), 0.09, 0.2100356 - 0.0017315j),
    (3, FAM_D, GuessKind.persist_sqrt(0), 0.09, 0.2445582 - 0.0000141j),
    (1, FAM_P, GuessKind.persist_lw(-1), -0.09, 0.1287651j),
    (2, FAM_S, GuessKind.persist_sqrt(0), -0.09, 0.2143996j),
    (3, FAM_D, GuessKind.persist_sqrt(0), -0.09, 0.2453089j),
]


# ------------------------------------------------------------------ guesses


def test_guess_disappearing0_magnitude():
    pt = initial_guess(0, -0.5, FAM_S, GuessKind.disappearing0())
    assert pt.modulus == pytest.approx(2.0 * math.exp(-4.0 - EULER_GAMMA), rel=1e-12)
    assert pt.modulus == pytest.approx(0.020566978303332505, rel=1e-9)
    assert pt.argument == pytest.approx(math.pi / 2)


def test_guess_sqrt_branch_zero():
    pt = initial_guess(2, 0.09, FAM_S, GuessKind.persist_sqrt(0))
    assert pt.value == pytest.approx(math.sqrt(0.045), rel=1e-12)
    assert pt.argument == 0.0
    assert abs(pt.value - (0.2100356 - 0.0017315j)) <= 0.015


def test_guess_lw_eigenvalue_branch():
    pt = initial_guess(1, -0.09, FAM_P, GuessKind.persist_lw(-1))
    assert abs(pt.value - 0.1287651j) <= 0.002


def test_guess_requires_structure():
    loose = CouplingFamily(a0=2.0, rho=1.0)
    with pytest.raises(StructureError):
        initial_guess(2, 0.09, loose, GuessKind.persist_sqrt(0))
    with pytest.raises(StructureError):
        initial_guess(0, -0.1, FAM_P, GuessKind.disappearing0())


def test_guess_domain_errors():
    with pytest.raises(DomainError):
        initial_guess(0, 0.1, FAM_S, GuessKind.disappearing0())
    with pytest.raises(DomainError):
        initial_guess(0, 0.0, FAM_S, GuessKind.disappearing0())
    with pytest.raises(DomainError):
        initial_guess(2, 0.1, FAM_S, GuessKind.disappearing0())
    with pytest.raises(DomainError):
        initial_guess(1, 0.1, FAM_P, GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        initial_guess(3, 0.1, FAM_D, GuessKind.persist_lw(-1))
    families = (
        (0, FAM_S, GuessKind.disappearing0()),
        (1, FAM_P, GuessKind.persist_lw(-1)),
        (2, FAM_S, GuessKind.persist_sqrt(0)),
    )
    for ell, family, kind in families:
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                initial_guess(ell, eps, family, kind)


def test_guess_kind_validation():
    with pytest.raises(DomainError):
        GuessKind("persist-lw", 0)
    with pytest.raises(DomainError):
        GuessKind("disappearing0", 1)
    with pytest.raises(DomainError):
        GuessKind("persist-sqrt")
    with pytest.raises(DomainError):
        GuessKind("bogus", 0)


# a half branch would put a persist-sqrt guess half a sheet over, at arg 3 pi/2
@pytest.mark.parametrize(
    "make", [GuessKind.persist_sqrt, GuessKind.persist_lw], ids=["persist-sqrt", "persist-lw"]
)
@pytest.mark.parametrize("branch", [1.5, -0.5, 1.0])
def test_guess_kind_rejects_non_integer_branch(make, branch):
    with pytest.raises(DomainError, match="branch index"):
        make(branch)


# --------------------------------------------------------------- refinement


@pytest.mark.parametrize("ell,family,kind,eps,expected", GOLDEN)
def test_refine_hits_figure_nodes(ell, family, kind, eps, expected):
    rec = refine(ell, initial_guess(ell, eps, family, kind), family.well(eps))
    assert abs(rec.refined.value - expected) <= 1e-5
    assert rec.residual <= 1e-9
    want = Classification.EIGENVALUE if eps < 0 else Classification.RESONANCE
    assert rec.classification is want


def test_refine_eigenvalues_have_real_negative_energy():
    for ell, family, kind, eps, _ in GOLDEN:
        if eps > 0:
            continue
        rec = refine(ell, initial_guess(ell, eps, family, kind), family.well(eps))
        assert abs(rec.energy.imag) <= 1e-10 * abs(rec.energy)
        assert rec.energy.real < 0


def test_refine_out_of_basin_is_not_found():
    rec = refine(2, SurfacePoint.from_polar(3.6514, 0.1), FAM_S.well(0.09))
    assert rec.classification is Classification.NOT_FOUND
    assert rec.residual == math.inf


def test_refine_warns_on_sheet_drift():
    # a guess planted off-axis converges back to the imaginary axis,
    # moving its argument by more than pi/2
    guess = SurfacePoint(complex(math.log(0.1287651), -0.1))
    with pytest.warns(SheetDriftWarning):
        rec = refine(1, guess, FAM_P.well(-0.09))
    assert rec.classification is Classification.EIGENVALUE
    assert rec.refined.argument == pytest.approx(math.pi / 2, abs=1e-6)


def test_refine_respects_iteration_budget(monkeypatch):
    monkeypatch.setattr(finder, "MAX_ITER", 1)
    guess = initial_guess(2, 0.09, FAM_S, GuessKind.persist_sqrt(0))
    rec = refine(2, guess, FAM_S.well(0.09))
    # one Newton step from the sqrt guess cannot reach 1e-9 residual
    assert rec.classification is Classification.NOT_FOUND


# ----------------------------------------------------------- order checks


def test_disappearing0_energy_law():
    # log(-E) = 4/eps - 2 gamma + log 4 + O(eps); measured slope ~ 0.023
    for eps in (-0.5, -0.35, -0.2, -0.1, -0.05):
        rec = refine(
            0, initial_guess(0, eps, FAM_S, GuessKind.disappearing0()), FAM_S.well(eps)
        )
        law = 4.0 / eps - 2.0 * EULER_GAMMA + math.log(4.0)
        assert abs(cmath.log(-rec.energy) - law) <= 0.1 * abs(eps)


def test_sqrt_family_error_order_stable():
    ratios = []
    for eps in (0.16, 0.08, 0.04, 0.02):
        guess = initial_guess(3, eps, FAM_D, GuessKind.persist_sqrt(0))
        rec = refine(3, guess, FAM_D.well(eps))
        assert rec.classification is Classification.RESONANCE
        ratios.append(abs(rec.refined.value - guess.value) / eps**1.5)
    for a, b in zip(ratios, ratios[1:]):
        assert b <= 2.0 * a


def test_lw_family_log_gap_shrinks():
    gaps = []
    for eps in (0.16, 0.08, 0.04, 0.02):
        guess = initial_guess(1, eps, FAM_P, GuessKind.persist_lw(-1))
        rec = refine(1, guess, FAM_P.well(eps))
        gaps.append(abs(rec.refined.log_value - guess.log_value))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_sheet_argument_placement():
    # arg lambda_eps(m) stays within O(|eps| log|eps|) of the sector anchor
    for m in (0, 1, -1):
        for eps in (0.04, -0.04, 0.09, -0.09):
            guess = initial_guess(2, eps, FAM_S, GuessKind.persist_sqrt(m))
            rec = refine(2, guess, FAM_S.well(eps))
            assert rec.classification is not Classification.NOT_FOUND
            anchor = m * math.pi + (math.pi / 2 if eps < 0 else 0.0)
            band = abs(eps) * abs(math.log(abs(eps))) + 0.02
            assert abs(rec.refined.argument - anchor) <= band


# ------------------------------------------------------------------ tracks


def test_track_classifies_crossing():
    trk = track(2, FAM_S, (-0.09, -0.04, 0.04, 0.09), GuessKind.persist_sqrt(0))
    classes = [r.classification for r in trk.records]
    assert classes[:2] == [Classification.EIGENVALUE] * 2
    assert classes[2:] == [Classification.RESONANCE] * 2
    for rec in trk.records[2:]:
        assert rec.refined.value.imag < 0
    assert [r.epsilon for r in trk.records] == [-0.09, -0.04, 0.04, 0.09]


def test_track_validates_grid():
    with pytest.raises(DomainError, match="empty"):
        track(2, FAM_S, (), GuessKind.persist_sqrt(0))
    # each eps is checked once, by initial_guess, which names it
    with pytest.raises(DomainError, match="eps = 0.0 must be finite and nonzero"):
        track(2, FAM_S, (-0.1, 0.0, 0.1), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError, match="strictly monotone"):
        track(2, FAM_S, (0.04, 0.09, 0.02), GuessKind.persist_sqrt(0))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_track_rejects_non_finite_eps(eps):
    for grid in ((0.04, eps), (eps,)):
        with pytest.raises(DomainError, match=f"eps = {eps} must be finite and nonzero"):
            track(2, FAM_S, grid, GuessKind.persist_sqrt(0))


def test_track_continuation_survives_bad_guess_point():
    # the ell=3 family has shallow basins at large eps; continuation from
    # the neighbor keeps the chain intact
    trk = track(3, FAM_D, (0.02, 0.04, 0.08, 0.16), GuessKind.persist_sqrt(0))
    assert all(
        r.classification is not Classification.NOT_FOUND for r in trk.records
    )


# ---------------------------------------------------------------- verdicts


def test_verdict_mode0_disappears():
    trk = track(0, FAM_S, (-0.2, -0.1), GuessKind.disappearing0())
    assert persistence_verdict(trk) is Verdict.DISAPPEARS


def test_verdict_mode1_persists():
    trk = track(1, FAM_P, (-0.09, -0.04, 0.04, 0.09), GuessKind.persist_lw(-1))
    assert persistence_verdict(trk) is Verdict.PERSISTS


def test_verdict_mode2_persists():
    trk = track(2, FAM_S, (-0.09, -0.04, 0.04, 0.09), GuessKind.persist_sqrt(0))
    assert persistence_verdict(trk) is Verdict.PERSISTS


def _not_found_record(eps):
    pt = SurfacePoint.from_polar(1.0, 0.0)
    return ResonanceRecord(
        epsilon=eps,
        guess=pt,
        refined=pt,
        residual=math.inf,
        classification=Classification.NOT_FOUND,
        energy=complex("nan"),
    )


def test_verdict_interior_gap_is_inconclusive():
    trk = track(2, FAM_S, (-0.09, 0.09), GuessKind.persist_sqrt(0))
    broken = ResonanceTrack(
        ell=2,
        family=FAM_S,
        kind=GuessKind.persist_sqrt(0),
        records=(trk.records[0], _not_found_record(0.01), trk.records[1]),
    )
    with pytest.raises(Inconclusive):
        persistence_verdict(broken)


def test_verdict_needs_both_signs():
    trk = track(2, FAM_S, (0.04, 0.09), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        persistence_verdict(trk)


def test_sector_scan_sees_mode0_zero_when_deepened():
    # for eps < 0 the mode-0 eigenvalue (|lambda| ~ 0.021 at eps = -0.5)
    # sits inside the sector; an odd angle count puts a node on the axis
    scan = sector_scan(FAM_S.well(-0.5), radius=0.03, n_angles=61)
    assert scan.found_zero
    assert scan.location.argument == pytest.approx(math.pi / 2)
    assert scan.location.modulus == pytest.approx(0.0206, abs=0.001)


def scan_by_scalar_calls(well, radius, n_radii, n_angles):
    """sector_scan's result from one char_q call per grid point."""
    radii = (radius * np.arange(1, n_radii + 1) / n_radii).tolist()
    angles = (-math.pi / 2 + math.pi * np.arange(n_angles) / (n_angles - 1)).tolist()
    q = [abs(char_q(0, SurfacePoint.from_polar(r, t), well)) for r in radii for t in angles]
    best = min(range(len(q)), key=q.__getitem__)  # the first minimum
    median = sorted(q)[len(q) // 2]
    location = SurfacePoint.from_polar(radii[best // n_angles], angles[best % n_angles])
    return q[best], median, location.log_value, q[best] < finder.SCAN_DEPTH_TOL * median


SCAN_GRIDS = [
    # a zero on the axis, found on a grid with a theta = 0 node (odd count)
    (FAM_S.well(-0.5), 0.03, 200, 61),
    # no zero in the sector: the even count has no theta = 0 node
    (Well(3.0), 0.3, 40, 60),
    (FAM_S.well(0.3), 0.5, 37, 21),
    (Well(2.0, 1.5), 0.1, 25, 2),
]


@pytest.mark.parametrize("well, radius, n_radii, n_angles", SCAN_GRIDS)
def test_sector_scan_equals_the_scalar_loop(well, radius, n_radii, n_angles):
    # every grid has theta = -pi/2 nodes, continued from the sheet below
    scan = sector_scan(well, radius=radius, n_radii=n_radii, n_angles=n_angles)
    got = (scan.minimum, scan.median, scan.location.log_value, scan.found_zero)
    assert got == scan_by_scalar_calls(well, radius, n_radii, n_angles)
    assert type(scan.minimum) is type(scan.median) is float
    assert type(scan.found_zero) is bool


def test_the_largest_scan_grid_is_split_across_threads():
    # on two CPUs or more, the scipy calls of the 200 x 61 grid above run in
    # chunks on threads, and of the 40 x 60 grid too; the others are one call
    sizes = [n_radii * n_angles for _, _, n_radii, n_angles in SCAN_GRIDS]
    assert [size >= 2 * MIN_CHUNK_POINTS for size in sizes] == [True, True, False, False]


def test_thread_budget_counts_the_cpus_a_grid_call_uses(monkeypatch):
    assert finder.thread_budget() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert finder.thread_budget() == 1


@pytest.mark.parametrize(
    "n_radii, n_angles", [(200, 1), (0, 60), (200, 0), (2.5, 60), (200, 60.0)]
)
def test_sector_scan_rejects_degenerate_grid(n_radii, n_angles):
    with pytest.raises(DomainError):
        sector_scan(Well(3.0), n_radii=n_radii, n_angles=n_angles)


# ------------------------------------------------------- lockstep refinement


def records_and_drifts(make):
    """repr of the records that make() returns (exact, signed zeros and all),
    and the SheetDriftWarning messages it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = make()
    drifts = [str(w.message) for w in caught if issubclass(w.category, SheetDriftWarning)]
    return repr(records), sorted(drifts)


FAMILY_OF = {0: FAM_S, 1: FAM_P, **{ell: CouplingFamily(bessel_zero(ell - 1, 1)) for ell in range(2, 6)}}
QUAD_GRID = [math.copysign(k * k * 0.02, k) for k in range(-5, 6) if k]


@pytest.mark.parametrize(
    "ell, kind",
    [(0, GuessKind.disappearing0())]
    + [(1, GuessKind.persist_lw(n)) for n in (-2, -1, 1)]
    + [(ell, GuessKind.persist_sqrt(m)) for ell in range(2, 6) for m in (-1, 0, 1)],
)
def test_lockstep_track_is_the_sequential_track(ell, kind):
    grid = [-0.15 * k for k in range(1, 11)] if ell == 0 else QUAD_GRID
    family = FAMILY_OF[ell]
    # and 2-5-point tracks, whose lockstep steps batch 1-5 rows: the middle
    # of the grid, spanning both signs of eps
    middle = len(grid) // 2
    for size in (len(grid), 2, 3, 4, 5):
        start = 0 if ell == 0 else middle - size // 2
        short = grid[start : start + size]
        want = records_and_drifts(lambda: track_sequential(ell, family, short, kind).records)
        assert records_and_drifts(lambda: track(ell, family, short, kind).records) == want


def test_lockstep_track_keeps_basin_range_and_drift_records(monkeypatch):
    # on the l = 1 family: a start outside the basin |lambda| <= 3, one whose
    # Newton run leaves |lambda rho| <= 100, and one that drifts off its sheet,
    # among on-family guesses
    eps_grid = (0.05, 0.07, 0.09, 0.11, 0.13)
    kind = GuessKind.persist_lw(-1)
    odd = {
        0.07: SurfacePoint.from_polar(4.0, 0.3),
        0.09: SurfacePoint.from_polar(0.5, 0.75),
        0.11: SurfacePoint.from_polar(0.5, 1.0),
    }
    guess_of = finder.initial_guess
    monkeypatch.setattr(
        finder, "initial_guess", lambda ell, eps, fam, k: odd.get(eps) or guess_of(ell, eps, fam, k)
    )
    grid_raised = []
    q_terms = finder._q_terms

    def spy(n, point, a, rho):
        try:
            return q_terms(n, point, a, rho)
        except RangeError:
            grid_raised.append(isinstance(point.log_value, Batch) and len(point.log_value) > 3)
            raise

    monkeypatch.setattr(finder, "_q_terms", spy)
    want = records_and_drifts(lambda: track_sequential(1, FAM_P, eps_grid, kind).records)
    assert records_and_drifts(lambda: track(1, FAM_P, eps_grid, kind).records) == want
    # a batch of several rows left the range and was redone row by row; one start drifted
    assert True in grid_raised
    assert len(want[1]) == 1
    for eps, start in odd.items():
        well = FAM_P.well(eps)
        want = records_and_drifts(lambda: [refine_sequential(1, start, well, eps)])
        assert records_and_drifts(lambda: [refine(1, start, well, eps)]) == want
    out_of_range = refine(1, odd[0.09], FAM_P.well(0.09), 0.09)
    assert out_of_range.classification is Classification.NOT_FOUND
    assert out_of_range.refined.modulus > 100


def test_a_guess_whose_value_underflows_is_not_found():
    # |lambda| ~ e^-2000 underflows to 0, where Q is NaN: Newton stops at the guess
    trk = track(0, FAM_S, (-0.001, -0.002), GuessKind.disappearing0())
    assert [r.classification for r in trk.records] == [Classification.NOT_FOUND] * 2
    assert all(r.refined == r.guess and r.energy == 0 for r in trk.records)
