"""Guess formulas, Newton refinement, eps-tracks, persistence verdicts."""

import cmath
import math

import pytest

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
    bessel_zero,
    fit_first_correction,
    initial_guess,
    persistence_verdict,
    refine,
    sector_scan,
    track,
)

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


def test_guess_kind_validation():
    with pytest.raises(DomainError):
        GuessKind("persist-lw", 0)
    with pytest.raises(DomainError):
        GuessKind("disappearing0", 1)
    with pytest.raises(DomainError):
        GuessKind("persist-sqrt")
    with pytest.raises(DomainError):
        GuessKind("bogus", 0)


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


def test_refine_respects_iteration_budget():
    guess = initial_guess(2, 0.09, FAM_S, GuessKind.persist_sqrt(0))
    rec = refine(2, guess, FAM_S.well(0.09), max_iter=1)
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
    with pytest.raises(DomainError):
        track(2, FAM_S, (), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        track(2, FAM_S, (-0.1, 0.0, 0.1), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        track(2, FAM_S, (0.04, 0.09, 0.02), GuessKind.persist_sqrt(0))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_track_rejects_non_finite_eps(eps):
    with pytest.raises(DomainError):
        track(2, FAM_S, (0.04, eps), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        track(2, FAM_S, (eps,), GuessKind.persist_sqrt(0))


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
    assert persistence_verdict(trk, scan_eps=(0.1, 0.2)) is Verdict.DISAPPEARS


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


# ------------------------------------------------------------- diagnostics


def test_fit_first_correction_smoke():
    trk = track(2, FAM_S, (0.02, 0.04, 0.08, 0.16), GuessKind.persist_sqrt(0))
    c = fit_first_correction(trk)
    assert cmath.isfinite(c)
    # correction is a genuine next-order effect, not noise
    assert 1e-4 < abs(c) < 10.0


def test_fit_first_correction_needs_two_points():
    trk = track(2, FAM_S, (0.09,), GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        fit_first_correction(trk)
