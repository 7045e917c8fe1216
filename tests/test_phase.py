"""Phase-shift derivatives, mode sums, low-energy laws, Breit-Wigner."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import resonance_lab
from resonance_lab import (
    CouplingFamily,
    EULER_GAMMA,
    DomainError,
    PhaseTable,
    QuadratureError,
    RangeError,
    Well,
    asymptotic_phase_derivative,
    bessel_j,
    bessel_zero,
    breit_wigner_overlay,
    mode_tail_bound,
    mu,
    phase_shift_derivative,
    scattering_phase,
    total_phase_derivative,
)
from equivalent_forms import sigma_alternate_form, sigma_primary_form
from oracles import fd_phase_derivative, s_matrix_real_form

WELL_P = Well(a=bessel_zero(0, 1))  # J_0 zero at the edge
WELL_S = Well(a=bessel_zero(1, 1))  # J_1 zero at the edge
WELL_G = Well(a=2.0)  # no zero-energy structure


def j(n: int, x: float) -> float:
    return bessel_j(n, x).value.real


# ------------------------------------------------------------- mode values


def test_mode0_cubic_law_at_s_structure():
    lam = 1e-3
    ratio = phase_shift_derivative(0, lam, WELL_S) / lam**3
    assert ratio == pytest.approx(-1.0 / 8.0, rel=0.05)


def test_mode1_cubic_law_at_its_structure():
    well = Well(a=bessel_zero(2, 1))
    lam = 1e-3
    ratio = phase_shift_derivative(1, lam, well) / lam**3
    assert ratio == pytest.approx(1.0 / 8.0, rel=0.05)


def test_mode5_generic_leading_term():
    lam = 0.1
    lead = (j(6, 1.0) / j(4, 1.0)) / math.factorial(4) ** 2 * (lam / 2) ** 9
    value = phase_shift_derivative(5, lam, Well(a=1.0))
    assert value == pytest.approx(lead, rel=0.10)


def test_mode_derivative_matches_s_matrix_phase():
    for ell in (0, 1, 2):
        value = phase_shift_derivative(ell, 0.7, Well(a=2.4))
        fd = fd_phase_derivative(ell, 0.7, 2.4)
        assert abs(value - fd) <= 1e-6


def test_mode_value_real_through_complex_route():
    # the defining expression evaluated in complex arithmetic must come
    # back onto the real axis
    for ell, lam, well in ((1, 0.4, WELL_G), (3, 1.2, WELL_S), (0, 0.05, WELL_P)):
        a, rho = well.a, well.rho
        m = mu(complex(lam), a)
        inner = bessel_j(ell, m * rho)
        a_ell = -(lam / m) * inner.value / inner.derivative
        edge_j = bessel_j(ell, complex(lam * rho))
        from resonance_lab import bessel_y

        edge_y = bessel_y(ell, complex(lam * rho))
        num = 1.0 - (ell**2 / (lam * rho) ** 2) * a_ell**2 if ell else 1.0 + 0j
        u = edge_j.value + a_ell * edge_j.derivative
        v = edge_y.value + a_ell * edge_y.derivative
        sig = -(a * a) / (m * m) * (2.0 / (math.pi**2 * lam)) * num / (u * u + v * v)
        assert abs(sig.imag) <= 1e-11 * abs(sig)
        assert sig.real == pytest.approx(
            phase_shift_derivative(ell, lam, well), rel=1e-10
        )


@given(
    ell=st.integers(1, 10),
    lam=st.floats(0.01, 3.0),
    a=st.sampled_from([1.0, 2.4, 3.83]),
)
def test_mode_forms_agree_when_conditioned(ell, lam, a):
    well = Well(a=a)
    m = mu(complex(lam), a).real
    inner = bessel_j(ell, m * well.rho)
    low = bessel_j(ell - 1, m * well.rho)
    assume(
        abs(inner.derivative) > 1e-6 * (abs(inner.value) + abs(low.value))
    )
    # the form that divides by J'_ell(mu rho), where that is not small, against the one
    primary = sigma_primary_form(ell, lam, well)
    alternate = phase_shift_derivative(ell, lam, well)
    scale = max(abs(primary), abs(alternate), 1e-300)
    assert abs(primary - alternate) <= 1e-10 * scale


def test_mode_rejects_bad_arguments():
    with pytest.raises(DomainError):
        phase_shift_derivative(0, -1.0, WELL_G)
    # one form: there is no knob to pick another
    with pytest.raises(TypeError):
        phase_shift_derivative(1, 0.5, WELL_G, form="slick")


@pytest.mark.parametrize("form", ["primary", "alternate"])
def test_every_validated_mode_evaluates_in_every_form(form):
    # sigma'_80 reads J_81(mu rho), one order past the mode asked for; it is the
    # division-free form's bits, and the primary form's value to 1e-10
    well = Well(3.0)
    value = phase_shift_derivative(80, 1.0, well)
    if form == "alternate":
        assert value == sigma_alternate_form(80, 1.0, well)
    else:
        assert value == pytest.approx(sigma_primary_form(80, 1.0, well), rel=1e-10)
    with pytest.raises(RangeError):
        phase_shift_derivative(81, 1.0, well)
    # J_{ell+1} read from a row built for the top mode or from the next mode's row: same bits
    lam = np.array([0.3, 1.0, 4.5])
    top = resonance_lab.phase._mode_values(lam, np.array([79, 5, 12]), well)[0]
    below = resonance_lab.phase._mode_values(lam, np.array([80, 8, 20]), well)[0]
    assert np.array_equal(top[[79, 5, 12], [0, 1, 2]], below[[79, 5, 12], [0, 1, 2]])


@pytest.mark.parametrize("ell, lam, well", [(0, 3.0, Well(2.0, 20.0)), (3, 5.0, Well(2.0, 10.0))])
def test_one_mode_needs_only_its_own_orders(ell, lam, well):
    # lambda rho = 60 and 50: the certified total needs more than MAX_ORDER modes, one mode
    # does not, and it is the division-free form's bits
    with pytest.raises(RangeError, match="order"):
        total_phase_derivative(lam, well)
    value = phase_shift_derivative(ell, lam, well)
    assert math.isfinite(value) and value == sigma_alternate_form(ell, lam, well)


def test_high_modes_at_small_lambda_are_their_limit():
    # Y_79 and Y_78(lambda rho) both overflow below lambda ~ 7e-3, so |Q_79| is past the
    # float range: sigma'_79 is 0, not inf - inf; filterwarnings = error catches any warning
    well, lam = Well(2.0), np.geomspace(1e-7, 1.4e-3, 60)
    assert all(phase_shift_derivative(79, x, well) == 0.0 for x in lam)
    values = resonance_lab.phase._mode_values(lam, np.full(len(lam), 79), well)
    assert np.isfinite(values).all()
    # phi_n is +-pi/2 there (S_n = 1), and every other element has the division-free form's bits
    lost = values[0] == 0.0
    assert lost[79].all() and np.array_equal(np.abs(values[1][lost]), np.full(lost.sum(), math.pi / 2))
    kept = np.nonzero(~lost)
    want = [sigma_alternate_form(ell, lam[c], well) for ell, c in zip(*kept)]
    assert np.array_equal(values[0][kept], want)


# -------------------------------------------------------------- total sums


def test_total_at_narrow_resonance_peak():
    well = CouplingFamily(a0=bessel_zero(1, 1), rho=1.0).well(0.09)
    assert total_phase_derivative(0.2100356, well).value == pytest.approx(
        367.37, abs=1.0
    )


def test_total_at_broad_resonance_peak():
    well = CouplingFamily(a0=bessel_zero(0, 1), rho=1.0).well(0.09)
    assert total_phase_derivative(0.1119944, well).value == pytest.approx(
        17.048, abs=0.1
    )


def test_total_truncation_is_honest():
    for order, lam in ((1, 0.2100356), (0, 0.1119944)):
        well = CouplingFamily(a0=bessel_zero(order, 1), rho=1.0).well(0.09)
        out = total_phase_derivative(lam, well)
        extra = sum(
            phase_shift_derivative(ell, lam, well)
            for ell in range(out.l_max + 1, out.l_max + 6)
        )
        assert abs(2.0 * extra) <= 10 * 1e-14


def test_total_respects_validated_range():
    with pytest.raises(RangeError):
        total_phase_derivative(5.5, WELL_G)
    # lambda = 0 is outside sigma's domain, not only outside the validated range
    with pytest.raises(DomainError):
        total_phase_derivative(0.0, WELL_G)


def test_tail_bound_dominates_measured_modes():
    for a in (1.0, 2.4):
        for rho in (1.0, 1.5):
            well = Well(a=a, rho=rho)
            for lam in (0.5, 1.0, 2.0):
                for ell in (20, 25, 30):
                    bound = mode_tail_bound(ell, lam, well)
                    assert abs(phase_shift_derivative(ell, lam, well)) <= 100 * bound


def test_tail_bound_validation():
    with pytest.raises(DomainError):
        mode_tail_bound(0, 1.0, WELL_G)
    with pytest.raises(DomainError):
        mode_tail_bound(5, 0.0, WELL_G)


def test_s_resonance_total_counts_mode_2_from_zero():
    # mode 2 shares mode 0's threshold (J_1(a rho) = 0), so sigma'_2 ~ lambda, where
    # the tail bound alone would stop at l_max = 1 below lambda ~ 1e-5
    total = total_phase_derivative(1e-6, WELL_S)
    assert total.l_max == 2
    assert total.value == pytest.approx(asymptotic_phase_derivative(1e-6, WELL_S), rel=1e-3)


def test_peak_sits_at_resonance_energy():
    # narrow mode-2 resonance
    well = CouplingFamily(a0=bessel_zero(1, 1), rho=1.0).well(0.09)
    grid = np.linspace(0.205, 0.215, 201)
    values = [total_phase_derivative(x, well).value for x in grid]
    assert abs(grid[int(np.argmax(values))] - 0.2100356) <= 2 * 0.0017315
    # broad mode-1 resonance
    well = CouplingFamily(a0=bessel_zero(0, 1), rho=1.0).well(0.09)
    grid = np.linspace(0.10, 0.125, 251)
    values = [total_phase_derivative(x, well).value for x in grid]
    assert abs(grid[int(np.argmax(values))] - 0.1119944) <= 2 * 0.0344571


# ------------------------------------------------------------- asymptotics


def test_asymptotic_case_selection():
    # WELL_G has no zero-energy structure, so the generic law applies
    expected_c = math.log(1.0) + j(0, 2.0) / (2.0 * j(1, 2.0))
    for lam in (0.02, 0.005):
        u = math.log(lam / 2.0) + expected_c + EULER_GAMMA
        generic = -(2.0 / lam) / (4.0 * u * u + math.pi**2) + (
            j(2, 2.0) / j(0, 2.0)
        ) * lam
        assert asymptotic_phase_derivative(lam, WELL_G) == pytest.approx(
            generic, rel=1e-12
        )


def test_asymptotic_s_case_is_linear():
    assert asymptotic_phase_derivative(0.01, WELL_S) == pytest.approx(
        -0.015, rel=1e-12
    )


def test_asymptotic_p_case_tracks_exact():
    asym = asymptotic_phase_derivative(0.01, WELL_P)
    exact = total_phase_derivative(0.01, WELL_P).value
    assert asym == pytest.approx(exact, rel=0.05)


def test_asymptotic_generic_error_order():
    # the defect is O(lambda / log^2 lambda); give the constant 3x headroom
    budget = 3.0 * 0.02 / math.log(0.02) ** 2
    for lam in (0.02, 0.01, 0.005):
        d = abs(
            total_phase_derivative(lam, WELL_G).value
            - asymptotic_phase_derivative(lam, WELL_G)
        )
        assert d <= budget


@pytest.mark.parametrize(
    "well, lams",
    [
        (WELL_P, (1e-8, 3e-7, 9e-7, 5e-5)),
        (Well(bessel_zero(0, 1) / 1.3, 1.3), (1e-8, 3e-7, 9e-7, 5e-5)),
        (WELL_S, (1e-8, 3e-7, 9e-7)),
        (WELL_G, (1e-8, 3e-7, 9e-7)),
    ],
    ids=["p-resonance", "p-resonance-rho-1.3", "s-resonance", "generic"],
)
def test_small_lambda_sigma_is_the_integral_of_its_law(well, lams):
    # below the split, 1e-4 on a p-resonance well and 1e-6 otherwise,
    # scattering_phase is the law's closed-form integral
    for lam in lams:
        h = 1e-4 * lam
        fd = (scattering_phase(lam + h, well) - scattering_phase(lam - h, well)) / (2 * h)
        assert fd == pytest.approx(asymptotic_phase_derivative(lam, well), rel=1e-6)


# ------------------------------------------------------------ Breit-Wigner


def test_overlay_peak_height():
    res = 0.21 - 0.002j
    peak = breit_wigner_overlay([0.21], [res])[0]
    assert peak == pytest.approx(1.0 / (math.pi * 0.002), rel=1e-12)


def test_overlay_empty_is_zero():
    out = breit_wigner_overlay(np.linspace(0.1, 1.0, 7), [])
    assert np.all(out == 0.0)


def test_overlay_rejects_upper_half_resonances():
    with pytest.raises(DomainError):
        breit_wigner_overlay([0.5], [0.2 + 0.001j])


@pytest.mark.parametrize("k", [complex(0.3, math.nan), complex(math.nan, -0.01),
                               complex(math.inf, -1), complex(0.3, -math.inf)])
def test_overlay_rejects_non_finite_resonances(k):
    with pytest.raises(DomainError):
        breit_wigner_overlay([0.5], [k])


# ------------------------------------------------------- integrated sigma


def test_sigma_normalized_at_zero():
    # in the s-structure case sigma ~ -0.75 rho^2 lambda^2, so the limit
    # is reachable numerically
    assert abs(scattering_phase(1e-4, WELL_S)) <= 1e-6
    # generic case approaches 0 only at 1/log speed; check the trend
    mags = [abs(scattering_phase(lam, WELL_G)) for lam in (2e-6, 1e-5, 1e-4)]
    assert mags[0] < mags[1] < mags[2]


def test_sigma_derivative_consistency():
    h = 1e-3
    fd = (scattering_phase(0.5 + h, WELL_G) - scattering_phase(0.5 - h, WELL_G)) / (
        2 * h
    )
    assert abs(fd - total_phase_derivative(0.5, WELL_G).value) <= 1e-5


def test_sigma_decreases_where_derivative_negative():
    values = [scattering_phase(lam, WELL_G) for lam in (0.0005, 0.001, 0.002)]
    assert values[0] > values[1] > values[2]
    assert all(v < 0 for v in values)


def unwrapped_sigma(grid, well: Well) -> float:
    """sigma(grid[-1]) - sigma(grid[0]) as the unwrapped phase of each S_ell,
    in real J/Y arithmetic, on a grid fine enough that no step turns it by pi."""
    want = 0.0
    for ell in range(total_phase_derivative(grid[-1], well).l_max + 1):
        s = s_matrix_real_form(ell, grid, well.a, well.rho)
        want += (1.0 if ell == 0 else 2.0) * np.angle(s[1:] / s[:-1]).sum() / (2.0 * math.pi)
    return want


@pytest.mark.parametrize("a", [3.1, math.sqrt(bessel_zero(1, 1) ** 2 - 0.09), bessel_zero(0, 1)])
def test_sigma_matches_phase_shift_sum(a):
    well = Well(a)
    got = scattering_phase(1.5, well) - scattering_phase(0.5, well)
    assert abs(got - unwrapped_sigma(np.linspace(0.5, 1.5, 2001), well)) <= 1e-9


@pytest.mark.parametrize("tol", [resonance_lab.phase.SIGMA_BRANCH_TOL, 0.25])
def test_sigma_takes_the_right_branch_from_the_split(monkeypatch, tol):
    # a perfbench phase-table unit (seed 3, j_{1,1} family, eps = +0.09): with
    # the branch tolerance at 1/4 and each step checked only against its own
    # trapezoid, a coarse first step put sigma off by exactly 4
    monkeypatch.setattr(resonance_lab.phase, "SIGMA_BRANCH_TOL", tol)
    well, lam = Well(math.sqrt(bessel_zero(1, 1) ** 2 - 0.09)), 0.9518250943169133
    want = scattering_phase(1e-6, well) + unwrapped_sigma(np.geomspace(1e-6, lam, 2001), well)
    assert abs(scattering_phase(lam, well) - want) <= 1e-9


# a mode-3 resonance at lambda ~ 0.081636 with a full width at half maximum of
# 1.1e-7, so sigma jumps by about 2 (mode 3 counts twice) within a few 1e-7
WELL_NARROW = Well(5.1346486176917105)


def test_sigma_across_a_narrow_resonance():
    grid = np.linspace(0.08162, 0.08165, 30_001)  # step 1e-9
    got = scattering_phase(0.08165, WELL_NARROW) - scattering_phase(0.08162, WELL_NARROW)
    assert abs(got - unwrapped_sigma(grid, WELL_NARROW)) <= 1e-9
    # from an unwrap of the S_ell phases on 3 million nodes; a branch choice on
    # the phase modulo pi (atan(B/A)) skips the resonance here, off by exactly 2
    got = scattering_phase(0.2743, WELL_NARROW) - scattering_phase(0.05, WELL_NARROW)
    assert abs(got - 1.87342615729915) <= 1e-9


def test_s_resonance_sigma_counts_mode_2_from_zero():
    # mode 2 shares mode 0's threshold (J_1(a rho) = 0), so sigma_2 grows like
    # lambda^2 where the tail bound leaves mode 2 out (below about 1e-5); the
    # law's sigma at 1e-7 is below 1e-14
    want = unwrapped_sigma(np.geomspace(1e-7, 0.01, 2001), WELL_S)
    assert abs(scattering_phase(0.01, WELL_S) - want) <= 1e-12


def test_sigma_raises_past_its_node_budget(monkeypatch):
    # resolving the narrow resonance takes more than 100 nodes
    monkeypatch.setattr(resonance_lab.phase, "SIGMA_MAX_NODES", 100)
    with pytest.raises(QuadratureError):
        scattering_phase(0.08165, WELL_NARROW)


def test_import_leaves_scipy_integrate_unloaded():
    # neither importing the package nor integrating sigma loads it
    src = str(Path(resonance_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, resonance_lab as rl; rl.scattering_phase(1.0, rl.Well(3.1)); "
        "print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_sigma_range_validation():
    with pytest.raises(RangeError):
        scattering_phase(6.0, WELL_G)


# ------------------------------------------------------------- PhaseTable


TABLE_GRID = np.linspace(0.01, 4.5, 37)
# J'_1(mu rho) = 0 at TABLE_GRID[4], where the primary form divides by about 0
WELL_ALT = Well(a=math.sqrt(1.8411837813406593**2 - TABLE_GRID[4] ** 2))


def test_alternate_form_is_taken_where_inner_derivative_vanishes():
    lam = TABLE_GRID[4]
    value = phase_shift_derivative(1, lam, WELL_ALT)
    assert abs(bessel_j(1, mu(lam, WELL_ALT.a).real).derivative) <= 1e-15
    assert math.isfinite(value) and value == sigma_alternate_form(1, lam, WELL_ALT)
    assert abs(value - fd_phase_derivative(1, lam, WELL_ALT.a)) <= 1e-6


def test_phase_table_build():
    grid = np.array([0.05, 0.1, 0.2, 0.4])
    table = PhaseTable.build(grid, WELL_G, include_modes=1)
    assert table.total.shape == grid.shape
    assert set(table.per_mode) == {0, 1}
    # mode sum dominated by the listed modes at the smallest lambdas
    partial = table.per_mode[0] + 2 * table.per_mode[1]
    assert np.allclose(partial[:2], table.total[:2], atol=1e-4)
    # one evaluation path: the table rows, totals and cutoffs are the
    # scalar calls' values bit for bit, and each total is the mode-by-mode
    # sum sigma'_0 + 2 sigma'_1 + ... in that order
    for well in (WELL_G, WELL_P, Well(a=2.4, rho=1.5), WELL_ALT):
        table = PhaseTable.build(TABLE_GRID, well, include_modes=6)
        for i, lam in enumerate(TABLE_GRID):
            modes = [phase_shift_derivative(ell, lam, well) for ell in range(7)]
            assert [table.per_mode[ell][i] for ell in range(7)] == modes
            total = total_phase_derivative(lam, well)
            assert (table.total[i], table.l_max[i]) == (total.value, total.l_max)
            by_hand = phase_shift_derivative(0, lam, well)
            for ell in range(1, total.l_max + 1):
                by_hand += 2.0 * phase_shift_derivative(ell, lam, well)
            assert table.total[i] == by_hand


@pytest.mark.parametrize("include_modes", [None, 6])
def test_phase_table_evaluates_each_bessel_order_once(monkeypatch, include_modes):
    # J(lambda rho) and Y(lambda rho) over orders -1..need at each lambda, and J(mu rho)
    # over -1..need + 1, one scipy element each (Y at a real argument is yn's), in one
    # call per order table on the calling thread, even for 400 points on two CPUs
    calls = []

    def counting(kernel):
        def call(order, x, **kwargs):
            calls.append((np.broadcast(order, x).size, threading.get_ident()))
            return kernel(order, x, **kwargs)
        return call

    cylinder = resonance_lab.cylinder
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for name in ("jv", "yn", "yv"):
        monkeypatch.setattr(cylinder, name, counting(getattr(cylinder, name)))
    for points in (40, 400):
        grid = np.linspace(0.05, 4.5, points)
        calls.clear()
        table = PhaseTable.build(grid, WELL_G, include_modes)
        need = np.maximum(table.l_max, include_modes or 0)
        assert sorted(size for size, _ in calls) == sorted([(need + 2).sum()] * 2 + [(need + 3).sum()])
        assert {thread for _, thread in calls} == {threading.get_ident()}


def test_phase_table_grid_validation():
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([]), WELL_G)
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([0.2, 0.1]), WELL_G)
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([-0.1, 0.2]), WELL_G)
    # a negative mode count would slice per_mode from the end of the table;
    # a count that is no integer is named as include_modes
    for modes in (-1, -3, 1.5, "2"):
        with pytest.raises(DomainError, match="include_modes"):
            PhaseTable.build(TABLE_GRID, WELL_G, include_modes=modes)
    assert set(PhaseTable.build(TABLE_GRID, WELL_G, include_modes=0).per_mode) == {0}
