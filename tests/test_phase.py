"""Phase-shift derivatives, mode sums, low-energy laws, Breit-Wigner."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from resonance_lab import (
    AsymptoticCase,
    CaseKind,
    CaseMismatch,
    CouplingFamily,
    DomainError,
    PhaseTable,
    RangeError,
    Well,
    asymptotic_case_for,
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
from oracles import fd_phase_derivative

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
    primary = phase_shift_derivative(ell, lam, well, form="primary")
    alternate = phase_shift_derivative(ell, lam, well, form="alternate")
    scale = max(abs(primary), abs(alternate), 1e-300)
    assert abs(primary - alternate) <= 1e-10 * scale


def test_mode_rejects_bad_arguments():
    with pytest.raises(DomainError):
        phase_shift_derivative(0, -1.0, WELL_G)
    with pytest.raises(DomainError):
        phase_shift_derivative(1, 0.5, WELL_G, form="slick")


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
    with pytest.raises(RangeError):
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
    assert asymptotic_case_for(WELL_P).kind is CaseKind.P_RESONANCE_AT_ZERO
    assert asymptotic_case_for(WELL_S).kind is CaseKind.S_RESONANCE_AT_ZERO
    generic = asymptotic_case_for(WELL_G)
    assert generic.kind is CaseKind.GENERIC
    expected_c = math.log(1.0) + j(0, 2.0) / (2.0 * j(1, 2.0))
    assert generic.c_constant == pytest.approx(expected_c, rel=1e-12)


def test_asymptotic_s_case_is_linear():
    case = asymptotic_case_for(WELL_S)
    assert asymptotic_phase_derivative(case, 0.01, WELL_S) == pytest.approx(
        -0.015, rel=1e-12
    )


def test_asymptotic_p_case_tracks_exact():
    case = asymptotic_case_for(WELL_P)
    asym = asymptotic_phase_derivative(case, 0.01, WELL_P)
    exact = total_phase_derivative(0.01, WELL_P).value
    assert asym == pytest.approx(exact, rel=0.05)


def test_asymptotic_generic_error_order():
    case = asymptotic_case_for(WELL_G)
    # the defect is O(lambda / log^2 lambda); give the constant 3x headroom
    budget = 3.0 * 0.02 / math.log(0.02) ** 2
    for lam in (0.02, 0.01, 0.005):
        d = abs(
            total_phase_derivative(lam, WELL_G).value
            - asymptotic_phase_derivative(case, lam, WELL_G)
        )
        assert d <= budget


def test_asymptotic_case_mismatch_rejected():
    with pytest.raises(CaseMismatch):
        asymptotic_phase_derivative(AsymptoticCase.s_resonance_at_zero(), 0.01, WELL_G)
    with pytest.raises(CaseMismatch):
        asymptotic_phase_derivative(AsymptoticCase.p_resonance_at_zero(), 0.01, WELL_S)


def test_asymptotic_case_construction_rules():
    with pytest.raises(DomainError):
        AsymptoticCase(CaseKind.GENERIC)
    with pytest.raises(DomainError):
        AsymptoticCase(CaseKind.S_RESONANCE_AT_ZERO, 1.0)


# ------------------------------------------------------------ Breit-Wigner


def test_overlay_peak_height():
    res = 0.21 - 0.002j
    peak = breit_wigner_overlay([0.21], [res])[0]
    assert peak == pytest.approx(1.0 / (math.pi * 0.002), rel=1e-12)


def test_overlay_matches_drawn_curve_formula():
    # the drawn curves fold 1/pi into the height and add the eyeballed
    # background: 0.0017315/((x-0.2100356)^2+0.0017315^2) - 0.8 sqrt(x)
    lam = 0.5
    res = 0.2100356 - 0.0017315j
    drawn = 0.0017315 / ((lam - 0.2100356) ** 2 + 0.0017315**2) - 0.8 * math.sqrt(lam)
    out = breit_wigner_overlay(
        [lam], [res], background="sqrt", coefficient=-0.8, omit_pi=True
    )
    assert out[0] == pytest.approx(drawn, rel=1e-12)
    with_pi = breit_wigner_overlay([lam], [res], background="sqrt", coefficient=-0.8)
    assert with_pi[0] == pytest.approx(
        0.0017315 / math.pi / ((lam - 0.2100356) ** 2 + 0.0017315**2)
        - 0.8 * math.sqrt(lam),
        rel=1e-12,
    )


def test_overlay_empty_is_zero():
    out = breit_wigner_overlay(np.linspace(0.1, 1.0, 7), [])
    assert np.all(out == 0.0)


def test_overlay_rejects_upper_half_resonances():
    with pytest.raises(DomainError):
        breit_wigner_overlay([0.5], [0.2 + 0.001j])
    with pytest.raises(DomainError):
        breit_wigner_overlay([0.5], [0.2 - 0.001j], background="tanh")


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


def test_sigma_range_validation():
    with pytest.raises(RangeError):
        scattering_phase(6.0, WELL_G)


# ------------------------------------------------------------- PhaseTable


def test_phase_table_build():
    grid = np.array([0.05, 0.1, 0.2, 0.4])
    table = PhaseTable.build(grid, WELL_G, include_modes=1)
    assert table.total.shape == grid.shape
    assert set(table.per_mode) == {0, 1}
    for ell, row in table.per_mode.items():
        for x, v in zip(grid, row):
            assert v == pytest.approx(phase_shift_derivative(ell, x, WELL_G))
    # mode sum dominated by the listed modes at the smallest lambdas
    partial = table.per_mode[0] + 2 * table.per_mode[1]
    assert np.allclose(partial[:2], table.total[:2], atol=1e-4)


def test_phase_table_grid_validation():
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([]), WELL_G)
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([0.2, 0.1]), WELL_G)
    with pytest.raises(DomainError):
        PhaseTable.build(np.array([-0.1, 0.2]), WELL_G)
