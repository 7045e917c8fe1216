"""Well-level objects: mu branch, characteristic function, S-matrix, states."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resonance_lab import (
    BranchError,
    ResonanceLabError,
    ClassifySpec,
    ConfigError,
    CouplingFamily,
    DomainError,
    GuessKind,
    MatchError,
    StructureError,
    SurfacePoint,
    Well,
    ZeroEnergyKind,
    bessel_j,
    bessel_zero,
    char_q,
    char_q_scale,
    hankel,
    initial_guess,
    mu,
    refine,
    resonant_state,
    s_matrix_eigenvalue,
    zero_energy_kind,
)
from resonance_lab import finder
from resonance_lab.well import _q_lists, _q_terms
from equivalent_forms import q_derivative_form, q_terms_per_point
from oracles import mu_by_path, s_matrix_real_form

J01 = bessel_zero(0, 1)
J11 = bessel_zero(1, 1)


def well_from_eps(order: int, eps: float, rho: float = 1.0) -> Well:
    return CouplingFamily(a0=bessel_zero(order, 1) / rho, rho=rho).well(eps)


def all_nan(terms) -> bool:
    """Whether both parts of every complex number in terms, a nest of them, are NaN."""
    return bool(np.isnan(np.array(terms, complex).view(float)).all())


# ---------------------------------------------------------------- mu branch


def test_mu_small_lambda_limit():
    assert mu(1e-12, 2.5) == pytest.approx(2.5, abs=1e-12)
    assert mu(1e-10j, 0.7) == pytest.approx(0.7, abs=1e-12)


def test_mu_pure_imaginary_inside_disk():
    # lambda = 3i, a = 5: mu^2 = -9 + 25, positive branch
    assert mu(3j, 5.0) == pytest.approx(4.0, abs=1e-14)


def test_mu_matches_path_continuation():
    lam = cmath.rect(0.1, -0.3)
    expected = mu_by_path(lam, 2.4048, steps=100)
    assert mu(lam, 2.4048) == pytest.approx(expected, rel=1e-10)


def test_mu_accepts_surface_points():
    pt = SurfacePoint.from_polar(0.2, 0.4)
    assert mu(pt, 1.5) == pytest.approx(mu(pt.value, 1.5), rel=1e-14)


def test_mu_branch_point_rejected():
    for lam in (1.3j, np.array([1.3j])):
        with pytest.raises(BranchError):
            mu(lam, 1.3)
    with pytest.raises(DomainError):
        mu(0.5, -1.0)
    # the depth is one positive finite number, for one lambda and for a grid
    for lam in (0.3, np.array([0.3, 0.4j])):
        for a in (np.array([2.0, 3.0]), math.inf, math.nan, 0.0):
            with pytest.raises(DomainError):
                mu(lam, a)


@given(
    modulus=st.floats(0.01, 0.9),
    angle=st.floats(-1.2, 1.2),
    a=st.floats(1.0, 4.0),
)
def test_mu_squares_back(modulus, angle, a):
    lam = cmath.rect(modulus, angle)
    m = mu(lam, a)
    assert m.real > 0
    assert m * m == pytest.approx(lam * lam + a * a, rel=1e-12)


# ------------------------------------------------------- characteristic fn


def test_char_q_golden_eigenvalue_node():
    # deepened family: eigenvalue on the positive imaginary axis
    well = well_from_eps(0, -0.09)
    lam = SurfacePoint.from_complex(0.1287651j)
    scale = char_q_scale(1, lam, well)
    assert abs(char_q(1, lam, well)) <= 1e-6 * scale


def test_char_q_golden_resonance_node():
    well = well_from_eps(1, 0.09)
    lam = SurfacePoint.from_complex(0.2100356 - 0.0017315j)
    scale = char_q_scale(2, lam, well)
    assert abs(char_q(2, lam, well)) <= 1e-6 * scale


def test_char_q_reflection_symmetry_at_zeros():
    # zeros come in pairs lambda, |lambda| e^{i(pi - arg lambda)}
    for ell, order in ((1, 0), (2, 1), (3, 2)):
        family = CouplingFamily(a0=bessel_zero(order, 1), rho=1.0)
        kind = (
            GuessKind.persist_lw(-1) if ell == 1 else GuessKind.persist_sqrt(0)
        )
        rec = refine(ell, initial_guess(ell, 0.09, family, kind), family.well(0.09))
        lam = rec.refined
        t = abs(char_q(ell, lam, family.well(0.09)))
        mirrored = SurfacePoint.from_polar(lam.modulus, math.pi - lam.argument)
        scale = char_q_scale(ell, mirrored, family.well(0.09))
        assert abs(char_q(ell, mirrored, family.well(0.09))) <= 10 * t + 1e-13 * scale


def test_char_q_forms_agree_on_grid():
    # the principal sheet and the two below it
    phases = [k * math.pi / 6 - math.pi + 0.05 for k in range(-24, 12)]
    for a in (1.0, 2.4, 3.83):
        well = Well(a=a)
        for ell in range(7):
            for modulus in (1e-3, 0.03, 0.3, 1.0, 3.0):
                for phase in phases:
                    pt = SurfacePoint.from_polar(modulus, phase)
                    qw = char_q(ell, pt, well)
                    qd = q_derivative_form(ell, pt, well)
                    scale = char_q_scale(ell, pt, well)
                    assert abs(qw - qd) <= 1e-10 * scale
                    # bit for bit the four-call formula, each order asked for
                    m, edge = mu(pt, a), pt.scaled(well.rho)
                    j_low, j_n = (bessel_j(k, well.rho * m).value for k in (ell - 1, ell))
                    h_low, h_n = (hankel(1, k, edge).value for k in (ell - 1, ell))
                    assert qw == m * j_low * h_n - pt.value * j_n * h_low


def assert_near_the_scalar_calls(got, want, scale):
    """A grid's values, in numpy's arithmetic, within 1e-13 scale of the
    scalar calls' at each point, and finite where they are."""
    got, want, scale = np.asarray(got), np.asarray(want), np.asarray(scale)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert (abs(got - want)[finite] <= 1e-13 * scale[finite]).all()


@pytest.mark.deep
@given(
    ell=st.integers(-80, 80),
    a=st.floats(0.5, 6.0),
    rho=st.floats(0.5, 2.0),
    # |lambda rho| <= 80 and |rho mu| <= 81; arguments on sheets -3..3 and
    # their boundaries pi/2 + k*pi
    grid=st.lists(
        st.tuples(
            st.floats(1e-3, 40.0),
            st.one_of(
                st.floats(-3.5 * math.pi, 3.5 * math.pi),
                st.integers(-4, 3).map(lambda k: math.pi / 2 + k * math.pi),
            ),
        ),
        min_size=1,
        max_size=8,
    ),
)
# a subnormal Im lambda^2: np.sqrt rounds Im mu to 0 where cmath.sqrt does not
@example(ell=0, a=4.0, rho=1.0, grid=[(1.5, 5e-324)])
def test_char_q_on_a_grid_agrees_with_the_scalar_calls(ell, a, rho, grid):
    well = Well(a, rho)
    points = SurfacePoint.from_polar(*(np.array(column) for column in zip(*grid)))
    try:
        want = [char_q(ell, SurfacePoint.from_polar(r, t), well) for r, t in grid]
    except ResonanceLabError as exc:
        with pytest.raises(type(exc)):
            char_q(ell, points, well)
        return
    scales = [char_q_scale(ell, SurfacePoint.from_polar(r, t), well) for r, t in grid]
    assert_near_the_scalar_calls(char_q(ell, points, well), want, scales)
    assert_near_the_scalar_calls(char_q_scale(ell, points, well), scales, scales)
    # a 2-d grid shaped like sector_scan's, moduli down and arguments across
    moduli, arguments = (np.array(column) for column in zip(*grid[:3]))
    sector = SurfacePoint.from_polar(moduli[:, None], arguments)
    scales = [
        [char_q_scale(ell, SurfacePoint.from_polar(r, t), well) for t in arguments] for r in moduli
    ]
    assert_near_the_scalar_calls(char_q_scale(ell, sector, well), scales, scales)


@given(
    ell=st.integers(0, 8),
    rho=st.floats(0.5, 2.0),
    # |lambda| <= 3 on sheets -1..1, each point in a well of its own depth;
    # at argument 0, rho mu is real and positive, and J takes its real path
    points=st.lists(
        st.tuples(
            st.floats(1e-3, 3.0),
            st.one_of(st.just(0.0), st.floats(-1.5 * math.pi, 1.5 * math.pi)),
            st.floats(0.5, 6.0),
        ),
        min_size=2,
        max_size=9,
    ),
    outside=st.integers(0, 9),
)
def test_q_with_one_depth_per_point_is_the_scalar_calls_bit_for_bit(ell, rho, points, outside):
    want = [char_q(ell, SurfacePoint.from_polar(*p[:2]), Well(p[2], rho)) for p in points]
    # the list body, Python complex at each point
    logs = [SurfacePoint.from_polar(*p[:2]).log_value for p in points]
    b1, b2 = _q_lists(ell, logs, [p[2] for p in points], rho)
    got = [x - y for x, y in zip(b1, b2)]
    # int64 words, so that signed zeros count
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    # finder's layout: a flat list of Newton rows (w, w + h, w - h), one per
    # point in its own well, and one row that leaves |lambda rho| <= 100,
    # which reads NaN while the others keep their bits
    rows = [(w, w + 1e-7, w - 1e-7) for w in logs]
    depths = [p[2] for p in points]
    at = outside % (len(rows) + 1)
    rows.insert(at, (complex(math.log(150.0 / rho), 1.0),) * 3)
    depths.insert(at, 2.0)
    flat = list(zip(*_q_lists(ell, [x for row in rows for x in row], [a for a in depths for _ in range(3)], rho)))
    terms = [flat[k : k + 3] for k in range(0, len(flat), 3)]
    assert all_nan(terms.pop(at))
    del rows[at], depths[at]
    # the (t1, t2) pairs are _q_terms', and Q = t1 - t2 is char_q's
    q = [[t1 - t2 for t1, t2 in row] for row in terms]
    for got, scalar in ((terms, _q_terms), (q, lambda n, x, a, rho: char_q(n, x, Well(a, rho)))):
        want = [[scalar(ell, SurfacePoint(x), a, rho) for x in row] for row, a in zip(rows, depths)]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("ell", [0, 1, 2, 5])
def test_newton_rows_are_the_scalar_calls_on_every_sheet(ell):
    # finder's Newton rows (w, w + h, w - h), each in a well of its own
    # depth: one on each sheet m = -2..2, and one at argument 0, where rho mu
    # is real and positive and J takes its real path
    rho, h = 1.3, finder.FD_STEP
    logs = [complex(math.log(0.4), m * math.pi + 0.7) for m in range(-2, 3)]
    logs.append(complex(math.log(0.9), 0.0))
    rows = [(w, w + h, w - h) for w in logs]
    wells = [Well(2.0 + 0.5 * k, rho) for k in range(len(rows))]
    outside, well = (complex(math.log(150.0 / rho), 1.0),) * 3, Well(2.0, rho)
    # all rows in one call, then again with a row that leaves |lambda rho| <= 100:
    # it reads NaN, and the other rows keep their bits
    for extra in (0, 1):
        call_rows = rows[:3] + [outside] * extra + rows[3:]
        call_wells = wells[:3] + [well] * extra + wells[3:]
        points = [x for row in call_rows for x in row]
        depths = [w.a for w in call_wells for _ in range(3)]
        flat = list(zip(*_q_lists(ell, points, depths, rho)))
        terms = [flat[k : k + 3] for k in range(0, len(flat), 3)]
        if extra:
            assert all_nan(terms.pop(3))
        # Q is t1 - t2 of the returned pairs, and its scale |t1| + |t2|
        q = [[t1 - t2 for t1, t2 in row] for row in terms]
        scale = [[abs(t1) + abs(t2) for t1, t2 in row] for row in terms]
        for got, fn in ((q, char_q), (scale, char_q_scale)):
            # the scalar calls' bits
            want = [[fn(ell, SurfacePoint(x), w) for x in row] for row, w in zip(rows, wells)]
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
            # and each row as a grid, whose arithmetic is numpy's
            grid = [fn(ell, SurfacePoint(np.array(row)), w) for row, w in zip(rows, wells)]
            assert_near_the_scalar_calls(grid, got, scale)


@pytest.mark.deep
@given(
    ell=st.integers(0, 12),
    rho=st.floats(0.5, 2.0),
    # |lambda| <= 3 on sheets -2..2 or at argument 0, where rho mu is real and
    # positive and J takes its float path; each point in a well of its own depth
    points=st.lists(
        st.tuples(
            st.floats(1e-3, 3.0),
            st.one_of(
                st.just(0.0),
                st.builds(lambda m, t: m * math.pi + t, st.integers(-2, 2), st.floats(-math.pi / 2, math.pi / 2)),
            ),
            st.floats(0.5, 6.0),
        ),
        min_size=1,
        max_size=9,
    ),
)
def test_q_lists_are_the_per_point_reference_bit_for_bit(ell, rho, points):
    # the reference calls scipy once per point, order and Bessel function,
    # so it pins the list body's bits without going through char_q
    logs = [SurfacePoint.from_polar(*p[:2]).log_value for p in points]
    depths = [p[2] for p in points]
    want = [q_terms_per_point(ell, w, a, rho) for w, a in zip(logs, depths)]
    got = list(zip(*_q_lists(ell, logs, depths, rho)))
    # int64 words, so that signed zeros count
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    # finder's layout: a flat list of Newton rows (w, w + h, w - h), one per
    # point in its own well
    h = finder.FD_STEP
    flat = [x for w in logs for x in (w, w + h, w - h)]
    flat_depths = [a for a in depths for _ in range(3)]
    got = list(zip(*_q_lists(ell, flat, flat_depths, rho)))
    want = [q_terms_per_point(ell, x, a, rho) for x, a in zip(flat, flat_depths)]
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


def test_resonant_state_keeps_its_bits():
    # repr of the values before the derivatives it reads were deferred
    want = {
        (2, 1, 0.09, 0.5): "(0.39453885418360735-24.04793123196086j)",
        (2, 1, 0.09, 2.5): "(0.10947255363548022-4.967857514462756j)",
        (1, 0, -0.09, 1.0): "(-4.834490387785434-3.0531133177191805e-16j)",
        (3, 2, 0.09, 0.5): "(0.04055796369438355+236.0995547575261j)",
        (3, 2, 0.09, 2.5): "(0.008550480959229717+23.378906198694178j)",
    }
    kinds = {1: GuessKind.persist_lw(-1), 2: GuessKind.persist_sqrt(0), 3: GuessKind.persist_sqrt(1)}
    for (ell, order, eps, r), value in want.items():
        lam, well = refined_zero(ell, order, eps, kinds[ell])
        assert repr(resonant_state(ell, lam, well, r)) == value


def test_char_q_negative_order_matches_positive():
    well = Well(a=2.0)
    pt = SurfacePoint.from_polar(0.4, -0.2)
    assert char_q(-3, pt, well) == char_q(3, pt, well)


def test_char_q_rejects_unknown_form():
    # one form: there is no knob to pick another
    for kernel in (char_q, char_q_scale):
        with pytest.raises(TypeError):
            kernel(1, 0.3 + 0.0j, Well(a=1.0), form="hybrid")


@pytest.mark.parametrize("form", ["wronskian", "derivative"])
@pytest.mark.parametrize(
    "ell, lam",
    [
        pytest.param(1.5, SurfacePoint.from_complex(0.3j), id="half-order"),
        pytest.param(1, SurfacePoint(complex(-1.0, math.inf)), id="inf-phase"),
        pytest.param(1, SurfacePoint(complex(-1.0, -math.inf)), id="minus-inf-phase"),
        pytest.param(1, SurfacePoint(complex(-1.0, math.nan)), id="nan-phase"),
    ],
)
def test_char_q_domain_errors(ell, lam, form):
    # order and phase are checked before lambda = exp(w) is formed, in char_q as in
    # the derivative matching, which starts from the same hankel call
    q = {"wronskian": char_q, "derivative": q_derivative_form}[form]
    with pytest.raises(DomainError):
        q(ell, lam, Well(2.0))


# --------------------------------------------------------- zero-energy map


def kinds_by_mode(well, l_max=4):
    return {ell: zero_energy_kind(ell, well) for ell in range(l_max + 1)}


def test_classify_p_resonance_family():
    kinds = kinds_by_mode(Well(a=J01))
    assert kinds[1] is ZeroEnergyKind.P_RESONANCE
    assert kinds[0] is ZeroEnergyKind.NONE
    assert all(kinds[m] is ZeroEnergyKind.NONE for m in (2, 3, 4))


def test_classify_s_resonance_and_zero_eigenvalue():
    # J_1(j_{1,1}) = 0 serves both the mode-0 and mode-2 conditions
    kinds = kinds_by_mode(Well(a=J11))
    assert kinds[0] is ZeroEnergyKind.S_RESONANCE
    assert kinds[2] is ZeroEnergyKind.ZERO_EIGENVALUE
    assert kinds[1] is ZeroEnergyKind.NONE
    assert kinds[3] is ZeroEnergyKind.NONE


def test_classify_structureless_well():
    kinds = kinds_by_mode(Well(a=1.0))
    assert all(kind is ZeroEnergyKind.NONE for kind in kinds.values())


def test_classify_consistency_across_orders():
    # depth pinned to a zero of J_{ell-1} must flag exactly that structure
    for ell in (1, 2, 3, 4):
        kinds = kinds_by_mode(Well(a=bessel_zero(ell - 1, 1)), l_max=6)
        expected = {
            1: ZeroEnergyKind.P_RESONANCE,
        }.get(ell, ZeroEnergyKind.ZERO_EIGENVALUE if ell >= 2 else None)
        if ell == 1:
            assert kinds[1] is ZeroEnergyKind.P_RESONANCE
        else:
            assert kinds[ell] is expected
        if ell == 2:
            # shares the J_1 condition with the s-wave
            assert kinds[0] is ZeroEnergyKind.S_RESONANCE


def test_classify_requires_enough_modes(tmp_path):
    with pytest.raises(ConfigError):
        ClassifySpec(a=1.0, l_max=1).run(tmp_path, "classify")
    assert list(tmp_path.iterdir()) == []


def _has_guess(ell, family):
    """False when initial_guess finds no zero-energy structure for the mode."""
    if ell == 0:
        kind, eps = GuessKind.disappearing0(), -0.1
    elif ell == 1:
        kind, eps = GuessKind.persist_lw(-1), 0.09
    else:
        kind, eps = GuessKind.persist_sqrt(0), 0.09
    try:
        initial_guess(ell, eps, family, kind)
    except StructureError:
        return False
    return True


def test_zero_energy_kind_is_the_structure_check():
    for a in [bessel_zero(k, 1) for k in range(5)] + [2.0]:
        well = Well(a=a)
        family = CouplingFamily(a0=a, rho=1.0)
        kinds = [zero_energy_kind(ell, well) for ell in range(6)]
        for ell, kind in enumerate(kinds):
            assert (kind is ZeroEnergyKind.NONE) == (not _has_guess(ell, family))
    # a = j_{k,1} carries structure in mode k + 1
    for k in range(5):
        assert zero_energy_kind(k + 1, Well(a=bessel_zero(k, 1))) is not ZeroEnergyKind.NONE


def test_zero_energy_kind_names_the_mode_it_was_given():
    with pytest.raises(DomainError, match="mode 1.5 is not an integer"):
        zero_energy_kind(1.5, Well(2.4))
    with pytest.raises(DomainError, match="mode 2.5 is not an integer"):
        initial_guess(2.5, 0.1, CouplingFamily(3.83), GuessKind.persist_sqrt(0))


# ---------------------------------------------------------------- S-matrix


def test_s_matrix_free_limit():
    well = Well(a=1e-6)
    for ell in (0, 1, 3):
        for lam in (0.5, 1.5):
            assert abs(s_matrix_eigenvalue(ell, lam, well) - 1) <= 1e-4


def test_s_matrix_against_real_form_oracle():
    well = Well(a=2.0)
    s = s_matrix_eigenvalue(0, 0.5, well)
    assert s == pytest.approx(s_matrix_real_form(0, 0.5, well.a, well.rho), rel=1e-12)


def test_s_matrix_unitary_on_grid():
    for a in (1.0, 2.4, 3.83):
        well = Well(a=a)
        for ell in range(6):
            for lam in (0.3, 1.0, 2.5, 4.0, 5.0):
                assert abs(abs(s_matrix_eigenvalue(ell, lam, well)) - 1) <= 1e-10


def test_s_matrix_even_in_order():
    well = Well(a=2.4)
    assert s_matrix_eigenvalue(-3, 1.1, well) == s_matrix_eigenvalue(3, 1.1, well)


def test_s_matrix_requires_positive_real_lambda():
    with pytest.raises(DomainError):
        s_matrix_eigenvalue(0, -0.5, Well(a=1.0))


@given(lam=st.floats(0.05, 5.0), ell=st.integers(0, 8), a=st.floats(0.5, 4.0))
def test_s_matrix_unitarity_property(lam, ell, a):
    assert abs(abs(s_matrix_eigenvalue(ell, lam, Well(a=a))) - 1) <= 1e-10


# ----------------------------------------------------------- mode profiles


def refined_zero(ell, order, eps, kind):
    family = CouplingFamily(a0=bessel_zero(order, 1), rho=1.0)
    rec = refine(ell, initial_guess(ell, eps, family, kind), family.well(eps))
    return rec.refined, family.well(eps)


def test_resonant_state_continuity_at_edge():
    lam, well = refined_zero(2, 1, 0.09, GuessKind.persist_sqrt(0))
    rho = well.rho
    inner = resonant_state(2, lam, well, rho)
    outer = resonant_state(2, lam, well, rho * (1 + 1e-12))
    assert abs(inner - outer) <= 1e-6 * abs(inner)
    # one-sided slopes agree; O(h) truncation dominates the residual
    h = 1e-7
    d_in = (inner - resonant_state(2, lam, well, rho - h)) / h
    d_out = (resonant_state(2, lam, well, rho + h) - outer) / h
    assert abs(d_in - d_out) <= 1e-4 * (abs(d_in) + abs(d_out))


def test_resonant_state_rejects_non_zero():
    lam, well = refined_zero(2, 1, 0.09, GuessKind.persist_sqrt(0))
    off = SurfacePoint.from_complex(lam.value + 1e-3)
    with pytest.raises(MatchError):
        resonant_state(2, off, well, 2.0)


def test_resonant_state_eigenfunction_decays():
    lam, well = refined_zero(1, 0, -0.09, GuessKind.persist_lw(-1))
    assert abs(lam.argument - math.pi / 2) <= 1e-6
    values = [abs(resonant_state(1, lam, well, r)) for r in (2.0, 4.0, 8.0)]
    assert values[0] > values[1] > values[2]


def test_resonant_state_near_zero_energy_power_tail():
    # as eps -> 0 the mode-2 eigenfunction approaches the r^{-2} profile
    lam, well = refined_zero(2, 1, -0.0036, GuessKind.persist_sqrt(0))
    ratio = abs(resonant_state(2, lam, well, 2.0) / resonant_state(2, lam, well, 1.0))
    assert ratio * 2.0**2 == pytest.approx(1.0, abs=0.05)


def test_resonant_state_requires_positive_radius():
    lam, well = refined_zero(2, 1, 0.09, GuessKind.persist_sqrt(0))
    with pytest.raises(DomainError):
        resonant_state(2, lam, well, 0.0)


def test_resonant_state_rejects_a_complex_or_grid_lambda():
    with pytest.raises(DomainError, match="not one SurfacePoint"):
        resonant_state(1, 0.3j, Well(2.4), 1.0)
    grid = SurfacePoint.from_polar(np.array([0.3, 0.4]), 1.0)
    with pytest.raises(DomainError, match="not one SurfacePoint"):
        resonant_state(1, grid, Well(2.4), 1.0)


# --------------------------------------------------------------- datatypes


def test_well_validation():
    with pytest.raises(DomainError):
        Well(a=0.0)
    with pytest.raises(DomainError):
        Well(a=1.0, rho=-2.0)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Well(2.0, math.inf), id="well-rho-inf"),
        pytest.param(lambda: Well(math.inf), id="well-a-inf"),
        pytest.param(lambda: CouplingFamily(math.inf), id="family-a0-inf"),
        pytest.param(lambda: CouplingFamily(2.0, math.inf), id="family-rho-inf"),
    ],
)
def test_wells_reject_non_finite_depth_or_radius(make):
    with pytest.raises(DomainError):
        make()


def test_family_validation_and_map():
    family = CouplingFamily(a0=2.0, rho=1.0)
    assert family.well(0.5).a == pytest.approx(math.sqrt(4.0 - 0.5))
    with pytest.raises(DomainError):
        family.well(4.0)
    with pytest.raises(DomainError):
        CouplingFamily(a0=-1.0, rho=1.0)
