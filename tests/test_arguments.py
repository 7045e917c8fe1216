"""One rule per kind of scalar argument.

A positive scalar (a depth, a radius, a scaling factor, the `phase` offset
eps or a real lambda) is one real number with 0 < x < inf
(`cylinder._positive`); a finite one (a complex lambda, a Lambert W
argument, a resonance, a coupling offset eps) is one finite number, real
where it must be (`cylinder._finite`); a mode, a branch index or a Hankel
kind is one integer, not a bool (`cylinder._integer`).  Every public entry
point that takes one raises DomainError for anything else: an array, a
string, a bool, nan, inf, and zero or a negative number where x > 0.  A run
spec's steps, l_max and k_max are integers too, its lambda bounds and Lambert
re and im finite reals, its eps grid an iterable, its per_mode True or False
and its bessel-eval kind a key of `runs.BESSEL_KINDS`; `runs.run` reports one
that is not as a ConfigError.  An array of reals (a lambda grid, a polar modulus or
argument) holds finite real numbers alone (`cylinder._real_grid`): a
string, a complex number, a ragged nest, nan and inf are a DomainError
there too.  A point of the cover holds one number or an array of numbers,
finite or not, as its logarithm.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from resonance_lab import (
    BesselEvalSpec,
    ClassifySpec,
    ConfigError,
    CouplingFamily,
    Delta1dSpec,
    DomainError,
    GuessKind,
    LambertEvalSpec,
    PhaseSpec,
    PhaseTable,
    RangeError,
    SurfacePoint,
    TrackSpec,
    Well,
    asymptotic_phase_derivative,
    bessel_zero,
    branch_limit_check,
    breit_wigner_overlay,
    char_q,
    char_q_scale,
    delta_phase_derivative,
    delta_resonance,
    hankel,
    initial_guess,
    lambert_w,
    mode_tail_bound,
    mu,
    phase_shift_derivative,
    refine,
    resonant_state,
    run,
    s_matrix_eigenvalue,
    scattering_phase,
    sector_scan,
    total_phase_derivative,
    track,
)
from resonance_lab.cylinder import MIN_ABS_ARGUMENT, order_table
from resonance_lab.phase import LAMBDA_MAX

WELL = Well(2.0)

ENTRY_POINTS = {
    "SurfacePoint.scaled": lambda x: SurfacePoint.from_complex(1.0).scaled(x),
    "Well-a": lambda x: Well(x),
    "Well-rho": lambda x: Well(2.0, x),
    "CouplingFamily-a0": lambda x: CouplingFamily(x),
    "CouplingFamily-rho": lambda x: CouplingFamily(2.0, x),
    "mu-a": lambda x: mu(0.3, x),
    "s_matrix_eigenvalue-lambda": lambda x: s_matrix_eigenvalue(0, x, WELL),
    "resonant_state-r": lambda x: resonant_state(1, SurfacePoint.from_complex(0.3j), WELL, x),
    "sector_scan-radius": lambda x: sector_scan(WELL, radius=x),
    "phase_shift_derivative-lambda": lambda x: phase_shift_derivative(0, x, WELL),
    "asymptotic_phase_derivative-lambda": lambda x: asymptotic_phase_derivative(x, WELL),
    "total_phase_derivative-lambda": lambda x: total_phase_derivative(x, WELL),
    "scattering_phase-lambda": lambda x: scattering_phase(x, WELL),
    "delta_resonance-a": lambda x: delta_resonance(x, 1),
    "delta_phase_derivative-a": lambda x: delta_phase_derivative(x, 1.0),
    "delta_phase_derivative-lambda": lambda x: delta_phase_derivative(10.0, x),
    "TrackSpec-rho": lambda x: TrackSpec(0, 1, (-0.1,), rho=x).resonance_track(),
    "PhaseSpec-eps": lambda x: PhaseSpec(1, x, 1.0, 3).run(Path("out"), "phase"),
}

NOT_POSITIVE = {
    "array": np.array([2.0, 3.0]),
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
    "zero": 0.0,
    "negative": -1.0,
    # 0 < 10**400 < inf holds for a Python int, which no float can hold
    "huge-int": 10**400,
    # a bool is a numbers.Real, equal to 1
    "bool": True,
}


@pytest.mark.parametrize("value", NOT_POSITIVE.values(), ids=NOT_POSITIVE)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_positive_scalar_argument_is_one_finite_real_number(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError, match="must be one positive finite number"):
        call(value)
    assert list(tmp_path.iterdir()) == []


FAMILY = CouplingFamily(bessel_zero(1, 1))

FINITE_ENTRY_POINTS = {
    "SurfacePoint.from_complex": lambda x: SurfacePoint.from_complex(x),
    "hankel-argument": lambda x: hankel(1, 0, x),
    "mu-lambda": lambda x: mu(x, 2.0),
    "lambert_w-argument": lambda x: lambert_w(0, x),
    "breit_wigner_overlay-resonance": lambda x: breit_wigner_overlay([0.5], [x]),
    "initial_guess-eps": lambda x: initial_guess(2, x, FAMILY, GuessKind.persist_sqrt(0)),
    "track-eps": lambda x: track(2, FAMILY, [0.05, x], GuessKind.persist_sqrt(0)),
    "CouplingFamily.well-eps": lambda x: FAMILY.well(x),
}

NOT_FINITE = {
    "array": np.array([0.1, 0.2]),
    "string": "0.1",
    "nan": math.nan,
    "inf": math.inf,
    "huge-int": 10**400,
    "bool": True,
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}-{kind}")
        for name, call in FINITE_ENTRY_POINTS.items()
        for kind, value in NOT_FINITE.items()
        # an array of lambdas is a grid of points, which mu evaluates
        if (name, kind) != ("mu-lambda", "array")
    ],
)
def test_a_finite_scalar_argument_is_one_finite_number(call, value):
    with pytest.raises(DomainError, match="must be one finite (nonzero )?(number|real)"):
        call(value)


INTEGER_ENTRY_POINTS = {
    "hankel-kind": lambda n: hankel(n, 0, 1 + 1j),
    "branch_limit_check-n": lambda n: branch_limit_check(n, "up"),
    "phase_shift_derivative-mode": lambda n: phase_shift_derivative(n, 0.3, WELL),
    "char_q-mode": lambda n: char_q(n, 0.3, WELL),
    "char_q_scale-mode": lambda n: char_q_scale(n, 0.3, WELL),
    "s_matrix_eigenvalue-mode": lambda n: s_matrix_eigenvalue(n, 0.3, WELL),
    "resonant_state-mode": lambda n: resonant_state(n, SurfacePoint.from_complex(0.3j), WELL, 0.5),
    "refine-mode": lambda n: refine(n, SurfacePoint.from_complex(0.3j), WELL),
}

NOT_INTEGER = {
    "integral-float": 1.0,
    "float": 1.5,
    "array": np.array([1, 2]),
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
    # operator.index takes it, as 1
    "bool": True,
}


@pytest.mark.parametrize("value", NOT_INTEGER.values(), ids=NOT_INTEGER)
@pytest.mark.parametrize("call", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
def test_an_integer_argument_is_one_integer(call, value):
    # the error names the argument passed, not an order it reaches inside
    with pytest.raises(DomainError, match="^(Hankel kind|branch index|mode) .* is not an integer"):
        call(value)


NOT_A_LOG_VALUE = {
    "string": "abc",
    "none": None,
    "list": [0.1, 0.2],
    "strings": np.array(["0.1", "0.2"]),
    "objects": np.array([0.1, None], dtype=object),
    "bools": np.array([True, False]),
    "bool": True,
}


@pytest.mark.parametrize("value", NOT_A_LOG_VALUE.values(), ids=NOT_A_LOG_VALUE)
def test_a_surface_point_holds_a_number_or_an_array_of_numbers(value):
    with pytest.raises(DomainError, match="neither a number nor an array of numbers"):
        SurfacePoint(value)


def test_a_surface_point_may_hold_a_logarithm_that_is_not_finite():
    # a start lost on its way may stop there: |lambda| = 0 is log -inf
    for w in (complex(-math.inf, 0.3), complex(0.0, math.nan), np.array([math.inf, 1j])):
        assert SurfacePoint(w).log_value is w


SPEC_INTEGER_FIELDS = {
    "ClassifySpec-l_max": lambda n: ClassifySpec(a=3.0, l_max=n),
    "Delta1dSpec-k_max": lambda n: Delta1dSpec(a=10.0, k_max=n, lambda_max=11.0, steps=3),
    "Delta1dSpec-steps": lambda n: Delta1dSpec(a=10.0, k_max=1, lambda_max=11.0, steps=n),
    "PhaseSpec-steps": lambda n: PhaseSpec(l0=1, eps=0.09, lambda_max=0.1, steps=n),
}


@pytest.mark.parametrize("value", [2.5, 3.0, "3"], ids=["float", "integral-float", "string"])
@pytest.mark.parametrize("spec", SPEC_INTEGER_FIELDS.values(), ids=SPEC_INTEGER_FIELDS)
def test_a_spec_integer_field_is_one_integer(spec, value, tmp_path):
    # steps = 2.5 would give the grid [0.04, 0.08, 0.12], past lambda_max = 0.1
    with pytest.raises(ConfigError, match="^(l_max|k_max|steps) .* is not an integer"):
        run(spec(value), tmp_path, "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", [["j"], None, "x"], ids=["list", "none", "string"])
def test_a_bessel_eval_kind_is_a_key_of_the_kind_table(kind, tmp_path):
    # a list is unhashable: a bare TypeError from the table lookup otherwise
    with pytest.raises(ConfigError, match="^kind must be one of j, y, h1, h2, got "):
        run(BesselEvalSpec(kind, 0, 1.0, 0.0), tmp_path, "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["no", 2, None, np.True_], ids=["string", "int", "none", "numpy-bool"])
def test_a_phase_spec_per_mode_is_one_bool(value, tmp_path):
    # only its truth value was read: "no" and 2 wrote the per-mode columns
    with pytest.raises(ConfigError, match="^per_mode must be True or False, got "):
        run(PhaseSpec(l0=1, eps=0.09, lambda_max=0.1, steps=3, per_mode=value), tmp_path, "out")
    assert list(tmp_path.iterdir()) == []


SPEC_REAL_FIELDS = {
    "PhaseSpec-lambda_min": lambda x: PhaseSpec(l0=1, eps=0.09, lambda_max=0.1, steps=3, lambda_min=x),
    "PhaseSpec-lambda_max": lambda x: PhaseSpec(l0=1, eps=0.09, lambda_max=x, steps=3),
    "Delta1dSpec-lambda_min": lambda x: Delta1dSpec(a=10.0, k_max=1, lambda_max=11.0, steps=3, lambda_min=x),
    "Delta1dSpec-lambda_max": lambda x: Delta1dSpec(a=10.0, k_max=1, lambda_max=x, steps=3),
    "LambertEvalSpec-re": lambda x: LambertEvalSpec(1, x, 0.0),
    "LambertEvalSpec-im": lambda x: LambertEvalSpec(1, 0.5, x),
}


@pytest.mark.parametrize("value", ["1", None], ids=["string", "none"])
@pytest.mark.parametrize("spec", SPEC_REAL_FIELDS.values(), ids=SPEC_REAL_FIELDS)
def test_a_spec_real_field_is_one_finite_real_number(spec, value, tmp_path):
    # a bare TypeError from math.isfinite, a comparison or complex() otherwise
    with pytest.raises(ConfigError, match="^(lambda-min|lambda-max|re|im) .* must be one finite real$"):
        run(spec(value), tmp_path, "out")
    assert list(tmp_path.iterdir()) == []


def test_a_spec_eps_grid_is_an_iterable(tmp_path):
    with pytest.raises(ConfigError, match="^eps grid 0.1 is not an iterable of numbers$"):
        run(TrackSpec(ell=2, l0=1, eps_grid=0.1), tmp_path, "out")
    assert list(tmp_path.iterdir()) == []


GRID_ENTRY_POINTS = {
    "PhaseTable.build": lambda grid: PhaseTable.build(grid, WELL),
    "breit_wigner_overlay": lambda grid: breit_wigner_overlay(grid, [1 - 1j]),
    "mode_tail_bound-lambda": lambda grid: mode_tail_bound(5, grid, WELL),
    "SurfacePoint.from_polar-modulus": lambda grid: SurfacePoint.from_polar(grid, 0.0),
    "SurfacePoint.from_polar-argument": lambda grid: SurfacePoint.from_polar(1.0, grid),
}

NOT_A_REAL_GRID = {
    "string": "abc",
    "strings": ["0.1", "0.2"],
    "complex": [0.1, 0.2 + 1j],
    "complex-number": 1 + 1j,
    "ragged": [[0.1], [0.1, 0.2]],
    "nan": [math.nan, 0.5],
    "inf": [0.5, math.inf],
}


@pytest.mark.parametrize("value", NOT_A_REAL_GRID.values(), ids=NOT_A_REAL_GRID)
@pytest.mark.parametrize("call", GRID_ENTRY_POINTS.values(), ids=GRID_ENTRY_POINTS)
def test_a_lambda_grid_holds_finite_real_numbers(call, value):
    with pytest.raises(DomainError, match="must hold finite real numbers"):
        call(value)


# an array of integers is a set of orders, which the mode cutoff passes
NOT_AN_INTEGER_ORDER = {
    "float": 1.5,
    "integral-float": 2.0,
    "string": "1",
    "float-array": np.array([1.0, 2.0]),
    "bool": True,
    "nan": math.nan,
}


@pytest.mark.parametrize("ell", NOT_AN_INTEGER_ORDER.values(), ids=NOT_AN_INTEGER_ORDER)
def test_a_tail_bound_order_is_an_integer(ell):
    with pytest.raises(DomainError, match="integer ell"):
        mode_tail_bound(ell, 1.0, WELL)


def test_a_tail_bound_of_any_integer_dtype_is_the_same_bound():
    # ell**3 in int8 or uint8 arithmetic wraps from ell = 6 or 7 on
    want = mode_tail_bound(np.arange(1, 60), 1.0, WELL)
    for dtype in (np.uint8, np.int8, np.int16):
        assert np.array_equal(mode_tail_bound(np.arange(1, 60, dtype=dtype), 1.0, WELL), want)


def test_an_order_table_kind_is_j_or_y():
    with pytest.raises(DomainError, match="kind 'j' or 'y'"):
        order_table("x", np.array([1]), np.array([1.0]))


def test_every_sigma_prime_entry_reads_one_lambda_range():
    well = Well(2.4)
    entries = (
        lambda lam: phase_shift_derivative(0, lam, well),
        lambda lam: total_phase_derivative(lam, well),
        lambda lam: PhaseTable.build([lam], well),
        lambda lam: scattering_phase(lam, well),
    )
    for call in entries:
        call(LAMBDA_MAX)
        call(MIN_ABS_ARGUMENT)
        # below the smallest normal float, as in the cylinder range
        for lam in (math.nextafter(LAMBDA_MAX, math.inf), 7.0,
                    math.nextafter(MIN_ABS_ARGUMENT, 0.0), 1e-320):
            with pytest.raises(RangeError, match="outside"):
                call(lam)
