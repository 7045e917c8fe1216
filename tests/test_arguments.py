"""One rule per kind of scalar argument.

A positive scalar (a depth, a radius, a scaling factor, the `phase` offset
eps or a real lambda) is one real number with 0 < x < inf
(`cylinder._positive`); a finite one (a complex lambda, a Lambert W
argument, a resonance, a coupling offset eps) is one finite number, real
where it must be (`cylinder._finite`); a mode, a branch index or a Hankel
kind is one integer (`cylinder._integer`).  Every public entry point that
takes one raises DomainError for anything else: an array, a string, nan,
inf, and zero or a negative number where x > 0.  An array of reals (a
lambda grid, a polar modulus or argument) holds finite real numbers alone
(`cylinder._real_grid`): a string, a complex number, a ragged nest, nan and
inf are a DomainError there too.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from resonance_lab import (
    CouplingFamily,
    DomainError,
    GuessKind,
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
    delta_phase_derivative,
    delta_resonance,
    hankel,
    initial_guess,
    lambert_w,
    mode_tail_bound,
    mu,
    phase_shift_derivative,
    resonant_state,
    s_matrix_eigenvalue,
    scattering_phase,
    sector_scan,
    total_phase_derivative,
    track,
)
from resonance_lab.cylinder import order_table
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
}

NOT_INTEGER = {
    "integral-float": 1.0,
    "float": 1.5,
    "array": np.array([1, 2]),
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
}


@pytest.mark.parametrize("value", NOT_INTEGER.values(), ids=NOT_INTEGER)
@pytest.mark.parametrize("call", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS)
def test_an_integer_argument_is_one_integer(call, value):
    # the error names the argument passed, not an order it reaches inside
    with pytest.raises(DomainError, match="^(Hankel kind|branch index|mode) .* is not an integer"):
        call(value)


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
        for lam in (math.nextafter(LAMBDA_MAX, math.inf), 7.0):
            with pytest.raises(RangeError, match="outside"):
                call(lam)
