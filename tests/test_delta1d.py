"""Half-line delta potential: closed-form resonances and phase derivative."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resonance_lab import (
    DomainError,
    RangeError,
    delta_phase_derivative,
    delta_resonance,
)
from oracles import delta_fd_phase_derivative


def test_golden_resonances_at_strength_ten():
    assert abs(delta_resonance(10.0, 1) - (2.877577458 - 0.0665106j)) <= 1e-6
    assert abs(delta_resonance(10.0, 2) - (5.841379586 - 0.20648j)) <= 1e-4
    assert abs(delta_resonance(10.0, 3) - (8.880653554 - 0.34784182j)) <= 1e-6


def test_resonance_condition_residual():
    for a in (2.0, 10.0, 30.0):
        target = a * math.exp(a)
        for k in range(1, 7):
            lam = delta_resonance(a, k)
            w = a - 2j * lam
            assert abs(w * cmath.exp(w) - target) <= 1e-10 * abs(target)


@pytest.mark.parametrize("k", [1.5, -1.5, -2.5, 2.0, 1.0, "1"])
def test_resonance_index_must_be_an_integer(k):
    with pytest.raises(DomainError, match=f"resonance index {k} is not an integer"):
        delta_resonance(10.0, k)


@given(a=st.floats(1.0, 30.0), k=st.integers(1, 6))
def test_resonance_condition_property(a, k):
    lam = delta_resonance(a, k)
    w = a - 2j * lam
    target = a * math.exp(a)
    assert abs(w * cmath.exp(w) - target) <= 1e-10 * abs(target)


def test_widths_increase_with_index():
    ims = [delta_resonance(10.0, k).imag for k in range(1, 7)]
    assert all(b < a for a, b in zip(ims, ims[1:]))
    assert all(v < 0 for v in ims)


def test_mirror_symmetry():
    for k in (1, 2, 3):
        plus = delta_resonance(10.0, k)
        minus = delta_resonance(10.0, -k)
        assert abs(minus - (-plus.conjugate())) <= 1e-12 * abs(plus)


def test_resonance_argument_validation():
    with pytest.raises(DomainError):
        delta_resonance(-1.0, 1)
    with pytest.raises(DomainError):
        delta_resonance(10.0, 0)
    with pytest.raises(RangeError):
        delta_resonance(301.0, 1)


def test_phase_derivative_matches_ode_oracle():
    for lam in (0.1, 0.2):
        v = delta_phase_derivative(10.0, lam)
        assert abs(v - delta_fd_phase_derivative(10.0, lam)) <= 1e-8


def test_phase_derivative_removable_at_pi():
    # sin(lambda) = 0 there; the multiplied-through form stays finite
    v = delta_phase_derivative(10.0, math.pi)
    nearby = 0.5 * (
        delta_phase_derivative(10.0, math.pi - 1e-5)
        + delta_phase_derivative(10.0, math.pi + 1e-5)
    )
    assert abs(v - nearby) <= 1e-8


def test_phase_derivative_free_limit():
    # as a grows the half-line looks like a hard wall of length 1
    assert abs(delta_phase_derivative(1e4, 1.0) + 1.0 / math.pi) <= 2.0 / 1e4


def test_phase_derivative_peak_matches_breit_wigner():
    lam1 = delta_resonance(10.0, 1)
    peak = delta_phase_derivative(10.0, lam1.real)
    approx = -1.0 / math.pi + (-lam1.imag) / (math.pi * abs(lam1.real - lam1) ** 2)
    assert peak == pytest.approx(approx, rel=0.15)


def test_phase_derivative_breit_wigner_fidelity():
    res = [delta_resonance(10.0, k) for k in (1, 2, 3)]
    res += [-r.conjugate() for r in res]
    for lam in np.linspace(0.5, 3.5, 101):
        bw = -1.0 / math.pi + sum(
            (-r.imag) / (math.pi * abs(lam - r) ** 2) for r in res
        )
        assert abs(delta_phase_derivative(10.0, lam) - bw) <= 0.05


def test_phase_derivative_validation():
    with pytest.raises(DomainError):
        delta_phase_derivative(0.0, 1.0)
    with pytest.raises(DomainError):
        delta_phase_derivative(10.0, 0.0)


@pytest.mark.parametrize(
    "a, lam", [(1.0, math.inf), (math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan)]
)
def test_phase_derivative_rejects_non_finite(a, lam):
    with pytest.raises(DomainError):
        delta_phase_derivative(a, lam)
