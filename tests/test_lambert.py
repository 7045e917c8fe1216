import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resonance_lab import DomainError, RangeError, branch_limit_check, lambert_w

import oracles

PI = math.pi


def residual(n, x):
    w = lambert_w(n, x)
    return abs(w * cmath.exp(w) - x)


def test_principal_at_zero():
    assert lambert_w(0, 0) == 0


def test_branch_point():
    assert lambert_w(-1, -1 / math.e) == pytest.approx(-1.0, abs=1e-8)
    assert lambert_w(0, -1 / math.e) == pytest.approx(-1.0, abs=1e-8)


def test_lower_branch_matches_bisection():
    got = lambert_w(-1, -0.1)
    assert abs(got.imag) <= 1e-14
    assert got.real == pytest.approx(oracles.lambert_lower_real(-0.1), abs=1e-10)
    assert got.real == pytest.approx(-3.577152, abs=1e-6)


def test_zero_rejected_off_principal_branch():
    with pytest.raises(DomainError):
        lambert_w(-1, 0)
    with pytest.raises(DomainError):
        lambert_w(3, 0)


# scipy truncates a non-integer k: lambert_w(1.5, 0.3) would be W_1(0.3)
@pytest.mark.parametrize(
    "n",
    [1.5, -0.5, 1.0, np.float64(2.0), np.array([0, 1])],
    ids=["half", "negative-half", "integral-float", "numpy-float", "array"],
)
def test_non_integer_branch_is_a_domain_error(n):
    with pytest.raises(DomainError, match="branch index"):
        lambert_w(n, 0.3)


def test_a_branch_index_past_a_c_long_is_a_range_error():
    # scipy converts the index to a C long: past it, a bare OverflowError
    for n in (2**63, -(2**63) - 1, 10**20):
        with pytest.raises(RangeError, match=f"branch index {n} outside"):
            lambert_w(n, 1.0)
    for n in (2**63 - 1, -(2**63)):
        w = lambert_w(n, 1.0)
        assert math.isfinite(w.real) and abs(w.imag) > 5e19


def test_residual_on_reference_grid():
    # |x| log-spaced over [1e-8, 1e3], 24 phases, branches -5..5
    for mod in np.logspace(-8, 3, 12):
        for k in range(24):
            x = mod * cmath.exp(1j * (-PI + (k + 1) * 2 * PI / 24))
            for n in range(-5, 6):
                assert residual(n, x) <= 1e-12 * max(1.0, abs(x))


@given(
    n=st.integers(min_value=-5, max_value=5),
    mod=st.floats(min_value=1e-8, max_value=1e3),
    arg=st.floats(min_value=-3.1, max_value=3.1),
)
def test_residual_property(n, mod, arg):
    x = mod * cmath.exp(1j * arg)
    assert residual(n, x) <= 1e-12 * max(1.0, abs(x))


def test_real_part_tracks_log_for_small_arguments():
    for n in (-3, -1, 1, 3):
        for eps in (1e-10, 1e-6, 1e-3, -1e-10, -1e-6, -1e-3):
            w = lambert_w(n, eps)
            assert w.real <= math.log(abs(eps)) + 10.0


def test_imaginary_limits_reached_far_down():
    # the gap to the limit decays like 2 pi |n| / |log eps|, so the 0.2
    # target needs extremely small arguments for the outer branches
    for n in (1, 2, 5, -1, -2, -5):
        up = branch_limit_check(n, "up")
        down = branch_limit_check(n, "down")
        assert abs(lambert_w(n, -1e-80).imag - up) <= 0.2
        assert abs(lambert_w(n, 1e-80).imag - down) <= 0.2


def test_imaginary_limit_envelope_and_shrinking_gap():
    for n in (1, 2, 5, -1, -2, -5):
        for sign, side in ((-1.0, "up"), (1.0, "down")):
            lim = branch_limit_check(n, side)
            gaps = []
            for mag in (1e-8, 1e-10, 1e-12):
                gap = abs(lambert_w(n, sign * mag).imag - lim)
                assert gap <= 2 * PI * abs(n) / abs(math.log(mag)) + 0.05
                gaps.append(gap)
            # W_{-1} is real on (-1/e, 0), so that gap is identically zero
            assert gaps[2] <= gaps[0]


def test_branches_stay_separated():
    for x in (0.5, -0.2, 1j, -0.05 + 0.02j, 100.0):
        values = [lambert_w(n, x) for n in range(-3, 4)]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) > 1.0


def test_branch_imaginary_band():
    # Im W_n lives within the horizontal band of branch n
    for n in (-4, -1, 1, 4):
        for x in (0.3, 0.2 + 0.1j):
            w = lambert_w(n, x)
            assert 2 * n * PI - PI - 0.5 < w.imag < 2 * n * PI + PI + 0.5


def test_branch_band_on_negative_axis():
    # The cut along (-inf, 0) is closed from above, so on-cut values sit in
    # the one-sided strips: ((2n-1)pi, (2n+1)pi) for n >= 1 but
    # ((2n+1)pi, (2n+2)pi) for n <= -1, which pokes past the symmetric band.
    for n in (1, 4):
        w = lambert_w(n, -0.3)
        assert (2 * n - 1) * PI < w.imag < (2 * n + 1) * PI
    for n in (-4, -2):
        w = lambert_w(n, -0.3)
        assert (2 * n + 1) * PI < w.imag < (2 * n + 2) * PI
    # W_{-1} is real on (-1/e, 0)
    assert lambert_w(-1, -0.3).imag == 0.0


def test_branch_limit_check_examples():
    assert branch_limit_check(-1, "up") == pytest.approx(0.0)
    assert branch_limit_check(-1, "down") == pytest.approx(-PI)
    assert branch_limit_check(1, "down") == pytest.approx(PI)
    with pytest.raises(DomainError):
        branch_limit_check(0, "up")
    for side in ("sideways", "+"):
        with pytest.raises(DomainError):
            branch_limit_check(1, side)
