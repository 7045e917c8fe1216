import cmath
import math
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special
from scipy.special import jv, yn, yv

from resonance_lab import (
    DomainError,
    RangeError,
    SurfacePoint,
    Well,
    bessel_j,
    bessel_y,
    bessel_zero,
    char_q,
    char_q_scale,
    hankel,
    sector_scan,
)
from resonance_lab import cylinder
from resonance_lab.cylinder import (
    EULER_GAMMA,
    MAX_ABS_PHASE,
    MIN_CHUNK_POINTS,
    _cover_pair,
    _grid_pair,
    _reduce_argument,
    _reduced,
    _value,
    order_table,
)

import oracles
from equivalent_forms import derivative_by_recurrence

PI = math.pi


def bits(values):
    """The int64 words of complex values, so that signed zeros count."""
    return np.asarray(values, complex).view(np.int64)


def cover_call(call, ell, moduli):
    """call(), a kernel at points of the cover with these moduli, or None if
    it raises RangeError.  It may raise only where Y_n, n = |ell|, overflows:
    where scipy's yv(n, |z|) passes the largest float, e^709.8, which a
    margin of e^10 either way keeps clear of rounding.  An overflow of yv
    counts as beyond e^709.8, by the small-argument size (n-1)! (2/|z|)^n / pi
    where that is further."""
    n = abs(ell)
    top = math.log(sys.float_info.max)

    def log_size(r):
        y = abs(yv(n, r))
        if y < math.inf:
            return math.log(y)
        return max(top, math.lgamma(n) + n * math.log(2 / r) - math.log(PI))

    size = max(log_size(r) for r in moduli)
    try:
        got = call()
    except RangeError:
        assert size > top - 10
        return None
    assert size < top + 10
    return got


def listed(ell, at, pair):
    """A list body's (C_n, C_{n-1}) at the arguments at, as the CylinderValue
    of a call there: odd negative orders reflected, the derivative read from
    the recurrence at each element."""
    return _value(ell, np.array(at, complex), *(np.array(c, complex) for c in pair))


# ---------------------------------------------------------------------------
# SurfacePoint
# ---------------------------------------------------------------------------


def test_surface_point_round_trip():
    p = SurfacePoint.from_polar(2.0, 3 * PI)  # not the principal sheet
    assert type(p.log_value) is complex
    assert p.modulus == pytest.approx(2.0)
    assert p.argument == 3 * PI
    # collapsing to a plain complex number loses the sheet
    assert p.value == pytest.approx(2.0 * cmath.exp(3j * PI))


def test_surface_point_distinct_across_sheets():
    a = SurfacePoint.from_polar(1.0, 0.3)
    b = SurfacePoint.from_polar(1.0, 0.3 + 2 * PI)
    assert a != b
    assert abs(a.value - b.value) < 1e-15


def test_surface_point_zero_rejected():
    with pytest.raises(DomainError):
        SurfacePoint.from_complex(0)
    with pytest.raises(DomainError):
        SurfacePoint.from_polar(0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_surface_point_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        SurfacePoint.from_complex(bad)
    with pytest.raises(DomainError):
        SurfacePoint.from_polar(abs(bad), 0.0)
    with pytest.raises(DomainError):
        SurfacePoint.from_polar(1.0, abs(bad))


def test_surface_point_scaled_keeps_argument():
    p = SurfacePoint.from_polar(0.5, 5.0)
    q = p.scaled(3.0)
    assert q.argument == 5.0
    assert q.modulus == pytest.approx(1.5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            p.scaled(bad)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_phase_past_the_bound_is_a_range_error(sign):
    # the reduction by m pi loses about |theta| * 1e-16: unchecked, 1e16 would
    # give theta0 = 2.0, outside (-pi/2, pi/2], and 3e16 a meaningless sheet
    bound = sign * MAX_ABS_PHASE
    past = math.nextafter(bound, sign * math.inf)
    theta0, m = _reduce_argument(bound)
    assert -PI / 2 < theta0 <= PI / 2 and abs(m) == 333772
    grid = SurfacePoint(np.array([0.0, complex(0.0, bound)]))
    inside = [lambda: hankel(1, 0, SurfacePoint(complex(0.0, bound))), lambda: hankel(2, 3, grid),
              lambda: bessel_y(1, SurfacePoint(complex(0.0, bound))), lambda: char_q(1, grid, Well(2.0))]
    for call in inside:
        got = call()
        assert np.isfinite(getattr(got, "value", got)).all()
    message = f"phase {past!r} outside validated range |arg z| <= {MAX_ABS_PHASE!r}"
    for theta in (sign * 1e16, sign * 3e16):
        with pytest.raises(RangeError, match="outside validated range"):
            _reduce_argument(theta)
    grid = SurfacePoint(np.array([0.0, complex(0.0, past)]))
    for call in (
        lambda: _reduce_argument(past),
        lambda: _reduced(0, [0j, complex(0.0, past)]),
        lambda: hankel(1, 0, SurfacePoint(complex(0.0, past))),
        lambda: hankel(2, 3, grid),
        lambda: bessel_y(1, SurfacePoint(complex(0.0, past))),
        lambda: char_q(1, SurfacePoint(complex(0.0, past)), Well(2.0)),
        lambda: char_q(1, grid, Well(2.0)),
    ):
        with pytest.raises(RangeError) as error:
            call()
        assert str(error.value) == message


def test_reduce_argument_half_open_convention():
    theta0, m = _reduce_argument(PI / 2)
    assert m == 0 and theta0 == pytest.approx(PI / 2)
    theta0, m = _reduce_argument(PI / 2 + 1e-9)
    assert m == 1
    theta0, m = _reduce_argument(-PI)
    assert m == -1 and theta0 == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# pinned point values
# ---------------------------------------------------------------------------


def test_j0_at_tiny_argument_is_one():
    assert bessel_j(0, 1e-9).value == pytest.approx(1.0, abs=1e-12)


def test_j1_first_zero():
    assert abs(bessel_j(1, 3.8317059702).value) < 5e-10


def test_j2_complex_matches_series():
    z = 1.0 + 0.5j
    got = bessel_j(2, z)
    assert abs(got.value - oracles.j_series(2, z)) <= 1e-12
    assert abs(got.derivative - oracles.j_series_derivative(2, z)) <= 1e-12


def test_y0_small_argument_log_law():
    z = 1e-4
    expected = (2 / PI) * (math.log(z / 2) + EULER_GAMMA)
    assert bessel_y(0, z).value.real == pytest.approx(expected, abs=1e-7)


def test_y1_small_argument_pole_law():
    z = 1e-3
    got = bessel_y(1, z).value.real
    assert abs(got - (-2 / (PI * z))) <= 0.01 * abs(got)


def test_y3_matches_nu_derivative_oracle():
    got = bessel_y(3, 2.0).value
    assert abs(got - oracles.y_by_nu_derivative(3, 2.0)) <= 1e-6


def test_real_positive_arguments_take_real_path():
    for ell in (0, 1, 4):
        for fn in (bessel_j, bessel_y):
            cv = fn(ell, 7.3)
            assert cv.value.imag == 0.0
            assert cv.derivative.imag == 0.0


# ---------------------------------------------------------------------------
# Hankel functions on the cover
# ---------------------------------------------------------------------------


def test_hankel_large_argument_leading_form():
    # exact deviation of H^(1)_0 from the leading form at z=10 is ~1/(8z),
    # i.e. 0.0125; anything much tighter would mean the kernel is wrong
    got = hankel(1, 0, SurfacePoint.from_polar(10.0, 0.0)).value
    assert abs(got / oracles.hankel_leading(1, 0, 10.0) - 1) <= 0.013


def test_hankel_sum_is_twice_j():
    for ell in (0, 1, 3):
        z = 2.3 + 0.7j
        total = hankel(1, ell, z).value + hankel(2, ell, z).value
        assert abs(total - 2 * bessel_j(ell, z).value) <= 1e-12 * abs(total)


@pytest.mark.parametrize("arg", [4.0, -4.0, 7.0])
@pytest.mark.parametrize("ell", [0, 1, 3])
def test_y_on_the_cover_is_the_hankel_difference(ell, arg):
    pt = SurfacePoint.from_polar(1.7, arg)
    y, h1, h2 = bessel_y(ell, pt), hankel(1, ell, pt), hankel(2, ell, pt)
    for part in ("value", "derivative"):
        want = (getattr(h1, part) - getattr(h2, part)) / 2j
        assert abs(getattr(y, part) - want) <= 1e-12 * abs(want)


def test_y_on_the_principal_sheet_is_scipys():
    for arg in (-3.0, -0.4, 2.0, PI):
        pt = SurfacePoint.from_polar(1.7, arg)
        assert bessel_y(2, pt) == bessel_y(2, pt.value)


def test_hankel_two_reduction_paths_agree():
    # continue H^(1)_0 to arg = pi + 0.1 two ways: through the kernel's own
    # sheet reduction, and by hand from the principal value at arg = -pi + 0.1
    # (two pi-steps of the connection formula: H -> H - 4J)
    pt = SurfacePoint.from_polar(2.0, PI + 0.1)
    via_kernel = hankel(1, 0, pt).value
    z1 = 2.0 * cmath.exp(1j * (-PI + 0.1))
    h_principal = bessel_j(0, z1).value + 1j * bessel_y(0, z1).value
    by_hand = h_principal - 4.0 * bessel_j(0, z1).value
    assert abs(via_kernel - by_hand) <= 1e-11 * abs(by_hand)


@pytest.mark.parametrize("boundary", [PI / 2, PI, 3 * PI / 2, -PI / 2, -2 * PI])
@pytest.mark.parametrize("ell", [0, 1, 3])
def test_hankel_continuous_across_sheet_boundaries(boundary, ell):
    delta = 1e-8
    lo = hankel(1, ell, SurfacePoint.from_polar(2.0, boundary - delta)).value
    hi = hankel(1, ell, SurfacePoint.from_polar(2.0, boundary + delta)).value
    assert abs(hi - lo) <= 1e-6 * abs(lo)
    # low is the order below at the same point, on every sheet and both kinds
    for kind in (1, 2):
        for arg in (boundary - delta, boundary + delta):
            pt = SurfacePoint.from_polar(2.0, arg)
            assert hankel(kind, ell, pt).low == hankel(kind, ell - 1, pt).value


def test_hankel_asymptotics_decay_like_one_over_z():
    # phases stay near the real axis: J + iY cancels catastrophically once
    # |Im z| is large enough that H^(1) is exponentially subdominant
    for ell in (0, 1, 2):
        errs = []
        for mod in (20.0, 40.0, 80.0):
            for arg in (0.0, 2.0 / mod, -2.0 / mod):
                got = hankel(1, ell, SurfacePoint.from_polar(mod, arg)).value
                ref = oracles.hankel_leading(1, ell, mod * cmath.exp(1j * arg))
                rel = abs(got / ref - 1)
                assert rel <= 1.3 * (4 * ell * ell + 1) / (8 * mod)
            errs.append(rel)
        assert errs[-1] < errs[0]  # O(1/|z|) decay


def test_hankel_reflection_negative_order():
    pt = SurfacePoint.from_polar(1.7, 2.9)
    for ell in (1, 2, 5):
        direct = hankel(1, -ell, pt).value
        expected = (-1) ** ell * hankel(1, ell, pt).value
        assert direct == expected
        # low is not reflected: H_{|ell|-1} for either sign of ell
        assert hankel(1, -ell, pt).low == hankel(1, ell, pt).low


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(
    ell=st.integers(min_value=1, max_value=20),
    mod=st.floats(min_value=0.1, max_value=30.0),
    phase_idx=st.integers(min_value=1, max_value=16),
)
def test_recurrence_residual(ell, mod, phase_idx):
    z = mod * cmath.exp(1j * (-PI + phase_idx * 2 * PI / 16))
    for fn in (bessel_j, bessel_y):
        lo = fn(ell - 1, z).value
        assert fn(ell, z).low == lo
        mid = fn(ell, z).value
        hi = fn(ell + 1, z).value
        resid = lo + hi - (2 * ell / z) * mid
        assert abs(resid) <= 1e-10 * max(abs(lo), abs(mid), abs(hi))


@given(x=st.floats(min_value=0.05, max_value=30.0), ell=st.integers(0, 10))
def test_wronskian(x, ell):
    w = (
        bessel_j(ell + 1, x).value * bessel_y(ell, x).value
        - bessel_j(ell, x).value * bessel_y(ell + 1, x).value
    )
    assert abs(w - 2 / (PI * x)) <= 1e-11


@given(
    ell=st.integers(min_value=0, max_value=15),
    mod=st.floats(min_value=0.2, max_value=30.0),
    arg=st.floats(min_value=-3.0, max_value=3.0),
)
def test_differential_equation_residual(ell, mod, arg):
    z = mod * cmath.exp(1j * arg)
    c = bessel_j(ell, z)
    below = bessel_j(ell - 1, z)
    # C'' from differentiating C' = C_{ell-1} - (ell/z) C
    second = below.derivative - (ell / z) * c.derivative + (ell / z**2) * c.value
    resid = z * z * second + z * c.derivative + (z * z - ell * ell) * c.value
    scale = max(
        abs(z * z * second), abs(z * c.derivative), abs((z * z - ell * ell) * c.value)
    )
    assert abs(resid) <= 1e-9 * scale


@given(ell=st.integers(1, 10), mod=st.floats(0.3, 20.0), arg=st.floats(-6.0, 6.0))
def test_j_reflection_property(ell, mod, arg):
    z = mod * cmath.exp(1j * max(min(arg, PI), -PI + 1e-9))
    assert bessel_j(-ell, z).value == (-1) ** ell * bessel_j(ell, z).value


@given(mod=st.floats(0.3, 3.0), arg=st.floats(-7.0, 7.0), ell=st.integers(0, 4))
def test_hankel_phase_continuity_property(mod, arg, ell):
    # one short step in the phase moves H by O(|z| * step); moduli kept small
    # enough that J + iY loses no precision anywhere on the cover
    step = 1e-7
    a = hankel(1, ell, SurfacePoint.from_polar(mod, arg)).value
    b = hankel(1, ell, SurfacePoint.from_polar(mod, arg + step)).value
    assert abs(b - a) <= 1e-4 * (abs(a) + abs(b)) + 1e-300


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zero_literals():
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-12)


def test_zeros_match_series_bisection():
    for ell, k in ((0, 1), (1, 1), (2, 1), (0, 2)):
        assert bessel_zero(ell, k) == pytest.approx(
            oracles.series_zero(ell, k), abs=1e-9
        )


def test_zeros_are_zeros_and_interlace():
    for ell in range(0, 6):
        for k in (1, 2, 3):
            x = bessel_zero(ell, k)
            assert abs(bessel_j(ell, x).value) <= 1e-12
            assert bessel_zero(ell, k) < bessel_zero(ell + 1, k)
            assert bessel_zero(ell + 1, k) < bessel_zero(ell, k + 1)


# ---------------------------------------------------------------------------
# range policing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: bessel_j(0, math.nan), id="bessel_j-real-nan"),
        pytest.param(lambda: bessel_y(1, complex(math.nan, 1)), id="bessel_y-complex-nan"),
        pytest.param(
            lambda: hankel(1, 0, SurfacePoint(complex(math.nan, 0))), id="hankel-nan-modulus"
        ),
    ],
)
def test_nan_argument_is_a_range_error(call):
    with pytest.raises(RangeError):
        call()


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_hankel_rejects_non_finite_phase(phase):
    with pytest.raises(DomainError):
        hankel(1, 0, SurfacePoint(complex(0.0, phase)))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: bessel_j(-1.5, 1.0), id="bessel_j-half-order"),
        pytest.param(lambda: bessel_y(0.5, 1.0), id="bessel_y-half-order"),
        pytest.param(lambda: hankel(1, 1.5, 1.0), id="hankel-half-order"),
        pytest.param(lambda: hankel(2, 2.0, 1.0), id="hankel-float-order"),
        pytest.param(lambda: bessel_j(np.array([0.0, 1.0]), 1.0), id="bessel_j-float-dtype"),
        pytest.param(lambda: bessel_y(np.array([], dtype=float), 1.0), id="bessel_y-empty-float"),
        pytest.param(lambda: bessel_zero(1.5, 1), id="bessel_zero-half-order"),
        pytest.param(lambda: bessel_zero(1, 2.0), id="bessel_zero-float-index"),
    ],
)
def test_non_integer_order_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_array_arguments_match_scalar_calls():
    xs = np.array([1e-3, 0.4, 1.0, 2.5, 7.3, 40.0, 99.0])
    for fn in (bessel_j, bessel_y):
        for ell in range(-3, 9):
            ones = [fn(ell, float(x)) for x in xs]
            for one, x in zip(ones, xs):
                assert type(one.value) is type(one.derivative) is type(one.low) is complex
                assert one.value.imag == one.derivative.imag == one.low.imag == 0.0
                assert one.low == fn(abs(ell) - 1, float(x)).value
            # float and complex arrays give the scalar calls' bits; Im = 0
            # keeps the real path
            for z in (xs, xs + 0j):
                table = fn(ell, z)
                for part in ("value", "derivative", "low"):
                    want = [getattr(one, part) for one in ones]
                    assert np.array_equal(bits(getattr(table, part)), bits(want))
        with pytest.raises(RangeError):
            fn(2, np.append(xs, 100.5))
        with pytest.raises(RangeError):
            fn(81, xs)
        with pytest.raises(RangeError):
            fn(2, np.append(xs, math.nan))
        with pytest.raises(DomainError):
            fn(2, np.append(xs, 0.0))


def test_kernels_take_one_order_and_read_float_arrays_as_complex():
    grid = SurfacePoint.from_polar(np.array([0.5, 2.0]), np.array([0.3, 4.0]))
    orders, well = np.array([0, 1]), Well(2.0)
    calls = (
        lambda: bessel_j(orders, 1.0),
        lambda: bessel_j(orders, np.array([1.0, 2.0])),
        lambda: bessel_y(orders, 1.0),
        lambda: bessel_y(orders, SurfacePoint.from_polar(1.0, 4.0)),
        lambda: hankel(1, orders, 1.0),
        lambda: hankel(2, orders, grid),
        lambda: char_q(orders, 0.5 + 0j, well),
        lambda: char_q(orders, grid, well),
        # Y on the cover takes one point
        lambda: bessel_y(0, grid),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()
    # a float array is read as complex; a negative real is continued as
    # the scalar call continues it
    xs = np.array([-99.0, -2.5, -1e-3, 1e-3, 0.4, 7.3, 99.0])
    for fn in (bessel_j, bessel_y):
        for ell in (-3, 0, 1, 4, 80):
            table = fn(ell, xs)
            for part in ("value", "derivative", "low"):
                got = getattr(table, part)
                assert got.dtype == complex
                want = [getattr(fn(ell, float(x)), part) for x in xs]
                assert np.array_equal(bits(got), bits(want))


@given(
    columns=st.lists(
        st.tuples(st.integers(0, 80), st.floats(0.0, 100.0, exclude_min=True)),
        min_size=1, max_size=4,
    )
)
def test_order_tables_equal_the_per_order_calls_bit_for_bit(columns):
    top = np.array([t for t, _ in columns])
    x = np.array([x for _, x in columns])
    for kind, fn in (("j", bessel_j), ("y", bessel_y)):
        table = order_table(kind, top, x)
        for c in range(len(x)):
            ones = [fn(ell, float(x[c])) for ell in range(top[c] + 1)]
            # a real argument takes the real path: the tables hold the real parts; row
            # ell + 1 is C_ell and row ell its low, C_{ell-1}
            for rows, part in ((table[1:], "value"), (table[:-1], "low")):
                want = [getattr(one, part).real for one in ones]
                assert np.array_equal(bits(rows[: top[c] + 1, c]), bits(want))


def real_y_error(ell, x, got):
    """|got - Y_ell(x)| as a share of sqrt(J_ell(x)^2 + Y_ell(x)^2), both from
    mpmath at 40 digits; None where the true |Y| is 1e307 or more, at the
    edge of the float range."""
    with mpmath.workdps(40):
        y, j = mpmath.bessely(ell, x), mpmath.besselj(ell, x)
        if abs(y) >= 1e307:
            return None
        return float(abs(mpmath.mpf(got) - y) / mpmath.sqrt(j * j + y * y))


@given(
    at=st.one_of(
        st.tuples(st.integers(0, 80), st.floats(1e-3, 100.0)),
        st.tuples(st.integers(0, 2), st.floats(cylinder.MIN_ABS_ARGUMENT, 100.0)),
    )
)
@example(at=(80, 17.588249158761528))  # AMOS's complex yv is 6.5e-14 off here
@example(at=(70, 0.002058683638015428))  # and -inf here, where |Y| is 7.2e306
def test_real_y_is_within_2e_14_of_mpmath(at):
    ell, x = at
    table = order_table("y", np.array([ell]), np.array([x]))
    for got in (bessel_y(ell, x).value.real, table[ell + 1, 0]):
        error = real_y_error(ell, x, got)
        assert error is None or error <= 2e-14


def test_real_y_is_finite_wherever_its_value_is():
    # |Y_68(0.00166)| is 3.7e303, below the largest float; AMOS's yv overflows here
    y = bessel_y(68, 0.00166)
    table = order_table("y", np.array([68]), np.array([0.00166]))
    assert math.isfinite(y.value.real) and math.isfinite(table[69, 0])


@pytest.mark.parametrize(
    "top, x, error",
    [
        (np.array([2.0]), np.array([1.0]), DomainError),
        (np.array([2, 81]), np.array([1.0, 2.0]), RangeError),
        (np.array([2, 3]), np.array([1.0, 100.5]), RangeError),
        (np.array([2, 3]), np.array([1.0, math.nan]), RangeError),
        (np.array([2, 3]), np.array([1.0, 0.0]), DomainError),
        (np.array([2, 3]), np.array([1.0, -1.0]), DomainError),
    ],
    ids=["float-order", "order-81", "x-above-100", "x-nan", "x-zero", "x-negative"],
)
def test_order_tables_raise_what_bessel_j_raises(top, x, error):
    for kind in ("j", "y"):
        with pytest.raises(error):
            order_table(kind, top, x)
    # bessel_j at the largest order raises the same, except that it
    # continues a negative argument, which a table rejects
    if x.min() < 0:
        assert np.isfinite(bessel_j(top.max(), x).value).all()
        return
    with pytest.raises(error):
        bessel_j(top.max(), x)


@pytest.mark.parametrize("bad", [[1.0, 2.0], (1.0,), "1.0", None, np.array(["a"]), np.array([None])])
def test_an_argument_that_is_no_number_is_a_domain_error(bad):
    for call in (bessel_j, bessel_y):
        with pytest.raises(DomainError, match="neither a number nor an array of numbers"):
            call(0, bad)
    with pytest.raises(DomainError, match="must be one finite nonzero number"):
        hankel(1, 0, bad)


def test_domain_and_range_errors():
    with pytest.raises(DomainError):
        bessel_j(0, 0)
    with pytest.raises(RangeError):
        bessel_j(0, 101.0)
    with pytest.raises(RangeError):
        bessel_j(81, 1.0)
    with pytest.raises(RangeError):
        hankel(1, 0, SurfacePoint.from_polar(150.0, 0.0))
    with pytest.raises(RangeError):
        hankel(1, 0, SurfacePoint.from_polar(100.0 * (1 + 1e-12), 0.0))
    with pytest.raises(RangeError):
        hankel(1, 0, SurfacePoint.from_polar(np.array([1.0, 100.0 * (1 + 1e-12)]), 0.0))
    with pytest.raises(DomainError):
        hankel(3, 0, SurfacePoint.from_polar(1.0, 0.0))
    # log|z| = -2000: e^w underflows to 0, so the cover's lower bound is checked on log|z|
    tiny = SurfacePoint(complex(-2000, 1.5707963267948966))
    for call in (
        lambda: hankel(1, 0, tiny),
        lambda: hankel(2, 3, SurfacePoint(np.array([0.0, tiny.log_value]))),
        lambda: bessel_y(0, tiny),
        lambda: bessel_y(2, SurfacePoint(complex(-2000, 4.0))),
        lambda: char_q(0, tiny, Well(2.0)),
        # a subnormal plain argument has values, but its derivative's n/z overflows
        lambda: bessel_j(3, 1e-320).derivative,
        lambda: bessel_y(1, np.array([1.0, 1e-320])).derivative,
    ):
        with pytest.raises(RangeError):
            call()
    assert bessel_j(3, 1e-320).value == 0
    # an array call reports its least and largest |z| or log|z| as Python floats
    cover = f"outside validated range [{math.log(cylinder.MIN_ABS_ARGUMENT)!r}, {math.log(100.0)!r}]"
    for call, message in (
        (lambda: bessel_j(0, np.array([150.0, 200.0])), "|z| in [150.0, 200.0] outside validated range [0.0, 100.0]"),
        (lambda: bessel_j(0, 150.0), "|z| in [150.0, 150.0] outside validated range [0.0, 100.0]"),
        (lambda: order_table("y", np.array([1, 2]), np.array([200.0, 150.0])),
         "|z| in [150.0, 200.0] outside validated range [0.0, 100.0]"),
        (lambda: hankel(2, 0, SurfacePoint.from_polar(np.array([150.0, 200.0]), 0.3)),
         f"log|z| in [{math.log(150.0)!r}, {math.log(200.0)!r}] {cover}"),
        (lambda: sector_scan(Well(3.8), 1e3, 10, 3), f"log|z| in [{math.log(100.0)!r}, {math.log(1e3)!r}] {cover}"),
    ):
        with pytest.raises(RangeError) as error:
            call()
        assert str(error.value) == message
    # and an empty array passes every check
    assert bessel_j(0, np.array([])).value.shape == (0,)
    assert hankel(1, 0, SurfacePoint(np.array([], complex))).value.shape == (0,)
    assert order_table("j", np.array([], int), np.array([])).shape == (2, 0)
    with pytest.raises(RangeError):
        bessel_zero(21, 1)
    with pytest.raises(RangeError):
        bessel_zero(0, 21)


def test_values_that_overflow_on_the_cover_are_range_errors():
    # |Y_n(z)| ~ (n-1)! (2/|z|)^n / pi passes the largest float inside the
    # validated range, and H = J +- iY would read NaN
    point = SurfacePoint.from_polar(1e-3, 0.3)
    for call in (
        lambda: hankel(1, 80, point),
        lambda: hankel(2, 3, SurfacePoint.from_polar(1e-200, 0.3)),
        lambda: hankel(1, 80, SurfacePoint.from_polar(np.array([0.5, 1e-3]), 0.3)),
        lambda: _cover_pair(*_reduced(80, [complex(-0.5, 0.3), point.log_value])),
        lambda: bessel_y(80, point),
        lambda: bessel_y(80, SurfacePoint.from_polar(1e-3, 4.0)),
        lambda: char_q(80, point, Well(2.0)),
    ):
        with pytest.raises(RangeError, match="overflows"):
            call()
    # a plain argument keeps its infinity, which phase reads in its Y tables
    assert bessel_y(80, 1e-3).value == -math.inf


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: hankel(1, 0, 100.0), id="hankel-complex"),
        pytest.param(lambda: hankel(1, 0, SurfacePoint.from_polar(100.0, 0.3)), id="hankel-cover"),
        pytest.param(lambda: bessel_y(0, SurfacePoint.from_polar(100.0, 4.0)), id="bessel_y-cover"),
        pytest.param(lambda: bessel_y(0, SurfacePoint.from_polar(100.0, 0.3)), id="bessel_y-sheet"),
        # |lambda rho| = 100 and |rho mu| = 99.95; at lambda = 50, rho = 2,
        # |rho mu| = 100.18 is outside the range
        pytest.param(lambda: char_q(0, 100j, Well(3.0, 1.0)), id="char_q-edge"),
    ],
)
def test_cover_points_on_the_range_bound_are_inside(call):
    # exp(log 100) rounds to 100.00000000000004, so the cover checks log|z|
    got = call()
    assert cmath.isfinite(got if isinstance(got, complex) else got.value)


# ---------------------------------------------------------------------------
# grids of points
# ---------------------------------------------------------------------------

# any argument on sheets m = -3..3, or a sheet boundary pi/2 + k*pi, where
# the 1e-15 guard of _reduce_argument picks the sheet
cover_arguments = st.one_of(
    st.floats(-3.5 * PI, 3.5 * PI), st.integers(-4, 3).map(lambda k: PI / 2 + k * PI)
)


@given(
    ell=st.integers(-80, 80),
    grid=st.lists(st.tuples(st.floats(1e-3, 100.0), cover_arguments), min_size=1, max_size=8),
)
# Y_73 overflows here, where its small-argument size reads e^699.19
@example(ell=73, grid=[(0.0036, 0.0)])
def test_grid_calls_equal_the_scalar_calls_bit_for_bit(ell, grid):
    points = SurfacePoint.from_polar(*(np.array(column) for column in zip(*grid)))
    singles = [SurfacePoint.from_polar(r, t) for r, t in grid]
    assert np.array_equal(bits(points.log_value), bits([p.log_value for p in singles]))
    # and a 2-d grid shaped like sector_scan's, moduli down and arguments across
    moduli, arguments = (np.array(column) for column in zip(*grid[:3]))
    sector = SurfacePoint.from_polar(moduli[:, None], arguments)
    # the list body over the same points, in Python complex arithmetic, once
    # _reduced has checked and reduced them
    logs = [p.log_value for p in singles]
    for kind in (1, 2):
        bodies = [lambda: hankel(kind, ell, points)]
        if kind == 1:  # the finder's list body, which evaluates H^(1) alone
            bodies.append(lambda: listed(ell, [p.value for p in singles], _cover_pair(*_reduced(ell, logs))))
        for many in bodies:
            table = cover_call(many, ell, [r for r, _ in grid])
            if table is None:
                # a grid or list raises where one of its points raises alone
                with pytest.raises(RangeError):
                    [hankel(kind, ell, p) for p in singles]
                continue
            for part in ("value", "derivative", "low"):
                want = [getattr(hankel(kind, ell, p), part) for p in singles]
                assert np.array_equal(bits(getattr(table, part)), bits(want))
        table = cover_call(lambda: hankel(kind, ell, sector), ell, moduli)
        if table is None:
            with pytest.raises(RangeError):
                [hankel(kind, ell, SurfacePoint.from_polar(r, t)) for r in moduli for t in arguments]
            continue
        for part in ("value", "derivative", "low"):
            want = [
                [getattr(hankel(kind, ell, SurfacePoint.from_polar(r, t)), part) for t in arguments]
                for r in moduli
            ]
            assert np.array_equal(bits(getattr(table, part)), bits(want))
    # bessel_j and bessel_y over the grid's values, a complex array
    z = points.value
    z = z[np.hypot(z.real, z.imag) <= 100.0]
    for fn in (bessel_j, bessel_y):
        table = fn(ell, z)
        for part in ("value", "derivative", "low"):
            want = [getattr(fn(ell, complex(x)), part) for x in z]
            assert np.array_equal(bits(getattr(table, part)), bits(want))


# ---------------------------------------------------------------------------
# grid calls split across threads
# ---------------------------------------------------------------------------

# the fewest points a grid call splits in two
SPLIT = 2 * MIN_CHUNK_POINTS


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever the host gives it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def spied(kind, calls):
    """kind, recording in calls the size of each call's argument and the
    np.errstate it runs under."""

    def call(orders, x, **kwargs):
        calls.append((x.size, np.geterr()["invalid"]))
        return kind(orders, x, **kwargs)

    return call


@pytest.mark.parametrize("n", [0, 5])
# yn, real Y's kernel, has no complex loop
@pytest.mark.parametrize(
    "dtype, kind",
    [(complex, jv), (complex, yv), (float, jv), (float, yv), (float, yn)],
    ids=["complex-jv", "complex-yv", "float-jv", "float-yv", "float-yn"],
)
@pytest.mark.parametrize(
    "shape, chunks",
    [((SPLIT - 1,), [SPLIT - 1]), ((SPLIT,), [SPLIT // 2] * 2), ((SPLIT + 513,), [768, 769]),
     ((33, 31), [1023]), ((32, 32), [512, 512]), ((29, 53), [768, 769])],
)
def test_split_calls_equal_the_one_call_bit_for_bit(two_cpus, n, kind, dtype, shape, chunks):
    assert SPLIT == 1024  # the sizes above are set for it
    rng = np.random.default_rng(n)
    modulus = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), shape))
    z = modulus * np.exp(1j * rng.uniform(-PI, PI, shape)) if dtype is complex else modulus
    calls = []
    # each chunk runs under the caller's np.errstate, in whichever thread
    with np.errstate(invalid="ignore"):
        got = _grid_pair(spied(kind, calls), n, z)
    assert sorted(calls) == [(size, "ignore") for size in chunks]
    assert got.shape == (2,) + shape and got.dtype == z.dtype
    want = [kind(n, z), kind(n - 1, z)]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_a_worker_chunk_that_overflows_is_a_range_error_without_warnings(two_cpus):
    # the second chunk, the odd elements, which a worker thread evaluates,
    # holds |z| = 1e-3, where Y_80 overflows
    moduli = np.tile([0.5, 1e-3], MIN_CHUNK_POINTS)
    grid = SurfacePoint.from_polar(moduli, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: hankel(1, 80, grid), lambda: char_q(80, grid, Well(2.0))):
            with pytest.raises(RangeError, match="overflows"):
                call()


def test_scipy_error_state_holds_in_worker_chunks(two_cpus):
    # Y_80 overflows at 1e-3 and not at 0.5; 1e-3 sits in the odd elements of
    # the grid, so only the worker's chunk meets it.  An order table makes its
    # one call on the calling thread, under the caller's error state too
    grid = np.tile([0.5, 1e-3], MIN_CHUNK_POINTS)
    x = np.tile([0.5, 1e-3], 7)
    top = np.full(len(x), 80)
    assert np.isinf(yv(80, grid)).any() and np.isfinite(yv(np.arange(-1, 81.0), 0.5)).all()
    for call in (lambda: _grid_pair(yv, 80, grid), lambda: order_table("y", top, x)):
        with special.errstate(all="raise"), pytest.raises(special.SpecialFunctionError, match="overflow"):
            call()
        assert np.isinf(call()).any()  # scipy's default state ignores the overflow


@pytest.mark.parametrize(
    "fn, on_real, off_real", [(bessel_j, jv, jv), (bessel_y, yn, yv)], ids=["bessel_j-jv", "bessel_y-yn-yv"]
)
def test_array_calls_evaluate_each_element_once(monkeypatch, fn, on_real, off_real):
    # a real positive element takes the real path (yn for Y) and no other; the rest, complex
    rng = np.random.default_rng(5)
    mixed = rng.uniform(0.1, 3.0, 100) * np.where(np.arange(100) % 3, 1.0, np.exp(0.4j))
    for z in (rng.uniform(0.1, 3.0, 100), mixed):
        sizes = []

        def spy(kind):
            def call(orders, x, **kwargs):
                sizes.append((x.size, x.dtype.kind, kind.__name__))
                return kind(orders, x, **kwargs)
            return call

        for kind in (on_real, off_real):
            monkeypatch.setattr(cylinder, kind.__name__, spy(kind))
        got = fn(2, z)
        for kind in (on_real, off_real):
            monkeypatch.setattr(cylinder, kind.__name__, kind)
        real = z.imag == 0.0
        parts = [(real.sum(), "f", on_real.__name__), ((~real).sum(), "c", off_real.__name__)]
        assert sorted(sizes) == sorted(part for part in parts if part[0])
        for part in ("value", "low"):
            want = [getattr(fn(2, complex(v)), part) for v in z]
            assert np.array_equal(bits(getattr(got, part)), bits(want))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_evaluates_a_split_grid(two_cpus):
    grid = SurfacePoint.from_polar(np.linspace(0.1, 3.0, SPLIT), np.linspace(-4.0, 4.0, SPLIT))
    want = hankel(1, 3, grid).value  # the parent's pool now has a thread
    pid = os.fork()
    if pid == 0:
        same = False
        try:
            same = np.array_equal(hankel(1, 3, grid).value.view(np.int64), want.view(np.int64))
        finally:
            os._exit(0 if same else 1)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child's grid call did not finish"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    # a pool as the module makes it at import, which holds no thread yet
    pool = ThreadPoolExecutor(thread_name_prefix="resonance-lab")
    monkeypatch.setattr(cylinder, "_pool", pool)
    threads = threading.active_count()
    grid = SurfacePoint.from_polar(np.linspace(0.1, 3.0, 4 * SPLIT), 0.3)
    char_q(0, grid, Well(2.0))
    assert threading.active_count() == threads
    assert not pool._threads
    pool.shutdown()


# ---------------------------------------------------------------------------
# derivatives, computed when read
# ---------------------------------------------------------------------------


@given(
    ell=st.integers(-80, 80),
    modulus=st.floats(1e-3, 100.0),
    arg=cover_arguments,
)
@example(ell=73, modulus=0.0036, arg=0.0)
def test_derivatives_read_later_keep_their_bits(ell, modulus, arg):
    point = SurfacePoint.from_polar(modulus, arg)
    z = point.value
    cover = [lambda kind=kind: hankel(kind, ell, point) for kind in (1, 2)]
    cover.append(lambda: bessel_y(ell, point))
    calls = [(c, z) for c in (cover_call(call, ell, [modulus]) for call in cover) if c is not None]
    if abs(z) <= 100.0:
        calls += [(fn(ell, z), z) for fn in (bessel_j, bessel_y)]
    if modulus <= 100.0:
        calls += [(fn(ell, modulus), complex(modulus)) for fn in (bessel_j, bessel_y)]
    for c, at in calls:
        # numpy's complex128 subclasses complex: only the type shows a 0-d result left unwrapped
        assert type(c.value) is type(c.derivative) is type(c.low) is complex
        assert np.array_equal(bits([c.derivative]), bits([derivative_by_recurrence(ell, c, at)]))
    # Q and its scale at one point, where |mu| = |sqrt(lambda^2 + 4)| stays inside the range
    if modulus <= 50.0:
        for fn, kind in ((char_q, complex), (char_q_scale, float)):
            got = cover_call(lambda: fn(ell, point, Well(2.0)), ell, [modulus])
            assert got is None or type(got) is kind


def test_derivatives_have_the_bits_they_had_when_computed_with_every_call():
    # repr of each derivative as the kernels computed it before Q stopped reading it
    cases = [
        (lambda: bessel_j(3, 0.7 + 0.2j), "(0.02731389826498594+0.0158928788334697j)"),
        (lambda: bessel_j(-3, 2.5), "(-0.18613858919268095-0j)"),
        (lambda: bessel_y(2, 1.3), "(1.1905754466781509+0j)"),
        (
            lambda: bessel_y(-1, SurfacePoint.from_polar(0.8, 4.0)),
            "(-0.20446712862014726-0.4170080494324573j)",
        ),
        (
            lambda: hankel(1, 2, SurfacePoint.from_polar(0.3, -2.0)),
            "(26.210738549603576+90.43471235993256j)",
        ),
        (lambda: hankel(2, -5, 3.0 + 1j), "(1.564422903631994-0.39382125421840875j)"),
    ]
    for call, want in cases:
        assert repr(call().derivative) == want
    grid = SurfacePoint.from_polar(np.array([0.3, 2.0, 7.5]), np.array([-2.0, 0.4, 5.0]))
    assert repr(hankel(1, -3, grid).derivative.tolist()) == (
        "[(1860.8572831085353+279.14284384829955j), (-1.1509150366964576-0.07178078178476438j), "
        "(116.14540452801724-182.58052682498203j)]"
    )
