import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resonance_lab import (
    DomainError,
    RangeError,
    SurfacePoint,
    Well,
    bessel_j,
    bessel_y,
    bessel_zero,
    char_q,
    hankel,
)
from resonance_lab.cylinder import EULER_GAMMA, _reduce_argument, order_table

import oracles

PI = math.pi


def bits(values):
    """The int64 words of complex values, so that signed zeros count."""
    return np.asarray(values, complex).view(np.int64)


# ---------------------------------------------------------------------------
# SurfacePoint
# ---------------------------------------------------------------------------


def test_surface_point_round_trip():
    p = SurfacePoint.from_polar(2.0, 3 * PI)  # not the principal sheet
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


def test_array_orders_and_arguments_match_scalar_calls():
    orders = np.arange(-3, 9)[:, None]
    xs = np.array([1e-3, 0.4, 1.0, 2.5, 7.3, 40.0, 99.0])
    for fn in (bessel_j, bessel_y):
        table = fn(orders, xs)
        assert table.value.shape == table.derivative.shape == table.low.shape == (12, 7)
        for i, ell in enumerate(orders[:, 0]):
            for k, x in enumerate(xs):
                one = fn(int(ell), float(x))
                assert type(one.value) is complex and type(one.derivative) is complex
                assert one.value.imag == one.derivative.imag == one.low.imag == 0.0
                assert table.value[i, k] == one.value.real
                assert table.derivative[i, k] == one.derivative.real
                assert table.low[i, k] == one.low.real == fn(abs(int(ell)) - 1, float(x)).value
        with pytest.raises(RangeError):
            fn(orders, np.append(xs, 100.5))
        with pytest.raises(RangeError):
            fn(np.append(orders, 81), 1.0)
        with pytest.raises(RangeError):
            fn(orders, np.append(xs, math.nan))
        with pytest.raises(DomainError):
            fn(orders, np.append(xs, 0.0))
        with pytest.raises(DomainError):
            fn(orders, np.append(xs, -1.0))
        # complex arrays give the scalar calls' bits; Im = 0 keeps the real path
        table = fn(orders, xs + 0j)
        for part in ("value", "derivative", "low"):
            want = [[getattr(fn(int(ell), complex(x)), part) for x in xs] for ell in orders[:, 0]]
            assert np.array_equal(bits(getattr(table, part)), bits(want))


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
    with pytest.raises(error):
        bessel_j(top[:, None], x)


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
    with pytest.raises(RangeError):
        bessel_zero(21, 1)
    with pytest.raises(RangeError):
        bessel_zero(0, 21)


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
def test_grid_calls_equal_the_scalar_calls_bit_for_bit(ell, grid):
    points = SurfacePoint.from_polar(*(np.array(column) for column in zip(*grid)))
    singles = [SurfacePoint.from_polar(r, t) for r, t in grid]
    assert np.array_equal(bits(points.log_value), bits([p.log_value for p in singles]))
    calls = (
        lambda order, p: hankel(1, order, p),
        lambda order, p: hankel(2, order, p),
        lambda order, p: bessel_y(order, p),
    )
    for call in calls:
        table = call(ell, points)
        # an array of orders broadcasts against the grid
        rows = call(np.array([[ell], [ell // 2]]), points)
        for part in ("value", "derivative", "low"):
            want = [getattr(call(ell, p), part) for p in singles]
            assert np.array_equal(bits(getattr(table, part)), bits(want))
            assert np.array_equal(bits(getattr(rows, part)[0]), bits(want))
            half = [getattr(call(ell // 2, p), part) for p in singles]
            assert np.array_equal(bits(getattr(rows, part)[1]), bits(half))
            # and so against one point
            pair = getattr(call(np.array([ell, ell // 2]), singles[0]), part)
            assert np.array_equal(bits(pair), bits([want[0], half[0]]))
    # bessel_j and bessel_y over the grid's values, a complex array
    z = points.value
    z = z[np.hypot(z.real, z.imag) <= 100.0]
    for fn in (bessel_j, bessel_y):
        table = fn(ell, z)
        for part in ("value", "derivative", "low"):
            want = [getattr(fn(ell, complex(x)), part) for x in z]
            assert np.array_equal(bits(getattr(table, part)), bits(want))
