"""Acceptance gate: the eight headline checks, one printed verdict line each.

Run with -s to watch the verdicts stream; each criterion prints
"ACCEPTANCE <n>: PASS|FAIL - <what was checked>" before asserting.
"""

import cmath
import math

import numpy as np

from resonance_lab import (
    CouplingFamily,
    EULER_GAMMA,
    GuessKind,
    SurfacePoint,
    Well,
    asymptotic_phase_derivative,
    bessel_j,
    bessel_y,
    bessel_zero,
    branch_limit_check,
    char_q,
    char_q_scale,
    delta_resonance,
    hankel,
    initial_guess,
    lambert_w,
    mode_tail_bound,
    mu,
    phase_shift_derivative,
    refine,
    s_matrix_eigenvalue,
    sector_scan,
    total_phase_derivative,
)
from resonance_lab.cli import main
from equivalent_forms import q_derivative_form, sigma_primary_form

J01 = bessel_zero(0, 1)
J11 = bessel_zero(1, 1)
J21 = bessel_zero(2, 1)


def report(n: int, ok: bool, what: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {what}")
    assert ok, what


def family(a0: float) -> CouplingFamily:
    return CouplingFamily(a0=a0, rho=1.0)


def kind_for(ell: int) -> GuessKind:
    return GuessKind.persist_lw(-1) if ell == 1 else GuessKind.persist_sqrt(0)


def test_criterion_1_figure1_golden_values():
    nodes = [
        (1, J01, 0.09, 0.1119944 - 0.0344571j),
        (2, J11, 0.09, 0.2100356 - 0.0017315j),
        (3, J21, 0.09, 0.2445582 - 0.0000141j),
        (1, J01, -0.09, 0.1287651j),
        (2, J11, -0.09, 0.2143996j),
        (3, J21, -0.09, 0.2453089j),
    ]
    worst = 0.0
    for ell, a0, eps, expected in nodes:
        fam = family(a0)
        rec = refine(ell, initial_guess(ell, eps, fam, kind_for(ell)), fam.well(eps))
        got = rec.refined.value
        worst = max(worst, abs(got.real - expected.real), abs(got.imag - expected.imag))
    report(1, worst <= 1e-5, f"six refined nodes componentwise (worst {worst:.2e} <= 1e-5)")


def test_criterion_2_figure6_peak_heights():
    narrow = total_phase_derivative(0.2100356, family(J11).well(0.09)).value
    broad = total_phase_derivative(0.1119944, family(J01).well(0.09)).value
    ok = abs(narrow - 367.37) <= 1.0 and abs(broad - 17.048) <= 0.1
    report(
        2,
        ok,
        f"peak sigma' values {narrow:.2f} (367.37 +- 1.0) and {broad:.4f} (17.048 +- 0.1)",
    )


def test_criterion_3_delta_resonances():
    errs = [
        abs(delta_resonance(10.0, 1) - (2.877577458 - 0.0665106j)),
        abs(delta_resonance(10.0, 2) - (5.841379586 - 0.20648j)),
        abs(delta_resonance(10.0, 3) - (8.880653554 - 0.34784182j)),
    ]
    ok = errs[0] <= 1e-6 and errs[1] <= 1e-4 and errs[2] <= 1e-6
    report(3, ok, f"strength-10 resonances, errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}")


def test_criterion_4_disappearance_law():
    fam = family(J11)
    law_ok = True
    diffs = {}
    for k in range(2, 9):
        eps = -0.3 * k
        rec = refine(0, initial_guess(0, eps, fam, GuessKind.disappearing0()), fam.well(eps))
        law = 4.0 / eps - 2.0 * EULER_GAMMA + math.log(4.0)
        d = abs(cmath.log(-rec.energy) - law)
        diffs[eps] = d
        law_ok = law_ok and d <= 0.5 * abs(eps) + 0.05

    # the bound is asymptotic: its per-eps rate must be stable under halving
    rates = [diffs[-2.4] / 2.4, diffs[-1.2] / 1.2, diffs[-0.6] / 0.6]
    stable = all(b <= 2.0 * a for a, b in zip(rates, rates[1:]))

    scan_ok = True
    for eps in (0.6, 1.2, 2.4):
        scan = sector_scan(fam.well(eps), radius=0.3, n_radii=200, n_angles=60)
        scan_ok = scan_ok and scan.minimum >= 1e-3 * scan.median
    report(
        4,
        law_ok and stable and scan_ok,
        "log(-E) law within 0.5|eps|+0.05, halving-stable, and no shallow-side zero",
    )


def test_criterion_5_persistence_orders():
    fam3 = family(J21)
    ratios = []
    for eps in (0.16, 0.08, 0.04, 0.02):
        rec = refine(
            3, initial_guess(3, eps, fam3, GuessKind.persist_sqrt(0)), fam3.well(eps)
        )
        ratios.append(abs(rec.refined.value - math.sqrt(2.0 * eps / 3.0)) / eps**1.5)
    sqrt_ok = all(b < 2.0 * a for a, b in zip(ratios, ratios[1:]))

    fam1 = family(J01)
    gaps = []
    for eps in (0.16, 0.08, 0.04, 0.02):
        guess = initial_guess(1, eps, fam1, GuessKind.persist_lw(-1))
        rec = refine(1, guess, fam1.well(eps))
        gaps.append(abs(rec.refined.log_value - guess.log_value))
    lw_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    report(
        5,
        sqrt_ok and lw_ok,
        f"sqrt-law ratio stable ({ratios[0]:.4f}->{ratios[-1]:.4f}), log-gap monotone",
    )


def test_criterion_6_low_energy_asymptotics():
    cases = [
        (Well(a=J01), 3.0 * 0.02 / math.log(0.02) ** 2),
        (Well(a=J11), 3.0 * 0.02**3 * abs(math.log(0.02))),
        (Well(a=2.0), 3.0 * 0.02 / math.log(0.02) ** 2),
    ]
    ok = True
    worst = 0.0
    for well, budget in cases:
        for lam in (0.02, 0.01, 0.005):
            d = abs(
                total_phase_derivative(lam, well).value
                - asymptotic_phase_derivative(lam, well)
            )
            ok = ok and d <= budget
            worst = max(worst, d / budget)
    report(6, ok, f"three-case exact-vs-asymptotic defects (worst {worst:.2f} of budget)")


def test_criterion_7_property_sweeps():
    ok = True

    # cylinder recurrence, Wronskian, ODE residual
    for ell in (1, 5, 12):
        for mod in (0.5, 3.0, 20.0):
            for theta in (0.0, 1.1, -2.3):
                z = cmath.rect(mod, theta)
                jm, j0, jp = (bessel_j(k, z).value for k in (ell - 1, ell, ell + 1))
                scale = max(abs(jm), abs(j0), abs(jp), 1e-300)
                ok = ok and abs(jm + jp - (2.0 * ell / z) * j0) <= 1e-10 * scale
    for x in (0.05, 1.0, 10.0, 30.0):
        for ell in (0, 3, 10):
            jv, yv = bessel_j(ell, x), bessel_y(ell, x)
            wr = jv.derivative * yv.value - jv.value * yv.derivative
            ok = ok and abs(wr + 2.0 / (math.pi * x)) <= 1e-11
    for ell in (0, 2, 6):
        for z in (0.7 + 0.4j, 3.0 - 1.0j):
            c = bessel_j(ell, z)
            below = bessel_j(ell - 1, z)
            second = below.derivative - (ell / z) * c.derivative + (ell / z**2) * c.value
            resid = z * z * second + z * c.derivative + (z * z - ell * ell) * c.value
            scale = max(abs(z * z * second), abs(z * c.derivative), abs(c.value), 1e-300)
            ok = ok and abs(resid) <= 1e-9 * scale

    # Hankel sheet continuity across reduction boundaries
    for boundary in (math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2):
        for ell in (0, 1, 3):
            lo = hankel(1, ell, SurfacePoint.from_polar(2.0, boundary - 1e-8))
            hi = hankel(1, ell, SurfacePoint.from_polar(2.0, boundary + 1e-8))
            ok = ok and abs(lo.value - hi.value) <= 1e-6 * (abs(lo.value) + 1e-300)

    # Lambert defining equation and small-eps limits
    for n in range(-3, 4):
        for mod in (1e-8, 1e-3, 1.0, 1e3):
            for k in range(8):
                x = cmath.rect(mod, -math.pi + 0.05 + k * math.pi / 4)
                if n == 0 or abs(x) > 0:
                    w = lambert_w(n, x)
                    ok = ok and abs(w * cmath.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
    for n in (-2, -1, 1, 2):
        up = lambert_w(n, -1e-80).imag
        down = lambert_w(n, 1e-80).imag if n != -1 else lambert_w(n, -1e-80).imag
        ok = ok and abs(up - branch_limit_check(n, "up")) <= 0.2
        ok = ok and abs(lambert_w(n, 1e-80).imag - branch_limit_check(n, "down")) <= 0.2

    # S-matrix unitarity
    for a in (1.0, 2.4, 3.83):
        for ell in range(6):
            for lam in (0.3, 1.0, 2.5, 5.0):
                ok = ok and abs(abs(s_matrix_eigenvalue(ell, lam, Well(a=a))) - 1) <= 1e-10

    # sigma'_ell against the form that divides by J'_ell(mu rho), where that is conditioned
    for a in (1.0, 2.4, 3.83):
        well = Well(a=a)
        for ell in (1, 3, 7):
            for lam in (0.05, 0.7, 2.5):
                m = mu(complex(lam), a).real
                inner = bessel_j(ell, m * well.rho)
                low = bessel_j(ell - 1, m * well.rho)
                if abs(inner.derivative) <= 1e-6 * (abs(inner.value) + abs(low.value)):
                    continue
                p = sigma_primary_form(ell, lam, well)
                q = phase_shift_derivative(ell, lam, well)
                ok = ok and abs(p - q) <= 1e-10 * max(abs(p), abs(q), 1e-300)

    # tail bound dominates
    for lam in (0.5, 2.0):
        for ell in (20, 30):
            well = Well(a=2.4, rho=1.5)
            bound = mode_tail_bound(ell, lam, well)
            ok = ok and abs(phase_shift_derivative(ell, lam, well)) <= 100 * bound

    # Q against the derivative matching, and reflection symmetry
    for a in (1.0, 2.4, 3.83):
        well = Well(a=a)
        for ell in (0, 2, 5):
            for mod in (1e-3, 0.3, 3.0):
                for k in range(6):
                    pt = SurfacePoint.from_polar(mod, -math.pi + 0.1 + k * math.pi / 3)
                    qw = char_q(ell, pt, well)
                    qd = q_derivative_form(ell, pt, well)
                    ok = ok and abs(qw - qd) <= 1e-10 * char_q_scale(ell, pt, well)
    for ell, a0 in ((1, J01), (2, J11), (3, J21)):
        fam = family(a0)
        rec = refine(ell, initial_guess(ell, 0.09, fam, kind_for(ell)), fam.well(0.09))
        lam = rec.refined
        t = abs(char_q(ell, lam, fam.well(0.09)))
        mirrored = SurfacePoint.from_polar(lam.modulus, math.pi - lam.argument)
        floor = 1e-13 * char_q_scale(ell, mirrored, fam.well(0.09))
        ok = ok and abs(char_q(ell, mirrored, fam.well(0.09))) <= 10 * t + floor

    report(7, ok, "module property sweeps at their stated tolerances")


def test_criterion_8_figure1_determinism(tmp_path):
    rc1 = main(["--figure", "1", "--output", str(tmp_path / "a")])
    rc2 = main(["--figure", "1", "--output", str(tmp_path / "b")])
    ok = rc1 == 0 and rc2 == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in names:
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report(8, ok, f"figure 1 rerun byte-identical across {len(names)} files")
