"""The four benchmark workloads: seeded inputs, the timed call, output checks.

A workload turns a seed into a deck of units, laid out in blocks of the
same composition (one unit per figure, per mode, per well or per grid-size
stratum).  Each parameter that sets a unit's cost is stratified over the
whole deck, and a fixed design decides which unit gets which stratum; the
seed draws the value inside each stratum and everything else.  Two seeds
therefore give decks of nearly the same cost, and the timed part can stop
at any block boundary.  The library receives only the generated inputs.

Only check() and probes() may call the oracles; they are imported there so
that mpmath and the reference code stay out of the worker's set-up and
timed part.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import jn_zeros

import resonance_lab as rl
from resonance_lab import cli, finder, phase

GOLDEN = Path(__file__).resolve().parent / "golden"

# certification threshold for |Q| / (|t1| + |t2|) at a refined root; the
# library accepts a root at 1e-9 of its own evaluation
ROOT_TOL = 1e-9
# sigma' against the oracle, and sigma against the oracle's quadrature:
# the library certifies sigma to 1e-6 absolute
SIGMA_PRIME_RTOL = 1e-6
SIGMA_TOL = 1e-6
# sector_scan's default: a zero shows as a grid value below this share of the median
DEPTH_TOL = 1e-3


@dataclass(frozen=True)
class Failure:
    """One failed unit: what failed, and whether it is a catalogued defect."""

    message: str
    known: bool = False


class Workload:
    """What the worker calls: deck(seed), warmup(), run(spec, dir), digest(out),
    check(spec, out), describe(spec) and probes(deck).

    run() may write only under dir, which is removed after the unit; each
    input is checked once, and every other run of it must reproduce the
    digest of the checked output.
    """

    def probes(self, deck: list[dict]) -> list[tuple[str, Failure]]:
        """Make the calls of a catalogued defect that the timed units leave
        out, on this deck's inputs, untimed; (call, failure) for each call
        that fails, with known=True when it fails as catalogued."""
        return []


def _bessel_zero(order: int, k: int) -> float:
    return float(jn_zeros(order, k)[k - 1])


def _design(rng: random.Random, n: int, step: int, lo: float, hi: float) -> list[float]:
    """Unit j of n gets a value from stratum (j * step) mod n of [lo, hi].

    step is coprime to n, so every stratum is used once, and consecutive
    units (one block, or one mode across blocks) land far apart.
    """
    return [lo + (hi - lo) * ((j * step) % n + rng.random()) / n for j in range(n)]


def _balanced(rng: random.Random | None, rounds: int, block: int, step: int, turn: int,
              lo: float, hi: float) -> list[float]:
    """Unit j = block * r + b gets a value from coarse stratum
    c = (b * step + turn * r) mod block of [lo, hi], and from fine stratum
    (r + c) mod rounds inside it; drawn there when rng is given, else the
    fine stratum's midpoint.

    step is coprime to block and turn is +-1, so every block holds each
    coarse stratum once and costs nearly the same, every (coarse, fine)
    stratum is used once over the deck, and the stratum a position b gets
    moves from round to round.
    """
    out = []
    for r in range(rounds):
        for b in range(block):
            c = (b * step + turn * r) % block
            u = rng.random() if rng is not None else 0.5
            out.append(lo + (hi - lo) * (c + ((r + c) % rounds + u) / rounds) / block)
    return out


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli-presets
# ---------------------------------------------------------------------------


# the preset that cli-presets runs twice per block: the cheapest (figure 4
# takes about 4 ms, figure 6 about 500 ms), so the extra unit costs little
EXTRA_FIGURE = 4


def _compare_csv(name: str, got: str, want: str) -> str | None:
    """None when got matches the golden CSV; residual may move below 1e-9."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[:2] != want_lines[:2]:
        return f"{name}: stamp or header differs from the golden file"
    if len(got_lines) != len(want_lines):
        return f"{name}: {len(got_lines)} lines, golden {len(want_lines)}"
    header = want_lines[1].split(",")
    for n, (g, w) in enumerate(zip(got_lines[2:], want_lines[2:]), start=3):
        for col, x, y in zip(header, g.split(","), w.split(",")):
            if x == y:
                continue
            if col == "residual" and float(x) <= 1e-9 and float(y) <= 1e-9:
                continue
            return f"{name} line {n} column {col}: {x} != golden {y}"
    return None


class CliPresets(Workload):
    """One in-process `resonance-lab --figure N`, N cycling 1..6 from a
    seeded start, and figure EXTRA_FIGURE once more.

    With six figures of six different costs in equal numbers, the median
    unit time would fall exactly in the gap between the third and fourth
    cheapest figure and jump with single units.  With a seventh unit per
    block, the median and p90 of a whole number of blocks (ranks 3.5 and
    6.3 of every 7) fall inside one figure's times, whatever the order of
    their costs.  The output is the exit code
    and the bytes of every file written.
    """

    name = "cli-presets"
    block = 7

    def deck(self, seed: int) -> list[dict]:
        first = random.Random(seed).randrange(6)
        return [{"figure": (first + i) % 6 + 1} for i in range(6)] + [{"figure": EXTRA_FIGURE}]

    def warmup(self) -> dict:
        return {"figure": 1}

    def describe(self, spec: dict) -> str:
        return f"cli.main(['--figure', '{spec['figure']}', '--output', <dir>])"

    def run(self, spec: dict, scratch: Path):
        code = cli.main(["--figure", str(spec["figure"]), "--output", str(scratch)])
        files = sorted(scratch.iterdir()) if scratch.is_dir() else []
        return code, {p.name: p.read_bytes() for p in files if p.is_file()}

    def digest(self, out) -> str:
        return repr(out)

    def check(self, spec: dict, out) -> list[Failure]:
        fig = spec["figure"]
        code, files = out
        if code != 0:
            return [Failure(f"exit code {code}")]
        want = sorted(
            p.name for p in GOLDEN.iterdir() if p.stem.split("_")[0] == f"figure{fig}"
        )
        got = sorted(n for n in files if n.endswith(".csv"))
        if got != want:
            return [Failure(f"wrote {got}, golden set is {want}")]
        if not files.get(f"figure{fig}.gp"):
            return [Failure(f"no plot script figure{fig}.gp")]
        found = (_compare_csv(n, files[n].decode(), (GOLDEN / n).read_text()) for n in want)
        return [Failure(m) for m in found if m]


# ---------------------------------------------------------------------------
# track-sweep
# ---------------------------------------------------------------------------


def _quad_grid(n: int, delta: float) -> list[float]:
    return [math.copysign(k * k * delta, k) for k in range(-n, n + 1) if k]


def _track_spec(ell: int, branch, k: int, rho: float, n: int, reach: float) -> dict:
    if ell == 0:
        # deepening grid from -reach/10 to -reach; the mode-0 zero exists for eps < 0 only
        eps = [-reach * (0.1 + 0.9 * i / (n - 1)) for i in range(n)]
        a0 = _bessel_zero(1, k) / rho
    else:
        eps = _quad_grid(n, reach / (n * n))
        a0 = _bessel_zero(ell - 1, k) / rho
    return {"ell": ell, "branch": branch, "k": k, "rho": rho, "a0": a0, "eps": eps}


class TrackSweep(Workload):
    """One finder.track over an eps grid, plus persistence_verdict for l >= 1."""

    name = "track-sweep"
    block = 6

    def deck(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        rounds = 6
        count = rounds * 6
        # unit j = 6 r + ell
        n_points = _design(rng, count, 7, 9.5, 30.5)
        rho = _design(rng, count, 11, 0.7, 1.5)
        reach = _design(rng, count, 5, 0.0, 1.0)
        deck = []
        for r in range(rounds):
            for ell in _shuffled(rng, range(6)):
                j = 6 * r + ell
                branches = [-1, -2, 1] if ell == 1 else [-1, 0, 1]
                branch = None if ell == 0 else branches[(r + 2 * ell) % 3]
                span = 1.5 + reach[j] if ell == 0 else 0.3 + 0.6 * reach[j]
                deck.append(
                    _track_spec(ell, branch, (r + ell) % 3 + 1, rho[j], round(n_points[j]), span)
                )
        return deck

    def warmup(self) -> dict:
        return _track_spec(2, 0, 1, 1.0, 20, 0.6)

    @staticmethod
    def _kind(spec: dict) -> finder.GuessKind:
        ell = spec["ell"]
        if ell == 0:
            return finder.GuessKind.disappearing0()
        if ell == 1:
            return finder.GuessKind.persist_lw(spec["branch"])
        return finder.GuessKind.persist_sqrt(spec["branch"])

    def describe(self, spec: dict) -> str:
        eps = spec["eps"]
        return (
            f"finder.track({spec['ell']}, CouplingFamily({spec['a0']!r}, {spec['rho']!r}), "
            f"{len(eps)} eps in [{min(eps):.4g}, {max(eps):.4g}], {self._kind(spec)})"
        )

    def run(self, spec: dict, scratch: Path):
        family = rl.CouplingFamily(spec["a0"], spec["rho"])
        trk = finder.track(spec["ell"], family, spec["eps"], self._kind(spec))
        verdict = finder.persistence_verdict(trk) if spec["ell"] else None
        return trk, verdict

    def digest(self, out) -> str:
        trk, verdict = out
        recs = [(r.refined.log_value, r.residual, r.classification.value) for r in trk.records]
        return repr((recs, verdict))

    def check(self, spec: dict, out) -> list[Failure]:
        import oracles

        trk, verdict = out
        failures = []
        if spec["ell"] and verdict is not finder.Verdict.PERSISTS:
            failures.append(Failure(f"persistence_verdict = {verdict}, expected persists"))
        for rec in trk.records:
            if rec.classification is finder.Classification.NOT_FOUND:
                failures.append(Failure(f"not-found point at eps = {rec.epsilon!r}"))
                continue
            a = math.sqrt(spec["a0"] ** 2 - rec.epsilon)
            res = oracles.q_residual(spec["ell"], rec.refined.log_value, a, spec["rho"])
            if not res <= ROOT_TOL:
                failures.append(
                    Failure(
                        f"root {rec.refined.log_value!r} (log lambda) at eps = "
                        f"{rec.epsilon!r}: mpmath |Q|/scale = {res:.3e} > {ROOT_TOL}"
                    )
                )
        return failures


# ---------------------------------------------------------------------------
# phase-table
# ---------------------------------------------------------------------------

_J01 = _bessel_zero(0, 1)
_J11 = _bessel_zero(1, 1)
# (name, a) of the wells; None draws a generic depth between the two zeros
PHASE_WELLS = (
    ("p-resonance", _J01),
    ("s-resonance", _J11),
    ("generic", None),
    ("j01-family eps=+0.09", math.sqrt(_J01**2 - 0.09)),
    ("j01-family eps=-0.09", math.sqrt(_J01**2 + 0.09)),
    ("j11-family eps=+0.09", math.sqrt(_J11**2 - 0.09)),
    ("j11-family eps=-0.09", math.sqrt(_J11**2 + 0.09)),
)


def _phase_spec(rng: random.Random, well: str, a: float, lam_max: float, n: int,
                per_mode: bool) -> dict:
    return {
        "well": well,
        # scattering_phase raises on the p-resonance well (see probes())
        "sigma": well != "p-resonance",
        "a": a,
        "lambda_max": lam_max,
        "grid": lam_max * np.arange(1, n + 1) / n,
        # modes with a visible share of sigma' up to lambda_max
        "modes": math.ceil(math.e * lam_max / 2.0) + 2 if per_mode else None,
        "sample": sorted(rng.sample(range(n), 4)),
    }


class PhaseTable(Workload):
    """PhaseTable.build on a lambda grid, then scattering_phase(lambda_max)
    except on the p-resonance well, where it is a probe."""

    name = "phase-table"
    block = len(PHASE_WELLS)

    def deck(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        rounds = 3
        count = rounds * self.block
        # unit j = 7 r + w; lambda_max and the grid length set the cost,
        # so every block gets each of their coarse strata once
        lam_max = _balanced(rng, rounds, self.block, 3, 1, 0.1, 4.5)
        n_points = _balanced(rng, rounds, self.block, 5, -1, 100, 400)
        deck = []
        for r in range(rounds):
            for w in _shuffled(rng, range(self.block)):
                name, a = PHASE_WELLS[w]
                j = self.block * r + w
                depth = rng.uniform(2.6, 3.6) if a is None else a
                deck.append(
                    _phase_spec(rng, name, depth, lam_max[j], round(n_points[j]), (r + w) % 3 == 0)
                )
        return deck

    def warmup(self) -> dict:
        return _phase_spec(random.Random(0), "s-resonance", _J11, 1.0, 200, False)

    @staticmethod
    def _sigma_call(spec: dict) -> str:
        return f"scattering_phase({spec['lambda_max']!r}, Well({spec['a']!r}))"

    def describe(self, spec: dict) -> str:
        build = (f"PhaseTable.build({len(spec['grid'])} points in (0, {spec['lambda_max']:.6g}], "
                 f"Well({spec['a']!r}), include_modes={spec['modes']})")
        sigma = f" and {self._sigma_call(spec)}" if spec["sigma"] else ""
        return f"{build}{sigma} [{spec['well']}]"

    def run(self, spec: dict, scratch: Path):
        well = rl.Well(spec["a"])
        table = phase.PhaseTable.build(spec["grid"], well, include_modes=spec["modes"])
        if not spec["sigma"]:
            return table, None
        return table, phase.scattering_phase(spec["lambda_max"], well)

    def digest(self, out) -> str:
        table, sigma = out
        modes = table.per_mode or {}
        parts = [table.total.tobytes(), table.l_max.tobytes()]
        parts += [modes[ell].tobytes() for ell in sorted(modes)]
        return repr((parts, sigma))

    def probes(self, deck: list[dict]) -> list[tuple[str, Failure]]:
        # scattering_phase cannot certify its first panel [1e-6, 0.01] on the
        # p-resonance well, at any lambda_max
        found = []
        for spec in deck:
            if spec["sigma"]:
                continue
            call = f"{self._sigma_call(spec)} [{spec['well']}]"
            try:
                sigma = phase.scattering_phase(spec["lambda_max"], rl.Well(spec["a"]))
            except Exception as exc:  # a probe that raises is a failed call
                message = f"raised {type(exc).__name__}: {' '.join(str(exc).split())[:200]}"
                found.append((call, Failure(message, isinstance(exc, rl.QuadratureError))))
                continue
            found += [(call, f) for f in self._check_sigma(spec, sigma)]
        return found

    @staticmethod
    def _check_sigma(spec: dict, sigma: float) -> list[Failure]:
        import oracles

        want, err = oracles.scattering_phase(spec["lambda_max"], spec["a"], 1.0)
        if abs(sigma - want) <= SIGMA_TOL + err:
            return []
        return [Failure(f"sigma({spec['lambda_max']!r}) = {sigma!r}, independent quadrature "
                        f"{want!r} (error {err:.1e})")]

    def check(self, spec: dict, out) -> list[Failure]:
        import oracles

        table, sigma = out
        a = spec["a"]
        failures = []
        for i in spec["sample"]:
            lam = float(spec["grid"][i])
            want = float(oracles.total_phase_derivative(lam, a, 1.0)[0])
            if not abs(table.total[i] - want) <= SIGMA_PRIME_RTOL * abs(want) + 1e-12:
                failures.append(
                    Failure(f"sigma'({lam!r}) = {table.total[i]!r}, oracle {want!r}")
                )
            for ell, row in (table.per_mode or {}).items():
                want_l = float(oracles.phase_derivative(ell, lam, a, 1.0))
                if not abs(row[i] - want_l) <= SIGMA_PRIME_RTOL * abs(want_l) + 1e-12:
                    failures.append(
                        Failure(f"sigma'_{ell}({lam!r}) = {row[i]!r}, oracle {want_l!r}")
                    )
        if spec["sigma"]:
            failures += self._check_sigma(spec, sigma)
        return failures


# ---------------------------------------------------------------------------
# zero-census
# ---------------------------------------------------------------------------


def _scan_spec(size: float, eps: float, rho: float, radius: float) -> dict:
    a0 = _J11 / rho
    return {
        "eps": eps,
        "rho": rho,
        "a": math.sqrt(a0 * a0 - eps),
        "radius": radius,
        "n_radii": round(50 + 150 * size),
        "n_angles": round(20 + 40 * size),
    }


class ZeroCensus(Workload):
    """One finder.sector_scan of a j_{1,1}-family well."""

    name = "zero-census"
    block = 5

    def deck(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        rounds = 4
        count = rounds * self.block
        # unit j = 5 r + b: the size sets a unit's cost, so every block gets
        # each coarse size stratum once, at its fine stratum's midpoint
        size = _balanced(None, rounds, self.block, 2, 1, 0.0, 1.0)
        depth = _design(rng, count, 7, 0.3, 2.4)
        rho = _design(rng, count, 9, 0.7, 1.5)
        radius = _design(rng, count, 11, 0.1, 0.5)
        deck = []
        for r in range(rounds):
            for b in _shuffled(rng, range(self.block)):
                j = self.block * r + b
                eps = depth[j] if j % 2 else -depth[j]
                deck.append(_scan_spec(size[j], eps, rho[j], radius[j]))
        return deck

    def warmup(self) -> dict:
        return _scan_spec(0.5, -1.0, 1.0, 0.3)

    def describe(self, spec: dict) -> str:
        return (
            f"finder.sector_scan(Well({spec['a']!r}, {spec['rho']!r}), "
            f"radius={spec['radius']!r}, n_radii={spec['n_radii']}, "
            f"n_angles={spec['n_angles']}) [eps = {spec['eps']:+.4f}]"
        )

    def run(self, spec: dict, scratch: Path):
        well = rl.Well(spec["a"], spec["rho"])
        return finder.sector_scan(
            well, radius=spec["radius"], n_radii=spec["n_radii"], n_angles=spec["n_angles"]
        )

    def digest(self, out) -> str:
        return repr((out.minimum, out.median, out.location.log_value, out.found_zero))

    def check(self, spec: dict, out) -> list[Failure]:
        import oracles

        zeros = oracles.mode0_axis_zeros(spec["a"], spec["rho"], spec["radius"])
        if out.found_zero == bool(zeros):
            return []
        dip = out.minimum / out.median
        if not zeros:
            return [Failure(
                f"found_zero = True, but Q_0 has no zero on the axis (min/median = {dip:.2e})"
            )]
        kappa = zeros[0]
        step = spec["radius"] / spec["n_radii"]
        # the scan's grid holds the axis points i * step, i = 1..n_radii;
        # where the oracle's |Q_0| there dips below the scan's threshold, the
        # scan must report the zero
        nearest = min(max(round(kappa / step), 1), spec["n_radii"]) * step
        at_grid = oracles.mode0_axis_abs_q(nearest, spec["a"], spec["rho"])
        missed = (f"found_zero = False, but Q_0 vanishes at lambda = {kappa!r}i; "
                  f"|Q_0({nearest:.6g}i)| = {at_grid:.3e} against the threshold "
                  f"{DEPTH_TOL * out.median:.3e} (grid min/median = {dip:.2e})")
        if kappa < step or at_grid >= DEPTH_TOL * out.median:
            # a zero the grid cannot resolve: the heuristic's blind spot,
            # which a certified count replaces
            return [Failure(missed, known=True)]
        return [Failure(missed)]


WORKLOADS = {w.name: w for w in (CliPresets(), TrackSweep(), PhaseTable(), ZeroCensus())}
