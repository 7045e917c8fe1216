"""Run orchestration: one frozen spec per subcommand, deterministic CSVs,
figure presets.

A spec (TrackSpec, PhaseSpec, ClassifySpec, Delta1dSpec, BesselEvalSpec,
LambertEvalSpec) holds only its own parameters and checks only what no
library call below it checks; `run(spec, output_dir, name)` executes it.
Every run writes flat CSV files stamped with the format comment
`# resonance-lab v1`.  Floats are serialized with 9 significant digits and
LF line endings, so identical specs produce byte-identical files.  Exit
codes: 0 success, 2 partial results (some track points NotFound), 1
configuration error (raised here as ConfigError, mapped by the CLI).

The figure presets are a table of specs per figure and panel; each preset
also emits a gnuplot-dialect script referencing the CSVs it wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cylinder import SurfacePoint, bessel_j, bessel_y, bessel_zero, hankel
from .delta1d import delta_phase_derivative, delta_resonance
from .errors import ConfigError, DomainError, MissingInput, RangeError, StructureError
from .finder import Classification, GuessKind, initial_guess, refine, track
from .lambert import lambert_w
from .phase import PhaseTable, breit_wigner_overlay, total_phase_derivative
from .well import CouplingFamily, Well, classify_zero_energy

FORMAT_VERSION = "1"
FORMAT_STAMP = "# resonance-lab v1"


def quad_eps_grid(n: int, delta: float) -> tuple[float, ...]:
    """The `quad:N:delta` grid: sign(k) k^2 delta for k = -N..N, k != 0."""
    return tuple(math.copysign(k * k * delta, k) for k in range(-n, n + 1) if k != 0)


def neg_eps_grid(kmin: int, kmax: int, delta: float) -> tuple[float, ...]:
    """The `neg:kmin:kmax:delta` grid: -k delta for k = kmin..kmax."""
    return tuple(-k * delta for k in range(kmin, kmax + 1))


# eps grids of the standard experiment presets
QUAD_EPS = quad_eps_grid(15, 0.0036)
DEEPENING_EPS = neg_eps_grid(2, 25, 0.1)


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    x = float(v)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return "%.9g" % x


@dataclass(frozen=True)
class CsvDocument:
    """An in-memory CSV with deterministic serialization."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise DomainError(
                    f"row width {len(row)} != header width {len(self.header)}"
                )

    def to_text(self) -> str:
        lines = [FORMAT_STAMP, ",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_text(), encoding="ascii", newline="\n")
        return path

    @classmethod
    def parse_text(cls, text: str) -> "CsvDocument":
        """Read back an emitted document (comments skipped, floats parsed)."""
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            raise DomainError("no header line found")
        header = tuple(lines[0].split(","))
        rows = []
        for ln in lines[1:]:
            row = []
            for cell in ln.split(","):
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(tuple(row))
        return cls(header=header, rows=tuple(rows))


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    paths: tuple[Path, ...]


def _write(header, rows, out_dir: Path, filename: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    return CsvDocument(tuple(header), tuple(rows)).write(out_dir / filename)


def _family(l0: int, rho: float) -> CouplingFamily:
    """The family of base depth a0 = j_{l0,1}/rho, so that J_{l0}(rho a0) = 0."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ConfigError(f"rho must be positive and finite, got {rho}")
    return CouplingFamily(bessel_zero(l0, 1) / rho, rho)


def _guess_kind(ell: int, branch: int | None) -> GuessKind:
    n = abs(ell)
    if n == 0:
        return GuessKind.disappearing0()
    if n == 1:
        return GuessKind.persist_lw(-1 if branch is None else branch)
    return GuessKind.persist_sqrt(0 if branch is None else branch)


def _lambda_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if not (math.isfinite(hi) and hi > lo >= 0):
        raise ConfigError(f"need 0 <= lambda-min < lambda-max, got {lo}, {hi}")
    if steps < 2:
        raise ConfigError(f"steps must be >= 2, got {steps}")
    if lo == 0.0:
        # lambda = 0 is excluded; start one step in
        return hi * np.arange(1, steps + 1) / steps
    return np.linspace(lo, hi, steps)


TRACK_HEADER = (
    "epsilon",
    "re_guess",
    "im_guess",
    "re_exact",
    "im_exact",
    "residual",
    "class",
)


@dataclass(frozen=True)
class TrackSpec:
    """`track`: the eps-track of the mode-ell family with a0 = j_{l0,1}/rho."""

    ell: int
    l0: int
    eps_grid: tuple[float, ...]
    rho: float = 1.0
    branch: int | None = None

    def run(self, out_dir: Path, name: str) -> RunResult:
        family = _family(self.l0, self.rho)
        trk = track(self.ell, family, self.eps_grid, _guess_kind(self.ell, self.branch))
        rows = []
        for rec in trk.records:
            g, r = rec.guess.value, rec.refined.value
            rows.append((rec.epsilon, g.real, g.imag, r.real, r.imag, rec.residual,
                         rec.classification.value))
        path = _write(TRACK_HEADER, rows, out_dir, f"{name}.csv")
        partial = any(rec.classification is Classification.NOT_FOUND for rec in trk.records)
        return RunResult(2 if partial else 0, (path,))


@dataclass(frozen=True)
class PhaseSpec:
    """`phase`: sigma' of the eps = 0, +e, -e wells of one family.

    eps is (e,) with e > 0, or the three offsets {0, e, -e} in any order.
    """

    l0: int
    eps: tuple[float, ...]
    lambda_max: float
    steps: int
    rho: float = 1.0
    lambda_min: float = 0.0
    per_mode: bool = False

    def run(self, out_dir: Path, name: str) -> RunResult:
        offsets = sorted(self.eps)
        single = len(offsets) == 1 and offsets[0] > 0
        triple = len(offsets) == 3 and offsets[1] == 0 < offsets[2] == -offsets[0]
        if not (single or triple):
            raise ConfigError(f"phase needs --eps with one value e > 0 or the list "
                              f"0,e,-e, got {list(self.eps)}")
        e = offsets[-1]
        grid = _lambda_grid(self.lambda_min, self.lambda_max, self.steps)
        family = _family(self.l0, self.rho)
        wells = {"res": family.well(0.0), "above": family.well(e), "below": family.well(-e)}
        include = None
        if self.per_mode:
            include = total_phase_derivative(float(grid[-1]), wells["res"]).l_max
        tables = {key: PhaseTable.build(grid, well, include_modes=include)
                  for key, well in wells.items()}
        header = ["lambda", *tables]
        columns = [grid] + [table.total for table in tables.values()]
        if self.per_mode:
            for key, table in tables.items():
                for ell in range(include + 1):
                    header.append(f"{key}_l{ell}")
                    columns.append(table.per_mode[ell])
        return RunResult(0, (_write(header, zip(*columns), out_dir, f"{name}.csv"),))


@dataclass(frozen=True)
class ClassifySpec:
    """`classify`: the zero-energy structure of modes 0..l_max."""

    a: float
    l_max: int
    rho: float = 1.0

    def run(self, out_dir: Path, name: str) -> RunResult:
        classes = classify_zero_energy(Well(self.a, self.rho), self.l_max)
        rows = [(c.mode, c.kind.value) for c in classes]
        return RunResult(0, (_write(("mode", "kind"), rows, out_dir, f"{name}.csv"),))


@dataclass(frozen=True)
class Delta1dSpec:
    """`delta1d`: the first k_max delta-potential resonances and sigma'."""

    a: float
    k_max: int
    lambda_max: float
    steps: int
    lambda_min: float = 0.0

    def run(self, out_dir: Path, name: str) -> RunResult:
        if self.k_max < 1:
            raise ConfigError("delta1d needs --k-max >= 1")
        grid = _lambda_grid(self.lambda_min, self.lambda_max, self.steps)
        ks = range(1, self.k_max + 1)
        res = [delta_resonance(self.a, k) for k in ks]
        bw = breit_wigner_overlay(grid, res + [-p.conjugate() for p in res]) - 1.0 / math.pi
        phase_rows = [(lam, delta_phase_derivative(self.a, lam), b) for lam, b in zip(grid, bw)]
        res_rows = [(k, p.real, p.imag) for k, p in zip(ks, res)]
        res_path = _write(("k", "re", "im"), res_rows, out_dir, f"{name}_resonances.csv")
        header = ("lambda", "sigma_prime", "bw_approx")
        return RunResult(0, (res_path, _write(header, phase_rows, out_dir, f"{name}_phase.csv")))


@dataclass(frozen=True)
class BesselEvalSpec:
    """`bessel-eval`: one cylinder value and derivative at |z| e^{i arg z}."""

    kind: str
    ell: int
    abs_z: float
    arg_z: float

    def run(self, out_dir: Path, name: str) -> RunResult:
        if self.kind not in ("j", "y", "h1", "h2"):
            raise ConfigError(f"kind must be one of j, y, h1, h2, got {self.kind!r}")
        if not (self.abs_z > 0):
            raise ConfigError(f"|z| must be positive, got {self.abs_z}")
        pt = SurfacePoint.from_polar(self.abs_z, self.arg_z)
        if self.kind == "j":
            cv = bessel_j(self.ell, pt.value)
        elif self.kind == "y":
            cv = bessel_y(self.ell, pt.value)
        else:
            cv = hankel(1 if self.kind == "h1" else 2, self.ell, pt)
        header = ("kind", "ell", "abs_z", "arg_z", "re_value", "im_value",
                  "re_derivative", "im_derivative")
        row = (self.kind, self.ell, self.abs_z, self.arg_z, cv.value.real,
               cv.value.imag, cv.derivative.real, cv.derivative.imag)
        return RunResult(0, (_write(header, [row], out_dir, f"{name}.csv"),))


@dataclass(frozen=True)
class LambertEvalSpec:
    """`lambert-eval`: W_n(re + i im) with its defining-equation residual."""

    n: int
    re: float
    im: float

    def run(self, out_dir: Path, name: str) -> RunResult:
        x = complex(self.re, self.im)
        w = lambert_w(self.n, x)
        row = (self.n, x.real, x.imag, w.real, w.imag, abs(w * np.exp(w) - x))
        header = ("n", "x_re", "x_im", "w_re", "w_im", "residual")
        return RunResult(0, (_write(header, [row], out_dir, f"{name}.csv"),))


Spec = TrackSpec | PhaseSpec | ClassifySpec | Delta1dSpec | BesselEvalSpec | LambertEvalSpec


def run(spec: Spec, output_dir: str | Path, name: str) -> RunResult:
    """Execute one spec; returns exit code and written paths.

    The CSVs go to output_dir as <name>.csv (delta1d: <name>_resonances.csv
    and <name>_phase.csv).
    """
    try:
        return spec.run(Path(output_dir), name)
    except (DomainError, RangeError, StructureError) as exc:
        # parameter combinations the library rejects are config errors
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

# figure -> panel -> spec; the panel None marks a figure without panels
FIGURES: dict[int, dict[str | None, Spec]] = {
    1: {
        "left": TrackSpec(ell=1, l0=0, eps_grid=QUAD_EPS, branch=-1),
        "middle": TrackSpec(ell=2, l0=1, eps_grid=QUAD_EPS, branch=0),
        "right": TrackSpec(ell=3, l0=2, eps_grid=QUAD_EPS, branch=0),
    },
    2: {None: TrackSpec(ell=0, l0=1, eps_grid=DEEPENING_EPS)},
    3: {
        "left": PhaseSpec(l0=1, eps=(0.09,), lambda_max=0.1, steps=200),
        "right": PhaseSpec(l0=0, eps=(0.09,), lambda_max=0.15, steps=200),
    },
    4: {None: Delta1dSpec(a=10.0, k_max=3, lambda_max=11.0, steps=440)},
    5: {
        "n-1": TrackSpec(ell=1, l0=0, eps_grid=QUAD_EPS, branch=-1),
        "n-2": TrackSpec(ell=1, l0=0, eps_grid=QUAD_EPS, branch=-2),
    },
    6: {
        "left": PhaseSpec(l0=1, eps=(0.09,), lambda_max=1.0, steps=400),
        "right": PhaseSpec(l0=0, eps=(0.09,), lambda_max=1.0, steps=400),
    },
}


def figure_jobs(figure: int, panel: str | None = None) -> list[tuple[str, Spec]]:
    """The (output name, spec) jobs of one numbered figure (optionally one panel)."""
    if figure not in FIGURES:
        raise ConfigError(f"--figure must be 1..6, got {figure}")
    jobs = [
        (f"figure{figure}_{p}" if p else f"figure{figure}", spec)
        for p, spec in FIGURES[figure].items()
        if panel in (None, p)
    ]
    if not jobs:
        panels = [p for p in FIGURES[figure] if p]
        raise ConfigError(f"figure {figure} has panels {panels or 'none'}, got {panel!r}")
    return jobs


def run_figure(figure: int, panel: str | None = None, output_dir: str = ".") -> RunResult:
    """Run all jobs of a figure preset and emit its plot script."""
    code = 0
    paths: list[Path] = []
    for name, spec in figure_jobs(figure, panel):
        result = run(spec, output_dir, name)
        code = max(code, result.exit_code)
        paths.extend(result.paths)
    paths.append(emit_plot_script(paths, figure, Path(output_dir) / f"figure{figure}.gp"))
    return RunResult(code, tuple(paths))


_TRACK_PLOT = (
    "using 're_guess':'im_guess' with points pt 6 title 'guess'",
    "using 're_exact':'im_exact' with points pt 7 title 'exact'",
)
_PHASE_PLOT = tuple(f"using 'lambda':'{col}' with lines" for col in ("res", "above", "below"))

# figure -> (preamble lines, {CSV name suffix: plot clauses}); each CSV is
# plotted with the clauses of the first suffix its stem ends with
PLOT_LAYOUTS = {
    1: (("set size ratio -1",), {"": _TRACK_PLOT}),
    2: ((), {"": ("using 'epsilon':'im_guess' with points pt 6",
                  "using 'epsilon':'im_exact' with points pt 7")}),
    3: ((), {"": _PHASE_PLOT}),
    4: ((), {"_resonances": ("using 're':'im' with points pt 7 title 'resonances'",),
             "": ("using 'lambda':'sigma_prime' with lines",
                  "using 'lambda':'bw_approx' with lines dashtype 2")}),
    5: (("set size ratio -1",), {"": _TRACK_PLOT}),
    6: ((), {"": _PHASE_PLOT}),
}

# dashed Breit-Wigner overlays, by CSV stem: the refined resonance
# x0 - ig of a one-point track spec, drawn as g/((x-x0)**2 + g**2) plus a
# background (plot convention without the 1/pi)
_BW_OVERLAYS = {
    # figure 1 middle's node
    "figure6_left": (TrackSpec(ell=2, l0=1, eps_grid=(0.09,)), "- 0.8*sqrt(x)"),
    # figure 1 left's node
    "figure6_right": (TrackSpec(ell=1, l0=0, eps_grid=(0.09,), branch=-1), "+ log(x)"),
}


def _bw_clause(spec: TrackSpec, background: str) -> str:
    eps = spec.eps_grid[0]
    family = _family(spec.l0, spec.rho)
    guess = initial_guess(spec.ell, eps, family, _guess_kind(spec.ell, spec.branch))
    lam = refine(spec.ell, guess, family.well(eps), epsilon=eps).refined.value
    g = -lam.imag
    curve = f"{g:.7f}/((x-{lam.real:.7f})**2 + {g:.7f}**2) {background}"
    return curve + " with lines dashtype 2 title 'bw'"


def emit_plot_script(
    csv_paths, figure_id: int, out_path: str | Path
) -> Path:
    """Write a gnuplot-dialect script laying out one figure's CSVs.

    Each CSV gets one plot: its clauses from PLOT_LAYOUTS, then its
    Breit-Wigner overlay when _BW_OVERLAYS has one.  The script is a
    convenience for eyeballing results, but its text is pinned by
    test_plot_script_figure6_overlays and the preset golden hashes.
    """
    paths = [Path(p) for p in csv_paths]
    for p in paths:
        if p.suffix == ".csv" and not p.exists():
            raise MissingInput(f"plot input {p} does not exist")
    preamble, layout = PLOT_LAYOUTS[figure_id]
    lines = [f"# gnuplot layout for figure {figure_id}", "set datafile separator ','",
             "set key autotitle columnhead", *preamble]
    for p in paths:
        if p.suffix != ".csv":
            continue
        suffix = next(s for s in layout if p.stem.endswith(s))
        clauses = [f"'{p.name}' {clause}" for clause in layout[suffix]]
        if p.stem in _BW_OVERLAYS:
            clauses.append(_bw_clause(*_BW_OVERLAYS[p.stem]))
        lines += ["plot " + ", \\\n     ".join(clauses), "pause -1"]

    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return out_path
