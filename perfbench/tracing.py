"""Per-layer tracing from outside the library.

Tracer.install() wraps every public function of each layer module and
rebinds, by object identity, every name that refers to one across the
resonance_lab.* modules: well imports bessel_j and hankel by name, finder
imports char_q, phase imports bessel_j and bessel_y, runs and cli import
from everything.  PhaseTable.build, a classmethod, is wrapped too.
uninstall() puts every original object back.

Each call records a span (id, name, start, end, parent, thread) in a
buffer of its own thread, so no two threads write one list.  finder.track
refines on a thread pool; a span that starts on a thread with no open span
takes the main thread's innermost open span as parent.  Self time is a
span's duration minus the spans it caused on the same thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cylinder", "lambert", "well", "finder", "phase", "delta1d", "runs", "cli")

RAISED = 1  # an exception escaped this call
NEW_ERROR = 2  # ... and had not yet escaped another call of the same layer

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("setup.import.scipy_special_s", "s", "lower"),
    ("setup.import.scipy_integrate_s", "s", "lower"),
    ("trace.units", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.units_per_s", "1/s", "higher"),
    ("trace.untraced_units_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.fail_ratio", "ratio", "lower"),
    ("trace.known_defects", "count", "lower"),
    ("cylinder.hankel.calls", "count", "lower"),
    ("cylinder.hankel.us_per_call", "us", "lower"),
    ("cylinder.bessel_j.calls", "count", "lower"),
    ("cylinder.bessel_j.us_per_call", "us", "lower"),
    ("cylinder.bessel_y.calls", "count", "lower"),
    ("cylinder.bessel_y.us_per_call", "us", "lower"),
    ("cylinder.self_s", "s", "lower"),
    ("cylinder.errors", "count", "lower"),
    ("lambert.lambert_w.calls", "count", "lower"),
    ("lambert.lambert_w.us_per_call", "us", "lower"),
    ("lambert.self_s", "s", "lower"),
    ("lambert.errors", "count", "lower"),
    ("well.char_q.calls", "count", "lower"),
    ("well.char_q.us_per_call", "us", "lower"),
    ("well.char_q_scale.calls", "count", "lower"),
    ("well.self_s", "s", "lower"),
    ("well.errors", "count", "lower"),
    ("finder.refine.calls", "count", "lower"),
    ("finder.refine.ms_per_call", "ms", "lower"),
    ("finder.refine.found_ratio", "ratio", "higher"),
    ("finder.track.points", "count", "higher"),
    ("finder.refine_per_point", "count", "lower"),
    ("finder.char_q_per_point", "count", "lower"),
    ("finder.track.busy_over_wall", "ratio", "lower"),
    ("finder.sector_scan.ms_per_call", "ms", "lower"),
    ("finder.sector_scan.q_per_call", "count", "lower"),
    ("finder.self_s", "s", "lower"),
    ("finder.errors", "count", "lower"),
    ("phase.phase_shift_derivative.calls", "count", "lower"),
    ("phase.phase_shift_derivative.us_per_call", "us", "lower"),
    ("phase.total_phase_derivative.calls", "count", "lower"),
    ("phase.total_phase_derivative.us_per_call", "us", "lower"),
    ("phase.modes_per_point", "count", "lower"),
    ("phase.PhaseTable.build.ms_per_call", "ms", "lower"),
    ("phase.scattering_phase.calls", "count", "lower"),
    ("phase.scattering_phase.ms_per_call", "ms", "lower"),
    ("phase.scattering_phase.errors", "count", "lower"),
    ("phase.integrand_per_sigma", "count", "lower"),
    ("phase.self_s", "s", "lower"),
    ("phase.errors", "count", "lower"),
    ("delta1d.delta_phase_derivative.calls", "count", "lower"),
    ("delta1d.delta_phase_derivative.us_per_call", "us", "lower"),
    ("delta1d.self_s", "s", "lower"),
    ("delta1d.errors", "count", "lower"),
    ("runs.self_s", "s", "lower"),
    ("runs.bytes_written", "bytes", "lower"),
    ("runs.errors", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.errors", "count", "lower"),
)


# what the traced run should show, per workload: (claim, test of the
# per-layer metrics m and the layer shares of unit time sh); each claim is
# printed as confirmed or WRONG
PREDICTIONS = {
    "cli-presets": (
        ("only workload that writes through runs/cli",
         lambda m, sh: m["runs.bytes_written"] > 0 and sh["cli"] > 0),
        ("phase does most of the work", lambda m, sh: sh["phase"] > 0.5),
        ("finder does roughly a quarter (0.1..0.4)", lambda m, sh: 0.1 <= sh["finder"] <= 0.4),
        ("delta1d is called and minor (< 1%)",
         lambda m, sh: m["delta1d.delta_phase_derivative.calls"] > 0 and sh["delta1d"] < 0.01),
    ),
    "track-sweep": (
        ("finder, well and cylinder do almost all the work (> 90%)",
         lambda m, sh: sh["finder"] > 0.9),
        ("no phase calls", lambda m, sh: sh["phase"] == 0),
        ("hankel, char_q and refine are called",
         lambda m, sh: min(m["cylinder.hankel.calls"], m["well.char_q.calls"],
                           m["finder.refine.calls"]) > 0),
        ("lambert_w is called and minor (< 1%)",
         lambda m, sh: m["lambert.lambert_w.calls"] > 0 and sh["lambert"] < 0.01),
        ("about 31 char_q per track point (25..40)",
         lambda m, sh: 25 <= m["finder.char_q_per_point"] <= 40),
        ("no runs/cli calls", lambda m, sh: sh["runs"] == sh["cli"] == 0),
    ),
    "phase-table": (
        ("phase and the real Bessel path do almost all the work (> 90%)",
         lambda m, sh: sh["phase"] > 0.9),
        ("no hankel calls", lambda m, sh: m["cylinder.hankel.calls"] == 0),
        ("no well or finder calls", lambda m, sh: sh["well"] == sh["finder"] == 0),
        ("no runs/cli calls", lambda m, sh: sh["runs"] == sh["cli"] == 0),
    ),
    "zero-census": (
        ("sector_scan does almost all the work (> 90%)", lambda m, sh: sh["finder"] > 0.9),
        ("char_q and hankel are called",
         lambda m, sh: min(m["well.char_q.calls"], m["cylinder.hankel.calls"]) > 0),
        ("no phase calls", lambda m, sh: sh["phase"] == 0),
        ("no runs/cli calls", lambda m, sh: sh["runs"] == sh["cli"] == 0),
    ),
}


def public_functions(module) -> dict:
    """The functions a layer module defines under public names."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _found(record) -> int:
    return int(record.classification.value != "not-found")


def _bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# what a span keeps from its call's result, besides its timing
OBSERVERS = {
    "finder.refine": _found,
    "finder.track": lambda trk: len(trk.records),
    "runs.run": lambda result: _bytes(result.paths),
    "runs.emit_plot_script": lambda path: _bytes([path]),
}


def _escape_flags(exc: BaseException, layer: str) -> int:
    seen = exc.__dict__.setdefault("_perfbench_layers", set())
    if layer in seen:
        return RAISED
    seen.add(layer)
    return RAISED | NEW_ERROR


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[list[tuple]] = []
        self._patches: list[tuple] = []
        self._main_stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._build = None  # the wrapped PhaseTable.build classmethod

    def _thread_state(self):
        loc = self._local
        try:
            return loc.stack, loc.spans
        except AttributeError:
            loc.stack, loc.spans = [], []
            self._buffers.append(loc.spans)
            return loc.stack, loc.spans

    def _wrap(self, qual: str, fn):
        idx = len(self.names)
        self.names.append(qual)
        layer = qual.split(".", 1)[0]
        observe = OBSERVERS.get(qual)
        state = self._thread_state
        ids = self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = state()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, idx, t0, t1, parent, _escape_flags(exc, layer), 0))
                raise
            t1 = perf_counter()
            stack.pop()
            spans.append((sid, idx, t0, t1, parent, 0, observe(result) if observe else 0))
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of the layers' public functions.

        install() may follow uninstall() any number of times; the spans of
        all installed periods are kept together.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread_state()
        self._local.stack = self._main_stack
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"resonance_lab.{layer}"]
                for name, fn in public_functions(module).items():
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
            build = vars(sys.modules["resonance_lab.phase"].PhaseTable)["build"]
            self._build = classmethod(self._wrap("phase.PhaseTable.build", build.__func__))
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "resonance_lab" or n.startswith("resonance_lab.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        table = sys.modules["resonance_lab.phase"].PhaseTable
        self._patches.append((table, "build", vars(table)["build"]))
        table.build = self._build

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _arrays(self):
        rows = [row + (t,) for t, buf in enumerate(self._buffers) for row in buf]
        rows.sort()
        cols = list(zip(*rows)) if rows else [()] * 8
        sid, name, t0, t1, parent, flags, extra, thread = (np.asarray(c) for c in cols)
        return {
            "sid": sid.astype(np.int64),
            "name": name.astype(np.int64),
            "t0": t0.astype(float),
            "t1": t1.astype(float),
            "parent": parent.astype(np.int64),
            "flags": flags.astype(np.int64),
            "extra": extra.astype(np.int64),
            "thread": thread.astype(np.int64),
        }

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """The span-derived per-layer metrics (setup.* and trace.* excluded),
        and each layer's share of the traced units' time."""
        s = self._arrays()
        n = len(s["sid"])
        if n and not np.array_equal(s["sid"], np.arange(n)):
            raise RuntimeError("span ids are not contiguous; a call is still open")
        names = np.array(self.names + [""])
        name = names[s["name"]] if n else np.array([], dtype=str)
        layer = np.array([q.split(".", 1)[0] for q in name]) if n else name
        dur = s["t1"] - s["t0"]
        parent = s["parent"]
        has_parent = parent >= 0
        p = np.where(has_parent, parent, 0)
        same_thread = has_parent & (s["thread"][p] == s["thread"]) if n else has_parent
        child = np.zeros(n)
        np.add.at(child, p[same_thread], dur[same_thread])
        self_time = dur - child

        # ancestors: parents start, and so take ids, before their children
        context = {"finder.track": 1, "finder.sector_scan": 2, "phase.scattering_phase": 4}
        own = np.array([context.get(q, 0) for q in name], dtype=np.int64)
        anc = np.zeros(n, dtype=np.int64)
        for _ in range(256):
            new = np.where(has_parent, own[p] | anc[p], 0) if n else anc
            if np.array_equal(new, anc):
                break
            anc = new
        parent_name = np.where(has_parent, name[p], "") if n else name

        def sel(q):
            return name == q

        def calls(q, mask=None):
            m = sel(q) if mask is None else sel(q) & mask
            return int(m.sum())

        def per_call(q, total, scale):
            c = calls(q)
            return float(total[sel(q)].sum()) / c * scale if c else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        under_track = (anc & 1) > 0
        under_scan = (anc & 2) > 0
        under_sigma = (anc & 4) > 0
        points = int(s["extra"][sel("finder.track")].sum())
        out = {}
        for q in ("cylinder.hankel", "cylinder.bessel_j", "cylinder.bessel_y",
                  "lambert.lambert_w", "well.char_q", "phase.phase_shift_derivative",
                  "phase.total_phase_derivative", "delta1d.delta_phase_derivative"):
            out[f"{q}.calls"] = calls(q)
            out[f"{q}.us_per_call"] = per_call(q, self_time, 1e6)
        out["well.char_q_scale.calls"] = calls("well.char_q_scale")
        out["finder.refine.calls"] = calls("finder.refine")
        out["finder.refine.ms_per_call"] = per_call("finder.refine", dur, 1e3)
        out["finder.refine.found_ratio"] = ratio(
            int(s["extra"][sel("finder.refine")].sum()), calls("finder.refine")
        )
        out["finder.track.points"] = points
        out["finder.refine_per_point"] = ratio(calls("finder.refine", under_track), points)
        out["finder.char_q_per_point"] = ratio(
            calls("well.char_q", under_track) + calls("well.char_q_scale", under_track), points
        )
        out["finder.track.busy_over_wall"] = ratio(
            float(dur[sel("finder.refine") & under_track].sum()),
            float(dur[sel("finder.track")].sum()),
        )
        out["finder.sector_scan.ms_per_call"] = per_call("finder.sector_scan", dur, 1e3)
        out["finder.sector_scan.q_per_call"] = ratio(
            calls("well.char_q", under_scan), calls("finder.sector_scan")
        )
        out["phase.modes_per_point"] = ratio(
            calls("phase.phase_shift_derivative", parent_name == "phase.total_phase_derivative"),
            calls("phase.total_phase_derivative"),
        )
        out["phase.PhaseTable.build.ms_per_call"] = per_call("phase.PhaseTable.build", dur, 1e3)
        out["phase.scattering_phase.calls"] = calls("phase.scattering_phase")
        out["phase.scattering_phase.ms_per_call"] = per_call("phase.scattering_phase", dur, 1e3)
        out["phase.scattering_phase.errors"] = int(
            ((s["flags"] & RAISED) > 0)[sel("phase.scattering_phase")].sum()
        )
        out["phase.integrand_per_sigma"] = ratio(
            calls("phase.total_phase_derivative", under_sigma), calls("phase.scattering_phase")
        )
        out["runs.bytes_written"] = int(s["extra"][layer == "runs"].sum())
        out["cli.main.self_s"] = float(self_time[sel("cli.main")].sum())
        for lay in LAYERS:
            if lay != "cli":
                out[f"{lay}.self_s"] = float(self_time[layer == lay].sum())
            out[f"{lay}.errors"] = int(((s["flags"] & NEW_ERROR) > 0)[layer == lay].sum())

        # share of the units' time spent inside each layer: the inclusive
        # time of its outermost calls over that of the calls the units made
        bit = {lay: 1 << i for i, lay in enumerate(LAYERS)}
        own_layer = np.array([bit[lay] for lay in layer], dtype=np.int64)
        anc_layers = np.zeros(n, dtype=np.int64)
        for _ in range(256):
            new = np.where(has_parent, own_layer[p] | anc_layers[p], 0) if n else anc_layers
            if np.array_equal(new, anc_layers):
                break
            anc_layers = new
        outermost = (anc_layers & own_layer) == 0
        unit_time = float(dur[~has_parent].sum())
        shares = {
            lay: ratio(float(dur[outermost & (layer == lay)].sum()), unit_time)
            for lay in LAYERS
        }
        return out, shares

    def span_count(self) -> int:
        return sum(len(buf) for buf in self._buffers)

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzipped TSV: id, name, start, end (s), parent, thread."""
        s = self._arrays()
        base = float(s["t0"].min()) if len(s["t0"]) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tthread\n")
            for i in range(len(s["sid"])):
                fh.write(
                    f"{s['sid'][i]}\t{self.names[s['name'][i]]}\t{s['t0'][i] - base:.9f}\t"
                    f"{s['t1'][i] - base:.9f}\t{s['parent'][i]}\t{s['thread'][i]}\n"
                )
