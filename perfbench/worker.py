"""One benchmark worker: import the library, warm up, run units, report.

run.py starts workers one at a time, each in a fresh interpreter:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode timed|trace --scratch DIR [--part P --parts K] [--min-units N] [--check]

Every mode times `import resonance_lab` and one untimed warm-up unit.
"timed" then runs the deck in order from the start of block
floor(P * blocks / K), cycling, until at least S
seconds of unit time and N units have passed (but for no more than
MAX_STRETCH * S seconds), and reports each unit's input, wall time, CPU
time, output digest and the host-speed reference next to it (see
host_burst); with --check it then checks the first output of
every input of the deck against the oracles, running the inputs the timed
part did not reach once more, untimed, and runs the workload's probes of
catalogued defects.  "trace" runs TRACE_BLOCKS blocks of units, each once
untraced and once traced, checks them the same way and runs the probes
traced.
The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the timed part may run past --seconds to reach --min-units, but never
# past this multiple of it, so that a slow host cannot blow the time budget
MAX_STRETCH = 1.5
# blocks per traced run; sized to keep a traced run to a few seconds and
# under a million spans
TRACE_BLOCKS = {"cli-presets": 2, "track-sweep": 6, "phase-table": 2, "zero-census": 2}
# scipy.special calls in one host_burst (about 6.5 ms on a 2-vCPU Xeon VM)
BURST_CALLS = 150
# each unit is scaled by the median of this many host bursts nearest it
BURST_WINDOW = 6


def _describe_exception(exc: BaseException) -> str:
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if "resonance_lab" in Path(f.filename).parts]
    where = ""
    if frames:
        outer, inner = frames[0], frames[-1]
        where = (f" escaping resonance_lab.{Path(outer.filename).stem}.{outer.name}"
                 f" (raised in {inner.name}, {Path(inner.filename).name}:{inner.lineno})")
    return f"raised {type(exc).__name__}: {' '.join(str(exc).split())[:200]}{where}"


def run_unit(wl, spec, out_dir: Path):
    """(wall s, CPU s, output, exception, digest) of one unit."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, exc = wl.run(spec, out_dir), None
    except Exception as err:  # a unit that raises is a failed unit
        out, exc = None, err
    t1 = time.perf_counter()
    c1 = time.process_time()
    shutil.rmtree(out_dir, ignore_errors=True)
    shown = wl.digest(out) if exc is None else _describe_exception(exc)
    digest = hashlib.sha256(shown.encode()).hexdigest()[:16]
    return t1 - t0, c1 - c0, out, exc, digest


def host_burst() -> tuple[float, float]:
    """(wall s, CPU s) of a fixed piece of work owned by the benchmark.

    The host's speed drifts by up to 2x within seconds when other tenants
    share its cores, in CPU time as well as wall time.  The burst calls the
    same scipy.special routines as the library, on complex and array
    arguments, so its time tracks that drift; run.py scales each unit's
    time by the bursts next to it.  Nothing here depends on resonance_lab,
    so a change to the library cannot move the reference.
    """
    import numpy as np
    from scipy.special import jv, yv

    grid = np.linspace(0.05, 4.5, 64)
    z, acc = complex(0.7, 0.3), 0j
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i in range(BURST_CALLS):
        nu = 0.5 * (i % 7)
        acc += jv(nu, z) * cmath.exp(-z) + yv(nu, z) / (1.0 + abs(acc))
        z = cmath.sqrt(z * z + 0.01j) + 0.001
        acc += float(jv(nu, grid).sum()) * 1e-9
    t1 = time.perf_counter()
    c1 = time.process_time()
    if not cmath.isfinite(acc):
        raise ArithmeticError("host burst went non-finite")
    return t1 - t0, c1 - c0


def _with_reference(units: list, bursts: list) -> None:
    """Append to each unit the median (wall, CPU) of the BURST_WINDOW
    bursts nearest it; unit k ran between bursts k and k + 1."""
    half = BURST_WINDOW // 2
    for k, unit in enumerate(units):
        lo = max(0, min(k + 1 - half, len(bursts) - BURST_WINDOW))
        near = bursts[lo:lo + BURST_WINDOW]
        unit += [statistics.median(b[0] for b in near), statistics.median(b[1] for b in near)]


def check(wl, spec, out, exc, digest: str) -> dict:
    """The checked record of one input: its digest and its failures."""
    if exc is not None:
        fails = [(_describe_exception(exc), False)]
    else:
        try:
            fails = [(f.message, f.known) for f in wl.check(spec, out)]
        except ArithmeticError as err:  # an oracle that cannot decide is no pass
            fails = [(f"output could not be checked: {err}", False)]
    return {"digest": digest, "call": wl.describe(spec),
            "failures": [{"message": m, "known": k} for m, k in fails]}


def probe(wl, deck) -> list[dict]:
    """The failed calls of the workload's probes of catalogued defects."""
    return [{"call": call, "message": f.message, "known": f.known}
            for call, f in wl.probes(deck)]


def time_units(wl, deck, start: int, min_units: int, seconds: float, scratch: Path,
               first: dict | None = None) -> list:
    """[deck index, wall s, CPU s, digest, burst wall s, burst CPU s] per
    unit, running deck[start:], cycling, until min_units units and
    `seconds` of unit time have passed (or MAX_STRETCH * seconds), stopping
    at a block boundary, with a host burst before the first unit and after
    each.  If `first` is a dict, it collects (output, exception, digest) of
    each input's first run."""
    units, total = [], 0.0
    bursts = [host_burst()]
    i = start
    while (len(units) < min_units or total < seconds) and total < MAX_STRETCH * seconds:
        for _ in range(wl.block):
            spec_i = i % len(deck)
            wall, cpu, out, exc, digest = run_unit(wl, deck[spec_i], scratch / f"unit{i}")
            bursts.append(host_burst())
            units.append([spec_i, wall, cpu, digest])
            if first is not None and spec_i not in first:
                first[spec_i] = (out, exc, digest)
            total += wall
            i += 1
    _with_reference(units, bursts)
    return units


def check_deck(wl, deck, scratch: Path, first: dict) -> dict:
    """The checked record of every input, keyed by deck index, from its
    output in `first`; an input missing there runs once now."""
    out = {}
    for spec_i, spec in enumerate(deck):
        if spec_i not in first:
            first[spec_i] = run_unit(wl, spec, scratch / f"check{spec_i}")[2:]
        out[spec_i] = check(wl, spec, *first[spec_i])
    return out


def trace_units(wl, deck, scratch: Path) -> tuple[list, dict, dict]:
    """Run TRACE_BLOCKS blocks, each unit once untraced and once traced.

    Returns the units as time_units does (without the burst columns), the
    checked record of each input, and the probes' failures, the per-layer
    metrics and the layer shares.
    """
    from tracing import Tracer

    n = TRACE_BLOCKS[wl.name] * wl.block
    tracer = Tracer()
    units, checks = [], {}
    plain = traced = 0.0
    # alternate which run of a unit goes first, so that drift and first-run
    # costs fall on both sides
    for i in range(n):
        spec_i = i % len(deck)
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
            try:
                wall, cpu, out, exc, digest = run_unit(wl, deck[spec_i], scratch / f"unit{i}")
            finally:
                tracer.uninstall()
            units.append([spec_i, wall, cpu, digest])
            if traced_now:
                traced += wall
            else:
                plain += wall
            if spec_i not in checks:
                checks[spec_i] = check(wl, deck[spec_i], out, exc, digest)
    tracer.install()
    try:
        probes = probe(wl, deck)
    finally:
        tracer.uninstall()
    per_layer, shares = tracer.metrics()
    per_layer.update({
        "trace.units": n,
        "trace.spans": tracer.span_count(),
        "trace.units_per_s": n / traced,
        "trace.untraced_units_per_s": n / plain,
        "trace.overhead": 1.0 - plain / traced,
    })
    tracer.write_spans(scratch.parent / f"{wl.name}.spans.tsv.gz")
    return units, checks, {"probes": probes, "per_layer": per_layer, "shares": shares}


def _environment(finder) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_budget": finder.thread_budget(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--min-units", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    result_out = sys.stdout
    # the CLI prints the paths it writes; keep them off the result channel
    sys.stdout = open(os.devnull, "w")

    t0 = time.perf_counter()
    import resonance_lab
    import_s = time.perf_counter() - t0
    if Path(resonance_lab.__file__).resolve().parent != ROOT / "src" / "resonance_lab":
        raise SystemExit(f"imported {resonance_lab.__file__}, not this checkout's src/")

    from resonance_lab import finder
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    t1 = time.perf_counter()
    run_unit(wl, wl.warmup(), args.scratch / "warmup")
    warmup_s = time.perf_counter() - t1
    result = {"import_s": import_s, "warmup_s": warmup_s, "env": _environment(finder)}

    deck = wl.deck(args.seed)
    if args.mode == "timed":
        blocks = len(deck) // wl.block
        start = wl.block * (args.part * blocks // args.parts)
        first = {} if args.check else None
        result["units"] = time_units(wl, deck, start, args.min_units, args.seconds, args.scratch,
                                     first)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.check:
            result["checks"] = check_deck(wl, deck, args.scratch, first)
            result["probes"] = probe(wl, deck)
    else:
        result["units"], result["checks"], traced = trace_units(wl, deck, args.scratch)
        result.update(traced)

    print(json.dumps(result), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
