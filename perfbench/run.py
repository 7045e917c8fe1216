"""Benchmark runner for resonance_lab.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from the src/ directory next to
this one.  The runner starts fresh worker processes one at a time (see
worker.py) and prints the metrics by name with units, the failed units with
their failing call, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  TIMED_WORKERS fresh workers
share the timed part, each starting at its own share of the workload's
deck and cycling through it, and the metrics are taken over all their
units, with unit times scaled to a reference host speed by the host
bursts the workers run between units (see worker.host_burst), and set-up
times by a reference import run right before each worker.  The last
worker then checks the first output of every input against the oracles,
and every timed unit must reproduce the checked output of its input.
setup_s is the median over these workers of import time plus one warm-up
unit.  --trace 1 runs one traced worker and reports the
per-layer metrics.  A unit whose only failures are catalogued known
defects is reported as such and does not count in "failed"; the calls of a
known defect that the timed units leave out run as untimed probes.
"correct" is false when a unit or a probe fails in any other way.

Scratch output goes to .perfbench_out/ next to src/ and is removed after
the run; a traced run leaves its spans there as <workload>.spans.tsv.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-presets", "track-sweep", "phase-table", "zero-census")
# fresh workers that share the timed part; each also gives set-up time
TIMED_WORKERS = 3
# units in the timed part, over all timed workers, unless the time cap hits
MIN_UNITS = 100
REPORTED_FAILURES = 20
# one workload's workers must finish within this many seconds
DEADLINE_S = 170.0
# typical wall time of worker.host_burst on a 2-vCPU Xeon VM; unit times
# are reported at the host speed this stands for
BURST_REF_S = 0.0065
# the library's heavy dependencies: importing them in a fresh interpreter,
# right before each timed worker, is the reference for set-up speed
REFERENCE_IMPORT = "import numpy, scipy.special, scipy.integrate"
# typical time of REFERENCE_IMPORT on the same machine; set-up times are
# reported at the import speed this stands for
REFERENCE_IMPORT_S = 0.75

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms.p50", "ms"),
    ("unit_ms.p90", "ms"),
    ("cpu_ms_per_unit", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, seconds: float, scratch: Path,
            deadline: float, *extra: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} worker of {workload}")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--scratch", str(scratch), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reference_import_s(deadline: float) -> float:
    """Seconds a fresh interpreter takes to run REFERENCE_IMPORT."""
    code = (f"import time; t = time.perf_counter(); {REFERENCE_IMPORT}; "
            "print(time.perf_counter() - t)")
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference import timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"the reference import failed: {proc.stderr.strip()[-200:]}")
    return float(proc.stdout)


def _import_times(deadline: float) -> dict[str, float]:
    """Cumulative import time of scipy.special and scipy.integrate, in s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import resonance_lab"],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError("python -X importtime -c 'import resonance_lab' failed")
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            found[parts[2].strip()] = int(parts[1]) * 1e-6
    return {
        "setup.import.scipy_special_s": found.get("scipy.special", 0.0),
        "setup.import.scipy_integrate_s": found.get("scipy.integrate", 0.0),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() or "unknown"


def _predictions(workload: str, metrics: dict, shares: dict) -> list[str]:
    from tracing import PREDICTIONS

    lines = ["share of unit time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())]
    for text, holds in PREDICTIONS[workload]:
        lines.append(f"prediction {'confirmed' if holds(metrics, shares) else 'WRONG'}: {text}")
    return lines


def _tally(units: list, checks: dict, probes: list) -> dict:
    """attempted and failed units, the units that show only known defects,
    whether the run is correct, and the failures to print (each input's
    message once, at its first failing unit, then the probes').

    A unit has the failures of its input's checked record, or fails when
    its output differs from the checked output.  checks is keyed by deck
    index, as an int or as its JSON string.
    """
    checks = {int(k): v for k, v in checks.items()}
    differs = [{"message": "output differs from the checked run of the same input",
                "known": False}]
    fails = [checks[i]["failures"] if digest == checks[i]["digest"] else differs
             for i, _, _, digest, *_ in units]
    shown, seen = [], set()
    for n, ((spec_i, *_), found) in enumerate(zip(units, fails)):
        for f in found:
            if (spec_i, f["message"]) not in seen and len(shown) < REPORTED_FAILURES:
                seen.add((spec_i, f["message"]))
                shown.append({"unit": n, "call": checks[spec_i]["call"], **f})
    failed = sum(1 for f in fails if f and not all(x["known"] for x in f))
    return {
        "attempted": len(units),
        "failed": failed,
        "known": sum(1 for f in fails if f) - failed,
        "correct": failed == 0 and all(p["known"] for p in probes),
        "failures": shown + [{"unit": None, **p} for p in probes],
    }


def _timings(units: list, setups: list) -> dict[str, float]:
    """setup_s and the four unit timings from (wall s, CPU s) per unit and
    set-up times in s."""
    from scipy.stats.mstats import hdquantiles

    walls = [wall * 1e3 for wall, _ in units]
    n = len(units)
    # Harrell-Davis quantiles weigh every unit, so they do not jump when a
    # quantile falls in the gap between the costs of two inputs
    p50, p90 = (float(q) for q in hdquantiles(walls, prob=(0.5, 0.9)))
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": n / sum(walls) * 1e3,
        "unit_ms.p50": p50,
        "unit_ms.p90": p90,
        "cpu_ms_per_unit": sum(cpu for _, cpu in units) * 1e3 / n,
    }


def _end_to_end(timed: list[dict]) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics over all units of the timed workers, with times
    at the reference host speed, and notes with the unit count and the times
    as measured."""
    units = [u for w in timed for u in w["units"]]
    setups = [w["import_s"] + w["warmup_s"] for w in timed]
    # unit = [deck index, wall, CPU, digest, burst wall, burst CPU]
    metrics = _timings(
        [(u[1] * BURST_REF_S / u[4], u[2] * BURST_REF_S / u[5]) for u in units],
        [s * REFERENCE_IMPORT_S / w["reference_import_s"] for s, w in zip(setups, timed)],
    )
    metrics["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in timed)
    raw = _timings([(u[1], u[2]) for u in units], setups)
    speed = statistics.median(BURST_REF_S / u[4] for u in units)
    references = ", ".join(f"{w['reference_import_s']:.3f}" for w in timed)
    inputs = len({u[0] for u in units})
    return metrics, [
        f"{len(units)} units of {inputs} inputs over {len(timed)} workers",
        f"host speed {speed:.3f} x the reference (median over units); reference import "
        f"{references} s; as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]


def bench(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
          deadline: float) -> dict:
    """Run one workload; returns its result with metrics and failures."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        def worker(mode, name, secs=seconds, *extra):
            return _worker(mode, workload, seed, secs, scratch / name, deadline, *extra)

        if trace:
            from tracing import PER_LAYER

            main = worker("trace", "trace")
            tally = _tally(main["units"], main["checks"], main["probes"])
            found = {**_import_times(deadline), **main["per_layer"],
                     "setup.import_s": main["import_s"], "setup.warmup_s": main["warmup_s"],
                     "trace.fail_ratio": tally["failed"] / tally["attempted"],
                     "trace.known_defects": tally["known"]
                     + sum(p["known"] for p in main["probes"])}
            metrics = {name: (found[name], unit) for name, unit, _ in PER_LAYER}
            notes = _predictions(workload, found, main["shares"])
        else:
            # each timed worker starts at its own share of the deck; the
            # last one also checks the outputs
            timed = []
            for w in range(TIMED_WORKERS):
                reference = _reference_import_s(deadline)
                timed.append(worker("timed", f"timed{w}", seconds / TIMED_WORKERS,
                                    "--part", str(w), "--parts", str(TIMED_WORKERS),
                                    "--min-units", str(-(-MIN_UNITS // TIMED_WORKERS)),
                                    *(["--check"] if w == TIMED_WORKERS - 1 else [])))
                timed[-1]["reference_import_s"] = reference
            main = timed[-1]
            units = [u for w in timed for u in w["units"]]
            tally = _tally(units, main["checks"], main["probes"])
            found, notes = _end_to_end(timed)
            metrics = {name: (found[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": workload,
        **tally,
        "env": main["env"],
        "notes": notes,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _print_result(res: dict, seed: int) -> None:
    print(f"== {res['workload']} (seed {seed})")
    print(f"   env {json.dumps(res['env'], sort_keys=True)}")
    if res["env"]["thread_budget"] > res["env"]["nproc"]:
        print("   note: the library's default thread pool is larger than nproc here")
    width = max(len(n) for n in res["metrics"])
    for name, m in res["metrics"].items():
        print(f"   {name:<{width}}  {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"   {'fail_ratio':<{width}}  {ratio:.6g} ratio ({res['failed']} of "
          f"{res['attempted']} units; {res['known']} more show only a known defect)")
    for line in res["notes"]:
        print(f"   {line}")
    for f in res["failures"]:
        tag = "known defect" if f["known"] else "UNEXPECTED"
        where = "probe" if f["unit"] is None else f"unit {f['unit']}"
        print(f"   FAIL [{tag}] {where}: {f['call']}: {f['message']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "resonance_lab" / "__init__.py").is_file():
        print(f"error: no resonance_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if "RESONANCE_LAB_THREADS" in os.environ:
        print("error: RESONANCE_LAB_THREADS is set; the benchmark measures the library "
              "defaults, so unset it", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    commit = _git_commit()
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = bench(name, args.seed, args.seconds, bool(args.trace), out_dir, deadline)
            res["env"]["commit"] = commit
            _print_result(res, args.seed)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
