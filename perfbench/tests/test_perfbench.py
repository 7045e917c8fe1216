"""Self-tests of the benchmark: seeded inputs, metric names, tracer, oracles.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import resonance_lab  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from resonance_lab import finder, phase  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _plain(deck):
    return repr([{k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in u.items()}
                 for u in deck])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deck_is_a_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert _plain(wl.deck(7)) == _plain(wl.deck(7))
    assert _plain(wl.deck(7)) != _plain(wl.deck(8))
    assert len(wl.deck(7)) % wl.block == 0


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "resonance_lab" or name.startswith("resonance_lab."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out["PhaseTable.build"] = vars(phase.PhaseTable)["build"]
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from resonance_lab import well

        assert well.char_q is not before[("resonance_lab.well", "char_q")]
        assert well.hankel is not before[("resonance_lab.well", "hankel")]
        assert finder.char_q is not before[("resonance_lab.finder", "char_q")]
        assert vars(phase.PhaseTable)["build"] is not before["PhaseTable.build"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _small_units():
    return [
        (workloads.WORKLOADS["track-sweep"], workloads._track_spec(1, -1, 1, 1.0, 4, 0.3)),
        (workloads.WORKLOADS["phase-table"],
         workloads._phase_spec(random.Random(1), "p-resonance", workloads._J01, 0.3, 20, True)),
        (workloads.WORKLOADS["zero-census"], workloads._scan_spec(0.0, -1.0, 1.0, 0.3)),
    ]


def _traced_counts(tmp_path):
    tracer = tracing.Tracer()
    for wl, spec in _small_units():
        tracer.install()
        try:
            wl.run(spec, tmp_path)
            wl.probes([spec])  # sigma on the p-resonance well raises; its calls count
        finally:
            tracer.uninstall()
    metrics, _ = tracer.metrics()
    units = {n: u for n, u, _ in tracing.PER_LAYER}
    return {k: v for k, v in metrics.items() if units[k] in ("count", "bytes", "ratio")
            and k != "finder.track.busy_over_wall"}


def test_traced_counts_repeat(tmp_path):
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert first == second
    assert first["well.char_q.calls"] > 0 and first["phase.scattering_phase.errors"] == 1


def test_q_residual_certifies_a_root_and_rejects_a_neighbour():
    family = resonance_lab.CouplingFamily(workloads._J01 / 1.2, 1.2)
    trk = finder.track(1, family, [-0.04, 0.04], finder.GuessKind.persist_lw(-2))
    for rec in trk.records:
        a = math.sqrt(family.a0**2 - rec.epsilon)
        w = rec.refined.log_value
        assert oracles.q_residual(1, w, a, 1.2) < 1e-9
        assert oracles.q_residual(1, w + 1e-5, a, 1.2) > 1e-7


def _fd_phase_derivative(ell, lam, a, h=1e-6):
    # S_ell from real J/Y at lam +- h, as in the test suite's oracle
    def s_matrix(x):
        a_, _, b_, _ = oracles._ab(ell, np.array([x]), a, 1.0)
        return -(a_[0] - 1j * b_[0]) / (a_[0] + 1j * b_[0])

    return cmath.phase(s_matrix(lam + h) / s_matrix(lam - h)) / (4.0 * math.pi * h)


@pytest.mark.parametrize("lam", [0.05, 0.7, 3.9])
def test_phase_derivative_matches_finite_differences(lam):
    a = 2.9
    for ell in range(3):
        exact = float(oracles.phase_derivative(ell, lam, a, 1.0))
        assert exact == pytest.approx(_fd_phase_derivative(ell, lam, a), rel=1e-6, abs=1e-12)


def test_mode0_axis_zero_matches_the_refined_eigenvalue():
    family = resonance_lab.CouplingFamily(workloads._J11, 1.0)
    rec = finder.track(0, family, [-1.0], finder.GuessKind.disappearing0()).records[0]
    zeros = oracles.mode0_axis_zeros(family.well(-1.0).a, 1.0, 0.5)
    assert zeros == [pytest.approx(rec.refined.value.imag, rel=1e-9)]
    assert oracles.mode0_axis_zeros(family.well(1.0).a, 1.0, 0.5) == []


def test_csv_comparison_lets_only_residual_move():
    golden = (workloads.GOLDEN / "figure1_left.csv").read_text()
    lines = golden.splitlines()
    row = lines[2].split(",")

    def moved():
        return "\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n"

    row[5] = "2e-16"
    assert workloads._compare_csv("f.csv", moved(), golden) is None
    row[3] = "1.0"
    assert "column re_exact" in workloads._compare_csv("f.csv", moved(), golden)


def test_a_missed_zero_the_grid_resolves_is_not_a_known_defect():
    wl = workloads.WORKLOADS["zero-census"]
    spec = workloads._scan_spec(1.0, -1.2, 1.0, 0.3)
    out = wl.run(spec, None)
    assert out.found_zero and wl.check(spec, out) == []
    found = wl.check(spec, dataclasses.replace(out, found_zero=False))
    assert found and not any(f.known for f in found)


def test_a_unit_that_differs_from_its_checked_output_fails():
    checks = {0: {"digest": "a", "call": "f()", "failures": []},
              1: {"digest": "b", "call": "g()",
                  "failures": [{"message": "known", "known": True}]}}
    units = [[0, 0.1, 0.1, "a"], [1, 0.1, 0.1, "b"], [0, 0.1, 0.1, "c"]]
    tally = run._tally(units, checks, [])
    assert (tally["attempted"], tally["failed"], tally["known"]) == (3, 1, 1)
    assert not tally["correct"]


def test_the_p_resonance_sigma_is_probed_as_a_known_defect():
    wl = workloads.WORKLOADS["phase-table"]
    deck = wl.deck(3)
    left_out = [spec for spec in deck if not spec["sigma"]]
    assert left_out and all(spec["well"] == "p-resonance" for spec in left_out)
    found = wl.probes(deck)
    assert len(found) == len(left_out) and all(f.known for _, f in found)
    probes = [{"call": call, "message": f.message, "known": f.known} for call, f in found]
    assert run._tally([], {}, probes)["correct"]
    probes[0]["known"] = False
    assert not run._tally([], {}, probes)["correct"]


def test_times_are_scaled_by_their_references():
    bursts = [(0.001 * (k + 1), 0.002 * (k + 1)) for k in range(10)]
    units = [[0, 0.5, 0.5, "a"] for _ in range(9)]
    worker._with_reference(units, bursts)
    # unit 4 ran between bursts 4 and 5; the window is bursts 2..7
    assert units[4][4:] == [pytest.approx(0.0055), pytest.approx(0.011)]
    assert units[0][4:] == units[1][4:] == [pytest.approx(0.0035), pytest.approx(0.007)]
    assert units[8][4:] == [pytest.approx(0.0075), pytest.approx(0.015)]
    unit = [0, 0.1, 0.05, "a", 0.1, 0.1]
    timed = [{"units": [unit] * 10, "import_s": 0.5, "warmup_s": 0.5, "peak_rss_mb": 80.0,
              "reference_import_s": 0.5}]
    metrics, _ = run._end_to_end(timed)
    assert metrics["unit_ms.p50"] == pytest.approx(run.BURST_REF_S * 1e3)
    assert metrics["cpu_ms_per_unit"] == pytest.approx(run.BURST_REF_S * 0.5e3)
    assert metrics["setup_s"] == pytest.approx(run.REFERENCE_IMPORT_S * 2)


def test_refuses_a_thread_override(monkeypatch):
    monkeypatch.setenv("RESONANCE_LAB_THREADS", "1")
    assert run.main(["--workload", "track-sweep"]) == 2


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
