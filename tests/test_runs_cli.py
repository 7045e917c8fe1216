"""CSV contracts, figure presets, CLI exit codes."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import resonance_lab
from resonance_lab import (
    FORMAT_STAMP,
    BesselEvalSpec,
    ClassifySpec,
    ConfigError,
    CsvDocument,
    DomainError,
    MissingInput,
    SurfacePoint,
    bessel_j,
    bessel_zero,
    delta_resonance,
    emit_plot_script,
    figure_jobs,
    hankel,
    lambert_w,
    run,
    run_figure,
)
from resonance_lab.cli import build_parser, main, parse_eps_grid
from resonance_lab.runs import DEEPENING_EPS, QUAD_EPS

J11 = bessel_zero(1, 1)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse_doc(text):
    """An emitted CSV read back: comment lines skipped, numeric cells as floats."""
    header, *lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = tuple(tuple(_cell(c) for c in ln.split(",")) for ln in lines)
    return CsvDocument(tuple(header.split(",")), rows)


def read_doc(path):
    return parse_doc(path.read_text(encoding="ascii"))


# ------------------------------------------------------------ CSV document


def test_csv_round_trip_precision():
    doc = CsvDocument(
        ("a", "b", "c"),
        (
            (math.pi, 0.1287651, -2.5e-7),
            (1e-300, -0.0, 367.3721339),
            (1.0 / 3.0, 5.841379586, -0.34784182),
        ),
    )
    back = parse_doc(doc.to_text())
    assert back.header == doc.header
    for row, orig in zip(back.rows, doc.rows):
        for got, want in zip(row, orig):
            assert got == pytest.approx(want, rel=5e-9, abs=1e-305)


def test_csv_folds_negative_zero():
    text = CsvDocument(("x",), ((-0.0,),)).to_text()
    assert "-0" not in text


def test_csv_stamp_and_line_endings(tmp_path):
    doc = CsvDocument(("x", "y"), ((1.5, 2.5),))
    path = doc.write(tmp_path / "t.csv")
    raw = path.read_bytes()
    assert raw.startswith(b"# resonance-lab v1\n")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert FORMAT_STAMP == "# resonance-lab v1"


def test_csv_rejects_ragged_rows():
    with pytest.raises(DomainError):
        CsvDocument(("a", "b"), ((1.0,),))


def test_csv_integers_stay_integers():
    text = CsvDocument(("k", "v"), ((3, 1.25),)).to_text()
    assert text.splitlines()[2] == "3,1.25"


# ------------------------------------------------------------- eps parsing


def test_parse_eps_grid_forms():
    assert parse_eps_grid("quad:15:0.0036") == QUAD_EPS
    assert len(QUAD_EPS) == 30
    assert parse_eps_grid("neg:2:25:0.1") == DEEPENING_EPS
    assert parse_eps_grid("0.04,0.09") == (0.04, 0.09)
    with pytest.raises(ConfigError):
        parse_eps_grid("1,abc")
    with pytest.raises(ConfigError):
        parse_eps_grid("quad:fifteen:0.0036")


# --------------------------------------------------------------- figures


def test_figure1_left_reproduces_node(tmp_path):
    rc = main(["--figure", "1", "--panel", "left", "--output", str(tmp_path)])
    assert rc == 0
    doc = read_doc(tmp_path / "figure1_left.csv")
    assert doc.header == (
        "epsilon",
        "re_guess",
        "im_guess",
        "re_exact",
        "im_exact",
        "residual",
        "class",
    )
    row = next(r for r in doc.rows if r[0] == pytest.approx(0.09, rel=1e-12))
    assert row[3] == pytest.approx(0.1119944, abs=1e-5)
    assert row[4] == pytest.approx(-0.0344571, abs=1e-5)
    assert row[6] == "resonance"


def test_figure2_deepening_grid(tmp_path):
    result = run_figure(2, output_dir=tmp_path)
    assert result.exit_code == 0
    doc = read_doc(tmp_path / "figure2.csv")
    assert len(doc.rows) == 24
    eps = [r[0] for r in doc.rows]
    assert eps[0] == pytest.approx(-0.2)
    assert eps[-1] == pytest.approx(-2.5)
    # every deepened point is an eigenvalue on the imaginary axis
    assert all(r[6] == "eigenvalue" for r in doc.rows)
    assert all(abs(r[3]) <= 1e-9 for r in doc.rows)


def test_figure_runs_are_deterministic(tmp_path):
    first = run_figure(1, panel="middle", output_dir=tmp_path / "one")
    second = run_figure(1, panel="middle", output_dir=tmp_path / "two")
    for p1, p2 in zip(first.paths, second.paths):
        assert p1.name == p2.name
        assert p1.read_bytes() == p2.read_bytes()


# the six presets' CSVs are perfbench/golden/'s byte for byte, `residual`
# included; their plot scripts, which golden does not hold, by SHA-256
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
PLOT_SHA256 = {
    "figure1.gp": "d3ed3d2aae1d84048896808db025a2a51c7312b612217d75f2a23b42ee7745ff",
    "figure2.gp": "b0deb3bba89ef125216fe9cee4c9e8e01655c07a2ec49891c145ed874ff97483",
    "figure3.gp": "74d8cc5332ceee5939d4c299f52953598a4aa51c8d5e1b22315aa12c76336e2e",
    "figure4.gp": "037a104c523ed51b6f713adf2fa7ef032dcead0ae51655eccbf564d4d5521818",
    "figure5.gp": "379f6441b948976f897c389cb9566ff1b949a2cd6c0225380ee693fc7675bf63",
    "figure6.gp": "a3df354e9b8797ace8706f86080911dea71c77de14fb234e3346539ebb91f3a3",
}


def test_presets_match_golden_hashes(tmp_path):
    for figure in range(1, 7):
        assert main(["--figure", str(figure), "--output", str(tmp_path)]) == 0
    csvs = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert len(csvs) == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(csvs + list(PLOT_SHA256))
    for name in csvs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PLOT_SHA256}
    assert got == PLOT_SHA256


def test_unknown_figure_and_panel(tmp_path):
    assert main(["--figure", "9", "--output", str(tmp_path)]) == 1
    assert main(["--figure", "3", "--panel", "top", "--output", str(tmp_path)]) == 1
    assert main(["--figure", "2", "--panel", "left", "--output", str(tmp_path)]) == 1


# -------------------------------------------------------------- plot files


def test_plot_script_references_figure1_csvs(tmp_path):
    result = run_figure(1, output_dir=tmp_path)
    script = next(p for p in result.paths if p.suffix == ".gp")
    text = script.read_text()
    for panel in ("left", "middle", "right"):
        assert f"figure1_{panel}.csv" in text


def test_plot_script_figure6_overlays(tmp_path):
    result = run_figure(6, output_dir=tmp_path)
    script = next(p for p in result.paths if p.suffix == ".gp")
    text = script.read_text()
    for col in ("res", "above", "below"):
        assert col in text
    assert "0.0017315" in text and "0.0344571" in text  # dashed overlays
    assert "dash" in text


def test_plot_script_missing_input(tmp_path):
    with pytest.raises(MissingInput):
        emit_plot_script([tmp_path / "absent.csv"], 1, tmp_path / "out.gp")


@pytest.mark.parametrize("figure_id", [0, 7, 1.0, True])
def test_plot_script_unknown_figure(tmp_path, figure_id):
    with pytest.raises(ConfigError, match=f"got {figure_id}"):
        emit_plot_script([], figure_id, tmp_path / "out.gp")
    assert not (tmp_path / "out.gp").exists()


@pytest.mark.parametrize("figure", [1.0, True])
def test_a_figure_number_is_one_integer(tmp_path, figure):
    # 1.0 and True equal the key 1, and named jobs "figure1.0_left" and "figureTrue_left"
    with pytest.raises(ConfigError, match=f"got {figure!r}"):
        figure_jobs(figure)
    with pytest.raises(ConfigError, match=f"got {figure!r}"):
        run_figure(figure, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------- subcommands


def test_track_exit_two_when_guess_leaves_basin(tmp_path):
    rc = main(
        [
            "track",
            "--l",
            "3",
            "--a0sq-from-zero",
            "2",
            "--eps-grid",
            "20",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == 2
    doc = read_doc(tmp_path / "track.csv")
    assert doc.rows[0][6] == "not-found"


def test_track_rejects_zero_eps(tmp_path, capsys):
    rc = main(
        [
            "track",
            "--l",
            "2",
            "--a0sq-from-zero",
            "1",
            "--eps-grid=-0.1,0,0.1",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "0" in err and "eps" in err


def test_phase_per_mode_columns(tmp_path):
    rc = main(
        [
            "phase",
            "--a0sq-from-zero",
            "1",
            "--eps",
            "0.09",
            "--lambda-max",
            "0.3",
            "--steps",
            "4",
            "--per-mode",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == 0
    doc = read_doc(tmp_path / "phase.csv")
    assert doc.header[:4] == ("lambda", "res", "above", "below")
    assert "res_l0" in doc.header and "res_l1" in doc.header
    assert len(doc.rows) == 4
    lams = [r[0] for r in doc.rows]
    assert lams == sorted(lams) and lams[-1] == pytest.approx(0.3)


def test_classify_rows(tmp_path):
    rc = main(
        ["classify", "--a", f"{J11:.12f}", "--lmax", "4", "--output", str(tmp_path)]
    )
    assert rc == 0
    doc = read_doc(tmp_path / "classify.csv")
    assert doc.header == ("mode", "kind")
    kinds = {int(r[0]): r[1] for r in doc.rows}
    assert kinds[0] == "s-resonance"
    assert kinds[2] == "zero-eigenvalue"
    assert kinds[1] == "none" and kinds[3] == "none"


def test_delta1d_outputs(tmp_path):
    rc = main(
        [
            "delta1d",
            "--a",
            "10",
            "--k-max",
            "3",
            "--lambda-max",
            "4.0",
            "--steps",
            "8",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == 0
    res_doc = read_doc(tmp_path / "delta1d_resonances.csv")
    assert res_doc.header == ("k", "re", "im")
    by_k = {int(r[0]): complex(r[1], r[2]) for r in res_doc.rows}
    assert sorted(by_k) == [1, 2, 3]
    assert by_k[1] == pytest.approx(delta_resonance(10.0, 1), rel=5e-9)
    phase_doc = read_doc(tmp_path / "delta1d_phase.csv")
    assert phase_doc.header == ("lambda", "sigma_prime", "bw_approx")
    assert len(phase_doc.rows) == 8
    # bw column includes the mirrored partners
    lam = phase_doc.rows[0][0]
    poles = [delta_resonance(10.0, k) for k in (1, 2, 3)]
    poles += [-p.conjugate() for p in poles]
    want = -1.0 / math.pi + sum(
        (-p.imag) / (math.pi * abs(lam - p) ** 2) for p in poles
    )
    assert phase_doc.rows[0][2] == pytest.approx(want, rel=5e-9)


def test_bessel_eval_row(tmp_path):
    rc = main(
        ["bessel-eval", "j", "2", "1.118033989", "0.463647609", "--output", str(tmp_path)]
    )
    assert rc == 0
    doc = read_doc(tmp_path / "bessel_eval.csv")
    row = doc.rows[0]
    cv = bessel_j(2, complex(1.0, 0.5))
    assert row[4] == pytest.approx(cv.value.real, rel=1e-8)
    assert row[5] == pytest.approx(cv.value.imag, rel=1e-8)


@pytest.mark.parametrize("kind", ["j", "y", "h1", "h2"])
def test_bessel_eval_on_the_range_bound_is_inside(kind, tmp_path):
    # exp(log 100) rounds to 100.00000000000004: every kind checks log|z| on the cover
    assert main(["bessel-eval", kind, "0", "100", "0", "--output", str(tmp_path)]) == 0
    row = read_doc(tmp_path / "bessel_eval.csv").rows[0]
    if kind == "j":
        assert row[4] == pytest.approx(bessel_j(0, 100.0).value.real, rel=1e-8)


@pytest.mark.parametrize("arg", ["4.0", "-4.0", "7.0"])
def test_bessel_eval_y_row_on_the_cover(arg, tmp_path):
    assert main(["bessel-eval", "y", "0", "1", arg, "--output", str(tmp_path)]) == 0
    row = read_doc(tmp_path / "bessel_eval.csv").rows[0]
    pt = SurfacePoint.from_polar(1.0, float(arg))
    want = (hankel(1, 0, pt).value - hankel(2, 0, pt).value) / 2j
    assert row[3] == float(arg)
    assert complex(row[4], row[5]) == pytest.approx(want, rel=1e-8)


def test_lambert_eval_row(tmp_path):
    rc = main(
        ["lambert-eval", "--output", str(tmp_path), "--", "-1", "-0.1", "0"]
    )
    assert rc == 0
    doc = read_doc(tmp_path / "lambert_eval.csv")
    row = doc.rows[0]
    w = lambert_w(-1, -0.1)
    assert row[3] == pytest.approx(w.real, rel=5e-9)
    assert row[5] <= 1e-12


def test_output_name_override(tmp_path):
    rc = main(
        [
            "track",
            "--l",
            "2",
            "--a0sq-from-zero",
            "1",
            "--eps-grid",
            "0.09",
            "--output",
            str(tmp_path),
            "--name",
            "custom",
        ]
    )
    assert rc == 0
    assert (tmp_path / "custom.csv").exists()


_TRACK = ["track", "--l", "2", "--a0sq-from-zero", "1"]
_PHASE = ["phase", "--a0sq-from-zero", "1", "--lambda-max", "0.3", "--steps", "4"]
_DELTA = ["delta1d", "--a", "10", "--k-max", "3"]
_CLASSIFY = ["classify", "--a", f"{J11:.12f}"]


def test_phase_from_a_lambda_min_runs_on_a_linear_grid(tmp_path):
    assert main(_PHASE + ["--eps", "0.09", "--lambda-min", "0.05", "--output", str(tmp_path)]) == 0
    lams = [row[0] for row in read_doc(tmp_path / "phase.csv").rows]
    assert len(lams) == 4 and lams[0] == 0.05 and lams[-1] == pytest.approx(0.3)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_TRACK + ["--eps-grid", "nan"], id="track-eps-nan"),
        pytest.param(_TRACK + ["--eps-grid", "inf"], id="track-eps-inf"),
        pytest.param(_TRACK + ["--eps-grid=-inf"], id="track-eps-minus-inf"),
        pytest.param(_TRACK + ["--eps-grid", "0.09", "--rho", "0"], id="track-rho-0"),
        pytest.param(_TRACK + ["--eps-grid", "0.09", "--rho", "nan"], id="track-rho-nan"),
        pytest.param(_TRACK + ["--eps-grid", "0.09", "--rho", "inf"], id="track-rho-inf"),
        pytest.param(_PHASE + ["--eps", "0.09", "--rho", "0"], id="phase-rho-0"),
        pytest.param(_PHASE + ["--eps", "0.09", "--rho", "nan"], id="phase-rho-nan"),
        pytest.param(_PHASE + ["--eps", "0.09", "--rho", "inf"], id="phase-rho-inf"),
        pytest.param(_CLASSIFY + ["--lmax", "4", "--rho", "0"], id="classify-rho-0"),
        pytest.param(_CLASSIFY + ["--lmax", "4", "--rho", "nan"], id="classify-rho-nan"),
        pytest.param(_CLASSIFY + ["--lmax", "4", "--rho", "inf"], id="classify-rho-inf"),
        pytest.param(
            _DELTA[:-1] + ["0", "--lambda-max", "4", "--steps", "8"], id="delta1d-kmax-0"
        ),
        pytest.param(["bessel-eval", "j", "0", "nan", "0"], id="bessel-abs-z-nan"),
        pytest.param(_PHASE + ["--eps=-0.09"], id="phase-eps-negative"),
        # --eps is one offset e > 0, not a list
        pytest.param(_PHASE + ["--eps", "0.09,0.1"], id="phase-eps-two-values"),
        pytest.param(_PHASE + ["--eps", "0,0.09,-0.1"], id="phase-eps-asymmetric"),
        pytest.param(
            _PHASE[:-1] + ["1", "--eps", "0.09"], id="phase-steps-1"
        ),
        pytest.param(
            _DELTA + ["--lambda-max", "4", "--steps", "1"], id="delta1d-steps-1"
        ),
        pytest.param(
            _PHASE + ["--eps", "0.09", "--lambda-min", "0.3"], id="phase-lambda-min-eq-max"
        ),
        pytest.param(
            _PHASE + ["--eps", "0.09", "--lambda-min", "0.5"], id="phase-lambda-min-gt-max"
        ),
        pytest.param(
            _DELTA + ["--lambda-min", "4", "--lambda-max", "4", "--steps", "8"],
            id="delta1d-lambda-min-eq-max",
        ),
        pytest.param(_CLASSIFY + ["--lmax", "1"], id="classify-lmax-1"),
        pytest.param(["--panel", "left"], id="panel-without-figure"),
        pytest.param([], id="no-subcommand"),
    ],
)
def test_config_errors_exit_one_without_output(argv, tmp_path, capsys):
    assert main(argv + ["--output", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
    assert "resonance-lab: error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # initial_guess raises StructureError: J_4(j_{1,1}) != 0
        pytest.param(
            ["track", "--l", "5", "--a0sq-from-zero", "1", "--eps-grid", "0.09"],
            id="track-no-zero-energy-structure",
        ),
        pytest.param(
            _DELTA + ["--lambda-max", "inf", "--steps", "8"], id="delta1d-lambda-max-inf"
        ),
        # SurfacePoint.from_polar and lambert_w reject non-finite input
        pytest.param(["bessel-eval", "j", "0", "1", "nan"], id="bessel-j-arg-nan"),
        pytest.param(["bessel-eval", "j", "0", "1", "inf"], id="bessel-j-arg-inf"),
        pytest.param(["bessel-eval", "h1", "0", "1", "nan"], id="bessel-h1-arg-nan"),
        pytest.param(["bessel-eval", "h2", "0", "1", "inf"], id="bessel-h2-arg-inf"),
        # below the smallest normal float: e^w underflows on the cover, and
        # the derivative's n/z overflows
        pytest.param(["bessel-eval", "h1", "0", "1e-320", "0"], id="bessel-h1-subnormal"),
        pytest.param(["bessel-eval", "j", "3", "1e-320", "0"], id="bessel-j-subnormal"),
        # inside the validated range, but Y_80(0.001) overflows a float
        pytest.param(["bessel-eval", "h1", "80", "0.001", "0.3"], id="bessel-h1-overflow"),
        # a phase past MAX_ABS_PHASE = 2^20, whose reduction by m pi is not accurate
        pytest.param(["bessel-eval", "h1", "0", "1", "1e17"], id="bessel-h1-phase-past-the-bound"),
        pytest.param(["bessel-eval", "y", "0", "1", "-1048577"], id="bessel-y-phase-past-the-bound"),
        pytest.param(["bessel-eval", "j", "0", "1", "1e17"], id="bessel-j-phase-past-the-bound"),
        # sigma''s sin^2-multiplied form underflows to 0 / 0 at lambda = 1e-200
        pytest.param(
            _DELTA[:-1] + ["1", "--lambda-min", "1e-200", "--lambda-max", "1", "--steps", "2"],
            id="delta1d-lambda-underflows",
        ),
        # scipy takes a branch index that fits a C long alone
        pytest.param(["lambert-eval", "100000000000000000000", "1", "0"], id="lambert-branch-too-large"),
        pytest.param(
            ["track", "--l", "1", "--a0sq-from-zero", "0", "--eps-grid", "0.09", "--branch", "100000000000000000000"],
            id="track-branch-too-large",
        ),
        pytest.param(["lambert-eval", "0", "nan", "0"], id="lambert-re-nan"),
        pytest.param(["lambert-eval", "1", "0", "nan"], id="lambert-im-nan"),
        pytest.param(["lambert-eval", "--", "-1", "inf", "0"], id="lambert-re-inf"),
    ],
)
def test_library_rejections_exit_one_without_output(argv, tmp_path, capsys):
    assert main(["--output", str(tmp_path)] + argv) == 1
    assert list(tmp_path.iterdir()) == []
    assert "resonance-lab: error:" in capsys.readouterr().err


def test_specs_run_through_the_python_api(tmp_path):
    result = run(ClassifySpec(a=J11, l_max=4), tmp_path, "named")
    assert result.exit_code == 0
    assert result.paths == (tmp_path / "named.csv",)
    assert main(["classify", "--a", f"{J11:.12f}", "--lmax", "4", "--output", str(tmp_path)]) == 0
    assert (tmp_path / "classify.csv").read_bytes() == result.paths[0].read_bytes()
    for rejected in (ClassifySpec(a=J11, l_max=1), BesselEvalSpec("x", 0, 1.0, 0.0)):
        with pytest.raises(ConfigError):
            run(rejected, tmp_path, "rejected")
    jobs = figure_jobs(1)
    assert [name for name, _ in jobs] == ["figure1_left", "figure1_middle", "figure1_right"]
    assert figure_jobs(2, None)[0][0] == "figure2"
    assert figure_jobs(np.int64(4))[0][0] == "figure4"


def test_public_names_resolve():
    names = resonance_lab.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(resonance_lab, n)] == []


@pytest.mark.parametrize(
    "argv, left_out",
    [
        (_TRACK + ["--eps-grid", "0.09"], {"rho", "branch"}),
        (_PHASE + ["--eps", "0.09"], {"rho", "lambda_min", "per_mode"}),
        (_CLASSIFY + ["--lmax", "4"], {"rho"}),
        (_DELTA + ["--lambda-max", "4", "--steps", "8"], {"lambda_min"}),
    ],
    ids=["track", "phase", "classify", "delta1d"],
)
def test_a_flag_left_out_takes_its_spec_field_default(argv, left_out):
    # the parser states no default of its own, so the dataclass field is its one source
    assert not left_out & set(vars(build_parser().parse_args(argv)))


def test_malformed_flags_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["track", "--l", "two"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--format-version", "1"])
    assert exc.value.code == 1


def test_figure_and_subcommand_conflict(tmp_path):
    rc = main(
        [
            "--figure",
            "2",
            "track",
            "--l",
            "2",
            "--a0sq-from-zero",
            "1",
            "--eps-grid",
            "0.09",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == 1
