import dataclasses
import json
import os
import subprocess
import sys

import pytest

import rauzygasket
from rauzygasket.cli import main
from rauzygasket.measures import TailCurve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_step_single_iteration(capsys):
    code, out = run_cli(capsys, "step", "3/5", "1/4", "3/20", "--iters", "1")
    assert code == 0
    doc = json.loads(out)
    rec = doc["trace"][0]
    assert rec["winner"] == 1
    assert rec["lengths"] == ["1/3", "5/12", "1/4"]
    assert rec["order"] == [2, 1, 3]
    assert rec["matrix"] == [[1, 1, 1], [1, 0, 0], [0, 0, 1]]


def test_step_hole_is_result_not_failure(capsys):
    code, out = run_cli(capsys, "step", "2/5", "7/20", "1/4")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"][0]["outcome"] == "hole"


def test_step_tie_is_bad_input(capsys):
    code, _ = run_cli(capsys, "step", "1/3", "1/3", "1/3")
    assert code == 2


def test_step_rejects_decimals(capsys, caplog):
    code, _ = run_cli(capsys, "step", "0.6", "0.25", "0.15")
    assert code == 2
    # a zero denominator is bad input too, not an invariant violation
    code, out = run_cli(capsys, "step", "1/0", "1/2", "1/2")
    assert (code, out) == (2, "")
    assert "1/0" in caplog.text
    # int() reads "1_0" as 10; a length takes only a sign and ASCII digits
    code, out = run_cli(capsys, "step", "1_0/20", "3/10", "1/5")
    assert (code, out) == (2, "")


def test_step_accelerated(capsys):
    code, out = run_cli(
        capsys, "step", "7/10", "9/50", "3/25", "--accelerated", "--iters", "1"
    )
    assert code == 0
    rec = json.loads(out)["trace"][0]
    assert rec["n"] == 2
    assert rec["lengths"] == ["1/4", "9/20", "3/10"]


STAY_RECORD = {"iteration": 1, "outcome": "continue", "winner": 1, "n": 1,
               "matrix": [[1, 1, 1], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize("lengths, flags, trace", [
    (("2/5", "7/20", "1/4"), (), [{"iteration": 1, "outcome": "hole"}]),
    (("2/5", "7/20", "1/4"), ("--accelerated",),
     [{"iteration": 1, "outcome": "hole", "substeps": 0}]),
    (("63/100", "1/5", "17/100"), (),
     [{**STAY_RECORD, "lengths": ["26/63", "20/63", "17/63"], "order": [1, 2, 3]},
      {"iteration": 2, "outcome": "hole"}]),
    (("63/100", "1/5", "17/100"), ("--accelerated",),
     [{"iteration": 1, "outcome": "hole", "substeps": 1}]),
    (("1/2", "3/10", "1/5"), (), [{"iteration": 1, "outcome": "tie"}]),
    (("1/2", "3/10", "1/5"), ("--accelerated",), [{"iteration": 1, "outcome": "tie"}]),
    (("2/3", "2/9", "1/9"), (),
     [{**STAY_RECORD, "lengths": ["1/2", "1/3", "1/6"], "order": [1, 2, 3]},
      {"iteration": 2, "outcome": "tie"}]),
    (("2/3", "2/9", "1/9"), ("--accelerated",), [{"iteration": 1, "outcome": "tie"}]),
])
def test_step_hole_and_tie_records(capsys, lengths, flags, trace):
    code, out = run_cli(capsys, "step", *lengths, "--iters", "5", *flags)
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"] == trace
    # the key order is part of the output
    assert [list(rec) for rec in doc["trace"]] == [list(rec) for rec in trace]


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "3/5", "1/4", "3/20", "--iters", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == {"outcome": "hole", "iteration": 2}


def test_graph_json(capsys):
    code, out = run_cli(capsys, "graph", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is True
    edges = {(e["from"], e["to"]) for e in doc["edges"]}
    assert ("123", "213") in edges
    assert ("123", "321") not in edges
    assert ("123", "hole") in edges


def test_graph_dot(capsys):
    code, out = run_cli(capsys, "graph", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"123" -> "213"' in out


def test_cylinders_jsonl(capsys):
    code, out = run_cli(capsys, "cylinders", "--depth", "1", "--ncap", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 4
    records = [json.loads(line) for line in lines[1:]]
    from fractions import Fraction

    total = sum(Fraction(r["measure"]) for r in records)
    assert total == 1
    assert all(set(r) >= {"path", "measure", "survives"} for r in records)


@pytest.mark.parametrize(
    "budget", [("--depth", "0"), ("--ncap", "0"), ("--ncap", "-3")]
)
def test_cylinders_bad_budget_rejected_before_output(capsys, budget):
    code, out = run_cli(capsys, "cylinders", *budget)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv", [("cylinders", "--depth", "1", "--ncap", "2"), ("dimension",)]
)
def test_negative_floor_rejected_before_output(capsys, caplog, argv):
    code, out = run_cli(capsys, *argv, "--floor=-1/2")
    assert code == 2
    assert out == ""
    assert "-1/2" in caplog.text


def test_verify_partition(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "partition")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"][0]["sum"] == "1/1"


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


@pytest.mark.parametrize(
    "suite,samples",
    [
        ("lemma2", None),
        ("lemma3", 2000),
        ("kerckhoff", 20000),
        ("roof-jacobian", 500),
        ("balance", 20000),
    ],
)
def test_verify_suites_pass_at_reduced_budgets(capsys, suite, samples):
    argv = ["verify", "--suite", suite, "--seed", "11"]
    if samples:
        argv += ["--samples", str(samples)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_verify_balance_csv(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "balance", "--samples", "5000",
        "--seed", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "C"
    assert len(lines) > 3


def test_tail_csv(capsys):
    code, out = run_cli(
        capsys, "tail", "--samples", "2000", "--seed", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "T,probability"
    assert len(lines) > 4


def test_tail_json_echoes_seed(capsys):
    code, out = run_cli(capsys, "tail", "--samples", "2000", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["seed"] == 9
    assert doc["fitted_exponent"] > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_tail_without_fit_is_strict_json(capsys):
    # no return reaches these thresholds, so no fit is made
    code, out = run_cli(capsys, "tail", "--samples", "500", "--t-grid", "1e9,1e10")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["fit_points"] == 0
    assert doc["fitted_exponent"] is None
    assert doc["fit_residual"] is None
    # the unfitted report keeps every key, in field order
    assert list(doc) == [f.name for f in dataclasses.fields(TailCurve)] + ["provenance"]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "balance", "--samples", "-5"),
    ("verify", "--suite", "lemma3", "--samples", "-5"),
    ("verify", "--suite", "kerckhoff", "--samples", "-5"),
    ("tail", "--samples", "0"),
    ("distortion", "--samples", "-5"),
    ("tail", "--samples", "100", "--cap", "0"),
    ("tail", "--samples", "100", "--workers", "-3"),
    ("dimension", "--workers", "0"),
    ("render", "--out", "never.pgm", "--workers", "0"),
    ("points", "--out", "never.csv", "--workers", "-1"),
    ("distortion", "--workers", "0"),
    ("verify", "--suite", "partition", "--workers", "0"),
    ("step", "1/2", "1/3", "1/6", "--iters", "0"),
    ("classify", "1/2", "1/3", "1/6", "--iters", "-4"),
    ("dimension", "--points", "0", "--depth", "14"),
    ("render", "--out", "never.pgm", "--points", "-1"),
    ("points", "--out", "never.csv", "--points", "0"),
    ("dimension", "--seed", "-1", "--depth", "14"),
    ("render", "--out", "never.pgm", "--seed", "-1"),
    ("tail", "--samples", "100", "--seed", "-2"),
    ("verify", "--suite", "partition", "--seed", "-1"),
])
def test_samples_below_one_rejected_before_work(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("must be >= 0" if "--seed" in argv else "must be >= 1") in captured.err


@pytest.mark.parametrize("argv", [
    ("dimension", "--depth", "14"),
    ("render", "--out", "never.pgm"),
    ("points", "--out", "never.csv"),
    ("tail", "--samples", "100"),
])
def test_negative_seed_env_rejected_before_work(capsys, caplog, monkeypatch, argv):
    import rauzygasket.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a bad RAUZY_SEED must be rejected before any work")

    for name in ("dimension_report", "chaos_game", "roof_tail"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setenv("RAUZY_SEED", "-1")
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "RAUZY_SEED must be >= 0, got -1" in caplog.text
    for value in ("abc", "1.5", "1e3"):
        caplog.clear()
        monkeypatch.setenv("RAUZY_SEED", value)
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"RAUZY_SEED must be an integer >= 0, got '{value}'" in caplog.text


def test_tail_draw_cap_exits_budget(capsys):
    code, out = run_cli(
        capsys, "tail", "--loop", "cccss", "--samples", "2000", "--seed", "3"
    )
    assert code == 3
    doc = json.loads(out)
    assert 0 < doc["samples"] < 2000


def test_tail_bad_threshold_rejected_before_drawing(capsys, caplog, monkeypatch):
    import rauzygasket.measures as measures

    def never(*args, **kwargs):
        raise AssertionError("a bad threshold must be rejected before drawing")

    monkeypatch.setattr(measures, "sample_section", never)
    for grid in ("-1,2", "0,2", "2,inf", "nan"):
        code, out = run_cli(capsys, "tail", "--samples", "100", f"--t-grid={grid}")
        assert code == 2 and out == ""
    assert "threshold -1.0 " in caplog.text and "threshold nan " in caplog.text


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RAUZY_SEED", "123")
    code, out = run_cli(capsys, "tail", "--samples", "1500")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 123


def test_render_deterministic(tmp_path, capsys):
    # 300,000 points give two chaos-game tiles and ten raster blocks, so
    # the helper thread and the raster threads both run at --workers 2
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    for path, workers in ((out1, "1"), (out2, "2")):
        code, _ = run_cli(
            capsys,
            "render",
            "--points", "300000",
            "--seed", "4",
            "--size", "128x128",
            "--workers", workers,
            "--out", str(path),
        )
        assert code == 0
    data1, data2 = out1.read_bytes(), out2.read_bytes()
    assert data1 == data2
    assert data1.startswith(b"P5\n")


def test_render_single_point(tmp_path, capsys):
    out = tmp_path / "one.pgm"
    code, msg = run_cli(
        capsys, "render", "--points", "1", "--seed", "0", "--size", "64x64",
        "--out", str(out),
    )
    assert code == 0
    assert json.loads(msg)["occupied_pixels"] == 1


def test_render_bad_size(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "render", "--points", "10", "--size", "16x16",
        "--out", str(tmp_path / "x.pgm"),
    )
    assert code == 2


def test_render_size_above_limit_rejected(tmp_path, capsys, caplog, monkeypatch):
    import rauzygasket.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an oversized render must not reach the chaos game")

    monkeypatch.setattr(cli, "chaos_game", never)
    side = cli.RENDER_MAX_SIDE
    for size in ("100000x100000", f"{side + 1}x64", f"64x{side + 1}"):
        out = tmp_path / "x.pgm"
        code, stdout = run_cli(
            capsys, "render", "--points", "10", "--size", size, "--out", str(out),
        )
        assert code == 2 and stdout == "" and not out.exists()
    assert f"at most {side}x{side}" in caplog.text


def test_render_size_at_limit_accepted(tmp_path, capsys):
    from rauzygasket.cli import RENDER_MAX_SIDE

    out = tmp_path / "wide.pgm"
    code, _ = run_cli(
        capsys, "render", "--points", "1", "--size", f"{RENDER_MAX_SIDE}x64", "--out", str(out),
    )
    assert code == 0
    header = f"{RENDER_MAX_SIDE} 64\n255\n".encode()
    data = out.read_bytes()
    assert header in data
    assert len(data) == data.index(header) + len(header) + RENDER_MAX_SIDE * 64


def test_render_io_error(capsys, caplog, monkeypatch):
    import rauzygasket.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an unwritable --out must fail before the chaos game")

    monkeypatch.setattr(cli, "chaos_game", never)
    for argv in (["render", "--size", "64x64"], ["points", "--format", "csv"],
                 ["points", "--format", "bin"]):
        code, out = run_cli(capsys, *argv, "--points", "10", "--out", "/nonexistent-dir/x.pgm")
        assert (code, out) == (4, "")
    assert caplog.text.count("/nonexistent-dir/x.pgm") == 3


def test_points_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, _ = run_cli(
        capsys, "points", "--points", "100", "--seed", "2", "--format", "csv",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "seed=2" in lines[0]
    assert lines[1] == "a,b"
    assert len(lines) == 102


def test_points_binary_magic(tmp_path, capsys):
    out = tmp_path / "cloud.bin"
    code, _ = run_cli(
        capsys, "points", "--points", "64", "--seed", "2", "--format", "bin",
        "--out", str(out),
    )
    assert code == 0
    raw = out.read_bytes()
    assert raw[:8] == b"RGPTS001"
    assert len(raw) == 8 + 64 * 16


def test_dimension_small_budget(capsys):
    code, out = run_cli(
        capsys,
        "dimension",
        "--depth", "5",
        "--acc-depth", "1",
        "--points", "200000",
        "--seed", "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ad_bound"] < 2
    assert doc["survivor_depth1"] == ["3/4", "3/4"]


def test_dimension_bracket_too_wide_exit_code(capsys):
    code, _ = run_cli(
        capsys, "dimension", "--depth", "8", "--floor", "1/20",
        "--points", "100000", "--seed", "1",
    )
    assert code == 3


def test_dimension_degenerate_cloud_exit_code():
    # two chaos-game points in one box of the coarsest grid: one ERROR
    # line and the budget exit code, not a traceback
    proc = run_cli_process("dimension", "--points", "2", "--seed", "139", "--depth", "3",
                           "--acc-depth", "1", "--ncap", "8")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "ERROR cloud spans fewer than 2 boxes at the coarsest size"]


def test_distortion_command(capsys):
    code, out = run_cli(capsys, "distortion", "--samples", "4000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["worst_distortion_ratio"] <= 36.0


def run_cli_process(*argv):
    """The CLI in a child process, so its logging set-up is its own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rauzygasket.__file__)))
    script = "import sys; from rauzygasket.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_verbose_dimension_logs_one_json_line_per_stage():
    argv = ["dimension", "--depth", "4", "--acc-depth", "1", "--ncap", "16", "--points", "20000"]
    quiet, loud = run_cli_process(*argv), run_cli_process("-v", *argv)
    assert quiet.returncode == loud.returncode == 0
    lines = [json.loads(line[len("DEBUG "):]) for line in loud.stderr.splitlines()
             if line.startswith("DEBUG {")]
    assert [line["stage"] for line in lines] == ["delta", "alpha1", "chaos_game", "box_counting"]
    assert "DEBUG" not in quiet.stderr
    report = json.loads(loud.stdout)
    counters = {}
    for line in lines:
        assert line.pop("wall_s") == report["timings"][line.pop("stage") + "_s"]
        counters.update(line)
    assert counters == report["counters"]
    # stdout differs only in the timings and the recorded flag
    expected = json.loads(quiet.stdout)
    for doc in (report, expected):
        doc.pop("timings")
        doc["provenance"]["flags"].pop("verbose")
    assert report == expected


def test_verbose_render_logs_one_json_line_per_stage(tmp_path):
    argv = ["render", "--points", "20000", "--size", "64x64", "--workers", "2",
            "--out", str(tmp_path / "x.pgm")]
    quiet, loud = run_cli_process(*argv), run_cli_process("-v", *argv)
    assert quiet.returncode == loud.returncode == 0
    lines = [json.loads(line[len("DEBUG "):]) for line in loud.stderr.splitlines()
             if line.startswith("DEBUG {")]
    assert [(line["stage"], line["workers"]) for line in lines] == [
        ("chaos_game", 2), ("rasterize", 2), ("write", 1)]
    assert all(set(line) == {"stage", "wall_s", "workers"} and line["wall_s"] >= 0
               for line in lines)
    assert "DEBUG" not in quiet.stderr
    # stdout differs only in the recorded flag
    docs = [json.loads(run.stdout) for run in (quiet, loud)]
    assert docs[1]["provenance"]["flags"].pop("verbose") == "True"
    assert docs[0]["provenance"]["flags"].pop("verbose") == "False"
    assert docs[0] == docs[1]


@pytest.mark.parametrize("argv, code", [
    (["tail", "--samples", "20000", "--workers", "2", "--seed", "4"], 0),
    (["tail", "--loop", "cccss", "--samples", "300"], 3),  # stops at the draw cap
])
def test_verbose_tail_logs_one_json_line_per_round_and_fit(argv, code):
    quiet, loud = run_cli_process(*argv), run_cli_process("-v", *argv)
    assert quiet.returncode == loud.returncode == code
    assert "DEBUG" not in quiet.stderr
    lines = [json.loads(line[len("DEBUG "):]) for line in loud.stderr.splitlines()
             if not line.startswith("ERROR draw cap reached")]
    *rounds, fit = lines
    assert [line.pop("stage") for line in lines] == ["draw"] * len(rounds) + ["fit"]
    assert [line["round"] for line in rounds] == list(range(len(rounds)))
    assert all(line["wall_s"] >= 0 for line in lines)
    report = json.loads(loud.stdout)
    last = rounds[-1]
    assert (last["drawn"], last["returns"], last["lost"]) == (
        report["drawn"], report["samples"], report["no_return"])
    assert {k: fit[k] for k in ("fit_points", "fit_t_min", "fit_t_max")} == {
        k: report[k] for k in ("fit_points", "fit_t_min", "fit_t_max")}
    # stdout differs only in the recorded flag
    expected = json.loads(quiet.stdout)
    for doc in (report, expected):
        doc["provenance"]["flags"].pop("verbose")
    assert report == expected
