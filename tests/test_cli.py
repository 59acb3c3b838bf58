import json

import pytest

from rauzygasket.cli import main


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


def test_step_rejects_decimals(capsys):
    code, _ = run_cli(capsys, "step", "0.6", "0.25", "0.15")
    assert code == 2


def test_step_accelerated(capsys):
    code, out = run_cli(
        capsys, "step", "7/10", "9/50", "3/25", "--accelerated", "--iters", "1"
    )
    assert code == 0
    rec = json.loads(out)["trace"][0]
    assert rec["n"] == 2
    assert rec["lengths"] == ["1/4", "9/20", "3/10"]


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


def test_tail_draw_cap_exits_budget(capsys):
    code, out = run_cli(
        capsys, "tail", "--loop", "cccss", "--samples", "2000", "--seed", "3"
    )
    assert code == 3
    doc = json.loads(out)
    assert 0 < doc["samples"] < 2000


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("RAUZY_SEED", "123")
    code, out = run_cli(capsys, "tail", "--samples", "1500")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 123


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    for path in (out1, out2):
        code, _ = run_cli(
            capsys,
            "render",
            "--points", "20000",
            "--seed", "4",
            "--size", "128x128",
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


def test_render_io_error(capsys):
    code, _ = run_cli(
        capsys, "render", "--points", "10", "--size", "64x64",
        "--out", "/nonexistent-dir/x.pgm",
    )
    assert code == 4


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


def test_distortion_command(capsys):
    code, out = run_cli(capsys, "distortion", "--samples", "4000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["worst_distortion_ratio"] <= 36.0
