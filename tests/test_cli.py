import io
import json
import math
from contextlib import redirect_stdout

import pytest

from gaussapprox.cli import SUBCOMMANDS, main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_bound_subcommand_value():
    code, out = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "0,1,2", "--n", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["subcommand"] == "bound"
    assert report["results"]["bound_report"]["bound"] == pytest.approx(
        2.0 * math.sqrt(2.0) / 10.0, abs=1e-10
    )
    assert report["config"]["times"] == [0.0, 1.0, 2.0]


def test_times_leading_zero_optional():
    _, out_a = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "1,2", "--n", "50"])
    _, out_b = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "0,1,2", "--n", "50"])
    assert out_a == out_b


def test_hypothesis_violation_exit_code():
    code, out = run_cli(["bound", "--H", "0.9", "--q", "2", "--times", "0,1", "--n", "50"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "HypothesisViolation"
    assert "1 - 1/(2q)" in err["message"]


def test_non_pd_matrix_exit_code():
    code, out = run_cli([
        "gaussian-pair", "--C", "[[1.0, 2.0], [2.0, 1.0]]", "--K", "[[1.0, 0.0], [0.0, 1.0]]",
    ])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "NotPositiveDefinite"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--H", "0.5", "--q", "2", "--n", "10", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bound", "--H", "0.5", "--q", "2", "--n", "10", "--seed", "1"],
    ["rates", "--H", "0.5", "--q", "2", "--n", "10,20", "--quad-unodes", "8"],
    ["simulate", "--H", "0.5", "--q", "2", "--n", "10", "--C", "[[1.0]]"],
    ["simulate", "--H", "0.5", "--q", "2", "--n", "10", "--matrix-file", "m.json"],
    ["malliavin", "--H", "0.5", "--q", "2", "--n", "10", "--mc-inner", "4"],
    ["gaussian-pair", "--C", "[[1.0]]", "--K", "[[1.0]]", "--quad-gh-order", "4"],
    ["gaussian-pair", "--C", "[[1.0]]", "--K", "[[1.0]]", "--seed", "1"],
], ids=["bound-seed", "rates-quad", "simulate-C", "simulate-matrix-file", "malliavin-mc-inner",
        "gaussian-pair-quad", "gaussian-pair-seed"])
def test_flag_not_read_by_subcommand_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


MINIMAL_ARGV = {
    "bound": ["--H", "0.5", "--q", "2", "--n", "10"],
    "rates": ["--H", "0.5", "--q", "2", "--n", "10,20"],
    "simulate": ["--H", "0.5", "--q", "2", "--n", "10"],
    "malliavin": ["--H", "0.5", "--q", "2", "--n", "10"],
    "stein-check": [],
    "chatterjee": ["--K", "[[1.0]]"],
    "gaussian-pair": ["--C", "[[1.0]]", "--K", "[[1.0]]"],
}


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_nonpositive_threads_exit_2(subcommand, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *MINIMAL_ARGV[subcommand], "--threads", threads])
    assert exc.value.code == 2
    assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err


def test_nonpositive_grid_steps_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stein-check", "--grid-steps", "0"])
    assert exc.value.code == 2
    assert "argument --grid-steps: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["[[Infinity, 0], [0, 1]]", "[[1, Infinity], [Infinity, 1]]",
                               "[[NaN, 0], [0, 1]]"])
def test_non_finite_matrix_exit_code(c):
    code, out = run_cli(["gaussian-pair", "--C", c, "--K", "[[1, 0], [0, 1]]"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "non-finite" in err["message"]


def test_config_error_exit_code():
    code, out = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "0,2,1", "--n", "50"])
    assert code == 2
    assert "error" in json.loads(out)

    code, out = run_cli(["simulate", "--H", "0.5", "--q", "2", "--times", "0,1",
                         "--n", "16", "--m", "1"])
    assert code == 2

    code, out = run_cli(["gaussian-pair", "--C", '{"dim": 1}', "--K", "[[1.0]]"])
    assert code == 2


def test_parser_covers_declared_subcommands():
    from gaussapprox.cli import SUBCOMMANDS, build_parser

    sub = build_parser()._subparsers._group_actions[0]
    assert set(sub.choices) == set(SUBCOMMANDS)


def test_rates_subcommand():
    code, out = run_cli([
        "rates", "--H", "0.5", "--q", "2", "--times", "0,1",
        "--n", "64,128,256,512",
    ])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fit"]["slope"] == pytest.approx(-0.5, abs=1e-10)
    assert res["rate_exponent"] == -0.5

    # points agree with the bound subcommand at the same level
    _, out_b = run_cli(["bound", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "128"])
    single = json.loads(out_b)["results"]["bound_report"]["bound"]
    assert dict(map(tuple, res["points"]))[128] == pytest.approx(single, rel=1e-14)


def test_simulate_deterministic_and_thread_invariant(tmp_path):
    argv = ["simulate", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "64",
            "--m", "50", "--seed", "9"]
    code_a, out_a = run_cli(argv + ["--threads", "1"])
    code_b, out_b = run_cli(argv + ["--threads", "4"])
    assert code_a == code_b == 0
    blob_a, blob_b = json.loads(out_a), json.loads(out_b)
    assert blob_a["results"] == blob_b["results"]

    dump = tmp_path / "samples.csv"
    code, out = run_cli(argv + ["--dump-samples", str(dump)])
    assert code == 0
    lines = dump.read_text().strip().split("\n")
    assert lines[0] == "f1"
    assert len(lines) == 51


def test_malliavin_subcommand():
    code, out = run_cli([
        "malliavin", "--H", "0.5", "--q", "2", "--times", "0,1,2",
        "--n", "64", "--m", "50", "--seed", "4",
    ])
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["gram_mean"][0][0] - 1.0) < 4 * res["gram_se"][0][0] + 0.05
    assert res["dev_sq_mean"][0][1] <= res["lemma_entries"][0][1] * 1.5 + 0.05


def test_monte_carlo_reports_carry_embedding_margin():
    short = ["--H", "0.6", "--q", "2", "--times", "0,1,2", "--n", "32", "--m", "20", "--seed", "3"]
    reports = {}
    for sub in ("simulate", "malliavin"):
        outs = [run_cli([sub, *short, "--threads", t]) for t in ("1", "2")]
        assert [code for code, _ in outs] == [0, 0]
        blobs = [json.loads(out) for _, out in outs]
        assert blobs[0]["results"] == blobs[1]["results"]
        reports[sub] = blobs[0]["results"]["diagnostics"]
    assert reports["simulate"] == reports["malliavin"]
    assert set(reports["simulate"]) == {"embedding_min_ratio"}
    assert 0.0 < reports["simulate"]["embedding_min_ratio"] < 1.0


def test_stein_check_subcommand():
    code, out = run_cli([
        "stein-check", "--C", "[[1.0, 0.5], [0.5, 1.0]]",
        "--functions", "first_coordinate,sin_of_sum",
        "--grid-steps", "5", "--quad-unodes", "32", "--quad-gh-order", "6",
    ])
    assert code == 0
    checks = json.loads(out)["results"]["checks"]
    assert len(checks) == 2
    assert all(c["pass"] for c in checks)
    assert all(c["residual_max"] < 1e-3 for c in checks)


def test_chatterjee_subcommand():
    code, out = run_cli([
        "chatterjee", "--K", "[[1.0, 0.0], [0.0, 1.0]]", "--C", "[[1.0, 0.0], [0.0, 1.0]]",
        "--functions", json.dumps({"type": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
        "--m", "20", "--seed", "2",
    ])
    assert code == 0
    assert json.loads(out)["results"]["bound"] == pytest.approx(0.0, abs=1e-9)


def test_gaussian_pair_subcommand():
    code, out = run_cli(["gaussian-pair", "--C", "[[4.0]]", "--K", "[[1.0]]"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["bound"] == pytest.approx(1.5, abs=1e-12)
    assert res["q_factor"] == pytest.approx(0.5, abs=1e-12)


def test_matrix_file_input(tmp_path):
    mf = tmp_path / "mats.json"
    mf.write_text(json.dumps({"C": {"dim": 1, "rows": [[4.0]]}, "K": {"dim": 1, "rows": [[1.0]]}}))
    code, out = run_cli(["gaussian-pair", "--matrix-file", str(mf)])
    assert code == 0
    assert json.loads(out)["results"]["bound"] == pytest.approx(1.5, abs=1e-12)


def _argv_from_config(sub: str, config: dict) -> list[str]:
    """Rebuild a command line from an embedded report config."""
    argv = [sub]
    mapping = {
        "h": "--H", "q": "--q", "n": "--n", "m": "--m", "seed": "--seed",
        "threads": "--threads",
    }
    for key, flag in mapping.items():
        if key in config and config[key] is not None:
            argv += [flag, str(config[key])]
    if "n_list" in config:
        argv += ["--n", ",".join(str(n) for n in config["n_list"])]
    if "times" in config:
        argv += ["--times", ",".join(repr(t) for t in config["times"])]
    if "c" in config:
        argv += ["--C", json.dumps(config["c"]["rows"])]
    if "k" in config:
        argv += ["--K", json.dumps(config["k"]["rows"])]
    if "functions" in config and isinstance(config["functions"], dict):
        argv += ["--functions", json.dumps(config["functions"])]
    if "functions" in config and isinstance(config["functions"], list):
        argv += ["--functions", ",".join(config["functions"])]
    if "grid" in config:
        argv += ["--grid-lo", str(config["grid"]["lo"]), "--grid-hi", str(config["grid"]["hi"]),
                 "--grid-steps", str(config["grid"]["steps"])]
    if "quadrature" in config:
        quad = config["quadrature"]
        argv += ["--quad-unodes", str(quad["u_nodes"])]
        if quad["gh_order"] is not None:
            argv += ["--quad-gh-order", str(quad["gh_order"])]
        if quad["mc_size"] is not None:
            argv += ["--mc-inner", str(quad["mc_size"])]
    return argv


REPRO_CASES = [
    ["bound", "--H", "0.55", "--q", "2", "--times", "0,1", "--n", "32"],
    ["rates", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32,64,128"],
    ["simulate", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "32", "--m", "20", "--seed", "3"],
    ["malliavin", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32", "--m", "10", "--seed", "8"],
    ["stein-check", "--C", "[[1.0, 0.25], [0.25, 1.0]]", "--grid-steps", "3",
     "--functions", "first_coordinate", "--quad-unodes", "16", "--quad-gh-order", "4"],
    ["chatterjee", "--K", "[[1.0]]", "--C", "[[1.0]]", "--m", "10", "--seed", "5",
     "--functions", '{"type": "componentwise", "kind": "identity", "n": 1}'],
    ["gaussian-pair", "--C", "[[2.0]]", "--K", "[[1.0]]"],
]


@pytest.mark.parametrize("argv", REPRO_CASES, ids=[c[0] for c in REPRO_CASES])
def test_report_reproducible_from_embedded_config(argv):
    code, out = run_cli(argv)
    assert code == 0
    report = json.loads(out)
    rebuilt = _argv_from_config(report["subcommand"], report["config"])
    code2, out2 = run_cli(rebuilt)
    assert code2 == 0
    assert out2 == out  # byte-identical
