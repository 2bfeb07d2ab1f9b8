import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from gaussapprox import chaos, cli, empirical, stein
from gaussapprox.cli import SUBCOMMANDS, main
from gaussapprox.quadrature import rule_size


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


@pytest.mark.parametrize("q", ["0", "1"])
@pytest.mark.parametrize("h", ["0.3", "0.6"])
def test_rank_below_two_exits_2_alike_in_every_subcommand(h, q):
    levels = {"bound": ["--n", "16"], "rates": ["--n", "8,16,32"],
              "simulate": ["--n", "16", "--m", "10"], "malliavin": ["--n", "16", "--m", "10"]}
    for name, rest in levels.items():
        code, out = run_cli([name, "--H", h, "--q", q, *rest])
        assert (code, json.loads(out)["error"]) == (
            2, {"type": "ValueError", "message": f"rank must be >= 2, got {q}"}), name


def test_a_stray_key_error_is_not_a_configuration_error(monkeypatch):
    def lookup(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "_check_seed", lookup)
    with pytest.raises(KeyError):
        run_cli(["gaussian-pair", "--C", "[[1.0]]", "--K", "[[1.0]]"])


def test_non_pd_matrix_exit_code():
    code, out = run_cli([
        "gaussian-pair", "--C", "[[1.0, 2.0], [2.0, 1.0]]", "--K", "[[1.0, 0.0], [0.0, 1.0]]",
    ])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "NotPositiveDefinite"


def test_simulate_with_a_failing_embedding_guard_exits_3(monkeypatch):
    from gaussapprox import fgn

    real = fgn._embedding_eigenvalues

    def dipped(h, n):
        lam = real(h, n).copy()
        lam[-1] = -1e-3 * float(np.max(lam))
        return lam

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", dipped)
    code, out = run_cli(["simulate", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "32",
                         "--m", "10"])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "NotPositiveDefinite"
    assert "not nonnegative definite" in err["message"]


def test_sampler_past_the_memory_budget_exits_2_before_allocating():
    # 2^46 embedding points: numpy would refuse the 256 TiB array with a MemoryError
    tracemalloc.start()
    try:
        code, out = run_cli(["simulate", "--H", "0.6", "--q", "2", "--n", "35184372088832",
                             "--m", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "70368744177664 points" in err["message"] and "256 MiB" in err["message"]
    # malliavin refuses the same way; its bound admits this family
    fam = chaos.kernel_family(0.6, 2, 2**21, (0, 1))
    with pytest.raises(ValueError, match="4194304 points"):
        empirical.malliavin_grams(fam, 2, 1)


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
    ["chatterjee", "--K", "[[1.0]]", "--mc-inner", "1000"],
    ["stein-check", "--mc-inner", "1000"],
    ["gaussian-pair", "--C", "[[1.0]]", "--K", "[[1.0]]", "--quad-gh-order", "4"],
    ["gaussian-pair", "--C", "[[1.0]]", "--K", "[[1.0]]", "--seed", "1"],
], ids=["bound-seed", "rates-quad", "simulate-C", "simulate-matrix-file", "malliavin-mc-inner",
        "chatterjee-mc-inner", "stein-check-mc-inner", "gaussian-pair-quad", "gaussian-pair-seed"])
def test_flag_not_read_by_subcommand_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


MINIMAL_ARGV = {
    "bound": ["--H", "0.5", "--q", "2", "--n", "10"],
    "rates": ["--H", "0.5", "--q", "2", "--n", "10,20,40"],
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


@pytest.mark.parametrize("flag, value", [("--grid-lo", "nan"), ("--grid-hi", "inf"),
                                         ("--grid-lo", "-inf")])
def test_non_finite_grid_exit_2(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stein-check", "--grid-steps", "2", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["[[Infinity, 0], [0, 1]]", "[[1, Infinity], [Infinity, 1]]",
                               "[[NaN, 0], [0, 1]]"])
def test_non_finite_matrix_exit_code(c):
    code, out = run_cli(["gaussian-pair", "--C", c, "--K", "[[1, 0], [0, 1]]"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "non-finite" in err["message"]


def test_rates_refuses_two_levels_before_any_sum(monkeypatch):
    def no_sums(*args):
        raise AssertionError("a contraction sum ran for a two-point curve")

    monkeypatch.setattr(chaos, "_lattice_sum", no_sums)
    code, out = run_cli(["rates", "--H", "0.7", "--q", "2", "--times", "0,1",
                         "--n", "16384,32768"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "need at least three points" in err["message"]


@pytest.mark.parametrize("d", ["0", "-1"])
def test_nonpositive_stein_dimension_exits_2_naming_d(d, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stein-check", "--d", d, "--grid-steps", "2"])
    assert exc.value.code == 2
    assert f"argument --d: must be >= 1, got {d}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -1])
def test_componentwise_family_without_components_exits_2_naming_n(n):
    functions = json.dumps({"type": "componentwise", "kind": "tanh", "n": n})
    code, out = run_cli(["chatterjee", "--K", "[[1.0]]", "--functions", functions])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": f"'n' must be >= 1, got {n}"}


@pytest.mark.parametrize("functions", [
    '{"type":"quadratic","matrices":[]}',
    "[1,2]",
    '{"type":"quadratic","matrices":5}',
    '{"type":"componentwise","kind":"tanh","n":[1]}',
    '{"type":"componentwise","kind":["tanh"],"n":1}',
    '{"type":"linear","matrix":{"a":1}}',
])
def test_bad_function_family_exit_code(functions):
    code, out = run_cli(["chatterjee", "--K", "[[1.0]]", "--functions", functions])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"


def _numpy_refusal(obj) -> str:
    """numpy's message for a JSON value it cannot read as a float array."""
    with pytest.raises(ValueError) as info:
        np.asarray(obj, dtype=np.float64)
    return str(info.value)


_NOT_A_MATRIX = "matrix C must be nested lists or an object with 'dim' and 'rows', got "


@pytest.mark.parametrize("argv, message", [
    (["gaussian-pair", "--C", '{"rows": [[1.0]]}', "--K", "[[1.0]]"],
     "matrix C: JSON object lacks 'dim'; it must carry 'dim' and 'rows'"),
    (["chatterjee", "--K", "[[1.0]]", "--functions", '{"type": "linear"}'],
     "linear function family config lacks 'matrix'; its keys are 'type', 'matrix'"),
    (["chatterjee", "--K", "[[1.0]]", "--functions", '{"type": "quadratic"}'],
     "quadratic function family config lacks 'matrices'; its keys are 'type', 'matrices'"),
    (["chatterjee", "--K", "[[1.0]]", "--functions", '{"type": "componentwise", "kind": "tanh"}'],
     "componentwise function family config lacks 'n'; its keys are 'type', 'kind', 'n'"),
    (["chatterjee", "--K", "[[1.0]]", "--functions", '{"type": "componentwise", "n": 1}'],
     "componentwise function family config lacks 'kind'; its keys are 'type', 'kind', 'n'"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", '{"dim": null, "rows": [[1.0]]}'],
     "matrix C: 'dim' must be an integer, got None"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", '{"dim": [1], "rows": [[1.0]]}'],
     "matrix C: 'dim' must be an integer, got [1]"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", '[[1.0, {"a": 1}], [0, 1]]'],
     "matrix C must hold numbers, got [[1.0, {'a': 1}], [0, 1]]"),
    (["bound", "--H", "0.6", "--q", "2", "--n", "10", "--C", "null"], _NOT_A_MATRIX + "None"),
    (["bound", "--H", "0.6", "--q", "2", "--n", "10", "--matrix-file", "null-c.json"],
     _NOT_A_MATRIX + "None"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", "null"], _NOT_A_MATRIX + "None"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", "2.5"], _NOT_A_MATRIX + "2.5"),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", "[[1.0],[1.0, 2.0]]"],
     "matrix C is not a matrix of numbers: " + _numpy_refusal([[1.0], [1.0, 2.0]])),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", '"abc"'],
     "matrix C is not a matrix of numbers: " + _numpy_refusal("abc")),
    (["gaussian-pair", "--K", "[[1.0]]", "--C", '{"dim": 2, "rows": [[1.0], [1.0, 2.0]]}'],
     "matrix C is not a matrix of numbers: " + _numpy_refusal([[1.0], [1.0, 2.0]])),
    (["gaussian-pair", "--matrix-file", "k-only.json"],
     "matrix C required: --matrix-file k-only.json has no key 'C'"),
])
def test_json_object_missing_a_key_exits_2_naming_it(argv, message, tmp_path, monkeypatch):
    (tmp_path / "null-c.json").write_text('{"C": null}')
    (tmp_path / "k-only.json").write_text('{"K": [[1.0]]}')
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(argv)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


def test_matrix_file_without_the_key_falls_back_to_the_identity(tmp_path):
    path = tmp_path / "k-only.json"
    path.write_text('{"K": [[1.0]]}')
    argv = ["bound", "--H", "0.6", "--q", "2", "--n", "10"]
    assert run_cli([*argv, "--matrix-file", str(path)]) == run_cli(argv)


@pytest.mark.parametrize("argv, job_code", [
    (["bound", "--H", "0.6", "--q", "2", "--n", "10"], 0),
    (["bound", "--H", "0.6", "--q", "2", "--n", "0"], 2),
    (["bound", "--H", "0.9", "--q", "2", "--n", "10"], 3),
], ids=["report", "config-error", "numerical-failure"])
def test_unwritable_out_exits_2_with_the_error_on_stdout(argv, job_code, tmp_path):
    # the report or error object cannot be written; the write error is printed instead
    target = tmp_path / "missing" / "x.json"
    assert run_cli(argv)[0] == job_code
    code, out = run_cli([*argv, "--out", str(target)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "FileNotFoundError"
    assert str(target) in err["message"]


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


def test_parser_is_built_once_per_process():
    from gaussapprox.cli import build_parser

    assert build_parser() is build_parser()


def test_readme_flag_table_matches_parser():
    from gaussapprox.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    common = re.search(r"Every subcommand takes `(--[\w-]+)` and `(--[\w-]+)`", readme).groups()
    # a row is "| `name` | `--flags ...` (note) |"; the note may quote flags too
    rows = re.findall(r"^\| `([\w-]+)` \| `(--[^`]+)`", readme, re.M)
    table = {name: set(flags.split()) for name, flags in rows}
    assert len(rows) == len(table) and set(table) == set(SUBCOMMANDS)
    sub = build_parser()._subparsers._group_actions[0]
    for name, parser in sub.choices.items():
        registered = {opt for action in parser._actions for opt in action.option_strings}
        assert registered - {"-h", "--help"} == table[name] | set(common), name


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
    assert set(reports["simulate"]) == {"embedding_min_ratio", "normals_per_path"}
    assert 0.0 < reports["simulate"]["embedding_min_ratio"] < 1.0
    # path length 64 embeds in 128 points, one raw draw per normal
    assert reports["simulate"]["normals_per_path"] == 128


SEEDED_ARGVS = {
    "simulate": ["simulate", "--H", "0.6", "--q", "2", "--n", "16", "--m", "4"],
    "malliavin": ["malliavin", "--H", "0.6", "--q", "2", "--n", "16", "--m", "4"],
    "stein-check": ["stein-check", "--grid-steps", "2", "--quad-unodes", "8", "--quad-gh-order", "4",
                    "--functions", "first_coordinate"],
    "chatterjee": ["chatterjee", "--K", "[[1.0]]", "--m", "4"],
}


@pytest.mark.parametrize("sub", sorted(SEEDED_ARGVS))
def test_seed_outside_64_bits_is_rejected(sub):
    # hash64 reduces a seed modulo 2^64, so -1 and 2^64 - 1 (or 0 and 2^64)
    # would draw the same sample while echoing different seeds
    for seed in (-1, 2**64, -(2**64), 2**70):
        code, out = run_cli([*SEEDED_ARGVS[sub], "--seed", str(seed)])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ValueError" and "--seed" in err["message"]
    for seed in (0, 2**64 - 1):
        code, out = run_cli([*SEEDED_ARGVS[sub], "--seed", str(seed)])
        assert code == 0 and json.loads(out)["config"]["seed"] == seed


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


def test_gaussian_pair_report_carries_conditioning():
    code, out = run_cli(["gaussian-pair", "--C", "[[4.0, 0.0], [0.0, 1.0]]",
                         "--K", "[[2.0, 0.0], [0.0, 0.5]]"])
    assert code == 0
    res = json.loads(out)["results"]
    assert set(res) == {"q_factor", "hs_distance", "bound", "diagnostics"}
    assert res["diagnostics"] == {"cond_c": 4.0, "cond_k": 4.0, "prefactor_c": 2.0}


@pytest.mark.parametrize("functions, rule", [
    ('{"type": "linear", "matrix": [[1.0, 0.5]]}', "exact"),
    ('{"type": "quadratic", "matrices": [[[1.0, 0.0], [0.0, -1.0]]]}', "exact"),
    ('{"type": "componentwise", "kind": "tanh", "n": 2}', "gauss-hermite-1d"),
])
def test_chatterjee_report_carries_inner_rule_error(functions, rule):
    argv = ["chatterjee", "--K", "[[1.0, 0.3], [0.3, 1.0]]", "--m", "20", "--functions", functions]
    reports = [json.loads(run_cli(argv + extra)[1]) for extra in ([], ["--quad-gh-order", "8"])]
    for report in reports:
        diag = report["results"]["diagnostics"]
        assert set(diag) == {"inner_rule", "orders", "t_error_max", "bound_error"}
        assert diag["inner_rule"] == rule and diag["orders"] == [8, 16]
        assert 0.0 <= diag["t_error_max"] < 1e-2 and 0.0 <= diag["bound_error"] < 1e-2
    # order 8 is the default, so both runs give one result
    assert reports[0]["results"] == reports[1]["results"]


def test_chatterjee_above_dim_four_echoes_the_rule_that_ran():
    k5 = [[1.0 if i == j else 0.2 for j in range(5)] for i in range(5)]
    functions = json.dumps({"type": "componentwise", "kind": "tanh", "n": 5})
    code, out = run_cli(["chatterjee", "--K", json.dumps(k5), "--m", "20", "--functions", functions])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["quadrature"] == {"u_nodes": 48, "gh_order": 8}
    assert report["results"]["diagnostics"]["orders"] == [8, 16]


@pytest.mark.parametrize("argv, work", [
    # each node costs a gradient and a Hessian, d + d^2 oracle values
    # the sparse rule of level 5 at d = 80 has 30,097,441 nodes, over the 10^7 cap
    (["--d", "80"], 21**2 * 48 * 30_097_441 * 5 * (80 + 80**2)),
    (["--d", "2", "--grid-steps", "5000"], 5000**2 * 48 * 8**2 * 5 * (2 + 2**2)),
    # the closed count takes microseconds at any level
    (["--d", "5", "--quad-gh-order", "1000000"], 21**2 * 48 * rule_size(5, 10**6) * 5 * (5 + 5**2)),
    # 3.3e8 nodes, and one Hessian block of its 153,161-node rule is 490 MB
    (["--d", "20", "--grid-steps", "3"], 3**2 * 48 * 153_161 * 5 * (20 + 20**2)),
], ids=["d80", "grid-steps-5000", "level-1e6", "d20"])
def test_stein_check_refuses_oversize_work_before_building(argv, work):
    start = time.perf_counter()
    code, out = run_cli(["stein-check", *argv])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert f"about {work:.2e} oracle values" in err["message"]


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens strict parsers reject."""
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, code, message", [
    # numpy's Gauss-Hermite weights are NaN at order 400, and chatterjee checks
    # T at twice --quad-gh-order; both orders are refused at the flag
    (["stein-check", "--grid-steps", "1", "--quad-gh-order", "400", "--functions", "sin_of_sum"],
     2, "stein-check needs --quad-gh-order in [4, 128], got 400"),
    (["chatterjee", "--K", "[[1.0,0.2],[0.2,1.0]]", "--m", "10", "--quad-gh-order", "186",
      "--functions", '{"type":"componentwise","kind":"tanh","n":2}'],
     2, "chatterjee needs --quad-gh-order in [4, 128], got 186"),
    # the map overflows, so the bound is infinite and the report fails
    (["chatterjee", "--K", "[[1.0,0.1],[0.1,1.0]]", "--m", "5",
      "--functions", '{"type":"linear","matrix":[[1e308,1e308]]}'],
     3, "results.bound = inf is not finite"),
    # a list flag names itself and the token it cannot read; empty tokens are skipped
    (["bound", "--H", "0.6", "--q", "2", "--n", "16", "--times", "0,,x"],
     2, "--times: expected a number, got 'x'"),
    (["rates", "--H", "0.6", "--q", "2", "--n", "16,32.5,,64"],
     2, "--n: expected an integer, got '32.5'"),
], ids=["stein-order-400", "chatterjee-order-186", "chatterjee-overflow", "times-token", "rates-n-token"])
def test_every_report_is_strict_json(argv, code, message):
    with np.errstate(all="ignore"):
        got, out = run_cli(argv)
    assert got == code
    assert message in _strict_json(out)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["stein-check", "--grid-steps", "1", "--functions", "sin_of_sum"],
    ["chatterjee", "--K", "[[1.0,0.2],[0.2,1.0]]", "--m", "10",
     "--functions", '{"type":"componentwise","kind":"tanh","n":2}'],
], ids=["stein-check", "chatterjee"])
@pytest.mark.parametrize("flag, value", [
    ("--quad-gh-order", 129), ("--quad-unodes", 1025), ("--quad-unodes", 10**6),
])
def test_quadrature_flags_past_their_bound_exit_2_before_any_rule(monkeypatch, argv, flag, value):
    def no_rule(*args):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", no_rule)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    code, out = run_cli([*argv, flag, str(value)])
    assert code == 2
    err = _strict_json(out)["error"]
    assert err["type"] == "ValueError" and f"got {value}" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["chatterjee", "--K", "[[1.0]]", "--m", "1"], "chatterjee needs --m >= 2 (standard errors)"),
    (["chatterjee", "--K", "[[1.0]]", "--quad-unodes", "0"],
     "chatterjee needs --quad-unodes in [8, 1024], got 0"),
    (["chatterjee", "--K", "[[1.0]]", "--quad-gh-order", "0"],
     "chatterjee needs --quad-gh-order in [4, 128], got 0"),
    (["stein-check", "--grid-steps", "1", "--quad-unodes", "0"],
     "stein-check needs --quad-unodes in [8, 1024], got 0"),
    (["stein-check", "--grid-steps", "1", "--quad-gh-order", "0"],
     "stein-check needs --quad-gh-order in [4, 128], got 0"),
], ids=["chatterjee-m", "chatterjee-unodes", "chatterjee-gh-order", "stein-unodes", "stein-gh-order"])
def test_count_flag_refusals_name_the_flag(argv, message):
    # worded as simulate --m 1 is, not by the library parameter behind the flag
    code, out = run_cli(argv)
    assert code == 2
    assert json.loads(out)["error"]["message"] == message


@pytest.mark.parametrize("d", [3, 4])
def test_stein_check_admits_a_grid_of_eleven_steps(monkeypatch, d):
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # stein_report runs only once the job has passed the work guard
    monkeypatch.setattr(stein, "stein_report", admitted)
    with pytest.raises(Admitted):
        run_cli(["stein-check", "--d", str(d), "--grid-steps", "11"])


def test_stein_check_above_dim_four_runs_the_sparse_rule():
    code, out = run_cli(["stein-check", "--d", "5", "--grid-steps", "2", "--functions",
                         "first_coordinate,log_sum_exp"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["quadrature"] == {"u_nodes": 48, "gh_order": 5}
    first, lse = report["results"]["checks"]
    assert first["residual_max"] <= 1e-12 and first["hessian_max"] == 0.0
    assert lse["pass"]


def test_stein_check_dimension_flag():
    small = ["--grid-steps", "2", "--functions", "first_coordinate"]
    code, out = run_cli(["stein-check", "--d", "3", "--C", "[[1.0, 0.2], [0.2, 1.0]]", *small])
    assert code == 2
    assert json.loads(out)["error"]["message"] == "--d 3 disagrees with C of dim 2"
    # a matching --d, or none, changes nothing; --d alone sets the identity's dim
    _, plain = run_cli(["stein-check", "--C", "[[1.0, 0.2], [0.2, 1.0]]", *small])
    _, matching = run_cli(["stein-check", "--d", "2", "--C", "[[1.0, 0.2], [0.2, 1.0]]", *small])
    assert matching == plain
    code, out = run_cli(["stein-check", "--d", "3", *small])
    assert code == 0
    assert json.loads(out)["config"]["c"]["dim"] == 3
    _, default = run_cli(["stein-check", *small])
    assert json.loads(default)["config"]["c"]["rows"] == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("functions, token", [
    ("nosuch", "nosuch"), ("sin_of_sum,,log_sum_exp", ""),
], ids=["unknown", "empty"])
def test_stein_check_names_an_unknown_function(functions, token):
    code, out = run_cli(["stein-check", "--grid-steps", "2", "--functions", functions])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == (f"--functions: no test function {token!r}; registered: first_coordinate, "
                              "sin_of_sum, sqrt_one_plus_norm_sq, log_sum_exp, log_cosh_sum")


def test_stein_check_builds_each_node_block_once_for_every_function(monkeypatch):
    real = stein.lipschitz_test_functions
    calls = []

    def counted(d):
        def counting(g):
            def derivatives(x):
                calls.append((g.name, x))
                return g.derivatives(x)
            return dataclasses.replace(g, derivatives=derivatives)
        return [counting(g) for g in real(d)]

    argv = ["stein-check", "--grid-steps", "11"]
    _, plain = run_cli(argv)
    monkeypatch.setattr(stein, "lipschitz_test_functions", counted)
    run_cli([*argv, "--functions", "log_sum_exp"])
    blocks = len(calls)
    assert blocks > 1
    calls.clear()
    code, out = run_cli(argv)
    assert code == 0 and out == plain
    # each joint oracle runs once per block, and the five of a block read one array of nodes
    names = [g.name for g in real(2)]
    assert [name for name, _ in calls] == names * blocks
    for i in range(0, len(calls), len(names)):
        assert all(x is calls[i][1] for _, x in calls[i:i + len(names)])


@pytest.mark.parametrize("flag", ["--grid-lo", "--grid-hi"])
def test_grid_bounds_beyond_d2_exit_2(flag):
    small = ["--d", "3", "--grid-steps", "2", "--functions", "first_coordinate"]
    code, out = run_cli(["stein-check", *small, flag, "100"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == ("--grid-lo and --grid-hi set the d = 2 grid; at d = 3 "
                              "the points are a seeded scatter")
    # without them the scatter runs and echoes no bounds; at d = 2 the defaults are echoed
    code, out = run_cli(["stein-check", *small])
    assert code == 0
    assert json.loads(out)["config"]["grid"] == {"lo": None, "hi": None, "steps": 2}
    _, out = run_cli(["stein-check", *small[2:]])
    assert json.loads(out)["config"]["grid"] == {"lo": -3.0, "hi": 3.0, "steps": 2}


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
        for key in ("lo", "hi"):
            if config["grid"][key] is not None:
                argv += [f"--grid-{key}", str(config["grid"][key])]
        argv += ["--grid-steps", str(config["grid"]["steps"])]
    if "quadrature" in config:
        quad = config["quadrature"]
        argv += ["--quad-unodes", str(quad["u_nodes"])]
        argv += ["--quad-gh-order", str(quad["gh_order"])]
    return argv


REPRO_CASES = [
    ["bound", "--H", "0.55", "--q", "2", "--times", "0,1", "--n", "32"],
    ["rates", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32,64,128"],
    ["simulate", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "32", "--m", "20", "--seed", "3"],
    ["malliavin", "--H", "0.5", "--q", "2", "--times", "0,1", "--n", "32", "--m", "10", "--seed", "8"],
    ["stein-check", "--C", "[[1.0, 0.25], [0.25, 1.0]]", "--grid-steps", "3",
     "--functions", "first_coordinate", "--quad-unodes", "16", "--quad-gh-order", "4"],
    ["stein-check", "--d", "3", "--grid-steps", "2",
     "--functions", "first_coordinate", "--quad-unodes", "16", "--quad-gh-order", "4"],
    ["chatterjee", "--K", "[[1.0]]", "--C", "[[1.0]]", "--m", "10", "--seed", "5",
     "--functions", '{"type": "componentwise", "kind": "identity", "n": 1}'],
    ["gaussian-pair", "--C", "[[2.0]]", "--K", "[[1.0]]"],
]


@pytest.mark.parametrize("argv", REPRO_CASES, ids=[c[0] + ("-d3" if "--d" in c else "") for c in REPRO_CASES])
def test_report_reproducible_from_embedded_config(argv):
    code, out = run_cli(argv)
    assert code == 0
    report = json.loads(out)
    rebuilt = _argv_from_config(report["subcommand"], report["config"])
    code2, out2 = run_cli(rebuilt)
    assert code2 == 0
    assert out2 == out  # byte-identical


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("subcommand", ["bound", "rates", "simulate", "malliavin"])
def test_non_finite_times_exit_2(subcommand, value):
    argv = [subcommand, *MINIMAL_ARGV[subcommand], "--times", f"0,1,{value}"]
    code, out = run_cli(argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == f"times must be finite, got {value}"


def test_oversize_rates_refused_before_any_level_runs():
    t0 = time.perf_counter()
    code, out = run_cli(["rates", "--H", "0.7", "--q", "2", "--n", "128,256,4194304"])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert "contraction work at n=4194304" in json.loads(out)["error"]["message"]
    assert elapsed < 1.0


def test_oversize_bound_refused_with_work_estimate():
    code, out = run_cli(["bound", "--H", "0.7", "--q", "3", "--times", "0,1e300", "--n", "10"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith("contraction work at n=10: block size 1e+301, q=3 needs an estimated ")


@pytest.mark.parametrize("argv", [
    ["chatterjee", "--K", "[[1.0,0.2],[0.2,1.0]]", "--m", "1000000000000"],
    ["simulate", "--H", "0.6", "--q", "2", "--n", "64", "--m", "1000000000000"],
    ["malliavin", "--H", "0.6", "--q", "2", "--n", "64", "--m", "1000000000000"],
], ids=lambda argv: argv[0])
def test_oversize_monte_carlo_job_refused_before_its_first_draw(argv):
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "past the budget" in err["message"]


def test_oversize_malliavin_refused_before_any_path(monkeypatch):
    def no_paths(*args):
        raise AssertionError("malliavin_grams ran for an oversize family")

    monkeypatch.setattr(empirical, "malliavin_grams", no_paths)
    code, out = run_cli(["malliavin", "--H", "0.6", "--q", "2", "--times", "0,1",
                         "--n", "4194304", "--m", "2"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "past the budget" in err["message"]


@pytest.mark.parametrize("name, levels", [("bound", "1"), ("rates", "1,2,4"), ("malliavin", "1")])
def test_too_many_time_points_refused_before_any_sum(monkeypatch, name, levels):
    # three 1100 x 1100 matrices at 80 bytes a float pass the 256 MiB budget;
    # 1057 time points are the most a bound admits
    def no_work(*args):
        raise AssertionError("a sum or an eigensolve ran for an oversize family")

    for fn in ("kernel_inner", "_lattice_inner", "contraction_norm_sq", "as_covariance"):
        monkeypatch.setattr(chaos, fn, no_work)
    argv = [name, "--H", "0.6", "--q", "2", "--n", levels, "--times", ",".join(map(str, range(1, 1101)))]
    start = time.perf_counter()
    code, out = run_cli(argv + (["--m", "2"] if name == "malliavin" else []))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    held = ("malliavin at d=1100 holds six 1100 x 1100 matrices, about 554 MiB" if name == "malliavin"
            else "a bound at d=1100 holds three 1100 x 1100 matrices, about 277 MiB")
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": f"{held}, past the budget of 256 MiB; use fewer time points"}


def test_malliavin_admits_at_most_747_time_points(monkeypatch):
    # six d x d matrices at 80 bytes a float, against MEMORY_BUDGET = 256 MiB,
    # counted before the bound's first sum and before any path
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    def no_work(*args):
        raise AssertionError("a sum, an eigensolve or a path ran for an oversize family")

    for fn in ("kernel_inner", "_lattice_inner", "contraction_norm_sq", "as_covariance"):
        monkeypatch.setattr(chaos, fn, no_work)
    monkeypatch.setattr(empirical, "malliavin_grams", no_work)
    monkeypatch.setattr(cli, "wasserstein_bound", admitted)

    def argv(d):
        return ["malliavin", "--H", "0.6", "--q", "2", "--n", "1", "--m", "2",
                "--times", ",".join(map(str, range(1, d + 1)))]

    with pytest.raises(Admitted):
        cli.main(argv(747))
    start = time.perf_counter()
    code, out = run_cli(argv(748))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "malliavin at d=748 holds six 748 x 748 matrices, about 256 MiB, past the budget of "
        "256 MiB; use fewer time points")


def test_malliavin_memory_count_covers_its_traced_peak():
    # d = 300 at m = 2: the six printed d x d matrices, counted at 80 bytes a
    # float, bound the peak traced memory of the whole job (71-74 bytes a float
    # at n = 1 and 64); blocks of one point keep the traced run short
    d = 300
    argv = ["malliavin", "--H", "0.6", "--q", "2", "--n", "1", "--m", "2",
            "--times", ",".join(map(str, range(1, d + 1)))]
    tracemalloc.start()
    try:
        code, out = run_cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(out)["results"]["lemma_entries"]) == d
    assert peak <= 6 * chaos._FLOAT_BYTES * d * d


def test_rates_builds_each_level_once(monkeypatch):
    real = chaos.kernel_family
    levels = []

    def counted(h, q, n, times, sigma=None):
        levels.append(n)
        return real(h, q, n, times, sigma=sigma)

    monkeypatch.setattr(chaos, "kernel_family", counted)
    monkeypatch.setattr(cli, "kernel_family", counted)
    n_list = [16, 32, 64, 128, 256, 512]
    code, out = run_cli(["rates", "--H", "0.6", "--q", "3", "--times", "0,1,2,3",
                         "--n", ",".join(map(str, n_list))])
    assert code == 0
    assert [n for n, _ in json.loads(out)["results"]["points"]] == n_list
    assert levels == n_list


def test_rates_counts_its_levels_before_reading_h():
    code, out = run_cli(["rates", "--H", "0.9", "--q", "2", "--n", "16,32"])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "need at least three points to fit a rate"}


def test_malliavin_target_of_the_wrong_size_is_refused_by_the_bound(monkeypatch):
    def no_paths(*args):
        raise AssertionError("malliavin_grams ran for a target of the wrong size")

    monkeypatch.setattr(empirical, "malliavin_grams", no_paths)
    code, out = run_cli(["malliavin", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "64",
                         "--m", "2", "--C", "[[1.0, 0.0], [0.0, 1.0]]"])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "covariance dim 2 != family dim 1"}


def test_bound_and_rates_report_contraction_rtol():
    # every sum is exact to the one stated precision, whichever way it ran:
    # the recurrences, dyadic blocks past the hand-over, or the H = 1/2 closed form
    small = ["--H", "0.7", "--q", "2", "--times", "0,1"]
    for argv in (["bound", *small, "--n", "512"],
                 ["bound", *small, "--n", "2048"],
                 ["rates", *small, "--n", "512,1024,2048"],
                 ["bound", "--H", "0.5", "--q", "2", "--n", "4096"]):
        code, out = run_cli(argv)
        assert code == 0
        assert json.loads(out)["results"]["diagnostics"] == {"contraction_rtol": chaos.CONTRACTION_RTOL}
    assert chaos.CONTRACTION_RTOL == 1e-14


def _python(code: str, *args: str, threads: int | None = None) -> str:
    """stdout of a fresh interpreter that runs ``code`` on the source tree.

    ``threads`` sets the thread count of every BLAS library numpy may load.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 str(threads)))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", [
    # blocks of 1024 points run the recurrences, 2048 to 8192 the dyadic blocks too
    ["rates", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "1024,2048,4096,8192"],
    # blocks of 376 and 564 points run the recurrences
    ["bound", "--H", "0.7", "--q", "4", "--n", "376", "--times", "0,1,2.5"],
    # Gram sums over blocks of 6000 and 20,000 points, the second past the 10,000 terms
    # at which OpenBLAS splits a dot across its threads
    ["malliavin", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "6000", "--m", "2",
     "--seed", "5"],
    pytest.param(["malliavin", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "20000", "--m", "2",
                  "--seed", "5"], id="malliavin-20000"),
    # E g(Z) runs over the 16^4 = 65,536 nodes of the Gauss-Hermite rule
    ["stein-check", "--d", "4", "--quad-gh-order", "16", "--grid-steps", "1", "--quad-unodes", "8",
     "--functions", "sqrt_one_plus_norm_sq"],
], ids=lambda argv: argv[0])
def test_report_independent_of_blas_threads(argv):
    # fresh interpreters: an in-process rerun would read the contraction cache
    code = "import sys, gaussapprox.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    one, two = (_python(code, *argv, threads=threads) for threads in (1, 2))
    assert one == two
    results = json.loads(one)["results"]
    if argv[0] in ("bound", "rates"):
        assert results["diagnostics"] == {"contraction_rtol": 1e-14}


def test_u0_apply_independent_of_blas_threads():
    # one u-node per block of the 16^4-node rule: 65,536-term sums over nodes
    code = ("import numpy as np; from gaussapprox.stein import QuadratureSpec, "
            "lipschitz_test_functions, u0_apply; "
            "print(u0_apply(lipschitz_test_functions(4)[2], np.eye(4) * 0.7 + 0.3, "
            "np.array([0.3, -1.2, 0.8, 2.0]), QuadratureSpec(u_nodes=8, gh_order=16)).hex())")
    assert _python(code, threads=1) == _python(code, threads=2)


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_out_the_matching_modules():
    # only empirical_w1_multid's matching path needs the first two, and no subcommand
    # calls it; the package needs nothing from scipy.linalg
    code = ("import sys, gaussapprox.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.linalg') if m in sys.modules))")
    assert _python(code) == "[]"
    # nor any other scipy module: normal_cdf and normal_quantile import theirs on use
    for module in ("gaussapprox.cli", "gaussapprox"):
        assert _python(f"import sys, {module}; print({_SCIPY_LOADED})") == "[]", module


def test_cli_jobs_load_no_scipy_module():
    # one report of every subcommand, the rates curve reaching the range table's
    # dyadic block [1024, 2048) and the bound its recurrences
    jobs = [
        ["bound", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "512"],
        ["rates", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "512,1024,2048"],
        ["simulate", "--H", "0.7", "--q", "2", "--times", "0,1,2", "--n", "64", "--m", "50",
         "--seed", "1"],
        ["malliavin", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "64", "--m", "20",
         "--seed", "1"],
        ["stein-check", "--C", "[[1.0, 0.2], [0.2, 1.0]]", "--grid-steps", "3"],
        ["chatterjee", "--K", "[[1.0, 0.3], [0.3, 1.0]]", "--m", "20", "--seed", "1",
         "--functions", json.dumps({"type": "componentwise", "kind": "tanh", "n": 2})],
        ["gaussian-pair", "--C", "[[1.0, 0.2], [0.2, 1.0]]", "--K", "[[1.0, 0.0], [0.0, 1.0]]"],
    ]
    assert {argv[0] for argv in jobs} == set(SUBCOMMANDS)
    code = ("import io, json, sys; from contextlib import redirect_stdout; import gaussapprox.cli as cli\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            f"print(json.dumps([codes, {_SCIPY_LOADED}]))")
    codes, loaded = json.loads(_python(code, json.dumps(jobs)))
    assert codes == [0] * len(jobs)
    assert loaded == []


def test_cli_jobs_run_only_the_modules_they_call():
    # deferred modules stay unexecuted until a job reads them; type() does not load one
    code = ("import io, json, sys, types; from contextlib import redirect_stdout\n"
            "import gaussapprox.cli as cli\n"
            "names = ['stein', 'chatterjee', 'empirical', 'diff', 'quadrature']\n"
            "def ran():\n"
            "    return [n for n in names if type(sys.modules['gaussapprox.' + n]) is types.ModuleType]\n"
            "cli.build_parser()\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    seen.append([code, ran(), 'numpy.polynomial' in sys.modules])\n"
            "print(json.dumps(seen))")
    jobs = [
        ["bound", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "512"],
        ["rates", "--H", "0.7", "--q", "2", "--times", "0,1", "--n", "512,1024,2048"],
        ["gaussian-pair", "--C", "[[1.0, 0.2], [0.2, 1.0]]", "--K", "[[1.0, 0.0], [0.0, 1.0]]"],
        ["simulate", "--H", "0.7", "--q", "2", "--times", "0,1,2", "--n", "64", "--m", "50",
         "--seed", "1"],
        ["chatterjee", "--K", "[[1.0, 0.3], [0.3, 1.0]]", "--m", "20", "--seed", "1",
         "--functions", json.dumps({"type": "componentwise", "kind": "tanh", "n": 2})],
    ]
    seen = json.loads(_python(code, json.dumps(jobs)))
    assert seen == ([[0, [], False]] * 3 + [[0, ["empirical"], False]]
                    + [[0, ["chatterjee", "empirical", "quadrature"], True]])
