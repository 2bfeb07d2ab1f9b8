import ast
import importlib
import importlib.util
import io
import pkgutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import gaussapprox
import gaussapprox.cli
import gaussapprox.stein

MODULES = sorted(info.name for info in pkgutil.iter_modules(gaussapprox.__path__))

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _traced_names():
    """``WRAPPED`` of the benchmark tracer, read from its source as a literal."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in targets):
            wrapped = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in wrapped.items() for name in names]
    raise AssertionError("perfbench/layertrace.py defines no WRAPPED literal")


def test_package_exports_resolve():
    missing = [name for name in gaussapprox.__all__ if not hasattr(gaussapprox, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"gaussapprox.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_function_resolves(layer, name):
    # The tracer wraps these by name; a rename or deletion would otherwise
    # leave a traced run silently without that layer.
    module = importlib.import_module(f"gaussapprox.{layer}")
    assert callable(getattr(module, name, None))


#: One tiny job per subcommand family the tracer's counters read.
SMOKE_ARGVS = [
    ["stein-check", "--grid-steps", "2", "--quad-unodes", "8", "--quad-gh-order", "4",
     "--functions", "sin_of_sum"],
    ["chatterjee", "--K", "[[1.0, 0.2], [0.2, 1.0]]", "--m", "10", "--quad-unodes", "8",
     "--quad-gh-order", "4", "--functions", '{"type": "componentwise", "kind": "tanh", "n": 2}'],
    ["simulate", "--H", "0.6", "--q", "2", "--times", "0,1", "--n", "16", "--m", "4"],
    ["bound", "--H", "0.6", "--q", "2", "--times", "0,1,2", "--n", "16"],
]


def test_traced_smoke_run():
    # The counters read arguments by position, so a signature change would
    # otherwise break or skew a traced benchmark run without any test failing.
    spec = importlib.util.spec_from_file_location("layertrace_smoke", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    ran = set()

    def recording(name, count):
        def counter(t, args, kwargs, result):
            ran.add(name)
            count(t, args, kwargs, result)

        return counter

    layertrace._COUNTERS = {name: recording(name, count)
                            for name, count in layertrace._COUNTERS.items()}
    tracer = layertrace.Tracer("smoke")
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            codes = [gaussapprox.cli.main(list(argv)) for argv in SMOKE_ARGVS]
        # stein-check differentiates the registered functions exactly, so
        # u0_apply's counter needs a call of its own
        stein = gaussapprox.stein
        stein.u0_apply(stein.lipschitz_test_functions(2)[1], np.eye(2), np.zeros(2),
                       stein.QuadratureSpec(u_nodes=8, gh_order=4))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(SMOKE_ARGVS)
    metrics = tracer.metrics(1.0)
    called = {name for name in layertrace._COUNTERS if metrics[f"{name}.calls"] > 0}
    assert called == ran
    assert {"chatterjee.t_ab_matrix", "stein.u0_apply", "chaos.contraction_norm_sq",
            "empirical.simulate_bm_vector"} <= called
    assert metrics["chatterjee.t_ab_matrix.nodes"] == metrics["chatterjee.t_ab_matrix.calls"] * 8 * 4**2
    assert metrics["stein.u0_apply.nodes"] == metrics["stein.u0_apply.calls"] * 8 * 4**2
