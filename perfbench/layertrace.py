"""Span tracing of the program's layers from outside the program.

``Tracer.install`` wraps the public functions named in ``WRAPPED`` and
rebinds every name in the loaded ``gaussapprox.*`` modules that refers to one
of the original function objects.  Modules import by name (``cli`` binds
``wasserstein_bound``, ``empirical`` binds ``sample_fgn``), and calls inside
a module look their callee up in the module's globals, so both kinds of
call reach the wrapper.

Each call records a span: name, start, end, parent span, thread, run id and
job id.  The stack of open spans is kept per thread.  A span opened on a
thread with no open span of its own (a ``ThreadPoolExecutor`` worker of
``simulate_bm_vector``) takes as parent the innermost span open on the
main thread, which is the call that started the pool.  Spans stay in memory
until ``metrics`` reads them.

Counts are computed at the wrapper from arguments and return values, after
the span has closed.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Layer (module) -> wrapped public functions.
WRAPPED = {
    "cli": ("main",),
    "chaos": ("kernel_family", "kernel_inner", "contraction_norm_sq", "wasserstein_bound",
              "bound_curve"),
    "fgn": ("rho", "sigma_bm", "sample_fgn"),
    "empirical": ("simulate_bm_vector", "pathwise_malliavin_inner", "fit_rate"),
    "stein": ("u0_apply", "u0_gradient", "u0_hessian", "stein_residual", "hessian_bound_check",
              "stein_report", "gaussian_rule"),
    "diff": ("fd_gradient", "fd_hessian"),
    "chatterjee": ("t_ab_matrix", "chatterjee_bound", "gaussian_pair_bound"),
    "rng": ("standard_normals", "hash64"),
    "hermite": ("hermite_eval",),
    "linalg": ("prefactor", "q_factor"),
}

#: Counts reported by the traced run, with their units.
COUNTS = {
    "fgn.rho.lags": "count",
    "fgn.sigma_bm.lags": "count",
    "fgn.sample_fgn.embed_points": "count",
    "fgn.sample_fgn.cholesky": "count",
    "chaos.contraction_norm_sq.distinct": "count",
    "chaos.contraction_norm_sq.useful_ratio": "ratio",
    "chaos.contraction_norm_sq.block_sq": "count",
    "rng.standard_normals.draws": "count",
    "hermite.hermite_eval.points": "count",
    "empirical.simulate_bm_vector.replications": "count",
    "stein.u0_apply.nodes": "count",
    "stein.u0_hessian.per_point": "ratio",
    "stein.gaussian_rule.hit_ratio": "ratio",
    "chatterjee.t_ab_matrix.nodes": "count",
}

def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, in print order, with its unit."""
    units = {}
    for layer, names in WRAPPED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.total_s"] = "s"
            units[f"{layer}.{name}.self_s"] = "s"
    for layer in WRAPPED:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(COUNTS)
    units["trace.overhead"] = "ratio"
    return units


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _key_bytes(a) -> bytes:
    """Bytes of a matrix or point, also when given as a CovarianceMatrix."""
    return np.ascontiguousarray(getattr(a, "matrix", a), dtype=np.float64).tobytes()


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.job_id = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, run_id, job_id)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._keys: defaultdict[str, set] = defaultdict(set)
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()  # counters are updated from pool threads too
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        stacks, spans, ids, main = self._stacks, self.spans, self._ids, self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack and thread != main else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, thread, self.run_id, self.job_id))
            if count is not None:
                with self._lock:
                    count(self, args, kwargs, result)
            return result

        return wrapper

    def seen(self, metric: str, key) -> bool:
        """Record ``key`` under ``metric``; True if it was recorded before."""
        keys = self._keys[metric]
        if key in keys:
            return True
        keys.add(key)
        return False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED and rebind all references to it."""
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "gaussapprox" or n.startswith("gaussapprox."))}
        for layer, names in WRAPPED.items():
            home = sys.modules[f"gaussapprox.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig, _COUNTERS.get(f"{layer}.{name}"))
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, orig))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls, total and self time, per-layer self time and share, counts.

        Self time is a span's duration minus the union of its child spans'
        intervals, so children running in parallel threads are not
        subtracted twice.
        """
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for sid, name, start, end, *_ in self.spans:
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - covered

        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.total_s"] = total[key]
                out[f"{key}.self_s"] = self_time[key]
        for layer, names in WRAPPED.items():
            layer_self = sum(self_time[f"{layer}.{n}"] for n in names)
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = layer_self / wall_s if wall_s > 0 else 0.0

        counts = self.counts
        contraction_calls = calls["chaos.contraction_norm_sq"]
        distinct = len(self._keys["chaos.contraction_norm_sq"])
        hessian_points = len(self._keys["stein.u0_hessian"])
        rule_calls = calls["stein.gaussian_rule"]
        derived = {
            "chaos.contraction_norm_sq.distinct": distinct,
            "chaos.contraction_norm_sq.useful_ratio":
                distinct / contraction_calls if contraction_calls else 0.0,
            "stein.u0_hessian.per_point":
                calls["stein.u0_hessian"] / hessian_points if hessian_points else 0.0,
            "stein.gaussian_rule.hit_ratio":
                counts["stein.gaussian_rule.hits"] / rule_calls if rule_calls else 0.0,
        }
        for name in COUNTS:
            out[name] = derived[name] if name in derived else counts[name]
        return out


# -- counters ------------------------------------------------------------------
# Each receives (tracer, args, kwargs, result) of one call of its function.


def _quadrature_nodes(quad, dim: int) -> int:
    """u-nodes times points of the inner Gaussian rule."""
    if quad is None:
        from gaussapprox.stein import default_quadrature

        quad = default_quadrature(dim)
    points = quad.gh_order ** dim if quad.gh_order is not None else quad.mc_size
    return quad.u_nodes * points


def _count_rho(t, args, kwargs, result):
    t.counts["fgn.rho.lags"] += getattr(result, "size", 1)


def _count_sigma(t, args, kwargs, result):
    t.counts["fgn.sigma_bm.lags"] += result.lags


def _count_sample_fgn(t, args, kwargs, result):
    if result.method == "circulant":
        n = int(_arg(args, kwargs, 1, "n"))
        t.counts["fgn.sample_fgn.embed_points"] += 1 << max(1, 2 * n - 1).bit_length()
    else:
        t.counts["fgn.sample_fgn.cholesky"] += 1


def _count_contraction(t, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    r = _arg(args, kwargs, 1, "r")
    h = _arg(args, kwargs, 2, "h")
    t.seen("chaos.contraction_norm_sq", (float(h), f.rank, int(r), f.size))
    t.counts["chaos.contraction_norm_sq.block_sq"] += f.size**2


def _count_normals(t, args, kwargs, result):
    t.counts["rng.standard_normals.draws"] += result.size


def _count_hermite(t, args, kwargs, result):
    t.counts["hermite.hermite_eval.points"] += getattr(result, "size", 1)


def _count_simulate(t, args, kwargs, result):
    t.counts["empirical.simulate_bm_vector.replications"] += int(_arg(args, kwargs, 4, "m"))


def _count_u0_apply(t, args, kwargs, result):
    x = _arg(args, kwargs, 2, "x")
    t.counts["stein.u0_apply.nodes"] += _quadrature_nodes(_arg(args, kwargs, 3, "quad"), len(x))


def _count_u0_hessian(t, args, kwargs, result):
    g, cov, x = (_arg(args, kwargs, i, n) for i, n in enumerate(("g", "cov", "x")))
    t.seen("stein.u0_hessian", (g.name, _key_bytes(cov), _key_bytes(x)))


def _count_gaussian_rule(t, args, kwargs, result):
    cov, quad = _arg(args, kwargs, 0, "cov"), _arg(args, kwargs, 1, "quad")
    if t.seen("stein.gaussian_rule", (_key_bytes(cov), quad.key())):
        t.counts["stein.gaussian_rule.hits"] += 1


def _count_t_ab(t, args, kwargs, result):
    k = _arg(args, kwargs, 1, "k")
    dim = getattr(k, "dim", None) or len(k)
    t.counts["chatterjee.t_ab_matrix.nodes"] += _quadrature_nodes(_arg(args, kwargs, 3, "quad"), dim)


_COUNTERS = {
    "fgn.rho": _count_rho,
    "fgn.sigma_bm": _count_sigma,
    "fgn.sample_fgn": _count_sample_fgn,
    "chaos.contraction_norm_sq": _count_contraction,
    "rng.standard_normals": _count_normals,
    "hermite.hermite_eval": _count_hermite,
    "empirical.simulate_bm_vector": _count_simulate,
    "stein.u0_apply": _count_u0_apply,
    "stein.u0_hessian": _count_u0_hessian,
    "stein.gaussian_rule": _count_gaussian_rule,
    "chatterjee.t_ab_matrix": _count_t_ab,
}
