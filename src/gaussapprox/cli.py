"""Batch command-line front end.

Every experiment is a subcommand that prints one JSON report (UTF-8,
lower-snake-case keys) to stdout or ``--out``.  The report embeds the full
resolved configuration and master seed, so any run can be reproduced
bit-identically from its own output.  Reports are strict JSON: a result
that is not finite is a failure.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (non-PD target, hypothesis violation, a NaN or
infinite result); failures carry a machine-readable error object.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, chatterjee, empirical, quadrature, stein
from .batch import mean_se
from .chaos import (
    CONTRACTION_RTOL,
    bound_curve,
    check_matrices,
    fit_rate,
    kernel_family,
    rate_exponent,
    wasserstein_bound,
)
from .errors import GaussApproxError
from .linalg import (
    as_covariance,
    gaussian_pair_bound,
    hs_norm,
    matrix_from_json,
    matrix_to_json,
    prefactor,
    q_factor,
)
from .rng import hash64, standard_normals

#: Most oracle values a ``stein-check`` job may evaluate: points x u-nodes x
#: Gaussian-rule nodes x functions x (d + d^2), a gradient and a Hessian per
#: node, estimated before any point or node exists.
STEIN_CHECK_MAX_WORK = 10**10

SUBCOMMANDS = ("bound", "rates", "simulate", "malliavin", "stein-check", "chatterjee", "gaussian-pair")


def _parse_list(text: str, flag: str, kind: type, noun: str) -> list:
    """The comma-separated values of ``flag``, empty tokens skipped; a token
    that ``kind`` cannot read is refused by its flag."""
    vals = []
    for tok in text.split(","):
        if tok.strip() != "":
            try:
                vals.append(kind(tok))
            except ValueError:
                raise ValueError(f"{flag}: expected {noun}, got {tok!r}") from None
    return vals


def _parse_times(text: str) -> tuple[float, ...]:
    """Comma-separated increasing reals; the implicit t_0 = 0 may be included."""
    vals = tuple(_parse_list(text, "--times", float, "a number"))
    if not vals:
        raise ValueError("empty --times")
    if vals[0] != 0.0:
        vals = (0.0,) + vals
    return vals


def _positive_int(text: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of a coordinate flag: a finite real."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_n_list(text: str) -> list[int]:
    return _parse_list(text, "--n", int, "an integer")


def _parse_matrix(inline: str | None, matrix_file: str | None, key: str, d: int | None):
    """Resolve a target matrix from inline JSON, else a matrix file, else the identity of size d.

    A file's list or object with 'dim' or 'rows' is one matrix for every flag; any other object
    is keyed by flag name, a missing key counting as no source.  A ``null`` is refused."""
    if inline is not None:
        return matrix_from_json(json.loads(inline), f"matrix {key}")
    if matrix_file is not None:
        with open(matrix_file, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict) or "dim" in blob or "rows" in blob:
            return matrix_from_json(blob, f"matrix {key}")
        if key in blob:
            return matrix_from_json(blob[key], f"matrix {key}")
    if d is not None:
        return np.eye(d)
    if matrix_file is not None:
        raise ValueError(f"matrix {key} required: --matrix-file {matrix_file} has no key {key!r}")
    raise ValueError(f"matrix {key} required (inline or --matrix-file)")


def _check_seed(args) -> None:
    """A master seed keys 64-bit streams; refuse one that ``hash64`` would fold onto another."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        raise ValueError(f"--seed must lie in [0, 2**64), got {seed}")


def _non_finite(obj, path: str = ""):
    """(path, value) of the first non-finite float of a report in key order, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        children = ((f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in children)), None)


def _dumps(report: dict) -> str:
    """The report as strict JSON; a NaN or infinity raises ``GaussApproxError`` naming its key."""
    try:
        return json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        path, value = _non_finite(report)
        raise GaussApproxError(f"{path} = {value} is not finite; a report is strict JSON") from None


def _error(exc: Exception) -> str:
    """The machine-readable error object of a failed run."""
    return _dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each _cmd_* returns the report's config and results; main adds the
# subcommand name and config.threads.


def _cmd_bound(args) -> tuple[dict, dict]:
    times = _parse_times(args.times)
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    fam = kernel_family(args.H, args.q, args.n, times)
    report = wasserstein_bound(fam, c)
    config = {"h": args.H, "q": args.q, "n": args.n, "times": list(times), "c": matrix_to_json(c)}
    return config, {
        "bound_report": report.to_json(),
        "diagnostics": {"contraction_rtol": CONTRACTION_RTOL},
    }


def _cmd_rates(args) -> tuple[dict, dict]:
    times = _parse_times(args.times)
    n_list = _parse_n_list(args.n)
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    # fit_rate's own check would run only after every bound; bound_curve
    # builds and work-checks every level before its first sum
    if len(n_list) < 3:
        raise ValueError("need at least three points to fit a rate")
    curve = bound_curve(args.H, args.q, times, n_list, c)
    fit = fit_rate(curve)
    config = {"h": args.H, "q": args.q, "n_list": n_list, "times": list(times), "c": matrix_to_json(c)}
    return config, {
        "points": [[n, v] for n, v in curve],
        "fit": {"slope": fit.slope, "intercept": fit.intercept, "rss": fit.rss},
        "rate_exponent": rate_exponent(args.H, args.q),
        "diagnostics": {"contraction_rtol": CONTRACTION_RTOL},
    }


def _cmd_simulate(args) -> tuple[dict, dict]:
    times = _parse_times(args.times)
    if args.m < 2:
        raise ValueError("simulate needs --m >= 2 (sample covariance)")
    batch = empirical.simulate_bm_vector(args.H, args.q, args.n, times, args.m, args.seed)
    values = batch.values
    results = {
        "mean": values.mean(axis=0).tolist(),
        "covariance": np.cov(values.T, ddof=1).reshape(batch.d, batch.d).tolist(),
        "fourth_moments": np.mean(values**4, axis=0).tolist(),
        "provenance": batch.provenance,
        "diagnostics": batch.diagnostics,
    }
    if args.dump_samples:
        with open(args.dump_samples, "w", encoding="utf-8", newline="\n") as fh:
            batch.to_csv(fh)
        results["samples_csv"] = args.dump_samples
    config = {
        "h": args.H, "q": args.q, "n": args.n, "times": list(times),
        "m": args.m, "seed": args.seed, "dump_samples": args.dump_samples,
    }
    return config, results


def _cmd_malliavin(args) -> tuple[dict, dict]:
    times = _parse_times(args.times)
    if args.m < 2:
        raise ValueError("malliavin needs --m >= 2 (standard errors)")
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    fam = kernel_family(args.H, args.q, args.n, times)
    # the report prints six d x d matrices (C, the lemma entries, and the mean
    # and standard error of the Gram matrices and of their squared deviation
    # from C), counted before the bound's first sum and before any path
    check_matrices(fam.dim, 6, "malliavin")
    # the bound refuses an oversize family before C is eigensolved, and then a
    # C that is not a covariance of the family's size, before any path is drawn
    lemma = wasserstein_bound(fam, c).lemma_entries
    grams, diagnostics = empirical.malliavin_grams(fam, args.m, args.seed)
    gram_mean, gram_se = mean_se(grams)
    dev_sq_mean, dev_sq_se = mean_se((c[None, :, :] - grams) ** 2)
    config = {
        "h": args.H, "q": args.q, "n": args.n, "times": list(times),
        "m": args.m, "seed": args.seed, "c": matrix_to_json(c),
    }
    return config, {
        "gram_mean": gram_mean.tolist(), "gram_se": gram_se.tolist(),
        "dev_sq_mean": dev_sq_mean.tolist(), "dev_sq_se": dev_sq_se.tolist(),
        "lemma_entries": lemma.tolist(),
        "diagnostics": diagnostics,
    }


def _u_nodes(args) -> int:
    """--quad-unodes, or the default; the parser leaves ``quadrature`` unloaded."""
    return quadrature.DEFAULT_U_NODES if args.quad_unodes is None else args.quad_unodes


def _quadrature(args, u_nodes: int, order: int) -> quadrature.QuadratureSpec:
    """The spec of --quad-unodes and --quad-gh-order; a value out of range is refused by its flag."""
    for flag, value, lo, hi in (("--quad-unodes", u_nodes, quadrature.U_MIN_NODES, quadrature.U_MAX_NODES),
                                ("--quad-gh-order", order, quadrature.GH_MIN_ORDER, quadrature.GH_MAX_ORDER)):
        if not lo <= value <= hi:
            raise ValueError(f"{args.subcommand} needs {flag} in [{lo}, {hi}], got {value}")
    return quadrature.QuadratureSpec(u_nodes=u_nodes, gh_order=order)


def _cmd_stein_check(args) -> tuple[dict, dict]:
    c = _parse_matrix(args.C, args.matrix_file, "C", 2 if args.d is None else args.d)
    cov = as_covariance(c)
    if args.d is not None and cov.dim != args.d:
        raise ValueError(f"--d {args.d} disagrees with C of dim {cov.dim}")
    order = quadrature.default_quadrature(cov.dim).gh_order if args.quad_gh_order is None else args.quad_gh_order
    u_nodes = _u_nodes(args)
    names = args.functions.split(",") if args.functions else None
    registry = {f.name: f for f in stein.lipschitz_test_functions(cov.dim)}
    for name in names or ():
        if name not in registry:
            raise ValueError(f"--functions: no test function {name!r}; "
                             f"registered: {', '.join(registry)}")
    chosen = [registry[n] for n in names] if names else list(registry.values())
    # counted in closed form before _quadrature bounds the flags; an order
    # below its floor counts one node
    nodes = args.grid_steps**2 * u_nodes * quadrature.rule_size(cov.dim, max(order, 1)) * len(chosen)
    work = nodes * cov.dim * (cov.dim + 1)
    if work > STEIN_CHECK_MAX_WORK:
        raise ValueError(f"stein-check would evaluate about {work:.2e} oracle values (points x "
                         f"u-nodes x rule nodes x functions x (d + d^2)), over the cap "
                         f"{STEIN_CHECK_MAX_WORK:.0e}; lower --grid-steps, --quad-unodes, "
                         "--quad-gh-order or --functions")
    quad = _quadrature(args, u_nodes, order)
    lo, hi = args.grid_lo, args.grid_hi
    if cov.dim == 2:
        lo, hi = -3.0 if lo is None else lo, 3.0 if hi is None else hi
        pts = stein.grid_points(lo, hi, args.grid_steps)
    elif lo is not None or hi is not None:
        raise ValueError(f"--grid-lo and --grid-hi set the d = 2 grid; at d = {cov.dim} "
                         "the points are a seeded scatter")
    else:
        # regular grids explode beyond d = 2; use a seeded scatter instead
        pts = 1.5 * standard_normals(hash64(args.seed, "stein-grid"), (args.grid_steps**2, cov.dim))
    reports = stein.stein_report(chosen, cov, pts, quad)
    config = {
        "c": matrix_to_json(cov.matrix), "seed": args.seed,
        "functions": [g.name for g in chosen],
        "grid": {"lo": lo, "hi": hi, "steps": args.grid_steps},
        "quadrature": dataclasses.asdict(quad),
    }
    return config, {"checks": reports}


def _cmd_chatterjee(args) -> tuple[dict, dict]:
    k = _parse_matrix(args.K, args.matrix_file, "K", None)
    kcov = as_covariance(k)
    fn_cfg = json.loads(args.functions) if args.functions else {"type": "componentwise", "kind": "identity", "n": kcov.dim}
    family = chatterjee.family_from_config(fn_cfg, k=kcov)
    c = _parse_matrix(args.C, args.matrix_file, "C", family.dim)
    # every family the CLI builds averages J exactly or by a 1-d Gauss-Hermite rule
    order = quadrature.DEFAULT_GH_ORDER if args.quad_gh_order is None else args.quad_gh_order
    quad = _quadrature(args, _u_nodes(args), order)
    if args.m < 2:
        raise ValueError("chatterjee needs --m >= 2 (standard errors)")
    report = chatterjee.chatterjee_bound(family, kcov, c, mc_size=args.m, seed=args.seed, quad=quad)
    config = {
        "k": matrix_to_json(kcov.matrix), "c": matrix_to_json(np.asarray(c)),
        "functions": fn_cfg, "m": args.m, "seed": args.seed,
        "quadrature": dataclasses.asdict(quad),
    }
    return config, report.to_json()


def _cmd_gaussian_pair(args) -> tuple[dict, dict]:
    c = _parse_matrix(args.C, args.matrix_file, "C", None)
    k = _parse_matrix(args.K, args.matrix_file, "K", None)
    ccov, kcov = as_covariance(c), as_covariance(k)
    config = {"c": matrix_to_json(ccov.matrix), "k": matrix_to_json(kcov.matrix)}
    return config, {
        "q_factor": q_factor(ccov, kcov),
        "hs_distance": hs_norm(ccov.matrix - kcov.matrix),
        "bound": gaussian_pair_bound(kcov, ccov),
        "diagnostics": {
            "cond_c": ccov.cond, "cond_k": kcov.cond, "prefactor_c": prefactor(ccov),
        },
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gaussapprox",
        description="Wasserstein bounds for multivariate Gaussian approximation, with simulation checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, bm: bool = False, matrices: bool = False, seed: bool = False,
               quad: bool = False):
        """Every subcommand takes --out and --threads; the other groups only where read.

        --threads is validated and echoed in the report's config; the
        replication engine is serial, so it changes neither results nor
        scheduling.
        """
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted and echoed in the config; no effect")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if matrices:
            p.add_argument("--matrix-file", type=str, default=None)
            p.add_argument("--C", type=str, default=None, help="target covariance as inline JSON")
        if bm:
            p.add_argument("--H", type=float, required=True)
            p.add_argument("--q", type=int, required=True)
            p.add_argument("--times", type=str, default="1")
        if quad:
            p.add_argument("--quad-unodes", type=int, default=None)
            p.add_argument("--quad-gh-order", type=int, default=None)

    p = sub.add_parser("bound", help="Wasserstein bound for one discretization level")
    common(p, bm=True, matrices=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("rates", help="bound curve over levels and its log-log slope")
    common(p, bm=True, matrices=True)
    p.add_argument("--n", type=str, required=True, help="comma-separated increasing levels")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("simulate", help="Monte Carlo sample of the increment vector")
    common(p, bm=True, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--dump-samples", type=str, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("malliavin", help="pathwise Malliavin Gram matrix statistics")
    common(p, bm=True, matrices=True, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=500)
    p.set_defaults(func=_cmd_malliavin)

    p = sub.add_parser("stein-check", help="Stein equation residual and Hessian bound")
    common(p, matrices=True, seed=True, quad=True)
    p.add_argument("--d", type=_positive_int, default=None,
                   help="dimension of the identity target without --C (default 2)")
    p.add_argument("--functions", type=str, default=None, help="comma-separated registry names")
    p.add_argument("--grid-lo", type=_finite_float, default=None, help="d = 2 only (default -3)")
    p.add_argument("--grid-hi", type=_finite_float, default=None, help="d = 2 only (default 3)")
    p.add_argument("--grid-steps", type=_positive_int, default=21)
    p.set_defaults(func=_cmd_stein_check)

    p = sub.add_parser("chatterjee", help="smooth-function bound for a finite Gaussian vector")
    common(p, matrices=True, seed=True, quad=True)
    p.add_argument("--K", type=str, default=None, help="input covariance as inline JSON")
    p.add_argument("--functions", type=str, default=None, help="function family JSON")
    p.add_argument("--m", type=int, default=500)
    p.set_defaults(func=_cmd_chatterjee)

    p = sub.add_parser("gaussian-pair", help="Gaussian-vs-Gaussian Wasserstein bound")
    common(p, matrices=True)
    p.add_argument("--K", type=str, default=None)
    p.set_defaults(func=_cmd_gaussian_pair)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seed(args)
        config, results = args.func(args)
        config["threads"] = args.threads
        # a non-finite value raises GaussApproxError here, a numerical failure
        text = _dumps({"subcommand": args.subcommand, "config": config, "results": results})
        code = 0
    except (GaussApproxError, np.linalg.LinAlgError) as exc:
        text, code = _error(exc), 3
    except (ValueError, OSError) as exc:
        text, code = _error(exc), 2
    try:
        _emit(text, args.out)
    except OSError as exc:
        # an unwritable --out is a configuration error, reported where it can be read
        sys.stdout.write(_error(exc))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
