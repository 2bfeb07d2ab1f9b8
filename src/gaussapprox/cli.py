"""Batch command-line front end.

Every experiment is a subcommand that prints one JSON report (UTF-8,
lower-snake-case keys) to stdout or ``--out``.  The report embeds the full
resolved configuration and master seed, so any run can be reproduced
bit-identically from its own output.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (non-PD target, hypothesis violation); failures
carry a machine-readable error object.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .chaos import bound_curve, kernel_family, rate_exponent, wasserstein_bound
from .chatterjee import chatterjee_bound, family_from_config, gaussian_pair_bound
from .empirical import fit_rate, malliavin_grams, simulate_bm_vector
from .errors import GaussApproxError
from .linalg import as_covariance, matrix_from_json, matrix_to_json, q_factor, hs_norm
from .rng import hash64, standard_normals
from .stein import (
    QuadratureSpec,
    default_quadrature,
    grid_points,
    lipschitz_test_functions,
    stein_report,
)

SUBCOMMANDS = ("bound", "rates", "simulate", "malliavin", "stein-check", "chatterjee", "gaussian-pair")


def _parse_times(text: str) -> tuple[float, ...]:
    """Comma-separated increasing reals; the implicit t_0 = 0 may be included."""
    vals = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
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


def _parse_n_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_matrix(inline: str | None, matrix_file: str | None, key: str, d: int | None):
    """Resolve a target matrix from inline JSON, a matrix file, or identity."""
    obj = None
    if inline is not None:
        obj = json.loads(inline)
    elif matrix_file is not None:
        with open(matrix_file, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        obj = blob.get(key, blob) if isinstance(blob, dict) else blob
    if obj is None:
        if d is None:
            raise ValueError(f"matrix {key} required (inline or --matrix-file)")
        return np.eye(d)
    if isinstance(obj, dict):
        if "rows" not in obj:
            raise ValueError(f"matrix {key}: JSON object must carry 'dim' and 'rows'")
        return matrix_from_json(obj)
    return np.asarray(obj, dtype=np.float64)


def _quadrature(args, d: int) -> QuadratureSpec:
    if args.mc_inner is not None:
        return QuadratureSpec(
            u_nodes=args.quad_unodes, gh_order=None,
            mc_size=args.mc_inner, mc_seed=hash64(args.seed, "inner"),
        )
    if args.quad_gh_order is not None:
        return QuadratureSpec(u_nodes=args.quad_unodes, gh_order=args.quad_gh_order)
    return default_quadrature(d, u_nodes=args.quad_unodes, mc_seed=hash64(args.seed, "inner"))


def _quad_config(quad: QuadratureSpec) -> dict:
    return {
        "u_nodes": quad.u_nodes,
        "gh_order": quad.gh_order,
        "mc_size": quad.mc_size,
        "mc_seed": quad.mc_seed,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(args) -> dict:
    times = _parse_times(args.times)
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    fam = kernel_family(args.H, args.q, args.n, times)
    report = wasserstein_bound(fam, c)
    return {
        "subcommand": "bound",
        "config": {
            "h": args.H, "q": args.q, "n": args.n, "times": list(times),
            "c": matrix_to_json(c), "threads": args.threads,
        },
        "results": {"bound_report": report.to_json()},
    }


def _cmd_rates(args) -> dict:
    times = _parse_times(args.times)
    n_list = _parse_n_list(args.n)
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    curve = bound_curve(args.H, args.q, times, n_list, c)
    fit = fit_rate(curve)
    return {
        "subcommand": "rates",
        "config": {
            "h": args.H, "q": args.q, "n_list": n_list, "times": list(times),
            "c": matrix_to_json(c), "threads": args.threads,
        },
        "results": {
            "points": [[n, v] for n, v in curve],
            "fit": {"slope": fit.slope, "intercept": fit.intercept, "rss": fit.rss},
            "rate_exponent": rate_exponent(args.H, args.q),
        },
    }


def _cmd_simulate(args) -> dict:
    times = _parse_times(args.times)
    if args.m < 2:
        raise ValueError("simulate needs --m >= 2 (sample covariance)")
    batch = simulate_bm_vector(args.H, args.q, args.n, times, args.m, args.seed,
                               threads=args.threads)
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
    return {
        "subcommand": "simulate",
        "config": {
            "h": args.H, "q": args.q, "n": args.n, "times": list(times),
            "m": args.m, "seed": args.seed, "threads": args.threads,
            "dump_samples": args.dump_samples,
        },
        "results": results,
    }


def _cmd_malliavin(args) -> dict:
    times = _parse_times(args.times)
    if args.m < 2:
        raise ValueError("malliavin needs --m >= 2 (standard errors)")
    c = _parse_matrix(args.C, args.matrix_file, "C", len(times) - 1)
    cov = as_covariance(c)
    fam = kernel_family(args.H, args.q, args.n, times)
    if cov.dim != fam.dim:
        raise ValueError(f"C has dim {cov.dim}, expected {fam.dim}")
    grams, min_ratio = malliavin_grams(fam, args.m, args.seed, threads=args.threads)
    dev_sq = (cov.matrix[None, :, :] - grams) ** 2
    lemma = wasserstein_bound(fam, cov).lemma_entries
    return {
        "subcommand": "malliavin",
        "config": {
            "h": args.H, "q": args.q, "n": args.n, "times": list(times),
            "m": args.m, "seed": args.seed, "c": matrix_to_json(cov.matrix),
            "threads": args.threads,
        },
        "results": {
            "gram_mean": grams.mean(axis=0).tolist(),
            "gram_se": (grams.std(axis=0, ddof=1) / np.sqrt(args.m)).tolist(),
            "dev_sq_mean": dev_sq.mean(axis=0).tolist(),
            "dev_sq_se": (dev_sq.std(axis=0, ddof=1) / np.sqrt(args.m)).tolist(),
            "lemma_entries": lemma.tolist(),
            "diagnostics": {"embedding_min_ratio": min_ratio},
        },
    }


def _cmd_stein_check(args) -> dict:
    c = _parse_matrix(args.C, args.matrix_file, "C", args.d)
    cov = as_covariance(c)
    quad = _quadrature(args, cov.dim)
    if cov.dim == 2:
        pts = grid_points(args.grid_lo, args.grid_hi, args.grid_steps, d=2)
    else:
        # regular grids explode beyond d = 2; use a seeded scatter instead
        pts = 1.5 * standard_normals(hash64(args.seed, "stein-grid"), (args.grid_steps**2, cov.dim))
    names = args.functions.split(",") if args.functions else None
    registry = {f.name: f for f in lipschitz_test_functions(cov.dim)}
    chosen = [registry[n] for n in names] if names else list(registry.values())
    reports = [stein_report(g, cov, pts, quad) for g in chosen]
    return {
        "subcommand": "stein-check",
        "config": {
            "c": matrix_to_json(cov.matrix), "seed": args.seed,
            "functions": [g.name for g in chosen],
            "grid": {"lo": args.grid_lo, "hi": args.grid_hi, "steps": args.grid_steps},
            "quadrature": _quad_config(quad), "threads": args.threads,
        },
        "results": {"checks": reports},
    }


def _cmd_chatterjee(args) -> dict:
    k = _parse_matrix(args.K, args.matrix_file, "K", None)
    kcov = as_covariance(k)
    fn_cfg = json.loads(args.functions) if args.functions else {"type": "componentwise", "kind": "identity", "n": kcov.dim}
    family = family_from_config(fn_cfg, k=kcov)
    c = _parse_matrix(args.C, args.matrix_file, "C", family.dim)
    quad = _quadrature(args, kcov.dim)
    report = chatterjee_bound(family, kcov, c, mc_size=args.m, seed=args.seed, quad=quad)
    return {
        "subcommand": "chatterjee",
        "config": {
            "k": matrix_to_json(kcov.matrix), "c": matrix_to_json(np.asarray(c)),
            "functions": fn_cfg, "m": args.m, "seed": args.seed,
            "quadrature": _quad_config(quad), "threads": args.threads,
        },
        "results": report.to_json(),
    }


def _cmd_gaussian_pair(args) -> dict:
    c = _parse_matrix(args.C, args.matrix_file, "C", None)
    k = _parse_matrix(args.K, args.matrix_file, "K", None)
    ccov, kcov = as_covariance(c), as_covariance(k)
    return {
        "subcommand": "gaussian-pair",
        "config": {
            "c": matrix_to_json(ccov.matrix), "k": matrix_to_json(kcov.matrix),
            "threads": args.threads,
        },
        "results": {
            "q_factor": q_factor(ccov, kcov),
            "hs_distance": hs_norm(ccov.matrix - kcov.matrix),
            "bound": gaussian_pair_bound(kcov, ccov),
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussapprox",
        description="Wasserstein bounds for multivariate Gaussian approximation, with simulation checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, bm: bool = False, matrices: bool = False, seed: bool = False,
               quad: bool = False):
        """Every subcommand takes --out and --threads; the other groups only where read."""
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=_positive_int, default=1)
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
            p.add_argument("--quad-unodes", type=int, default=64)
            p.add_argument("--quad-gh-order", type=int, default=None)
            p.add_argument("--mc-inner", type=int, default=None)

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
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--functions", type=str, default=None, help="comma-separated registry names")
    p.add_argument("--grid-lo", type=float, default=-3.0)
    p.add_argument("--grid-hi", type=float, default=3.0)
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
        report = args.func(args)
    except GaussApproxError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 3
    except np.linalg.LinAlgError as exc:
        _emit({"error": {"type": "LinAlgError", "message": str(exc)}}, args.out)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 2
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
