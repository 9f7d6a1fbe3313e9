"""Command-line interface: compute, sweep, derivative, markov, verify.

Reports are JSON on stdout with sorted keys and no wall-clock content, so
identical inputs and configuration produce bit-identical output; pass
``--timing`` to append wall-clock seconds. Sweeps write CSV.

Exit codes: 0 success (certified), 1 uncertified solve (unless
``--allow-uncertified``), 2 file/parse errors, 3 validation errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    entropy_limit_sweep,
    large_scale_expansion,
    point_vs_uniform_benchmark,
    transport_limit_sweep,
)
from .core import divergence, verify_optimizers
from .divergences import relative_entropy, transport_cost
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    PointSet,
    ValidationError,
    load_cost,
    load_measure,
    merge_supports,
    metric_cost,
    validate_cost,
)
from .markov_uq import (
    GaussianAR1,
    QuadraticFunction,
    ar1_max_quadratic_rate,
    ar1_quadratic_representable,
    ar1_risk_quadratic,
    ergodic_bound,
    invert_risk_map,
    load_kernel,
)
from .sensitivity import directional_derivative

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


def _points_list(ps: PointSet) -> list:
    return [list(p) if isinstance(p, tuple) else p for p in ps.points]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _emit(report: dict, args, started: float) -> None:
    if args.timing:
        report["timing_s"] = time.perf_counter() - started
    text = json.dumps(report, sort_keys=True, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _resolve_cost(spec: str, scale_b, point_set: PointSet) -> CostMatrix:
    if spec in ("euclidean", "manhattan"):
        return metric_cost(point_set, spec, scale_b if scale_b is not None else 1.0)
    cost = load_cost(spec, point_set)
    if scale_b is not None:
        cost = cost.with_scale(scale_b)
    return cost


def _load_inputs(args):
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    ps, mu, nu = merge_supports(mu, nu)
    cost = _resolve_cost(args.cost, args.scale_b, ps)
    return ps, mu, nu, cost


def _solution_payload(sol, include_plan: bool) -> dict:
    out = {
        "value": sol.value,
        "dual_value": sol.dual_value,
        "duality_gap": sol.duality_gap,
        "certified": sol.certified,
        "iterations": sol.iterations,
        "gamma_star": [float(w) for w in sol.measure.weights],
        "g_star": [float(v) for v in sol.potential.values],
    }
    if include_plan:
        out["plan"] = sol.plan.tolist()
    return out


def cmd_compute(args) -> int:
    started = time.perf_counter()
    ps, mu, nu, cost = _load_inputs(args)
    inputs = {
        "points": _points_list(ps),
        "mu": [float(w) for w in mu.weights],
        "nu": [float(w) for w in nu.weights],
        "cost": cost.entries.tolist(),
        "scale_b": cost.scale_b,
    }
    results: dict = {}
    certificates: dict = {}
    certified = True

    if args.what in ("gamma", "all"):
        sol = divergence(mu, nu, cost, tol=args.tol, max_iter=args.max_iter)
        results["gamma"] = _solution_payload(sol, args.include_plan)
        report = verify_optimizers(sol.measure, sol.potential, mu, nu, cost, tol=args.tol)
        certificates["gamma"] = {
            "duality_gap": sol.duality_gap,
            "gibbs_residual": report.gibbs_residual,
            "transport_residual": report.transport_residual,
            "certified": sol.certified,
        }
        certified = certified and sol.certified
    if args.what in ("entropy", "all"):
        value = relative_entropy(mu, nu)
        results["entropy"] = {"value": value if np.isfinite(value) else "inf"}
        certificates["entropy"] = {"exact": True}
    if args.what in ("transport", "all"):
        ts = transport_cost(mu, nu, cost)
        results["transport"] = {"value": ts.value}
        certificates["transport"] = {
            "marginal_residual": ts.marginal_residual(mu, nu),
            "complementary_slackness_residual":
                ts.complementary_slackness_residual(cost),
        }
    if args.what == "all":
        g = results["gamma"]["value"]
        r = results["entropy"]["value"]
        w = results["transport"]["value"]
        cap = w if r == "inf" else min(r, w)
        results["inequality"] = {
            "divergence_leq_min_entropy_transport":
                bool(results["gamma"]["dual_value"] <= cap * (1 + 1e-12) + 1e-300),
            "min_entropy_transport": cap,
            "divergence": g,
        }

    report = {
        "command": "compute",
        "what": args.what,
        "inputs_digest": _digest(inputs),
        "inputs": inputs,
        "config": {"tol": args.tol, "max_iter": args.max_iter},
        "results": results,
        "certificates": certificates,
    }
    _emit(report, args, started)
    if not certified and not args.allow_uncertified:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def cmd_sweep(args) -> int:
    _, mu, nu, cost = _load_inputs(args)
    scales = [float(s) for s in args.scales.split(",") if s.strip()]
    if not scales:
        raise ValidationError("no scales given")
    if args.mode == "entropy":
        sweep = entropy_limit_sweep(mu, nu, cost, scales, tol=args.tol)
        rows = [(s, v, sweep.reference) for s, v in zip(sweep.scales, sweep.values)]
        header = ["scale", "value", "reference"]
    elif args.mode == "transport":
        sweep = transport_limit_sweep(mu, nu, cost, scales, tol=args.tol)
        rows = [(s, v, sweep.reference, r)
                for s, v, r in zip(sweep.scales, sweep.values, sweep.ratios)]
        header = ["scale", "value", "reference", "ratio"]
    else:
        exp = large_scale_expansion(mu, nu, cost, scales, tol=args.tol)
        rows = [(s, v, s * exp.leading_coefficient + exp.constant, r)
                for s, v, r in zip(exp.scales, exp.values, exp.remainders)]
        header = ["scale", "value", "reference", "remainder"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
    if not getattr(args, "quiet", False):
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_derivative(args) -> int:
    started = time.perf_counter()
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    ps, mu, nu = merge_supports(mu, nu)
    rho_raw = load_measure(args.rho, signed=True)
    weights = np.zeros(ps.n)
    for p, w in zip(rho_raw.point_set.points, rho_raw.weights):
        weights[ps.index(p)] += w
    from .measures import SignedMeasure

    rho = SignedMeasure(ps, weights)
    cost = _resolve_cost(args.cost, args.scale_b, ps)
    rep = directional_derivative(mu, nu, cost, rho, epsilon=args.epsilon)
    inputs = {
        "points": _points_list(ps),
        "mu": [float(w) for w in mu.weights],
        "nu": [float(w) for w in nu.weights],
        "rho": [float(w) for w in rho.weights],
        "cost": cost.entries.tolist(),
        "scale_b": cost.scale_b,
    }
    report = {
        "command": "derivative",
        "inputs_digest": _digest(inputs),
        "inputs": inputs,
        "config": {"tol": args.tol, "max_iter": args.max_iter, "epsilon": args.epsilon},
        "results": {
            "analytic": rep.analytic,
            "finite_diff": rep.finite_diff,
            "discrepancy": rep.discrepancy,
            "value": rep.value,
            "value_shifted": rep.value_shifted,
        },
        "certificates": {"epsilon": rep.epsilon},
    }
    _emit(report, args, started)
    return EXIT_OK


def cmd_markov(args) -> int:
    started = time.perf_counter()
    if args.markov_what == "gaussian":
        model = GaussianAR1(alpha=args.alpha, sigma=args.sigma)
        peak = ar1_max_quadratic_rate(model)
        results = {
            "b_star": peak.b_star,
            "k_star": peak.k_star,
            "search_b": peak.search_b,
            "search_k": peak.search_k,
        }
        if args.quad is not None:
            q = QuadraticFunction(args.quad, args.lin, 0.0)
            image, valid = ar1_risk_quadratic(model, q, args.growth)
            results["risk_quadratic"] = {
                "quadratic": image.quadratic,
                "linear": image.linear,
                "constant": image.constant,
                "valid": valid,
            }
            results["representable"] = ar1_quadratic_representable(model, q)
        report = {
            "command": "markov gaussian",
            "inputs_digest": _digest({"alpha": args.alpha, "sigma": args.sigma}),
            "config": {},
            "results": results,
            "certificates": {"golden_section_error": abs(peak.search_k - peak.k_star)},
        }
        _emit(report, args, started)
        return EXIT_OK

    p_kernel = load_kernel(args.p)
    f = _load_vector(args.f, p_kernel.n)
    inputs = {"P": p_kernel.matrix.tolist(), "f": [float(x) for x in f],
              "cost": p_kernel.cost.entries.tolist(), "scale_b": p_kernel.cost.scale_b}
    if args.markov_what == "membership":
        inv = invert_risk_map(p_kernel, f)
        report = {
            "command": "markov membership",
            "inputs_digest": _digest(inputs),
            "config": {"tol": args.tol},
            "results": {
                "g": inv.g.tolist(),
                "a": inv.a,
                "converged": inv.converged,
                "lipschitz_feasible": inv.lipschitz_feasible,
                "representable": inv.representable,
                "jacobian_rank": inv.jacobian_rank,
                "diagnosis": inv.diagnosis,
            },
            "certificates": {"residual": inv.residual,
                             "lipschitz_excess": inv.lipschitz_excess},
        }
        _emit(report, args, started)
        return EXIT_OK if inv.representable else EXIT_UNCERTIFIED

    q_kernel = load_kernel(args.q)
    inputs["Q"] = q_kernel.matrix.tolist()
    rep = ergodic_bound(p_kernel, q_kernel, f)
    report = {
        "command": "markov bound",
        "inputs_digest": _digest(inputs),
        "config": {"tol": args.tol},
        "results": {
            "growth_rate": rep.growth_rate,
            "holds": rep.holds,
            "classes": [
                {
                    "states": list(cb.states),
                    "stationary": cb.stationary.tolist(),
                    "lhs": cb.lhs,
                    "rhs": cb.rhs,
                    "slack": cb.slack,
                    "per_state_divergence": cb.per_state_divergence.tolist(),
                }
                for cb in rep.class_bounds
            ],
        },
        "certificates": {"potential": rep.potential.tolist()},
    }
    _emit(report, args, started)
    return EXIT_OK if rep.holds else EXIT_UNCERTIFIED


def cmd_verify(args) -> int:
    started = time.perf_counter()
    with open(args.report) as fh:
        saved = json.load(fh)
    inputs = saved["inputs"]
    ps = PointSet(tuple(tuple(p) if isinstance(p, list) else p
                        for p in inputs["points"]))
    mu = DiscreteMeasure(ps, np.asarray(inputs["mu"]))
    nu = DiscreteMeasure(ps, np.asarray(inputs["nu"]))
    cost = validate_cost(np.asarray(inputs["cost"]), inputs.get("scale_b", 1.0))
    payload = saved["results"]["gamma"]
    gamma = DiscreteMeasure(ps, np.asarray(payload["gamma_star"]))
    g = np.asarray(payload["g_star"])
    rep = verify_optimizers(gamma, g, mu, nu, cost, tol=args.tol)
    report = {
        "command": "verify",
        "inputs_digest": saved.get("inputs_digest"),
        "config": {"tol": args.tol},
        "results": {
            "optimal": rep.optimal,
            "feasible": rep.feasible,
            "gibbs_residual": rep.gibbs_residual,
            "transport_residual": rep.transport_residual,
            "lipschitz_excess": rep.lipschitz_excess,
        },
        "certificates": {"tol": args.tol},
    }
    _emit(report, args, started)
    return EXIT_OK if rep.optimal else EXIT_UNCERTIFIED


def cmd_benchmark(args) -> int:
    started = time.perf_counter()
    br = point_vs_uniform_benchmark(args.scale_b or 10.0, args.grid, tol=args.tol)
    report = {
        "command": "benchmark",
        "inputs_digest": _digest({"scale": br.scale, "grid": br.grid_size}),
        "config": {"tol": args.tol},
        "results": {
            "value": br.value,
            "closed_form": br.closed_form,
            "error": br.error,
            "transport_value": br.transport_value,
            "transport_reference": br.transport_reference,
        },
        "certificates": {"duality_gap": br.duality_gap},
    }
    _emit(report, args, started)
    return EXIT_OK


def _load_vector(source, n: int) -> np.ndarray:
    with open(source) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = obj.get("values", obj.get("f"))
    vec = np.asarray(obj, dtype=float)
    if vec.shape != (n,):
        raise ValidationError(f"vector length {vec.shape} does not match {n} states")
    return vec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipkl",
        description="Transport-smoothed relative entropy: values, optimizers, "
                    "certificates, limits, and Markov-chain robustness bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8,
                        help="duality-gap tolerance (default 1e-8)")
    common.add_argument("--max-iter", type=int, default=100_000,
                        help="iteration budget (default 100000)")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock seconds (breaks bit-identical output)")
    common.add_argument("--output", help="write the JSON report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--mu", required=True, help="first measure (JSON file)")
    io.add_argument("--nu", required=True, help="second measure (JSON file)")
    io.add_argument("--cost", required=True,
                    help='"euclidean", "manhattan", or a cost JSON file')
    io.add_argument("--scale-b", type=float, default=None,
                    help="Lipschitz class scale multiplier")

    p = sub.add_parser("compute", parents=[common, io],
                       help="divergence / entropy / transport values with certificates")
    p.add_argument("--what", choices=["gamma", "entropy", "transport", "all"],
                   default="gamma")
    p.add_argument("--allow-uncertified", action="store_true")
    p.add_argument("--include-plan", action="store_true",
                   help="embed the transport plan (quadratic in the point count)")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("sweep", parents=[common, io], help="scale sweeps to CSV")
    p.add_argument("--mode", choices=["entropy", "transport", "expansion"], required=True)
    p.add_argument("--scales", required=True, help="comma-separated scale list")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("derivative", parents=[common, io],
                       help="directional derivative with finite-difference check")
    p.add_argument("--rho", required=True, help="zero-mass perturbation (JSON file)")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(fn=cmd_derivative)

    p = sub.add_parser("markov", parents=[common],
                       help="Markov-chain bounds and the Gaussian AR(1) example")
    msub = p.add_subparsers(dest="markov_what", required=True)
    mb = msub.add_parser("bound", parents=[common])
    mb.add_argument("--p", required=True, help="nominal kernel (JSON file)")
    mb.add_argument("--q", required=True, help="alternative kernel (JSON file)")
    mb.add_argument("--f", required=True, help="cost vector (JSON file)")
    mb.set_defaults(fn=cmd_markov)
    mm = msub.add_parser("membership", parents=[common])
    mm.add_argument("--p", required=True)
    mm.add_argument("--f", required=True)
    mm.set_defaults(fn=cmd_markov)
    mg = msub.add_parser("gaussian", parents=[common])
    mg.add_argument("--alpha", type=float, required=True)
    mg.add_argument("--sigma", type=float, required=True)
    mg.add_argument("--quad", type=float, default=None,
                    help="quadratic coefficient of the potential's negative")
    mg.add_argument("--lin", type=float, default=0.0)
    mg.add_argument("--growth", type=float, default=0.0)
    mg.set_defaults(fn=cmd_markov)

    p = sub.add_parser("verify", parents=[common],
                       help="re-check a saved compute report via the optimality conditions")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("benchmark", parents=[common],
                       help="point mass vs uniform grid against the closed form")
    p.add_argument("--scale-b", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=1000)
    p.set_defaults(fn=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
