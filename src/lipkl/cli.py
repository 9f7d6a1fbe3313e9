"""Command-line interface: compute, sweep, derivative, markov, verify.

Reports are JSON on stdout with sorted keys and no wall-clock content, so
identical inputs and configuration produce bit-identical output; pass
``--timing`` to append wall-clock seconds. Sweeps write CSV.

Exit codes: 0 success (certified), 1 uncertified (a solve, unless
``--allow-uncertified``; any scale of a sweep, whose CSV is still written; a
membership check or a bound that fails, whose report is still written),
2 file/parse errors, 3 validation errors.
Reports are strict JSON: a non-finite number is written as the string
"inf", "-inf" or "nan".
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    entropy_limit_sweep,
    large_scale_expansion,
    point_vs_uniform_benchmark,
    sweep_rows,
    transport_limit_sweep,
)
from .core import divergence, verify_optimizers
from .divergences import relative_entropy, transport_cost
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    PointSet,
    SignedMeasure,
    ValidationError,
    load_cost,
    load_measure,
    merge_supports,
    metric_cost,
    _as_float,
    _finite_vector,
    _place,
    _points_list,
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


def _digest(obj) -> str:
    import hashlib  # loads OpenSSL; only reports that carry a digest pay for it

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _strict(obj):
    """``obj`` with every non-finite float written as "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _emit(report: dict, args, started: float) -> None:
    if args.timing:
        report["timing_s"] = time.perf_counter() - started
    text = json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(command: str, digest_of, config: dict, results: dict,
            certificates: dict, **extra) -> dict:
    """A JSON report: the five keys every command writes, plus ``extra``."""
    return {
        "command": command,
        "inputs_digest": _digest(digest_of),
        "config": config,
        "results": results,
        "certificates": certificates,
        **extra,
    }


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


def _inputs_record(ps: PointSet, mu: DiscreteMeasure, nu: DiscreteMeasure,
                   cost: CostMatrix) -> dict:
    """The resolved inputs a report embeds and digests."""
    return {
        "points": _points_list(ps),
        "mu": [float(w) for w in mu.weights],
        "nu": [float(w) for w in nu.weights],
        "cost": cost.entries.tolist(),
        "scale_b": cost.scale_b,
    }


# Each command returns (report or None, ok): main writes the report and maps
# ok to the exit code.


def cmd_compute(args):
    ps, mu, nu, cost = _load_inputs(args)
    inputs = _inputs_record(ps, mu, nu, cost)
    results: dict = {}
    certificates: dict = {}
    certified = True

    if args.what in ("gamma", "all"):
        sol = divergence(mu, nu, cost, tol=args.tol, max_iter=args.max_iter)
        results["gamma"] = {
            "value": sol.value,
            "dual_value": sol.dual_value,
            "duality_gap": sol.duality_gap,
            "certified": sol.certified,
            "iterations": sol.iterations,
            "gamma_star": [float(w) for w in sol.measure.weights],
            "g_star": [float(v) for v in sol.potential.values],
        }
        if args.include_plan:
            results["gamma"]["plan"] = sol.plan.tolist()
        check = verify_optimizers(sol.measure, sol.potential, mu, nu, cost, tol=args.tol)
        certificates["gamma"] = {
            "duality_gap": sol.duality_gap,
            "gibbs_residual": check.gibbs_residual,
            "transport_residual": check.transport_residual,
            "certified": sol.certified,
        }
        certified = sol.certified
    if args.what in ("entropy", "all"):
        value = relative_entropy(mu, nu)
        results["entropy"] = {"value": value}
        certificates["entropy"] = {"exact": True}
    if args.what in ("transport", "all"):
        ts = transport_cost(mu, nu, cost)
        results["transport"] = {"value": ts.value}
        certificates["transport"] = {
            "marginal_residual": ts.marginal_residual(),
            "complementary_slackness_residual": ts.complementary_slackness_residual(),
        }
    if args.what == "all":
        g = results["gamma"]["value"]
        r = results["entropy"]["value"]
        w = results["transport"]["value"]
        cap = min(r, w)
        results["inequality"] = {
            "divergence_leq_min_entropy_transport":
                bool(results["gamma"]["dual_value"] <= cap * (1 + 1e-12) + 1e-300),
            "min_entropy_transport": cap,
            "divergence": g,
        }

    report = _report("compute", inputs, {"tol": args.tol, "max_iter": args.max_iter},
                     results, certificates, what=args.what, inputs=inputs)
    return report, certified or args.allow_uncertified


def cmd_sweep(args):
    _, mu, nu, cost = _load_inputs(args)
    scales = [_as_float(s, "scale") for s in args.scales.split(",") if s.strip()]
    if not scales:
        raise ValidationError("no scales given")
    if args.mode == "entropy":
        sweep = entropy_limit_sweep(mu, nu, cost, scales, tol=args.tol)
        rows = sweep_rows(sweep)
        header = ["scale", "value", "reference"]
    elif args.mode == "transport":
        sweep = transport_limit_sweep(mu, nu, cost, scales, tol=args.tol)
        rows = [(s, v, sweep.reference, r)
                for s, v, r in zip(sweep.scales, sweep.values, sweep.ratios)]
        header = ["scale", "value", "reference", "ratio"]
    else:
        sweep = large_scale_expansion(mu, nu, cost, scales, tol=args.tol)
        rows = [(s, v, s * sweep.leading_coefficient + sweep.constant, r)
                for s, v, r in zip(sweep.scales, sweep.values, sweep.remainders)]
        header = ["scale", "value", "reference", "remainder"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
    print(f"wrote {len(rows)} rows to {args.out}")
    return None, sweep.certified


def cmd_derivative(args):
    ps, mu, nu, cost = _load_inputs(args)
    rho_raw = load_measure(args.rho, signed=True)
    rho = SignedMeasure(ps, _place(ps, rho_raw.point_set.points, rho_raw.weights))
    rep = directional_derivative(mu, nu, cost, rho, epsilon=args.epsilon)
    inputs = {**_inputs_record(ps, mu, nu, cost),
              "rho": [float(w) for w in rho.weights]}
    results = {
        "analytic": rep.analytic,
        "finite_diff": rep.finite_diff,
        "discrepancy": rep.discrepancy,
        "value": rep.value,
        "value_shifted": rep.value_shifted,
    }
    report = _report("derivative", inputs, {"epsilon": args.epsilon}, results,
                     {"epsilon": rep.epsilon}, inputs=inputs)
    return report, True


def _kernel_inputs(args):
    """The nominal kernel, the cost vector f on its states, and the inputs
    record a Markov report digests."""
    p_kernel = load_kernel(args.p)
    with open(args.f) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        obj = obj.get("values", obj.get("f"))
    f = _finite_vector(obj, p_kernel.n, "vector")
    inputs = {"P": p_kernel.matrix.tolist(), "f": [float(x) for x in f],
              "cost": p_kernel.cost.entries.tolist(), "scale_b": p_kernel.cost.scale_b}
    return p_kernel, f, inputs


def cmd_bound(args):
    p_kernel, f, inputs = _kernel_inputs(args)
    q_kernel = load_kernel(args.q)
    inputs["Q"] = q_kernel.matrix.tolist()
    rep = ergodic_bound(p_kernel, q_kernel, f)
    results = {
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
    }
    report = _report("markov bound", inputs, {}, results,
                     {"potential": rep.potential.tolist()})
    return report, rep.holds


def cmd_membership(args):
    p_kernel, f, inputs = _kernel_inputs(args)
    inv = invert_risk_map(p_kernel, f)
    results = {
        "g": inv.g.tolist(),
        "a": inv.a,
        "converged": inv.converged,
        "lipschitz_feasible": inv.lipschitz_feasible,
        "representable": inv.representable,
        "jacobian_rank": inv.jacobian_rank,
        "diagnosis": inv.diagnosis,
    }
    report = _report("markov membership", inputs, {}, results,
                     {"residual": inv.residual, "lipschitz_excess": inv.lipschitz_excess})
    return report, inv.representable


def cmd_gaussian(args):
    model = GaussianAR1(alpha=args.alpha, sigma=args.sigma)
    inputs = {"alpha": args.alpha, "sigma": args.sigma}
    peak = ar1_max_quadratic_rate(model)
    results = {
        "b_star": peak.b_star,
        "k_star": peak.k_star,
        "search_b": peak.search_b,
        "search_k": peak.search_k,
    }
    if args.quad is not None:
        inputs.update(quad=args.quad, lin=args.lin, growth=args.growth)
        q = QuadraticFunction(args.quad, args.lin, 0.0)
        image, valid = ar1_risk_quadratic(model, q, args.growth)
        results["risk_quadratic"] = {
            "quadratic": image.quadratic,
            "linear": image.linear,
            "constant": image.constant,
            "valid": valid,
        }
        results["representable"] = ar1_quadratic_representable(model, q)
    report = _report("markov gaussian", inputs, {}, results,
                     {"golden_section_error": abs(peak.search_k - peak.k_star)})
    return report, True


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return obj


def cmd_verify(args):
    with open(args.report) as fh:
        saved = _json_object(json.load(fh), "report")
    inputs = _json_object(saved["inputs"], 'report "inputs"')
    ps = PointSet(inputs["points"])
    mu = DiscreteMeasure(ps, _as_float(inputs["mu"], "mu", 1))
    nu = DiscreteMeasure(ps, _as_float(inputs["nu"], "nu", 1))
    cost = CostMatrix(_as_float(inputs["cost"], "cost", 2),
                      _as_float(inputs.get("scale_b", 1.0), "scale_b"))
    results = _json_object(saved["results"], 'report "results"')
    payload = _json_object(results["gamma"], 'report "results"."gamma"')
    gamma = DiscreteMeasure(ps, _as_float(payload["gamma_star"], "gamma_star", 1))
    g = _as_float(payload["g_star"], "g_star", 1)
    rep = verify_optimizers(gamma, g, mu, nu, cost, tol=args.tol)
    checked = {
        "optimal": rep.optimal,
        "feasible": rep.feasible,
        "gibbs_residual": rep.gibbs_residual,
        "transport_residual": rep.transport_residual,
        "lipschitz_excess": rep.lipschitz_excess,
    }
    report = _report("verify", inputs, {"tol": args.tol}, checked, {"tol": args.tol})
    return report, rep.optimal


def cmd_benchmark(args):
    br = point_vs_uniform_benchmark(args.scale_b, args.grid, tol=args.tol)
    results = {
        "value": br.value,
        "closed_form": br.closed_form,
        "error": br.error,
        "transport_value": br.transport_value,
        "transport_reference": br.transport_reference,
    }
    report = _report("benchmark", {"scale": br.scale, "grid": br.grid_size},
                     {"tol": args.tol}, results, {"duality_gap": br.duality_gap})
    return report, True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process: every ``main`` call
    parses with it, and ``parse_args`` returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="lipkl",
        description="Transport-smoothed relative entropy: values, optimizers, "
                    "certificates, limits, and Markov-chain robustness bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-8,
                     help="duality-gap tolerance (default 1e-8)")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--timing", action="store_true",
                        help="include wall-clock seconds (breaks bit-identical output)")
    report.add_argument("--output", help="write the JSON report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--mu", required=True, help="first measure (JSON file)")
    io.add_argument("--nu", required=True, help="second measure (JSON file)")
    io.add_argument("--cost", required=True,
                    help='"euclidean", "manhattan", or a cost JSON file')
    io.add_argument("--scale-b", type=float, default=None,
                    help="Lipschitz class scale multiplier")

    p = sub.add_parser("compute", parents=[tol, report, io],
                       help="divergence / entropy / transport values with certificates")
    p.add_argument("--max-iter", type=int, default=100_000,
                   help="iteration budget (default 100000)")
    p.add_argument("--what", choices=["gamma", "entropy", "transport", "all"],
                   default="gamma")
    p.add_argument("--allow-uncertified", action="store_true")
    p.add_argument("--include-plan", action="store_true",
                   help="embed the transport plan (quadratic in the point count)")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("sweep", parents=[tol, io], help="scale sweeps to CSV")
    p.add_argument("--mode", choices=["entropy", "transport", "expansion"], required=True)
    p.add_argument("--scales", required=True, help="comma-separated scale list")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("derivative", parents=[report, io],
                       help="directional derivative with finite-difference check")
    p.add_argument("--rho", required=True, help="zero-mass perturbation (JSON file)")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(fn=cmd_derivative)

    p = sub.add_parser("markov",
                       help="Markov-chain bounds and the Gaussian AR(1) example")
    msub = p.add_subparsers(dest="markov_what", required=True)
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--p", required=True, help="nominal kernel (JSON file)")
    kernel.add_argument("--f", required=True, help="cost vector (JSON file)")
    mb = msub.add_parser("bound", parents=[report, kernel])
    mb.add_argument("--q", required=True, help="alternative kernel (JSON file)")
    mb.set_defaults(fn=cmd_bound)
    msub.add_parser("membership", parents=[report, kernel]).set_defaults(fn=cmd_membership)
    mg = msub.add_parser("gaussian", parents=[report])
    mg.add_argument("--alpha", type=float, required=True)
    mg.add_argument("--sigma", type=float, required=True)
    mg.add_argument("--quad", type=float, default=None,
                    help="quadratic coefficient of the potential's negative")
    mg.add_argument("--lin", type=float, default=0.0)
    mg.add_argument("--growth", type=float, default=0.0)
    mg.set_defaults(fn=cmd_gaussian)

    p = sub.add_parser("verify", parents=[tol, report],
                       help="re-check a saved compute report via the optimality conditions")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("benchmark", parents=[tol, report],
                       help="point mass vs uniform grid against the closed form")
    p.add_argument("--scale-b", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=1000)
    p.set_defaults(fn=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, ok = args.fn(args)
        if report is not None:
            _emit(report, args, started)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ok else EXIT_UNCERTIFIED


if __name__ == "__main__":
    sys.exit(main())
