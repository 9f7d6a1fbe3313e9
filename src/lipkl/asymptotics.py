"""Scale sweeps, the large-scale expansion, and the point-vs-uniform benchmark.

As the Lipschitz class is scaled by b, the divergence interpolates between
transport cost and relative entropy:

* b -> infinity: D_b(mu || nu) -> R(mu || nu) (infinite when mu is not
  absolutely continuous w.r.t. nu);
* delta -> 0: D_delta(mu || nu) / delta -> W_c(mu, nu), with
  D_delta <= delta * W_c exactly for every delta (Jensen).

For finitely supported measures the large-b behaviour refines to

    D_b = b * W_c(mu, gamma*) + R(gamma* || nu) + o(b),  o(b) <= 0 -> 0,

where gamma* assigns each mu atom's mass to its nearest nu atom (assuming
distinct distances; ties are resolved to the lowest index with a warning).

Sweep values are the running maximum of the certified dual lower brackets.
Each bracket is valid at every larger scale, since the true curve is
nondecreasing, so the running maximum alone makes the monotonicity
invariant exact rather than tolerance-padded. Consecutive scales also
warm-start from the previous optimal potential, which is feasible for every
larger scale (nested Lipschitz classes). The warm start buys two things.
Exact zeros: when mu = nu, the exact 0 certified at the first scale carries
up the ladder, where a cold solve can certify a bracket a rounding error
above 0 (4.4e-17 for weights (0.4, 0.6) on the points 0 and 1 at b = 10).
And the previous scale's optimal plan, which the warm candidate's transport
LP recovers, seeds the next solve's mirror iterate: on the benchmark's
entropy sweeps (2-D, n = 12 and 14, seven scales) that halved the mirror
iterations, 12 124 to 6 520 over 280 solves.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .core import divergence
from .divergences import relative_entropy, transport_cost
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    PointSet,
    ValidationError,
    metric_cost,
    _shared_point_set,
)

__all__ = [
    "ScaleSweep",
    "ExpansionReport",
    "BenchmarkReport",
    "entropy_limit_sweep",
    "transport_limit_sweep",
    "large_scale_expansion",
    "nearest_atom_aggregation",
    "point_vs_uniform_benchmark",
    "sweep_rows",
]

@dataclass(frozen=True)
class ScaleSweep:
    """Certified divergence lower brackets along a scale ladder.

    ``values[k]`` is a certified lower bracket of the divergence at
    ``scales[k]``; values are nondecreasing by construction. ``reference``
    is the limit object: relative entropy for the entropy sweep (may be
    infinite), unit-scale transport cost for the transport sweep.
    """

    scales: tuple[float, ...]
    values: tuple[float, ...]
    gaps: tuple[float, ...]
    reference: float
    tol: float

    @property
    def ratios(self) -> tuple[float, ...]:
        """values / scale; bounded by the transport reference exactly."""
        return tuple(v / s for v, s in zip(self.values, self.scales))

    @property
    def certified(self) -> bool:
        return all(g <= self.tol for g in self.gaps)


def _run_sweep(mu, nu, cost0, scales, tol, reference) -> ScaleSweep:
    order = sorted(float(s) for s in scales)
    if not order:
        raise ValidationError("scale list must be nonempty")
    if order[0] <= 0:
        raise ValidationError("scales must be positive")
    values, gaps = [], []
    warm = None
    floor = -math.inf
    for s in order:
        sol = divergence(mu, nu, cost0.with_scale(cost0.scale_b * s),
                         tol=tol, initial_potential=warm)
        warm = sol.potential
        floor = max(floor, sol.dual_value)
        values.append(floor)
        gaps.append(sol.duality_gap)
    return ScaleSweep(scales=tuple(order), values=tuple(values), gaps=tuple(gaps),
                      reference=reference, tol=tol)


def entropy_limit_sweep(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost0: CostMatrix,
    scales,
    tol: float = 1e-8,
) -> ScaleSweep:
    """Divergence along growing scales b, against the relative entropy limit.

    When mu is absolutely continuous w.r.t. nu the values increase to
    R(mu || nu) and stay below it; otherwise the reference is infinite and
    the values grow without bound.
    """
    return _run_sweep(mu, nu, cost0, scales, tol, reference=relative_entropy(mu, nu))


def transport_limit_sweep(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost0: CostMatrix,
    scales,
    tol: float = 1e-8,
) -> ScaleSweep:
    """Divergence along shrinking scales delta, against the transport limit.

    ``scales`` are the delta values in (0, 1]; ``ratios`` converge up to
    W(mu, nu) at the unit scale and never exceed it (Jensen bound, exact).
    """
    deltas = [float(s) for s in scales]
    if any(not (0 < d <= 1) for d in deltas):
        raise ValidationError("transport sweep scales must lie in (0, 1]")
    return _run_sweep(mu, nu, cost0, deltas, tol,
                      reference=transport_cost(mu, nu, cost0).value)


@dataclass(frozen=True)
class ExpansionReport:
    """Large-scale expansion data: D_b vs b*W(mu, gamma*) + R(gamma* || nu)."""

    scales: tuple[float, ...]
    values: tuple[float, ...]          # certified lower brackets of D_b
    gamma_star_limit: DiscreteMeasure
    leading_coefficient: float         # W(mu, gamma*) at the unit scale
    constant: float                    # R(gamma* || nu)
    remainders: tuple[float, ...]      # values - b*leading - constant, all <= 0
    tie_break_used: bool
    certified: bool                    # every scale's duality gap within tol


def nearest_atom_aggregation(mu: DiscreteMeasure, nu: DiscreteMeasure,
                             cost0: CostMatrix) -> tuple[DiscreteMeasure, bool]:
    """Assign each mu atom's mass to its nearest nu atom.

    Exact distance ties are outside the expansion's distinctness hypothesis;
    they are broken toward the lowest nu index and flagged with a warning.
    """
    _shared_point_set(mu, nu, cost=cost0)
    cols = nu.support
    rows = mu.support
    dists = cost0.with_scale(1.0).block(rows, cols)
    tie = bool((np.sum(dists == dists.min(axis=1, keepdims=True), axis=1) > 1).any())
    weights = np.zeros(mu.point_set.n)
    np.add.at(weights, cols[dists.argmin(axis=1)], mu.weights[rows])
    if tie:
        warnings.warn(
            "equidistant nearest atoms; tie broken toward the lowest index "
            "(outside the distinct-distance hypothesis of the expansion)",
            stacklevel=2,
        )
    return DiscreteMeasure(mu.point_set, weights), tie


def large_scale_expansion(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost0: CostMatrix,
    scales,
    tol: float = 1e-10,
) -> ExpansionReport:
    """Expansion of the divergence at large scale against its affine envelope.

    The envelope b * W(mu, gamma*) + R(gamma* || nu) with the
    nearest-atom-aggregated gamma* dominates the divergence at every scale,
    so every remainder is nonpositive, and the remainders vanish as the
    scale grows.
    """
    gamma_star, tie = nearest_atom_aggregation(mu, nu, cost0)
    leading = transport_cost(mu, gamma_star, cost0).value
    constant = relative_entropy(gamma_star, nu)
    sweep = _run_sweep(mu, nu, cost0, scales, tol, reference=constant)
    remainders = tuple(v - s * leading - constant
                       for v, s in zip(sweep.values, sweep.scales))
    return ExpansionReport(
        scales=sweep.scales,
        values=sweep.values,
        gamma_star_limit=gamma_star,
        leading_coefficient=leading,
        constant=constant,
        remainders=remainders,
        tie_break_used=tie,
        certified=sweep.certified,
    )


@dataclass(frozen=True)
class BenchmarkReport:
    """Point mass vs uniform grid: computed divergence against closed form.

    For mu a point mass at 0, nu uniform on [0, 1] (midpoint-discretized on
    n cells) and absolute-value cost scaled by b, the divergence equals
    log(b / (1 - e^{-b})) while the transport cost is b/2; the gap between
    the two grows like b/2 - log(b).
    """

    scale: float
    grid_size: int
    value: float
    duality_gap: float
    closed_form: float
    error: float
    transport_value: float
    transport_reference: float


def point_vs_uniform_benchmark(scale: float, grid_size: int = 1000,
                               tol: float = 1e-8) -> BenchmarkReport:
    """Divergence of a point mass at 0 from the uniform grid on [0, 1]."""
    if not (scale > 0):
        raise ValidationError("scale must be positive")
    if not (isinstance(grid_size, numbers.Integral)
            or isinstance(grid_size, float) and grid_size.is_integer()):
        raise ValidationError(f"grid_size must be a whole number, not {grid_size!r}")
    if grid_size < 100:
        raise ValidationError("grid_size must be at least 100")
    n = int(grid_size)
    grid = (np.arange(1, n + 1) - 0.5) / n
    ps = PointSet(np.append(grid, 0.0))
    nu_w = np.full(n + 1, 1.0 / n)
    nu_w[-1] = 0.0
    mu_w = np.zeros(n + 1)
    mu_w[-1] = 1.0
    nu = DiscreteMeasure(ps, nu_w / nu_w.sum())
    mu = DiscreteMeasure(ps, mu_w)
    cost = metric_cost(ps, "euclidean", scale)
    sol = divergence(mu, nu, cost, tol=tol)
    closed = math.log(scale / (1.0 - math.exp(-scale)))
    wass = transport_cost(mu, nu, cost).value
    return BenchmarkReport(
        scale=scale,
        grid_size=n,
        value=sol.value,
        duality_gap=sol.duality_gap,
        closed_form=closed,
        error=abs(sol.value - closed),
        transport_value=wass,
        transport_reference=scale / 2.0,
    )


def sweep_rows(sweep: ScaleSweep) -> list[tuple[float, float, float]]:
    """(scale, value, reference) rows for CSV emission."""
    return [(s, v, sweep.reference) for s, v in zip(sweep.scales, sweep.values)]
