"""Independent brute-force verifiers for small instances.

``grid_divergence`` evaluates the inf-convolution by exhaustive search over
a simplex grid of intermediate measures, so it shares nothing with the
mirror-descent/certificate route of the main solver except the transport
pricer, which is itself checked against the closed-form 1-D identity
``line_transport_cost`` (the L1 distance between distribution functions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .divergences import transport_simplex
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    ValidationError,
    _positive_scale,
    _shared_point_set,
)

__all__ = ["OracleValue", "grid_divergence", "line_transport_cost"]


@dataclass(frozen=True)
class OracleValue:
    value: float
    error_bound: float
    argmin: np.ndarray  # intermediate measure on the support of nu


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All integer compositions of ``steps`` into ``k`` parts, scaled to 1.

    Stars and bars: k - 1 bar positions among steps + k - 1 slots give one
    composition each, in lexicographic order of the parts.
    """
    if k == 1:
        return np.ones((1, 1))
    bars = np.array(list(itertools.combinations(range(steps + k - 1), k - 1)))
    return (np.diff(bars, axis=1, prepend=-1, append=steps + k - 1) - 1) / steps


def grid_divergence(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
) -> OracleValue:
    """Exhaustive-search value of the inf-convolution on a simplex grid.

    Minimizes W(mu, gamma) + R(gamma || nu) over all grid measures gamma
    supported in supp(nu). Enumeration cost grows like
    resolution**-(support-1): the grid resolution is 1e-3 for a support of
    at most two points and 1e-2 for three, and a larger support raises
    :class:`ValidationError`. The reported ``error_bound`` is the local
    Lipschitz modulus of the objective at the argmin (transport potential
    spread plus log-density spread, floored at resolution/10) times the grid
    mesh; it is rigorous whenever the true optimizer keeps every coordinate
    above the floor, which holds away from extreme cost scales.
    """
    _shared_point_set(mu, nu, cost=cost)
    cols = nu.support
    k = cols.size
    if k > 3:
        raise ValidationError(f"support of nu has {k} points; oracle is limited to 3")
    rows = mu.support
    a = mu.weights[rows]
    w = nu.weights[cols]
    C = cost.block(rows, cols)

    res = 1e-3 if k <= 2 else 1e-2
    steps = int(round(1.0 / res))
    grid = _simplex_grid(k, steps)

    best_val = np.inf
    best_gamma = None
    logw = np.log(w)
    for gamma in grid:
        pos = gamma > 0
        sub = C[:, pos]
        flow, _, _ = transport_simplex(a, gamma[pos], sub)
        wass = float((sub * flow).sum())
        g = gamma[pos]
        rel_ent = float(g @ (np.log(g) - logw[pos]))
        val = wass + rel_ent
        if val < best_val:
            best_val = val
            best_gamma = gamma

    floor = res / 10.0
    log_ratio = np.log(np.maximum(best_gamma, floor)) - logw
    modulus = float(C.max(initial=0.0)) + float(log_ratio.max() - log_ratio.min())
    bound = modulus * ((k - 1) * res / 2.0 + k * floor)
    return OracleValue(value=best_val, error_bound=bound, argmin=best_gamma)


def line_transport_cost(mu: DiscreteMeasure, gamma: DiscreteMeasure, scale_b: float = 1.0) -> float:
    """Exact 1-D transport cost: scale times the L1 distance between CDFs."""
    _shared_point_set(mu, gamma)
    scale = _positive_scale(scale_b)
    ps = mu.point_set
    if not ps.is_numeric or ps.dimension != 1:
        raise ValidationError("line oracle needs one-dimensional numeric points")
    x = ps.coords[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    f_mu = np.cumsum(mu.weights[order])
    f_ga = np.cumsum(gamma.weights[order])
    sections = np.diff(xs)
    return float(scale * np.sum(np.abs(f_mu[:-1] - f_ga[:-1]) * sections))
