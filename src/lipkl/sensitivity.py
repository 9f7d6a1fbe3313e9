"""Directional derivatives of the divergence in its first argument.

For a zero-mass signed perturbation rho with mu + eps*rho remaining a
probability measure for small eps > 0, the one-sided derivative of
D(mu + eps*rho || nu) at eps = 0 equals the pairing sum g* d rho, where g*
is the optimal potential normalized by log sum e^{g*} dnu = 0 and extended
off the supports by its maximal Lipschitz extension (the c-transform from
the support of nu). Since rho has zero total mass, additive shifts of g*
cannot change the pairing, and on supp(mu) union supp(nu) the potential is
unique, so the analytic value is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import divergence
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    SignedMeasure,
    ValidationError,
    _shared_point_set,
)

__all__ = ["DerivativeReport", "directional_derivative", "max_feasible_epsilon"]

DEFAULT_EPSILON = 1e-4
DERIVATIVE_SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class DerivativeReport:
    """Analytic pairing against a one-sided finite-difference check."""

    analytic: float
    finite_diff: float
    epsilon: float
    discrepancy: float
    value: float            # divergence at mu
    value_shifted: float    # divergence at mu + epsilon * rho


def max_feasible_epsilon(mu: DiscreteMeasure, rho: SignedMeasure) -> float:
    """Largest eps with mu + eps*rho still a (nonnegative) probability vector."""
    _shared_point_set(mu, rho)
    negative = rho.weights < 0
    if not negative.any():
        return np.inf
    return float(np.min(mu.weights[negative] / -rho.weights[negative]))


def directional_derivative(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    rho: SignedMeasure,
    epsilon: float = DEFAULT_EPSILON,
    solver_tol: float = DERIVATIVE_SOLVER_TOL,
) -> DerivativeReport:
    """One-sided derivative of the divergence along rho, with FD validation.

    Requires a positive, finite ``epsilon``, rho to have zero total mass
    (within 1e-12) and mu + eps*rho to stay inside the simplex up to
    ``epsilon``; otherwise the perturbation is rejected, reporting the
    largest feasible eps. The solver tolerance is tightened well below
    ``epsilon`` so finite-difference noise stays small against the
    comparison.
    """
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be a positive real, got {epsilon!r}")
    _shared_point_set(mu, nu, rho, cost=cost)
    if not rho.is_balanced:
        raise ValidationError(
            f"perturbation must have zero total mass, got {rho.total_mass:g}"
        )
    eps_max = max_feasible_epsilon(mu, rho)
    if eps_max <= 0 or eps_max < epsilon:
        raise ValidationError(
            f"mu + eps*rho leaves the simplex for eps <= {epsilon:g}; "
            f"largest feasible eps is {max(eps_max, 0.0):g}"
        )

    base = divergence(mu, nu, cost, tol=solver_tol)
    analytic = float(base.potential.values @ rho.weights)

    shifted = DiscreteMeasure(mu.point_set, mu.weights + epsilon * rho.weights)
    bumped = divergence(shifted, nu, cost, tol=solver_tol,
                        initial_potential=base.potential)
    finite_diff = (bumped.value - base.value) / epsilon

    return DerivativeReport(
        analytic=analytic,
        finite_diff=finite_diff,
        epsilon=epsilon,
        discrepancy=abs(analytic - finite_diff),
        value=base.value,
        value_shifted=bumped.value,
    )
