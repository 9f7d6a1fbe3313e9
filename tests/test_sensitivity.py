import numpy as np
import pytest

from lipkl import (
    DiscreteMeasure,
    PointSet,
    SignedMeasure,
    ValidationError,
    directional_derivative,
    divergence,
    max_feasible_epsilon,
    metric_cost,
)

from conftest import random_measure, random_point_set


def feasible_direction(rng, mu):
    """Random zero-mass direction, negative only inside mu's support."""
    n = mu.point_set.n
    w = rng.normal(0, 1, n)
    w[mu.weights == 0] = np.abs(w[mu.weights == 0])
    w -= w.mean()
    w[mu.weights == 0] = np.maximum(w[mu.weights == 0], 0.0)
    w[mu.support] -= w.sum() / mu.support.size
    scale = 0.5 * max_feasible_epsilon(mu, SignedMeasure(mu.point_set, w))
    return SignedMeasure(mu.point_set, w * min(1.0, scale / 1e-3))


def test_zero_direction_gives_zero(rng):
    ps = random_point_set(rng, 4)
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = random_measure(rng, ps)
    nu = random_measure(rng, ps)
    rep = directional_derivative(mu, nu, cost, SignedMeasure(ps, np.zeros(4)))
    assert rep.analytic == 0.0
    assert abs(rep.finite_diff) <= 1e-9


def test_flat_at_the_minimum():
    ps = PointSet((0.0, 1.0))
    m = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 0.2)
    rho = SignedMeasure(ps, [0.5, -0.5])
    rep = directional_derivative(m, m, cost, rho)
    assert rep.analytic == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.finite_diff) <= 1e-3  # second-order growth away from the minimum


def test_random_triples_match_finite_differences(rng):
    for _ in range(6):
        ps = random_point_set(rng, 3, d=1)
        cost = metric_cost(ps, "euclidean", float(rng.uniform(0.3, 2.0)))
        mu = random_measure(rng, ps, min_weight=0.1)
        nu = random_measure(rng, ps, min_weight=0.1)
        rho = feasible_direction(rng, mu)
        rep = directional_derivative(mu, nu, cost, rho)
        rel = rep.discrepancy / max(1.0, abs(rep.analytic))
        assert rel <= 1e-2


def test_two_sided_antisymmetry(rng):
    for _ in range(4):
        ps = random_point_set(rng, 4, d=1)
        cost = metric_cost(ps, "euclidean", 1.0)
        mu = random_measure(rng, ps, min_weight=0.15)
        nu = random_measure(rng, ps, min_weight=0.15)
        rho = feasible_direction(rng, mu)
        minus = SignedMeasure(ps, -rho.weights)
        if max_feasible_epsilon(mu, minus) < 1e-4:
            continue
        fwd = directional_derivative(mu, nu, cost, rho)
        bwd = directional_derivative(mu, nu, cost, minus)
        scale = max(1.0, abs(fwd.analytic))
        assert abs(fwd.analytic + bwd.analytic) <= 2e-2 * scale


def test_scalar_section_is_convex(rng):
    ps = random_point_set(rng, 4, d=1)
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = random_measure(rng, ps, min_weight=0.2)
    nu = random_measure(rng, ps, min_weight=0.2)
    rho = feasible_direction(rng, mu)
    eps_grid = np.linspace(0.0, 0.9 * max_feasible_epsilon(mu, rho), 5)
    values = []
    for e in eps_grid:
        shifted = DiscreteMeasure(ps, mu.weights + e * rho.weights)
        values.append(divergence(shifted, nu, cost, tol=1e-12).value)
    second = np.diff(values, 2)
    assert second.min() >= -1e-8


def test_shift_invariance_of_pairing(rng):
    # rho has zero mass, so adding a constant to the potential cannot move
    # the analytic derivative; two independent solves must agree.
    ps = random_point_set(rng, 3, d=1)
    cost = metric_cost(ps, "euclidean", 0.7)
    mu = random_measure(rng, ps, min_weight=0.2)
    nu = random_measure(rng, ps, min_weight=0.2)
    rho = feasible_direction(rng, mu)
    a = directional_derivative(mu, nu, cost, rho, solver_tol=1e-10)
    b = directional_derivative(mu, nu, cost, rho, solver_tol=1e-12)
    assert a.analytic == pytest.approx(b.analytic, abs=1e-7)


def test_direction_outside_supports_uses_extension(rng):
    # rho moves mass to a point carrying neither mu nor nu mass; the
    # analytic pairing relies on the maximal Lipschitz extension there and
    # must still match finite differences.
    ps = PointSet((0.0, 0.3, 0.7, 1.0))
    cost = metric_cost(ps, "euclidean", 1.2)
    mu = DiscreteMeasure(ps, [0.5, 0.5, 0.0, 0.0])
    nu = DiscreteMeasure(ps, [0.4, 0.0, 0.0, 0.6])
    rho = SignedMeasure(ps, [-0.3, -0.2, 0.5, 0.0])  # builds mass at 0.7
    rep = directional_derivative(mu, nu, cost, rho)
    assert rep.discrepancy <= 1e-2 * max(1.0, abs(rep.analytic))


def test_nonzero_mass_rejected(rng):
    ps = random_point_set(rng, 3)
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = random_measure(rng, ps)
    nu = random_measure(rng, ps)
    with pytest.raises(ValidationError, match="zero total mass"):
        directional_derivative(mu, nu, cost, SignedMeasure(ps, [0.1, 0.0, 0.0]))


def test_infeasible_direction_reports_max_epsilon():
    ps = PointSet((0.0, 0.5, 1.0))
    mu = DiscreteMeasure(ps, [1.0 - 1e-6, 1e-6, 0.0])
    nu = DiscreteMeasure(ps, [0.2, 0.4, 0.4])
    cost = metric_cost(ps, "euclidean", 1.0)
    rho = SignedMeasure(ps, [1.0, -1.0, 0.0])  # feasible only up to eps = 1e-6
    with pytest.raises(ValidationError, match="largest feasible eps"):
        directional_derivative(mu, nu, cost, rho)
    rho_outside = SignedMeasure(ps, [0.5, 0.0, -0.5])  # negative off supp(mu)
    with pytest.raises(ValidationError, match="largest feasible eps"):
        directional_derivative(mu, nu, cost, rho_outside)


def test_max_feasible_epsilon_rejects_a_direction_off_the_point_set():
    # Indexing mu's weights by rho's mask raised a bare IndexError.
    mu = DiscreteMeasure(PointSet((0.0, 1.0, 3.0)), [0.2, 0.3, 0.5])
    rho = SignedMeasure(PointSet((0.0, 1.0)), [0.5, -0.5])
    with pytest.raises(ValidationError, match="same point set"):
        max_feasible_epsilon(mu, rho)


@pytest.mark.parametrize("epsilon", [0.0, -1e-4, np.nan])
def test_epsilon_must_be_positive_and_finite(epsilon):
    ps = PointSet((0.0, 0.25, 0.75))
    mu = DiscreteMeasure(ps, [1.0, 0.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.5, 0.5])
    rho = SignedMeasure(ps, [-0.5, 0.5, 0.0])
    cost = metric_cost(ps, "euclidean", 10.0)
    with pytest.raises(ValidationError, match="epsilon must be a positive real"):
        directional_derivative(mu, nu, cost, rho, epsilon=epsilon)
