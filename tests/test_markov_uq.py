import math

import numpy as np
import pytest

from lipkl import (
    FiniteKernel,
    GaussianAR1,
    PointSet,
    QuadraticFunction,
    ValidationError,
    ar1_max_quadratic_rate,
    ar1_quadratic_rate,
    ar1_quadratic_representable,
    ar1_risk_quadratic,
    divergence,
    ergodic_bound,
    invert_risk_map,
    metric_cost,
    performance_bound,
    project_lipschitz,
    recurrent_classes,
    risk_map,
    stationary_distribution,
)

from conftest import random_measure, random_point_set


def make_kernel(rng, n, scale=1.0, sparsity=0.0):
    ps = random_point_set(rng, n, d=1)
    cost = metric_cost(ps, "euclidean", scale)
    while True:
        p = rng.uniform(0.05, 1.0, (n, n))
        if sparsity:
            mask = rng.random((n, n)) < sparsity
            mask[np.arange(n), rng.integers(0, n, n)] = False  # keep a column per row
            p = np.where(mask, 0.0, p)
        p = p / p.sum(axis=1, keepdims=True)
        k = FiniteKernel(ps, p, cost)
        if len(recurrent_classes(p)) == 1:
            return k


def feasible_potential(rng, kernel, amplitude=0.5):
    raw = rng.normal(0, amplitude, kernel.n)
    return project_lipschitz(raw, kernel.cost).values


# ---------------------------------------------------------------------------
# Kernel type


def test_kernel_validation():
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.raises(ValidationError, match="row"):
        FiniteKernel(ps, np.array([[0.5, 0.4], [0.5, 0.5]]), cost)
    with pytest.raises(ValidationError, match="negative"):
        FiniteKernel(ps, np.array([[1.5, -0.5], [0.5, 0.5]]), cost)


# ---------------------------------------------------------------------------
# Risk map


def test_risk_map_constant_potential(rng):
    k = make_kernel(rng, 4)
    np.testing.assert_allclose(risk_map(k, np.zeros(4), 1.3), np.full(4, 1.3),
                               atol=1e-14)


def test_risk_map_identity_kernel_kills_any_potential(rng):
    ps = random_point_set(rng, 3)
    k = FiniteKernel(ps, np.eye(3), metric_cost(ps, "euclidean", 1.0))
    g = rng.normal(0, 1, 3)
    np.testing.assert_allclose(risk_map(k, g, 0.7), np.full(3, 0.7), atol=1e-12)


def test_risk_map_hand_value():
    ps = PointSet((0.0, 1.0))
    k = FiniteKernel(ps, np.full((2, 2), 0.5), metric_cost(ps, "euclidean", 1.0))
    f = risk_map(k, np.array([0.0, math.log(2.0)]), 0.0)
    # -log(0.5 * (1 + 1/2)) = -log(0.75) for the first state; the second
    # additionally subtracts its potential value log 2.
    expected = np.array([-math.log(0.75), -math.log(0.75) - math.log(2.0)])
    np.testing.assert_allclose(f, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Inverse risk map


def test_inverse_of_constant_cost(rng):
    k = make_kernel(rng, 5)
    inv = invert_risk_map(k, np.full(5, 0.42))
    assert inv.converged
    np.testing.assert_allclose(inv.g, np.zeros(5), atol=1e-12)
    assert inv.a == pytest.approx(0.42, abs=1e-12)
    assert inv.representable


def test_round_trip_recovers_potential(rng):
    for n in (2, 4, 7, 10):
        k = make_kernel(rng, n, scale=2.0)
        g0 = feasible_potential(rng, k)
        g0 = g0 - g0[0]
        a0 = float(rng.normal())
        f = risk_map(k, g0, a0)
        inv = invert_risk_map(k, f)
        assert inv.converged and inv.residual <= 1e-10
        np.testing.assert_allclose(inv.g, g0, atol=1e-9)
        assert inv.a == pytest.approx(a0, abs=1e-9)
        assert inv.lipschitz_feasible


def test_oversized_cost_is_not_representable(rng):
    k = make_kernel(rng, 4, scale=1.0)
    f = 100.0 * k.cost.scaled[:, 0]
    inv = invert_risk_map(k, f)
    assert inv.converged
    assert not inv.lipschitz_feasible
    assert not inv.representable
    assert inv.lipschitz_excess > 1.0


def test_rank_deficiency_detected_for_two_recurrent_classes():
    ps = PointSet((0.0, 1.0, 2.0, 3.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    p = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    k = FiniteKernel(ps, p, cost)
    inv = invert_risk_map(k, np.zeros(4))
    assert not inv.converged
    assert inv.jacobian_rank < 4
    assert "recurrent" in inv.diagnosis


def test_full_rank_on_random_single_class_chains(rng):
    for _ in range(10):
        k = make_kernel(rng, int(rng.integers(2, 9)), sparsity=0.4)
        inv = invert_risk_map(k, np.zeros(k.n))
        assert inv.jacobian_rank == k.n


def test_transient_states_allowed():
    # one recurrent class {0, 1} plus a transient state 2
    ps = PointSet((0.0, 1.0, 2.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    p = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.25, 0.25, 0.5]])
    k = FiniteKernel(ps, p, cost)
    g0 = np.array([0.0, 0.2, -0.3])
    f = risk_map(k, g0, 0.1)
    inv = invert_risk_map(k, f)
    assert inv.converged
    np.testing.assert_allclose(inv.g, g0, atol=1e-9)


# ---------------------------------------------------------------------------
# Stationary structure


def test_stationary_two_state_closed_form():
    p = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi = stationary_distribution(p)
    np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-11)
    assert np.abs(pi @ p - pi).sum() <= 1e-12


def test_stationary_periodic_chain():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    pi = stationary_distribution(p)
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("a", [1e-13, 1e-7])
def test_stationary_nearly_decomposable_chain(a):
    # the states trade mass only at rate a; stopping on the residual
    # ||pi P - pi|| accepts almost any vector here, so only an exact solve
    # recovers (2/3, 1/3)
    p = np.array([[1.0 - a, a], [2.0 * a, 1.0 - 2.0 * a]])
    pi = stationary_distribution(p)
    np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-14)


def test_stationary_rejects_two_recurrent_classes():
    with pytest.raises(ValidationError, match="2 recurrent classes"):
        stationary_distribution(np.eye(2))


def test_stationary_leading_transient_state():
    pi = stationary_distribution(np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert pi.tolist() == [0.0, 1.0]


def test_recurrent_classes_identity():
    classes = recurrent_classes(np.eye(3))
    assert len(classes) == 3


def test_recurrent_classes_with_transient():
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.4, 0.6], [0.0, 0.5, 0.5]])
    classes = recurrent_classes(p)
    assert [list(c) for c in classes] == [[0], [1, 2]]


# ---------------------------------------------------------------------------
# Ergodic bound


def test_bound_with_identical_kernels(rng):
    k = make_kernel(rng, 4)
    g0 = feasible_potential(rng, k)
    f = risk_map(k, g0, 0.3)
    rep = ergodic_bound(k, k, f)
    assert rep.holds
    cb = rep.class_bounds[0]
    np.testing.assert_allclose(cb.per_state_divergence, 0.0, atol=1e-12)
    assert cb.lhs <= rep.growth_rate + 1e-12  # Jensen
    assert cb.rhs == pytest.approx(rep.growth_rate, abs=1e-12)


def test_bound_with_shifted_support(rng):
    # q moves mass onto transitions that p forbids; the relative-entropy
    # bound would be vacuous, this one stays finite and holds.
    ps = random_point_set(rng, 4, d=1)
    cost = metric_cost(ps, "euclidean", 1.0)
    p = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.5, 0.0],
        [0.0, 0.5, 0.25, 0.25],
        [0.0, 0.0, 0.5, 0.5],
    ])
    q = np.array([
        [0.0, 0.0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.5, 0.0, 0.0],
    ])
    pk = FiniteKernel(ps, p, cost)
    qk = FiniteKernel(ps, q, cost)
    g0 = feasible_potential(rng, pk, amplitude=0.3)
    f = risk_map(pk, g0, 0.2)
    rep = ergodic_bound(pk, qk, f)
    assert rep.holds
    cb = rep.class_bounds[0]
    assert math.isfinite(cb.rhs)
    assert cb.per_state_divergence.max() > 0
    assert cb.lhs <= cb.rhs + 1e-8


def test_bound_checks_every_recurrent_class(rng):
    ps = PointSet((0.0, 1.0, 2.0, 3.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    p = np.full((4, 4), 0.25)
    q = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    pk = FiniteKernel(ps, p, cost)
    qk = FiniteKernel(ps, q, cost)
    g0 = feasible_potential(rng, pk, amplitude=0.3)
    f = risk_map(pk, g0, 0.0)
    rep = ergodic_bound(pk, qk, f)
    assert len(rep.class_bounds) == 2
    assert rep.holds


def test_bound_rejects_unrepresentable_cost(rng):
    k = make_kernel(rng, 4)
    with pytest.raises(ValidationError, match="not representable"):
        ergodic_bound(k, k, 100.0 * k.cost.scaled[:, 0])


def test_bound_randomized(rng):
    for _ in range(20):
        n = 5
        pk = make_kernel(rng, n, sparsity=0.3)
        q = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) > 0.3)
        q[q.sum(axis=1) == 0, 0] = 1.0
        q = q / q.sum(axis=1, keepdims=True)
        qk = FiniteKernel(pk.states, q, pk.cost)
        g0 = feasible_potential(rng, pk)
        f = risk_map(pk, g0, float(rng.normal()))
        rep = ergodic_bound(pk, qk, f)
        for cb in rep.class_bounds:
            assert cb.slack >= -1e-8


# ---------------------------------------------------------------------------
# Performance bound


def test_performance_bound_zero_function(rng):
    ps = random_point_set(rng, 4)
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = random_measure(rng, ps)
    nu = random_measure(rng, ps)
    pb = performance_bound(np.zeros(4), mu, nu, cost)
    assert pb.lhs == 0.0
    assert pb.rhs >= 0.0
    assert pb.log_mgf == pytest.approx(0.0, abs=1e-12)


def test_performance_bound_tight_at_optimal_potential(rng):
    ps = random_point_set(rng, 5)
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = random_measure(rng, ps)
    nu = random_measure(rng, ps)
    sol = divergence(mu, nu, cost, tol=1e-11)
    pb = performance_bound(sol.potential, mu, nu, cost, tol=1e-11)
    assert pb.slack == pytest.approx(0.0, abs=1e-8)


def test_performance_bound_random_feasible(rng):
    for _ in range(10):
        ps = random_point_set(rng, 4, d=1)
        cost = metric_cost(ps, "euclidean", float(rng.uniform(0.5, 2.0)))
        mu = random_measure(rng, ps)
        nu = random_measure(rng, ps)
        g = project_lipschitz(rng.normal(0, 1, 4), cost)
        pb = performance_bound(g, mu, nu, cost)
        assert pb.lhs <= pb.rhs + 1e-9


# ---------------------------------------------------------------------------
# Gaussian AR(1) example


def test_ar1_zero_potential_passes_through():
    out, ok = ar1_risk_quadratic(GaussianAR1(0.3, 2.0), QuadraticFunction(0.0, 0.0), 1.1)
    assert ok
    assert out.quadratic == 0.0 and out.linear == 0.0 and out.constant == 1.1


def test_ar1_coefficients_direct_value():
    out, ok = ar1_risk_quadratic(GaussianAR1(0.5, 1.0), QuadraticFunction(0.1, 0.0), 0.0)
    assert ok
    assert out.quadratic == pytest.approx(0.1 * (1 - 0.25 / 0.8), abs=1e-15)
    assert out.quadratic == pytest.approx(0.06875, abs=1e-15)


def test_ar1_validity_boundary():
    model = GaussianAR1(0.5, 1.0)
    _, ok = ar1_risk_quadratic(model, QuadraticFunction(0.5, 0.0), 0.0)  # 1-2b sigma^2 = 0
    assert not ok
    _, ok2 = ar1_risk_quadratic(model, QuadraticFunction(0.499999, 0.0), 0.0)
    assert ok2


def test_ar1_peak_exact_and_searched():
    peak = ar1_max_quadratic_rate(GaussianAR1(0.5, 1.0))
    assert peak.b_star == 0.25
    assert peak.k_star == 0.125
    assert abs(peak.search_b - 0.25) <= 1e-6
    assert abs(peak.search_k - 0.125) <= 1e-8


def test_ar1_peak_other_parameters():
    peak = ar1_max_quadratic_rate(GaussianAR1(0.9, 2.0))
    assert peak.b_star == pytest.approx(0.0125, abs=1e-15)
    assert peak.k_star == pytest.approx(0.00125, abs=1e-15)
    assert abs(peak.search_k - peak.k_star) <= 1e-8


def test_ar1_rate_diverges_at_the_boundary():
    model = GaussianAR1(0.5, 1.0)
    b_edge = (1.0 - 1e-6) / (2.0 * model.sigma ** 2)
    assert ar1_quadratic_rate(model, b_edge) < -1e3


def test_ar1_peak_vanishes_as_alpha_to_one():
    ks = [ar1_max_quadratic_rate(GaussianAR1(a, 1.0)).k_star
          for a in (0.9, 0.99, 0.999)]
    assert ks[0] > ks[1] > ks[2]
    assert ks[-1] < 1e-6


def test_ar1_membership_predicate():
    model = GaussianAR1(0.5, 1.0)
    assert ar1_quadratic_representable(model, QuadraticFunction(0.1, 5.0, -3.0))
    assert ar1_quadratic_representable(model, QuadraticFunction(0.125, 0.0, 2.0))
    assert not ar1_quadratic_representable(model, QuadraticFunction(0.125, 0.1))
    assert not ar1_quadratic_representable(model, QuadraticFunction(0.2, 0.0))


def test_gaussian_model_validation():
    with pytest.raises(ValidationError):
        GaussianAR1(1.0, 1.0)
    with pytest.raises(ValidationError):
        GaussianAR1(0.5, 0.0)
