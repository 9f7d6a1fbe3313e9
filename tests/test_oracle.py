import math

import numpy as np
import pytest

from lipkl import (
    DiscreteMeasure,
    PointSet,
    ValidationError,
    divergence,
    grid_divergence,
    line_transport_cost,
    merge_supports,
    metric_cost,
    transport_cost,
)

from conftest import random_instance


def test_zero_at_equal_two_point():
    ps = PointSet((0.0, 1.0))
    nu = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 1.0)
    orc = grid_divergence(nu, nu, cost)
    assert orc.value == 0.0
    np.testing.assert_allclose(orc.argmin, [0.5, 0.5])


def test_fixture_value_frozen():
    # Grid-search value for mu=(1,0), nu=(0.25,0.75), b*c(0,1)=0.1 at the
    # default 1e-3 resolution, frozen from the oracle run. The point-mass
    # closed form -log sum nu e^{-bc} = 0.0740469825... lies within the
    # reported bound of the grid value.
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.25, 0.75])
    cost = metric_cost(ps, "euclidean", 0.1)
    orc = grid_divergence(mu, nu, cost)
    assert orc.value == pytest.approx(0.07404709931134812, abs=1e-12)
    closed = -math.log(0.25 + 0.75 * math.exp(-0.1))
    assert abs(orc.value - closed) <= orc.error_bound
    sol = divergence(mu, nu, cost, tol=1e-12)
    assert abs(sol.value - orc.value) <= orc.error_bound


def test_large_scale_concentrates_on_entropy_corner():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 100.0)
    orc = grid_divergence(mu, nu, cost)
    assert orc.value == pytest.approx(math.log(2.0), abs=1e-12)
    np.testing.assert_allclose(orc.argmin, [1.0, 0.0])


def test_point_mass_nu_leaves_one_candidate():
    # The one grid measure on a one-point support is nu itself, so the
    # value is the transport cost to it, as the solver finds.
    ps = PointSet((0.0, 1.0, 2.0))
    mu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(ps, [0.0, 1.0, 0.0])
    cost = metric_cost(ps, "euclidean", 1.0)
    orc = grid_divergence(mu, nu, cost)
    assert orc.value == pytest.approx(0.7, abs=1e-12)
    assert orc.value == pytest.approx(divergence(mu, nu, cost).value, abs=1e-12)
    np.testing.assert_array_equal(orc.argmin, [1.0])


def test_support_limit_enforced():
    nu = DiscreteMeasure.from_points([0.0, 1.0, 2.0, 3.0], [0.25] * 4)
    cost = metric_cost(nu.point_set, "euclidean", 1.0)
    with pytest.raises(ValidationError, match="support"):
        grid_divergence(nu, nu, cost)


def test_oracle_never_below_solver_bracket(rng):
    for _ in range(10):
        mu, nu, cost = random_instance(
            rng, int(rng.integers(2, 6)), scale=float(rng.uniform(0.1, 1.5)),
            nu_support=2, min_weight=0.1)
        orc = grid_divergence(mu, nu, cost)
        sol = divergence(mu, nu, cost, tol=1e-11)
        assert orc.value >= sol.dual_value - 1e-12


# ---------------------------------------------------------------------------
# 1-D line oracle


def test_line_zero_on_equal():
    nu = DiscreteMeasure.from_points([0.0, 0.5], [0.4, 0.6])
    assert line_transport_cost(nu, nu) == 0.0


def test_line_point_mass_vs_grid():
    n = 1000
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([(k - 0.5) / n for k in range(1, n + 1)],
                                     [1.0 / n] * n)
    _, mu, nu = merge_supports(mu, nu)
    assert line_transport_cost(mu, nu) == pytest.approx(0.5, abs=1e-3)


def test_line_scaled_delta_pair():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    ga = DiscreteMeasure(ps, [0.0, 1.0])
    assert line_transport_cost(mu, ga, scale_b=2.0) == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("scale_b", [-1.0, 0.0, math.inf, math.nan])
def test_line_scale_must_be_positive_and_finite(scale_b):
    # A scale of -1 returned -0.8 on this pair.
    ps = PointSet((0.0, 1.0, 3.0))
    mu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(ps, [0.5, 0.25, 0.25])
    assert line_transport_cost(mu, nu) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValidationError, match="scale_b must be a positive real"):
        line_transport_cost(mu, nu, scale_b=scale_b)


def test_line_requires_one_dimension():
    m = DiscreteMeasure.from_points([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValidationError):
        line_transport_cost(m, m)


def test_line_agrees_with_network_simplex(rng):
    for _ in range(100):
        mu, nu, cost = random_instance(
            rng, int(rng.integers(2, 10)), d=1,
            mu_support=int(rng.integers(1, 6)), nu_support=int(rng.integers(1, 6)),
            scale=float(rng.uniform(0.2, 4.0)))
        simplex = transport_cost(mu, nu, cost).value
        line = line_transport_cost(mu, nu, scale_b=cost.scale_b)
        assert simplex == pytest.approx(line, abs=1e-10)
