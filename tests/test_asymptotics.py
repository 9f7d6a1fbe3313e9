import math

import numpy as np
import pytest

from lipkl import (
    DiscreteMeasure,
    PointSet,
    ValidationError,
    entropy_limit_sweep,
    large_scale_expansion,
    merge_supports,
    metric_cost,
    nearest_atom_aggregation,
    point_vs_uniform_benchmark,
    relative_entropy,
    sweep_rows,
    transport_cost,
    transport_limit_sweep,
)

from conftest import dense, random_instance

FP_SLACK = 1e-12  # representation slack for coincident-value comparisons


def two_point_instance():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.5])
    nu = DiscreteMeasure(ps, [0.25, 0.75])
    return mu, nu, metric_cost(ps, "euclidean", 1.0)


# ---------------------------------------------------------------------------
# Entropy-limit sweep


def test_entropy_sweep_zero_when_equal():
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.4, 0.6])
    cost = metric_cost(nu.point_set, "euclidean", 1.0)
    sweep = entropy_limit_sweep(nu, nu, cost, [1.0, 10.0, 100.0])
    assert sweep.reference == 0.0
    assert sweep.values == (0.0, 0.0, 0.0)


def test_entropy_sweep_increases_to_entropy():
    mu, nu, cost = two_point_instance()
    sweep = entropy_limit_sweep(mu, nu, cost, [1.0, 10.0, 100.0])
    r = relative_entropy(mu, nu)
    assert sweep.reference == pytest.approx(r, abs=1e-15)
    assert all(a <= b for a, b in zip(sweep.values, sweep.values[1:]))
    assert all(v <= r * (1 + FP_SLACK) for v in sweep.values)
    assert abs(sweep.values[-1] - r) <= 1e-3   # b * min-cost = 100 >= 50
    assert sweep.values[0] < sweep.values[-1]


def test_entropy_sweep_diverges_without_absolute_continuity():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 1.0])
    cost = metric_cost(ps, "euclidean", 1.0)
    sweep = entropy_limit_sweep(mu, nu, cost, [1.0, 100.0])
    assert sweep.reference == math.inf
    assert sweep.values[-1] > sweep.values[0] + 1.0


def test_sweep_rows_format():
    mu, nu, cost = two_point_instance()
    sweep = entropy_limit_sweep(mu, nu, cost, [1.0, 2.0])
    rows = sweep_rows(sweep)
    assert len(rows) == 2
    assert rows[0][0] == 1.0 and rows[0][2] == sweep.reference


# ---------------------------------------------------------------------------
# Transport-limit sweep


def test_transport_sweep_zero_when_equal():
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.4, 0.6])
    cost = metric_cost(nu.point_set, "euclidean", 1.0)
    sweep = transport_limit_sweep(nu, nu, cost, [1e-3, 1e-1, 1.0])
    assert sweep.reference == 0.0
    assert all(v == 0.0 for v in sweep.values)


def test_transport_sweep_two_point_ratio_to_one():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 1.0])
    cost = metric_cost(ps, "euclidean", 1.0)
    sweep = transport_limit_sweep(mu, nu, cost, [1e-3, 1e-2, 1e-1])
    assert sweep.reference == pytest.approx(1.0, abs=1e-12)
    assert all(r <= 1.0 * (1 + FP_SLACK) for r in sweep.ratios)
    assert abs(sweep.ratios[0] - 1.0) <= 1e-3


def test_transport_sweep_grid_ratio_to_half():
    n = 1000
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([(k - 0.5) / n for k in range(1, n + 1)],
                                     [1.0 / n] * n)
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    sweep = transport_limit_sweep(mu, nu, cost, [1e-3])
    assert sweep.reference == pytest.approx(0.5, abs=1e-12)
    assert abs(sweep.ratios[0] - 0.5) <= 1e-3


def test_transport_sweep_jensen_bound_random(rng):
    for _ in range(5):
        mu, nu, cost = random_instance(rng, int(rng.integers(2, 7)))
        sweep = transport_limit_sweep(mu, nu, cost, [1e-3, 1e-2, 0.1, 0.5, 1.0])
        w = sweep.reference
        assert all(r <= w * (1 + FP_SLACK) + 1e-300 for r in sweep.ratios)
        assert all(a <= b for a, b in zip(sweep.values, sweep.values[1:]))


@pytest.mark.parametrize("scales", [[0.0, 1.0], [10.0, -1.0]])
def test_entropy_sweep_rejects_nonpositive_scales(scales):
    mu, nu, cost = two_point_instance()
    with pytest.raises(ValidationError, match="scales must be positive"):
        entropy_limit_sweep(mu, nu, cost, scales)


def test_transport_sweep_rejects_bad_scales():
    mu, nu, cost = two_point_instance()
    with pytest.raises(ValidationError):
        transport_limit_sweep(mu, nu, cost, [0.5, 2.0])


# ---------------------------------------------------------------------------
# Large-scale expansion


def test_expansion_with_nested_support_recovers_entropy():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.7, 0.3])
    nu = DiscreteMeasure(ps, [0.25, 0.75])
    cost = metric_cost(ps, "euclidean", 1.0)
    rep = large_scale_expansion(mu, nu, cost, [10.0, 100.0])
    np.testing.assert_allclose(rep.gamma_star_limit.weights, mu.weights, atol=1e-15)
    assert rep.leading_coefficient == 0.0
    assert rep.constant == pytest.approx(relative_entropy(mu, nu), abs=1e-15)
    assert not rep.tie_break_used


def test_expansion_point_mass_example():
    mu = DiscreteMeasure.from_points([0.4], [1.0])
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.5, 0.5])
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    rep = large_scale_expansion(mu, nu, cost, [10.0, 100.0])
    np.testing.assert_allclose(rep.gamma_star_limit.weights, [1.0, 0.0, 0.0])
    assert rep.leading_coefficient == pytest.approx(0.4, abs=1e-15)
    assert rep.constant == pytest.approx(math.log(2.0), abs=1e-15)
    assert all(r <= FP_SLACK for r in rep.remainders)
    assert -1e-2 <= rep.remainders[-1] <= 0.0


def test_expansion_tie_break_warns():
    mu = DiscreteMeasure.from_points([0.5], [1.0])
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.5, 0.5])
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.warns(UserWarning, match="tie"):
        gamma, tie = nearest_atom_aggregation(mu, nu, cost)
    assert tie
    np.testing.assert_allclose(gamma.weights, [1.0, 0.0, 0.0])  # lowest index


def test_expansion_target_minimizes_entropy_over_transport_minimizers(rng):
    # On oracle-sized instances the expansion target must minimize the
    # entropy term among measures minimizing the transport term. With
    # distinct distances the transport minimizer is unique (the aggregation
    # itself); every other candidate on a simplex grid pays extra transport.
    from lipkl.divergences import transport_simplex

    for _ in range(5):
        nu = DiscreteMeasure.from_points(sorted(rng.uniform(0, 1, 3)),
                                         rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3)
        mu = DiscreteMeasure.from_points(sorted(rng.uniform(0, 1, 2)),
                                         rng.dirichlet(np.ones(2)) * 0.9 + 0.1 / 2)
        ps, mu, nu = merge_supports(mu, nu)
        cost = metric_cost(ps, "euclidean", 1.0)
        gamma_nn, tie = nearest_atom_aggregation(mu, nu, cost)
        if tie:
            continue
        w_min = transport_cost(mu, gamma_nn, cost).value
        r_nn = relative_entropy(gamma_nn, nu)
        cols = nu.support
        a = mu.weights[mu.support]
        C = dense(cost)[np.ix_(mu.support, cols)]
        steps = 40
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                g = np.array([i, j, steps - i - j]) / steps
                pos = g > 0
                flow, _, _ = transport_simplex(a, g[pos], C[:, pos])
                w = float((C[:, pos] * flow).sum())
                assert w >= w_min - 1e-12
                if w <= w_min + 1e-9:
                    gamma = np.zeros(ps.n)
                    gamma[cols] = g
                    r = relative_entropy(DiscreteMeasure(ps, gamma), nu)
                    assert r >= r_nn - 1e-9


def test_tied_distances_split_in_the_large_scale_limit():
    # A point mass equidistant between two equal nu atoms: every split has
    # the same transport cost, and the entropy term selects the even split.
    # The solver's optimizer approaches it, while the aggregation rule
    # (outside the distinctness hypothesis) warns and picks the lowest index.
    mu = DiscreteMeasure.from_points([0.5], [1.0])
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.5, 0.5])
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    from lipkl import divergence

    sol = divergence(mu, nu, cost.with_scale(60.0), tol=1e-10)
    np.testing.assert_allclose(sol.measure.weights[:2], [0.5, 0.5], atol=1e-6)


def test_expansion_empty_target_rejected():
    mu = DiscreteMeasure.from_points([0.4], [1.0])
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.5, 0.5])
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.raises(ValidationError):
        large_scale_expansion(mu, nu, cost, [])


# ---------------------------------------------------------------------------
# Point-vs-uniform benchmark


@pytest.mark.parametrize("b, expected", [
    (10.0, 2.302630),
    (1.0, 0.458675),
])
def test_benchmark_closed_form(b, expected):
    rep = point_vs_uniform_benchmark(b, 1000)
    assert rep.closed_form == pytest.approx(expected, abs=1e-6)
    assert rep.error <= 1e-2
    assert abs(rep.transport_value - b / 2.0) <= b * 1e-3


@pytest.mark.parametrize("b", [0.5, 3.0, 20.0])
def test_benchmark_divergence_below_scaled_transport(b):
    rep = point_vs_uniform_benchmark(b, 200)
    assert rep.value <= rep.transport_value * (1 + FP_SLACK)


def test_benchmark_validates_inputs():
    with pytest.raises(ValidationError):
        point_vs_uniform_benchmark(-1.0)
    with pytest.raises(ValidationError):
        point_vs_uniform_benchmark(1.0, 50)


@pytest.mark.parametrize("grid_size", [150.7, math.inf, math.nan])
def test_benchmark_rejects_a_grid_size_that_is_not_whole(grid_size):
    # 150.7 used to run a 150-point grid; inf and nan raised OverflowError
    # and a bare ValueError from int().
    with pytest.raises(ValidationError, match=rf"grid_size must be a whole number, not {grid_size!r}"):
        point_vs_uniform_benchmark(1.0, grid_size)


def test_benchmark_grid_is_the_midpoint_grid_and_accepts_whole_floats(monkeypatch):
    import lipkl.asymptotics

    built = []
    monkeypatch.setattr(lipkl.asymptotics, "PointSet", lambda pts: built.append(PointSet(pts)) or built[-1])
    reports = [point_vs_uniform_benchmark(1.0, size) for size in (150, 150.0, np.int64(150))]
    assert reports[0] == reports[1] == reports[2] and reports[0].grid_size == 150
    # The grid's bits are those of the per-point comprehension it replaced.
    n = 150
    expected = tuple(((k - 0.5) / n,) for k in range(1, n + 1)) + ((0.0,),)
    for ps in built:
        assert ps.points == expected and ps.is_numeric
