import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lipkl import (
    CostMatrix,
    DiscreteMeasure,
    FiniteKernel,
    PointSet,
    ValidationError,
    cumulant_duality_check,
    divergence,
    dual_objective,
    grid_divergence,
    large_scale_expansion,
    merge_supports,
    metric_cost,
    nearest_atom_aggregation,
    performance_bound,
    project_lipschitz,
    relative_entropy,
    transport_cost,
    verify_optimizers,
)
from lipkl.measures import _lipschitz_tol, lipschitz_violation

from conftest import random_instance, random_measure, random_point_set


def make_grid_instance(b, n=1000):
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([(k - 0.5) / n for k in range(1, n + 1)],
                                     [1.0 / n] * n)
    ps, mu, nu = merge_supports(mu, nu)
    return mu, nu, metric_cost(ps, "euclidean", b)


# ---------------------------------------------------------------------------
# Value examples


def test_equal_measures_give_zero():
    nu = DiscreteMeasure.from_points([0.0, 0.3, 1.0], [0.2, 0.3, 0.5])
    cost = metric_cost(nu.point_set, "euclidean", 1.0)
    sol = divergence(nu, nu, cost, tol=1e-12)
    assert sol.certified
    assert sol.value == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(sol.measure.weights, nu.weights, atol=1e-12)
    spread = sol.potential.values.max() - sol.potential.values.min()
    assert spread <= 1e-12


def test_point_mass_vs_grid_closed_form():
    mu, nu, cost = make_grid_instance(10.0)
    sol = divergence(mu, nu, cost, tol=1e-8)
    assert sol.certified
    closed = math.log(10.0 / (1.0 - math.exp(-10.0)))
    assert closed == pytest.approx(2.302630, abs=1e-6)
    assert sol.value == pytest.approx(closed, abs=1e-2)
    # optimal tilt is exponential in distance, potential is -b*x + const
    cols = nu.support
    x = np.array([p[0] for p in nu.point_set.points])[cols]
    log_density = np.log(sol.measure.weights[cols] / nu.weights[cols])
    fit = log_density + 10.0 * x
    assert fit.max() - fit.min() <= 1e-6
    pot = sol.potential.values[cols] + 10.0 * x
    assert pot.max() - pot.min() <= 1e-6


def test_grid_solve_builds_no_cost_matrix():
    # A cost holds only its scale and what it was accepted from. A metric
    # cost's readers, the solve path and an export alike, compute from the
    # coordinates and keep nothing.
    assert CostMatrix.__slots__ == ("scale_b", "_entries", "_coords", "_metric", "_line")
    mu, nu, cost = make_grid_instance(10.0, n=300)
    assert divergence(mu, nu, cost, tol=1e-8).certified
    transport_cost(mu, nu, cost)
    assert cost.entries.shape == (cost.n, cost.n)
    held = [getattr(cost, name) for name in CostMatrix.__slots__] + list(cost._line)
    assert [a.shape for a in held if isinstance(a, np.ndarray) and a.size >= cost.n ** 2] == []


def test_two_point_instance_matches_oracle():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.25, 0.75])
    cost = metric_cost(ps, "euclidean", 0.1)
    sol = divergence(mu, nu, cost, tol=1e-10)
    orc = grid_divergence(mu, nu, cost)
    assert sol.value == pytest.approx(orc.value, abs=1e-3)


def test_gibbs_tilt_recovers_relative_entropy(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        ps = random_point_set(rng, n, d=1)
        cost = metric_cost(ps, "euclidean", float(rng.uniform(0.5, 3.0)))
        nu = random_measure(rng, ps)
        g = project_lipschitz(rng.normal(0, 0.5, n), cost, reference=nu.support)
        tilt_w = np.zeros(n)
        supp = nu.support
        tilt_w[supp] = nu.weights[supp] * np.exp(g.values[supp])
        tilt = DiscreteMeasure(ps, tilt_w / tilt_w.sum())
        sol = divergence(tilt, nu, cost, tol=1e-10)
        assert sol.value == pytest.approx(relative_entropy(tilt, nu), abs=1e-9)


# ---------------------------------------------------------------------------
# Optimality verification


def test_solver_pair_passes_verification(rng):
    mu, nu, cost = random_instance(rng, 6, scale=1.3)
    sol = divergence(mu, nu, cost, tol=1e-10)
    report = verify_optimizers(sol.measure, sol.potential, mu, nu, cost)
    assert report.feasible and report.optimal
    assert report.gibbs_residual <= 1e-8
    assert report.transport_residual <= 1e-8


def test_wrong_candidate_fails_transport_identity():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.9, 0.1])
    nu = DiscreteMeasure(ps, [0.4, 0.6])
    cost = metric_cost(ps, "euclidean", 0.5)
    report = verify_optimizers(nu, np.zeros(2), mu, nu, cost)
    assert report.gibbs_residual <= 1e-12      # constant g and gamma = nu agree
    assert report.transport_residual > 1e-3    # but mu != nu must move mass
    assert not report.optimal


def test_perturbed_optimizer_fails_gibbs(rng):
    mu, nu, cost = random_instance(rng, 4, scale=0.8)
    sol = divergence(mu, nu, cost, tol=1e-10)
    w = sol.measure.weights.copy()
    j = int(sol.measure.support[0])
    w[j] += 1e-2
    bad = DiscreteMeasure(mu.point_set, w / w.sum())
    report = verify_optimizers(bad, sol.potential, mu, nu, cost)
    assert report.gibbs_residual > 1e-4
    assert not report.optimal
    # A zero entry fails outright where the Gibbs tilt puts mass, and not
    # where the predicted mass is below the weight resolution.
    ps = PointSet((0.0, 1.0, 2.0))
    mu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(ps, [0.5, 0.5, 0.0])
    cost = metric_cost(ps, "euclidean", 1.0)
    sol = divergence(mu, nu, cost, tol=1e-10)
    point = DiscreteMeasure(ps, [1.0, 0.0, 0.0])
    report = verify_optimizers(point, sol.potential, mu, nu, cost)
    assert report.gibbs_residual == math.inf and not report.optimal
    report = verify_optimizers(point, np.array([0.0, -40.0, -40.0]), mu, nu, cost)
    assert math.isfinite(report.gibbs_residual)


def test_infeasible_potential_rejected():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.5])
    nu = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 1.0)
    report = verify_optimizers(nu, np.array([0.0, 7.0]), mu, nu, cost)
    assert not report.feasible
    assert report.violating_pair == (1, 0)
    assert not report.optimal


def test_verify_requires_absolute_continuity():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.5])
    nu = DiscreteMeasure(ps, [0.0, 1.0])
    gamma = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.raises(ValidationError, match="absolutely continuous"):
        verify_optimizers(gamma, np.zeros(2), mu, nu, cost)


# ---------------------------------------------------------------------------
# Dual objective


def test_dual_objective_of_constants_is_zero(rng):
    mu, nu, cost = random_instance(rng, 5)
    assert dual_objective(np.full(5, 3.7), mu, nu) == pytest.approx(0.0, abs=1e-12)


def test_dual_objective_at_optimum_reaches_value(rng):
    mu, nu, cost = random_instance(rng, 6, scale=2.0)
    sol = divergence(mu, nu, cost, tol=1e-10)
    assert dual_objective(sol.potential, mu, nu) == pytest.approx(
        sol.value, abs=max(1e-9, 2 * sol.duality_gap))


def test_dual_objective_weak_duality(rng):
    for _ in range(10):
        mu, nu, cost = random_instance(rng, 3, scale=1.0)
        sol = divergence(mu, nu, cost, tol=1e-11)
        g = project_lipschitz(rng.normal(0, 1, 3), cost)
        assert dual_objective(g, mu, nu) <= sol.value + 1e-10


# ---------------------------------------------------------------------------
# Cumulant duality


def test_cumulant_duality_rejects_a_probe_off_the_point_set():
    # The probe's pairing with g raised numpy's matmul ValueError.
    ps = PointSet((0.0, 1.0, 3.0))
    nu = DiscreteMeasure(ps, [0.5, 0.25, 0.25])
    probe = DiscreteMeasure(PointSet((0.0, 1.0)), [0.5, 0.5])
    with pytest.raises(ValidationError, match="same point set"):
        cumulant_duality_check(np.zeros(3), nu, metric_cost(ps, "euclidean"), mu_candidates=[probe])


def test_cumulant_duality_zero_function(rng):
    mu, nu, cost = random_instance(rng, 3)
    rep = cumulant_duality_check(np.zeros(3), nu, cost)
    assert rep.log_mgf == pytest.approx(0.0, abs=1e-12)
    assert rep.tilt_gap <= 1e-9


def test_cumulant_duality_two_point_closed_form():
    ps = PointSet((0.0, 1.0))
    nu = DiscreteMeasure(ps, [0.5, 0.5])
    cost = metric_cost(ps, "euclidean", 1.0)
    rep = cumulant_duality_check(np.array([0.0, 1.0]), nu, cost)
    assert rep.log_mgf == pytest.approx(math.log((1.0 + math.e) / 2.0), abs=1e-12)
    np.testing.assert_allclose(rep.tilt.weights,
                               [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)],
                               atol=1e-12)
    assert rep.tilt_gap <= 1e-8
    assert rep.entropy_gap <= 1e-8


def test_cumulant_duality_grid_probes(rng):
    for _ in range(5):
        ps = random_point_set(rng, 3, d=1)
        cost = metric_cost(ps, "euclidean", float(rng.uniform(0.5, 2.0)))
        nu = random_measure(rng, ps, min_weight=0.05)
        g = project_lipschitz(rng.normal(0, 0.7, 3), cost)
        probes = [random_measure(rng, ps) for _ in range(15)]
        rep = cumulant_duality_check(g, nu, cost, mu_candidates=probes)
        assert rep.grid_violation <= 1e-9
        assert rep.tilt_gap <= 1e-6


# ---------------------------------------------------------------------------
# Structural properties


def test_monotone_in_scale(rng):
    for _ in range(10):
        mu, nu, cost = random_instance(rng, int(rng.integers(2, 9)))
        values = []
        warm = None
        for b in (0.5, 1.0, 2.0, 4.0):
            sol = divergence(mu, nu, cost.with_scale(b), tol=1e-10,
                             initial_potential=warm)
            warm = sol.potential
            values.append(sol.dual_value)
        assert all(x <= y for x, y in zip(values, values[1:]))


def test_warm_plan_seeds_fewer_iterations():
    # The previous scale's optimal plan seeds the iterate: this ladder takes
    # 64, 32, 16 and 8 iterations (120 in all), where cold solves take 64,
    # 128, 16 and 8 (216).
    mu, nu, cost = random_instance(np.random.default_rng(3), 10, d=2, min_weight=0.05)
    warm, iterations = None, []
    for b in (0.3, 1.0, 3.0, 10.0):
        sol = divergence(mu, nu, cost.with_scale(b), initial_potential=warm)
        assert sol.certified
        warm = sol.potential
        iterations.append(sol.iterations)
    assert iterations == [64, 32, 16, 8]


def test_warm_solves_certify_and_meet_the_cold_bracket(rng):
    for _ in range(60):
        n = int(rng.integers(2, 13))
        mu, nu, cost = random_instance(rng, n, d=int(rng.integers(1, 3)),
                                       mu_support=int(rng.integers(1, n + 1)),
                                       nu_support=int(rng.integers(1, n + 1)))
        warm = None
        for b in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0):
            scaled = cost.with_scale(b)
            sol = divergence(mu, nu, scaled, initial_potential=warm)
            cold = divergence(mu, nu, scaled)
            assert sol.certified and cold.certified
            assert sol.dual_value <= cold.value + sol.tol
            assert cold.dual_value <= sol.value + sol.tol
            warm = sol.potential


def underflow_pair():
    """A pair on five points of a line whose supports differ (mu on the
    first three, nu on the last four), at b * span = 2 000: no closed-form
    exit applies, so every solve runs the mirror loop."""
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ps = PointSet(tuple(x.tolist()))
    mu = DiscreteMeasure(ps, [0.3, 0.4, 0.3, 0.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.1, 0.2, 0.3, 0.4])
    return x, mu, nu, metric_cost(ps, "euclidean", 2000.0)


def test_warm_seed_survives_a_tilt_that_underflows():
    # The warm potential -b x tilts nu to exact zeros on two of its four
    # columns; the tilt's LP carries exactly 0.0 there, so its plan and
    # product entries are zero too.
    from lipkl.core import _Workspace

    x, mu, nu, cost = underflow_pair()
    warm = -2000.0 * x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = _Workspace(mu, nu, cost)
        cand = ws.evaluate(warm[ws.cols])
        zero = cand.gamma == 0.0
        assert zero.sum() == 2
        assert cand.flow[:, zero].tolist() == [[0.0, 0.0]] * 3
        seed = ws.warm_seed(cand)
        sol = divergence(mu, nu, cost, initial_potential=warm)
    assert np.isfinite(seed).all()
    np.testing.assert_allclose(np.logaddexp.reduce(seed, axis=1), np.log(ws.a), rtol=0, atol=1e-12)
    assert sol.certified and sol.iterations >= 1
    cold = divergence(mu, nu, cost)
    assert sol.dual_value <= cold.value + sol.tol and cold.dual_value <= sol.value + sol.tol


def test_step_keeps_every_row_on_its_mu_mass(rng, monkeypatch):
    # The descent step scales each row of its coupling to the row's mu mass
    # in one max-shifted pass, with no second exponentiation of the log
    # iterate: every trial, accepted or not, holds each row's mass to a
    # relative 1e-15.
    from lipkl.core import _Workspace

    step = _Workspace.step
    worst = []

    def checking(self, log_pi, grad, eta):
        trial, pi = step(self, log_pi, grad, eta)
        assert trial.max(axis=1).tolist() == [0.0] * trial.shape[0]
        worst.append(float(np.abs(pi.sum(axis=1) / self.a - 1.0).max()))
        return trial, pi

    monkeypatch.setattr(_Workspace, "step", checking)
    for k in range(40):
        n = int(rng.integers(2, 17))
        mu, nu, cost = random_instance(
            rng, n, d=1 + k % 2, scale=float(10 ** rng.uniform(-1, 3)),
            mu_support=int(rng.integers(1, n + 1)) if k % 3 == 0 else None)
        divergence(mu, nu, cost, max_iter=int(rng.integers(1, 200)))
    assert worst and max(worst) <= 1e-15


def test_step_raises_no_warning_where_the_iterate_underflows():
    # At b * span = 2 000 the gradient spans thousands across a row, so a
    # step sends most of the coupling's entries below the smallest double;
    # the max shift keeps every exponent at or below 0 and every row sum at
    # or above 1, so no overflow, divide or invalid value can arise.
    x, mu, nu, cost = underflow_pair()
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        for max_iter in (1, 2, 100_000):
            for warm in (None, -2000.0 * x):
                sol = divergence(mu, nu, cost, tol=1e-300, max_iter=max_iter,
                                 initial_potential=warm)
                assert sol.iterations >= 1
                assert math.isfinite(sol.value) and math.isfinite(sol.dual_value)


def test_a_random_line_pair_in_the_hard_regime_certifies():
    # Intermediate scales are the mirror loop's hard regime: this pair of
    # Dirichlet(5) measures on 100 random points of a line, at b = 0.3,
    # takes thousands of mirror steps before a round certifies it.
    gen = np.random.default_rng(3)
    ps = PointSet(gen.random(100))
    mu = DiscreteMeasure(ps, gen.dirichlet(np.full(100, 5.0)))
    nu = DiscreteMeasure(ps, gen.dirichlet(np.full(100, 5.0)))
    sol = divergence(mu, nu, metric_cost(ps, "euclidean", 0.3))
    assert sol.certified and sol.iterations >= 1024
    assert sol.dual_value <= sol.value <= sol.dual_value + sol.tol


def test_bounded_by_entropy_and_transport(rng):
    for _ in range(50):
        mu, nu, cost = random_instance(
            rng, int(rng.integers(2, 13)), d=int(rng.integers(1, 3)),
            scale=float(10 ** rng.uniform(-1, 1)))
        sol = divergence(mu, nu, cost, tol=1e-10)
        cap = min(relative_entropy(mu, nu), transport_cost(mu, nu, cost).value)
        assert sol.dual_value <= cap * (1 + 1e-12) + 1e-15
        assert sol.value >= 0.0


def test_joint_convexity(rng):
    tol = 1e-10
    ps = random_point_set(rng, 6, d=1)
    cost = metric_cost(ps, "euclidean", 1.0)
    for _ in range(10):
        mu1, nu1 = random_measure(rng, ps), random_measure(rng, ps)
        mu2, nu2 = random_measure(rng, ps), random_measure(rng, ps)
        t = float(rng.uniform(0.1, 0.9))
        mix_mu = DiscreteMeasure(ps, t * mu1.weights + (1 - t) * mu2.weights)
        mix_nu = DiscreteMeasure(ps, t * nu1.weights + (1 - t) * nu2.weights)
        lhs = divergence(mix_mu, mix_nu, cost, tol=tol).value
        rhs = (t * divergence(mu1, nu1, cost, tol=tol).value
               + (1 - t) * divergence(mu2, nu2, cost, tol=tol).value)
        assert lhs <= rhs + 2 * tol


def test_matches_oracle_on_small_supports(rng):
    for _ in range(12):
        mu, nu, cost = random_instance(
            rng, int(rng.integers(2, 7)), scale=float(rng.uniform(0.1, 0.7)),
            mu_support=int(rng.integers(1, 4)), nu_support=int(rng.integers(2, 4)),
            min_weight=0.15)
        sol = divergence(mu, nu, cost, tol=1e-10)
        orc = grid_divergence(mu, nu, cost)
        assert abs(sol.value - orc.value) <= orc.error_bound + 1e-9


def test_cold_solve_prices_no_lp_for_the_zero_start(rng, monkeypatch):
    # The zero potential's tilt is nu itself. Its dual still counts as a
    # lower bracket, and its tilt still seeds the iterate, but its LP would
    # be read by nothing, so a cold solve never hands nu to the simplex.
    # (With one nu column every tilt is nu, so nu keeps two or more.)
    import lipkl.core

    priced = []
    simplex = lipkl.core.transport_simplex

    def recording(a, b, C):
        priced.append(np.array(b))
        return simplex(a, b, C)

    monkeypatch.setattr(lipkl.core, "transport_simplex", recording)
    for k in range(40):
        n = int(rng.integers(3, 13))
        mu, nu, cost = random_instance(
            rng, n, d=int(rng.integers(1, 3)), scale=float(10 ** rng.uniform(-1, 2)),
            nu_support=int(rng.integers(2, n + 1)) if k % 3 == 0 else None)
        for max_iter in (1, 100_000):
            priced.clear()
            sol = divergence(mu, nu, cost, max_iter=max_iter)
            w = nu.weights[nu.support]
            assert not any(b.shape == w.shape and np.allclose(b, w, rtol=1e-12, atol=0)
                           for b in priced)
            assert sol.dual_value >= dual_objective(np.zeros(n), mu, nu)


@pytest.mark.parametrize("n", [2, 10])
def test_equal_measures_certify_without_the_zero_start_lp(n):
    # With mu = nu the zero potential and the diagonal plan are the exact
    # optimum, and the solve returns them with no LP and no mirror step.
    # The iterate's rounds used to certify brackets near 0 instead:
    # (2.1e-20, -2.2e-16) on the 10-point pair.
    if n == 2:
        nu = DiscreteMeasure.from_points([0.0, 1.0], [0.4, 0.6])
    else:
        gen = np.random.default_rng(3)
        nu = DiscreteMeasure(PointSet(tuple(map(tuple, gen.random((n, 2))))),
                             gen.dirichlet(np.ones(n)))
    sol = divergence(nu, nu, metric_cost(nu.point_set, "euclidean", 1.0))
    assert sol.certified
    assert (sol.value, sol.dual_value, sol.duality_gap, sol.iterations) == (0.0, 0.0, 0.0, 0)
    assert np.array_equal(sol.measure.weights, nu.weights)
    assert np.array_equal(sol.flow, np.diag(nu.weights[nu.support]))
    assert np.array_equal(sol.potential.values[nu.support], np.zeros(nu.support.size))


@pytest.mark.parametrize("case", ["line b=10", "line b=1", "rng 1", "rng 2"])
def test_equal_measures_return_exact_zeros(case):
    # Each solve once returned a certified bracket off the exact 0: the
    # line pair at b = 10 read dual_value 4.4e-17 above it, and with rounds
    # at 1, 8, 16, ... the same pair at b = 1 read 8.5e-15; uniform weights
    # on the 10 random 2-D points of default_rng(1) and (2) read values
    # 3.4e-11 and 3.3e-10.
    if case.startswith("line"):
        nu = DiscreteMeasure.from_points([0.0, 1.0], [0.4, 0.6])
        b = float(case.split("=")[1])
    else:
        gen = np.random.default_rng(int(case.split()[1]))
        nu = DiscreteMeasure(PointSet(tuple(map(tuple, gen.random((10, 2))))), np.full(10, 0.1))
        b = 1.0
    mu = DiscreteMeasure(nu.point_set, nu.weights.copy())
    sol = divergence(mu, nu, metric_cost(nu.point_set, "euclidean", b))
    assert (sol.value, sol.dual_value, sol.iterations, sol.certified) == (0.0, 0.0, 0, True)


@pytest.fixture
def lp_calls(monkeypatch) -> list:
    """Counts the solver's transport LPs: one entry per call."""
    import lipkl.core

    calls = []
    simplex = lipkl.core.transport_simplex

    def counting(a, b, C):
        calls.append(C.shape)
        return simplex(a, b, C)

    monkeypatch.setattr(lipkl.core, "transport_simplex", counting)
    return calls


def test_lipschitz_log_density_returns_relative_entropy_without_a_solve(lp_calls):
    # On {0, 1} with mu = (0.4, 0.6) and nu = (0.5, 0.5), h = log(dmu/dnu)
    # moves by log 1.5 = 0.405 between the points. At b = 1 it lies in the
    # Lipschitz class, so D = R(mu || nu) with mu as its own intermediate
    # measure and the diagonal plan; at b = 0.3 it does not, and D < R.
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.4, 0.6])
    nu = DiscreteMeasure(ps, [0.5, 0.5])
    entropy = relative_entropy(mu, nu)
    sol = divergence(mu, nu, metric_cost(ps, "euclidean", 1.0))
    assert sol.certified and sol.iterations == 0
    assert lp_calls == []
    assert np.array_equal(sol.measure.weights, mu.weights)
    assert np.array_equal(sol.flow, np.diag(sol.flow.diagonal()))
    assert abs(sol.value - entropy) <= 1e-15
    sol = divergence(mu, nu, metric_cost(ps, "euclidean", 0.3))
    assert sol.certified and sol.iterations > 0 and lp_calls
    assert sol.value < entropy - 1e-6


def test_lipschitz_log_density_exits_exactly_when_it_is_b_lipschitz(lp_calls):
    # b* = max |h_j - h_k| / c_jk is the least scale at which h = log(dmu/dnu)
    # is b-Lipschitz: at 2 b* every solve returns R(mu || nu) with no LP and
    # no mirror step, and its pair passes the first-order check; at b* / 2
    # every solve runs the loop and still certifies. D <= R at every scale.
    gen = np.random.default_rng(36)
    for _ in range(200):
        n, d = int(gen.integers(2, 13)), int(gen.integers(1, 3))
        ps = PointSet(gen.random((n, d)))
        mu = DiscreteMeasure(ps, gen.dirichlet(np.full(n, 5.0)))
        nu = DiscreteMeasure(ps, gen.dirichlet(np.full(n, 5.0)))
        h = np.log(mu.weights) - np.log(nu.weights)
        c = metric_cost(ps, "euclidean", 1.0).block(slice(None), slice(None))
        off = ~np.eye(n, dtype=bool)
        b_star = float((np.abs(h[:, None] - h[None, :])[off] / c[off]).max())
        entropy = relative_entropy(mu, nu)
        for b, exits in ((2.0 * b_star, True), (b_star / 2.0, False)):
            cost = metric_cost(ps, "euclidean", b)
            lp_calls.clear()
            sol = divergence(mu, nu, cost)
            assert sol.certified
            assert (sol.iterations == 0 and not lp_calls) is exits
            assert sol.value <= entropy + sol.tol
            if exits:
                assert verify_optimizers(sol.measure, sol.potential, mu, nu, cost).optimal


@pytest.mark.parametrize("case", ["mu << nu", "nu << mu"])
def test_unequal_supports_take_the_loop(case, lp_calls):
    # The closed-form exit needs mu and nu on one support: here h would be
    # b-Lipschitz on the shared atoms, but one measure has a zero weight
    # that the other lacks, so h is log 0 there. Both solves run the mirror
    # loop, with no warning, and repeat the results they had before the exit
    # existed bit for bit (value, dual_value, iterations and the flow, as
    # float.hex). At b = 2 000 the step also underflows 15 or 16 coupling
    # entries to exact zero.
    partial, full = [0.1, 0.2, 0.3, 0.4, 0.0], [0.3, 0.1, 0.2, 0.2, 0.2]
    pinned = {
        "mu << nu": (partial, full, "0x1.b5ee3c7ed58dep-2", "0x1.b5ee3c7ed5862p-2", (4, 5), {
            0: "0x1.999999999999ap-4", 5: "0x1.0000000000000p-56", 6: "0x1.999999999999ap-3",
            12: "0x1.3333333333332p-2", 18: "0x1.999999999999ap-2"}),
        "nu << mu": (full, partial, "0x1.90b779e6410dap+6", "0x1.90b779e6410dap+6", (5, 4), {
            0: "0x1.3333333333332p-2", 5: "0x1.999999999999ap-4", 9: "0x1.0000000000000p-56",
            10: "0x1.999999999999ap-3", 15: "0x1.999999999999ap-3", 19: "0x1.999999999999ap-3"}),
    }
    mu_w, nu_w, value, dual, shape, entries = pinned[case]
    ps = PointSet((0.0, 0.25, 0.5, 0.75, 1.0))
    mu, nu = DiscreteMeasure(ps, mu_w), DiscreteMeasure(ps, nu_w)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        sol = divergence(mu, nu, metric_cost(ps, "euclidean", 2000.0))
    assert sol.certified and lp_calls
    assert (sol.value.hex(), sol.dual_value.hex(), sol.iterations) == (value, dual, 1)
    assert sol.flow.shape == shape
    flow = [float(x).hex() for x in sol.flow.ravel()]
    assert flow == [entries.get(k, "0x0.0p+0") for k in range(len(flow))]


def test_solutions_compare_by_identity():
    # Two solves of the same inputs are two solutions. The generated __eq__
    # compared their array fields, so `==` raised ValueError instead.
    ps = PointSet((0.0, 0.4, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.25, 0.25])
    nu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    cost = metric_cost(ps, "euclidean", 1.0)
    for solve in (divergence, transport_cost):
        first, second = solve(mu, nu, cost), solve(mu, nu, cost)
        assert first.value == second.value
        assert (first == second) is False and (first != second) is True
        assert (first == first) is True
        assert len({first, second, first}) == 2


def test_kept_solutions_own_their_index_arrays(rng):
    # np.flatnonzero returns a view of a (k, 1) buffer of nonzero indices,
    # which every kept solution would pin through its index arrays.
    for k in range(10):
        n = int(rng.integers(3, 10))
        mu, nu, cost = random_instance(rng, n, d=2, mu_support=n - 1 if k % 2 else None,
                                       nu_support=n - 1 if k % 3 else None)
        sol = divergence(mu, nu, cost)
        assert sol.rows.base is None and sol.cols.base is None and sol._flow_at.base is None
        assert sol.rows.tobytes() == np.flatnonzero(mu.weights > 0).tobytes()
        assert sol.cols.tobytes() == np.flatnonzero(nu.weights > 0).tobytes()
        flow = sol.flow
        assert sol._flow_at.dtype == np.int32
        assert sol._flow_at.tobytes() == np.flatnonzero(flow.view(np.int64)).astype(np.int32).tobytes()


def test_kept_solves_stay_within_their_memory_budget():
    # A caller that keeps many solves (the benchmark keeps every op) holds,
    # per solve at n = 16: the point set, both measures, the cost and the
    # solution, which keeps mu and nu rather than their supports, holds its
    # flow's positions as int32, and is slotted, as are the point set and
    # the cost. That came to 2.5 KiB a solve on numpy 2.4 and python 3.11,
    # against 3.4 KiB with instance dicts and kept support arrays. Scale 100
    # keeps the traced solves short.
    kept_solves, budget = 40, 3.0 * 1024
    gen = np.random.default_rng(5)
    inputs = [(gen.random((16, 2)), gen.dirichlet(np.full(16, 5.0)), gen.dirichlet(np.full(16, 5.0)))
              for _ in range(kept_solves)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = []
        for points, mu_w, nu_w in inputs:
            ps = PointSet(tuple(map(tuple, points.tolist())))
            mu, nu = DiscreteMeasure(ps, mu_w), DiscreteMeasure(ps, nu_w)
            cost = metric_cost(ps, "euclidean", 100.0)
            kept.append((ps, mu, nu, cost, divergence(mu, nu, cost)))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(sol.certified for *_, sol in kept)
    assert held / kept_solves <= budget


def test_solve_never_closes_a_support_mask_twice(rng, monkeypatch):
    # A closure depends on its mask alone, so a mask closed once in a solve
    # (by any ladder, in any round) is never walked again.
    import lipkl.core

    masks = []
    walk = lipkl.core._rooted_walk

    def recording(forest, cost, m):
        masks.append(repr(forest))
        return walk(forest, cost, m)

    monkeypatch.setattr(lipkl.core, "_rooted_walk", recording)
    walked = 0
    for n in (5, 8, 12):
        for b in (0.1, 1.0, 10.0, 100.0):
            mu, nu, cost = random_instance(rng, n, d=2, scale=b)
            masks.clear()
            divergence(mu, nu, cost)
            assert len(set(masks)) == len(masks)
            walked += len(masks)
    assert walked


@pytest.mark.parametrize("rung, seed", [(1e-3, 4), (1e-5, 28)])
def test_each_support_guess_threshold_is_needed(rung, seed, monkeypatch):
    # With both thresholds each of these 18-point line pairs at b = 90
    # certifies at the round of iteration 8. With one rung alone, 1e-3 leaves
    # seed 4 uncertified at the budget, and 1e-5 takes seed 28 to it.
    import lipkl.core

    g = np.random.default_rng(seed)
    ps = PointSet(g.random((18, 1)))
    mu = DiscreteMeasure(ps, g.dirichlet(np.ones(18)))
    nu = DiscreteMeasure(ps, g.dirichlet(np.ones(18)))
    cost = metric_cost(ps, "euclidean", 90.0)
    sol = divergence(mu, nu, cost, tol=1e-10, max_iter=512)
    assert sol.certified and sol.iterations == 8
    monkeypatch.setattr(lipkl.core, "_STRUCT_THRESHOLDS", np.array((rung,))[:, None, None])
    sol = divergence(mu, nu, cost, tol=1e-10, max_iter=512)
    assert sol.iterations == 512
    assert sol.certified == (rung == 1e-5)


def test_budget_stop_prices_the_last_iterate_once(monkeypatch):
    # A budget of 8 or 16 is also a doubling round, so the round on the last
    # iterate used to run twice. Rounds run at iteration 1 and at 8 (and 16),
    # and each ladders three flows: 6 (and 9) ladders, where a double round
    # would make 9 (and 12).
    import lipkl.core

    gen = np.random.default_rng(1)
    ps = PointSet(tuple(map(tuple, gen.random((10, 2)))))
    mu = DiscreteMeasure(ps, gen.dirichlet(np.full(10, 5.0)))
    nu = DiscreteMeasure(ps, gen.dirichlet(np.full(10, 5.0)))
    ladders = []
    guesses = lipkl.core._support_guesses

    def recording(flow):
        ladders.append(flow)
        return guesses(flow)

    monkeypatch.setattr(lipkl.core, "_support_guesses", recording)
    for max_iter, count in ((8, 6), (16, 9)):
        ladders.clear()
        sol = divergence(mu, nu, metric_cost(ps, "euclidean", 1.0), tol=1e-300, max_iter=max_iter)
        assert not sol.certified and sol.iterations == max_iter
        assert len(ladders) == count


def test_weak_duality_floor_never_falls_within_a_solve(rng, monkeypatch):
    # A closure candidate is priced only when its dual reaches the floor
    # best_dual - best.gap - 1e-12 (1 + |best_dual|). best_dual only rises
    # and best.gap only falls, so the floor never falls: a closure output
    # refused its LP is refused again, and one priced prices again to the
    # same candidate, which moves neither best nor best_dual. That is why no
    # closure output needs a skip set.
    from lipkl.core import _Workspace

    evaluate = _Workspace.evaluate
    floors = {}               # workspace -> the floors it was given, in order

    def recording(self, g_cols, floor=-math.inf):
        if floor > -math.inf:
            floors.setdefault(self, []).append(floor)
        return evaluate(self, g_cols, floor)

    monkeypatch.setattr(_Workspace, "evaluate", recording)
    for k in range(60):
        n = int(rng.integers(3, 13))
        partial = k % 2 == 0
        mu, nu, cost = random_instance(
            rng, n, d=1 + k % 2, scale=float(10 ** rng.uniform(-1, 2)),
            mu_support=int(rng.integers(1, n + 1)) if partial else None,
            nu_support=int(rng.integers(1, n + 1)) if partial else None)
        for tol, max_iter in ((1e-8, 100_000), (1e-300, int(rng.integers(1, 40)))):
            divergence(mu, nu, cost, tol=tol, max_iter=max_iter)
    assert floors
    for seen in floors.values():
        assert all(later >= earlier for earlier, later in zip(seen, seen[1:]))


def test_closures_without_an_lp_could_not_have_won(rng, monkeypatch):
    # A closure candidate whose dual sits more than the best gap below the
    # best dual gets no LP. Priced after the fact, none of them would have
    # lowered the best gap or raised the best dual.
    from lipkl.core import _Workspace

    evaluate = _Workspace.evaluate
    best = {}                 # workspace -> [best gap, best dual]
    counts = [0, 0]           # candidates, LPs

    def checking(self, g_cols, floor=-math.inf):
        cand = evaluate(self, g_cols, floor)
        gap_dual = best.setdefault(self, [math.inf, -math.inf])
        counts[0] += 1
        if cand is None:
            full = evaluate(self, g_cols)
            assert not full.gap < gap_dual[0]
            assert full.dual <= gap_dual[1]
        else:
            counts[1] += 1
            gap_dual[0] = min(gap_dual[0], cand.gap)
            gap_dual[1] = max(gap_dual[1], cand.dual)
        return cand

    monkeypatch.setattr(_Workspace, "evaluate", checking)
    for k in range(40):
        n = int(rng.integers(3, 17))
        partial = k % 3 == 0
        mu, nu, cost = random_instance(
            rng, n, d=2, scale=float(10 ** rng.uniform(-1, 2)),
            mu_support=int(rng.integers(1, n + 1)) if partial else None,
            nu_support=int(rng.integers(1, n + 1)) if partial else None)
        divergence(mu, nu, cost)
    assert counts[1] < counts[0]


def test_returned_brackets_recheck_without_an_lp(rng):
    # The returned solution carries its own bracket: the primal from its flow
    # and measure, the marginals of its flow, and a feasible potential whose
    # dual value closes the gap on certified solves.
    for k in range(200):
        n = int(rng.integers(3, 13))
        mu, nu, cost = random_instance(
            rng, n, d=int(rng.integers(1, 3)), scale=float(10 ** rng.uniform(-1, 2)),
            mu_support=int(rng.integers(1, n + 1)) if k % 3 == 0 else None,
            nu_support=int(rng.integers(1, n + 1)) if k % 4 == 0 else None)
        sol = divergence(mu, nu, cost, max_iter=4 if k % 5 == 4 else 100_000)
        transport = float((cost.block(sol.rows, sol.cols) * sol.flow).sum())
        primal = transport + relative_entropy(sol.measure, nu)
        assert abs(primal - sol.value) <= 1e-13 * abs(sol.value)
        np.testing.assert_allclose(sol.flow.sum(axis=1), mu.weights[sol.rows], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.flow.sum(axis=0), sol.measure.weights[sol.cols],
                                   rtol=0, atol=1e-12)
        excess, _ = lipschitz_violation(sol.potential.values, cost)
        assert excess <= _lipschitz_tol(sol.potential.values)
        if sol.certified:
            assert dual_objective(sol.potential, mu, nu) >= sol.value - sol.tol


def pinned_instances() -> dict:
    """Small solves whose results are pinned bit for bit below: rows of an
    ergodic bound on a 6-state banded kernel and its shifted alternative
    (ergodic_bound solves each state's row this way), and random 2-D pairs,
    one with a nu atom 30 away from mu, whose Gibbs mass underflows to
    exact zero in some candidates."""
    gen = np.random.default_rng(7)

    def band(lo, hi):
        m = np.zeros((6, 6))
        for x in range(6):
            cols = [y for y in range(x + lo, x + hi + 1) if 0 <= y < 6]
            m[x, cols] = gen.dirichlet(np.full(len(cols), 5.0))
        return m

    states = PointSet(tuple((float(x),) for x in np.arange(6) + gen.uniform(-0.2, 0.2, 6)))
    cost = metric_cost(states, "euclidean", 3.0)
    p = FiniteKernel(states, band(-2, 2), cost)
    q = FiniteKernel(states, band(-1, 3), cost)
    out = {f"markov row {x}": (q.row(x), p.row(x), cost) for x in (0, 2, 5)}
    for n, b in ((5, 1.0), (8, 10.0)):
        ps = PointSet(tuple(map(tuple, gen.uniform(0.0, 1.0, (n, 2)))))
        mu = DiscreteMeasure(ps, gen.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(ps, gen.dirichlet(np.ones(n)))
        out[f"2-D n={n} b={b:g}"] = (mu, nu, metric_cost(ps, "euclidean", b))
    coords = gen.uniform(0.0, 1.0, (6, 2))
    coords[5] += 30.0
    ps = PointSet(tuple(map(tuple, coords)))
    mu = DiscreteMeasure(ps, np.append(gen.dirichlet(np.ones(5)), 0.0))
    nu = DiscreteMeasure(ps, gen.dirichlet(np.ones(6)))
    out["2-D far atom"] = (mu, nu, metric_cost(ps, "euclidean", 40.0))
    return out


# value, dual_value, iterations and the flow's shape and entries, as float.hex.
PINNED = {
    "markov row 0": (
        "0x1.88f7a083b8c62p-2", "0x1.88f7a083b8c62p-2", 1, (4, 3), [
            "0x1.9367bd213a8f7p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.b028e4d2e6f25p-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.e157939a89ba2p-3", "0x0.0p+0", "0x0.0p+0", "0x1.47b00d501a34ep-3",
        ]),
    "markov row 2": (
        "0x1.c162a48e32ac6p-1", "0x1.c162a48e32ac4p-1", 8, (5, 5), [
            "0x1.01d4b67a68a97p-8", "0x1.cefa07ff5f2e4p-3", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.23c759155381cp-3", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.47a5230a3d9a0p-2",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-54",
            "0x1.2d2bead6c8b3fp-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.48b9c84c36229p-3",
        ]),
    "markov row 5": (
        "0x1.d2b93b41a5921p-3", "0x1.d2b93b41a5921p-3", 1, (2, 3), [
            "0x1.9bc08f04821d4p-8", "0x1.515a54fec9522p-2", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x1.541b54629252bp-1",
        ]),
    "2-D n=5 b=1": (
        "0x1.5a30a8c055af8p-3", "0x1.5a30a8c055af8p-3", 1, (5, 5), [
            "0x1.38c3f0763dd57p-10", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.7104eaa45da91p-4", "0x1.97584bc3f527ap-8", "0x0.0p+0",
            "0x1.1035003fbe728p-2", "0x1.69a5c6bcca7d0p-6", "0x0.0p+0", "0x0.0p+0",
            "0x1.2dba73c41f82fp-2", "0x0.0p+0", "0x1.ce787348c2978p-5", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.3ecf130e27502p-4", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.7c37f9362b7e2p-3",
        ]),
    "2-D n=8 b=10": (
        "0x1.7963984675967p-2", "0x1.7963984675963p-2", 8, (8, 8), [
            "0x1.c7a6ffab37661p-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x1.0000000000000p-55", "0x0.0p+0", "0x0.0p+0",
            "0x1.1354eab916217p-5", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.4412c2a435807p-5",
            "0x1.5877a9da453f1p-5", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.0000000000000p-55", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.7a198f6dedb19p-3", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.75dbd3f0652dbp-4",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.eeb159c4d0278p-3", "0x1.cc259deb7c818p-5",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x1.e80ef97118e32p-7", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.2e3c009406865p-4",
        ]),
    "2-D far atom": (
        "0x1.c87ae85ce5906p+0", "0x1.c87ae85ce5738p+0", 1, (5, 6), [
            "0x1.9f3c3671c814ap-4", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.916bc8915649bp-2", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.9000000000000p-52", "0x1.8000000000000p-50",
            "0x1.6893f0104d042p-5", "0x1.2000000000000p-51", "0x1.0000000000000p-50",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.75a7a17da799ap-3",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.1ededb115a405p-2", "0x0.0p+0",
        ]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_solves_repeat_bit_for_bit(name):
    # The solver skips a support mask it has closed before, and nothing
    # else; neither that skip nor the support guesses it leaves may change
    # a bit of what it returns.
    value, dual, iterations, shape, flow = PINNED[name]
    mu, nu, cost = pinned_instances()[name]
    sol = divergence(mu, nu, cost, tol=1e-10)
    assert sol.certified
    assert (sol.value.hex(), sol.dual_value.hex(), sol.iterations) == (value, dual, iterations)
    assert sol.flow.shape == shape
    assert [float(x).hex() for x in sol.flow.ravel()] == flow


def test_structure_closure_over_two_components_and_a_loose_column():
    # Two far-apart clusters, and a nu atom between them whose optimal inflow
    # (~e^{-b c}) sits below the threshold: the guessed support has the
    # components {row 0, col 0} and {row 1, col 1}, and col 2 is loose.
    from lipkl.core import _Workspace

    ps = PointSet((0.0, 10.0, 0.1, 10.1, 5.0))
    cost = metric_cost(ps, "euclidean", 2.0)
    mu = DiscreteMeasure(ps, [0.5, 0.5, 0.0, 0.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.0, 0.3, 0.6, 0.1])
    ws = _Workspace(mu, nu, cost)
    keep = np.array([[True, False, False], [False, True, False]])
    cand = ws.evaluate(ws.structure_closure(keep))
    assert cand.flow[0, 2] > 0.0
    assert cand.gap <= 1e-14
    assert cand.primal == pytest.approx(divergence(mu, nu, cost, tol=1e-12).value, abs=1e-12)


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 10.0])
def test_structure_closure_loose_column_heavier_than_its_row(b):
    # The loose column (point 0.01, nu mass 0.5) is priced by row 0 (point 0,
    # mu mass 0.5), whose attached column holds only 0.05: the loose Gibbs
    # mass exceeds row 0's budget once the attached balance is fixed. A
    # closure that deducted it from that budget stopped with a candidate of
    # gap 3.3 to 54; joining the column to row 0's component closes exactly.
    from lipkl.core import _Workspace

    ps = PointSet((0.0, 10.0, 1.0, 10.5, 0.01))
    cost = metric_cost(ps, "euclidean", b)
    mu = DiscreteMeasure(ps, [0.5, 0.5, 0.0, 0.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.0, 0.05, 0.45, 0.5])
    ws = _Workspace(mu, nu, cost)
    keep = np.array([[True, False, False], [False, True, False]])
    cand = ws.evaluate(ws.structure_closure(keep))
    assert cand.gap <= 1e-14
    assert cand.primal == pytest.approx(divergence(mu, nu, cost, tol=1e-12).value, abs=1e-12)


def test_uncertifiable_request_is_flagged(rng):
    # One mirror iteration leaves a gap of about 0.04 on this instance.
    mu, nu, cost = random_instance(rng, 12, d=2, scale=1.0)
    tol = 1e-12
    sol = divergence(mu, nu, cost, tol=tol, max_iter=1)
    assert not sol.certified
    assert sol.duality_gap > tol
    assert sol.value >= sol.dual_value


def test_tol_must_be_positive(rng):
    mu, nu, cost = random_instance(rng, 3)
    with pytest.raises(ValidationError):
        divergence(mu, nu, cost, tol=0.0)
    other = random_measure(rng, random_point_set(rng, 3))
    with pytest.raises(ValidationError, match="same point set"):
        divergence(mu, other, cost)


def test_calls_reject_a_cost_or_potential_off_the_shared_point_set():
    # Each call used to read the cost's first rows or index past its end:
    # the oracle returned 0.218012 with the 4-point cost (0.217440 with the
    # right one), the aggregation a measure, the rest bare numpy errors.
    ps = PointSet((0.0, 1.0, 3.0))
    mu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(ps, [0.5, 0.25, 0.25])
    larger = metric_cost(PointSet((0.0, 5.0, 9.0, 20.0)), "euclidean")
    smaller = metric_cost(PointSet((0.0, 5.0)), "euclidean")
    calls = [
        lambda: grid_divergence(mu, nu, larger),
        lambda: nearest_atom_aggregation(mu, nu, larger),
        lambda: large_scale_expansion(mu, nu, smaller, [1.0]),
        lambda: performance_bound(np.zeros(2), mu, nu, smaller),
        lambda: cumulant_duality_check(np.zeros(2), nu, smaller),
        lambda: dual_objective([5.0], mu, nu),
        lambda: dual_objective(np.zeros((3, 1)), mu, nu),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="does not match"):
            call()
    # A metric cost on other points of the same size passed the size check:
    # transport_cost returned 2.5 (0.8 with the right cost) and divergence
    # 0.21801 (0.21742).
    moved = metric_cost(PointSet((0.0, 5.0, 9.0)), "euclidean")
    for call in (lambda: transport_cost(mu, nu, moved), lambda: divergence(mu, nu, moved)):
        with pytest.raises(ValidationError, match="other points"):
            call()
    # A cost built on an equal but distinct point set is accepted.
    equal = metric_cost(PointSet((0.0, 1.0, 3.0)), "euclidean")
    assert transport_cost(mu, nu, equal).value == pytest.approx(0.8, abs=1e-15)
    assert grid_divergence(mu, nu, metric_cost(ps, "euclidean")).value == pytest.approx(
        0.217440, abs=1e-6)


def test_warm_start_over_nu_support_is_rejected():
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([0.25, 0.75], [0.5, 0.5])
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    assert nu.support.size < ps.n
    with pytest.raises(ValidationError, match="wrong length"):
        divergence(mu, nu, cost, initial_potential=np.zeros(nu.support.size))


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_non_finite_warm_start_is_rejected(bad):
    # A NaN or -inf on nu's support used to surface as RuntimeWarnings and
    # then the LP's "marginals must have equal total mass".
    ps = PointSet((0.0, 1.0, 2.0))
    mu = DiscreteMeasure(ps, [0.5, 0.5, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.5, 0.5])
    with pytest.raises(ValidationError, match="initial potential"):
        divergence(mu, nu, metric_cost(ps, "euclidean", 1.0), initial_potential=[0.0, bad, 0.0])


def test_label_points_with_explicit_cost():
    ps = PointSet(("sunny", "cloudy", "rain"))
    cost = CostMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]], scale_b=0.5)
    mu = DiscreteMeasure(ps, [0.7, 0.2, 0.1])
    nu = DiscreteMeasure(ps, [0.1, 0.2, 0.7])
    sol = divergence(mu, nu, cost, tol=1e-12)
    assert sol.certified
    assert verify_optimizers(sol.measure, sol.potential, mu, nu, cost).optimal
