import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from lipkl import (
    DiscreteMeasure,
    divergence,
    PointSet,
    line_transport_cost,
    merge_supports,
    metric_cost,
    relative_entropy,
    transport_cost,
    ValidationError,
)
from lipkl.core import DivergenceSolution
from lipkl.divergences import (
    TransportSolution,
    _SupportPlan,
    _least_cost,
    _northwest_corner,
    _rooted_walk,
    transport_simplex,
)

from conftest import dense, random_instance, random_measure, random_point_set


# ---------------------------------------------------------------------------
# Relative entropy


def test_entropy_zero_on_equal():
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.25, 0.75])
    assert relative_entropy(nu, nu) == 0.0


def test_entropy_direct_value():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.5])
    nu = DiscreteMeasure(ps, [0.25, 0.75])
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    assert relative_entropy(mu, nu) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.143841, abs=1e-6)


def test_entropy_infinite_without_absolute_continuity():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 1.0])
    assert relative_entropy(mu, nu) == math.inf


def test_entropy_nonnegative_random(rng):
    for _ in range(50):
        mu, nu, _ = random_instance(rng, int(rng.integers(2, 9)))
        r = relative_entropy(mu, nu)
        assert r >= 0.0


# ---------------------------------------------------------------------------
# Transport: spec examples


def test_point_mass_to_uniform_grid_is_half():
    n = 1000
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([(k - 0.5) / n for k in range(1, n + 1)],
                                     [1.0 / n] * n)
    ps, mu, nu = merge_supports(mu, nu)
    cost = metric_cost(ps, "euclidean", 1.0)
    sol = transport_cost(mu, nu, cost)
    assert sol.value == pytest.approx(0.5, abs=1e-3)


def test_identical_measures_have_diagonal_plan():
    nu = DiscreteMeasure.from_points([0.0, 0.4, 1.0], [0.2, 0.3, 0.5])
    cost = metric_cost(nu.point_set, "euclidean", 1.0)
    sol = transport_cost(nu, nu, cost)
    assert sol.value == 0.0
    np.testing.assert_allclose(sol.plan, np.diag(nu.weights), atol=1e-15)


def test_two_point_crossing():
    ps = PointSet((0.0, 1.0))
    mu = DiscreteMeasure(ps, [1.0, 0.0])
    ga = DiscreteMeasure(ps, [0.0, 1.0])
    cost = metric_cost(ps, "euclidean", 1.0)
    sol = transport_cost(mu, ga, cost)
    assert sol.value == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(sol.plan, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)


# ---------------------------------------------------------------------------
# Transport: properties against independent oracles


def test_symmetry_and_scaling(rng):
    for _ in range(25):
        mu, nu, cost = random_instance(rng, int(rng.integers(2, 10)),
                                       d=int(rng.integers(1, 3)))
        ab = transport_cost(mu, nu, cost).value
        ba = transport_cost(nu, mu, cost).value
        assert ab == pytest.approx(ba, abs=1e-10)
        b = float(rng.uniform(0.5, 8.0))
        scaled = transport_cost(mu, nu, cost.with_scale(b)).value
        assert scaled == pytest.approx(b * ab, rel=1e-12, abs=1e-12)


def test_matches_cdf_oracle_on_lines(rng):
    for _ in range(100):
        mu, nu, cost = random_instance(
            rng, int(rng.integers(2, 12)), d=1,
            mu_support=int(rng.integers(1, 5)), nu_support=int(rng.integers(1, 5)))
        sol = transport_cost(mu, nu, cost)
        assert sol.value == pytest.approx(line_transport_cost(mu, nu), abs=1e-10)


def linprog_transport(a, b, C):
    """The transport LP's value by HiGHS, one equality row per marginal."""
    m, k = C.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, k))),
                          sparse.kron(np.ones((1, m)), sparse.eye(k))])
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_matches_scipy_linprog(rng):
    # Sizes 2 to 6, and 16 to 80 with partial supports: random 2-D points,
    # and points of an integer grid under the Manhattan metric, whose
    # integer costs tie. The staircase is rarely optimal at these sizes,
    # so the least-cost start and its pivots decide the value.
    grid = np.array([(i, j) for i in range(12) for j in range(12)], dtype=float)
    for k in range(32):
        if k < 20:
            mu, nu, cost = random_instance(rng, int(rng.integers(2, 7)),
                                           d=int(rng.integers(1, 3)),
                                           scale=float(rng.uniform(0.3, 3.0)))
        else:
            n = int(rng.integers(16, 81))
            support = {"mu_support": int(rng.integers(n // 2, n + 1)),
                       "nu_support": int(rng.integers(n // 2, n + 1))}
            if k % 2:
                mu, nu, cost = random_instance(rng, n, d=2, scale=float(rng.uniform(0.3, 3.0)),
                                               **support)
            else:
                ps = PointSet(grid[rng.choice(len(grid), n, replace=False)])
                cost = metric_cost(ps, "manhattan", float(rng.integers(1, 4)))
                mu = random_measure(rng, ps, support["mu_support"])
                nu = random_measure(rng, ps, support["nu_support"])
        sol = transport_cost(mu, nu, cost)
        rows, cols = mu.support, nu.support
        C = cost.block(rows, cols)
        reference = linprog_transport(mu.weights[rows], nu.weights[cols], C)
        assert sol.value == pytest.approx(reference, abs=1e-9)


def test_triangle_inequality_over_measures(rng):
    ps = random_point_set(rng, 8, d=2)
    cost = metric_cost(ps, "euclidean", 1.0)
    for _ in range(25):
        a = random_measure(rng, ps)
        b = random_measure(rng, ps)
        c = random_measure(rng, ps)
        ab = transport_cost(a, b, cost).value
        bc = transport_cost(b, c, cost).value
        ac = transport_cost(a, c, cost).value
        assert ac <= ab + bc + 1e-10


def test_certificates(rng):
    for _ in range(25):
        mu, nu, cost = random_instance(rng, int(rng.integers(2, 12)),
                                       d=int(rng.integers(1, 4)),
                                       scale=float(rng.uniform(0.2, 5.0)),
                                       mu_support=int(rng.integers(1, 9)),
                                       nu_support=int(rng.integers(1, 9)))
        sol = transport_cost(mu, nu, cost)
        assert sol.marginal_residual() <= 1e-10
        assert sol.marginal_residual() == flow_marginal_residual(sol)
        assert sol.value == pytest.approx((dense(cost) * sol.plan).sum(), abs=1e-10)
        # strong duality at the returned potential
        pairing = float(sol.potential.values @ (mu.weights - nu.weights))
        assert pairing == pytest.approx(sol.value, abs=1e-9)
        assert sol.complementary_slackness_residual() <= 1e-8
        assert sol.potential.values[0] == 0.0


def flow_marginal_residual(sol):
    flow = sol.flow
    row = np.abs(flow.sum(axis=1) - sol.mu.weights[sol.rows]).max()
    col = np.abs(flow.sum(axis=0) - sol.gamma.weights[sol.cols]).max()
    return float(max(row, col))


def dense_slackness_residual(sol):
    mask = sol.plan > 1e-12
    g = sol.potential.values
    gap = g[:, None] - g[None, :] - dense(sol.cost)
    return float(np.abs(gap[mask]).max())


def test_plans_are_built_on_access_from_the_support_block():
    ps = PointSet((0.0, 0.25, 0.5, 1.0))
    mu = DiscreteMeasure(ps, [0.5, 0.0, 0.5, 0.0])
    nu = DiscreteMeasure(ps, [0.0, 0.3, 0.0, 0.7])
    cost = metric_cost(ps, "euclidean", 2.0)
    # Both solutions keep only the plan's nonzero entries, at most
    # |rows| + |cols| - 1 of them, and build flow and plan on each access.
    for solve in (transport_cost, divergence):
        sol = solve(mu, nu, cost)
        assert sol._flow_at.dtype == np.int32 and sol._flow_of.size <= 3
        assert sol.flow.shape == (2, 2)
        assert sol.flow.tobytes() == np.bincount(sol._flow_at, sol._flow_of, 4).tobytes()
        dense = np.zeros((4, 4))
        dense[np.ix_([0, 2], [1, 3])] = sol.flow
        assert sol.plan.tobytes() == dense.tobytes()
        assert sol.plan is not sol.plan and sol.flow is not sol.flow


def test_slackness_residual_matches_the_dense_formula():
    n = 300
    rng = np.random.default_rng(11)
    ps = PointSet(tuple((k + 0.5) / n for k in range(n)))
    cost = metric_cost(ps, "euclidean", 2.0)
    mu_w, nu_w = np.zeros(n), np.zeros(n)
    mu_w[rng.choice(n, 15, replace=False)] = rng.random(15)
    nu_w[rng.choice(n, 20, replace=False)] = rng.random(20)
    sol = transport_cost(DiscreteMeasure(ps, mu_w / mu_w.sum()),
                         DiscreteMeasure(ps, nu_w / nu_w.sum()), cost)
    # Column duals that are not optimal give a feasible potential (their
    # c-transform) that leaves large gaps on the plan.
    other = replace(sol, _duals=rng.normal(0, 1, sol.cols.size))
    for s in (sol, other):
        assert s.complementary_slackness_residual() == dense_slackness_residual(s)
    assert other.complementary_slackness_residual() > 0.1


def test_transport_cost_builds_its_potential_only_on_read(monkeypatch):
    import lipkl.divergences
    import lipkl.measures

    calls = {"_c_transform": 0, "lipschitz_violation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (lipkl.divergences, lipkl.measures):
        monkeypatch.setattr(module, "_c_transform", counted("_c_transform", module._c_transform))
    monkeypatch.setattr(lipkl.measures, "lipschitz_violation",
                        counted("lipschitz_violation", lipkl.measures.lipschitz_violation))
    mu, nu, cost = make_grid_pair(300, 10.0)
    sol = transport_cost(mu, nu, cost)
    assert sol.value == pytest.approx(5.0, abs=1e-12)
    assert sol.marginal_residual() <= 1e-12
    assert calls == {"_c_transform": 0, "lipschitz_violation": 0}
    # Each read of the potential runs the c-transform of the column duals
    # and the Lipschitz check (itself one c-transform) once.
    assert sol.potential.values[0] == 0.0
    assert calls == {"_c_transform": 2, "lipschitz_violation": 1}


def test_residuals_read_the_solution_own_measures_and_cost():
    # The exact plan of this pair read 0.0 with its own cost and 4.0 with a
    # cost over (0, 5, 9, 20) passed in; no cost or measure can be passed now.
    ps = PointSet((0.0, 1.0, 3.0))
    mu = DiscreteMeasure(ps, [0.2, 0.3, 0.5])
    nu = DiscreteMeasure(ps, [0.5, 0.25, 0.25])
    sol = transport_cost(mu, nu, metric_cost(ps, "euclidean"))
    assert sol.complementary_slackness_residual() == 0.0
    assert sol.marginal_residual() <= 1e-15
    larger = metric_cost(PointSet((0.0, 5.0, 9.0, 20.0)), "euclidean")
    with pytest.raises(TypeError):
        sol.complementary_slackness_residual(larger)
    with pytest.raises(TypeError):
        sol.marginal_residual(mu, nu)


def make_grid_pair(n, b):
    """A point mass at 0 and the uniform measure on an n-point grid of [0, 1]."""
    ps = PointSet(tuple(((k - 0.5) / n,) for k in range(1, n + 1)) + ((0.0,),))
    mu = DiscreteMeasure(ps, np.eye(n + 1)[n])
    nu = DiscreteMeasure(ps, np.append(np.full(n, 1.0 / n), 0.0))
    return mu, nu, metric_cost(ps, "euclidean", b)


def test_residuals_read_the_flow_not_the_plan():
    # The benchmark's one-row LP: a point mass at 0 against a 2 000-point grid,
    # and the one-column LP back. The dense plan would hold 30.5 MiB. The
    # marginal residual is numpy's row and column sums of the flow.
    n = 2000
    mu, nu, cost = make_grid_pair(n, 10.0)
    for src, dst, shape in ((mu, nu, (1, n)), (nu, mu, (n, 1))):
        tracemalloc.start()
        try:
            sol = transport_cost(src, dst, cost)
            residuals = (sol.marginal_residual(), sol.complementary_slackness_residual())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert sol.flow.shape == shape and not hasattr(sol, "__dict__")
        # flow, rows and cols are built on each access, so a write to a
        # returned array reaches neither the next read nor a residual (a
        # write to a kept flow once moved the marginal residual to 1.0).
        flow, rows, cols = sol.flow, sol.rows, sol.cols
        before = flow.tobytes()
        flow[:] = 0.0
        rows[0], cols[0] = n - 1, n - 1
        assert sol.flow.tobytes() == before
        assert (sol.rows.tobytes(), sol.cols.tobytes()) == (src.support.tobytes(), dst.support.tobytes())
        assert (sol.marginal_residual(), sol.complementary_slackness_residual()) == residuals
        assert max(residuals) <= 1e-12
        assert residuals == (flow_marginal_residual(sol), dense_slackness_residual(sol))


def test_a_transport_solution_keeps_no_dense_block():
    # A 100 x 100 LP's dense flow would hold 80 000 B; its basic plan has at
    # most 199 nonzero entries, kept as int32 positions and their floats.
    rng = np.random.default_rng(3)
    mu, nu, cost = random_instance(rng, 100, d=2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = transport_cost(mu, nu, cost)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8000  # 3 839 B on numpy 2.4 and python 3.11
    assert sol.flow.shape == (100, 100)
    assert sol._flow_at.dtype == np.int32 and sol._flow_of.size <= 199


@pytest.mark.parametrize("cls", [DivergenceSolution, TransportSolution])
def test_each_solution_slot_is_declared_once(cls):
    # Python 3.10's dataclass(slots=True) redeclared the fields of a slotted
    # dataclass base as slots of the subclass (3.11 skips them), so each
    # solution carried three shadowed slots there.
    declared = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
    assert not set(cls.__slots__) & set(_SupportPlan.__slots__)
    assert len(declared) == len(set(declared)), declared
    assert {"mu", "_flow_at", "_flow_of"} <= set(declared)


def test_a_one_column_marginal_residual_reads_the_flow_sums():
    # The 10 000-point one-column LP towards a point mass. Summed in the order
    # of the n x n plan's column, the residual read 9.4e-14; numpy's pairwise
    # sum of the flow's one column reads 4.4e-16.
    mu, nu, cost = make_grid_pair(10000, 10.0)
    sol = transport_cost(nu, mu, cost)
    assert sol.flow.shape == (10000, 1)
    assert sol.marginal_residual() <= 1e-15


# ---------------------------------------------------------------------------
# Transportation simplex: its own certificate, no LP library involved


def assert_simplex_certificate(a, b, C):
    X, u, v = transport_simplex(a, b, C)
    assert X.shape == C.shape
    assert (X >= 0).all()
    assert np.abs(X.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(X.sum(axis=0) - b).max() <= 1e-12
    slack = C - u[:, None] - v[None, :]
    assert slack.min() >= -1e-12
    assert np.abs(slack[X > 0]).max(initial=0.0) <= 1e-12
    assert u @ a + v @ b == pytest.approx((C * X).sum(), abs=1e-12)


def test_simplex_certificate_random(rng):
    for _ in range(40):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(n))
        assert_simplex_certificate(a, b, rng.uniform(0.0, 3.0, (m, n)))


def test_simplex_certificate_degenerate(rng):
    # Equal partial sums make the north-west corner exhaust a row and a
    # column at once, which puts zero-flow cells in the initial basis.
    cases = [
        ([0.25, 0.25, 0.5], [0.5, 0.25, 0.25]),
        ([0.25] * 4, [0.25] * 4),
        ([0.5, 0.5], [0.125, 0.375, 0.25, 0.25]),
        ([0.125, 0.375, 0.25, 0.25], [0.5, 0.5]),
        # On random costs most of the ~50 pivots move no mass, so their
        # re-hung subtrees hang under zero-flow cells.
        ([1 / 16] * 16, [1 / 16] * 16),
    ]
    for a, b in cases:
        a, b = np.array(a), np.array(b)
        for _ in range(10):
            assert_simplex_certificate(a, b, rng.uniform(0.0, 3.0, (a.size, b.size)))
        # Equal costs tie every reduced cost at zero.
        assert_simplex_certificate(a, b, np.ones((a.size, b.size)))


def test_simplex_certificate_thin(rng):
    for k in (1, 2, 7):
        w = rng.dirichlet(np.ones(k))
        assert_simplex_certificate(np.ones(1), w, rng.uniform(0.0, 3.0, (1, k)))
        assert_simplex_certificate(w, np.ones(1), rng.uniform(0.0, 3.0, (k, 1)))


def test_simplex_certificate_with_totals_apart_inside_the_tolerance():
    # Row 0 is not exhausted when the north-west start reaches the last
    # column, which it used to pass (an IndexError).
    a, b = np.array([1 + 1e-12, 1e-13]), np.array([0.5, 0.5 + 1e-13])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_simplex_certificate(a, b, C)
    assert (transport_simplex(a, b, C)[0].sum(axis=0) == b).all()
    assert_simplex_certificate(b, a, C.T)
    # Totals apart beyond it, or marginals that do not fit C, are rejected.
    with pytest.raises(ValidationError, match="equal total mass"):
        transport_simplex(a, b + 1e-6, C)
    with pytest.raises(ValidationError, match="shapes"):
        transport_simplex(a, np.ones(3) / 3, C)


def test_simplex_returns_an_optimal_start_without_a_tree_walk(rng, monkeypatch):
    import lipkl.divergences

    walks = []
    for name in ("_rooted_walk", "_hang"):
        walk = getattr(lipkl.divergences, name)
        monkeypatch.setattr(lipkl.divergences, name,
                            lambda *a, name=name, walk=walk: walks.append(name) or walk(*a))
    # A sorted |x - y| cost is a Monge matrix, so the north-west start is
    # optimal; an LP with one row or one column has no other feasible plan.
    for m, n in ((12, 12), (5, 9), (1, 3000), (40, 1)):
        x, y = np.sort(rng.uniform(0, 1, m)), np.sort(rng.uniform(0, 1, n))
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        assert_simplex_certificate(a, b, 3.0 * np.abs(x[:, None] - y[None, :]))
    assert_simplex_certificate(np.ones(1), rng.dirichlet(np.ones(50)), rng.uniform(0, 3, (1, 50)))
    assert walks == []
    # A staircase that is not optimal gives way to the least-cost start,
    # which the simplex roots by hanging its tree, as each pivot re-hangs
    # only the subtree it cuts off: no whole-forest walk. Here the staircase
    # is the diagonal and the least-cost start the optimal anti-diagonal.
    a, C = np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]])
    assert_simplex_certificate(a, a, C)
    assert (transport_simplex(a, a, C)[0] == np.array([[0.0, 0.5], [0.5, 0.0]])).all()
    assert walks and set(walks) == {"_hang"}


# Found by a seeded search over LPs with zero-mass lines and 0/1 costs, then
# pruned of every zero line it could lose: five rows of mass 0.2 and two
# columns of 0.5 among two zero rows and nine zero columns. Pivots through
# the zero lines move no mass, and here they run past m + n in a row, so
# Bland's rule enters.
ZERO_LINE_BLAND = (
    np.array([0.2, 0.0, 0.2, 0.2, 0.2, 0.0, 0.2]),
    np.array([0.5] + [0.0] * 9 + [0.5]),
    np.array([
        [1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1], [1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1], [0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1],
    ], dtype=float),
)


def test_zero_mass_lines_carry_exact_zeros_at_the_positive_block_value(rng, monkeypatch):
    # A row or column of zero mass needs no sub-blocking by the caller: the
    # LP with it has the value of the LP on the positive block, carries
    # exactly 0.0 on each of its cells, and keeps the dual certificate on
    # every cell, those of the zero lines included.
    import lipkl.divergences

    fell_back = []
    entering = lipkl.divergences._entering

    def recording(C, pot, m, eps, bland):
        found = entering(C, pot, m, eps, bland)
        if bland and found[2] >= 0:
            fell_back.append(found[2])
        return found

    monkeypatch.setattr(lipkl.divergences, "_entering", recording)
    cases = [ZERO_LINE_BLAND]
    for k in range(300):
        m, n = (int(x) for x in rng.integers(1, 12, size=2))
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        for w, share in ((a, 0.2), (b, 0.3)):
            zero = rng.random(w.size) < share
            zero[rng.integers(w.size)] = False
            w[zero] = 0.0
            w /= w.sum()
        if k % 2:
            C = rng.uniform(0.0, 3.0, (m, n))
        else:
            x, y = rng.random((m, 2)), rng.random((n, 2))
            C = np.sqrt(((x[:, None] - y[None]) ** 2).sum(axis=2))
        cases.append((a, b, C))
    zero_lines = 0
    for k, (a, b, C) in enumerate(cases):
        fell_back.clear()
        assert_simplex_certificate(a, b, C)
        assert bool(fell_back) == (k == 0)
        X = transport_simplex(a, b, C)[0]
        ra, cb = a > 0, b > 0
        zero_lines += (~ra).sum() + (~cb).sum()
        assert set(X[~ra].ravel().tolist()) <= {0.0}
        assert set(X[:, ~cb].ravel().tolist()) <= {0.0}
        block = C[np.ix_(ra, cb)]
        positive = float((block * transport_simplex(a[ra], b[cb], block)[0]).sum())
        assert float((C * X).sum()) == pytest.approx(positive, abs=1e-12)
    assert zero_lines >= 300


def test_monge_lps_never_build_the_least_cost_basis(rng, monkeypatch):
    # The staircase is priced first, and on a Monge cost it is optimal, so
    # the least-cost start is never built: sorted |x - y| costs of every
    # shape, marginals with coinciding partial sums among them, and each LP
    # of a certified solve on one row of a banded kernel, whose five states
    # on either side sit in sorted order.
    import lipkl.divergences

    built = []
    least_cost = lipkl.divergences._least_cost
    monkeypatch.setattr(lipkl.divergences, "_least_cost",
                        lambda a, b, C: built.append(C.shape) or least_cost(a, b, C))
    for m, n in ((2, 2), (5, 5), (12, 12), (7, 30), (40, 3)):
        x, y = np.sort(rng.uniform(0, 1, m)), np.sort(rng.uniform(0, 1, n))
        for a, b in ((rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))),
                     (np.full(m, 1.0 / m), np.full(n, 1.0 / n))):
            assert_simplex_certificate(a, b, 3.0 * np.abs(x[:, None] - y[None, :]))
    states = PointSet(tuple((float(x),) for x in np.arange(6) + rng.uniform(-0.2, 0.2, 6)))
    row, tilt = np.zeros(6), np.zeros(6)
    row[1:6], tilt[0:5] = rng.dirichlet(np.full(5, 5.0)), rng.dirichlet(np.full(5, 5.0))
    sol = divergence(DiscreteMeasure(states, row), DiscreteMeasure(states, tilt),
                     metric_cost(states, "euclidean", 3.0))
    assert sol.certified and sol.flow.shape == (5, 5)
    assert built == []
    # The same row against a shuffled cost is not Monge.
    C = 3.0 * np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, ::-1])
    assert_simplex_certificate(row[1:6], tilt[0:5], C)
    assert built == [(5, 5)]


def least_cost_cases(rng):
    """Degenerate inputs for the least-cost start: equal partial sums,
    marginals on a common grid of 1/k, integer-tied costs, equal costs, and
    totals apart by less than the 1e-9 tolerance, with random costs too."""
    marginals = [
        ([0.25, 0.25, 0.5], [0.5, 0.25, 0.25]),
        ([0.25] * 4, [0.25] * 4),
        ([0.5, 0.5], [0.125, 0.375, 0.25, 0.25]),
        ([1 / 16] * 16, [1 / 16] * 16),
        ([1 + 1e-12, 1e-13], [0.5, 0.5 + 1e-13]),
        ([0.5, 0.5 + 1e-13], [1 + 1e-12, 1e-13]),
        ([0.3, 0.7 - 4e-10], [0.2, 0.2, 0.6]),
    ]
    for m, n in ((2, 7), (5, 3), (6, 6), (9, 12), (16, 16)):
        k = int(rng.integers(1, 4)) * max(m, n)
        marginals.append(((rng.multinomial(k - m, np.ones(m) / m) + 1.0) / k,
                          (rng.multinomial(k - n, np.ones(n) / n) + 1.0) / k))
    for a, b in marginals:
        a, b = np.array(a), np.array(b)
        m, n = a.size, b.size
        yield a, b, rng.integers(0, 4, (m, n)).astype(float)
        yield a, b, np.ones((m, n))
        yield a, b, rng.uniform(0.0, 3.0, (m, n))


def test_least_cost_basis_spans_on_degenerate_inputs(rng):
    checked = 0
    for a, b, C in least_cost_cases(rng):
        m, n = C.shape
        X, basis = _least_cost(a.tolist(), b.tolist(), C)
        X = np.array(X)
        assert len(basis) == len(set(basis)) == m + n - 1
        tree = [[] for _ in range(m + n)]
        for i, j in basis:
            tree[i].append(m + j)
            tree[m + j].append(i)
        _, comp = _rooted_walk(tree, C.tolist(), m)
        assert not any(comp)
        # The plan is basic and feasible, and carries the smaller total.
        off = np.ones((m, n), bool)
        off[tuple(zip(*basis))] = False
        assert (X >= 0).all() and (X[off] == 0).all()
        slack = 1.0 + (m + n) * np.finfo(float).eps
        assert (X.sum(axis=1) <= a * slack).all() and (X.sum(axis=0) <= b * slack).all()
        assert abs(X.sum() - min(a.sum(), b.sum())) <= 1e-15 * (m + n)
        # Cells go in ascending cost: the first is the least (the first on ties).
        assert basis[0] == divmod(int(C.argmin()), n)
        # The simplex from that start: its certificate, with the marginals
        # short by at most the gap between the totals.
        X, u, v = transport_simplex(a, b, C)
        short = 1e-12 + abs(a.sum() - b.sum())
        assert (X >= 0).all()
        assert np.abs(X.sum(axis=1) - a).max() <= short and np.abs(X.sum(axis=0) - b).max() <= short
        slack = C - u[:, None] - v[None, :]
        assert slack.min() >= -1e-12 and np.abs(slack[X > 0]).max() <= 1e-12
        checked += 1
    assert checked == 12 * 3


def test_least_cost_start_lays_the_shared_mass_on_the_diagonal(rng):
    # On a metric cost the zero cells are the diagonal, so they come first,
    # and each carries min(mu_i, gamma_i), the mass that need not move.
    for n in (3, 8, 20):
        mu, nu, cost = random_instance(rng, n, d=2)
        a, b = mu.weights, nu.weights
        X, _ = _least_cost(a.tolist(), b.tolist(), cost.block(slice(None), slice(None)))
        assert (np.diag(np.array(X)) == np.minimum(a, b)).all()


def staircase_reference(a, b, C):
    """The north-west start's loop on a one-line LP: the staircase laid cell
    by cell, and the potentials it sets as each cell joins."""
    m, n = C.shape
    X, pot = np.zeros((m, n)), [0.0] * (m + n)
    pot[m] = C[0, 0] - pot[0]
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = min(ra, rb)
        X[i, j] = t
        ra -= t
        rb -= t
        if i == m - 1 and j == n - 1:
            return X, np.array(pot[:m]), np.array(pot[m:])
        if i < m - 1:
            i += 1
            ra = a[i]
            pot[i] = C[i, j] - pot[m + j]
        else:
            j += 1
            rb = b[j]
            pot[m + j] = C[i, j] - pot[i]


def test_one_line_lps_match_the_staircase_loop_bit_for_bit(rng):
    lines = [rng.dirichlet(np.ones(k)) if k % 2 else np.full(k, 1.0 / k) for k in (1, 2, 3, 7, 50, 400)]
    # Entries below the gap: a shorter total runs out before the last cell.
    lines.append(np.array([0.25, 0.75, 2e-14, 3e-14]))
    checked = 0
    for line in lines:
        k = line.size
        for tied in (False, True):
            C = (rng.integers(0, 3, (1, k)) if tied else rng.uniform(0.0, 3.0, (1, k))).astype(float)
            for apart in (-1e-13, 0.0, 1e-13):
                rest = np.array([line.sum() + apart])
                for a, b, cost in ((rest, line, C), (line, rest, C.T.copy())):
                    X, u, v = transport_simplex(a, b, cost)
                    X_ref, u_ref, v_ref = staircase_reference(a, b, cost)
                    for got, ref in ((X, X_ref), (u, u_ref), (v, v_ref)):
                        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                    # The plan carries the smaller total: no line exceeds its
                    # marginal beyond the rounding of k float sums.
                    slack = 1.0 + k * np.finfo(float).eps
                    assert (X >= 0).all()
                    assert (X.sum(axis=1) <= a * slack).all() and (X.sum(axis=0) <= b * slack).all()
                    assert abs(X.sum() - min(a.sum(), b.sum())) <= 1e-15 * k
                    checked += 1
    assert checked == 7 * 2 * 3 * 2
    # The last line's shorter total leaves its last cell empty.
    assert transport_simplex(np.array([1.0 - 1e-13]), lines[-1], np.ones((1, 4)))[0][0, -1] == 0.0


def numpy_pivot_reference(a, b, C, pivots=None):
    """The pivot loop on a numpy plan, from the simplex's start: the
    north-west staircase, priced, and when a cell would enter, the
    least-cost basis, rooted at row 0 by a breadth-first walk. Reduced
    costs (C - u) - v with fresh u and v arrays every pivot; Dantzig's
    entering cell, the first cell at the least reduced cost, or Bland's,
    the first negative one, once m + n pivots in a row have moved no mass
    and until one does; the cycle walked with one pair of lists indexed by
    side. An LP with at least two rows and two columns. ``pivots``, a list,
    gets one entry per pivot: whether Bland's rule chose its entering cell."""
    m, n = C.shape
    cost = C.tolist()
    X, pot = _northwest_corner(a.tolist(), b.tolist(), cost)
    tree = None
    eps = 1e-11 * (1.0 + float(np.abs(C).max(initial=0.0)))
    stalled = 0
    while True:
        u = np.array(pot[:m])
        v = np.array(pot[m:])
        reduced = (C - u[:, None] - v[None, :]).ravel()
        negative = np.flatnonzero(reduced < -eps)
        if negative.size == 0:
            return X, u, v
        if tree is None:
            X, basis = _least_cost(a.tolist(), b.tolist(), C)
            X = np.array(X)
            tree = [set() for _ in range(m + n)]
            for i, j in basis:
                tree[i].add(m + j)
                tree[m + j].add(i)
            parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
            level = [0]
            while level:
                below = []
                for node in level:
                    for other in tree[node]:
                        if other != parent[node]:
                            parent[other], depth[other] = node, depth[node] + 1
                            edge = cost[node][other - m] if other >= m else cost[other][node - m]
                            pot[other] = edge - pot[node]
                            below.append(other)
                level = below
            continue
        bland = stalled >= m + n
        first = int(negative[0] if bland else np.flatnonzero(reduced == reduced.min())[0])
        if pivots is not None:
            pivots.append(bland)
        ei, ej = divmod(first, n)
        sides = ([], [])
        ends = [ei, m + ej]
        while ends[0] != ends[1]:
            s = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            node, up = ends[s], parent[ends[s]]
            sides[s].append((node, up - m) if node < m else (up, node - m))
            ends[s] = up
        minus = sides[0][0::2] + sides[1][0::2]
        plus = sides[0][1::2] + sides[1][1::2] + [(ei, ej)]
        theta = min(X[cell] for cell in minus)
        stalled = stalled + 1 if theta == 0 else 0
        leave = min(cell for cell in minus if X[cell] <= theta)
        for cell in plus:
            X[cell] += theta
        for cell in minus:
            X[cell] -= theta
        X[leave] = 0.0
        li, lj = leave
        tree[li].remove(m + lj)
        tree[m + lj].remove(li)
        tree[ei].add(m + ej)
        tree[m + ej].add(ei)
        node, top = (ei, m + ej) if leave in sides[0] else (m + ej, ei)
        parent[node] = top
        stack = [node]
        while stack:
            node = stack.pop()
            up = parent[node]
            depth[node] = depth[up] + 1
            pot[node] = (cost[node][up - m] if up >= m else cost[up][node - m]) - pot[up]
            for other in tree[node]:
                if other != up:
                    parent[other] = node
                    stack.append(other)


# With uniform marginals 1/10 the identity plan is optimal on this integer
# cost with a zero diagonal, and the least-cost start lays it (the staircase
# does too, but its basis prices a negative cell), so no pivot moves mass.
# Dantzig's rule runs m + n = 20 pivots without reaching an optimal basis,
# and Bland's rule enters the last cell. Found by a local search over
# integer costs 1 to 9 off the diagonal, one entry changed per step:
# random costs ran at most 19 degenerate pivots in a row, and the first
# cost that ran 20 was optimal after them; a walk among its neighbours that
# kept the run at 20 or more found this one.
FALL_BACK_COST = np.array([
    [0, 1, 3, 6, 2, 7, 7, 9, 4, 1], [8, 0, 7, 4, 9, 5, 9, 3, 3, 7],
    [1, 1, 0, 9, 3, 1, 1, 3, 2, 7], [1, 2, 1, 0, 1, 6, 4, 4, 4, 5],
    [4, 7, 1, 5, 0, 1, 7, 1, 4, 9], [2, 2, 1, 3, 6, 0, 2, 9, 1, 1],
    [3, 5, 6, 4, 1, 4, 0, 1, 8, 8], [6, 8, 1, 4, 8, 6, 3, 0, 1, 2],
    [2, 2, 7, 2, 3, 3, 7, 8, 0, 5], [9, 9, 5, 9, 1, 5, 9, 6, 6, 0],
], dtype=float)


def degenerate_lps(rng):
    """LPs whose starts and pivots are degenerate: uniform marginals on k x k
    grids under both metrics, as given and with the columns shuffled;
    uniform marginals 1/m and 1/n, and marginals on a common grid of 1/k,
    under integer costs, whose reduced costs tie; and FALL_BACK_COST."""
    for k in (2, 3, 4, 5):
        grid = PointSet(np.array([(i, j) for i in range(k) for j in range(k)], dtype=float))
        w = np.full(k * k, 1.0 / (k * k))
        for metric in ("euclidean", "manhattan"):
            C = metric_cost(grid, metric).entries
            yield w, w, C
            yield w, w, C[:, rng.permutation(k * k)]
    for m, n in ((2, 7), (5, 3), (6, 6), (9, 12), (16, 16)):
        C = rng.integers(0, 4, (m, n)).astype(float)
        yield np.full(m, 1.0 / m), np.full(n, 1.0 / n), C
        k = 2 * max(m, n)
        a = (rng.multinomial(k - m, np.ones(m) / m) + 1.0) / k
        b = (rng.multinomial(k - n, np.ones(n) / n) + 1.0) / k
        yield a, b, C
    w = np.full(10, 0.1)
    yield w, w, FALL_BACK_COST


def staircase_cells(a, b):
    """The basic cells of the north-west start, in the order of its walk:
    down from an exhausted row or from the last column, right otherwise,
    with the exhaustion test of `_northwest_corner`."""
    m, n = len(a), len(b)
    cells, i, j, ra, rb = [(0, 0)], 0, 0, a[0], b[0]
    while (i, j) != (m - 1, n - 1):
        t = min(ra, rb)
        ra -= t
        rb -= t
        if i < m - 1 and (j == n - 1 or ra <= 1e-15 * (1.0 + a[i])):
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]
        cells.append((i, j))
    return cells


def cost_on_the_threshold(rng, a, b, C):
    """C with one non-basic cost of the north-west start moved onto the
    pricing threshold: the cell's reduced cost lies below -eps when taken
    as (C - u) - v and not when taken as (C - v) - u, or the reverse. None
    when no cost within 64 ulps of the threshold splits the two orders on
    any non-basic cell."""
    m, n = C.shape
    _, pot = _northwest_corner(a.tolist(), b.tolist(), C.tolist())
    basis = staircase_cells(a.tolist(), b.tolist())
    top = float(np.abs(C).max())
    eps = 1e-11 * (1.0 + top)
    free = [(i, j) for i in range(m) for j in range(n) if (i, j) not in basis]
    for k in rng.permutation(len(free)).tolist():
        i, j = free[k]
        u, v = pot[i], pot[m + j]
        c = math.nextafter(u + v - eps, -math.inf)
        for _ in range(64):
            if abs(c) < top and ((c - u) - v < -eps) != ((c - v) - u < -eps):
                C = C.copy()
                C[i, j] = c
                return C
            c = math.nextafter(c, math.inf)
    return None


def pivot_corpus(rng):
    """Sizes 2 to 20, log-uniform. Random and integer-tied costs; marginals
    on a common grid of 1/k, whose partial sums coincide and leave zero-flow
    basic cells; totals apart by up to 1e-10; and Monge costs with one cell
    moved onto the pricing threshold, where only (C - u) - v, in that
    order, prices as the loop does. Then the degenerate LPs. Each LP comes
    with whether its cost was moved onto the threshold."""
    for case in range(2000):
        m, n = (int(2 * 10 ** x + 0.5) for x in rng.uniform(0.0, 1.0, size=2))
        if case % 4 == 1:
            k = int(rng.integers(1, 4)) * max(m, n)
            a = (rng.multinomial(k - m, np.ones(m) / m) + 1.0) / k
            b = (rng.multinomial(k - n, np.ones(n) / n) + 1.0) / k
        else:
            a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        if case % 5 == 2:
            b = b * (1.0 + float(rng.uniform(-1e-10, 1e-10)))
        if case % 3 == 0:
            C = rng.integers(0, 4, (m, n)).astype(float)
        elif case % 3 == 1:
            C = rng.uniform(0.0, 3.0, (m, n))
        else:
            x, y = np.sort(rng.uniform(0, 1, m)), np.sort(rng.uniform(0, 1, n))
            C = 3.0 * np.abs(x[:, None] - y[None, :])
            moved = cost_on_the_threshold(rng, a, b, C)
            if moved is not None:
                yield a, b, moved, True
                continue
        yield a, b, C, False
    for a, b, C in degenerate_lps(rng):
        yield a, b, C, False


def test_list_pivots_match_the_numpy_pivot_loop_bit_for_bit(rng):
    # The loop's rule, fall-back included, on every LP of the corpus; the
    # LPs with ties at the least reduced cost tell the first tied cell from
    # the others, and FALL_BACK_COST's last pivot tells Bland's rule from
    # Dantzig's.
    on_threshold, pivots = 0, []
    for a, b, C, moved in pivot_corpus(rng):
        on_threshold += moved
        got, ref = transport_simplex(a, b, C), numpy_pivot_reference(a, b, C, pivots)
        for x, y in zip(got, ref):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert on_threshold >= 500
    assert pivots.count(True) == 1


def test_degenerate_lps_terminate_with_the_certificate(rng, monkeypatch):
    import lipkl.divergences

    fell_back = []
    entering = lipkl.divergences._entering

    def recording(C, pot, m, eps, bland):
        found = entering(C, pot, m, eps, bland)
        if bland and found[2] >= 0:
            fell_back.append(C.shape)
        return found

    monkeypatch.setattr(lipkl.divergences, "_entering", recording)
    for a, b, C in degenerate_lps(rng):
        assert_simplex_certificate(a, b, C)
    assert fell_back == [FALL_BACK_COST.shape]


def test_dantzig_pricing_takes_at_most_a_third_of_blands_pivots(monkeypatch):
    # Twenty 16 x 16 LPs between random 2-D points, the size of the
    # benchmark's solves; no staircase among them is optimal. From the
    # staircase: 505 pivots by Dantzig's rule, 2 351 by Bland's. From the
    # least-cost start, which replaces it: 108 and 225.
    import lipkl.divergences

    gen = np.random.default_rng(16)
    corpus = []
    for _ in range(20):
        a, b = gen.dirichlet(np.full(16, 5.0)), gen.dirichlet(np.full(16, 5.0))
        x = gen.random((16, 2))
        corpus.append((a, b, np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))))
    entering, least_cost = lipkl.divergences._entering, lipkl.divergences._least_cost

    def staircase(a, b, C):
        X, _ = _northwest_corner(a, b, C.tolist())
        return X.tolist(), staircase_cells(a, b)

    def pivots(bland_only: bool, start) -> int:
        # Every entering cell found, less the staircase's own, which the
        # simplex drops for the start it builds.
        count = 0

        def counting(C, pot, m, eps, bland):
            nonlocal count
            found = entering(C, pot, m, eps, bland or bland_only)
            count += found[2] >= 0
            return found

        def building(a, b, C):
            nonlocal count
            count -= 1
            return start(a, b, C)

        monkeypatch.setattr(lipkl.divergences, "_entering", counting)
        monkeypatch.setattr(lipkl.divergences, "_least_cost", building)
        for lp in corpus:
            assert_simplex_certificate(*lp)
        return count

    assert (pivots(False, staircase), pivots(True, staircase)) == (505, 2351)
    assert (pivots(False, least_cost), pivots(True, least_cost)) == (108, 225)


def test_simplex_potentials_are_the_whole_tree_walk_of_the_final_basis(rng):
    # Without degeneracy the final basis is the support of X, and the
    # re-hung potentials must equal a walk of that tree from row 0 in every
    # bit: each node's potential is fixed by its root path.
    checked = 0
    while checked < 60:
        m, n = (int(k) for k in rng.integers(2, 13, size=2))
        a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        C = rng.uniform(0.0, 3.0, (m, n))
        X, u, v = transport_simplex(a, b, C)
        rows, cols = np.nonzero(X > 0)
        if rows.size != m + n - 1:
            continue
        tree = [[] for _ in range(m + n)]
        for i, j in zip(rows.tolist(), cols.tolist()):
            tree[i].append(m + j)
            tree[m + j].append(i)
        pot, comp = _rooted_walk(tree, C.tolist(), m)
        assert not any(comp)
        assert u.tolist() == pot[:m] and v.tolist() == pot[m:]
        checked += 1


def test_rooted_walk_roots_and_labels_each_component_at_its_lowest_node(rng):
    # Rows 0-2, columns 3-6; components {0, 4}, {1, 2, 3, 5} and {6}.
    C = rng.uniform(0.0, 3.0, (3, 4))
    edges = [(0, 1), (1, 0), (2, 0), (2, 2)]
    tree = [[] for _ in range(7)]
    for i, j in edges:
        tree[i].append(3 + j)
        tree[3 + j].append(i)
    pot, comp = _rooted_walk(tree, C.tolist(), 3)
    # Each component's lowest node is its root, the one node at potential 0.
    assert [node for node in range(7) if pot[node] == 0.0] == [0, 1, 6]
    assert comp == [0, 1, 1, 1, 0, 1, 2]
    for i, j in edges:
        assert pot[i] + pot[3 + j] == pytest.approx(C[i, j], abs=1e-15)


def test_simplex_raises_on_a_basis_that_does_not_span(monkeypatch):
    import lipkl.divergences

    least_cost = lipkl.divergences._least_cost

    def short_basis(a, b, C):
        X, basis = least_cost(a, b, C)
        return X, basis[:-1]

    monkeypatch.setattr(lipkl.divergences, "_least_cost", short_basis)
    # Neither staircase is optimal, so the least-cost start replaces it;
    # without its last cell that basis has m + n - 2 cells.
    for a, C in (([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
                 ([1 / 3] * 3, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])):
        with pytest.raises(RuntimeError, match="not spanning"):
            transport_simplex(np.array(a), np.array([0.5, 0.5]), np.array(C))
