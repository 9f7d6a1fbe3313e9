import copy
import math
import pickle

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from lipkl import (
    CostMatrix,
    DiscreteMeasure,
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

from conftest import dense, random_measure, random_point_set


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


def multiclass_chains(count=300, seed=5):
    """Kernels with 1-4 closed classes and 0-4 transient states, shuffled."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sizes = rng.integers(1, 5, int(rng.integers(1, 5)))
        closed = int(sizes.sum())
        n = closed + int(rng.integers(0, 5))
        p = np.zeros((n, n))
        start = 0
        for size in sizes:
            idx = np.arange(start, start + size)
            block = rng.uniform(0.05, 1.0, (size, size)) * (rng.random((size, size)) < 0.5)
            p[np.ix_(idx, idx)] = block
            p[idx, np.roll(idx, 1)] = rng.uniform(0.05, 1.0, size)  # a cycle: irreducible
            start += size
        for t in range(closed, n):
            p[t] = rng.uniform(0.05, 1.0, n) * (rng.random(n) < 0.4)
            p[t, rng.integers(0, closed)] = rng.uniform(0.05, 1.0)  # an exit: transient
        p /= p.sum(axis=1, keepdims=True)
        order = rng.permutation(n)
        yield p[np.ix_(order, order)]


def scipy_recurrent_classes(p):
    """Reference: strongly connected components with no edge leaving them."""
    n_comp, labels = connected_components(csr_matrix(p > 0), connection="strong")
    return [np.flatnonzero(labels == c) for c in range(n_comp)
            if not np.any(p[labels == c][:, labels != c] > 0)]


def feasible_potential(rng, kernel, amplitude=0.5):
    raw = rng.normal(0, amplitude, kernel.n)
    return project_lipschitz(raw, kernel.cost).values


# ---------------------------------------------------------------------------
# Kernel type


def test_kernel_validation():
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.raises(ValidationError, match=r"row 0 sums to 0\.9, not 1"):
        FiniteKernel(ps, np.array([[0.5, 0.4], [0.5, 0.5]]), cost)
    with pytest.raises(ValidationError, match="negative"):
        FiniteKernel(ps, np.array([[1.5, -0.5], [0.5, 0.5]]), cost)
    # A NaN passed the row-sum check and then read as a forbidden move.
    with pytest.raises(ValidationError, match="finite"):
        FiniteKernel(ps, np.array([[np.nan, 1.0], [0.5, 0.5]]), cost)
    with pytest.raises(ValidationError, match=r"shape \(1, 2\) != \(2, 2\)"):
        FiniteKernel(ps, np.array([[0.5, 0.5]]), cost)
    other = metric_cost(PointSet((0.0, 1.0, 2.0)), "euclidean", 1.0)
    with pytest.raises(ValidationError, match="does not match the point set of size 2"):
        FiniteKernel(ps, np.eye(2), other)
    # A metric cost on other points of the same size was accepted.
    moved = metric_cost(PointSet((0.0, 5.0)), "euclidean", 1.0)
    with pytest.raises(ValidationError, match="other points"):
        FiniteKernel(ps, np.eye(2), moved)
    equal = metric_cost(PointSet((0.0, 1.0)), "euclidean", 1.0)
    assert FiniteKernel(ps, np.eye(2), equal).cost is equal


def test_kernel_builds_its_log_on_first_use(rng):
    # A bound reads log p of the nominal kernel only; the alternative's is
    # n^2 floats that no step of the bound uses.
    p, q = make_kernel(rng, 5), make_kernel(rng, 5)
    q = FiniteKernel(p.states, q.matrix, p.cost)
    assert p._log_p_cache is None and q._log_p_cache is None
    g = feasible_potential(rng, p)
    f = risk_map(p, g, 0.1)
    assert ergodic_bound(p, q, f).holds
    assert p._log_p_cache is p._log_p and q._log_p_cache is None
    # The risk map reads the same bits as the eager formula it replaced.
    m = p.matrix
    log_p = np.where(m > 0, np.log(np.maximum(m, 1e-300)), -np.inf)
    assert not p._log_p.flags.writeable
    assert p._log_p.tobytes() == log_p.tobytes()
    eager = -np.logaddexp.reduce(log_p - g[None, :], axis=1) - g + 0.1
    assert f.tobytes() == eager.tobytes()
    # A forbidden transition keeps an exact -inf.
    ps = PointSet((0.0, 1.0))
    k = FiniteKernel(ps, np.array([[1.0, 0.0], [0.5, 0.5]]), metric_cost(ps, "euclidean", 1.0))
    assert k._log_p[0, 1] == -np.inf and k._log_p[0, 0] == 0.0


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda k: pickle.loads(pickle.dumps(k))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("built", [False, True], ids=["log-unbuilt", "log-built"])
def test_kernel_clones_stay_read_only(rng, clone, built):
    # A clone of the dict-backed kernel held a writeable matrix and log p.
    k = make_kernel(rng, 4)
    if built:
        k._log_p
    c = clone(k)
    assert not hasattr(c, "__dict__") and not hasattr(k, "__dict__")
    assert c.matrix.tobytes() == k.matrix.tobytes() and not c.matrix.flags.writeable
    assert (c._log_p_cache is None) == (not built)
    assert c._log_p.tobytes() == k._log_p.tobytes() and not c._log_p.flags.writeable
    assert c.states == k.states and c.cost.entries.tobytes() == k.cost.entries.tobytes()


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


@pytest.mark.parametrize("g, a", [
    ([np.nan, 0.0, 0.0], 0.0),  # returned all NaN with a RuntimeWarning
    ([np.inf, 0.0, 0.0], 0.0),  # returned -inf
    ([0.0, 0.0, 0.0], np.nan),
    ([0.0, 0.0, 0.0], -np.inf),
], ids=["nan-potential", "inf-potential", "nan-rate", "inf-rate"])
def test_risk_map_rejects_non_finite_input(rng, g, a):
    with pytest.raises(ValidationError, match="finite"):
        risk_map(make_kernel(rng, 3), g, a)


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


def test_round_trip_recovers_potential(rng, monkeypatch):
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
    # From a far start, Newton halves some steps and still converges: one
    # risk_map call to start and one per accepted full step would be 7.
    import lipkl.markov_uq

    calls = []
    full = lipkl.markov_uq.risk_map
    monkeypatch.setattr(lipkl.markov_uq, "risk_map", lambda *a: calls.append(a) or full(*a))
    gen = np.random.default_rng(0)
    ps = PointSet((0.0, 1.0, 2.0, 3.0))
    p = gen.dirichlet(np.full(4, 0.3), size=4)
    k = FiniteKernel(ps, p, metric_cost(ps, "euclidean", 100.0))
    inv = invert_risk_map(k, 5 * gen.normal(size=4))
    assert inv.converged and inv.iterations == 6 and len(calls) == 11


def test_oversized_cost_is_not_representable(rng):
    k = make_kernel(rng, 4, scale=1.0)
    f = 100.0 * dense(k.cost)[:, 0]
    inv = invert_risk_map(k, f)
    assert inv.converged
    assert not inv.lipschitz_feasible
    assert not inv.representable
    assert inv.lipschitz_excess > 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_rejects_non_finite_cost(rng, bad):
    # A NaN cost used to run Newton to its step budget and report "did not
    # reach tolerance".
    k = make_kernel(rng, 3)
    with pytest.raises(ValidationError, match="finite"):
        invert_risk_map(k, [bad, 0.0, 0.0])


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
    assert inv.jacobian_rank == 3
    assert "recurrent" in inv.diagnosis


@pytest.mark.parametrize("p, f, diagnosis, iterations", [
    # The tilted Jacobian turns singular at the second Newton step.
    ([[0.0, 0.9, 0.1], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [-10.0, -1.0, -9.0],
     "Newton linearization became singular", 2),
    # No step length lowers the residual: the line search stalls well
    # inside the 200-step budget.
    ([[0.25, 0.0, 0.75], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [7.0, -15.0, -5.0],
     "Newton did not reach tolerance", 11),
    # The second step overflows to -inf: the tilted Jacobian has a column of
    # subnormals, singular in floating point though LAPACK finds a pivot.
    # The solve used to take the infinite step into the risk map.
    ([[0.9982980581256378, 0.0, 0.0017019418743622306],
      [0.3909110449296995, 0.6083695677570825, 0.0007193873132179086],
      [0.0, 0.9918498077480492, 0.008150192251950737]],
     [209.05900419185292, -489.4117507964442, 568.1181705483874],
     "Newton linearization became singular", 1),
])
def test_inverse_reports_a_newton_solve_that_stops_early(p, f, diagnosis, iterations):
    ps = PointSet((0.0, 1.0, 2.0))
    kernel = FiniteKernel(ps, np.array(p), metric_cost(ps, "euclidean", 1.0))
    inv = invert_risk_map(kernel, f)
    assert inv.diagnosis == diagnosis and inv.iterations == iterations
    assert not inv.converged and not inv.representable and inv.jacobian_rank == 3
    assert inv.residual == float(np.abs(risk_map(kernel, inv.g, inv.a) - f).max()) > 1.0
    if diagnosis.endswith("singular"):  # no feasibility check on a broken solve
        assert inv.lipschitz_excess == math.inf and not inv.lipschitz_feasible


def test_jacobian_rank_matches_numerical_rank():
    for p in multiclass_chains():
        n = len(p)
        ps = PointSet(tuple(float(i) for i in range(n)))
        k = FiniteKernel(ps, p, metric_cost(ps, "euclidean", 1.0))
        jac0 = np.column_stack([(p - np.eye(n))[:, 1:], np.ones(n)])
        inv = invert_risk_map(k, np.zeros(n))
        assert inv.jacobian_rank == np.linalg.matrix_rank(jac0)
        assert inv.converged == (inv.jacobian_rank == n)


def test_inverse_on_a_nearly_decomposable_chain():
    # 1 - a rounds to 1, so an SVD rank of [(P - I)[:, 1:], 1] reads 1,
    # yet the chain has one recurrent class and the solve is regular.
    a = 1e-17
    ps = PointSet((0.0, 1.0))
    p = np.array([[1.0 - a, a], [2.0 * a, 1.0 - 2.0 * a]])
    inv = invert_risk_map(FiniteKernel(ps, p, metric_cost(ps, "euclidean", 1.0)),
                          np.zeros(2))
    assert inv.converged
    assert inv.jacobian_rank == 2


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


@pytest.mark.parametrize("fn", [recurrent_classes, stationary_distribution])
@pytest.mark.parametrize("p, message", [
    pytest.param([[0.9, 0.3], [0.5, 0.5]], r"row 0 sums to 1\.2, not 1", id="row-sum"),
    pytest.param([[np.nan, 1.0], [0.5, 0.5]], "non-finite", id="nan"),
    pytest.param([[1.25, -0.25], [0.5, 0.5]], r"negative transition probability at \(0, 1\)",
                 id="negative"),
    pytest.param([[0.5, 0.5]], r"shape \(1, 2\) is not square", id="not-square"),
])
def test_chain_functions_reject_a_matrix_that_is_not_a_chain(fn, p, message):
    # These returned a distribution or classes, or raised numpy's matmul error.
    with pytest.raises(ValidationError, match=message):
        fn(np.array(p))


def test_recurrent_classes_identity():
    classes = recurrent_classes(np.eye(3))
    assert len(classes) == 3


def test_recurrent_classes_with_transient():
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.4, 0.6], [0.0, 0.5, 0.5]])
    classes = recurrent_classes(p)
    assert [list(c) for c in classes] == [[0], [1, 2]]


def test_recurrent_classes_match_strong_components():
    for p in multiclass_chains():
        want = scipy_recurrent_classes(p)
        got = recurrent_classes(p)
        assert [c.tolist() for c in got] == sorted(c.tolist() for c in want)


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


def test_bound_rejects_kernels_over_different_state_sets(rng):
    p = make_kernel(rng, 3)
    ps = PointSet((0.0, 1.0, 2.0))
    q = FiniteKernel(ps, p.matrix, metric_cost(ps, "euclidean", 1.0))
    with pytest.raises(ValidationError, match="same state set"):
        ergodic_bound(p, q, np.zeros(3))


def test_bound_rejects_a_second_cost():
    # q's cost was never read: a q at scale 5 returned the same bound as one
    # at p's scale 1, rhs 0.2835541902790123 (0.2835541902790122 since the
    # solver's log-sum-exp is max-shifted).
    ps = PointSet((0.0, 1.0, 2.0))
    p = FiniteKernel(ps, np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]]),
                     metric_cost(ps, "euclidean", 1.0))
    q = np.array([[0.0, 0.9, 0.1], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
    f = risk_map(p, [0.0, 0.3, -0.2], 0.15)
    with pytest.raises(ValidationError, match="same cost"):
        ergodic_bound(p, FiniteKernel(ps, q, metric_cost(ps, "euclidean", 5.0)), f)
    # An equal cost built apart, or given as its explicit matrix, is the same cost.
    rhs = [ergodic_bound(p, FiniteKernel(ps, q, cost), f).class_bounds[0].rhs
           for cost in (p.cost, metric_cost(ps, "euclidean", 1.0), CostMatrix(dense(p.cost)))]
    assert rhs == [0.2835541902790122] * 3


def test_bound_rejects_unrepresentable_cost(rng):
    k = make_kernel(rng, 4)
    with pytest.raises(ValidationError, match="not representable"):
        ergodic_bound(k, k, 100.0 * dense(k.cost)[:, 0])


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


def test_performance_bound_rejects_nan_potential():
    # A NaN potential passed the Lipschitz check and gave lhs = rhs = nan.
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    mu = DiscreteMeasure(ps, [0.5, 0.5])
    with pytest.raises(ValidationError, match="finite"):
        performance_bound([np.nan, 0.0], mu, mu, cost)


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


def test_quadratic_function_evaluates_its_coefficients():
    q = QuadraticFunction(2.0, -1.0, 0.5)
    assert q(3.0) == 15.5
    assert q(np.array([0.0, -1.0])).tolist() == [0.5, 3.5]


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
    # The search interval in b used to end below its fixed lower end for
    # sigma above about 7.1e5: search_k read -1.15e-11 at 7e5 and -inf at 1e7.
    # At 1e154, 2 sigma^2 overflows although sigma^2 and b* are finite, and
    # every field read 0.0.
    for alpha, sigma in [(0.5, 7e5), (0.5, 1e7), (0.9, 1e150), (0.5, 1e154)]:
        peak = ar1_max_quadratic_rate(GaussianAR1(alpha, sigma))
        assert abs(peak.search_k - peak.k_star) <= 1e-12 * peak.k_star
        assert abs(peak.search_b - peak.b_star) <= 1e-6 * peak.b_star
    assert peak.b_star == pytest.approx(2.5e-309, rel=1e-12, abs=0.0)


def test_ar1_rate_diverges_at_the_boundary():
    model = GaussianAR1(0.5, 1.0)
    b_edge = (1.0 - 1e-6) / (2.0 * model.sigma ** 2)
    assert ar1_quadratic_rate(model, b_edge) < -1e3
    # At and past the boundary the Gaussian integral diverges.
    for b in (0.5 / model.sigma ** 2, 1.0):
        assert ar1_quadratic_rate(model, b) == -math.inf


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
    # sigma^2 underflows to 0 (a ZeroDivisionError before), to a subnormal
    # whose reciprocal overflows, or overflows itself (NaN or inf results).
    for sigma in (1e-170, 1e-160, 1e200, math.inf):
        with pytest.raises(ValidationError, match="sigma"):
            GaussianAR1(0.5, sigma)
