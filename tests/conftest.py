import numpy as np
import pytest

from lipkl import DiscreteMeasure, PointSet, metric_cost


def random_point_set(rng, n, d=1, spread=1.0):
    """Distinct uniform points in [0, spread]^d."""
    while True:
        coords = rng.uniform(0, spread, (n, d)).round(12)
        pts = tuple(map(tuple, coords))
        if len(set(pts)) == n:
            return PointSet(pts)


def dense(cost):
    """The whole scaled cost as one fresh n x n array."""
    return cost.block(slice(None), slice(None))


def random_measure(rng, point_set, support_size=None, min_weight=0.0):
    n = point_set.n
    k = min(support_size or n, n)
    idx = rng.choice(n, size=k, replace=False)
    w = np.zeros(n)
    raw = rng.dirichlet(np.ones(k))
    if min_weight:
        raw = (raw + min_weight) / (raw + min_weight).sum()
    w[idx] = raw
    return DiscreteMeasure(point_set, w)


def random_instance(rng, n, d=1, scale=1.0, mu_support=None, nu_support=None,
                    metric="euclidean", min_weight=0.0):
    ps = random_point_set(rng, n, d)
    cost = metric_cost(ps, metric, scale)
    mu = random_measure(rng, ps, mu_support, min_weight)
    nu = random_measure(rng, ps, nu_support, min_weight)
    return mu, nu, cost


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
