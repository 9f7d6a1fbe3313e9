import copy
import json
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipkl import (
    CostMatrix,
    CostValidationError,
    DiscreteMeasure,
    FiniteKernel,
    LipschitzFunction,
    PointSet,
    SignedMeasure,
    ValidationError,
    cost_violations,
    load_cost,
    load_measure,
    merge_supports,
    metric_cost,
    project_lipschitz,
)
from lipkl import measures
from lipkl.measures import lipschitz_violation, measure_to_dict

from conftest import dense, random_point_set


# ---------------------------------------------------------------------------
# Point sets and measures


def test_point_set_rejects_duplicates():
    for zero in [(0.0,), 0.0, 0, np.float64(0.0), [0], np.zeros(1)]:
        with pytest.raises(ValidationError, match=r"duplicate point at index 2: \(0\.0,\)"):
            PointSet(((0.0,), (1.0,), zero))
    with pytest.raises(ValidationError, match=r"duplicate point at index 2: 'a'"):
        PointSet(("a", "b", "a"))


def test_point_set_scalar_points_become_1d():
    for points in [
        (0.0, 0.5, 1.0),
        (0, 0.5, 1),
        (np.float64(0.0), np.float64(0.5), np.float64(1.0)),
        ([0.0], [0.5], [1]),
        ((0.0,), (0.5,), (1.0,)),
        np.array([0.0, 0.5, 1.0]),
    ]:
        ps = PointSet(points)
        assert ps.dimension == 1
        assert ps.coords.shape == (3, 1)
        assert ps.points == ((0.0,), (0.5,), (1.0,))


def test_point_set_labels():
    for labels in [("a", "b"), (True, False), ("a", (True, 1.0)), (("a", 1.0), ("b", 2.0))]:
        ps = PointSet(labels)
        assert not ps.is_numeric
        assert ps.points == labels
        with pytest.raises(ValidationError):
            _ = ps.coords
        with pytest.raises(ValidationError, match="non-numeric labels"):
            metric_cost(ps)


@pytest.mark.parametrize("point, canonical", [
    ((0.5, 1.0), (0.5, 1.0)),
    ((), ()),
    (2, (2.0,)),
    ((1, 2.5), (1.0, 2.5)),
    (np.float64(0.25), (0.25,)),
    ((np.float64(0.25), 1.0), (0.25, 1.0)),
    ([0.5, 3], (0.5, 3.0)),
    (np.array([0.5, 3.0]), (0.5, 3.0)),
    (True, True),
    ((True, 1.0), (True, 1.0)),
    ((1.0, "a"), (1.0, "a")),
    (["a", 1.0], ("a", 1.0)),
    ("a", "a"),
])
def test_points_canonicalize_to_python_floats(point, canonical):
    ps = PointSet((point,))
    (got,) = ps.points
    assert got == canonical and type(got) is type(canonical)
    if isinstance(got, tuple):
        assert [type(x) for x in got] == [type(x) for x in canonical]
    assert ps.index(point) == 0
    # A numeric set builds its tuples from its coordinate array on every
    # read and keeps none; a label set keeps its tuple.
    assert ps.points == ps.points
    assert (ps.points is ps.points) is not ps.is_numeric


def test_point_set_reads_every_input_kind_into_one_array(rng):
    coords = rng.uniform(-1.0, 1.0, (50, 2))
    canonical = tuple(map(tuple, coords.tolist()))
    sets = [PointSet(points) for points in (canonical, coords.tolist(), (tuple(p) for p in coords),
                                            coords, list(coords))]
    for ps in sets:
        assert ps == sets[0] and hash(ps) == hash(sets[0])
        assert ps.points == canonical
        assert ps.coords.shape == (50, 2) and ps.coords.tobytes() == coords.tobytes()
        assert [ps.index(p) for p in canonical] == list(range(50))
    # Each set holds its own copy: the caller's array stays writeable and
    # changing it changes no set.
    coords[0] = 5.0
    assert sets[3].points == canonical
    # A set over other points, or the same points in another order, differs.
    assert PointSet(canonical[::-1]) != sets[0]
    assert PointSet(canonical[:-1]) != sets[0]


@pytest.mark.parametrize("rows, repeat", [
    ([[0.0], [1.0], [-0.0]], r"2: \(-0\.0,\)"),
    ([[-0.0, 1.0], [0.0, 2.0], [0.0, 1.0]], r"2: \(0\.0, 1\.0\)"),
    ([[3.0, 1.0], [0.0, 2.0], [0.0, 2.0], [3.0, 1.0]], r"2: \(0\.0, 2\.0\)"),
    ([[1.0, -0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]], r"3: \(1\.0, 0\.0\)"),
])
def test_duplicate_error_on_an_array_names_the_first_repeat(rows, repeat):
    # 0.0 and -0.0 are one point; the error names the first index whose
    # point appeared earlier, as the per-point path does.
    for points in (np.array(rows), rows, tuple(map(tuple, rows))):
        with pytest.raises(ValidationError, match=r"duplicate point at index " + repeat):
            PointSet(points)


def test_coords_are_a_read_only_view_that_the_metric_cost_shares(rng):
    for points in (np.linspace(0.0, 1.0, 5), rng.uniform(0.0, 1.0, (5, 3))):
        ps = PointSet(points)
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 3.0
        for metric in ("euclidean", "manhattan"):
            cost = metric_cost(ps, metric, 2.0).with_scale(3.0)
            assert cost._coords.shape == ps.coords.shape[::-1]
            assert np.shares_memory(cost._coords, ps.coords)


def test_a_10000_point_line_holds_one_array():
    # The tuple form held 779 KiB: 10 000 1-tuples and their floats.
    n = 10_000
    grid = (np.arange(n) + 0.5) / n
    for points in (grid, tuple((x,) for x in grid.tolist())):
        tracemalloc.start()
        try:
            ps = PointSet(points)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ps.n == n and held < 256 * 2**10


@pytest.mark.parametrize("points, numeric", [
    (("a", "b"), False),
    ((True, False), False),
    (("a", (True, 1.0)), False),
    (((0.0,), (1.0, 2.0)), False),
    ([[0.0], [1.0, 2.0]], False),
    (((0.0,), "a"), False),
    (((1.0, "a"), (2.0, "b")), False),
    ((0, 1, 2), True),
    (((1, 2), (3, 4)), True),
    ([[0, 1.5], [2, 3]], True),
    (np.arange(6.0).reshape(3, 2), True),
    (np.arange(3), True),
    (((0.0, 1.0), (2.0, 3.0)), True),
    (((), ), True),
])
def test_point_set_is_numeric_on_every_input_kind(points, numeric):
    assert PointSet(points).is_numeric is numeric


def test_point_set_fast_path_agrees_with_the_per_point_path(rng):
    coords = rng.uniform(-1.0, 1.0, (40, 2))
    canonical = tuple(map(tuple, coords.tolist()))
    fast = PointSet(canonical)
    # Exact fractions make numpy infer an object array, so this input is
    # read point by point.
    slow = PointSet([tuple(map(Fraction, p)) for p in canonical])
    assert slow == fast and slow.points == fast.points
    for points in (coords.tolist(), coords, (tuple(p) for p in coords), list(canonical)):
        ps = PointSet(points)
        assert ps.points == fast.points
        assert [type(x) for p in ps.points for x in p] == [float] * 80
        assert ps.is_numeric and fast.is_numeric
        assert [ps.index(p) for p in coords] == [fast.index(p) for p in coords] == list(range(40))
    # Mixed lengths and labels are not numeric on either path.
    for points in (((0.0,), (1.0, 2.0)), [[0.0], [1.0, 2.0]]):
        assert not PointSet(points).is_numeric
    assert not PointSet(((0.0,), "a")).is_numeric
    # The duplicate error names the first repeated index on both paths.
    rows = [[0.0], [1.0], [0.0]]
    for points in (((0.0,), (1.0,), (0.0,)), rows, np.array(rows), (p for p in rows)):
        with pytest.raises(ValidationError, match=r"duplicate point at index 2: \(0\.0,\)"):
            PointSet(points)
    with pytest.raises(ValidationError, match=r"duplicate point at index 2: \(1\.0,\)"):
        PointSet(((0.0,), (1.0,), (1.0,), (0.0,)))


def test_measure_weights_validated():
    ps = PointSet((0.0, 1.0))
    with pytest.raises(ValidationError, match="negative"):
        DiscreteMeasure(ps, [-0.1, 1.1])
    with pytest.raises(ValidationError, match="sum"):
        DiscreteMeasure(ps, [0.5, 0.6])
    m = DiscreteMeasure(ps, [0.5, 0.5])
    with pytest.raises(ValueError):
        m.weights[0] = 0.3  # frozen


def test_measure_tiny_weights_snapped_to_zero():
    ps = PointSet((0.0, 1.0, 2.0))
    m = DiscreteMeasure(ps, [0.5, 0.5 - 1e-16, 1e-16])
    assert m.weights[2] == 0.0
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert list(m.support) == [0, 1]


def test_from_points_collapses_duplicates():
    m = DiscreteMeasure.from_points([0.0, 1.0, 0.0], [0.25, 0.5, 0.25])
    assert m.point_set.n == 2
    assert m.weights[0] == pytest.approx(0.5)


def test_signed_duplicates_sum_in_file_order():
    rho = load_measure({"points": [[0], [0], [0], [1]], "weights": [0.1, 0.2, 0.3, -0.6]},
                       signed=True)
    assert rho.point_set.points == ((0.0,), (1.0,))
    assert rho.weights[0] == (0.1 + 0.2) + 0.3
    assert rho.weights[0] != 0.1 + (0.2 + 0.3)
    assert rho.weights[1] == -0.6


def test_signed_measure_mass():
    ps = PointSet((0.0, 1.0))
    rho = SignedMeasure(ps, [0.5, -0.5])
    assert rho.is_balanced
    assert not SignedMeasure(ps, [0.5, -0.4]).is_balanced


# ---------------------------------------------------------------------------
# Cost validation


def test_absolute_value_metric_is_valid():
    x = np.array([0.0, 0.5, 1.0])
    entries = np.abs(x[:, None] - x[None, :])
    cost = CostMatrix(entries)
    assert cost.n == 3


def test_triangle_violation_witness():
    # [[0, 1, 3], [1, 0, 1], [3, 1, 0]] passes the structural rule alone; the
    # constructor used to accept it, and a solve from point 0 to point 2 then
    # failed with a Lipschitz violation of its potential.
    for far in (5.0, 3.0):
        entries = np.array([[0.0, 1.0, far], [1.0, 0.0, 1.0], [far, 1.0, 0.0]])
        violations = cost_violations(entries)
        assert [(v.kind, v.indices) for v in violations] == [
            ("triangle", (0, 1, 2)), ("triangle", (2, 1, 0))]
        with pytest.raises(CostValidationError) as err:
            CostMatrix(entries)
        assert err.value.violations == violations


def test_squared_euclidean_rejected():
    x = np.array([0.0, 1.0, 2.0])
    entries = (x[:, None] - x[None, :]) ** 2
    violations = cost_violations(entries)
    assert any(v.kind == "triangle" for v in violations)
    # On 10 points the triangles run past the report limit, which stops the
    # scan: the first MAX_REPORTS witnesses, middle point by middle point.
    x = np.arange(10.0)
    violations = cost_violations((x[:, None] - x[None, :]) ** 2)
    assert len(violations) == measures.MAX_REPORTS
    assert {v.kind for v in violations} == {"triangle"}
    assert [v.indices[1] for v in violations] == sorted(v.indices[1] for v in violations)


@pytest.mark.parametrize(
    "entries, kind",
    [
        ([[0.0, 1.0], [2.0, 0.0]], "asymmetry"),
        ([[0.0, -1.0], [-1.0, 0.0]], "negative"),
        ([[0.5, 1.0], [1.0, 0.0]], "nonzero_diagonal"),
        ([[0.0, 0.0], [0.0, 0.0]], "zero_off_diagonal"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "shape"),
    ],
)
def test_violation_kinds(entries, kind):
    assert any(v.kind == kind for v in cost_violations(np.asarray(entries, dtype=float)))
    with pytest.raises(CostValidationError) as err:
        CostMatrix(np.asarray(entries, dtype=float))
    assert any(v.kind == kind for v in err.value.violations)


def test_cost_matrix_checks_the_structure_at_its_own_tolerance():
    # An asymmetry of 1e-10 is inside the triangle tolerance but outside the
    # structural one, so it is reported as a violation with its witness.
    with pytest.raises(CostValidationError) as err:
        CostMatrix([[0.0, 1.0, 1.0], [1.0 + 1e-10, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert [(v.kind, v.indices) for v in err.value.violations] == [("asymmetry", (0, 1))]
    # Any strictly positive off-diagonal entry is allowed.
    assert CostMatrix([[0.0, 1e-10], [1e-10, 0.0]]).n == 2


def reference_cost_rule(entries):
    """The rule written out one check per pass, the triangle inequality by
    brute force over every (i, j, k): the canonical entries, or None when the
    matrix is rejected."""
    c = np.asarray(entries, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
        return None
    cmax = float(c.max(initial=0.0))
    tol = 1e-12 * (1.0 + cmax)
    n = c.shape[0]
    if (np.abs(c - c.T).max(initial=0.0) > tol
            or np.abs(np.diag(c)).max(initial=0.0) > tol
            or c.min(initial=0.0) < -tol
            or (n > 1 and (c + np.eye(n) * (cmax + 1.0)).min() <= 0)):
        return None
    tri = 1e-9 * (1.0 + cmax)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i, k] - (c[i, j] + c[j, k]) > tri:
                    return None
    c = np.maximum(c, 0.0)
    np.fill_diagonal(c, 0.0)
    return c


def perturbed_cost(rng):
    """A random metric, rescaled, with a few entries perturbed at 1e-14..1e-6
    of its scale or replaced by a non-finite value."""
    n = int(rng.integers(1, 7))
    x = rng.random((n, 2))
    c = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    c *= 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.03:
        return c[:, : max(n - 1, 1)]
    scale = 1.0 + c.max()
    for _ in range(int(rng.integers(0, 3))):
        i, j = (int(k) for k in rng.integers(0, n, 2))
        eps = 10.0 ** rng.uniform(-14, -6) * scale
        kind = rng.integers(0, 6)
        if kind == 0:    # one side of a pair
            c[i, j] += rng.choice([-1.0, 1.0]) * eps
        elif kind == 1:  # diagonal
            c[i, i] = rng.choice([-1.0, 1.0]) * eps
        elif kind == 2:  # sign, both sides
            c[i, j] = c[j, i] = -eps
        elif kind == 3:  # off-diagonal zero, or signed zero
            c[i, j] = c[j, i] = rng.choice([0.0, -0.0])
        elif kind == 4:  # tiny positive off-diagonal pair
            c[i, j] = c[j, i] = eps
        elif rng.random() < 0.5:
            c[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    return c


def read_only(c, dtype=float):
    c = np.array(c, dtype=dtype)
    c.flags.writeable = False
    return c


def test_cost_matrix_matches_the_reference_rule():
    rng = np.random.default_rng(2024)
    rejected = 0
    for _ in range(3000):
        c = perturbed_cost(rng)
        expected = reference_cost_rule(c)
        try:
            entries = CostMatrix(c).entries
        except CostValidationError as err:
            assert expected is None, c
            assert err.violations and cost_violations(c) == err.violations
            rejected += 1
            continue
        assert expected is not None, c
        assert entries.tobytes() == expected.tobytes()
        # A read-only input reads the same.
        assert CostMatrix(read_only(c)).entries.tobytes() == expected.tobytes()
    assert 300 < rejected < 2700


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_distance_matrices_validate(metric, d):
    rng = np.random.default_rng(17 * d)
    for _ in range(8):
        ps = random_point_set(rng, int(rng.integers(2, 12)), d)
        cost = metric_cost(ps, metric)
        CostMatrix(cost.entries)  # must not raise


def test_load_cost_runs_the_structural_rule_once(monkeypatch):
    calls = []
    rule = measures._structure_violations
    monkeypatch.setattr(measures, "_structure_violations", lambda c: calls.append(c) or rule(c))
    ps = PointSet(tuple((float(k),) for k in range(5)))
    x = np.arange(5.0)
    line = np.abs(x[:, None] - x[None, :])
    cost = load_cost({"matrix": line.tolist(), "scale_b": 2.0}, ps)
    assert len(calls) == 1
    assert cost.entries.tobytes() == line.tobytes() and cost.scale_b == 2.0
    assert not cost.entries.flags.writeable
    # A rejected matrix reports the same witnesses as before.
    far = line.copy()
    far[0, 4] = far[4, 0] = 9.0
    skew = line.copy()
    skew[1, 2] += 1e-6
    skew[3, 3] = 0.5
    for bad, expected in [
        (far, [("triangle", (0, k, 4)) if s == 0 else ("triangle", (4, k, 0))
               for k in (1, 2, 3) for s in (0, 1)]),
        (skew, [("asymmetry", (1, 2)), ("nonzero_diagonal", (3,))]),
    ]:
        calls.clear()
        with pytest.raises(CostValidationError) as err:
            load_cost({"matrix": bad.tolist()}, ps)
        assert [(v.kind, v.indices) for v in err.value.violations] == expected
        assert len(calls) == 1


def test_scaled_cost_is_computed_once():
    # An explicit cost's entries are the matrix it accepted, frozen and
    # shared by its rescalings; a block scales only what it gathers.
    x = np.array([0.0, 0.3, 1.0])
    cost = CostMatrix(np.abs(x[:, None] - x[None, :]), 2.5)
    assert cost.entries is cost._entries and not cost.entries.flags.writeable
    picks = np.array([2, 0])
    assert cost.block(slice(None), picks).tobytes() == (2.5 * cost.entries)[:, picks].tobytes()
    assert dense(cost).tobytes() == (2.5 * cost.entries).tobytes()
    assert np.array_equal(dense(cost.with_scale(3.0)), 3.0 * cost.entries)
    unit = cost.with_scale(1.0)
    assert unit.entries is cost.entries  # the checked entries are reused
    assert dense(unit).tobytes() == unit.entries.tobytes()


def test_metric_cost_builds_its_matrices_once():
    # A metric cost keeps no matrix: its line form is built once, at
    # construction, and shared by its rescalings; entries are computed on read.
    cost = metric_cost(PointSet((0.0, 0.3, 1.0)), "euclidean", 2.5)
    assert cost._entries is None and cost._line is not None
    assert cost.entries.tobytes() == reference_metric([(0.0,), (0.3,), (1.0,)]).tobytes()
    assert cost._entries is None  # reading entries caches nothing
    assert dense(cost).tobytes() == (2.5 * cost.entries).tobytes()
    rescaled = cost.with_scale(3.0)
    assert rescaled._line is cost._line and rescaled._entries is None
    assert np.array_equal(dense(rescaled), 3.0 * cost.entries)
    assert dense(cost.with_scale(1.0)).tobytes() == cost.entries.tobytes()


def test_point_sets_and_costs_survive_pickling():
    # Both classes are slotted and refuse attribute writes, so pickle and
    # copy rebuild them: a point set through its constructor, a cost from
    # its slots.
    line = PointSet((0.0, 0.3, 1.0))
    for ps, cost in ((line, metric_cost(line, "manhattan", 2.5)),
                     (PointSet(("a", "b", "c")), CostMatrix(np.array(BASE_COST), 2.0))):
        for obj, name in ((ps, "n"), (cost, "scale_b")):
            with pytest.raises(AttributeError, match=f"is immutable; cannot set '{name}'"):
                setattr(obj, name, 1)
        for clone in (pickle.loads(pickle.dumps((ps, cost))), copy.deepcopy((ps, cost))):
            assert clone[0] == ps and clone[0].points == ps.points
            assert clone[1].scale_b == cost.scale_b
            assert dense(clone[1]).tobytes() == dense(cost).tobytes()
            # A line cost's clone keeps its line form, so it projects as
            # the original does.
            assert (clone[1]._line is None) == (cost._line is None)
            g = np.array([0.7, -0.2, 3.0])
            assert (project_lipschitz(g, clone[1]).values.tobytes()
                    == project_lipschitz(g, cost).values.tobytes())


def held_arrays(obj) -> list:
    """The arrays that ``obj`` holds: in its slots, and in the tuples and
    slotted objects there, in slot order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in held_arrays(item)]
    slots = getattr(type(obj), "__slots__", ())
    return [a for name in slots for a in held_arrays(getattr(obj, name))]


@pytest.mark.parametrize("make", [
    lambda: CostMatrix(np.array(BASE_COST), 2.0),
    lambda: metric_cost(PointSet((0.0, 0.3, 1.0)), "manhattan", 2.5),
    lambda: metric_cost(PointSet(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0))), "euclidean"),
    # Dividing these weights by their sum again would move their last bits.
    lambda: DiscreteMeasure(PointSet((0.0, 0.3, 1.0)), [0.06, 0.57, 0.37]),
    lambda: SignedMeasure(PointSet(("a", "b", "c")), [0.5, -0.25, -0.25]),
    lambda: LipschitzFunction([0.0, 0.3, -0.2],
                              metric_cost(PointSet((0.0, 0.3, 1.0)), "euclidean")),
], ids=["explicit-cost", "line-cost", "plane-cost", "measure", "signed-measure", "potential"])
def test_clones_hold_read_only_copies_of_every_array(make):
    # A writeable clone let an unpickled explicit cost serve an asymmetric
    # block once its entries[0, 1] was set to 5, with no check run.
    original = make()
    arrays = held_arrays(original)
    assert arrays and not any(a.flags.writeable for a in arrays)
    for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
        assert type(clone) is type(original)
        copies = held_arrays(clone)
        assert len(copies) == len(arrays)
        for a, c in zip(arrays, copies):
            assert not c.flags.writeable
            assert (c.dtype, c.shape, c.tobytes()) == (a.dtype, a.shape, a.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            copies[0][(0,) * copies[0].ndim] = 5.0


def test_with_scale_reuses_the_accepted_verdict(monkeypatch):
    calls = []
    rule = measures._structure_violations
    monkeypatch.setattr(measures, "_structure_violations", lambda c: calls.append(c) or rule(c))
    cost = CostMatrix(np.array(BASE_COST), 2.0)
    assert len(calls) == 1
    for scale in (1.0, 3.0, 0.1):
        rescaled = cost.with_scale(scale)
        assert rescaled.entries is cost.entries
        assert dense(rescaled).tobytes() == (scale * cost.entries).tobytes()
    dense(metric_cost(PointSet((0.0, 0.5)), "euclidean").with_scale(3.0))
    assert len(calls) == 1
    with pytest.raises(ValidationError, match="scale_b"):
        cost.with_scale(-1.0)


def reference_metric(points, metric="euclidean"):
    """The dense distance matrix of ``points``: the norms of the coordinate
    differences, summed, then sqrt for euclidean."""
    x = np.asarray(points, dtype=float)
    norm = np.square if metric == "euclidean" else np.abs
    with np.errstate(over="ignore", invalid="ignore"):
        c = norm(x[:, None, :] - x[None, :, :]).sum(axis=2)
    return np.sqrt(c) if metric == "euclidean" else c


ZERO_GAP = [("zero_off_diagonal", (0, 1)), ("zero_off_diagonal", (1, 0))]


@pytest.mark.parametrize("points, expected", [
    ([(0.0,), (1e-200,)], ZERO_GAP),                 # (1e-200)^2 underflows to 0
    ([(0.0,), (1e-100,)], []),
    ([(0.0, 0.0), (1e-170, 1e-170)], ZERO_GAP),
    ([(1e308,), (-1e308,)], [("not_finite", (0, 1))]),
], ids=["1d-1e-200", "1d-1e-100", "2d-1e-170", "1d-1e308"])
def test_metric_cost_verdict_is_its_dense_matrix_verdict(points, expected):
    dense = reference_metric(points)
    violations = cost_violations(dense)
    assert [(v.kind, v.indices) for v in violations] == expected
    if expected:
        with pytest.raises(CostValidationError) as err:
            metric_cost(PointSet(tuple(points)), "euclidean")
        assert err.value.violations == violations
    else:
        assert metric_cost(PointSet(tuple(points)), "euclidean").entries.tobytes() == dense.tobytes()


@pytest.mark.parametrize("cost", [
    metric_cost(PointSet(tuple(map(tuple, np.random.default_rng(4).random((150, 2))))),
                "manhattan", 2.0),
    CostMatrix(reference_metric(np.random.default_rng(4).random((150, 2)), "manhattan"), 2.0),
], ids=["metric", "explicit"])
def test_block_is_a_fresh_gather_of_the_scaled_cost(cost):
    picks = np.array([149, 3, 3, 70, 0])
    for rows, cols in [(slice(60, 130), picks), (picks, picks), (picks, slice(None)),
                       (slice(None), slice(10, 20))]:
        got = cost.block(rows, cols)
        expected = dense(cost)[rows][:, cols]
        assert got.tobytes() == expected.tobytes()
        assert got.flags.writeable and not np.shares_memory(got, cost.entries)


BASE_COST = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def with_entry(i, j, value):
    c = np.array(BASE_COST)
    c[i, j] = value
    return c


def test_writeable_cost_is_copied():
    c = np.array(BASE_COST)
    cost = CostMatrix(c)
    assert not np.shares_memory(cost.entries, c)
    c[0, 1] = c[1, 0] = 5.0
    assert cost.entries.tobytes() == reference_cost_rule(BASE_COST).tobytes()


# tol = 1e-12 * (1 + max c) = 3e-12: each entry passes the rule but is not canonical.
@pytest.mark.parametrize("c", [
    read_only(with_entry(1, 1, -1e-12)),
    read_only(with_entry(2, 2, -0.0)),
    read_only(with_entry(0, 0, 1e-14)),
    read_only(BASE_COST, np.float32),
], ids=["negative-diagonal", "minus-zero-diagonal", "positive-diagonal", "float32"])
def test_read_only_cost_off_the_canonical_form_is_copied(c):
    before = c.tobytes()
    cost = CostMatrix(c)
    assert not np.shares_memory(cost.entries, c)
    assert c.tobytes() == before
    assert cost.entries.tobytes() == reference_cost_rule(c).tobytes()


def test_cost_matrix_memory():
    # One n x n float64 array is `unit` bytes. A metric cost stores none, and
    # its c-transform and Lipschitz check hold a block or two of rows at once.
    n = 1000
    unit = n * n * 8
    ps = PointSet(tuple(((k + 0.5) / n,) for k in range(n)))
    g = np.sin(np.arange(n))
    tracemalloc.start()
    try:
        cost = metric_cost(ps, "euclidean", 2.0).with_scale(3.0)
        project_lipschitz(g, cost)  # one c-transform and one lipschitz_violation
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * unit


# Block-crossing cases: 300 points span several full blocks of rows plus a
# partial one in every streamed pass.
N_POINTS = 300


def grid_cost(n=N_POINTS, scale=1.0):
    return metric_cost(PointSet(tuple((k + 0.5) / n for k in range(n))), "euclidean", scale)


@pytest.mark.parametrize("i, j", [(5, 260), (270, 295)])
def test_asymmetry_found_across_tiles(i, j):
    c = grid_cost().entries.copy()
    c[j, i] += 1e-9
    with pytest.raises(CostValidationError) as err:
        CostMatrix(c)
    assert [(v.kind, v.indices) for v in err.value.violations] == [("asymmetry", (i, j))]


@pytest.mark.parametrize("metric, norm", [("euclidean", np.square), ("manhattan", np.abs)])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_metric_cost_matches_the_dense_formula(metric, norm, d):
    x = np.random.default_rng(d).uniform(0, 1, (N_POINTS, d))
    dense = norm(x[:, None, :] - x[None, :, :]).sum(axis=2)
    if metric == "euclidean":
        dense = np.sqrt(dense)
    got = metric_cost(PointSet(tuple(map(tuple, x))), metric).entries
    if d <= 7:
        assert got.tobytes() == dense.tobytes()
    else:  # numpy's unrolled sum(axis=2) orders the additions differently
        np.testing.assert_allclose(got, dense, rtol=1e-15, atol=0)


def test_scale_must_be_positive():
    with pytest.raises(ValidationError):
        metric_cost(PointSet((0.0, 1.0)), "euclidean", 0.0)


def equal_pairs():
    """Two distinct instances of equal content for each immutable value type."""
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean")
    return [
        [DiscreteMeasure(ps, [0.5, 0.5]) for _ in range(2)],
        [SignedMeasure(ps, [0.5, -0.5]) for _ in range(2)],
        [LipschitzFunction([0.0, 0.5], cost) for _ in range(2)],
        [FiniteKernel(ps, [[0.5, 0.5], [0.5, 0.5]], cost) for _ in range(2)],
    ]


@pytest.mark.parametrize("a, b", equal_pairs())
def test_value_types_compare_by_identity(a, b):
    # The generated __eq__ compared the weight arrays, so `a == b` raised
    # numpy's "truth value of an array is ambiguous" and hash(a) a TypeError.
    assert (a == a) is True
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# Support merging


def test_merge_orders_nu_first():
    mu = DiscreteMeasure.from_points([0.0], [1.0])
    nu = DiscreteMeasure.from_points([0.25, 0.75], [0.25, 0.75])
    ps, mu2, nu2 = merge_supports(mu, nu)
    assert ps.points == ((0.25,), (0.75,), (0.0,))
    assert list(mu2.weights) == [0.0, 0.0, 1.0]
    assert list(nu2.weights) == [0.25, 0.75, 0.0]


def test_merge_idempotent_on_equal_supports():
    nu = DiscreteMeasure.from_points([0.0, 1.0], [0.3, 0.7])
    ps, a, b = merge_supports(nu, nu)
    assert ps.points == nu.point_set.points
    np.testing.assert_allclose(a.weights, b.weights)


def test_merge_single_shared_point():
    mu = DiscreteMeasure.from_points([1.0], [1.0])
    nu = DiscreteMeasure.from_points([1.0], [1.0])
    ps, a, b = merge_supports(mu, nu)
    assert ps.n == 1
    assert a.weights[0] == b.weights[0] == 1.0


# ---------------------------------------------------------------------------
# Lipschitz projection


def test_projection_is_distance_function_from_single_reference():
    ps = PointSet((0.0, 0.5, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    g = project_lipschitz(np.array([0.0, 99.0, -3.0]), cost, reference=[0])
    np.testing.assert_allclose(g.values, [0.0, 0.5, 1.0])


def test_projection_fixes_feasible_data():
    ps = PointSet((0.0, 0.3, 1.0))
    cost = metric_cost(ps, "euclidean", 2.0)
    vals = np.array([0.0, 0.5, -0.6])  # within 2|x-y| for all pairs
    g = project_lipschitz(vals, cost)
    np.testing.assert_allclose(g.values, vals, atol=1e-15)


def test_projection_tightens_infeasible_data():
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)  # b*c = 1 between the points
    g = project_lipschitz(np.array([0.0, 10.0]), cost)
    np.testing.assert_allclose(g.values, [0.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=7),
    st.integers(0, 2 ** 31 - 1),
    st.floats(0.1, 5.0),
)
def test_projection_feasible_and_idempotent(values, seed, scale):
    rng = np.random.default_rng(seed)
    ps = random_point_set(rng, len(values), d=2)
    cost = metric_cost(ps, "euclidean", scale)
    g = project_lipschitz(np.asarray(values), cost)
    excess, _ = lipschitz_violation(g.values, cost)
    assert excess <= 1e-9
    again = project_lipschitz(g.values, cost)
    np.testing.assert_allclose(again.values, g.values, atol=1e-12)


def test_projection_requires_nonempty_reference():
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean")
    with pytest.raises(ValidationError):
        project_lipschitz(np.zeros(2), cost, reference=[])


@pytest.mark.parametrize("reference", [[-1], [0.7], [4]])
def test_projection_reference_must_be_point_indices(reference):
    cost = metric_cost(PointSet((0.0, 0.2, 0.5, 1.0)), "euclidean")
    with pytest.raises(ValidationError, match="reference"):
        project_lipschitz(np.zeros(4), cost, reference=reference)


def test_potentials_of_the_wrong_shape_are_rejected():
    # One value would broadcast over every column and read as feasible.
    for cost in (metric_cost(PointSet([0.0, 1.0, 2.0]), "euclidean"),
                 metric_cost(PointSet([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), "euclidean"),
                 CostMatrix(np.array(BASE_COST))):
        for values in ([5.0], 5.0, np.zeros((3, 1)), np.zeros(4)):
            for check in (lipschitz_violation, project_lipschitz):
                with pytest.raises(ValidationError, match="does not match cost matrix of size 3"):
                    check(values, cost)


@pytest.mark.parametrize("reference", [None, np.arange(100, 300, 3), [1, 0, 2]])
def test_projection_matches_the_dense_c_transform(reference):
    cost = grid_cost(scale=2.0)
    g = np.random.default_rng(3).normal(0, 1, N_POINTS)
    ref = np.arange(N_POINTS) if reference is None else np.asarray(reference)
    expected = (g[ref][None, :] + dense(cost)[:, ref]).min(axis=1)
    assert project_lipschitz(g, cost, reference).values.tobytes() == expected.tobytes()


def dense_violation(g, cost):
    slack = g[:, None] - g[None, :] - dense(cost)
    worst = float(slack.max())
    if worst <= 0:
        return worst, None
    i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
    return worst, (int(i), int(j))


def test_lipschitz_violation_matches_the_dense_reference():
    cost = grid_cost()
    g = np.random.default_rng(5).normal(0, 1, N_POINTS)
    assert lipschitz_violation(g, cost) == dense_violation(g, cost)

    nan = g.copy()
    nan[[200, 250]] = np.nan
    worst, pair = lipschitz_violation(nan, cost)
    assert np.isnan(worst) and pair == (0, 200) == dense_violation(nan, cost)[1]

    # Rows 150 and 290 both reach 4 on every column but 150 and 290: the first wins.
    tie = np.zeros(N_POINTS)
    tie[[150, 290]] = 5.0
    c = np.ones((N_POINTS, N_POINTS))
    np.fill_diagonal(c, 0.0)
    discrete = CostMatrix(c)
    assert lipschitz_violation(tie, discrete) == dense_violation(tie, discrete) == (4.0, (150, 0))

    feasible = 0.5 * dense(cost)[:, 0]
    assert lipschitz_violation(feasible, cost) == dense_violation(feasible, cost) == (0.0, None)

    # Costs read one block at a time: a 2-D metric cost spanning several
    # blocks and its explicit copy.
    rng = np.random.default_rng(6)
    plane = metric_cost(random_point_set(rng, N_POINTS, d=2), "euclidean", 3.0)
    for c in (plane, CostMatrix(plane.entries, plane.scale_b)):
        g = rng.normal(0, 1, N_POINTS)
        tight = project_lipschitz(g, c).values
        for v in (g, 0.999 * tight):
            assert lipschitz_violation(v, c) == dense_violation(v, c)
        # On a tight g, rounding may pick another row than the dense pass.
        worst, expected = lipschitz_violation(tight, c)[0], dense_violation(tight, c)[0]
        tol = measures._lipschitz_tol(tight)
        assert (worst <= tol) == (expected <= tol)
        assert abs(worst - expected) <= 4 * np.spacing(np.abs(tight).max())


# ---------------------------------------------------------------------------
# Line sweeps: a metric cost of 1-D points gets its c-transform, and so its
# Lipschitz check, from two sorted sweeps, not from blocks


def line_cost(n, scale=1.0, metric="euclidean"):
    """The benchmark's grid: n midpoints of [0, 1], then 0.0 placed last."""
    points = tuple(((k - 0.5) / n,) for k in range(1, n + 1)) + ((0.0,),)
    return metric_cost(PointSet(points), metric, scale)


def dense_c_transform(h, cost, cols):
    return (h[None, :] + dense(cost)[:, cols]).min(axis=1)


@pytest.mark.parametrize("scale", [1.0, 0.37, 10.0])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_line_sweeps_match_the_dense_passes(scale, metric):
    rng = np.random.default_rng(8)
    cost = line_cost(N_POINTS, scale, metric)
    n = cost.n
    g = rng.normal(0, 1, n)
    for cols in (np.arange(n), np.array([n - 1]), np.sort(rng.choice(n, 40, replace=False)),
                 rng.permutation(n)[:25]):
        got = measures._c_transform(g[cols], cost, cols)
        assert got.tobytes() == dense_c_transform(g[cols], cost, cols).tobytes()
    assert lipschitz_violation(g, cost) == dense_violation(g, cost)


def test_line_sweeps_repeated_reference_indices():
    cost = line_cost(N_POINTS, 2.0)
    g = np.random.default_rng(9).normal(0, 1, cost.n)
    ref = [N_POINTS, 7, 7, 150, 3, 150, N_POINTS]
    dense = dense_c_transform(g[ref], cost, ref)
    assert project_lipschitz(g, cost, ref).values.tobytes() == dense.tobytes()


def test_line_manhattan_equals_euclidean():
    g = np.random.default_rng(10).normal(0, 1, N_POINTS + 1)
    euclidean, manhattan = line_cost(N_POINTS, 3.0), line_cost(N_POINTS, 3.0, "manhattan")
    assert (project_lipschitz(g, euclidean).values.tobytes()
            == project_lipschitz(g, manhattan).values.tobytes())
    assert lipschitz_violation(g, euclidean) == lipschitz_violation(g, manhattan)


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
def test_line_sweeps_on_a_tight_potential(scale):
    # g = -b x + c ties every column on one side of each point in real
    # arithmetic; rounding then picks among them, so the value may differ
    # from the dense minimum in the last bits (1.5 ulps at most, measured
    # over grids of 100 to 3 001 points).
    cost = line_cost(1000, scale)
    for c in (0.0, 1.5, -7.25):
        g = -scale * cost._coords[0] + c
        got = project_lipschitz(g, cost).values
        dense = dense_c_transform(g, cost, np.arange(cost.n))
        assert np.abs(got - dense).max() <= 4 * np.spacing(np.abs(dense).max())
        assert lipschitz_violation(got, cost)[0] <= measures._lipschitz_tol(got)
        tol = measures._lipschitz_tol(g)
        assert (lipschitz_violation(g, cost)[0] <= tol) == (dense_violation(g, cost)[0] <= tol)


def test_line_sweeps_nan_and_infinite_values():
    line, plane = line_cost(N_POINTS), grid_cost().with_scale(1.0)
    g = np.random.default_rng(12).normal(0, 1, line.n)
    for bad in ([0], [0, 9], [200, 250], [N_POINTS]):
        nan = g.copy()
        nan[bad] = np.nan
        worst, pair = lipschitz_violation(nan, line)
        assert np.isnan(worst) and pair == (0, bad[0]) == dense_violation(nan, line)[1]
        with pytest.raises(ValidationError, match="function values must be finite"):
            project_lipschitz(nan, line)
    for value in (np.inf, -np.inf):
        inf = g.copy()
        inf[[40, 90]] = value
        worst, pair = lipschitz_violation(inf, line)
        with np.errstate(invalid="ignore"):  # the dense pass meets inf - inf
            assert np.isnan(worst) and pair == (40, 40) == dense_violation(inf, line)[1]
        # Infinite values are a c-transform's input like any other.
        got = measures._c_transform(inf, line, np.arange(line.n))
        assert got.tobytes() == dense_c_transform(inf, line, np.arange(line.n)).tobytes()
    # Explicit costs still take the block path, with the same NaN verdict.
    nan = np.zeros(N_POINTS)
    nan[5] = np.nan
    with pytest.raises(ValidationError, match="function values must be finite"):
        project_lipschitz(nan, CostMatrix(plane.entries))


def test_lipschitz_function_rejects_infeasible():
    ps = PointSet((0.0, 1.0))
    cost = metric_cost(ps, "euclidean", 1.0)
    with pytest.raises(ValidationError, match="Lipschitz"):
        LipschitzFunction(np.array([0.0, 5.0]), cost)


# ---------------------------------------------------------------------------
# File formats


def test_measure_json_round_trip(tmp_path):
    m = DiscreteMeasure.from_points([[0.0, 1.0], [2.0, 3.0]], [0.4, 0.6])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure_to_dict(m)))
    back = load_measure(path)
    assert back.point_set.points == m.point_set.points
    np.testing.assert_allclose(back.weights, m.weights)


def test_composite_labels_round_trip_through_json(tmp_path):
    # A label that mixes strings and numbers is written as a JSON list and
    # read back as the same tuple.
    m = DiscreteMeasure(PointSet((("a", 1.0), ("b", 2.0))), [0.4, 0.6])
    assert measure_to_dict(m)["points"] == [["a", 1.0], ["b", 2.0]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(measure_to_dict(m)))
    back = load_measure(path)
    assert back.point_set == m.point_set and not back.point_set.is_numeric
    assert back.weights.tobytes() == m.weights.tobytes()
    # A label that nests a list is unhashable, so it is still rejected.
    with pytest.raises(ValidationError, match="points must be a list of points"):
        load_measure({"points": [["a", [1]], ["b", 2]], "weights": [0.5, 0.5]})


def test_load_measure_from_a_json_string_longer_than_a_file_name():
    text = json.dumps({"points": [[float(i)] for i in range(40)], "weights": [1 / 40] * 40})
    assert len(text) == 615
    m = load_measure(text)
    assert m.point_set.points == tuple((float(i),) for i in range(40))
    assert m.weights.tobytes() == np.full(40, 1 / 40).tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: PointSet(()), "point set must be nonempty"),
    (lambda: PointSet(("a", "b")).dimension, "point set has non-numeric labels"),
    (lambda: DiscreteMeasure(PointSet((0.0, 1.0)), [1.0]), "weights has 1 entries, expected 2"),
    (lambda: DiscreteMeasure.from_points([0.0, 1.0], [1.0]),
     "points and weights must have equal length"),
    (lambda: load_measure({"points": [[0.0]]}), 'measure file must contain "points" and "weights"'),
    (lambda: load_cost("[[0.0]]", PointSet((0.0,))), "cost specification must be a JSON object"),
    (lambda: load_cost({"scale_b": 2.0}, PointSet((0.0,))),
     'cost specification needs "metric" or "matrix"'),
    (lambda: measures._load_json(3), "cannot load JSON from 3"),
], ids=["empty-points", "label-dimension", "weights-length", "from-points-lengths",
        "measure-without-weights", "cost-not-an-object", "cost-without-source", "json-from-int"])
def test_invalid_inputs_are_diagnosed(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


def test_load_cost_metric_and_matrix(tmp_path):
    ps = PointSet((0.0, 1.0))
    metric = load_cost({"metric": "euclidean", "scale_b": 3.0}, ps)
    assert metric.scale_b == 3.0
    explicit = load_cost({"matrix": [[0.0, 2.0], [2.0, 0.0]]}, ps)
    assert explicit.entries[0, 1] == 2.0
    with pytest.raises(CostValidationError):
        load_cost({"matrix": [[0.0, 2.0], [1.0, 0.0]]}, ps)
    with pytest.raises(ValidationError):
        load_cost({"matrix": [[0.0]]}, ps)
    with pytest.raises(ValidationError, match="unknown metric"):
        load_cost({"metric": ["euclidean"]}, ps)  # unhashable: a TypeError before
