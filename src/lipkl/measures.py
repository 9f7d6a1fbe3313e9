"""Finitely supported measures, ground costs, and Lipschitz test functions.

Everything downstream works on a single shared :class:`PointSet`: a finite,
ordered collection of pairwise-distinct points. Points are either coordinate
tuples in R^d (which enables the built-in euclidean / manhattan ground costs)
or opaque labels (in which case the cost matrix must be supplied explicitly).
So a public call takes its measures on one point set (the same object or
equal points), its cost over that set's n points (a metric cost built on
them), and a potential (a :class:`LipschitzFunction` or numbers) of shape
(n,); each public function checks this through ``_shared_point_set`` and
``_values_on``, raising a ValidationError.

Ground costs are metrics. :class:`CostMatrix` accepts an explicit matrix
with no :func:`cost_violations`, one rule in two steps. The structural rule:
finite entries; symmetry, a zero diagonal and no entry below zero, each
within ``COST_RTOL * (1 + max c)``; strictly positive off-diagonal entries.
Then the triangle inequality within ``TRIANGLE_RTOL * (1 + max c)``, which
makes the c-transform in :func:`project_lipschitz` a genuine projection onto
the Lipschitz class; strict positivity off the diagonal makes that class
separate any two distinct probability vectors. Every Lipschitz-feasibility
verdict allows an excess of ``LIP_ATOL * (1 + max |g|)``.

Each type derives its data once, in its constructor: a numeric
:class:`PointSet` holds its coordinates as one frozen (d, n) array, read
from its input in one numpy pass and shared by every metric cost built on
it (the position of each point is built on the first lookup), and a
:class:`CostMatrix` holds only its scale and what it was accepted from: an
explicit matrix, or the coordinates and metric of a metric cost, with the
line form of 1-D points.
Every weight vector read from points and weights (duplicate points in a
file, merged supports, a perturbation direction) is placed by ``_place``,
which sums weights onto a point set in the given order.

Every reader on the solve path takes the scaled cost from
:meth:`CostMatrix.block`, a few rows and columns at a time. One function
scans a cost, the c-transform: :func:`project_lipschitz` takes it, and
:func:`lipschitz_violation` checks that g is its own c-transform, then reads
the one row where g exceeds it most. On a line (a metric cost of 1-D
points, where both metrics are |x - y|) the c-transform makes no O(n^2)
pass: two sorted sweeps find, for every point, the best column on each
side, in O(n) after the one sort that builds the line form. Every other
O(n^2) pass streams over blocks of ``_BLOCK`` rows: the c-transform of any
other cost and the check of a metric cost in d >= 2. Each block is a fresh
array, scaled in place: a metric cost computes it from its coordinates and
stores no n x n array, an explicit cost gathers it from its stored matrix.
A pass holds a few blocks at a time, never an n x n temporary. Only
exports read ``entries`` whole. An explicit matrix is checked whole, one mask per
property of the structural rule, then one n x n pass per middle point of
the triangle inequality.

All types are immutable after construction (arrays are frozen copies, and
pickle and deepcopy freeze a clone's), so instances can be shared freely
across threads. Point sets, measures, costs and potentials are slotted, so
a caller that keeps many solves keeps no instance dict per object; the one
thing built on first access, a point set's positions, is kept in a slot.
Measures and potentials compare by identity, as solutions do (an array
comparison has no single truth value); point sets compare by their points.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "CostValidationError",
    "CostViolation",
    "PointSet",
    "DiscreteMeasure",
    "SignedMeasure",
    "CostMatrix",
    "LipschitzFunction",
    "cost_violations",
    "metric_cost",
    "merge_supports",
    "project_lipschitz",
    "lipschitz_violation",
    "load_measure",
    "load_cost",
    "measure_to_dict",
]

WEIGHT_ATOL = 1e-12    # tolerance on total mass
WEIGHT_CLAMP = 1e-15   # weights below this are snapped to exact zero
LIP_ATOL = 1e-9        # slack allowed when certifying Lipschitz feasibility
COST_RTOL = 1e-12      # symmetry, diagonal and sign of a cost, relative to 1 + max c
TRIANGLE_RTOL = 1e-9   # triangle inequality of a cost, relative to 1 + max c
MAX_REPORTS = 50       # witnesses listed per kind of cost violation
# Rows per block of a streamed n x n pass. A blocked c-transform of a
# 3 050-point grid cost at scale 3 (2-core VM, best of 25) took 17.9, 20.1
# and 22.8 ms at 32, 64 and 128 rows.
_BLOCK = 64
_SWEEP_SIGNS = np.array([[-1.0], [1.0]])  # row 0 of a line sweep keys on -b x, row 1 on +b x


class ValidationError(ValueError):
    """An input violates a structural invariant (mass, sign, metric, shape)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _set_slots(obj, **values) -> None:
    """Set every slot of an immutable slotted ``obj``: to ``values`` where
    it names one, else to None."""
    for name in type(obj).__slots__:
        object.__setattr__(obj, name, values.get(name))


def _restored(cls, slots: dict):
    """An instance of the slotted ``cls`` that holds ``slots``, with every
    array among them, or in a tuple there, frozen and nothing checked or
    normalized again: a clone from pickle or deepcopy holds the original's
    bytes, and a cost is built from a source that was already accepted."""
    for value in slots.values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                _freeze(a)
    obj = object.__new__(cls)
    _set_slots(obj, **slots)
    return obj


class _Immutable:
    """Base of the slotted types that refuse attribute writes; pickle and
    deepcopy rebuild an instance through :func:`_restored`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _restored, (type(self), {name: getattr(self, name) for name in self.__slots__})


def _as_point(p):
    """Canonicalize one point: numbers and number sequences become float tuples,
    and any other sequence a tuple label."""
    if type(p) is tuple and all(type(x) is float for x in p):
        return p  # already canonical; skips the slower numbers.Real checks
    if isinstance(p, numbers.Real) and not isinstance(p, bool):
        return (float(p),)
    if isinstance(p, (list, tuple, np.ndarray)):
        seq = list(p)
        if seq and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in seq):
            return tuple(float(x) for x in seq)
        return tuple(seq)  # a composite label; hashable unless it nests a list
    return p  # opaque label


def _numeric_array(x: np.ndarray) -> bool:
    """``x`` holds numbers on one axis, or on two with at least one column."""
    return x.dtype.kind in "fiu" and (x.ndim == 1 or x.ndim == 2 and x.shape[1] > 0)


def _as_columns(x: np.ndarray) -> np.ndarray:
    """A numeric array of points as (n, d) floats: scalars become 1-D points."""
    return np.asarray(x[:, None] if x.ndim == 1 else x, dtype=float)


def _read_points(points) -> tuple[np.ndarray | None, tuple | None]:
    """``(x, None)`` for numeric points, x their (n, d) float coordinates, else
    ``(None, labels)`` with each label canonicalized by :func:`_as_point`.
    A non-sequence or an unhashable point is a ValidationError.

    A numeric ndarray is read as it is. Any other sequence is read by one
    ``np.array`` call when numpy infers a numeric array and no coordinate
    is a bool or a 0-d array, which numpy would read as a number but
    :func:`_as_point` does not. Otherwise the points are read one by one,
    and are numeric when every point is a float tuple of one length."""
    if isinstance(points, np.ndarray) and _numeric_array(points):
        return _as_columns(points), None
    try:
        pts = tuple(points)
        try:
            x = np.array(pts)
        except (ValueError, TypeError, OverflowError):  # ragged, or no common numeric type
            x = None
        if x is not None and _numeric_array(x):
            kinds = set(map(type, chain.from_iterable(pts) if x.ndim == 2 else pts))
            if kinds.isdisjoint((bool, np.bool_, np.ndarray)):
                return _as_columns(x), None
        pts = tuple(map(_as_point, pts))
        hash(pts)
    except TypeError:
        raise ValidationError(f"points must be a list of points: {reprlib.repr(points)}") from None
    numeric = (pts and set(map(type, pts)) == {tuple}
               and set(map(type, chain.from_iterable(pts))) <= {float}
               and len(set(map(len, pts))) == 1)
    return (np.array(pts, dtype=float), None) if numeric else (None, pts)


def _as_points(points) -> tuple:
    """Canonical points; a non-sequence or an unhashable point is a ValidationError."""
    x, labels = _read_points(points)
    return labels if x is None else tuple(map(tuple, x.tolist()))


def _first_repeat(x: np.ndarray) -> int | None:
    """Index of the first of the (d, n) points ``x`` that equals an earlier
    one, else None. One lexsort groups equal points (+0.0 stands in for
    -0.0, which compares equal), each group in index order."""
    d, n = x.shape
    order = np.lexsort(x + 0.0) if d else np.arange(n)
    repeat = (x[:, order[1:]] == x[:, order[:-1]]).all(axis=0)
    return int(order[1:][repeat].min()) if repeat.any() else None


class PointSet(_Immutable):
    """Ordered, pairwise-distinct support points.

    A numeric point set (every point a number or a sequence of numbers, all
    of one length) holds its coordinates once, as a frozen (d, n) float
    array; :attr:`points` builds their canonical float tuples on each read,
    and :attr:`coords` is a read-only (n, d) view of the array. Anything
    else is kept as a tuple of opaque hashable labels. Deduplication
    throughout the package uses exact equality of the canonical form (0.0
    and -0.0 are one point), so callers wanting fuzzy merging should round
    coordinates before constructing measures. Point sets compare equal when
    their points do; two numeric sets compare their arrays.

    The class is slotted, so a caller that keeps many point sets keeps no
    instance dict per set; the position of each point is built into a slot
    on the first lookup.
    """

    __slots__ = ("n", "_x", "_labels", "_pos_cache")
    n: int  # the number of points

    def __init__(self, points):
        x, labels = _read_points(points)
        n = len(labels) if x is None else len(x)
        if n == 0:
            raise ValidationError("point set must be nonempty")
        if x is None:
            if len(set(labels)) < n:  # name the first repeat
                first: dict = {}
                i = next(i for i, p in enumerate(labels) if first.setdefault(p, i) != i)
                raise ValidationError(f"duplicate point at index {i}: {labels[i]!r}")
        else:
            x = _freeze(np.array(x.T, order="C"))
            if (i := _first_repeat(x)) is not None:
                raise ValidationError(f"duplicate point at index {i}: {tuple(x[:, i].tolist())!r}")
        _set_slots(self, _x=x, _labels=labels, n=n)

    def __reduce__(self):
        return PointSet, (self._labels if self._x is None else self._x.T,)

    @property
    def points(self) -> tuple:
        return self._labels if self._x is None else tuple(map(tuple, self._x.T.tolist()))

    @property
    def is_numeric(self) -> bool:
        return self._x is not None

    @property
    def _pos(self) -> dict:
        """Each point's index, built on the first lookup and kept in its
        slot: a point set made for a solve never looks a point up."""
        if self._pos_cache is None:
            object.__setattr__(self, "_pos_cache", dict(zip(self.points, range(self.n))))
        return self._pos_cache

    @property
    def dimension(self) -> int:
        if self._x is None:
            raise ValidationError("point set has non-numeric labels")
        return self._x.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, d) view of the coordinates. Raises for label point sets."""
        return _coordinates(self).T

    def index(self, point) -> int:
        return _position(self, _as_point(point))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        if self is other:
            return True
        if self._x is not None and other._x is not None:
            return np.array_equal(self._x, other._x)
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r})"


@dataclass(frozen=True, slots=True, eq=False)
class DiscreteMeasure(_Immutable):
    """Probability vector over a :class:`PointSet`.

    Weights must be nonnegative and sum to 1 within 1e-12. Weights below
    1e-15 are snapped to exact zero and the vector renormalized, which keeps
    support detection stable under roundoff.
    """

    point_set: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = _finite_vector(self.weights, self.point_set.n, "weights")
        if np.any(w < -WEIGHT_ATOL):
            i = int(np.argmin(w))
            raise ValidationError(f"negative weight {w[i]:g} at index {i}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValidationError(f"weights sum to {total!r}, not 1")
        w = np.maximum(w, 0.0)
        w[w < WEIGHT_CLAMP] = 0.0
        w = w / w.sum()
        object.__setattr__(self, "weights", _freeze(w))

    @classmethod
    def from_points(cls, points: Iterable, weights: Sequence[float]) -> "DiscreteMeasure":
        """Build measure and point set together, collapsing duplicate points.

        Duplicate coordinates are merged into one point with summed weight.
        """
        return cls(*_distinct_placed(points, weights))

    @property
    def support(self) -> np.ndarray:
        """Indices carrying strictly positive mass, in an array that owns
        its data (``np.flatnonzero`` returns a view of a (k, 1) buffer)."""
        return np.arange(self.weights.size)[self.weights > 0]

    def is_absolutely_continuous_wrt(self, other: "DiscreteMeasure") -> bool:
        _shared_point_set(self, other)
        return bool(np.all(other.weights[self.support] > 0))


@dataclass(frozen=True, slots=True, eq=False)
class SignedMeasure(_Immutable):
    """Signed weight vector over a :class:`PointSet`.

    Used for perturbation directions; zero total mass is required at the
    point of use (directional derivatives), not at construction.
    """

    point_set: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = _finite_vector(self.weights, self.point_set.n, "weights")
        object.__setattr__(self, "weights", _freeze(w.copy()))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_balanced(self) -> bool:
        return abs(self.total_mass) <= WEIGHT_ATOL


def _as_float(value, what: str, ndim: int = 0):
    """Numbers read from a file or the command line, as a float (``ndim=0``)
    or a float array with ``ndim`` axes; anything else is a ValidationError."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim:
        kind = ("a number", "a list of numbers", "a matrix of numbers")[ndim]
        raise ValidationError(f"{what} must be {kind}, got {reprlib.repr(value)}")
    return float(out) if ndim == 0 else out


def _finite_vector(values, n: int, what: str) -> np.ndarray:
    """``values`` as a finite float vector of length ``n``, else a ValidationError."""
    v = _as_float(values, what, 1)
    if v.shape != (n,):
        raise ValidationError(f"{what} has {v.size} entries, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} must be finite")
    return v


def _shared_point_set(*measures, cost: "CostMatrix | None" = None) -> int:
    """The size of the one point set that ``measures`` share and ``cost``,
    when given, is over; a ValidationError if there is no such set."""
    ps = measures[0].point_set
    if any(m.point_set != ps for m in measures[1:]):  # identity first, then the arrays
        raise ValidationError("measures must live on the same point set; merge supports first")
    if cost is not None:
        _cost_on(cost, ps)
    return ps.n


def _cost_on(cost: "CostMatrix", ps: PointSet) -> None:
    """A ValidationError unless ``cost`` is over the points of ``ps``: of its
    size, and for a metric cost built on these points (its coordinates are
    the set's own array, or an equal one)."""
    if cost.n != ps.n:
        raise ValidationError(
            f"cost matrix of size {cost.n} does not match the point set of size {ps.n}")
    x = cost._coords
    if x is not None and x is not ps._x and not np.array_equal(x, ps._x):
        raise ValidationError("metric cost is built on other points than the point set")


def _coordinates(ps: PointSet) -> np.ndarray:
    """The point set's own frozen (d, n) coordinate array; a
    ValidationError for a label point set."""
    if ps._x is None:
        raise ValidationError("point set has non-numeric labels; no coordinates")
    return ps._x


def _position(ps: PointSet, p) -> int:
    """Index of the canonical point ``p`` in ``ps``, else a ValidationError."""
    try:
        return ps._pos[p]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValidationError(f"point {p!r} is not in the point set") from None


def _place(ps: PointSet, points, weights) -> np.ndarray:
    """Weights of the canonical ``points`` summed onto ``ps``, in the given order."""
    w = np.zeros(ps.n)
    np.add.at(w, [_position(ps, p) for p in points], weights)
    return w


def _distinct_placed(points, weights) -> tuple[PointSet, np.ndarray]:
    """The distinct points in first-seen order, with duplicate weights summed."""
    canonical = _as_points(points)
    weights = _as_float(weights, "weights", 1)
    if len(canonical) != len(weights):
        raise ValidationError("points and weights must have equal length")
    ps = PointSet(tuple(dict.fromkeys(canonical)))
    return ps, _place(ps, canonical, weights)


# ---------------------------------------------------------------------------
# Ground costs


@dataclass(frozen=True)
class CostViolation:
    kind: str          # asymmetry | negative | nonzero_diagonal | zero_off_diagonal | triangle | shape | not_finite
    indices: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.indices}: {self.detail}"


class CostValidationError(ValidationError):
    def __init__(self, violations: list[CostViolation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:8])
        extra = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"cost matrix is not a valid ground metric: {lines}{extra}")


def _structure_violations(c: np.ndarray) -> list[CostViolation]:
    """Violations of the structural rule (module docstring): the first
    non-finite entry alone, else each property's witnesses in row-major
    order, at most ``MAX_REPORTS`` a kind."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        return [CostViolation("shape", c.shape, "matrix is not square")]
    bad = np.argwhere(~np.isfinite(c))
    if len(bad):
        i, j = bad[0].tolist()
        return [CostViolation("not_finite", (i, j), f"entry is {c[i, j]!r}")]
    tol = COST_RTOL * (1.0 + float(c.max(initial=0.0)))
    out: list[CostViolation] = []
    for i, j in np.argwhere(np.triu(np.abs(c - c.T) > tol, 1))[:MAX_REPORTS].tolist():
        out.append(CostViolation("asymmetry", (i, j),
                                 f"c[i][j]={c[i, j]:g} vs c[j][i]={c[j, i]:g}"))
    for (i,) in np.argwhere(np.abs(np.diagonal(c)) > tol)[:MAX_REPORTS].tolist():
        out.append(CostViolation("nonzero_diagonal", (i,), f"c[i][i]={c[i, i]:g}"))
    for i, j in np.argwhere(c < -tol)[:MAX_REPORTS].tolist():
        out.append(CostViolation("negative", (i, j), f"c[i][j]={c[i, j]:g}"))
    for i, j in np.argwhere((c <= 0) & ~np.eye(len(c), dtype=bool))[:MAX_REPORTS].tolist():
        out.append(CostViolation("zero_off_diagonal", (i, j),
                                 "off-diagonal entries must be strictly positive"))
    return out


_NORMS = {"euclidean": np.square, "manhattan": np.abs}
# What a cost is accepted from, in the CostMatrix slots: an explicit matrix
# (``_entries``), or the (d, n) coordinates of a metric cost, row k holding
# coordinate k of every point, and the metric's name. For d == 1 a metric
# cost also holds its line form ``_line = (walk, rank, xw, steps)``, which
# holds no scale: the points from left to right (row 0 of ``walk``) and from
# right to left (row 1), each point's position in row 0, the coordinates
# along ``walk`` with row 0 negated (the sweeps key on b times them), and
# the flat position of each entry of ``walk``.


class CostMatrix(_Immutable):
    """Pairwise ground cost c(x, y) with a positive scale multiplier.

    Every solver reads the scaled cost ``scale_b * c`` through :meth:`block`,
    a few rows and columns at a time. A cost has one of two sources:

    - explicit: ``CostMatrix(entries, scale_b)`` applies the rule of the
      module docstring, the structural rule and then the O(n^3) triangle
      check, raising :class:`CostValidationError` with the list of
      :func:`cost_violations`. It stores a copy with its entries clamped at
      zero and a +0.0 diagonal; :meth:`block` gathers from that copy.
    - coordinates: :func:`metric_cost` keeps the points' coordinates and the
      metric, and :meth:`block` computes each block from them. No n x n array
      is stored; the euclidean and manhattan metrics satisfy the rule's
      symmetry, zero diagonal and the triangle inequality by construction.
      On 1-D points it also keeps their line form, which the line sweeps of
      the c-transform walk.

    ``entries`` is the unit-scale matrix: an explicit cost's stored copy, or
    a metric cost's matrix, computed on each read; only exports read it.
    The class is slotted, and holds only what it was accepted from and its
    scale; :meth:`with_scale` shares the accepted source and checks nothing
    again.
    """

    __slots__ = ("scale_b", "_entries", "_coords", "_metric", "_line")

    def __init__(self, entries, scale_b: float = 1.0):
        scale = _positive_scale(scale_b)
        c = np.asarray(entries, dtype=float)
        if violations := cost_violations(c):
            raise CostValidationError(violations)
        _set_slots(self, _entries=_canonical(c), scale_b=scale)

    @property
    def n(self) -> int:
        return len(self._entries) if self._coords is None else self._coords.shape[1]

    @property
    def entries(self) -> np.ndarray:
        if self._coords is None:
            return self._entries
        return _freeze(_distances(self._coords, self._metric, slice(None), slice(None)))

    def block(self, rows, cols) -> np.ndarray:
        """The scaled cost of ``rows`` x ``cols`` as a fresh array the caller
        may write to. Each of ``rows`` and ``cols`` is a slice or an integer
        index array (repeats allowed) over the point set."""
        if self._coords is None:
            index = np.arange(self.n)
            out = self._entries[np.ix_(index[rows], index[cols])]
        else:
            out = _distances(self._coords, self._metric, rows, cols)
        if self.scale_b != 1.0:
            out *= self.scale_b
        return out

    def with_scale(self, scale_b: float) -> "CostMatrix":
        """This cost at scale ``scale_b``. The accepted source is shared, and
        no check runs again."""
        source = {name: getattr(self, name) for name in self.__slots__}
        return _restored(CostMatrix, {**source, "scale_b": _positive_scale(scale_b)})


def _positive_scale(scale_b) -> float:
    scale = float(scale_b)
    if not (scale > 0 and np.isfinite(scale)):
        raise ValidationError(f"scale_b must be a positive real, got {scale!r}")
    return scale


def _canonical(c: np.ndarray) -> np.ndarray:
    """A frozen copy of an accepted matrix, with its entries clamped at
    zero and a +0.0 diagonal."""
    c = np.maximum(c, 0.0)
    np.fill_diagonal(c, 0.0)
    return _freeze(c)


def _distances(x: np.ndarray, metric: str, rows, cols) -> np.ndarray:
    """Unit-scale distances from points ``rows`` to points ``cols`` of the
    (d, n) coordinates ``x``, as a fresh array computed in place. In 1-D
    both metrics are |x_i - x_j|, which equals :func:`_formula`'s
    sqrt((x_i - x_j)^2) whenever the square is a normal float, that is for
    every gap of at least 1.5e-154."""
    if len(x) == 1:
        out = np.subtract.outer(x[0][rows], x[0][cols])
        return np.abs(out, out=out)
    return _formula((np.subtract.outer(t[rows], t[cols]) for t in x), metric)


def _formula(diffs, metric: str) -> np.ndarray:
    """The metric of coordinate differences: ``diffs`` yields one fresh
    array per coordinate, which is overwritten. Each difference's norm is
    summed in coordinate order (numpy's order for sum(axis=2) over up to 7
    coordinates), then euclidean takes the sqrt."""
    norm, diffs = _NORMS[metric], iter(diffs)
    out = next(diffs)
    norm(out, out=out)
    for t in diffs:
        out += norm(t, out=t)
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def _metric_violations(x: np.ndarray, metric: str, order: np.ndarray | None) -> list[CostViolation]:
    """The structural rule on the distance matrix of the (d, n) coordinates
    ``x``. Symmetry, a zero diagonal and the sign hold by construction;
    finiteness and strictly positive off-diagonal entries are decided
    without the matrix. In 1-D, where ``order`` sorts the points, the
    largest entry is the extent and the smallest off the diagonal is the
    least adjacent gap of the sorted points (rounding is monotone), each
    taken through :func:`_formula`; for d >= 2 one streamed pass decides.
    Only a failed verdict builds the matrix, so the witnesses are the dense
    rule's."""
    d, n = x.shape
    if d == 1:
        s = x[0][order]
        ok = (np.isfinite(_formula([s[-1:] - s[:1]], metric)).all()
              and _formula([np.diff(s)], metric).min(initial=np.inf) > 0)
    else:
        for i in range(0, n, _BLOCK):
            c = _distances(x, metric, slice(i, i + _BLOCK), slice(None))
            hi = c.max()  # NaN if any entry is NaN
            np.fill_diagonal(c[:, i:], np.inf)
            ok = np.isfinite(hi) and c.min() > 0
            if not ok:
                break
    if ok:
        return []
    return _structure_violations(_formula((np.subtract.outer(t, t) for t in x), metric))


def cost_violations(entries) -> list[CostViolation]:
    """Every violation of the rule that :class:`CostMatrix` applies.

    First the structural rule: finite entries; symmetry, zero diagonal and
    no negative entry within ``COST_RTOL * (1 + max c)``; strictly positive
    off-diagonal entries. On a matrix that passes, the triangle inequality
    c[i][k] <= c[i][j] + c[j][k] within ``TRIANGLE_RTOL * (1 + max c)``.
    Witnesses: (i, j) for pairs, (i,) for the diagonal, (i, j, k) for
    triangles; at most ``MAX_REPORTS`` a kind. An empty list accepts.
    """
    c = np.asarray(entries, dtype=float)
    if out := _structure_violations(c):
        return out  # triangle witnesses on a non-pre-metric are redundant noise
    tol = TRIANGLE_RTOL * (1.0 + float(c.max(initial=0.0)))
    for j in range(c.shape[0]):
        slack = c - (c[:, j][:, None] + c[j, :][None, :])
        if slack.max() > tol:
            out += [CostViolation("triangle", (int(i), j, int(k)),
                                  f"c[i][k]={c[i, k]:g} > c[i][j]+c[j][k]={c[i, j] + c[j, k]:g}")
                    for i, k in np.argwhere(slack > tol)[:MAX_REPORTS - len(out)]]
            if len(out) >= MAX_REPORTS:
                return out
    return out


def metric_cost(point_set: PointSet, metric: str = "euclidean", scale_b: float = 1.0) -> CostMatrix:
    """Pairwise-distance cost from numeric coordinates.

    Supported metrics: ``euclidean`` and ``manhattan``. Both satisfy the
    triangle inequality exactly, so only the structural rule is checked, and
    without building the matrix. The cost keeps the coordinates; see
    :class:`CostMatrix`.
    """
    if not isinstance(metric, str) or metric not in _NORMS:
        raise ValidationError(f"unknown metric {metric!r}")
    x = _coordinates(point_set)
    scale = _positive_scale(scale_b)
    order = np.argsort(x[0]) if len(x) == 1 else None
    with np.errstate(over="ignore", invalid="ignore"):  # reported as not_finite
        violations = _metric_violations(x, metric, order)
    if violations:
        raise CostValidationError(violations)
    source = {"_coords": x, "_metric": metric, "scale_b": scale}
    if order is not None:
        walk = np.stack([order, order[::-1]])
        steps = np.arange(walk.size).reshape(walk.shape)
        source["_line"] = (walk, np.argsort(order), x[0][walk] * _SWEEP_SIGNS, steps)
    return _restored(CostMatrix, source)


# ---------------------------------------------------------------------------
# Lipschitz test functions


def lipschitz_violation(values, cost: CostMatrix) -> tuple[float, tuple[int, int] | None]:
    """Largest violation of g(x) - g(y) <= b*c(x,y) and its witness pair.

    g is in the class exactly when it is its own c-transform over every
    point (the diagonal's 0 makes g - g^c >= 0), so the row of the worst
    pair is the first largest g - g^c. That one row is then read as the
    dense pass reads it, (g_i - g_j) - b*c_ij, for the value and the first
    largest column. Any NaN makes the violation NaN, witnessed by the dense
    pass's first NaN pair. On a potential that is tight in real arithmetic
    (a projection's output), rounding may pick another row than the dense
    pass: the value can then differ in the last bits, or read 0 with no
    pair where the dense pass names a pair an ulp above 0; the verdict at
    :func:`_lipschitz_tol` is the same. Values of any shape but (n,) are a
    :class:`ValidationError`."""
    g = _values_on(values, cost.n)
    if not np.isfinite(g).all():
        # The dense pass's first NaN pair: row 0 holds one if any value is
        # NaN, else the first non-finite row does (on its diagonal).
        i = 0 if np.isnan(g).any() else int(np.isfinite(g).argmin())
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN sought
            return np.nan, (i, int(np.isnan(g[i] - g).argmax()))
    i = int((g - _c_transform(g, cost, slice(None))).argmax())
    slack = (g[i] - g) - cost.block(slice(i, i + 1), slice(None))[0]
    j = int(slack.argmax())
    worst = float(slack[j])
    return (worst, None) if worst <= 0 else (worst, (i, j))


def _values_on(values, n: int) -> np.ndarray:
    """A potential's values over n points, given as a
    :class:`LipschitzFunction` or as numbers, as a float vector; any other
    shape is a ValidationError."""
    g = values.values if isinstance(values, LipschitzFunction) else np.asarray(values, dtype=float)
    if g.shape != (n,):
        raise ValidationError(f"potential has the wrong length: shape {g.shape} "
                              f"does not match cost matrix of size {n}")
    return g


def _lipschitz_tol(values: np.ndarray) -> float:
    """Largest Lipschitz excess still certified feasible for ``values``."""
    return LIP_ATOL * (1.0 + float(np.abs(values).max(initial=0.0)))


@dataclass(frozen=True, slots=True, eq=False)
class LipschitzFunction(_Immutable):
    """Function on a point set satisfying g(x) - g(y) <= b*c(x,y) for all pairs."""

    values: np.ndarray
    cost: CostMatrix

    def __post_init__(self):
        g = _finite_vector(self.values, self.cost.n, "function values")
        worst, pair = lipschitz_violation(g, self.cost)
        if worst > _lipschitz_tol(g):
            raise ValidationError(
                f"function violates the Lipschitz constraint at pair {pair}: excess {worst:g}"
            )
        object.__setattr__(self, "values", _freeze(g.copy()))


def _log_mgf(values: np.ndarray, nu: DiscreteMeasure) -> float:
    """log sum e^g dnu for potential values g over nu's point set."""
    supp = nu.support
    return float(np.logaddexp.reduce(values[supp] + np.log(nu.weights[supp])))


def project_lipschitz(values, cost: CostMatrix, reference=None) -> LipschitzFunction:
    """Largest Lipschitz function dominated by ``values`` on the reference set.

    Computes the c-transform g^(x) = min_{r in reference} (g(r) + b*c(x, r)).
    The result always satisfies every pairwise constraint (triangle
    inequality of the cost), agrees with ``values`` on the reference set
    whenever the data restricted there is already feasible, and is pointwise
    maximal among Lipschitz functions with that boundary data. Infeasible
    reference data is tightened downward.

    Entries of ``values`` outside ``reference`` are ignored; ``reference``
    defaults to the full point set. Its entries are point indices in
    ``[0, n)`` (repeats allowed); anything else raises :class:`ValidationError`.
    """
    g = _values_on(values, cost.n)
    if reference is None:
        ref = np.arange(cost.n)
    else:
        r = _as_float(reference, "reference", 1)
        if r.size == 0:
            raise ValidationError("reference subset must be nonempty")
        if not np.all((r == np.floor(r)) & (r >= 0) & (r < cost.n)):
            raise ValidationError(f"reference entries must be point indices in "
                                  f"[0, {cost.n}): {reprlib.repr(reference)}")
        ref = r.astype(int)
    return LipschitzFunction(_c_transform(g[ref], cost, ref), cost)


def _c_transform(h: np.ndarray, cost: CostMatrix, cols) -> np.ndarray:
    """min over k of h_k + cost(x, cols[k]), at every point x. ``cols`` is
    an index array or a slice; a column that it repeats carries one value
    of ``h``. :func:`project_lipschitz` and :func:`lipschitz_violation`
    scan a cost only through this function.

    A line cost runs the two sweeps of a 1-D distance transform
    (Felzenszwalb & Huttenlocher, *Theory of Computing* 8, 2012) as one
    (2, n) pass along the walk of ``cost._line``: left to right, a running
    minimum of h_k - b x_k, and right to left, one of h_k + b x_k, each key
    scaled on every call from the scale-free line form. Each point takes
    the last point k to reach its running minimum on either side and
    evaluates h_k + b|x - x_k| there as the dense pass does; where several
    columns tie in real arithmetic, the result can differ from the dense
    pass's in the last bits. Any other cost is read one block of rows at a
    time."""
    if cost._line is None:
        out = np.empty(cost.n)
        for i in range(0, cost.n, _BLOCK):
            m = cost.block(slice(i, i + _BLOCK), cols)
            m += h
            m.min(axis=1, out=out[i:i + _BLOCK])
        return out
    # +inf off the columns: such a point never evaluates below a column.
    h_all = np.full(cost.n, np.inf)
    h_all[cols] = h
    walk, rank, xw, steps = cost._line
    hw = h_all[walk]
    keys = hw + cost.scale_b * xw
    least = np.minimum.accumulate(keys, axis=1)
    if np.isnan(least[0, -1]):  # a NaN stays in the running minimum,
        return np.full(cost.n, np.nan)  # and in every row's dense minimum
    # The flat position along the walk of each point's k; negating row 0
    # of ``xw`` leaves |x - x_k| exact.
    k = np.maximum.accumulate(steps * (keys == least), axis=1)
    v = np.abs(xw - xw.take(k)) * cost.scale_b + hw.take(k)
    return np.minimum(v[0], v[1, ::-1])[rank]


# ---------------------------------------------------------------------------
# Support merging


def merge_supports(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union point set with both measures re-expressed on it.

    Ordering is stable: nu's points first (nu's order), then points of mu
    not present in nu (mu's order). Exact coordinate equality decides
    identity.

    Returns ``(point_set, mu_merged, nu_merged)``.
    """
    ps = PointSet(tuple(dict.fromkeys(nu.point_set.points + mu.point_set.points)))
    return ps, *(DiscreteMeasure(ps, _place(ps, m.point_set.points, m.weights))
                 for m in (mu, nu))


# ---------------------------------------------------------------------------
# File formats


def _points_list(ps: PointSet) -> list:
    """Points as JSON lists: coordinates become lists, labels stay."""
    if ps.is_numeric:
        return ps.coords.tolist()
    return [list(p) if isinstance(p, tuple) else p for p in ps.points]


def measure_to_dict(m: DiscreteMeasure | SignedMeasure) -> dict:
    return {"points": _points_list(m.point_set), "weights": [float(w) for w in m.weights]}


def _measure_from_dict(obj: dict, signed: bool):
    if not isinstance(obj, dict) or "points" not in obj or "weights" not in obj:
        raise ValidationError('measure file must contain "points" and "weights"')
    return (SignedMeasure if signed else DiscreteMeasure)(
        *_distinct_placed(obj["points"], obj["weights"]))


def load_measure(source, signed: bool = False):
    """Load a measure from a path, JSON string, or already-parsed dict.

    Format: ``{"points": [[x, ...], ...], "weights": [w, ...]}``. Scalar
    points are accepted as one-dimensional coordinates.
    """
    obj = _load_json(source)
    return _measure_from_dict(obj, signed)


def load_cost(source, point_set: PointSet) -> CostMatrix:
    """Load a ground cost for ``point_set``.

    Accepts ``{"metric": "euclidean" | "manhattan", "scale_b": b}`` (computed
    from coordinates) or ``{"matrix": [[...]], "scale_b": b}`` (an explicit
    matrix, accepted by the rule of :class:`CostMatrix`).
    """
    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise ValidationError("cost specification must be a JSON object")
    scale = _as_float(obj.get("scale_b", 1.0), "scale_b")
    if "metric" in obj:
        return metric_cost(point_set, obj["metric"], scale)
    if "matrix" in obj:
        m = _as_float(obj["matrix"], "cost matrix", 2)
        if m.shape != (point_set.n, point_set.n):
            raise ValidationError(
                f"cost matrix shape {m.shape} does not match point set of size {point_set.n}"
            )
        return CostMatrix(m, scale)
    raise ValidationError('cost specification needs "metric" or "matrix"')


def _load_json(source):
    """A parsed dict as given; a string whose first non-blank character is
    ``{`` or ``[`` as JSON text; any other string or path as a file name."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source.lstrip()[:1] in ("{", "["):
        return json.loads(source)
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return json.load(fh)
    raise ValidationError(f"cannot load JSON from {source!r}")
