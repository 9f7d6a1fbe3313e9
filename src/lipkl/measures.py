"""Finitely supported measures, ground costs, and Lipschitz test functions.

Everything downstream works on a single shared :class:`PointSet`: a finite,
ordered collection of pairwise-distinct points. Points are either coordinate
tuples in R^d (which enables the built-in euclidean / manhattan ground costs)
or opaque labels (in which case the cost matrix must be supplied explicitly).

Ground costs are symmetric matrices with zero diagonal, strictly positive
off-diagonal entries, and the triangle inequality. The triangle inequality is
what makes the c-transform in :func:`project_lipschitz` a genuine projection
onto the Lipschitz class, and strict positivity off the diagonal makes that
class separate any two distinct probability vectors on the point set.

All types are immutable after construction (arrays are frozen), so instances
can be shared freely across threads.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
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
    "validate_cost",
    "cost_violations",
    "metric_cost",
    "merge_supports",
    "project_lipschitz",
    "lipschitz_violation",
    "load_measure",
    "load_cost",
    "measure_to_dict",
    "cost_to_dict",
]

WEIGHT_ATOL = 1e-12    # tolerance on total mass
WEIGHT_CLAMP = 1e-15   # weights below this are snapped to exact zero
LIP_ATOL = 1e-9        # slack allowed when certifying Lipschitz feasibility


class ValidationError(ValueError):
    """An input violates a structural invariant (mass, sign, metric, shape)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_point(p):
    """Canonicalize one point: numbers and number sequences become float tuples."""
    if isinstance(p, numbers.Real) and not isinstance(p, bool):
        return (float(p),)
    if isinstance(p, (list, tuple, np.ndarray)):
        seq = list(p)
        if seq and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in seq):
            return tuple(float(x) for x in seq)
    return p  # opaque label


@dataclass(frozen=True)
class PointSet:
    """Ordered, pairwise-distinct support points.

    Numeric points are stored as float tuples; anything else is kept as an
    opaque hashable label. Deduplication throughout the package uses exact
    equality of the canonical form, so callers wanting fuzzy merging should
    round coordinates before constructing measures.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(_as_point(p) for p in self.points)
        if len(pts) == 0:
            raise ValidationError("point set must be nonempty")
        if len(set(pts)) != len(pts):
            seen = set()
            for i, p in enumerate(pts):
                if p in seen:
                    raise ValidationError(f"duplicate point at index {i}: {p!r}")
                seen.add(p)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def is_numeric(self) -> bool:
        return all(isinstance(p, tuple) for p in self.points) and len(
            {len(p) for p in self.points}
        ) == 1

    @property
    def dimension(self) -> int:
        if not self.is_numeric:
            raise ValidationError("point set has non-numeric labels")
        return len(self.points[0])

    @property
    def coords(self) -> np.ndarray:
        """(n, d) array of coordinates. Raises for label point sets."""
        if not self.is_numeric:
            raise ValidationError("point set has non-numeric labels; no coordinates")
        return np.asarray(self.points, dtype=float)

    def index(self, point) -> int:
        return self.points.index(_as_point(point))

    def __len__(self) -> int:
        return len(self.points)


def _check_weights_shape(point_set: PointSet, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (point_set.n,):
        raise ValidationError(
            f"weights shape {w.shape} does not match point set of size {point_set.n}"
        )
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    return w


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability vector over a :class:`PointSet`.

    Weights must be nonnegative and sum to 1 within 1e-12. Weights below
    1e-15 are snapped to exact zero and the vector renormalized, which keeps
    support detection stable under roundoff.
    """

    point_set: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = _check_weights_shape(self.point_set, self.weights)
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
        pts, w = _collapse_duplicates(points, weights)
        return cls(PointSet(tuple(pts)), np.asarray(w))

    @property
    def support(self) -> np.ndarray:
        """Indices carrying strictly positive mass."""
        return np.flatnonzero(self.weights > 0)

    def is_absolutely_continuous_wrt(self, other: "DiscreteMeasure") -> bool:
        _require_same_point_set(self, other)
        return bool(np.all(other.weights[self.support] > 0))


@dataclass(frozen=True)
class SignedMeasure:
    """Signed weight vector over a :class:`PointSet`.

    Used for perturbation directions; zero total mass is required at the
    point of use (directional derivatives), not at construction.
    """

    point_set: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = _check_weights_shape(self.point_set, self.weights)
        object.__setattr__(self, "weights", _freeze(w.copy()))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_balanced(self) -> bool:
        return abs(self.total_mass) <= WEIGHT_ATOL


def _collapse_duplicates(points, weights):
    canonical = [_as_point(p) for p in points]
    weights = list(weights)
    if len(canonical) != len(weights):
        raise ValidationError("points and weights must have equal length")
    out_pts, out_w, where = [], [], {}
    for p, w in zip(canonical, weights):
        if p in where:
            out_w[where[p]] += float(w)
        else:
            where[p] = len(out_pts)
            out_pts.append(p)
            out_w.append(float(w))
    return out_pts, out_w


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


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise ground cost c(x, y) with a positive scale multiplier.

    ``entries`` is the unit-scale cost; the effective cost used by every
    solver is ``scale_b * entries`` (see :attr:`scaled`). The constructor
    checks shape, finiteness, symmetry, zero diagonal and strictly positive
    off-diagonal entries. The O(n^3) triangle-inequality check is performed
    by :func:`validate_cost`; the euclidean/manhattan builders satisfy it by
    construction.
    """

    entries: np.ndarray
    scale_b: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError(f"cost matrix must be square, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("cost matrix has non-finite entries")
        scale = float(self.scale_b)
        if not (scale > 0 and np.isfinite(scale)):
            raise ValidationError(f"scale_b must be a positive real, got {scale!r}")
        cmax = float(c.max(initial=0.0))
        tol = 1e-12 * (1.0 + cmax)
        asym = np.abs(c - c.T).max(initial=0.0)
        if asym > tol:
            raise ValidationError(f"cost matrix asymmetric (max |c - c^T| = {asym:g})")
        if np.abs(np.diag(c)).max(initial=0.0) > tol:
            raise ValidationError("cost matrix has nonzero diagonal")
        if c.min(initial=0.0) < -tol:
            raise ValidationError("cost matrix has negative entries")
        n = c.shape[0]
        if n > 1:
            off = c + np.eye(n) * (cmax + 1.0)
            if off.min() <= 0:
                i, j = np.unravel_index(int(np.argmin(off)), c.shape)
                raise ValidationError(
                    f"off-diagonal cost c[{i}][{j}] must be strictly positive"
                )
        c = np.maximum(c, 0.0)
        np.fill_diagonal(c, 0.0)
        object.__setattr__(self, "entries", _freeze(c))
        object.__setattr__(self, "scale_b", scale)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def scaled(self) -> np.ndarray:
        """Effective cost ``scale_b * entries``."""
        return self.scale_b * self.entries

    def with_scale(self, scale_b: float) -> "CostMatrix":
        return CostMatrix(self.entries, scale_b)


def cost_violations(entries, *, atol: float = 1e-9, max_reports: int = 50) -> list[CostViolation]:
    """Collect every metric-property violation of a candidate cost matrix.

    Each violation carries the offending indices: asymmetry and negativity
    report (i, j), nonzero diagonal reports (i,), and a triangle violation
    c[i][k] > c[i][j] + c[j][k] reports (i, j, k).
    """
    c = np.asarray(entries, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        return [CostViolation("shape", c.shape, "matrix is not square")]
    if not np.all(np.isfinite(c)):
        i, j = map(int, np.argwhere(~np.isfinite(c))[0])
        return [CostViolation("not_finite", (i, j), f"entry is {c[i, j]!r}")]
    n = c.shape[0]
    cmax = float(np.abs(c).max(initial=0.0))
    tol = atol * (1.0 + cmax)
    out: list[CostViolation] = []

    bad = np.argwhere(np.triu(np.abs(c - c.T), 1) > tol)
    for i, j in bad[:max_reports]:
        out.append(CostViolation("asymmetry", (int(i), int(j)),
                                 f"c[i][j]={c[i, j]:g} vs c[j][i]={c[j, i]:g}"))
    for (i,) in np.argwhere(np.abs(np.diag(c)) > tol)[:max_reports]:
        out.append(CostViolation("nonzero_diagonal", (int(i),), f"c[i][i]={c[i, i]:g}"))
    for i, j in np.argwhere(c < -tol)[:max_reports]:
        out.append(CostViolation("negative", (int(i), int(j)), f"c[i][j]={c[i, j]:g}"))
    offdiag = c + np.eye(n) * (cmax + 1.0)
    for i, j in np.argwhere(offdiag <= tol)[:max_reports]:
        out.append(CostViolation("zero_off_diagonal", (int(i), int(j)),
                                 "off-diagonal entries must be strictly positive"))
    if not out:
        # Triangle check only once the matrix is a symmetric pre-metric,
        # otherwise the witnesses are redundant noise.
        reported = 0
        for j in range(n):
            slack = c - (c[:, j][:, None] + c[j, :][None, :])
            if slack.max() > tol:
                for i, k in np.argwhere(slack > tol):
                    out.append(CostViolation(
                        "triangle", (int(i), int(j), int(k)),
                        f"c[i][k]={c[i, k]:g} > c[i][j]+c[j][k]={c[i, j] + c[j, k]:g}"))
                    reported += 1
                    if reported >= max_reports:
                        return out
    return out


def validate_cost(entries, scale_b: float = 1.0, *, atol: float = 1e-9) -> CostMatrix:
    """Validate a candidate ground cost and wrap it in a :class:`CostMatrix`.

    Raises :class:`CostValidationError` carrying the full violation list
    (with witness indices) when any metric property fails.
    """
    violations = cost_violations(entries, atol=atol)
    if violations:
        raise CostValidationError(violations)
    return CostMatrix(entries, scale_b)


def metric_cost(point_set: PointSet, metric: str = "euclidean", scale_b: float = 1.0) -> CostMatrix:
    """Pairwise-distance cost from numeric coordinates.

    Supported metrics: ``euclidean`` and ``manhattan``. Both satisfy the
    triangle inequality exactly, so only the cheap structural checks run.
    """
    x = point_set.coords
    diff = x[:, None, :] - x[None, :, :]
    if metric == "euclidean":
        c = np.sqrt((diff ** 2).sum(axis=2))
    elif metric == "manhattan":
        c = np.abs(diff).sum(axis=2)
    else:
        raise ValidationError(f"unknown metric {metric!r}")
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 0.0)
    return CostMatrix(c, scale_b)


# ---------------------------------------------------------------------------
# Lipschitz test functions


def lipschitz_violation(values, cost: CostMatrix) -> tuple[float, tuple[int, int] | None]:
    """Largest violation of g(x) - g(y) <= b*c(x,y) and its witness pair."""
    g = np.asarray(values, dtype=float)
    slack = g[:, None] - g[None, :] - cost.scaled
    worst = float(slack.max())
    if worst <= 0:
        return worst, None
    i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
    return worst, (int(i), int(j))


@dataclass(frozen=True)
class LipschitzFunction:
    """Function on a point set satisfying g(x) - g(y) <= b*c(x,y) for all pairs."""

    values: np.ndarray
    cost: CostMatrix

    def __post_init__(self):
        g = np.asarray(self.values, dtype=float)
        if g.shape != (self.cost.n,):
            raise ValidationError(
                f"values shape {g.shape} does not match cost matrix of size {self.cost.n}"
            )
        worst, pair = lipschitz_violation(g, self.cost)
        if worst > LIP_ATOL * (1.0 + float(np.abs(g).max(initial=0.0))):
            raise ValidationError(
                f"function violates the Lipschitz constraint at pair {pair}: excess {worst:g}"
            )
        object.__setattr__(self, "values", _freeze(g.copy()))

    @property
    def max_violation(self) -> float:
        return lipschitz_violation(self.values, self.cost)[0]

    def shifted(self, constant: float) -> "LipschitzFunction":
        return LipschitzFunction(self.values + constant, self.cost)


def _potential_values(g) -> np.ndarray:
    """Values of a potential given as a LipschitzFunction or as an array."""
    return g.values if isinstance(g, LipschitzFunction) else np.asarray(g, dtype=float)


def project_lipschitz(values, cost: CostMatrix, reference=None) -> LipschitzFunction:
    """Largest Lipschitz function dominated by ``values`` on the reference set.

    Computes the c-transform g^(x) = min_{r in reference} (g(r) + b*c(x, r)).
    The result always satisfies every pairwise constraint (triangle
    inequality of the cost), agrees with ``values`` on the reference set
    whenever the data restricted there is already feasible, and is pointwise
    maximal among Lipschitz functions with that boundary data. Infeasible
    reference data is tightened downward.

    Entries of ``values`` outside ``reference`` are ignored; ``reference``
    defaults to the full point set.
    """
    g = np.asarray(values, dtype=float)
    if g.shape != (cost.n,):
        raise ValidationError(
            f"values shape {g.shape} does not match cost matrix of size {cost.n}"
        )
    if reference is None:
        ref = np.arange(cost.n)
    else:
        ref = np.asarray(reference, dtype=int)
        if ref.size == 0:
            raise ValidationError("reference subset must be nonempty")
    out = (g[ref][None, :] + cost.scaled[:, ref]).min(axis=1)
    return LipschitzFunction(out, cost)


# ---------------------------------------------------------------------------
# Support merging


def merge_supports(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union point set with both measures re-expressed on it.

    Ordering is stable: nu's points first (nu's order), then points of mu
    not present in nu (mu's order). Exact coordinate equality decides
    identity.

    Returns ``(point_set, mu_merged, nu_merged)``.
    """
    nu_pts = list(nu.point_set.points)
    nu_index = {p: i for i, p in enumerate(nu_pts)}
    merged = list(nu_pts)
    for p in mu.point_set.points:
        if p not in nu_index:
            merged.append(p)
    ps = PointSet(tuple(merged))
    pos = {p: i for i, p in enumerate(ps.points)}

    def reindex(m: DiscreteMeasure) -> DiscreteMeasure:
        w = np.zeros(ps.n)
        for p, wt in zip(m.point_set.points, m.weights):
            w[pos[p]] += wt
        return DiscreteMeasure(ps, w)

    return ps, reindex(mu), reindex(nu)


# ---------------------------------------------------------------------------
# File formats


def measure_to_dict(m: DiscreteMeasure | SignedMeasure) -> dict:
    pts = [list(p) if isinstance(p, tuple) else p for p in m.point_set.points]
    return {"points": pts, "weights": [float(w) for w in m.weights]}


def cost_to_dict(cost: CostMatrix) -> dict:
    return {"matrix": cost.entries.tolist(), "scale_b": cost.scale_b}


def _measure_from_dict(obj: dict, signed: bool):
    if not isinstance(obj, dict) or "points" not in obj or "weights" not in obj:
        raise ValidationError('measure file must contain "points" and "weights"')
    if signed:
        pts, w = _collapse_duplicates(obj["points"], obj["weights"])
        return SignedMeasure(PointSet(tuple(pts)), np.asarray(w))
    return DiscreteMeasure.from_points(obj["points"], obj["weights"])


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
    from coordinates) or ``{"matrix": [[...]], "scale_b": b}`` (explicit
    matrix, fully validated including the triangle inequality).
    """
    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise ValidationError("cost specification must be a JSON object")
    scale = float(obj.get("scale_b", 1.0))
    if "metric" in obj:
        return metric_cost(point_set, obj["metric"], scale)
    if "matrix" in obj:
        m = np.asarray(obj["matrix"], dtype=float)
        if m.shape != (point_set.n, point_set.n):
            raise ValidationError(
                f"cost matrix shape {m.shape} does not match point set of size {point_set.n}"
            )
        return validate_cost(m, scale)
    raise ValidationError('cost specification needs "metric" or "matrix"')


def _load_json(source):
    if isinstance(source, dict):
        return source
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        with open(source) as fh:
            return json.load(fh)
    if isinstance(source, str):
        return json.loads(source)
    raise ValidationError(f"cannot load JSON from {source!r}")


def _require_same_point_set(a, b) -> None:
    if a.point_set.points != b.point_set.points:
        raise ValidationError("measures must live on the same point set; merge supports first")
