"""Uncertainty bounds for Markov chains driven by the divergence.

A cost f is *representable* under a transition kernel p when it is the
risk-sensitive image of a potential g:

    f(x) = -log sum_y e^{-g(y)} p(x, y) - g(x) + a,

the multiplicative Poisson equation with growth rate a. For representable f
with g in the Lipschitz test class, every stationary measure pi_q of any
alternative kernel q obeys

    sum f dpi_q <= sum D(q(x, .) || p(x, .)) pi_q(dx) + a,

with the divergence in the test class; unlike the relative-entropy version
this needs no row-wise absolute continuity of q w.r.t. p, which is the
point: support-shifted perturbations get finite bounds.

The inverse map (recovering g and a from f) is solved by damped Newton with
g pinned at the first state. Its Jacobian at zero, [(P - I)[:, 1:], 1], has
rank n + 1 - #classes (its left null space is spanned by differences of the
classes' stationary measures), so the solve needs one recurrent class; the
classes come from one reachability closure of P > 0. The tolerance and the
budget are fixed: the solve has converged once max |f - risk_map(g, a)| is
at most 1e-10, and reports no convergence after 200 steps.

Every transition matrix is checked where it enters, by :class:`FiniteKernel`,
:func:`recurrent_classes` and :func:`stationary_distribution` alike: it must
be square, finite and non-negative, each row summing to 1 within
``ROW_ATOL`` = 1e-12; anything else is a ValidationError.

Stationary measures are exact: each recurrent class is solved by GTH
elimination (Grassmann, Taksar & Heyman 1985), which censors one state at a
time without subtractions and so stays accurate on nearly decomposable
chains, where iterative methods stall or stop early.

The Gaussian AR(1) example p(x, .) = N(alpha x, sigma^2) with quadratic
potentials admits closed forms: a potential -(b x^2 + c x + d) produces the
cost b(1 - alpha^2/(1 - 2 b sigma^2)) x^2 + c(1 - alpha/(1 - 2 b sigma^2)) x + a,
valid while 1 - 2 b sigma^2 > 0, and the achievable quadratic growth
b(1 - alpha^2/(1 - 2 b sigma^2)) peaks at b = (1 - alpha)/(2 sigma^2) with
maximum (1 - alpha)^2 / (2 sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import divergence
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    LipschitzFunction,
    PointSet,
    ValidationError,
    lipschitz_violation,
    load_cost,
    _Immutable,
    _as_float,
    _cost_on,
    _finite_vector,
    _freeze,
    _lipschitz_tol,
    _load_json,
    _log_mgf,
    _shared_point_set,
    _values_on,
)

__all__ = [
    "FiniteKernel",
    "GaussianAR1",
    "QuadraticFunction",
    "PerformanceBound",
    "RiskInverse",
    "ClassBound",
    "ErgodicBoundReport",
    "Ar1Peak",
    "performance_bound",
    "risk_map",
    "invert_risk_map",
    "recurrent_classes",
    "stationary_distribution",
    "ergodic_bound",
    "ar1_risk_quadratic",
    "ar1_quadratic_rate",
    "ar1_max_quadratic_rate",
    "ar1_quadratic_representable",
    "load_kernel",
]

ROW_ATOL = 1e-12
_NEWTON_TOL = 1e-10    # max |risk_map(g, a) - f| at which the inverse has converged
_NEWTON_STEPS = 200    # Newton steps before the inverse reports no convergence


def _transition_matrix(matrix) -> np.ndarray:
    """``matrix`` as a frozen float copy when it is a transition matrix:
    square, finite and non-negative, each row summing to 1 within
    ``ROW_ATOL``; anything else is a ValidationError."""
    p = _as_float(matrix, "transition matrix", 2)
    if p.shape[0] != p.shape[1] or p.size == 0:
        raise ValidationError(f"transition matrix shape {p.shape} is not square and non-empty")
    if not np.all(np.isfinite(p)):
        raise ValidationError("transition matrix has non-finite entries")
    if np.any(p < 0):
        i, j = np.unravel_index(int(np.argmin(p)), p.shape)
        raise ValidationError(f"negative transition probability at ({i}, {j})")
    rows = p.sum(axis=1)
    if np.abs(rows - 1.0).max() > ROW_ATOL:
        i = int(np.abs(rows - 1.0).argmax())
        raise ValidationError(f"row {i} sums to {float(rows[i])!r}, not 1")
    return _freeze(p.copy())


@dataclass(frozen=True, slots=True, eq=False)
class FiniteKernel(_Immutable):
    """Row-stochastic transition matrix over a state point set with a cost.

    The class is slotted, and its log p is built on first use into a slot:
    the risk map and the Newton inverse read it, the alternative kernel of
    a bound never does."""

    states: PointSet
    matrix: np.ndarray
    cost: CostMatrix
    _log_p_cache: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        p = _as_float(self.matrix, "transition matrix", 2)
        n = self.states.n
        if p.shape != (n, n):
            raise ValidationError(f"transition matrix shape {p.shape} != ({n}, {n})")
        p = _transition_matrix(p)
        _cost_on(self.cost, self.states)
        object.__setattr__(self, "matrix", p)

    @property
    def _log_p(self) -> np.ndarray:
        """log p, with -inf exactly on the forbidden transitions."""
        if self._log_p_cache is None:
            p = self.matrix
            log_p = np.where(p > 0, np.log(np.maximum(p, 1e-300)), -np.inf)
            object.__setattr__(self, "_log_p_cache", _freeze(log_p))
        return self._log_p_cache

    @property
    def n(self) -> int:
        return self.states.n

    def row(self, i: int) -> DiscreteMeasure:
        return DiscreteMeasure(self.states, self.matrix[i])


@dataclass(frozen=True)
class GaussianAR1:
    """Kernel p(x, .) = Normal(alpha * x, sigma^2) with 0 < alpha < 1."""

    alpha: float
    sigma: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValidationError("alpha must lie in (0, 1)")
        # The example's formulas scale by sigma^2 and divide by it, so
        # neither sigma^2 nor 1/sigma^2 may overflow.
        sigma2 = self.sigma * self.sigma
        if not (self.sigma > 0 and 0 < sigma2 < math.inf and 1 / sigma2 < math.inf):
            raise ValidationError(
                f"sigma must be positive with sigma^2 and 1/sigma^2 finite, got {self.sigma!r}")


@dataclass(frozen=True)
class QuadraticFunction:
    """quadratic * x^2 + linear * x + constant."""

    quadratic: float
    linear: float = 0.0
    constant: float = 0.0

    def __call__(self, x):
        return self.quadratic * x * x + self.linear * x + self.constant


# ---------------------------------------------------------------------------
# Change-of-measure bound for a single pair


@dataclass(frozen=True)
class PerformanceBound:
    lhs: float               # sum g dmu
    rhs: float               # divergence + log sum e^g dnu
    divergence_value: float
    log_mgf: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def performance_bound(g, mu: DiscreteMeasure, nu: DiscreteMeasure,
                      cost: CostMatrix, tol: float = 1e-8) -> PerformanceBound:
    """Bound sum g dmu by the divergence plus the risk-sensitive value at nu.

    Valid for every Lipschitz-feasible g; tight when g is the optimal
    potential. The divergence enters through its certified upper bracket,
    so the reported inequality always holds.
    """
    values = LipschitzFunction(_values_on(g, _shared_point_set(mu, nu, cost=cost)), cost).values
    log_mgf = _log_mgf(values, nu)
    sol = divergence(mu, nu, cost, tol=tol)
    return PerformanceBound(
        lhs=float(values @ mu.weights),
        rhs=sol.value + log_mgf,
        divergence_value=sol.value,
        log_mgf=log_mgf,
    )


# ---------------------------------------------------------------------------
# Risk-sensitive Poisson equation


def risk_map(kernel: FiniteKernel, g, a: float) -> np.ndarray:
    """Risk-sensitive image f(x) = -log sum_y e^{-g(y)} p(x, y) - g(x) + a.

    A potential or growth rate that is not finite is a ValidationError."""
    g = _values_on(g, kernel.n)
    a = float(a)
    if not (np.all(np.isfinite(g)) and math.isfinite(a)):
        raise ValidationError("potential and growth rate must be finite")
    inner = np.logaddexp.reduce(kernel._log_p - g[None, :], axis=1)
    return -inner - g + a


def _tilted_kernel(kernel: FiniteKernel, g: np.ndarray) -> np.ndarray:
    """Rows of p reweighted by e^{-g} and renormalized (log-space stable)."""
    z = kernel._log_p - g[None, :]
    z -= np.logaddexp.reduce(z, axis=1, keepdims=True)
    return np.exp(z)


@dataclass(frozen=True)
class RiskInverse:
    """Solution of f = risk_map(p, g, a) with g pinned to g[0] = 0.

    ``representable`` means the Newton solve converged and the recovered
    potential is Lipschitz-feasible for the kernel's cost, i.e. f belongs to
    the representable cost class.
    """

    g: np.ndarray
    a: float
    residual: float
    converged: bool
    iterations: int
    lipschitz_excess: float
    lipschitz_feasible: bool
    jacobian_rank: int
    diagnosis: str | None

    @property
    def representable(self) -> bool:
        return self.converged and self.lipschitz_feasible


def invert_risk_map(kernel: FiniteKernel, f) -> RiskInverse:
    """Damped Newton solve of the risk-sensitive Poisson equation.

    The constant direction (g, a) -> (g + s, a) is removed by pinning
    g[0] = 0; the remaining Jacobian [(P~ - I)[:, 1:], 1] is invertible
    precisely when the chain has one recurrent class. Rank deficiency is
    reported with the recurrent-class diagnosis instead of a solution.
    The solve has converged once the residual max |risk_map(g, a) - f| is
    at most 1e-10, and stops unconverged after 200 steps or when no step
    length lowers the residual.
    """
    n = kernel.n
    f = _finite_vector(f, n, "cost vector")

    classes = _closed_classes(kernel.matrix)
    rank = n + 1 - len(classes)
    g = np.zeros(n)
    a = float(f.mean())
    norm, iterations, diagnosis = math.inf, 0, None
    if len(classes) > 1:
        diagnosis = (f"Jacobian rank {rank} < {n}: the chain has "
                     f"{len(classes)} recurrent classes; the linearization "
                     "[(P - I), 1] is onto only for a single recurrent class")
    else:
        residual = risk_map(kernel, g, a) - f
        norm = float(np.abs(residual).max())
    while diagnosis is None and norm > _NEWTON_TOL and iterations < _NEWTON_STEPS:
        tilted = _tilted_kernel(kernel, g)
        jac = np.empty((n, n))
        jac[:, : n - 1] = (tilted - np.eye(n))[:, 1:]
        jac[:, n - 1] = 1.0
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:  # singular
            step = None
        if step is None or not np.all(np.isfinite(step)):  # or singular in floating point
            diagnosis = "Newton linearization became singular"
            break
        lam = 1.0
        while lam > 1e-12:
            g_new = g.copy()
            g_new[1:] += lam * step[: n - 1]
            a_new = a + lam * step[n - 1]
            r_new = risk_map(kernel, g_new, a_new) - f
            if float(np.abs(r_new).max()) < norm:
                break
            lam *= 0.5
        else:
            break
        g, a, residual = g_new, a_new, r_new
        norm = float(np.abs(residual).max())
        iterations += 1

    excess, feasible = math.inf, False
    if diagnosis is None:  # no early exit: the potential is checked
        excess, _ = lipschitz_violation(g, kernel.cost)
        feasible = bool(excess <= _lipschitz_tol(g))
        excess = max(excess, 0.0)
        if norm > _NEWTON_TOL:
            diagnosis = "Newton did not reach tolerance"
    return RiskInverse(g=g, a=a, residual=norm, converged=norm <= _NEWTON_TOL,
                       iterations=iterations,
                       lipschitz_excess=excess, lipschitz_feasible=feasible,
                       jacobian_rank=rank, diagnosis=diagnosis)


# ---------------------------------------------------------------------------
# Stationary structure


def recurrent_classes(matrix) -> list[np.ndarray]:
    """Recurrent classes, as sorted index arrays ordered by first index.

    Squares the reachability matrix of P > 0 (reflexive) to a fixed point. A
    state is recurrent when all it reaches reaches it back; its class is
    the set it reaches. A matrix that is not a transition matrix is a
    ValidationError.
    """
    return _closed_classes(_transition_matrix(matrix))


def _closed_classes(p: np.ndarray) -> list[np.ndarray]:
    """:func:`recurrent_classes` of an accepted transition matrix."""
    reach, last = (p > 0) | np.eye(len(p), dtype=bool), None
    while not np.array_equal(reach, last):
        last, reach = reach, reach.astype(float) @ reach > 0
    recurrent = ~np.any(reach & ~reach.T, axis=1)
    return [np.flatnonzero(row) for i, row in enumerate(reach)
            if recurrent[i] and row.argmax() == i]


def stationary_distribution(matrix) -> np.ndarray:
    """The stationary row vector of a chain with one recurrent class.

    GTH elimination on the recurrent block: state k is censored out by
    folding its paths into the states before it, with the exit mass
    sum_{j<k} a_kj in place of 1 - a_kk, so no subtraction can cancel and
    no diagonal entry is read. Back substitution then gives pi up to scale.
    Transient states get zero mass. Raises ValidationError unless ``matrix``
    is a transition matrix with exactly one recurrent class, since
    otherwise pi is not unique.
    """
    p = _transition_matrix(matrix)
    classes = _closed_classes(p)
    if len(classes) != 1:
        raise ValidationError(
            f"the chain has {len(classes)} recurrent classes; a unique "
            "stationary distribution needs exactly one"
        )
    states = classes[0]
    a = p[np.ix_(states, states)]
    for k in range(len(states) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.ones(len(states))
    for k in range(1, len(states)):
        x[k] = x[:k] @ a[:k, k]
    pi = np.zeros(p.shape[0])
    pi[states] = x / x.sum()
    return pi


# ---------------------------------------------------------------------------
# Ergodic bound


@dataclass(frozen=True)
class ClassBound:
    """Bound data for one recurrent class of the alternative kernel."""

    states: tuple[int, ...]
    stationary: np.ndarray
    lhs: float
    rhs: float
    per_state_divergence: np.ndarray

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


@dataclass(frozen=True)
class ErgodicBoundReport:
    """Stationary-average bound sum f dpi_q <= sum D(q_x || p_x) dpi_q + a.

    One :class:`ClassBound` per recurrent class of q (every stationary
    measure of q is a mixture of the per-class ones, so checking the
    classes checks them all).
    """

    growth_rate: float
    potential: np.ndarray
    class_bounds: tuple[ClassBound, ...]

    @property
    def holds(self) -> bool:
        return all(cb.holds for cb in self.class_bounds)


def ergodic_bound(p_kernel: FiniteKernel, q_kernel: FiniteKernel, f,
                  divergence_tol: float = 1e-10) -> ErgodicBoundReport:
    """Certify the stationary-average bound for a representable cost f.

    Rejects f unless it is representable under ``p_kernel`` (Newton inverse
    converged and the potential is Lipschitz-feasible). ``q_kernel`` needs
    no row-wise absolute continuity w.r.t. ``p_kernel``; rows of q with
    shifted support simply pick up transport cost instead of an infinite
    entropy term. With multiple recurrent classes in q, every class is
    checked. The kernels must share one state set and one cost: q's cost
    is ``p_kernel.cost`` itself, or one of equal scale and entries.
    """
    if p_kernel.states != q_kernel.states:  # identity first, then the coordinate arrays
        raise ValidationError("kernels must share the same state set")
    cost = p_kernel.cost
    if q_kernel.cost is not cost and not (q_kernel.cost.scale_b == cost.scale_b and
                                          np.array_equal(q_kernel.cost.entries, cost.entries)):
        raise ValidationError("kernels must share the same cost")
    inverse = invert_risk_map(p_kernel, f)
    if not inverse.representable:
        raise ValidationError(
            "cost is not representable under the nominal kernel: "
            + (inverse.diagnosis or
               f"potential violates the Lipschitz class by {inverse.lipschitz_excess:g}")
        )
    f = np.asarray(f, dtype=float)
    q = q_kernel.matrix
    bounds = []
    for states in _closed_classes(q):
        pi = np.zeros(p_kernel.n)
        pi[states] = stationary_distribution(q[np.ix_(states, states)])
        values = np.zeros(p_kernel.n)
        for x in states:
            values[x] = divergence(q_kernel.row(x), p_kernel.row(x), cost,
                                   tol=divergence_tol).value
        bounds.append(ClassBound(
            states=tuple(int(x) for x in states),
            stationary=pi,
            lhs=float(f @ pi),
            rhs=float(values @ pi) + inverse.a,
            per_state_divergence=values,
        ))
    return ErgodicBoundReport(
        growth_rate=inverse.a,
        potential=inverse.g,
        class_bounds=tuple(bounds),
    )


# ---------------------------------------------------------------------------
# Gaussian AR(1) example


def ar1_risk_quadratic(model: GaussianAR1, potential: QuadraticFunction,
                       a: float) -> tuple[QuadraticFunction, bool]:
    """Risk-sensitive image of the potential -(b x^2 + c x + d) under AR(1).

    Returns the cost's quadratic and linear coefficients
    b(1 - alpha^2 / (1 - 2 b sigma^2)) and c(1 - alpha / (1 - 2 b sigma^2))
    with growth rate a (constants are absorbed by the free d), plus a
    validity flag: the Gaussian integral exists only while
    1 - 2 b sigma^2 > 0.
    """
    b = potential.quadratic
    c = potential.linear
    denom = 1.0 - 2.0 * b * model.sigma ** 2
    if denom <= 0:
        return QuadraticFunction(math.nan, math.nan, float(a)), False
    alpha = model.alpha
    return QuadraticFunction(
        quadratic=b * (1.0 - alpha ** 2 / denom),
        linear=c * (1.0 - alpha / denom),
        constant=float(a),
    ), True


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
    x = 0.5 * (a + b)
    return x, fn(x)


@dataclass(frozen=True)
class Ar1Peak:
    """Closed-form maximizer of the achievable quadratic growth, plus the
    golden-section cross-check over (0, 1/(2 sigma^2))."""

    b_star: float
    k_star: float
    search_b: float
    search_k: float


def ar1_quadratic_rate(model: GaussianAR1, b: float) -> float:
    """Quadratic coefficient k(b) = b (1 - alpha^2 / (1 - 2 b sigma^2)).

    Tends to -infinity as b approaches 1/(2 sigma^2) from below.
    """
    denom = 1.0 - 2.0 * b * model.sigma ** 2
    if denom <= 0:
        return -math.inf
    return b * (1.0 - model.alpha ** 2 / denom)


def ar1_max_quadratic_rate(model: GaussianAR1) -> Ar1Peak:
    """Peak of k(b): b* = (1 - alpha)/(2 sigma^2), k* = (1 - alpha)^2/(2 sigma^2).

    The search runs over x = 2 b sigma^2 on the fixed interval
    (1e-12, 1 - 1e-9), where 2 sigma^2 k = x (1 - alpha^2 / (1 - x)) does not
    depend on sigma, and maps its maximizer back to b. Each division by
    2 sigma^2 halves first: 2 sigma^2 itself overflows for sigma above about
    9.49e153, where sigma^2 and b* are still finite."""
    sigma2 = model.sigma ** 2
    b_star = (1.0 - model.alpha) / 2.0 / sigma2
    k_star = (1.0 - model.alpha) ** 2 / 2.0 / sigma2
    x, _ = _golden_max(lambda x: x * (1.0 - model.alpha ** 2 / (1.0 - x)),
                       1e-12, 1.0 - 1e-9, tol=1e-13)
    search_b = x / 2.0 / sigma2
    return Ar1Peak(b_star=b_star, k_star=k_star, search_b=search_b,
                   search_k=ar1_quadratic_rate(model, search_b))


def ar1_quadratic_representable(model: GaussianAR1, cost_fn: QuadraticFunction) -> bool:
    """Membership of a quadratic cost in the AR(1) representable class.

    Quadratic coefficients strictly below the peak are representable with
    any linear term; at the peak only a pure quadratic (zero linear term)
    is, and beyond it nothing is. Constants are always free.
    """
    k_star = ar1_max_quadratic_rate(model).k_star
    if cost_fn.quadratic < k_star:
        return True
    return cost_fn.quadratic == k_star and cost_fn.linear == 0.0


def load_kernel(source) -> FiniteKernel:
    """Load a kernel from JSON: {"states": [...], "P": [[...]], "cost": {...}}."""
    obj = _load_json(source)
    for key in ("states", "P", "cost"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValidationError(f'kernel file must contain "{key}"')
    states = PointSet(obj["states"])
    cost = load_cost(obj["cost"], states)
    return FiniteKernel(states, _as_float(obj["P"], "transition matrix", 2), cost)
