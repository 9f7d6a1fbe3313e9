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
g pinned at the first state; its Jacobian at zero is [(P - I), 1], which
has full rank exactly when the chain has a single recurrent class (the
Fredholm alternative applied to P - I).

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
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

from .core import divergence
from .measures import (
    CostMatrix,
    DiscreteMeasure,
    LipschitzFunction,
    PointSet,
    ValidationError,
    lipschitz_violation,
    load_cost,
    _load_json,
    _potential_values,
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


@dataclass(frozen=True)
class FiniteKernel:
    """Row-stochastic transition matrix over a state point set with a cost."""

    states: PointSet
    matrix: np.ndarray
    cost: CostMatrix

    def __post_init__(self):
        p = np.asarray(self.matrix, dtype=float)
        n = self.states.n
        if p.shape != (n, n):
            raise ValidationError(f"transition matrix shape {p.shape} != ({n}, {n})")
        if np.any(p < 0):
            i, j = np.unravel_index(int(np.argmin(p)), p.shape)
            raise ValidationError(f"negative transition probability at ({i}, {j})")
        rows = p.sum(axis=1)
        if np.abs(rows - 1.0).max() > ROW_ATOL:
            i = int(np.abs(rows - 1.0).argmax())
            raise ValidationError(f"row {i} sums to {rows[i]!r}, not 1")
        if self.cost.n != n:
            raise ValidationError("cost matrix size does not match the state set")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "matrix", p)

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
        if not (self.sigma > 0):
            raise ValidationError("sigma must be positive")


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
    values = LipschitzFunction(_potential_values(g), cost).values
    supp = nu.support
    log_mgf = float(logsumexp(values[supp] + np.log(nu.weights[supp])))
    sol = divergence(mu, nu, cost, tol=tol)
    return PerformanceBound(
        lhs=float(values @ mu.weights),
        rhs=sol.value + log_mgf,
        divergence_value=sol.value,
        log_mgf=log_mgf,
    )


# ---------------------------------------------------------------------------
# Risk-sensitive Poisson equation


def _log_kernel(kernel: FiniteKernel) -> np.ndarray:
    """log p, with -inf exactly on the forbidden transitions."""
    p = kernel.matrix
    return np.where(p > 0, np.log(np.maximum(p, 1e-300)), -np.inf)


def risk_map(kernel: FiniteKernel, g, a: float) -> np.ndarray:
    """Risk-sensitive image f(x) = -log sum_y e^{-g(y)} p(x, y) - g(x) + a."""
    g = np.asarray(g, dtype=float)
    if g.shape != (kernel.n,):
        raise ValidationError("potential length does not match the state set")
    inner = logsumexp(_log_kernel(kernel) - g[None, :], axis=1)
    return -inner - g + float(a)


def _tilted_kernel(kernel: FiniteKernel, g: np.ndarray) -> np.ndarray:
    """Rows of p reweighted by e^{-g} and renormalized (log-space stable)."""
    z = _log_kernel(kernel) - g[None, :]
    z -= logsumexp(z, axis=1, keepdims=True)
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


def invert_risk_map(kernel: FiniteKernel, f, tol: float = 1e-10,
                    max_iter: int = 200) -> RiskInverse:
    """Damped Newton solve of the risk-sensitive Poisson equation.

    The constant direction (g, a) -> (g + s, a) is removed by pinning
    g[0] = 0; the remaining Jacobian [(P~ - I)[:, 1:], 1] is invertible
    precisely when the chain has one recurrent class. Rank deficiency is
    reported with the recurrent-class diagnosis instead of a solution.
    """
    f = np.asarray(f, dtype=float)
    n = kernel.n
    if f.shape != (n,):
        raise ValidationError("cost vector length does not match the state set")

    classes = recurrent_classes(kernel.matrix)
    jac0 = np.empty((n, n))
    jac0[:, : n - 1] = (kernel.matrix - np.eye(n))[:, 1:]
    jac0[:, n - 1] = 1.0
    rank = int(np.linalg.matrix_rank(jac0))
    if len(classes) > 1 or rank < n:
        return RiskInverse(
            g=np.zeros(n), a=float(f.mean()), residual=math.inf, converged=False,
            iterations=0, lipschitz_excess=math.inf, lipschitz_feasible=False,
            jacobian_rank=rank,
            diagnosis=(
                f"Jacobian rank {rank} < {n}: the chain has "
                f"{len(classes)} recurrent classes; the linearization "
                "[(P - I), 1] is onto only for a single recurrent class"
            ),
        )

    g = np.zeros(n)
    a = float(f.mean())
    residual = risk_map(kernel, g, a) - f
    norm = float(np.abs(residual).max())
    iterations = 0
    while norm > tol and iterations < max_iter:
        tilted = _tilted_kernel(kernel, g)
        jac = np.empty((n, n))
        jac[:, : n - 1] = (tilted - np.eye(n))[:, 1:]
        jac[:, n - 1] = 1.0
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            return RiskInverse(
                g=g, a=a, residual=norm, converged=False, iterations=iterations,
                lipschitz_excess=math.inf, lipschitz_feasible=False,
                jacobian_rank=rank,
                diagnosis="Newton linearization became singular",
            )
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

    excess, _ = lipschitz_violation(g, kernel.cost)
    feasible = excess <= 1e-9 * (1.0 + float(np.abs(g).max(initial=0.0)))
    return RiskInverse(
        g=g, a=a, residual=norm, converged=norm <= tol, iterations=iterations,
        lipschitz_excess=max(excess, 0.0), lipschitz_feasible=bool(feasible),
        jacobian_rank=rank,
        diagnosis=None if norm <= tol else "Newton did not reach tolerance",
    )


# ---------------------------------------------------------------------------
# Stationary structure


def recurrent_classes(matrix: np.ndarray) -> list[np.ndarray]:
    """Recurrent classes: strongly connected components without exits."""
    p = np.asarray(matrix, dtype=float)
    n_comp, labels = connected_components(csr_matrix(p > 0), connection="strong")
    out = []
    for comp in range(n_comp):
        inside = np.flatnonzero(labels == comp)
        leak = p[np.ix_(inside, np.flatnonzero(labels != comp))]
        if leak.size == 0 or leak.sum() == 0:
            out.append(inside)
    out.sort(key=lambda idx: int(idx[0]))
    return out


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """The stationary row vector of a chain with one recurrent class.

    GTH elimination on the recurrent block: state k is censored out by
    folding its paths into the states before it, with the exit mass
    sum_{j<k} a_kj in place of 1 - a_kk, so no subtraction can cancel and
    no diagonal entry is read. Back substitution then gives pi up to scale.
    Transient states get zero mass. Raises ValidationError unless there is
    exactly one recurrent class, since otherwise pi is not unique.
    """
    p = np.asarray(matrix, dtype=float)
    classes = recurrent_classes(p)
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
    checked.
    """
    if p_kernel.states.points != q_kernel.states.points:
        raise ValidationError("kernels must share the same state set")
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
    for states in recurrent_classes(q):
        pi = np.zeros(p_kernel.n)
        pi[states] = stationary_distribution(q[np.ix_(states, states)])
        values = np.zeros(p_kernel.n)
        for x in states:
            values[x] = divergence(q_kernel.row(x), p_kernel.row(x), p_kernel.cost,
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
    """Peak of k(b): b* = (1 - alpha)/(2 sigma^2), k* = (1 - alpha)^2/(2 sigma^2)."""
    sigma2 = model.sigma ** 2
    b_star = (1.0 - model.alpha) / (2.0 * sigma2)
    k_star = (1.0 - model.alpha) ** 2 / (2.0 * sigma2)
    hi = (1.0 - 1e-9) / (2.0 * sigma2)
    search_b, search_k = _golden_max(lambda b: ar1_quadratic_rate(model, b),
                                     1e-12, hi, tol=1e-13 / sigma2)
    return Ar1Peak(b_star=b_star, k_star=k_star, search_b=search_b, search_k=search_k)


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
        if key not in obj:
            raise ValidationError(f'kernel file must contain "{key}"')
    states = PointSet(tuple(obj["states"]))
    cost = load_cost(obj["cost"], states)
    return FiniteKernel(states=states, matrix=np.asarray(obj["P"], dtype=float), cost=cost)
