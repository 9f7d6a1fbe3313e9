"""Transport-smoothed relative entropy: value, optimizers, certificates.

The divergence computed here is

    D(mu || nu) = sup { sum g dmu - log sum e^g dnu : g b-Lipschitz for c }

which, by convex duality, equals the inf-convolution

    D(mu || nu) = inf over probability gamma of  W_bc(mu, gamma) + R(gamma || nu),

the optimal transport cost from mu to an intermediate measure gamma plus the
relative entropy of gamma with respect to nu. Unlike relative entropy it is
finite for mutually singular measures, and unlike transport cost its dual
test class keeps the log-moment-generating ("risk-sensitive") structure.

Solver
------
Substituting gamma_j = sum_i pi_ij turns the inf-convolution into one smooth
convex program over semi-couplings pi >= 0 with row sums fixed to mu:

    minimize  sum_ij b c_ij pi_ij + sum_j gamma_j log(gamma_j / nu_j).

Each row lives on its own scaled simplex, so the iteration is a per-row
exponentiated gradient (entropic mirror descent) with backtracking line
search; gradient entry b c_ij + log(gamma_j / nu_j) + 1. Multiplicative
updates keep the iterate positive, matching the entropy geometry.

Certificates pair every primal iterate with a feasible dual candidate: from
gamma form g_j = log(gamma_j / nu_j) on the support of nu, tighten it into
the Lipschitz class by c-transform, take the Gibbs tilt of the tightened
function as the primal measure, and price the transport exactly with the
network simplex. For a candidate built this way the transport-identity
residual *is* the duality gap, and the Gibbs relation holds by construction,
so a certified solve automatically satisfies the first-order optimality
conditions to the same tolerance.

Mirror descent alone closes the gap at an O(1/t) crawl, so certificate
rounds also *close the first-order conditions over a guessed support
structure* (see :meth:`_Workspace.structure_closure`): take the positive
entries of a plan guess, propagate the tightness equations over the support
graph, and fix each component's additive constant by mass balance. Once the
guess matches an optimal structure this lands the exact optimizer in one
step, which is what lets the solver certify gaps near machine precision.
Guesses are drawn from both the certificate LP's plan and the mirror
iterate's own coupling (the latter tracks exponentially small masses at the
correct order, which the log(gamma/nu) candidate cannot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .divergences import relative_entropy, transport_cost, transport_simplex
from .measures import (
    WEIGHT_CLAMP,
    CostMatrix,
    DiscreteMeasure,
    LipschitzFunction,
    ValidationError,
    lipschitz_violation,
    _potential_values,
    _require_same_point_set,
)

__all__ = [
    "DivergenceSolution",
    "OptimalityReport",
    "CumulantDualityReport",
    "divergence",
    "dual_objective",
    "verify_optimizers",
    "cumulant_duality_check",
]

_TINY = 1e-300          # floor before taking logs of the running marginal
_MAX_STEP = 4.0
_CERT_PERIOD = 50       # mirror iterations between certificate rounds


@dataclass(frozen=True)
class DivergenceSolution:
    """Certified solve of the transport-smoothed divergence.

    ``value`` is the primal objective W(mu, measure) + R(measure || nu) of
    the returned intermediate ``measure`` (an upper bracket of the true
    divergence); ``dual_value`` is the best feasible dual objective found (a
    lower bracket). ``duality_gap`` is the gap of the returned primal/dual
    *pair*, which also bounds the transport-identity residual of
    (measure, potential); the pair satisfies the Gibbs relation by
    construction. ``potential`` is normalized so that log sum e^g dnu = 0,
    i.e. g = log(d measure / d nu) on the support of nu, extended off the
    support by its maximal Lipschitz extension.
    """

    value: float
    dual_value: float
    duality_gap: float
    measure: DiscreteMeasure
    potential: LipschitzFunction
    plan: np.ndarray
    iterations: int
    certified: bool
    tol: float


@dataclass(frozen=True)
class _Candidate:
    gap: float
    dual: float
    primal: float
    g_full: np.ndarray       # tightened potential on the whole point set
    gamma: np.ndarray        # Gibbs tilt of g_full on nu's support columns
    flow: np.ndarray         # optimal plan between mu rows and gamma columns


# Relative flow cutoffs for support identification. A plan entry below the
# cutoff is treated as a vanishing (non-tight) edge when closing the
# first-order conditions; the ladder brackets the separation between true
# support flows and the noise of a not-yet-converged iterate.
_STRUCT_THRESHOLDS = (1e-12, 1e-9, 1e-7, 1e-5, 1e-3)


class _Workspace:
    """Shared arrays for one solve."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostMatrix):
        _require_same_point_set(mu, nu)
        if cost.n != mu.point_set.n:
            raise ValidationError("cost matrix size does not match the point set")
        self.mu = mu
        self.nu = nu
        self.cost = cost
        self.rows = mu.support
        self.cols = nu.support
        scaled = cost.scaled
        self.C_rc = scaled[np.ix_(self.rows, self.cols)]
        self.C_xc = scaled[:, self.cols]
        self.a = mu.weights[self.rows]
        self.w = nu.weights[self.cols]
        self.logw = np.log(self.w)

    def evaluate(self, g_cols: np.ndarray) -> _Candidate:
        """Price one dual candidate given raw potential values on the columns.

        The candidate is tightened by c-transform (making it feasible), its
        Gibbs tilt becomes the primal measure, and the transport part is
        priced exactly by the network simplex. Shift-invariant in g_cols.
        """
        g_full = (g_cols[None, :] + self.C_xc).min(axis=1)
        gc = g_full[self.cols]
        lse = float(logsumexp(gc + self.logw))
        dual = float(self.mu.weights @ g_full) - lse
        gamma = np.exp(gc + self.logw - lse)
        gamma = gamma / gamma.sum()

        pos = gamma > 0
        if pos.all():
            flow, _, _, _ = transport_simplex(self.a, gamma, self.C_rc)
            wass = float((self.C_rc * flow).sum())
        else:
            # Columns can underflow to exact zero at extreme scales; price
            # the transport on the positive block only.
            sub = self.C_rc[:, pos]
            f_sub, _, _, _ = transport_simplex(self.a, gamma[pos], sub)
            wass = float((sub * f_sub).sum())
            flow = np.zeros_like(self.C_rc)
            flow[:, pos] = f_sub
        # gamma @ (gc - lse) evaluates R(gamma || nu), nonnegative by Gibbs'
        # inequality; clamp the one-ulp fp undershoot at coincidence.
        rel_ent = max(float(gamma @ (gc - lse)), 0.0)
        primal = wass + rel_ent
        return _Candidate(
            gap=primal - dual, dual=dual, primal=primal,
            g_full=g_full, gamma=gamma, flow=flow,
        )

    def structure_closure(self, flow: np.ndarray, threshold: float) -> np.ndarray:
        """Close the first-order conditions over a guessed support structure.

        ``flow`` is any nonnegative routing of mu's masses to the columns
        (an optimal-plan guess: either a certificate LP plan or the mirror
        iterate's own semi-coupling). Entries above ``threshold`` (plus each
        row's largest entry, so no row mass goes missing) are taken as the
        support of the optimal plan. On that support the potential
        differences are pinned by g_i - g_j = b c_ij, so within each
        connected component of the bipartite support graph the potential
        profile is determined up to one constant, and the constant is fixed
        by mass balance: the Gibbs weights of the component's columns must
        sum to the mu mass of its rows. Columns left unattached (their true
        inflow sits below the threshold, e.g. Gibbs mass ~ e^{-b c} at large
        scales) are pinned by the reverse c-transform
        g_j = max_i (u_i - b c_ij), which is their optimality condition
        given the row potentials, with their Gibbs mass deducted from the
        source component's budget (a small fixed-point loop). When the
        guessed support matches an optimal structure this lands the exact
        optimizer regardless of how converged the guess was.
        """
        m, k = flow.shape
        keep = flow > threshold
        keep[np.arange(m), flow.argmax(axis=1)] = True
        adj: list[list[tuple[int, float]]] = [[] for _ in range(m + k)]
        for i, j in np.argwhere(keep):
            c = self.C_rc[i, j]
            adj[i].append((m + j, c))
            adj[m + j].append((i, c))

        # Discover components and propagate relative profiles.
        comp_cols: list[np.ndarray] = []
        comp_val_cols: list[np.ndarray] = []
        comp_mass: list[float] = []
        comp_of_row = np.full(m, -1)
        val_rows = np.zeros(m)
        loose: list[int] = []
        seen = np.zeros(m + k, dtype=bool)
        for start in range(m + k):
            if seen[start]:
                continue
            rows_q: list[int] = []
            cols_q: list[int] = []
            val = np.zeros(m + k)
            stack = [start]
            seen[start] = True
            while stack:
                node = stack.pop()
                (rows_q if node < m else cols_q).append(node)
                for other, c in adj[node]:
                    if seen[other]:
                        continue
                    seen[other] = True
                    val[other] = val[node] - c if other >= m else val[node] + c
                    stack.append(other)
            if not rows_q:
                loose.extend(x - m for x in cols_q)
                continue
            q = len(comp_cols)
            comp_of_row[rows_q] = q
            val_rows[rows_q] = val[rows_q]
            comp_cols.append(np.array([x - m for x in cols_q], dtype=int))
            comp_val_cols.append(val[cols_q])
            comp_mass.append(float(self.a[rows_q].sum()))

        p = len(comp_cols)
        masses = np.asarray(comp_mass)
        norms = np.array([logsumexp(v + self.logw[c])
                          for v, c in zip(comp_val_cols, comp_cols)])
        shifts = np.log(masses) - norms
        g = np.empty(k)
        if loose:
            # A loose column's Gibbs weight rides on the component of the row
            # that prices it, so deduct it from that component's mass budget;
            # the deduction feeds back into the row potentials, hence the
            # small fixed-point loop (contraction rate ~ loose mass).
            loose_idx = np.asarray(loose, dtype=int)
            reach = val_rows[:, None] - self.C_rc[:, loose_idx]
            for _ in range(100):
                priced = reach + shifts[comp_of_row][:, None]
                g_loose = priced.max(axis=0)
                source = comp_of_row[priced.argmax(axis=0)]
                spent = np.bincount(source, weights=np.exp(g_loose + self.logw[loose_idx]),
                                    minlength=p)
                remaining = masses - spent
                if np.any(remaining <= 0):
                    break
                new_shifts = np.log(remaining) - norms
                done = np.abs(new_shifts - shifts).max() < 1e-15
                shifts = new_shifts
                if done:
                    break
            g[loose_idx] = (reach + shifts[comp_of_row][:, None]).max(axis=0)
        for q in range(p):
            g[comp_cols[q]] = comp_val_cols[q] + shifts[q]
        return g


def divergence(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    initial_potential=None,
) -> DivergenceSolution:
    """Compute the transport-smoothed divergence with a duality certificate.

    Parameters
    ----------
    mu, nu : DiscreteMeasure
        Measures on the same (merged) point set.
    cost : CostMatrix
        Validated ground cost; its ``scale_b`` sets the Lipschitz class.
    tol : float
        Target duality gap. The returned ``value`` and ``dual_value``
        bracket the true divergence; ``certified`` means the bracket of the
        returned pair is at most ``tol``.
    max_iter : int
        Mirror-descent iteration budget. On exhaustion the best candidate is
        returned flagged ``certified=False`` with its current gap.
    initial_potential : optional
        Warm-start potential (array over the point set or a
        LipschitzFunction); any feasible guess can only improve the dual
        bracket, which is what makes scale sweeps exactly monotone.
    """
    if not (tol > 0):
        raise ValidationError("tol must be positive")
    ws = _Workspace(mu, nu, cost)
    K = ws.cols.size

    best: _Candidate | None = None
    best_dual = -math.inf

    def consider(g_cols) -> _Candidate:
        nonlocal best, best_dual
        cand = ws.evaluate(np.asarray(g_cols, dtype=float))
        best_dual = max(best_dual, cand.dual)
        if best is None or cand.gap < best.gap:
            best = cand
        return cand

    def closure_ladder(flow: np.ndarray) -> None:
        """Try support guesses at every threshold; distinct structures only."""
        peak = float(flow.max())
        tried = set()
        for rel in _STRUCT_THRESHOLDS:
            key = (flow > rel * peak).tobytes()
            if key in tried:
                continue
            tried.add(key)
            consider(ws.structure_closure(flow, rel * peak))
            if best.gap <= tol:
                return

    def certificate_round(gamma_iterate: np.ndarray, pi_iterate: np.ndarray) -> None:
        """Price the current iterate plus the structure-closure candidates.

        The iterate's own semi-coupling is the most trustworthy support
        guess: the candidate measure built from log(gamma/nu) amplifies
        iterate noise on near-zero columns, while the log-space coupling
        tracks even exponentially small masses at the right order.
        """
        cand = consider(np.log(np.maximum(gamma_iterate, _TINY)) - ws.logw)
        if best.gap > tol:
            closure_ladder(pi_iterate)
        if best.gap > tol:
            closure_ladder(cand.flow)
        if best.gap > tol and best is not cand:
            closure_ladder(best.flow)

    consider(np.zeros(K))
    if initial_potential is not None:
        g0 = _potential_values(initial_potential)
        if g0.shape == (mu.point_set.n,):
            g0 = g0[ws.cols]
        if g0.shape != (K,):
            raise ValidationError("initial potential has the wrong length")
        consider(g0)

    # Primal state in log space, seeded from the best candidate's tilt.
    log_pi = np.log(ws.a)[:, None] + np.log(np.maximum(best.gamma, _TINY))[None, :]
    eta = 1.0
    iterations = 0
    next_cert = 1

    def objective(log_p: np.ndarray) -> tuple[float, np.ndarray]:
        p = np.exp(log_p)
        gamma = p.sum(axis=0)
        safe = np.maximum(gamma, _TINY)
        val = float((ws.C_rc * p).sum() + gamma @ (np.log(safe) - ws.logw))
        return val, gamma

    f_cur, gamma_cur = objective(log_pi)
    cert_spacing = _CERT_PERIOD
    while best.gap > tol and iterations < max_iter:
        grad = ws.C_rc + (np.log(np.maximum(gamma_cur, _TINY)) - ws.logw + 1.0)[None, :]
        grad -= grad.min(axis=1, keepdims=True)
        accepted = False
        trial_eta = min(eta * 2.0, _MAX_STEP)
        while trial_eta > 1e-12:
            trial = log_pi - trial_eta * grad
            trial -= logsumexp(trial, axis=1, keepdims=True) - np.log(ws.a)[:, None]
            f_new, gamma_new = objective(trial)
            if f_new <= f_cur + 1e-12 * (1.0 + abs(f_cur)):
                accepted = True
                break
            trial_eta *= 0.5
        if not accepted:
            # Flat to machine precision; only certificates can improve now.
            certificate_round(gamma_cur, np.exp(log_pi))
            break
        log_pi, f_cur, gamma_cur, eta = trial, f_new, gamma_new, trial_eta
        iterations += 1
        if iterations >= next_cert:
            before = best.gap
            certificate_round(gamma_cur, np.exp(log_pi))
            # Back off when a round buys little: structure identification
            # needs a more converged iterate, and descent steps are much
            # cheaper than pricing rounds on wide supports.
            if best.gap > 0.75 * before:
                cert_spacing = min(cert_spacing * 2, 40 * _CERT_PERIOD)
            else:
                cert_spacing = _CERT_PERIOD
            next_cert = iterations * 2 if iterations < _CERT_PERIOD \
                else iterations + cert_spacing

    if best.gap > tol:
        certificate_round(gamma_cur, np.exp(log_pi))

    return _assemble(ws, best, best_dual, iterations, tol)


def _assemble(ws: _Workspace, cand: _Candidate, best_dual: float,
              iterations: int, tol: float) -> DivergenceSolution:
    n = ws.mu.point_set.n
    shift = float(logsumexp(cand.g_full[ws.cols] + ws.logw))
    g_norm = cand.g_full - shift
    gamma_full = np.zeros(n)
    gamma_full[ws.cols] = cand.gamma
    plan = np.zeros((n, n))
    plan[np.ix_(ws.rows, ws.cols)] = cand.flow
    gap = max(cand.gap, 0.0)
    if not (math.isfinite(cand.primal) and math.isfinite(cand.dual)):
        # Finite supports with finite costs always give a finite value.
        raise RuntimeError("non-finite bracket; inputs violate a validated invariant")
    # The best dual over all candidates can exceed this candidate's primal
    # by representation noise when both sit on the optimum; keep the
    # reported bracket ordered (any number below a valid lower bound is
    # still a valid lower bound).
    return DivergenceSolution(
        value=cand.primal,
        dual_value=min(max(best_dual, cand.dual), cand.primal),
        duality_gap=gap,
        measure=DiscreteMeasure(ws.mu.point_set, gamma_full),
        potential=LipschitzFunction(g_norm, ws.cost),
        plan=plan,
        iterations=iterations,
        certified=gap <= tol,
        tol=tol,
    )


def dual_objective(g, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Dual functional sum g dmu - log sum e^g dnu.

    For any Lipschitz-feasible g this is a lower bound on the divergence
    (weak duality), with equality at the optimal potential.
    """
    _require_same_point_set(mu, nu)
    values = _potential_values(g)
    supp = nu.support
    lse = float(logsumexp(values[supp] + np.log(nu.weights[supp])))
    return float(mu.weights @ values) - lse


@dataclass(frozen=True)
class OptimalityReport:
    """First-order optimality check for a candidate (measure, potential) pair.

    ``gibbs_residual`` measures the Gibbs relation in log form,
    max over supp(nu) of |log(gamma_j / nu_j) - (g_j - log sum e^g dnu)|;
    ``transport_residual`` is |W(mu, gamma) - sum g d(mu - gamma)|. The pair
    is declared optimal when the potential is feasible and both residuals
    are within ``tol``.
    """

    gibbs_residual: float
    transport_residual: float
    lipschitz_excess: float
    violating_pair: tuple[int, int] | None
    feasible: bool
    optimal: bool
    tol: float


def verify_optimizers(
    candidate_measure: DiscreteMeasure,
    candidate_potential,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    tol: float = 1e-8,
) -> OptimalityReport:
    """Certify a candidate optimizer pair via the first-order conditions.

    The two conditions characterize optimality: the Gibbs relation
    d gamma / d nu = e^g / sum e^g dnu on supp(nu), and the transport
    identity W(mu, gamma) = sum g d(mu - gamma). Residuals of both are
    reported; an infeasible potential is rejected with its violating pair.
    """
    _require_same_point_set(mu, nu)
    _require_same_point_set(candidate_measure, nu)
    values = _potential_values(candidate_potential)
    if values.shape != (mu.point_set.n,):
        raise ValidationError("potential length does not match the point set")
    if not candidate_measure.is_absolutely_continuous_wrt(nu):
        raise ValidationError("candidate measure is not absolutely continuous w.r.t. nu")

    excess, pair = lipschitz_violation(values, cost)
    scale = 1e-9 * (1.0 + float(np.abs(values).max(initial=0.0)))
    feasible = excess <= scale

    supp = nu.support
    lse = float(logsumexp(values[supp] + np.log(nu.weights[supp])))
    gamma = candidate_measure.weights[supp]
    predicted = values[supp] - lse + np.log(nu.weights[supp])  # log Gibbs weight
    pos = gamma > 0
    gibbs = 0.0
    if pos.any():
        gibbs = float(np.abs(np.log(gamma[pos]) - predicted[pos]).max())
    if (~pos).any():
        # Zero entries are consistent with the relation exactly when the
        # predicted Gibbs mass sits below the weight resolution of the
        # measure type (weights under 1e-15 are stored as exact zeros).
        worst = float(np.exp(predicted[~pos]).max())
        if worst > 10.0 * WEIGHT_CLAMP:
            gibbs = math.inf

    ts = transport_cost(mu, candidate_measure, cost)
    pairing = float(values @ (mu.weights - candidate_measure.weights))
    transport_residual = abs(ts.value - pairing)

    return OptimalityReport(
        gibbs_residual=gibbs,
        transport_residual=transport_residual,
        lipschitz_excess=max(excess, 0.0),
        violating_pair=pair,
        feasible=feasible,
        optimal=bool(feasible and gibbs <= tol and transport_residual <= tol),
        tol=tol,
    )


@dataclass(frozen=True)
class CumulantDualityReport:
    """Check of log sum e^g dnu = sup over mu of (sum g dmu - D(mu || nu)).

    The supremum is attained uniquely at the Gibbs tilt
    d mu0 / d nu = e^g / sum e^g dnu, where the divergence also coincides
    with relative entropy.
    """

    log_mgf: float
    tilt_value: float
    tilt_gap: float
    grid_supremum: float
    grid_violation: float
    divergence_at_tilt: float
    entropy_at_tilt: float
    entropy_gap: float
    tilt: DiscreteMeasure


def cumulant_duality_check(
    g,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    mu_candidates=None,
    tol: float = 1e-8,
    solver_tol: float = 1e-10,
) -> CumulantDualityReport:
    """Evaluate both sides of the cumulant duality for a feasible potential.

    ``mu_candidates`` is an optional iterable of probe measures for the
    supremum; the Gibbs tilt is always probed. Every probe value uses the
    certified upper bracket of the divergence, so probe values can never
    spuriously exceed the log moment generating function.
    """
    values = _potential_values(g)
    values = LipschitzFunction(values, cost).values  # rejects infeasible input
    supp = nu.support
    lse = float(logsumexp(values[supp] + np.log(nu.weights[supp])))

    tilt_w = np.zeros(nu.point_set.n)
    tilt_w[supp] = np.exp(values[supp] + np.log(nu.weights[supp]) - lse)
    tilt = DiscreteMeasure(nu.point_set, tilt_w)

    sol = divergence(tilt, nu, cost, tol=solver_tol)
    tilt_value = float(values @ tilt.weights) - sol.value
    entropy = relative_entropy(tilt, nu)

    grid_sup = tilt_value
    if mu_candidates is not None:
        for probe in mu_candidates:
            val = float(values @ probe.weights) - divergence(probe, nu, cost, tol=solver_tol).value
            grid_sup = max(grid_sup, val)

    return CumulantDualityReport(
        log_mgf=lse,
        tilt_value=tilt_value,
        tilt_gap=abs(lse - tilt_value),
        grid_supremum=grid_sup,
        grid_violation=max(0.0, grid_sup - lse),
        divergence_at_tilt=sol.value,
        entropy_at_tilt=entropy,
        entropy_gap=abs(sol.value - entropy) if math.isfinite(entropy) else math.inf,
        tilt=tilt,
    )
