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
updates keep the iterate positive, matching the entropy geometry. Each trial
iterate is put back on its rows' simplices in one max-shifted pass (row max,
exp, row sum), the log-sum-exp of log-domain scaling solvers (Schmitzer,
*SIAM J. Sci. Comput.* 41, 2019): the pass yields both the log iterate,
shifted so that each row peaks at 0, and the coupling that the objective
reads, and its shift keeps every exponent at or below 0.

Certificates pair every primal iterate with a feasible dual candidate: from
gamma form g_j = log(gamma_j / nu_j) on the support of nu, tighten it into
the Lipschitz class by c-transform, take the Gibbs tilt of the tightened
function as the primal measure, and price the transport exactly with the
network simplex. For a candidate built this way the transport-identity
residual *is* the duality gap, and the Gibbs relation holds by construction,
so a certified solve automatically satisfies the first-order optimality
conditions to the same tolerance. The zero potential is a candidate too,
but only its dual side is computed: its dual is a lower bracket and its
tilt (nu on the columns) seeds a cold iterate, and nothing would read its
transport LP. A warm start is priced in full, and its optimal plan seeds
the iterate instead, mixed with a small share of the product of mu and its
tilt (see :meth:`_Workspace.warm_seed`): mirror descent's bound scales with
the divergence from the seed to the optimal coupling, and along a scale
ladder the previous optimum's plan lies near the next one.

Mirror descent alone closes the gap at an O(1/t) crawl, so certificate
rounds also *close the first-order conditions over a guessed support
structure* (see :meth:`_Workspace.structure_closure`): take the positive
entries of a plan guess, propagate the tightness equations over the support
graph, and fix each component's additive constant by mass balance. Once the
guess matches an optimal structure this lands the exact optimizer in one
step, which is what lets the solver certify gaps near machine precision.
Guesses are drawn from both the certificate LP's plan and the mirror
iterate's own coupling (the latter tracks exponentially small masses at the
correct order, which the log(gamma/nu) candidate cannot). The support
forest is rooted and its components labelled by one whole-forest walk
(``divergences._rooted_walk``; the transport simplex keeps its own basis
tree and shares no code with it). A column the guess leaves loose joins the
component of the row that prices it, and every component's constant comes
from a bincount pass over the labels: one pass, or two when a column was
loose.

Certificate rounds run at mirror iteration 1, then at the powers of two from
``_FIRST_DOUBLING`` (8, 16, 32, ...), and once on the last iterate: the round
at 1 catches solves whose structure is visible at once, a round costs
several descent steps, and doubling keeps the pricing cost within a constant
factor of the descent steps on slow solves. A closure output gets its
transport LP only when weak duality leaves it a chance: every primal value
lies at or above every feasible dual value, so a candidate whose dual falls
more than the best gap below the best dual can neither become the best
candidate nor raise the best dual.

The workspace skips two kinds of repeated work, each keyed on the bytes of
its input: a support mask already tried (the closure depends on the mask
alone) and a forest walk already balanced (its potentials and labels fix
the closure's output). Nothing else needs a skip. A flow that comes back
gives the same masks, all of them tried. The weak-duality floor never falls
within a solve, since the best dual only rises and the best gap only falls,
so a closure output refused its LP is refused again, and one priced prices
again to the same candidate, which moves neither. And the simplex is
deterministic, so a tilt priced again gets the same plan. A skip on any of
these three would change no bit of a result.

Equal measures need no solve: when mu and nu have the same weights, bit for
bit, the zero potential and the diagonal plan are the exact optimum (W = 0
and R = 0), and the solve returns them with both brackets at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .divergences import (
    _SupportPlan,
    _rooted_walk,
    _support_plan,
    relative_entropy,
    transport_cost,
    transport_simplex,
)
from .measures import (
    WEIGHT_CLAMP,
    CostMatrix,
    DiscreteMeasure,
    LipschitzFunction,
    ValidationError,
    lipschitz_violation,
    _c_transform,
    _lipschitz_tol,
    _log_mgf,
    _shared_point_set,
    _values_on,
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
# Share of the product coupling mu x gamma mixed into a warm start's plan
# when it seeds the mirror iterate. Mirror descent's bound scales with
# KL(pi* || pi_0), and pi_0 >= eps mu x gamma caps that at the product
# seed's own KL plus log(1/eps): a poor plan costs at most log(1/eps), 4.6
# here, while a plan with no product share leaves the KL infinite wherever
# pi* has support the plan lacks. On the benchmark's sweeps 0.01 took fewer
# iterations than 0.1, 1e-4 or 1e-8.
_WARM_PRODUCT = 0.01
# Certificate rounds run at mirror iteration 1 and then at the powers of two
# from this one on. On the benchmark at seed 0, a round (the iterate's LP
# plus up to 15 closures) costs about as much as 5 mirror steps in a
# markov-12 row solve and 15-20 in a solve-2d solve. The round at 1 is where
# every grid-1d solve certifies (without it each takes 4 steps), and four of
# the six pinned solves in the tests. In one markov-12 round of 96 row
# solves, rounds at 1, 2, 4, 8, ... certified 2 at iteration 1, 34 at 2, 27
# at 4 and 25 at 8: the rounds at 2 and 4 cost 154 rounds to catch 61
# solves. Starting at 16 instead took markov-12 from 2 678 to 4 742 mirror
# iterations in three rounds.
_FIRST_DOUBLING = 8


@dataclass(frozen=True, slots=True, eq=False)
class DivergenceSolution(_SupportPlan):
    """Certified solve of the transport-smoothed divergence.

    ``value`` is the primal objective W(mu, measure) + R(measure || nu) of
    the returned intermediate ``measure`` (an upper bracket of the true
    divergence); ``dual_value`` is the best feasible dual objective found (a
    lower bracket). ``duality_gap`` is the gap of the returned primal/dual
    *pair*, which also bounds the transport-identity residual of
    (measure, potential); the pair satisfies the Gibbs relation by
    construction. ``potential`` is normalized so that log sum e^g dnu = 0,
    i.e. g = log(d measure / d nu) on the support of nu, extended off the
    support by its maximal Lipschitz extension. Unlike the potential of a
    :class:`~lipkl.divergences.TransportSolution`, whose value comes from
    the LP alone, it is built and checked inside the solve: its feasibility
    is what makes ``dual_value`` a lower bracket. Solutions compare by
    identity: two solves are two solutions, whatever their values.

    ``mu`` and ``nu`` are the measures the solve was given, and ``cols`` is
    the support of ``nu``. ``flow`` and ``plan`` are the transport plan from
    mu to ``measure``, kept as a transport solution keeps its own. The class
    is slotted, so a caller that keeps many solutions keeps no instance
    dict per solution.
    """

    mu: DiscreteMeasure = field(repr=False)
    _flow_at: np.ndarray = field(repr=False)
    _flow_of: np.ndarray = field(repr=False)
    value: float
    dual_value: float
    duality_gap: float
    measure: DiscreteMeasure
    potential: LipschitzFunction
    iterations: int
    certified: bool
    tol: float
    nu: DiscreteMeasure = field(repr=False)

    @property
    def cols(self) -> np.ndarray:
        return self.nu.support


@dataclass(frozen=True)
class _Candidate:
    gap: float
    dual: float
    primal: float
    lse: float               # log sum e^g dnu of g_full
    g_full: np.ndarray       # tightened potential on the whole point set
    gamma: np.ndarray        # Gibbs tilt of g_full on nu's support columns
    flow: np.ndarray         # optimal plan between mu rows and gamma columns


# Relative flow cutoffs for support identification. A plan entry below the
# cutoff is treated as a vanishing (non-tight) edge when closing the
# first-order conditions; the ladder brackets the separation between true
# support flows and the noise of a not-yet-converged iterate.
_STRUCT_THRESHOLDS = np.array((1e-12, 1e-9, 1e-7, 1e-5, 1e-3))[:, None, None]


def _support_guesses(flow: np.ndarray) -> np.ndarray:
    """The guessed supports of one flow, one boolean mask per threshold,
    loosest first: the entries above that share of the peak entry, and each
    row's largest entry, so that no row mass goes missing."""
    keeps = flow > _STRUCT_THRESHOLDS * float(flow.max())
    keeps[:, np.arange(flow.shape[0]), flow.argmax(axis=1)] = True
    return keeps


class _Workspace:
    """Shared arrays, and the structure closure's two skips, for one solve."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostMatrix):
        _shared_point_set(mu, nu, cost=cost)
        self.mu = mu
        self.nu = nu
        self.cost = cost
        self.rows = mu.support
        self.cols = nu.support
        self.C_rc = cost.block(self.rows, self.cols)
        self.a = mu.weights[self.rows]
        self.a_col = self.a[:, None]
        self.logw = np.log(nu.weights[self.cols])
        self._masks: set[bytes] = set()
        self._walks: set[bytes] = set()

    @cached_property
    def _cost_lists(self) -> list:
        """``C_rc`` as nested lists, the form the forest walk reads."""
        return self.C_rc.tolist()

    def tilt(self, g_cols: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """The dual side of one candidate given raw potential values on the
        columns: its dual value, log sum e^g dnu, the tightened potential on
        the whole point set, and its Gibbs tilt on the columns.

        The candidate is tightened by c-transform, which makes it feasible.
        Shift-invariant in g_cols.
        """
        g_full = _c_transform(g_cols, self.cost, self.cols)
        z = g_full[self.cols] + self.logw
        peak = z.max()
        gamma = np.exp(z - peak)
        mass = gamma.sum()
        gamma /= mass
        lse = float(peak + math.log(mass))
        dual = float(self.mu.weights @ g_full) - lse
        return dual, lse, g_full, gamma

    def evaluate(self, g_cols: np.ndarray, floor: float = -math.inf) -> _Candidate | None:
        """Price one dual candidate given raw potential values on the columns.

        Its Gibbs tilt (:meth:`tilt`) becomes the primal measure, and the
        transport part is priced exactly by the network simplex. A candidate
        whose dual value falls below ``floor`` returns None before the
        simplex runs.
        """
        dual, lse, g_full, gamma = self.tilt(g_cols)
        if dual < floor:
            return None
        flow, wass = self._transport(gamma)
        # gamma @ (gc - lse) evaluates R(gamma || nu), nonnegative by Gibbs'
        # inequality; clamp the one-ulp fp undershoot at coincidence.
        rel_ent = max(float(gamma @ (g_full[self.cols] - lse)), 0.0)
        primal = wass + rel_ent
        return _Candidate(
            gap=primal - dual, dual=dual, primal=primal, lse=lse,
            g_full=g_full, gamma=gamma, flow=flow,
        )

    def _transport(self, gamma: np.ndarray) -> tuple[np.ndarray, float]:
        """The optimal plan from the mu rows to ``gamma`` and its cost. The
        simplex is deterministic, so a tilt priced again gets the same plan."""
        # Columns can underflow to exact zero at extreme scales; price the
        # transport on the positive block only. Most tilts are positive
        # throughout, and then the block is C_rc itself.
        if gamma.min() > 0:
            flow, _, _ = transport_simplex(self.a, gamma, self.C_rc)
            wass = float((self.C_rc * flow).sum())
        else:
            pos = gamma > 0
            sub = self.C_rc[:, pos]
            f_sub, _, _ = transport_simplex(self.a, gamma[pos], sub)
            wass = float((sub * f_sub).sum())
            flow = np.zeros_like(self.C_rc)
            flow[:, pos] = f_sub
        return flow, wass

    def warm_seed(self, cand: _Candidate) -> np.ndarray:
        """The mirror iterate, in log space, that a warm candidate seeds: its
        optimal plan with a share ``_WARM_PRODUCT`` of the product of mu and
        its tilt, floored where the tilt underflows to zero. The plan's rows
        and the product's rows both sum to mu's row masses, so the seed
        needs no renormalization."""
        pi0 = (1.0 - _WARM_PRODUCT) * cand.flow + _WARM_PRODUCT * (self.a_col * cand.gamma)
        return np.log(np.maximum(pi0, _TINY))

    def step(self, log_pi: np.ndarray, grad: np.ndarray,
             eta: float) -> tuple[np.ndarray, np.ndarray]:
        """One mirror step from the log iterate ``log_pi`` (the iterate up to
        a constant per row) along ``grad`` with step ``eta``: the new log
        iterate, shifted so that each row peaks at 0, and the coupling it
        stands for, each row scaled to its mu mass. One max-shifted pass
        (row max, exp, row sum) gives both: every exponent is at most 0 and
        each row's sum at least 1, so nothing overflows and no row sum
        underflows."""
        trial = grad * -eta
        trial += log_pi
        trial -= trial.max(axis=1, keepdims=True)
        pi = np.exp(trial)
        pi *= self.a_col / pi.sum(axis=1, keepdims=True)
        return trial, pi

    def identity(self) -> _Candidate:
        """The exact optimum of an equal pair: the zero potential, tightened
        (0 on the support), whose tilt is nu itself, and the diagonal plan.
        Its transport cost and relative entropy are exactly 0, and so is the
        dual of a potential that is 0 on every atom of a probability
        measure."""
        g_full = _c_transform(np.zeros(self.cols.size), self.cost, self.cols)
        return _Candidate(gap=0.0, dual=0.0, primal=0.0, lse=0.0, g_full=g_full,
                          gamma=self.a, flow=np.diag(self.a))

    def untried_guesses(self, flow: np.ndarray):
        """The support guesses of ``flow`` (:func:`_support_guesses`) that no
        earlier ladder of this solve has tried. A closure depends on its mask
        alone, so a mask tried before would repeat an output."""
        for keep in _support_guesses(flow):
            key = keep.tobytes()
            if key not in self._masks:
                self._masks.add(key)
                yield keep

    def structure_closure(self, keep: np.ndarray) -> np.ndarray | None:
        """Close the first-order conditions over a guessed support structure.

        ``keep`` is a boolean rows x columns mask, the guessed support of the
        optimal plan; every row keeps at least one entry. On that support
        the potential differences are pinned by g_i - g_j = b c_ij, so within
        each connected component of the bipartite support graph the
        potential profile is determined up to one constant, and the constant
        is fixed by mass balance (:meth:`_balance`). There is no fixed
        point: one forest walk and at most two balance passes. When the
        guessed support matches an optimal structure this lands the exact
        optimizer regardless of how converged the guess was.

        The closure has two skips, both held by the workspace. The output
        depends on the mask alone, so a solve closes only the masks that
        :meth:`untried_guesses` hands out. It depends on the mask only
        through the walk's potentials and labels (which also tell the
        attached columns: a loose column is a component of its own, labelled
        after every row's), so a mask whose walk this workspace has balanced
        before returns None: its output would repeat one already returned.
        """
        m, k = keep.shape
        # Edges come row-major: every node lists its neighbours ascending.
        forest = [[] for _ in range(m + k)]
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(keep))):
            forest[i].append(m + j)
            forest[m + j].append(i)
        # Rows have the lowest node numbers, so every component with a row is
        # rooted at one (potential 0) and labelled before the rest, which are
        # single loose columns.
        pot, comp = _rooted_walk(forest, self._cost_lists, m)
        pot = np.array(pot)
        comp = np.array(comp)
        key = pot.tobytes() + comp.tobytes()
        if key in self._walks:
            return None
        self._walks.add(key)
        return self._balance(pot, comp, keep.any(axis=0))

    def _balance(self, pot: np.ndarray, comp: np.ndarray, attached: np.ndarray) -> np.ndarray:
        """The closure's potential on the columns, from the walk's potentials
        ``pot`` and component labels ``comp`` (rows, then columns) and the
        columns the mask ``attached``.

        Each component's constant is fixed by mass balance: the Gibbs weights
        of its columns must sum to the mu mass of its rows. Each row
        component also holds a column (its rows' argmax), so the balance over
        the attached columns prices every one. A column the mask leaves
        unattached (its true inflow sits below the guess's flow threshold,
        e.g. Gibbs mass ~ e^{-b c} at large scales) joins the component of
        the row that prices it, argmax_i (g_i - b c_ij) under that first
        balance, as if the mask held that edge; a second balance over every
        column then counts its Gibbs mass in that component.
        """
        m = self.a.size
        val_rows = pot[:m]
        val_cols = -pot[m:]
        comp_of_row = comp[:m]
        comp_of_col = comp[m:]
        log_masses = np.log(np.bincount(comp_of_row, weights=self.a))

        def shifts(cols) -> np.ndarray:
            """Each component's constant, balancing its columns among ``cols``."""
            z = val_cols[cols] + self.logw[cols]
            labels = comp_of_col[cols]
            peak = np.full(log_masses.size, -np.inf)
            np.maximum.at(peak, labels, z)
            norms = peak + np.log(np.bincount(labels, weights=np.exp(z - peak[labels])))
            return log_masses - norms

        if not attached.all():
            loose = np.flatnonzero(~attached)
            reach = val_rows[:, None] - self.C_rc[:, loose]
            source = (reach + shifts(attached)[comp_of_row][:, None]).argmax(axis=0)
            val_cols[loose] = reach[source, np.arange(loose.size)]
            comp_of_col[loose] = comp_of_row[source]
        return val_cols + shifts(slice(None))[comp_of_col]


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
        LipschitzFunction) with finite values; any feasible guess can only
        improve the dual bracket, which is what makes scale sweeps exactly
        monotone. Its candidate's optimal transport plan, with a share
        ``_WARM_PRODUCT`` of the product of mu and its tilt, seeds the
        mirror iterate, so a start near the optimum also takes fewer
        iterations.

    ``iterations`` counts the mirror steps taken. A solve stops at a
    certificate round, so a certified solve reads 1, a power of two from 8
    on, or the last iterate's count (the budget, or the step after which the
    objective stopped falling); it reads 0 when equal measures or a warm
    start certify before the first step.

    When mu and nu have bitwise-equal weights the solve returns the exact
    optimum at once: the zero potential, nu as the intermediate measure, the
    diagonal plan, and ``value`` and ``dual_value`` both 0.0.

    Every candidate's dual value is computed, but the transport LP that
    prices its primal runs only on the warm start, each certificate round's
    mirror iterate, and those structure-closure candidates whose dual lies
    within the best gap of the best dual. The zero start contributes its
    dual and the mirror seed (the warm start's plan seeds instead when
    given), and no LP. The only work skipped is a support mask tried before
    and a forest walk balanced before (see the module docstring for why no
    other repeat needs a skip).
    """
    if not (tol > 0):
        raise ValidationError("tol must be positive")
    ws = _Workspace(mu, nu, cost)
    if initial_potential is not None:
        g0 = _values_on(initial_potential, cost.n)
        if not np.isfinite(g0).all():
            raise ValidationError("initial potential must be finite")
    if np.array_equal(mu.weights, nu.weights):
        return _assemble(ws, ws.identity(), 0.0, 0, tol)

    best: _Candidate | None = None
    best_dual = -math.inf

    def consider(g_cols, floor: float = -math.inf) -> _Candidate | None:
        nonlocal best, best_dual
        cand = ws.evaluate(np.asarray(g_cols, dtype=float), floor)
        if cand is None:
            return None
        best_dual = max(best_dual, cand.dual)
        if best is None or cand.gap < best.gap:
            best = cand
        return cand

    # A closure output gets no LP when its dual lies more than best.gap below
    # best_dual: every primal lies at or above best_dual, so it could neither
    # become best nor raise best_dual, and its flow never reaches a ladder.
    # The floor never falls (best_dual only rises, best.gap only falls), so
    # a closure output that comes back is refused again, or priced again to
    # a candidate that moves neither; the ladder keeps no set of them.
    def closure_ladder(flow: np.ndarray) -> None:
        """Try the support guesses of one flow at every threshold."""
        for keep in ws.untried_guesses(flow):
            if best.gap <= tol:
                return
            g = ws.structure_closure(keep)
            if g is None:
                continue
            # The weak-duality floor, less a relative 1e-12 for rounding in
            # the computed brackets.
            consider(g, best_dual - best.gap - 1e-12 * (1.0 + abs(best_dual)))

    def certificate_round(ratio_iterate: np.ndarray, pi_iterate: np.ndarray) -> None:
        """Price the current iterate plus the structure-closure candidates.

        The iterate's own semi-coupling is the most trustworthy support
        guess: the candidate measure built from log(gamma/nu) amplifies
        iterate noise on near-zero columns, while the log-space coupling
        tracks even exponentially small masses at the right order.
        """
        cand = consider(ratio_iterate)
        closure_ladder(pi_iterate)
        closure_ladder(cand.flow)
        closure_ladder(best.flow)

    # The zero potential's dual is a lower bracket, and its tilt (nu on the
    # columns) seeds a cold iterate; its primal would be read by nothing.
    best_dual, _, _, seed = ws.tilt(np.zeros(ws.cols.size))
    # Primal state in log space, each row on its own scaled simplex, and the
    # coupling it stands for.
    if initial_potential is None:
        pi_cur = ws.a_col * seed
        log_pi = np.log(pi_cur)
    else:
        log_pi = ws.warm_seed(consider(g0[ws.cols]))
        pi_cur = np.exp(log_pi)
    eta = 1.0
    iterations = 0

    def objective(pi: np.ndarray) -> tuple[float, np.ndarray]:
        """The objective at the coupling ``pi``, and log(gamma / nu) of its
        column sums gamma, which both the descent step and the iterate's
        candidate read."""
        gamma = pi.sum(axis=0)
        ratio = np.log(np.maximum(gamma, _TINY)) - ws.logw
        return float((ws.C_rc * pi).sum() + gamma @ ratio), ratio

    f_cur, ratio_cur = objective(pi_cur)
    last = False
    while (best is None or best.gap > tol) and not last:
        grad = ws.C_rc + (ratio_cur + 1.0)[None, :]
        accepted = False
        trial_eta = min(eta * 2.0, _MAX_STEP)
        while trial_eta > 1e-12 and iterations < max_iter:
            trial, pi_new = ws.step(log_pi, grad, trial_eta)
            f_new, ratio_new = objective(pi_new)
            if f_new <= f_cur + 1e-12 * (1.0 + abs(f_cur)):
                log_pi, f_cur, pi_cur, ratio_cur, eta = trial, f_new, pi_new, ratio_new, trial_eta
                iterations += 1
                accepted = True
                break
            trial_eta *= 0.5
        # Rounds run at iteration 1, at 8, 16, 32, ... (_FIRST_DOUBLING) and
        # on the last iterate, when the budget is spent or the objective is
        # flat to machine precision.
        last = not accepted or iterations >= max_iter
        doubling = iterations >= _FIRST_DOUBLING and iterations.bit_count() == 1
        if last or iterations == 1 or doubling:
            certificate_round(ratio_cur, pi_cur)

    return _assemble(ws, best, best_dual, iterations, tol)


def _assemble(ws: _Workspace, cand: _Candidate, best_dual: float,
              iterations: int, tol: float) -> DivergenceSolution:
    n = ws.mu.point_set.n
    g_norm = cand.g_full - cand.lse
    gamma_full = np.zeros(n)
    gamma_full[ws.cols] = cand.gamma
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
        dual_value=min(best_dual, cand.primal),
        duality_gap=gap,
        measure=DiscreteMeasure(ws.mu.point_set, gamma_full),
        potential=LipschitzFunction(g_norm, ws.cost),
        iterations=iterations,
        certified=gap <= tol,
        tol=tol,
        mu=ws.mu,
        nu=ws.nu,
        **_support_plan(cand.flow),
    )


def dual_objective(g, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Dual functional sum g dmu - log sum e^g dnu.

    For any Lipschitz-feasible g this is a lower bound on the divergence
    (weak duality), with equality at the optimal potential.
    """
    values = _values_on(g, _shared_point_set(mu, nu))
    return float(mu.weights @ values) - _log_mgf(values, nu)


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
    n = _shared_point_set(mu, nu, candidate_measure, cost=cost)
    values = _values_on(candidate_potential, n)
    if not candidate_measure.is_absolutely_continuous_wrt(nu):
        raise ValidationError("candidate measure is not absolutely continuous w.r.t. nu")

    excess, pair = lipschitz_violation(values, cost)
    feasible = excess <= _lipschitz_tol(values)

    supp = nu.support
    lse = _log_mgf(values, nu)
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
    solver_tol: float = 1e-10,
) -> CumulantDualityReport:
    """Evaluate both sides of the cumulant duality for a feasible potential.

    ``mu_candidates`` is an optional iterable of probe measures for the
    supremum; the Gibbs tilt is always probed. Every probe value uses the
    certified upper bracket of the divergence, so probe values can never
    spuriously exceed the log moment generating function.
    """
    values = _values_on(g, _shared_point_set(nu, cost=cost))
    values = LipschitzFunction(values, cost).values  # rejects infeasible input
    supp = nu.support
    lse = _log_mgf(values, nu)

    tilt_w = np.zeros(nu.point_set.n)
    tilt_w[supp] = np.exp(values[supp] + np.log(nu.weights[supp]) - lse)
    tilt = DiscreteMeasure(nu.point_set, tilt_w)

    sol = divergence(tilt, nu, cost, tol=solver_tol)
    tilt_value = float(values @ tilt.weights) - sol.value
    entropy = relative_entropy(tilt, nu)

    grid_sup = tilt_value
    if mu_candidates is not None:
        for probe in mu_candidates:
            _shared_point_set(probe, nu)
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
