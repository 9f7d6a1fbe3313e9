"""Exact relative entropy and exact discrete Kantorovich transport.

The transport LP is solved by a network simplex on the bipartite transport
graph (a transportation simplex). The north-west staircase is laid and
priced first: it sets its dual potentials as it goes, so an LP that is
optimal there returns after one reduced-cost check, with no basis tree and
no tree walk. That is every LP on sorted points with an |x - y| cost, a
Monge matrix (Hoffman, "On simple linear programming problems", 1963). An
LP with one row or one column, such as one from or to a point mass, has the
staircase as its only feasible plan. With one row, one numpy pass lays it
and sets the potentials the start would, bit for bit, with no Python loop
over its cells; with one column the start's loop lays it, and its check
finds no entering cell. Otherwise the staircase gives way to the
least-cost basis (the matrix-minimum rule): cells in ascending cost, ties
in row-major order, each closing one line, m + n - 1 of them. On a metric
cost its first cells are the zero ones, each a point that both marginals
charge, so it keeps min(mu, gamma) in place before anything moves. One
walk roots that basis at row 0 (parent pointers, depths and potentials).
The entering cell is Dantzig's (the most negative reduced cost), with a
fall-back to Bland's rule in long degenerate runs, and the lowest-index
tie break for the leaving cell. Each pivot reads its cycle
off the parent pointers, then re-hangs only the subtree that the leaving
cell cuts off from the entering cell's other end, setting that subtree's
parents, depths and potentials (Ahuja, Magnanti & Orlin, *Network Flows*,
1993, ch. 11). Every node keeps the values a walk of the whole tree from
row 0 would give it, since its root path fixes them. The structure
closure roots and labels its support forest by one such whole-forest walk,
:func:`_rooted_walk`. This is exact up to floating-point arithmetic and
produces a dual certificate: at the returned plan and potential,
complementary slackness holds and the dual objective equals the primal
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    CostMatrix,
    DiscreteMeasure,
    LipschitzFunction,
    ValidationError,
    _c_transform,
    _freeze,
    _shared_point_set,
)

__all__ = ["TransportSolution", "relative_entropy", "transport_cost"]


def relative_entropy(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Kullback-Leibler divergence sum mu_i log(mu_i / nu_i).

    Returns +inf exactly when mu puts mass where nu does not; the 0 log 0
    terms contribute zero.
    """
    _shared_point_set(mu, nu)
    supp = mu.support
    p = mu.weights[supp]
    q = nu.weights[supp]
    if np.any(q == 0):
        return math.inf
    return float(np.sum(p * np.log(p / q)))


class _SupportPlan:
    """An optimal transport plan from ``mu``, kept as its nonzero bits.

    ``flow`` is the plan on ``rows`` x ``cols``, the supports of ``mu`` and
    of a subclass's other measure, and ``plan`` the whole n x n plan (rows:
    first marginal). Both are built on each access from the flow's nonzero
    entries, at most |rows| + |cols| - 1 in an LP's basic plan, which are
    all a solution keeps of its plan; a write to a returned array reaches
    neither the next read nor a residual.

    A subclass is a frozen slotted dataclass that declares ``mu``,
    ``_flow_at`` (the flat int32 positions of flow's nonzero bits; a flow of
    2^31 cells would take 16 GiB) and ``_flow_of`` (flow's entries there),
    both arrays frozen. The base holds no field and no slot: Python 3.10's
    ``dataclass(slots=True)`` redeclares every inherited field as a slot of
    the subclass, where 3.11 and later skip them, so only a base without
    fields gives each subclass its own slots alone on every version.
    """

    __slots__ = ()

    @property
    def rows(self) -> np.ndarray:
        return self.mu.support

    @property
    def flow(self) -> np.ndarray:
        flow = np.zeros((self.rows.size, self.cols.size))
        flow.flat[self._flow_at] = self._flow_of
        return flow

    @property
    def plan(self) -> np.ndarray:
        plan = np.zeros((self.mu.point_set.n,) * 2)
        plan[np.ix_(self.rows, self.cols)] = self.flow
        return plan


def _support_plan(flow: np.ndarray) -> dict:
    """The ``_flow_at`` and ``_flow_of`` fields that keep ``flow``: its
    nonzero bits, so that a -0.0 comes back as it was."""
    at = np.flatnonzero(flow.view(np.int64))
    return {"_flow_at": _freeze(at.astype(np.int32)), "_flow_of": _freeze(flow.ravel()[at])}


@dataclass(frozen=True, slots=True, eq=False)
class TransportSolution(_SupportPlan):
    """Optimal Kantorovich value and plan, and the dual potential built on read.

    ``mu``, ``gamma`` and ``cost`` are what the LP was solved for, and
    ``cols`` is the support of ``gamma``. ``value`` comes from the LP alone:
    the cost summed over the plan. The class is slotted, as
    :class:`~lipkl.core.DivergenceSolution` is.

    ``potential`` is built on each read from the LP's column duals v, which
    are all the solution keeps of it: the c-transform of -v from ``cols``
    over the whole point set, shifted to potential[0] = 0 (potentials are
    unique only up to an additive constant) and checked as a
    :class:`~lipkl.measures.LipschitzFunction`. It is a Lipschitz function g
    with value = sum g d(mu - gamma) and g(x) - g(y) = b*c(x,y) wherever the
    plan is positive. The two residuals read the solution's own measures
    and cost. Solutions compare by identity.
    """

    mu: DiscreteMeasure = field(repr=False)
    _flow_at: np.ndarray = field(repr=False)
    _flow_of: np.ndarray = field(repr=False)
    value: float
    gamma: DiscreteMeasure = field(repr=False)
    cost: CostMatrix = field(repr=False)
    # The LP's column duals v on ``cols``, copied out of the simplex's array
    # of all m + n potentials.
    _duals: np.ndarray = field(repr=False)

    @property
    def cols(self) -> np.ndarray:
        return self.gamma.support

    @property
    def potential(self) -> LipschitzFunction:
        # The column potential -v extends to the whole set by c-transform;
        # this keeps dual feasibility on all pairs (triangle inequality) and
        # optimality.
        full = _c_transform(-self._duals, self.cost, self.cols)
        return LipschitzFunction(full - full[0], self.cost)

    def marginal_residual(self) -> float:
        """Worst gap between the row and column sums of ``flow`` and the
        weights of ``mu`` and ``gamma`` on their supports."""
        flow = self.flow
        return float(max(np.abs(flow.sum(axis=1) - self.mu.weights[self.rows]).max(),
                         np.abs(flow.sum(axis=0) - self.gamma.weights[self.cols]).max()))

    def complementary_slackness_residual(self) -> float:
        """Worst |g_i - g_j - b c_ij| over plan entries above 1e-12, g the
        :attr:`potential`."""
        r, c = np.nonzero(self.flow > 1e-12)
        rows, cols = self.rows, self.cols
        g = self.potential.values
        gap = g[rows[r]] - g[cols[c]] - self.cost.block(rows, cols)[r, c]
        return float(np.abs(gap).max(initial=0.0))


def transport_cost(mu: DiscreteMeasure, gamma: DiscreteMeasure, cost: CostMatrix) -> TransportSolution:
    """Exact optimal transport cost between measures on a shared point set.

    One transport LP on the two supports gives the plan and the value, the
    cost summed over the plan; no potential is built or checked here, since
    the value needs none. :attr:`TransportSolution.potential` builds one
    from the LP's column duals on each read."""
    _shared_point_set(mu, gamma, cost=cost)
    rows, cols = mu.support, gamma.support
    sub = cost.block(rows, cols)
    flow, _, v = transport_simplex(mu.weights[rows], gamma.weights[cols], sub)
    return TransportSolution(value=float((sub * flow).sum()), mu=mu, gamma=gamma, cost=cost,
                             _duals=_freeze(v.copy()), **_support_plan(flow))


# ---------------------------------------------------------------------------
# Transportation simplex


def transport_simplex(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Solve min <C, X> over X >= 0 with row sums a and column sums b.

    ``a`` and ``b`` must be nonnegative with equal totals. Returns
    ``(X, u, v)`` where (u, v) are optimal dual potentials with
    u_i + v_j <= C_ij everywhere and equality on the spanning-tree basis.
    A line of zero mass needs no special case: both starts lay 0 on each
    of its cells, and a pivot's cycle through that line uses two of its
    cells with opposite signs, so the one that loses flow carries 0 and the
    step theta is 0. Such a line carries exactly 0 throughout and adds only
    degenerate pivots, which the Bland fall-back below bounds.
    Totals that differ by less than the 1e-9 tolerance give a plan that
    carries the smaller one: row sums at most ``a`` and column sums at most
    ``b`` (up to the rounding of each sum), so the side with the larger
    total falls short by the gap.

    With one row or one column the staircase is the only feasible plan. A
    row is returned from one numpy pass: each cell carries the smaller of
    its entry and the mass still ahead of it, with the potentials that the
    north-west start sets (u_0 = 0). A column is laid by the start itself,
    which prices it optimal.

    Otherwise the north-west staircase is laid and priced first, with the
    potentials it sets as it goes, and returned if no reduced cost is
    negative; that is every Monge LP, whose path is unchanged by what
    follows. If a cell would enter, the staircase is dropped for the
    least-cost basis (:func:`_least_cost`: cells in ascending cost, ties in
    row-major order, each closing one row or column), which one walk from
    row 0 roots, setting parents, depths and potentials. Its first cells
    are the cheapest, a metric cost's zero cells among them, so it needs a
    few pivots where the staircase needed many.

    The entering cell is Dantzig's: the most negative reduced cost
    C_ij - u_i - v_j, the first in row-major order on ties, entering only
    below -eps. The leaving cell is the lowest (i, j) among the cycle's
    minus cells that attain the step theta. Once m + n pivots in a row have
    been degenerate (theta = 0), the entering cell is Bland's instead, the
    first negative in row-major order, until the next pivot that moves mass.
    So the simplex terminates from any start: a pivot with theta > 0 lowers
    the cost, so no basis repeats across such pivots, and a degenerate run
    is finite, since Dantzig's part of it is at most m + n pivots and
    Bland's smallest-index rule for entering and leaving cells admits no
    cycle (Bland, "New finite pivoting rules for the simplex method",
    *Math. Oper. Res.* 2, 1977).

    Each pivot swaps the leaving cell for the entering cell in the basis
    tree and re-walks only the subtree that the leaving cell cut off, so
    after every pivot the potentials are those of a walk of the whole tree
    from row 0, bit for bit. The plan is held in nested lists, since each
    pivot reads and writes a few cells one at a time; it becomes an array
    at the return.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    if a.shape != (m,) or b.shape != (n,):
        raise ValidationError("marginal shapes do not match the cost matrix")
    total = float(a.sum())
    if abs(total - float(b.sum())) > 1e-9 * (1.0 + total):
        raise ValidationError("marginals must have equal total mass")
    # v_j = C_0j - u_0, as the start sets it, in a copy.
    if m == 1:
        return _staircase(a[0], b)[None, :], np.zeros(1), C[0] - 0.0

    cost = C.tolist()
    X, pot = _northwest_corner(a.tolist(), b.tolist(), cost)
    eps = 1e-11 * (1.0 + float(np.abs(C).max(initial=0.0)))
    u, v, enter = _entering(C, pot, m, eps, False)
    if enter < 0:
        return X, u, v

    X, basis = _least_cost(a.tolist(), b.tolist(), C)
    if len(basis) < m + n - 1:
        raise RuntimeError("transport basis is not spanning; numerical breakdown")
    # Basis tree on nodes 0..m-1 (rows) and m..m+n-1 (columns), rooted at
    # row 0: each node's parent, depth and potential, set by one walk.
    tree = [set() for _ in range(m + n)]
    for i, j in basis:
        tree[i].add(m + j)
        tree[m + j].add(i)
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    for node in tree[0]:
        parent[node] = 0
    _hang(list(tree[0]), tree, parent, depth, pot, cost, m)
    degenerate = 0  # pivots in a row with theta = 0
    for _ in range(40 * (m + n) ** 2 + 1000):
        u, v, enter = _entering(C, pot, m, eps, degenerate >= m + n)
        if enter < 0:
            return np.array(X), u, v
        ei, ej = divmod(enter, n)
        # The entering cell closes one cycle: walk its row and column up to
        # their common ancestor. Signs alternate from the entering cell, so
        # the first, third, ... tree cell from either end loses flow.
        left, right = [], []
        p, q = ei, m + ej
        while p != q:
            if depth[p] >= depth[q]:
                up = parent[p]
                left.append((p, up - m) if p < m else (up, p - m))
                p = up
            else:
                up = parent[q]
                right.append((q, up - m) if q < m else (up, q - m))
                q = up
        minus = left[0::2] + right[0::2]
        plus = left[1::2] + right[1::2] + [(ei, ej)]
        theta = min(X[i][j] for i, j in minus)
        # Leaving cell: smallest (i, j) among the minus cells attaining theta.
        leave = min((i, j) for i, j in minus if X[i][j] <= theta)
        for i, j in plus:
            X[i][j] += theta
        for i, j in minus:
            X[i][j] -= theta
        li, lj = leave
        X[li][lj] = 0.0
        tree[li].remove(m + lj)
        tree[m + lj].remove(li)
        tree[ei].add(m + ej)
        tree[m + ej].add(ei)
        # The leaving cell cuts off the subtree below it, which holds the
        # entering end on its side of the cycle; re-hang that subtree from
        # the other end. No other node's root path changes.
        node, top = (ei, m + ej) if leave in left else (m + ej, ei)
        parent[node] = top
        _hang([node], tree, parent, depth, pot, cost, m)
        degenerate = degenerate + 1 if theta == 0.0 else 0
    raise RuntimeError("transport simplex failed to terminate (pivot limit reached)")


def _hang(stack: list, tree: list, parent: list, depth: list, pot: list, cost: list, m: int):
    """Hang the subtrees of the nodes on ``stack`` from their parents: set
    the depth and potential of every node in them, and the parent of every
    node below, by the arithmetic of :func:`_rooted_walk`."""
    while stack:
        node = stack.pop()
        up = parent[node]
        depth[node] = depth[up] + 1
        pot[node] = (cost[node][up - m] if up >= m else cost[up][node - m]) - pot[up]
        for other in tree[node]:
            if other != up:
                parent[other] = node
                stack.append(other)


def _entering(C: np.ndarray, pot: list, m: int, eps: float, bland: bool):
    """The potentials ``pot`` as row and column arrays, and the entering
    cell as a flat index, or -1 when no reduced cost C_ij - u_i - v_j lies
    below -eps: the first most negative one (Dantzig), or with ``bland`` the
    first negative one in row-major order. A basis cell's reduced cost is 0
    up to rounding, far inside eps."""
    P = np.array(pot)
    u, v = P[:m], P[m:]
    R = C - u[:, None]
    R -= v
    if bland:
        neg = R < -eps
        enter = int(neg.argmax())
        return u, v, enter if neg.flat[enter] else -1
    enter = int(R.argmin())
    return u, v, enter if R.flat[enter] < -eps else -1


def _staircase(rest: float, line: np.ndarray) -> np.ndarray:
    """The north-west plan of one line: cell k carries min(line[k], mass
    ahead of it), where ``rest`` less the earlier entries is ahead, and 0
    once that runs out. The subtractions are the start's, in its order."""
    ahead = np.subtract.accumulate(np.concatenate(([rest], line)))[:-1]
    return np.maximum(np.minimum(line, ahead), 0.0)


def _northwest_corner(a: list, b: list, cost: list):
    """Initial basic feasible solution with exactly m + n - 1 basic cells,
    a staircase from (0, 0) to (m - 1, n - 1), and its potentials (rows,
    then columns) with u_0 = 0 and u_i + v_j = C_ij on every basic cell.
    Each node's potential is set as its cell joins the staircase, by the
    arithmetic of :func:`_rooted_walk` from row 0."""
    m, n = len(a), len(b)
    X = np.zeros((m, n))
    pot = [0.0] * (m + n)
    pot[m] = cost[0][0] - pot[0]
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        t = min(ra, rb)
        X[i, j] = t
        ra -= t
        rb -= t
        if i == m - 1 and j == n - 1:
            break
        # Exhausted row moves down, otherwise move right; simultaneous
        # exhaustion leaves a zero-flow basic cell in the next column. From
        # the last column every row moves down: totals that differ within
        # the tolerance may leave it not exhausted.
        if i < m - 1 and (j == n - 1 or ra <= 1e-15 * (1.0 + a[i])):
            i += 1
            ra = a[i]
            pot[i] = cost[i][j] - pot[m + j]
        else:
            j += 1
            rb = b[j]
            pot[m + j] = cost[i][j] - pot[i]
    return X, pot


def _least_cost(a: list, b: list, C: np.ndarray):
    """Least-cost (matrix-minimum) basic feasible solution: the plan in
    nested lists and its m + n - 1 basic cells. The lists ``a`` and ``b``
    are used up as the remaining masses. Cells are taken in ascending cost,
    ties in row-major order (a stable sort), skipping any whose row or
    column is closed. Each cell carries the smaller of its row's and its
    column's remaining mass, then closes one of the two: the row if it ran
    out (both may), else the column; the last open row or column stays
    open. The cell that meets the last open row and column ends the start.
    Each closed line is in no later cell, so the cells form a spanning
    tree. A remaining mass only falls by the mass placed, so no cell is
    negative; totals that differ within the tolerance leave their gap on
    the last open line."""
    m, n = len(a), len(b)
    X = [[0.0] * n for _ in range(m)]
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    cells = []
    rows, cols = np.divmod(np.argsort(C, axis=None, kind="stable"), n)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(a[i], b[j])
        X[i][j] = t
        cells.append((i, j))
        if len(cells) == m + n - 1:
            break
        a[i] -= t
        b[j] -= t
        if cols_left == 1 or (rows_left > 1 and a[i] == 0.0):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return X, cells


def _rooted_walk(tree, cost, m):
    """Root every component of a bipartite forest (nodes below ``m`` are
    rows, the rest columns) at its lowest-numbered node: potential and
    component label of each node, with potential 0 at a root and
    u_i + v_j = C_ij on every tree edge, each fixed by its unique root
    path. Components are numbered 0, 1, ... in the order of their roots.
    """
    size = len(tree)
    pot = [0.0] * size
    comp = [-1] * size
    label = 0
    for root in range(size):
        if comp[root] >= 0:
            continue
        comp[root] = label
        stack = [root]
        while stack:
            node = stack.pop()
            for other in tree[node]:
                if comp[other] >= 0:
                    continue
                comp[other] = label
                edge = cost[node][other - m] if other >= m else cost[other][node - m]
                pot[other] = edge - pot[node]
                stack.append(other)
        label += 1
    return pot, comp
