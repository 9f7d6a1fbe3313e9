"""The benchmark's workloads: input generation, the timed op, and its checks.

A workload is a list of cells (a size and a scale) and a fixed population
of ``weight`` instances per cell, drawn once from ``POPULATION_SEED``; the
population is the workload's nominal op set. The run's ``--seed`` perturbs
every input of that set by a relative ``EPS`` (point coordinates, weights,
kernel rows, potentials), afresh in every round, so a seed fixes every
input while the set's mix of easy and hard instances stays the same from
seed to seed: solve times of random instances are heavy-tailed (mirror
iterations range over 1 to 2064 on one cell), and a run of seconds holds
too few of them to give a steady time if the seed drew new ones.

Besides ``cells`` and ``weight``, a workload names its ``entry`` (the span
of its op call), the ``smoke_cells`` that ``smoke.py`` runs, and the
``trace_rounds`` a traced run executes. Its ``run`` is the only code that
is timed. ``check`` returns a list of failure messages (empty when the
result is right); it may do extra work, because it runs after the timed
loop. ``reference`` extracts the values stored in ``references.json`` for
the default seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import lipkl
from lipkl import cli

TOL = 1e-8
EPS = 1e-3
POPULATION_SEED = 1


def instance_rngs(seed: int, round_index: int, cell: int, instance: int):
    """Generators of the population instance and of this round's perturbation."""
    return (np.random.default_rng([POPULATION_SEED, cell, instance]),
            np.random.default_rng([seed, round_index, cell, instance]))


def _perturb_weights(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Relative change of at most EPS per entry; zeros stay zero."""
    w = w * np.exp(EPS * rng.uniform(-1.0, 1.0, w.shape))
    return w / w.sum(axis=-1, keepdims=True)


def _perturb(x, rng: np.random.Generator):
    return x + EPS * rng.uniform(-1.0, 1.0, np.shape(x))


def _bracket_failures(ref: float, value: float, dual: float) -> list[str]:
    """A stored value must lie inside the certified bracket of a new solve."""
    if not (dual - TOL <= ref <= value + TOL):
        return [f"reference {ref!r} outside [{dual!r} - tol, {value!r} + tol]"]
    return []


def _random_pair(base: np.random.Generator, pert: np.random.Generator, n: int):
    """Two full-support measures on n random points in the unit square."""
    points = _perturb(base.random((n, 2)), pert)
    ps = lipkl.PointSet(tuple(tuple(p) for p in points.tolist()))
    mu = lipkl.DiscreteMeasure(ps, _perturb_weights(base.dirichlet(np.full(n, 5.0)), pert))
    nu = lipkl.DiscreteMeasure(ps, _perturb_weights(base.dirichlet(np.full(n, 5.0)), pert))
    return ps, mu, nu


class Solve2D:
    """Cold certified solves of random 2-D pairs; bound by the transport LP."""

    name = "solve-2d"
    entry = "core.divergence"
    cells = [(n, b) for n in (12, 16) for b in (0.1, 1.0, 10.0, 100.0)]
    weight = 2
    smoke_cells = [0, 3]
    trace_rounds = 2

    def make(self, cell, base, pert, workdir: Path, tag: str):
        n, b = cell
        ps, mu, nu = _random_pair(base, pert, n)
        return {"mu": mu, "nu": nu, "cost": lipkl.metric_cost(ps, "euclidean", b)}

    def run(self, inputs):
        return lipkl.divergence(inputs["mu"], inputs["nu"], inputs["cost"], tol=TOL)

    def reference(self, inputs, sol) -> dict:
        return {"value": sol.value}

    def check(self, inputs, sol, ref) -> list[str]:
        out = []
        if not sol.certified or not (sol.duality_gap <= TOL):
            out.append(f"uncertified: gap {sol.duality_gap!r}")
        if not (sol.dual_value <= sol.value):
            out.append("bracket out of order")
        entropy = lipkl.relative_entropy(inputs["mu"], inputs["nu"])
        if not (-TOL <= sol.dual_value <= entropy + TOL):
            out.append(f"lower bracket {sol.dual_value!r} outside [0, R = {entropy!r}]")
        if ref is not None:
            out += _bracket_failures(ref["value"], sol.value, sol.dual_value)
        return out


class Grid1D:
    """Point mass against a uniform grid; dense n x n work, one-row transport."""

    name = "grid-1d"
    entry = "asymptotics.point_vs_uniform_benchmark"
    cells = [(g, b) for g in (1000, 2000, 3000) for b in (0.1, 1.0, 10.0, 100.0)]
    weight = 1
    smoke_cells = [1]
    trace_rounds = 1

    def make(self, cell, base, pert, workdir: Path, tag: str):
        grid, b = cell
        scale = b * math.exp(base.uniform(-0.1, 0.1) + EPS * pert.uniform(-1.0, 1.0))
        return {"scale": scale, "grid": grid + int(base.integers(0, 50))}

    def run(self, inputs):
        return lipkl.point_vs_uniform_benchmark(inputs["scale"], inputs["grid"], tol=TOL)

    def reference(self, inputs, rep) -> dict:
        return {"value": rep.value}

    def check(self, inputs, rep, ref) -> list[str]:
        b, n = inputs["scale"], inputs["grid"]
        out = []
        if not (rep.duality_gap <= TOL):
            out.append(f"uncertified: gap {rep.duality_gap!r}")
        dual = rep.value - rep.duality_gap
        # The exact value on the midpoint grid: -log of the mean of e^{-b y}.
        y = (np.arange(1, n + 1) - 0.5) / n
        exact = -math.log(float(np.mean(np.exp(-b * y))))
        out += _bracket_failures(exact, rep.value, dual)
        # Midpoint rule: 0 <= log(I / I_n) <= b^2 / (24 n^2) * e^{b / (2n)}.
        discretization = b * b / (24.0 * n * n) * math.exp(b / (2.0 * n))
        if not (abs(rep.value - rep.closed_form) <= discretization + TOL):
            out.append(f"closed-form error {abs(rep.value - rep.closed_form)!r} "
                       f"exceeds the grid's {discretization!r}")
        if ref is not None:
            out += _bracket_failures(ref["value"], rep.value, dual)
        return out


def _band_kernel(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """Row x spreads Dirichlet mass over the states x+lo .. x+hi that exist."""
    m = np.zeros((n, n))
    for x in range(n):
        cols = [y for y in range(x + lo, x + hi + 1) if 0 <= y < n]
        m[x, cols] = rng.dirichlet(np.full(len(cols), 5.0))
    return m


class Markov12:
    """Ergodic bounds on 12-state banded kernels whose alternative is shifted."""

    name = "markov-12"
    entry = "markov_uq.ergodic_bound"
    cells = [1.0, 3.0]
    weight = 4
    smoke_cells = [0]
    trace_rounds = 6
    states = 12

    def make(self, scale, base, pert, workdir: Path, tag: str):
        n = self.states
        coords = _perturb(np.arange(n) + base.uniform(-0.2, 0.2, n), pert)
        states = lipkl.PointSet(tuple((float(x),) for x in coords))
        cost = lipkl.metric_cost(states, "euclidean", scale)
        p = lipkl.FiniteKernel(states, _perturb_weights(_band_kernel(base, n, -2, 2), pert), cost)
        q = lipkl.FiniteKernel(states, _perturb_weights(_band_kernel(base, n, -1, 3), pert), cost)
        # Shrinking a projected Lipschitz potential keeps it strictly inside
        # the class, so f is representable under p with room to spare.
        raw = _perturb(base.normal(0.0, 2.0, n), pert)
        g = 0.9 * lipkl.project_lipschitz(raw, cost).values
        f = lipkl.risk_map(p, g, float(_perturb(base.uniform(-1.0, 1.0), pert)))
        return {"p": p, "q": q, "f": f}

    def run(self, inputs):
        return lipkl.ergodic_bound(inputs["p"], inputs["q"], inputs["f"])

    def reference(self, inputs, rep) -> dict:
        return {"classes": [[cb.lhs, cb.rhs] for cb in rep.class_bounds]}

    def check(self, inputs, rep, ref) -> list[str]:
        out = []
        q = inputs["q"].matrix
        for cb in rep.class_bounds:
            if not cb.holds:
                out.append(f"bound fails on class {cb.states}: {cb.lhs!r} > {cb.rhs!r}")
            pi = cb.stationary
            if not (abs(pi.sum() - 1.0) <= 1e-9 and np.abs(pi @ q - pi).sum() <= 1e-9):
                out.append(f"class {cb.states}: not a stationary distribution of q")
            if abs(float(inputs["f"] @ pi) - cb.lhs) > 1e-12 * (1.0 + abs(cb.lhs)):
                out.append(f"class {cb.states}: lhs is not f . pi")
        if ref is not None:
            got = [[cb.lhs, cb.rhs] for cb in rep.class_bounds]
            if len(got) != len(ref["classes"]) or any(
                    abs(a - b) > 1e-8 for g, r in zip(got, ref["classes"]) for a, b in zip(g, r)):
                out.append(f"class bounds {got!r} differ from reference {ref['classes']!r}")
        return out


class SweepCLI:
    """`lipkl sweep --mode entropy` in-process on 2-D JSON measures."""

    name = "sweep-cli"
    entry = "cli.main"
    cells = [12, 14]
    weight = 2
    smoke_cells = [0]
    trace_rounds = 1
    scales = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)

    def make(self, n, base, pert, workdir: Path, tag: str):
        ps, mu, nu = _random_pair(base, pert, n)
        inputs = {"mu": mu, "nu": nu, "points": ps, "out": workdir / f"{tag}-out.csv"}
        for key, m in (("mu", mu), ("nu", nu)):
            path = inputs[key + "_path"] = workdir / f"{tag}-{key}.json"
            path.write_text(json.dumps({"points": [list(x) for x in ps.points],
                                        "weights": m.weights.tolist()}))
        return inputs

    def run(self, inputs):
        argv = ["sweep", "--mu", str(inputs["mu_path"]), "--nu", str(inputs["nu_path"]),
                "--cost", "euclidean", "--mode", "entropy",
                "--scales", ",".join(repr(s) for s in self.scales),
                "--out", str(inputs["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def _rows(inputs) -> list[list[float]]:
        with open(inputs["out"], newline="") as fh:
            rows = list(csv.reader(fh))
        return [[float(x) for x in row] for row in rows[1:]]

    def reference(self, inputs, code) -> dict:
        return {"values": [row[1] for row in self._rows(inputs)]}

    def check(self, inputs, code, ref) -> list[str]:
        if code != cli.EXIT_OK:
            return [f"exit code {code}"]
        rows = self._rows(inputs)
        scales = [r[0] for r in rows]
        values = [r[1] for r in rows]
        if scales != list(self.scales):
            return [f"scales {scales!r} != {list(self.scales)!r}"]
        out = []
        entropy = lipkl.relative_entropy(inputs["mu"], inputs["nu"])
        unit = lipkl.metric_cost(inputs["points"], "euclidean", 1.0)
        transport = lipkl.transport_cost(inputs["mu"], inputs["nu"], unit).value
        if any(abs(r[2] - entropy) > 1e-12 * (1.0 + entropy) for r in rows):
            out.append("reference column is not R(mu || nu)")
        if any(b < a for a, b in zip(values, values[1:])):
            out.append(f"values not monotone: {values!r}")
        for s, v in zip(scales, values):
            if not (-TOL <= v <= min(entropy, s * transport) + TOL):
                out.append(f"value {v!r} at scale {s} outside [0, min(R, b W)]")
        if ref is not None:
            # Both are certified lower brackets within tol of the same value.
            if any(abs(a - b) > 2 * TOL for a, b in zip(values, ref["values"])):
                out.append(f"values {values!r} differ from reference {ref['values']!r}")
        return out


WORKLOADS = {w.name: w for w in (Solve2D(), Grid1D(), Markov12(), SweepCLI())}
