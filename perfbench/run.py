"""lipkl benchmark: certified-solve wall time per workload, split by module.

Run from the repository root:

    python3 perfbench/run.py --workload solve-2d --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run sets up (``import lipkl`` and input generation)
in this process and in four fresh ones, then certifies ops in a closed loop,
one at a time, round after round (each round is the op set, perturbed
afresh; see ``workloads.py``), until ``--seconds`` have passed and at
least ``MIN_ROUNDS`` rounds are complete. After every op it times one pass
of a fixed kernel that is not lipkl's, the ``yardstick``. It prints the
end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: time to certify the workload's op set once, at the reference
  host speed: the sum over its ops of each op's mean time over the rounds
  of this run, divided by the host factor, the yardstick's mean time over
  the same run divided by ``YARDSTICK_REF_S``. On a shared 2-core VM the
  host's speed swings by up to half in phases of tens of seconds, in user
  CPU time as much as in wall time, and the yardstick slows with it: over
  five runs of 25 s per workload the measured sum spread (quartile
  distance over median) by 11-37%, the sum divided by the host factor by
  4-8%. The measured sum and the host factor are printed and recorded
  beside it;
- ``setup_s``: median set-up time over the five set-ups, as measured;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run executes a fixed op list (the workload's first
``trace_rounds`` rounds) twice, untraced and then traced, and prints the
per-layer metrics of ``BENCHMARK.json`` (see ``spans.py``). Every op is
checked in both modes (``workloads.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and per-op details go to ``perfbench/out/``.

``--smoke`` restricts a run to each workload's cheapest cells; ``smoke.py``
uses it. ``--write-references N`` stores the values of the first N rounds at
the default seed in ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# The yardstick's time at the reference host speed, a round figure for the
# 2-core VM the baseline was measured on (2.3-3.2 ms there).
YARDSTICK_REF_S = 0.003


def import_library():
    """Import lipkl from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lipkl
    if Path(lipkl.__file__).resolve().parent != (src / "lipkl").resolve():
        raise ImportError(f"lipkl imported from {lipkl.__file__}, not from {src}")
    import workloads
    return workloads


def setup(name: str, seed: int, smoke: bool, workdir: Path):
    """Import the library and generate round 0 of the workload's inputs.

    Returns the seconds this took, the workloads module, the workload, the
    op slots ``(cell, instance)`` to run and round 0's inputs by slot.
    """
    start = time.perf_counter()
    workloads = import_library()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    slots = ([(ci, 0) for ci in wl.smoke_cells] if smoke else
             [(ci, j) for ci in range(len(wl.cells)) for j in range(wl.weight)])
    round0 = {slot: generate(workloads, wl, seed, 0, slot, workdir) for slot in slots}
    return time.perf_counter() - start, workloads, wl, slots, round0


def generate(workloads, wl, seed: int, r: int, slot, workdir: Path):
    ci, j = slot
    base, pert = workloads.instance_rngs(seed, r, ci, j)
    return wl.make(wl.cells[ci], base, pert, workdir, f"r{r}c{ci}i{j}")


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    src = sorted((ROOT / "src" / "lipkl").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "GAMMA_DIV_THREADS": os.environ.get("GAMMA_DIV_THREADS"),
        "src_lipkl_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_references(name: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text()).get(name, {})


class Op:
    def __init__(self, round_index: int, slot: tuple[int, int], inputs):
        self.round = round_index
        self.slot = slot
        self.key = f"r{round_index}c{slot[0]}i{slot[1]}"
        self.inputs = inputs
        self.result = None
        self.seconds = 0.0
        self.errors: list[str] = []

    def execute(self, wl, call=None) -> None:
        start = time.perf_counter()
        try:
            self.result = (call or wl.run)(self.inputs)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
        self.seconds = time.perf_counter() - start


def check(wl, ops: list[Op], refs: dict) -> None:
    for op in ops:
        if op.errors:
            continue
        try:
            op.errors += wl.check(op.inputs, op.result, refs.get(op.key))
        except Exception:
            op.errors.append(traceback.format_exc(limit=3))


def make_op(workloads, wl, seed, r, slot, workdir, round0) -> Op:
    inputs = round0[slot] if r == 0 else generate(workloads, wl, seed, r, slot, workdir)
    return Op(r, slot, inputs)


def yardstick() -> float:
    """Seconds of one pass of a fixed kernel that is not lipkl's code.

    Small numpy operations in a Python loop, like the solver's inner loops,
    so a slow phase of the host slows it as it slows the ops. Timed after
    every op, it gives the host's speed over the same seconds as the ops.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 196).reshape(14, 14) ** 2
    start = time.perf_counter()
    for _ in range(150):
        u = a.min(axis=1)
        v = (a - u[:, None]).min(axis=0)
        reduced = a - u[:, None] - v[None, :]
        np.argwhere(reduced < 0.05)
    return time.perf_counter() - start


def timed_loop(workloads, wl, args, slots, workdir, round0) -> tuple[list[Op], list[float]]:
    """Closed loop, one op at a time, each followed by a yardstick pass,
    until the time is up and ``MIN_ROUNDS`` rounds are complete."""
    ops: list[Op] = []
    yards: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        for slot in slots:
            if r >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                return ops, yards
            op = make_op(workloads, wl, args.seed, r, slot, workdir, round0)
            op.execute(wl)
            ops.append(op)
            yards.append(yardstick())
        r += 1


def end_to_end(workloads, wl, args, slots, workdir, round0, setup_s):
    setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    ops, yards = timed_loop(workloads, wl, args, slots, workdir, round0)
    times = {slot: [op.seconds for op in ops if op.slot == slot] for slot in slots}
    host = statistics.fmean(yards) / YARDSTICK_REF_S
    measured = sum(statistics.fmean(t) for t in times.values())
    metrics = {
        "wall_s": measured / host,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"setup_samples": setups, "rounds": 1 + max(op.round for op in ops),
               "host_factor": host, "measured_wall_s": measured, "yardstick_s": yards,
               "op_means": {f"c{ci}i{j}": statistics.fmean(t) for (ci, j), t in times.items()}}
    return metrics, ops, details


def traced(workloads, wl, args, slots, workdir, round0):
    import spans

    fixed = [make_op(workloads, wl, args.seed, r, slot, workdir, round0)
             for r in range(wl.trace_rounds) for slot in slots]
    # One untimed op first, so neither pass pays first-call costs.
    Op(0, slots[0], round0[slots[0]]).execute(wl)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    for op in fixed:
        op.execute(wl)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    plain = sum(op.seconds for op in fixed)

    tracer = spans.Tracer()
    again = [Op(op.round, op.slot, op.inputs) for op in fixed]
    info = spans.ENTRY_INFO.get(wl.entry)
    tracer.install()
    try:
        for i, op in enumerate(again):
            tracer.op = i
            op.execute(wl, lambda inputs: tracer.call(wl.entry, "bench", wl.run, (inputs,),
                                                      info=info))
    finally:
        tracer.uninstall()
    overhead = sum(op.seconds for op in again) / plain - 1.0

    walls = {i: op.seconds for i, op in enumerate(again) if not op.errors}
    completed = [s for s in tracer.spans if s.op in walls]
    metrics = spans.layer_metrics(completed)
    metrics["cpu_s"] = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    metrics["trace_overhead"] = overhead
    accounting = spans.accounting_errors(completed, walls, max(overhead, 0.0))
    details = {"accounting_errors": accounting, "op_walls": walls,
               "spans": [vars(s) for s in tracer.spans]}
    return metrics, fixed + again, details


def write_references(workloads, wl, args, slots, workdir, round0) -> None:
    ops = [make_op(workloads, wl, args.seed, r, slot, workdir, round0)
           for r in range(args.write_references) for slot in slots]
    for op in ops:
        op.execute(wl)
    check(wl, ops, {})
    bad = [op.key for op in ops if op.errors]
    if bad:
        raise SystemExit(f"not storing references: ops {bad} failed")
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    stored[wl.name] = {op.key: wl.reference(op.inputs, op.result) for op in ops}
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(ops)} references for {wl.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-references", type=int, default=0, metavar="ROUNDS")
    args = parser.parse_args()

    if args.write_references and (args.seed != DEFAULT_SEED or args.smoke):
        parser.error("references cover the whole op set at the default seed only")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    try:
        setup_s, workloads, wl, slots, round0 = setup(args.workload, args.seed, args.smoke, workdir)
    except ImportError as exc:
        print(f"cannot import lipkl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.write_references:
        write_references(workloads, wl, args, slots, workdir, round0)
        return 0

    if args.trace:
        metrics, ops, details = traced(workloads, wl, args, slots, workdir, round0)
        units = metric_units("per_layer")
    else:
        metrics, ops, details = end_to_end(workloads, wl, args, slots, workdir, round0, setup_s)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    check(wl, ops, load_references(wl.name, args.seed))
    failed = [op for op in ops if op.errors]
    correct = not failed and not details.get("accounting_errors")

    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke, "environment": env,
              "metrics": metrics, "attempted": len(ops), "failed": len(failed),
              "failures": {op.key: op.errors for op in failed},
              "op_seconds": {f"{op.key}/{i}": op.seconds for i, op in enumerate(ops)}, **details}
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"{wl.name} seed {args.seed}: {len(ops)} ops, {len(failed)} failed; details in {out}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    if "host_factor" in details:
        print(f"  {'measured op-set time':34s} {details['measured_wall_s']:.6g} s "
              f"at host factor {details['host_factor']:.6g}")
    print(f"  {'failed_frac':34s} {len(failed) / len(ops):.6g} ratio")
    for op in failed[:5]:
        print(f"  FAILED {op.key}: {op.errors[0].strip().splitlines()[-1]}")
    for err in details.get("accounting_errors", [])[:5]:
        print(f"  ACCOUNTING {err}")
    print("  environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
