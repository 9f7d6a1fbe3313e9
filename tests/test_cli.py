import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import lipkl
from lipkl import risk_map
from lipkl.cli import EXIT_IO, EXIT_OK, EXIT_UNCERTIFIED, EXIT_VALIDATION, main
from lipkl.markov_uq import load_kernel


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def fixtures(tmp_path):
    files = {}

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        files[name] = str(path)

    write("mu.json", {"points": [[0.0]], "weights": [1.0]})
    write("nu.json", {"points": [[0.25], [0.75]], "weights": [0.5, 0.5]})
    write("mu2.json", {"points": [[0.25], [0.75]], "weights": [0.6, 0.4]})
    write("rho.json", {"points": [[0.25], [0.75]], "weights": [0.5, -0.5]})
    write("pkernel.json", {
        "states": [[0.0], [1.0], [2.0]],
        "P": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]],
        "cost": {"metric": "euclidean", "scale_b": 1.0},
    })
    write("qkernel.json", {
        "states": [[0.0], [1.0], [2.0]],
        "P": [[0.0, 0.9, 0.1], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
        "cost": {"metric": "euclidean", "scale_b": 1.0},
    })
    kernel = load_kernel(files["pkernel.json"])
    f = risk_map(kernel, np.array([0.0, 0.3, -0.2]), 0.15)
    write("f.json", {"values": f.tolist()})
    files["dir"] = str(tmp_path)
    return files


def test_compute_gamma_certified(fixtures):
    code, out = run_cli(["compute", "--mu", fixtures["mu.json"],
                         "--nu", fixtures["nu.json"], "--cost", "euclidean",
                         "--scale-b", "10", "--what", "gamma"])
    assert code == EXIT_OK
    report = json.loads(out)
    cert = report["certificates"]["gamma"]
    assert cert["certified"]
    assert cert["gibbs_residual"] <= 1e-8
    assert cert["transport_residual"] <= 1e-8
    assert len(report["results"]["gamma"]["gamma_star"]) == 3


def test_compute_all_inequality(fixtures):
    code, out = run_cli(["compute", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--cost", "euclidean",
                         "--what", "all"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["inequality"]["divergence_leq_min_entropy_transport"]
    assert report["results"]["entropy"]["value"] != "inf"
    assert report["results"]["transport"]["value"] >= 0


def test_compute_uncertified_exit_code(fixtures, tmp_path):
    # Frozen 6-point instance whose optimal pair leaves a ~3e-17 residue, so
    # a 1e-300 gap target cannot be certified.
    points = [[0.542771], [0.252986], [0.280932], [0.275002], [0.803443], [0.859417]]
    w1 = [0.080835, 0.059864, 0.618318, 0.131561, 0.082693, 0.026729]
    w2 = [0.077227, 0.262654, 0.007008, 0.458888, 0.115541, 0.078682]
    mu6 = tmp_path / "mu6.json"
    nu6 = tmp_path / "nu6.json"
    mu6.write_text(json.dumps({"points": points, "weights": w1}))
    nu6.write_text(json.dumps({"points": points, "weights": w2}))
    args = ["compute", "--mu", str(mu6), "--nu", str(nu6),
            "--cost", "euclidean", "--what", "gamma",
            "--tol", "1e-300", "--max-iter", "4"]
    code, out = run_cli(args)
    assert code == EXIT_UNCERTIFIED
    report = json.loads(out)
    assert not report["certificates"]["gamma"]["certified"]
    assert report["results"]["gamma"]["duality_gap"] > 0
    code, _ = run_cli(args + ["--allow-uncertified"])
    assert code == EXIT_OK


def test_compute_grid_fixture_matches_closed_form(fixtures):
    code, out = run_cli(["benchmark", "--scale-b", "10", "--grid", "1000"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["value"] == pytest.approx(2.302630, abs=1e-2)
    assert report["results"]["error"] <= 1e-2


def test_compute_on_grid_measure_files(fixtures, tmp_path):
    n = 1000
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "points": [[(k - 0.5) / n] for k in range(1, n + 1)],
        "weights": [1.0 / n] * n,
    }))
    code, out = run_cli(["compute", "--mu", fixtures["mu.json"], "--nu", str(grid),
                         "--cost", "euclidean", "--scale-b", "10", "--what", "gamma"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["gamma"]["value"] == pytest.approx(2.302630, abs=1e-2)
    assert report["certificates"]["gamma"]["certified"]


def test_reports_are_bit_identical(fixtures):
    args = ["compute", "--mu", fixtures["mu2.json"], "--nu", fixtures["nu.json"],
            "--cost", "euclidean", "--what", "all"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_verify_round_trip(fixtures, tmp_path):
    report_path = str(tmp_path / "report.json")
    code, _ = run_cli(["compute", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", "euclidean",
                       "--scale-b", "2", "--what", "gamma",
                       "--output", report_path])
    assert code == EXIT_OK
    code, out = run_cli(["verify", "--report", report_path])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["optimal"]


def test_sweep_modes(fixtures, tmp_path):
    out_csv = str(tmp_path / "sweep.csv")
    code, _ = run_cli(["sweep", "--mu", fixtures["mu2.json"],
                       "--nu", fixtures["nu.json"], "--cost", "euclidean",
                       "--mode", "entropy", "--scales", "1,10,100",
                       "--out", out_csv])
    assert code == EXIT_OK
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scale", "value", "reference"]
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)
    reference = float(rows[1][2])
    assert values[-1] <= reference * (1 + 1e-12)
    assert abs(values[-1] - reference) <= 1e-3

    code, _ = run_cli(["sweep", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", "euclidean",
                       "--mode", "transport", "--scales", "0.001,0.01,0.1",
                       "--out", out_csv])
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scale", "value", "reference", "ratio"]
    ratios = [float(r[3]) for r in rows[1:]]
    w = float(rows[1][2])
    assert all(r <= w * (1 + 1e-12) for r in ratios)
    assert abs(ratios[0] - w) <= 1e-3

    code, _ = run_cli(["sweep", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", "euclidean",
                       "--mode", "expansion", "--scales", "10,50",
                       "--out", out_csv])
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scale", "value", "reference", "remainder"]
    assert all(float(r[3]) <= 1e-12 for r in rows[1:])


def test_derivative_command(fixtures):
    code, out = run_cli(["derivative", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--rho", fixtures["rho.json"],
                         "--cost", "euclidean", "--scale-b", "0.5"])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert abs(res["analytic"] - res["finite_diff"]) <= 1e-2 * max(1, abs(res["analytic"]))


def test_derivative_zero_direction(fixtures, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"points": [[0.25], [0.75]], "weights": [0.0, 0.0]}))
    code, out = run_cli(["derivative", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--rho", str(zero),
                         "--cost", "euclidean"])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["analytic"] == 0.0
    assert abs(res["finite_diff"]) <= 1e-9


def test_derivative_infeasible_direction_exits_3(fixtures):
    code, _ = run_cli(["derivative", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--rho", fixtures["rho.json"],
                       "--cost", "euclidean"])
    assert code == EXIT_VALIDATION


def test_markov_bound_identical_kernels(fixtures):
    code, out = run_cli(["markov", "bound", "--p", fixtures["pkernel.json"],
                         "--q", fixtures["pkernel.json"], "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["holds"]
    cls = res["classes"][0]
    assert max(abs(v) for v in cls["per_state_divergence"]) <= 1e-10
    assert cls["lhs"] <= res["growth_rate"] + 1e-10


def test_markov_bound_shifted_support(fixtures):
    code, out = run_cli(["markov", "bound", "--p", fixtures["pkernel.json"],
                         "--q", fixtures["qkernel.json"], "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["holds"]
    assert all(math.isfinite(cls["rhs"]) for cls in res["classes"])


def test_markov_membership(fixtures):
    code, out = run_cli(["markov", "membership", "--p", fixtures["pkernel.json"],
                         "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["representable"]
    np.testing.assert_allclose(res["g"], [0.0, 0.3, -0.2], atol=1e-9)
    assert res["a"] == pytest.approx(0.15, abs=1e-9)


def test_markov_gaussian(fixtures):
    code, out = run_cli(["markov", "gaussian", "--alpha", "0.5", "--sigma", "1",
                         "--quad", "0.1"])
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["b_star"] == 0.25 and res["k_star"] == 0.125
    assert res["risk_quadratic"]["quadratic"] == pytest.approx(0.06875, abs=1e-15)
    assert res["representable"]


def test_missing_file_exits_2(fixtures):
    code, _ = run_cli(["compute", "--mu", fixtures["dir"] + "/absent.json",
                       "--nu", fixtures["nu.json"], "--cost", "euclidean"])
    assert code == EXIT_IO


def test_invalid_cost_exits_3(fixtures, tmp_path):
    bad = tmp_path / "bad_cost.json"
    bad.write_text(json.dumps({"matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
    code, _ = run_cli(["compute", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", str(bad)])
    assert code == EXIT_VALIDATION


def test_console_entry_point(fixtures):
    # the child must import the same lipkl as this process, which may come
    # from pytest's pythonpath setting rather than an installed package
    package_root = str(Path(lipkl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lipkl.cli", "markov", "gaussian",
         "--alpha", "0.5", "--sigma", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["k_star"] == 0.125
