import csv
import hashlib
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
from lipkl.cli import EXIT_IO, EXIT_OK, EXIT_UNCERTIFIED, EXIT_VALIDATION, build_parser, main
from lipkl.markov_uq import load_kernel


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def parse_report(text):
    """A report read as strict JSON: Infinity, -Infinity and NaN raise."""
    return json.loads(text, parse_constant=_reject_constant)


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
    report = parse_report(out)
    cert = report["certificates"]["gamma"]
    assert cert["certified"]
    assert cert["gibbs_residual"] <= 1e-8
    assert cert["transport_residual"] <= 1e-8
    assert len(report["results"]["gamma"]["gamma_star"]) == 3


def test_compute_include_plan(fixtures):
    argv = ["compute", "--mu", fixtures["mu.json"], "--nu", fixtures["nu.json"],
            "--cost", "euclidean", "--scale-b", "10", "--what", "gamma"]
    code, out = run_cli(argv)
    assert code == EXIT_OK
    assert "plan" not in parse_report(out)["results"]["gamma"]
    code, out = run_cli(argv + ["--include-plan"])
    assert code == EXIT_OK
    report = parse_report(out)
    gamma = report["results"]["gamma"]
    plan = np.array(gamma["plan"])
    n = len(report["inputs"]["points"])
    assert plan.shape == (n, n)
    assert np.abs(plan.sum(axis=1) - report["inputs"]["mu"]).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - gamma["gamma_star"]).max() <= 1e-12


def test_compute_all_inequality(fixtures):
    code, out = run_cli(["compute", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--cost", "euclidean",
                         "--what", "all"])
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["results"]["inequality"]["divergence_leq_min_entropy_transport"]
    assert report["results"]["entropy"]["value"] != "inf"
    assert report["results"]["transport"]["value"] >= 0
    # mu's point carries no mass of nu: the entropy is infinite, written "inf".
    code, out = run_cli(["compute", "--mu", fixtures["mu.json"],
                         "--nu", fixtures["nu.json"], "--cost", "euclidean",
                         "--what", "all"])
    assert code == EXIT_OK
    res = parse_report(out)["results"]
    assert res["entropy"]["value"] == "inf"
    assert res["inequality"]["min_entropy_transport"] == res["transport"]["value"]
    assert res["inequality"]["divergence_leq_min_entropy_transport"]


def test_compute_uncertified_exit_code(fixtures, tmp_path):
    # Frozen 2-point instance whose gap at b = 10 stays at 2.2e-16, so a
    # 1e-300 gap target cannot be certified.
    points = [[0.641], [0.129]]
    mu2 = tmp_path / "mu2.json"
    nu2 = tmp_path / "nu2.json"
    mu2.write_text(json.dumps({"points": points,
                               "weights": [0.2572696155722992, 0.7427303844277007]}))
    nu2.write_text(json.dumps({"points": points,
                               "weights": [0.8998138964965713, 0.10018610350342855]}))
    args = ["compute", "--mu", str(mu2), "--nu", str(nu2),
            "--cost", "euclidean", "--scale-b", "10", "--what", "gamma",
            "--tol", "1e-300", "--max-iter", "4"]
    code, out = run_cli(args)
    assert code == EXIT_UNCERTIFIED
    report = parse_report(out)
    assert not report["certificates"]["gamma"]["certified"]
    assert report["results"]["gamma"]["duality_gap"] > 0
    code, _ = run_cli(args + ["--allow-uncertified"])
    assert code == EXIT_OK


def test_compute_grid_fixture_matches_closed_form(fixtures):
    code, out = run_cli(["benchmark", "--scale-b", "10", "--grid", "1000"])
    assert code == EXIT_OK
    report = parse_report(out)
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
    report = parse_report(out)
    assert report["results"]["gamma"]["value"] == pytest.approx(2.302630, abs=1e-2)
    assert report["certificates"]["gamma"]["certified"]


def test_reports_are_bit_identical(fixtures):
    args = ["compute", "--mu", fixtures["mu2.json"], "--nu", fixtures["nu.json"],
            "--cost", "euclidean", "--what", "all"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_verify_round_trip(fixtures, tmp_path):
    report_path = tmp_path / "report.json"
    code, _ = run_cli(["compute", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", "euclidean",
                       "--scale-b", "2", "--what", "gamma",
                       "--output", str(report_path)])
    assert code == EXIT_OK
    code, out = run_cli(["verify", "--report", str(report_path)])
    assert code == EXIT_OK
    saved = parse_report(report_path.read_text())
    assert parse_report(out)["results"]["optimal"]
    assert parse_report(out)["inputs_digest"] == saved["inputs_digest"]
    # Edit nu in the saved report: the verify report digests the inputs it
    # checked, not the saved ones.
    saved["inputs"]["nu"] = [0.6, 0.4, 0.0]
    report_path.write_text(json.dumps(saved))
    _, out = run_cli(["verify", "--report", str(report_path)])
    edited = hashlib.sha256(json.dumps(saved["inputs"], sort_keys=True).encode()).hexdigest()
    assert edited != saved["inputs_digest"]
    assert parse_report(out)["inputs_digest"] == edited


def test_compute_and_verify_on_composite_labels(tmp_path):
    # Points that mix strings and numbers are labels; their cost is an
    # explicit matrix.
    points = [["a", 1], ["b", 2]]
    files = {"mu": {"points": points, "weights": [0.3, 0.7]},
             "nu": {"points": points, "weights": [0.6, 0.4]},
             "cost": {"matrix": [[0.0, 1.0], [1.0, 0.0]], "scale_b": 2}}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    report_path = str(tmp_path / "report.json")
    code, _ = run_cli(["compute", "--mu", str(tmp_path / "mu.json"),
                       "--nu", str(tmp_path / "nu.json"), "--cost", str(tmp_path / "cost.json"),
                       "--what", "all", "--output", report_path])
    assert code == EXIT_OK
    with open(report_path) as fh:
        assert parse_report(fh.read())["inputs"]["points"] == points
    code, out = run_cli(["verify", "--report", report_path])
    assert code == EXIT_OK
    assert parse_report(out)["results"]["optimal"]


def test_scale_b_flag_overrides_a_cost_file(fixtures, tmp_path):
    matrix = [[0.0, 0.5, 0.25], [0.5, 0.0, 0.75], [0.25, 0.75, 0.0]]
    outs = []
    for scale_b, flag in [(2, ["--scale-b", "3"]), (3, [])]:
        cost = tmp_path / f"cost{scale_b}.json"
        cost.write_text(json.dumps({"matrix": matrix, "scale_b": scale_b}))
        code, out = run_cli(["compute", "--mu", fixtures["mu.json"], "--nu", fixtures["nu.json"],
                             "--cost", str(cost), "--what", "all", *flag])
        assert code == EXIT_OK
        outs.append(out)
    assert parse_report(outs[0])["inputs"]["scale_b"] == 3.0
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("mode", ["entropy", "expansion"])
def test_sweep_with_an_uncertified_scale_exits_1_and_writes_the_row(tmp_path, mode):
    # At b = 10 this pair's gap stays at 2.2e-16 after 100 000 iterations,
    # so no 1e-300 target is met. The sweep used to exit 0.
    points = [[0.641], [0.129]]
    for name, weights in (("mu", [0.2572696155722992, 0.7427303844277007]),
                          ("nu", [0.8998138964965713, 0.10018610350342855])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"points": points,
                                                           "weights": weights}))
    out_csv = tmp_path / "sweep.csv"
    code, out = run_cli(["sweep", "--mu", str(tmp_path / "mu.json"),
                         "--nu", str(tmp_path / "nu.json"), "--cost", "euclidean",
                         "--mode", mode, "--scales", "10", "--tol", "1e-300",
                         "--out", str(out_csv)])
    assert code == EXIT_UNCERTIFIED
    assert out == f"wrote 1 rows to {out_csv}\n"
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and float(rows[1][0]) == 10.0


def test_derivative_command(fixtures):
    code, out = run_cli(["derivative", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--rho", fixtures["rho.json"],
                         "--cost", "euclidean", "--scale-b", "0.5"])
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["config"] == {"epsilon": 1e-4}
    res = report["results"]
    assert abs(res["analytic"] - res["finite_diff"]) <= 1e-2 * max(1, abs(res["analytic"]))


def test_derivative_zero_direction(fixtures, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"points": [[0.25], [0.75]], "weights": [0.0, 0.0]}))
    code, out = run_cli(["derivative", "--mu", fixtures["mu2.json"],
                         "--nu", fixtures["nu.json"], "--rho", str(zero),
                         "--cost", "euclidean"])
    assert code == EXIT_OK
    res = parse_report(out)["results"]
    assert res["analytic"] == 0.0
    assert abs(res["finite_diff"]) <= 1e-9


def test_derivative_sums_a_repeated_rho_point(fixtures, tmp_path):
    rho = tmp_path / "rho_repeated.json"
    rho.write_text(json.dumps({"points": [[0.0], [0.25], [0.25]],
                               "weights": [-0.5, 0.25, 0.25]}))
    code, out = run_cli(["derivative", "--mu", fixtures["mu.json"],
                         "--nu", fixtures["nu.json"], "--rho", str(rho),
                         "--cost", "euclidean", "--scale-b", "10"])
    assert code == EXIT_OK
    assert parse_report(out)["inputs"]["rho"] == [0.5, 0.0, -0.5]


def test_derivative_infeasible_direction_exits_3(fixtures):
    code, _ = run_cli(["derivative", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--rho", fixtures["rho.json"],
                       "--cost", "euclidean"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("epsilon", ["0", "-1e-4", "nan"])
def test_derivative_rejects_an_epsilon_that_is_not_positive_and_finite(
        fixtures, tmp_path, epsilon):
    rho = tmp_path / "rho_feasible.json"
    rho.write_text(json.dumps({"points": [[0.0], [0.25]], "weights": [-0.5, 0.5]}))
    code, _ = run_cli(["derivative", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--rho", str(rho),
                       "--cost", "euclidean", "--scale-b", "10", f"--epsilon={epsilon}"])
    assert code == EXIT_VALIDATION


def test_markov_bound_identical_kernels(fixtures):
    code, out = run_cli(["markov", "bound", "--p", fixtures["pkernel.json"],
                         "--q", fixtures["pkernel.json"], "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    report = parse_report(out)
    assert report["config"] == {}
    res = report["results"]
    assert res["holds"]
    cls = res["classes"][0]
    assert max(abs(v) for v in cls["per_state_divergence"]) <= 1e-10
    assert cls["lhs"] <= res["growth_rate"] + 1e-10


def test_markov_bound_shifted_support(fixtures):
    code, out = run_cli(["markov", "bound", "--p", fixtures["pkernel.json"],
                         "--q", fixtures["qkernel.json"], "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    res = parse_report(out)["results"]
    assert res["holds"]
    assert all(math.isfinite(cls["rhs"]) for cls in res["classes"])


def test_markov_membership(fixtures):
    code, out = run_cli(["markov", "membership", "--p", fixtures["pkernel.json"],
                         "--f", fixtures["f.json"]])
    assert code == EXIT_OK
    res = parse_report(out)["results"]
    assert res["representable"]
    np.testing.assert_allclose(res["g"], [0.0, 0.3, -0.2], atol=1e-9)
    assert res["a"] == pytest.approx(0.15, abs=1e-9)
    # Two recurrent classes leave the Newton inverse without a solution: its
    # residual and Lipschitz excess are infinite, and the report used to
    # print them as Infinity, which is not JSON.
    kernel = Path(fixtures["dir"]) / "two_classes.json"
    kernel.write_text(json.dumps({"states": [[0.0], [1.0], [2.0]],
                                  "P": [[1, 0, 0], [0, 1, 0], [0.5, 0, 0.5]],
                                  "cost": {"metric": "euclidean"}}))
    code, out = run_cli(["markov", "membership", "--p", str(kernel),
                         "--f", fixtures["f.json"]])
    assert code == EXIT_UNCERTIFIED
    report = parse_report(out)
    assert report["certificates"] == {"lipschitz_excess": "inf", "residual": "inf"}
    assert not report["results"]["representable"]
    assert report["results"]["jacobian_rank"] == 2


def test_markov_gaussian(fixtures):
    code, out = run_cli(["markov", "gaussian", "--alpha", "0.5", "--sigma", "1",
                         "--quad", "0.1"])
    assert code == EXIT_OK
    res = parse_report(out)["results"]
    assert res["b_star"] == 0.25 and res["k_star"] == 0.125
    assert res["risk_quadratic"]["quadratic"] == pytest.approx(0.06875, abs=1e-15)
    assert res["representable"]
    # At sigma = 1e7 the search interval in b was inverted, and the report
    # printed search_k as -Infinity.
    code, out = run_cli(["markov", "gaussian", "--alpha", "0.5", "--sigma", "1e7"])
    assert code == EXIT_OK
    report = parse_report(out)
    res = report["results"]
    assert abs(res["search_k"] - res["k_star"]) <= 1e-12 * res["k_star"]
    assert report["certificates"]["golden_section_error"] <= 1e-12 * res["k_star"]


def test_markov_gaussian_digest_covers_the_quadratic():
    def digest(*flags):
        code, out = run_cli(["markov", "gaussian", "--alpha", "0.5", "--sigma", "1"] + list(flags))
        assert code == EXIT_OK
        return parse_report(out)["inputs_digest"]

    # --lin and --growth change risk_quadratic, so they must change the
    # digest; the digest used to cover alpha and sigma alone.
    base = digest("--quad", "0.1")
    assert len({base, digest("--quad", "0.1", "--lin", "0.2"),
                digest("--quad", "0.1", "--growth", "0.3"), digest("--quad", "0.2")}) == 4
    assert base == digest("--quad", "0.1", "--lin", "0", "--growth", "0")
    # Without --quad the digest is the one of alpha and sigma, as before.
    assert digest() == digest("--lin", "0.2") != base


def test_markov_flags_go_after_the_subcommand(fixtures):
    gaussian = ["gaussian", "--alpha", "0.5", "--sigma", "1"]
    code, out = run_cli(["markov"] + gaussian + ["--timing"])
    assert code == EXIT_OK
    assert "timing_s" in parse_report(out)
    # Given before the subcommand, the flag used to be overwritten by the
    # subcommand's default without a word.
    with pytest.raises(SystemExit) as exc:
        run_cli(["markov", "--timing"] + gaussian)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compute", "--mu", "@mu.json", "--nu", "@nu.json", "--cost", "euclidean"],
    ["verify", "--report", "@report.json"],
    ["derivative", "--mu", "@mu2.json", "--nu", "@nu.json", "--rho", "@rho.json",
     "--cost", "euclidean", "--scale-b", "0.5"],
    ["markov", "bound", "--p", "@pkernel.json", "--q", "@qkernel.json", "--f", "@f.json"],
    ["markov", "membership", "--p", "@pkernel.json", "--f", "@f.json"],
    ["markov", "gaussian", "--alpha", "0.5", "--sigma", "1", "--quad", "0.1"],
    ["benchmark", "--scale-b", "1", "--grid", "100"],
])
def test_every_json_report_honours_timing_and_output(fixtures, tmp_path, argv):
    saved = str(tmp_path / "report.json")
    code, _ = run_cli(["compute", "--mu", fixtures["mu.json"], "--nu", fixtures["nu.json"],
                       "--cost", "euclidean", "--output", saved])
    assert code == EXIT_OK
    paths = {**fixtures, "report.json": saved}
    argv = [paths[arg[1:]] if arg.startswith("@") else arg for arg in argv]
    code, plain = run_cli(argv)
    assert code == EXIT_OK
    code, out = run_cli(argv + ["--timing"])
    assert code == EXIT_OK
    timed = parse_report(out)
    assert timed.pop("timing_s") > 0
    assert timed == parse_report(plain)
    written = tmp_path / "written.json"
    code, out = run_cli(argv + ["--output", str(written)])
    assert code == EXIT_OK
    assert out == ""
    assert written.read_text() == plain


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--mode", "entropy", "--scales", "1", "--out", "o.csv"], ["--max-iter", "5"]),
    (["sweep", "--mode", "entropy", "--scales", "1", "--out", "o.csv"], ["--timing"]),
    (["sweep", "--mode", "entropy", "--scales", "1", "--out", "o.csv"], ["--output", "r.json"]),
    (["derivative", "--rho", "r.json"], ["--tol", "1e-3"]),
    (["derivative", "--rho", "r.json"], ["--max-iter", "5"]),
    (["markov", "bound", "--p", "p.json", "--q", "q.json", "--f", "f.json"], ["--tol", "1e-3"]),
    (["markov", "membership", "--p", "p.json", "--f", "f.json"], ["--tol", "1e-3"]),
    (["markov", "gaussian", "--alpha", "0.5", "--sigma", "1"], ["--max-iter", "5"]),
    (["verify", "--report", "r.json"], ["--max-iter", "5"]),
    (["benchmark"], ["--max-iter", "5"]),
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, flag):
    if argv[0] in ("sweep", "derivative"):
        argv = argv + ["--mu", "mu.json", "--nu", "nu.json", "--cost", "euclidean"]
    parser = build_parser()
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + flag)
    assert exc.value.code == 2


def test_parser_is_built_once_and_parses_into_fresh_namespaces():
    # main used to rebuild the whole argparse tree on every call.
    assert build_parser() is build_parser()
    compute = build_parser().parse_args(
        ["compute", "--mu", "mu.json", "--nu", "nu.json", "--cost", "euclidean", "--tol", "1e-3"])
    bench = build_parser().parse_args(["benchmark", "--grid", "20"])
    assert compute is not bench
    assert (compute.command, compute.tol, compute.mu) == ("compute", 1e-3, "mu.json")
    assert (bench.command, bench.tol, bench.grid) == ("benchmark", 1e-8, 20)
    assert not hasattr(bench, "mu") and not hasattr(compute, "grid")


def test_rejected_flag_leaves_the_next_call_unaffected(fixtures):
    args = ["compute", "--mu", fixtures["mu.json"], "--nu", fixtures["nu.json"],
            "--cost", "euclidean", "--scale-b", "10"]
    code, first = run_cli(args)
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--epsilon", "0.1"])
    assert exc.value.code == 2
    assert run_cli(args) == (code, first) and code == EXIT_OK


def test_missing_file_exits_2(fixtures):
    code, _ = run_cli(["compute", "--mu", fixtures["dir"] + "/absent.json",
                       "--nu", fixtures["nu.json"], "--cost", "euclidean"])
    assert code == EXIT_IO


@pytest.mark.parametrize("argv", [
    ["compute", "--mu", "@missing.json", "--nu", "@nu.json", "--cost", "euclidean"],
    ["compute", "--mu", "@mu.json", "--nu", "@nu.json", "--cost", "@missing-cost.json"],
    ["markov", "bound", "--p", "@missing.json", "--q", "@pkernel.json", "--f", "@f.json"],
])
def test_missing_file_is_named(fixtures, capsys, argv):
    # Each used to be read as JSON text: "Expecting value: line 1 column 1".
    args = [fixtures.get(arg[1:], f"{fixtures['dir']}/{arg[1:]}") if arg.startswith("@") else arg
            for arg in argv]
    code, _ = run_cli(args)
    assert code == EXIT_IO
    missing = next(f"{fixtures['dir']}/{arg[1:]}" for arg in argv if arg.startswith("@missing"))
    assert f"No such file or directory: {missing!r}" in capsys.readouterr().err


def test_invalid_cost_exits_3(fixtures, tmp_path):
    bad = tmp_path / "bad_cost.json"
    bad.write_text(json.dumps({"matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
    code, _ = run_cli(["compute", "--mu", fixtures["mu.json"],
                       "--nu", fixtures["nu.json"], "--cost", str(bad)])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["compute", "--mu", "@bad_weight", "--nu", "@nu.json", "--cost", "euclidean"],
    ["compute", "--mu", "@mu.json", "--nu", "@nu.json", "--cost", "@bad_scale"],
    ["sweep", "--mu", "@mu2.json", "--nu", "@nu.json", "--cost", "euclidean",
     "--mode", "entropy", "--scales", "1,x", "--out", "@out"],
    ["sweep", "--mu", "@mu2.json", "--nu", "@nu.json", "--cost", "euclidean",
     "--mode", "entropy", "--scales", ",", "--out", "@out"],
    ["benchmark", "--scale-b", "0", "--grid", "100"],
    ["compute", "--mu", "@mu.json", "--nu", "@nu.json", "--cost", "@bad_matrix"],
    ["markov", "membership", "--p", "@bad_kernel", "--f", "@f.json"],
    ["markov", "membership", "--p", "@pkernel.json", "--f", "@bad_f"],
    ["verify", "--report", "@bad_report"],
    ["derivative", "--mu", "@mu.json", "--nu", "@nu.json", "--rho", "@rho_outside",
     "--cost", "euclidean"],
    ["compute", "--mu", "@scalar_points", "--nu", "@nu.json", "--cost", "euclidean"],
    ["markov", "membership", "--p", "@scalar_states", "--f", "@f.json"],
    ["markov", "membership", "--p", "@scalar_kernel", "--f", "@f.json"],
    ["verify", "--report", "@list_inputs"],
    ["markov", "membership", "--p", "@pkernel.json", "--f", "@null_f"],
    ["verify", "--report", "@list_report"],
    ["verify", "--report", "@list_results"],
    ["verify", "--report", "@list_gamma"],
    ["compute", "--mu", "@mu.json", "--nu", "@nu.json", "--cost", "@list_metric"],
    ["markov", "gaussian", "--alpha", "0.5", "--sigma", "1e-170"],
    ["markov", "gaussian", "--alpha", "0.5", "--sigma", "inf"],
])
def test_malformed_numbers_exit_3(fixtures, tmp_path, argv):
    # These used to escape main as a ValueError or TypeError (exit 1, a
    # traceback), or, for --scale-b 0, run at b = 10. rho_outside puts a rho
    # point outside the merged support of mu and nu; null_f reached Newton
    # and exited 1 with "Newton did not reach tolerance". list_metric and
    # --sigma 1e-170 exited 1 with a TypeError and a ZeroDivisionError;
    # --sigma inf exited 0 with Infinity and NaN, which are not JSON.
    bad = {
        "bad_weight": {"points": [[0.0]], "weights": ["x"]},
        "bad_scale": {"metric": "euclidean", "scale_b": "x"},
        "bad_matrix": {"matrix": [[0, "x", 1], [1, 0, 1], [1, 1, 0]]},
        "bad_kernel": {"states": [[0.0], [1.0], [2.0]],
                       "P": [[0.6, "x", 0.1], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]],
                       "cost": {"metric": "euclidean"}},
        "bad_f": {"values": [0.0, "x", 1.0]},
        "bad_report": {"inputs": {"points": [[0.0]], "mu": ["x"], "nu": [1.0],
                                  "cost": [[0.0]], "scale_b": 1.0},
                       "results": {"gamma": {"gamma_star": [1.0], "g_star": [0.0]}}},
        "rho_outside": {"points": [[0.25], [3.0]], "weights": [0.5, -0.5]},
        "scalar_points": {"points": 5, "weights": [1.0]},
        "scalar_states": {"states": 3, "P": [[1.0]], "cost": {"metric": "euclidean"}},
        "scalar_kernel": 5,
        "list_inputs": {"inputs": [1, 2],
                        "results": {"gamma": {"gamma_star": [1.0], "g_star": [0.0]}}},
        "list_report": [1, 2],
        "list_results": {"inputs": {"points": [[0.0]], "mu": [1.0], "nu": [1.0],
                                    "cost": [[0.0]], "scale_b": 1.0},
                         "results": []},
        "list_gamma": {"inputs": {"points": [[0.0]], "mu": [1.0], "nu": [1.0],
                                  "cost": [[0.0]], "scale_b": 1.0},
                       "results": {"gamma": [1.0, 0.0]}},
        "null_f": {"values": [None, 0.0, 0.0]},
        "list_metric": {"metric": ["euclidean"]},
    }
    paths = {**fixtures, "out": str(tmp_path / "sweep.csv")}
    for name, obj in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths[name] = str(tmp_path / f"{name}.json")
    code, _ = run_cli([paths[arg[1:]] if arg.startswith("@") else arg for arg in argv])
    assert code == EXIT_VALIDATION


def child_env():
    # the child must import the same lipkl as this process, which may come
    # from pytest's pythonpath setting rather than an installed package
    package_root = str(Path(lipkl.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "lipkl.cli", "markov", "gaussian",
         "--alpha", "0.5", "--sigma", "1"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert parse_report(proc.stdout)["results"]["k_star"] == 0.125


def test_import_leaves_scipy_special_unloaded():
    # numpy is the only runtime dependency: scipy serves the tests as a
    # reference and must not load with the package.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lipkl; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, 3.7 MiB of resident memory; only a report's
    # inputs digest needs it, not `lipkl sweep` or `--help`.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lipkl.cli; print('hashlib' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
