import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames import cli, eq_solvers, fisher_game, instance_lab, trading_post
from marketgames.cli import main

NAN = float("nan")


@pytest.fixture
def ex31_file(tmp_path):
    path = tmp_path / "ex31.json"
    mg.save_instance(mg.gen_example_3_1(), path)
    return str(path)


@pytest.fixture
def leo_pair_file(tmp_path):
    path = tmp_path / "leo.json"
    mg.save_instance(mg.make_instance("leontief", [[1.0, 1.0], [1.0, 1.0]]), path)
    return str(path)


def test_solve_eg_report(ex31_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["solve-eg", ex31_file, "--tol", "1e-8", "--out", str(out)]) == 0
    text = out.read_text()
    assert "utilities = 1 0.5" in text
    assert "converged = true" in text
    # one Newton step does not converge, and the exit code says so
    assert main(["solve-eg", ex31_file, "--max-iter", "1", "--out", str(out)]) == 1
    assert "converged = false" in out.read_text()


def test_solve_eg_of_a_subnormal_valuation(tmp_path, capsys):
    path = tmp_path / "subnormal.json"
    mg.save_instance(mg.make_instance("linear", [[5e-324, 1.0], [1.0, 1.0]]), path)
    assert main(["solve-eg", str(path)]) == 0
    out = capsys.readouterr().out
    assert "prices = 1 1" in out and "converged = true" in out


def test_verify_tp_ne_pass_and_fail(leo_pair_file, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"bids": [[0.3, 0.7], [0.3, 0.7]]}))
    assert main(["verify", "--kind", "tp-ne", str(good), leo_pair_file,
                 "--delta", "1e-4"]) == 0
    captured = capsys.readouterr().out
    gain = float(captured.split("max_gain = ")[1].splitlines()[0])
    assert gain <= 1e-6

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bids": [[0.9, 0.1], [0.1, 0.9]]}))
    assert main(["verify", "--kind", "tp-ne", str(bad), leo_pair_file]) == 1


def test_verify_kkt_and_eps(ex31_file, tmp_path):
    payload = tmp_path / "eq.json"
    payload.write_text(json.dumps({"prices": [1.0, 1.0],
                                   "allocation": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["verify", "--kind", "kkt", str(payload), ex31_file]) == 0
    payload.write_text(json.dumps({"prices": [2.0, 1.0],
                                   "allocation": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["verify", "--kind", "kkt", str(payload), ex31_file]) == 1
    with pytest.raises(SystemExit):  # usage error: unknown kind
        main(["verify", "--kind", "bogus", str(payload), ex31_file])
    # eps-market: the exact equilibrium passes at eps 0, a non-equilibrium
    # fails, and the check needs --eps
    assert main(["verify", "--kind", "eps-market", str(payload), ex31_file,
                 "--eps", "0"]) == 1
    assert main(["verify", "--kind", "eps-market", str(payload), ex31_file]) == 2
    payload.write_text(json.dumps({"prices": [1.0, 1.0],
                                   "allocation": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["verify", "--kind", "eps-market", str(payload), ex31_file,
                 "--eps", "0"]) == 0
    # kkt covers Leontief markets, and refuses CES ones
    leo, ces = tmp_path / "leo.json", tmp_path / "ces.json"
    mg.save_instance(mg.make_instance("leontief", [[1.0, 1.0], [1.0, 1.0]]), leo)
    mg.save_instance(mg.make_instance("ces", [[1.0, 1.0], [1.0, 1.0]], rho=0.5), ces)
    payload.write_text(json.dumps({"prices": [1.0, 1.0],
                                   "allocation": [[0.5, 0.5], [0.5, 0.5]]}))
    assert main(["verify", "--kind", "kkt", str(payload), str(leo)]) == 0
    assert main(["verify", "--kind", "kkt", str(payload), str(ces)]) == 2


@pytest.mark.parametrize("kind", ["linear", "leontief"])
def test_verify_kkt_exits_2_on_a_misshapen_allocation(kind, tmp_path, capsys):
    # a one-row allocation once broadcast against both agents and printed
    # passed = true at prices (0.5, 0.5); the equilibrium's are (1, 1)
    inst, payload = tmp_path / "inst.json", tmp_path / "eq.json"
    mg.save_instance(mg.make_instance(kind, [[1.0, 1.0], [1.0, 1.0]]), inst)
    payload.write_text(json.dumps({"prices": [0.5, 0.5], "allocation": [[1.0, 1.0]]}))
    assert main(["verify", "--kind", "kkt", str(payload), str(inst)]) == 2
    assert "allocation must be an n x m" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["tp-dynamics", "verify"])
@pytest.mark.parametrize("bids", [[[0.5, 0.5, 0.0]] * 3, [[1.0]] * 3], ids=["wide", "narrow"])
def test_a_bid_profile_of_the_wrong_width_exits_2(verb, bids, tmp_path, capsys):
    # a column too many once ran the dynamics, and one too few raised an
    # IndexError; verify blamed the allocation the bids made
    inst, path = tmp_path / "lin.json", tmp_path / "bids.json"
    mg.save_instance(mg.make_instance("linear", [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]), inst)
    path.write_text(json.dumps({"bids": bids}))
    argv = (["tp-dynamics", str(inst), "--init", str(path)] if verb == "tp-dynamics"
            else ["verify", "--kind", "tp-ne", str(path), str(inst)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bids must be an n x m matrix\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind, allocation, prices", [
    ("linear", [[1.2, -0.2], [-0.2, 1.2]], [1.0, 1.0]),
    ("leontief", [[0.5, 0.5], [0.5, 0.5]], [3.0, -1.0])], ids=["linear", "leontief"])
def test_verify_kkt_exits_1_on_a_negative_holding_or_price(kind, allocation, prices,
                                                           tmp_path, capsys):
    inst, payload = tmp_path / "inst.json", tmp_path / "eq.json"
    mg.save_instance(mg.make_instance(kind, [[1.0, 1.0], [1.0, 1.0]]), inst)
    payload.write_text(json.dumps({"prices": prices, "allocation": allocation}))
    assert main(["verify", "--kind", "kkt", str(payload), str(inst)]) == 1
    assert "passed = false" in capsys.readouterr().out


def test_verify_tp_ne_exits_2_when_a_budget_cannot_cover_the_fees(tmp_path, capsys):
    inst, bids = tmp_path / "lin.json", tmp_path / "bids.json"
    mg.save_instance(mg.make_instance("linear", [[0.397, 0.949], [0.0, 1.0]],
                                      [0.233, 1.049]), inst)
    bids.write_text(json.dumps({"bids": [[0.0, 0.233], [0.0, 1.049]]}))
    assert main(["verify", "--kind", "tp-ne", str(bids), str(inst),
                 "--delta", "0.124"]) == 2
    assert "infeasible floors" in capsys.readouterr().err


def test_tp_dynamics_warns_on_delta_zero_leontief(leo_pair_file, capsys):
    assert main(["tp-dynamics", leo_pair_file, "--delta", "0", "--tol", "1e-9",
                 "--max-rounds", "200"]) == 0
    err = capsys.readouterr().err
    assert "no pure" in err


def test_tp_dynamics_stream(tmp_path, leo_pair_file):
    stream = tmp_path / "traj.csv"
    assert main(["tp-dynamics", leo_pair_file, "--delta", "1e-3",
                 "--stream", str(stream)]) == 0
    lines = stream.read_text().splitlines()
    assert lines[0] == "round,max_change,u0,u1"
    assert len(lines) >= 2


def test_tp_dynamics_stream_has_a_row_per_round(tmp_path, capsys):
    inst = tmp_path / "lin.json"
    mg.save_instance(mg.gen_random(4, 3, "linear", seed=2), inst)
    stream, out = tmp_path / "traj.csv", tmp_path / "report.txt"
    assert main(["tp-dynamics", str(inst), "--delta", "1e-3", "--stream", str(stream),
                 "--out", str(out)]) == 0
    rounds = int(out.read_text().split("rounds = ")[1].splitlines()[0])
    assert len(stream.read_text().splitlines()) == rounds + 1


def test_tp_dynamics_exits_1_when_unconverged(tmp_path, capsys):
    inst = tmp_path / "ne.json"
    mg.save_instance(mg.gen_tp_nonexistence(), inst)
    assert main(["tp-dynamics", str(inst), "--delta", "0", "--max-rounds", "50"]) == 1
    assert "converged = false" in capsys.readouterr().out


def test_fisher_outcome_exits_1_when_unconverged(ex31_file, tmp_path, monkeypatch,
                                                 capsys):
    def unconverged(*args, **kwargs):
        solved = eq_solvers._solve_profiles(*args, **kwargs)
        return solved._replace(converged=solved.converged & False)

    monkeypatch.setattr(fisher_game, "_solve_profiles", unconverged)
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps({"reports": [[1.0, 0.0], [0.5, 0.5]]}))
    assert main(["fisher-outcome", ex31_file, "--reports", str(reports)]) == 1
    assert "converged = false" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["solve-eg", "--max-iter", "0"],
    ["tp-dynamics", "--max-rounds", "0"],
    ["poa", "--max-rounds", "-1"],
])
def test_iteration_caps_below_one_exit_2(ex31_file, args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([args[0], ex31_file, *args[1:]])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_reproduce_n_below_one_exits_2(n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "theorem-3.3", "--n", n])
    assert exc.value.code == 2
    assert "must be finite and at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["solve-eg", "INST", "--tol", "inf"],
    ["solve-eg", "INST", "--tol", "0"],
    ["verify", "--kind", "kkt", "ZERO", "INST", "--tol", "inf"],
    ["tp-dynamics", "INST", "--delta", "nan"],
    ["verify", "--kind", "eps-market", "EXACT", "INST", "--eps", "nan"],
    ["poa", "INST", "--delta", "nan"],
    ["reproduce", "tp-leontief-poa", "--delta", "inf"],
])
def test_non_finite_float_flags_exit_2(tmp_path, args, capsys):
    # on the 2 x 2 identity linear market, ZERO (nothing allocated, prices
    # (5, 0)) is no equilibrium and EXACT is the exact one
    files = {"INST": tmp_path / "id2.json", "ZERO": tmp_path / "zero.json",
             "EXACT": tmp_path / "exact.json"}
    mg.save_instance(mg.make_instance("linear", [[1.0, 0.0], [0.0, 1.0]]), files["INST"])
    files["ZERO"].write_text(json.dumps({"prices": [5.0, 0.0],
                                         "allocation": [[0.0, 0.0], [0.0, 0.0]]}))
    files["EXACT"].write_text(json.dumps({"prices": [1.0, 1.0],
                                          "allocation": [[1.0, 0.0], [0.0, 1.0]]}))
    with pytest.raises(SystemExit) as exc:
        main([str(files.get(a, a)) for a in args])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("verb, key, payload", [
    ("kkt", "allocation", {"prices": [1.0, 1.0], "allocation": [[NAN, 0.0], [0.0, 1.0]]}),
    ("tp-ne", "bids", {"bids": [[NAN, 1.0], [0.5, 0.5]]}),
    ("fisher-outcome", "reports", {"reports": [[NAN, 0.0], [0.5, 0.5]]}),
])
def test_nan_in_payload_exits_2(ex31_file, tmp_path, verb, key, payload, capsys):
    # json parses the NaN literal, which no verifier or solve may pass on
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert "NaN" in path.read_text()
    if verb == "fisher-outcome":
        argv = ["fisher-outcome", ex31_file, "--reports", str(path)]
    else:
        argv = ["verify", "--kind", verb, str(path), ex31_file]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_fisher_outcome_cli(ex31_file, tmp_path, capsys):
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps({"reports": [[1.0, 0.0], [0.5, 0.5]]}))
    assert main(["fisher-outcome", ex31_file, "--reports", str(reports)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("true_utilities = 1 0.5")


def test_poa_verb(tmp_path, capsys):
    inst = tmp_path / "id3.json"
    mg.save_instance(mg.gen_identity_leontief(3), inst)
    assert main(["poa", str(inst), "--mechanism", "fisher"]) == 0
    out = capsys.readouterr().out
    assert "ratio = 3" in out


def test_poa_out_writes_the_record(leo_pair_file, tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["poa", leo_pair_file, "--delta", "1e-3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = dict(line.split(" = ", 1) for line in (tmp_path / "X.txt").read_text()
                .splitlines())
    names = [f.name for f in dataclasses.fields(mg.PoARecord)]
    assert list(text) == [name for name in names if name != "seconds"]
    with open(tmp_path / "X.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == list(instance_lab.CSV_HEADER) == names
    values = dict(zip(header, row))
    assert {key: values[key] for key in text} == text
    assert float(values["seconds"]) > 0
    assert text["mechanism"] == "trading_post" and text["failure"] == ""


def test_reproduce_theorem_33(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "theorem-3.3", "--n", "5", "--out", "rep"]) == 0
    text = (tmp_path / "rep.txt").read_text()
    assert "ratio = 5" in text
    assert (tmp_path / "rep.csv").exists()


def test_reproduce_reports_are_byte_identical(tmp_path, capsys, monkeypatch):
    # the text report repeats byte for byte, while every CSV row carries the
    # wall time of the run that made it
    monkeypatch.chdir(tmp_path)
    for rid in cli.REPRODUCE:
        for out in ("a", "b"):
            main(["reproduce", rid, "--out", f"{rid}-{out}"])
            assert float(_csv_row(tmp_path / f"{rid}-{out}.csv")["seconds"]) > 0
        assert (tmp_path / f"{rid}-a.txt").read_text() == (tmp_path / f"{rid}-b.txt").read_text()
    assert "misreport_gain_agent2" in (tmp_path / "example-3.1-a.txt").read_text()


def test_reproduce_exits_1_when_a_row_failed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "tp-leontief-poa", "--n", "3", "--delta", "0",
                 "--out", "tp0"]) == 1
    assert "failure = Leontief trading post needs delta > 0" in (tmp_path / "tp0.txt").read_text()
    assert (tmp_path / "tp0.csv").exists()


def test_reproduce_remaining_ids(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "tp-nonexistence", "--out", "ne"]) == 0
    text = (tmp_path / "ne.txt").read_text()
    assert "delta0_converged = false" in text
    assert "fee_converged = true" in text

    assert main(["reproduce", "tp-leontief-poa", "--n", "3", "--delta", "1e-4",
                 "--out", "tp"]) == 0
    assert "ratio = 1" in (tmp_path / "tp.txt").read_text()

    assert main(["reproduce", "example-leo", "--a", "0.7", "--out", "leo"]) == 0
    assert main(["reproduce", "example-lin", "--eps", "0.5", "--out", "lin"]) == 0
    assert main(["reproduce", "lb-construction", "--n", "8", "--out", "lb"]) == 0
    assert "k = 3" in (tmp_path / "lb.txt").read_text()
    # without --n the construction runs at its smallest size, n = 8
    assert main(["reproduce", "lb-construction", "--out", "lb-default"]) == 0
    assert "n = 8" in (tmp_path / "lb-default.txt").read_text()
    assert main(["reproduce", "lb-construction", "--n", "5", "--out", "lb5"]) == 2


@pytest.mark.parametrize("n, floor", [(300, 1.429093), (1000, 1.438930)],
                         ids=["n300", "n1000"])
def test_reproduce_lb_construction_climbs_toward_e_to_the_1_over_e(n, floor, tmp_path,
                                                                   capsys, monkeypatch):
    # the certificate stays exact at delta = 0, and the ratio lies above the
    # floor, the ratio at the size before (n = 109, then n = 300), and below
    # the limit e^(1/e)
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "lb-construction", "--n", str(n), "--out", "lb"]) == 0
    report = dict(line.split(" = ", 1)
                  for line in (tmp_path / "lb.txt").read_text().splitlines())
    assert float(report["tp_max_gain"]) <= 1e-6
    assert floor < float(report["ratio"]) < math.exp(1 / math.e)


_STARTS = {
    "help": (["--help"], 0),
    "tp-dynamics-linear": (["tp-dynamics", "{linear}"], 0),
    "tp-dynamics-leontief": (["tp-dynamics", "--delta", "1e-4", "{leontief}"], 0),
    "tp-dynamics-ces": (["tp-dynamics", "{ces}"], 0),
    "verify-tp-ne": (["verify", "--kind", "tp-ne", "{bids}", "{linear}"], 1),
    "missing-file": (["solve-eg", "{missing}"], 2),
}


@pytest.mark.parametrize("argv, code", _STARTS.values(), ids=_STARTS.keys())
def test_cli_starts_without_scipy_where_nothing_is_solved(tmp_path, argv, code):
    # scipy loads at the first Eisenberg-Gale solve, so a fresh CLI process
    # that solves none, whatever its exit code, never imports it
    markets = {"linear": mg.gen_random(4, 3, "linear", seed=3),
               "leontief": mg.gen_random(4, 3, "leontief", seed=3),
               "ces": mg.gen_random(3, 3, "ces", rho=0.5, seed=3)}
    paths = {name: tmp_path / f"{name}.json" for name in (*markets, "bids", "missing")}
    for name, inst in markets.items():
        mg.save_instance(inst, paths[name])
    linear = markets["linear"]
    paths["bids"].write_text(json.dumps({"bids": [[b / linear.m] * linear.m
                                                  for b in linear.budgets]}))
    src = str(Path(mg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-X", "importtime", "-W", "error::RuntimeWarning",
                          "-m", "marketgames.cli", *(a.format(**paths) for a in argv)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == code, run.stderr
    assert [line for line in run.stderr.splitlines() if " scipy" in line] == []


def _csv_row(path):
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


def test_reproduce_rows_check_the_allocation_they_score(tmp_path, capsys, monkeypatch):
    # a worked example's proportional field is proportionality_check of the
    # allocation whose NSW the row reports, not a constant
    monkeypatch.chdir(tmp_path)
    real, scored = instance_lab.proportionality_check, []

    def failing(instance, allocation, slack=0.0, tol=1e-8):
        scored.append(mg.nsw(instance.utilities(allocation), instance.budgets))
        return dataclasses.replace(real(instance, allocation, slack, tol), all_pass=False)

    monkeypatch.setattr(instance_lab, "proportionality_check", failing)
    for rid in cli.REPRODUCE:
        main(["reproduce", rid, "--out", rid])
        row = _csv_row(tmp_path / f"{rid}.csv")
        assert row["proportional"] == "false"
        assert float(row["nsw_eq"]) == pytest.approx(scored[-1], rel=1e-9)
    assert len(scored) == 7


def test_reproduce_tp_nonexistence_scores_against_its_optimum(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "tp-nonexistence", "--out", "ne"]) == 0
    row = _csv_row(tmp_path / "ne.csv")
    # the optimum of (0.5, 0.5) / (0.9, 0.1) prices good 1 at 2 and good 2
    # at 0: utilities 1 and 5/9
    assert float(row["nsw_opt"]) == pytest.approx(math.sqrt(5 / 9), rel=1e-9)
    assert 1.0 <= float(row["ratio"]) <= 1.0 + 1e-6
    assert row["proportional"] == "true"
    # the fee's outcome is an eps-market equilibrium at eps = m^2 delta
    assert 0.0 <= float(row["eps_market"]) <= 4 * 1e-3


def test_reproduce_example_leo_scores_against_its_optimum(tmp_path, capsys, monkeypatch):
    # two identical Leontief agents reach NSW 1/2 at best, which every
    # equilibrium of the family attains
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "example-leo", "--out", "leo"]) == 0
    row = _csv_row(tmp_path / "leo.csv")
    assert (float(row["nsw_opt"]), float(row["ratio"])) == (0.5, 1.0)
    assert float(row["eps_market"]) == 0.0


def test_reproduce_tags_an_unconverged_optimum(tmp_path, capsys, monkeypatch):
    def unconverged(instance, tol):
        return dataclasses.replace(mg.solve_eg(instance, tol), converged=False)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(instance_lab, "solve_eg", unconverged)
    assert main(["reproduce", "example-lin", "--out", "lin"]) == 1
    assert _csv_row(tmp_path / "lin.csv")["failure"].startswith("optimum did not converge")


def _unconverged_markets(monkeypatch):
    """Make every reported market of the Fisher game end unconverged."""
    solve = fisher_game._solve_profiles

    def unconverged(*args, **kwargs):
        solved = solve(*args, **kwargs)
        return solved._replace(converged=solved.converged & False)

    monkeypatch.setattr(fisher_game, "_solve_profiles", unconverged)


def test_reproduce_example_leo_fails_when_its_equilibrium_does(tmp_path, capsys,
                                                                monkeypatch):
    # every a in (0, 1) is an exact equilibrium of the Leontief family, so a
    # failed certificate fails the row; the linear family claims none
    verify = trading_post.verify_tp_ne

    def failing(*args):
        return dataclasses.replace(verify(*args), max_gain=0.5, converged=False)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(trading_post, "verify_tp_ne", failing)
    assert main(["reproduce", "example-leo", "--out", "leo"]) == 1
    assert _csv_row(tmp_path / "leo.csv")["failure"] == "equilibrium not certified: max_gain 0.5"
    assert main(["reproduce", "example-lin", "--out", "lin"]) == 0
    assert _csv_row(tmp_path / "lin.csv")["failure"] == ""


def test_reproduce_tp_nonexistence_fails_when_the_fee_run_does(tmp_path, capsys,
                                                                monkeypatch):
    dynamics = trading_post.br_dynamics

    def stalled(instance, delta, **kwargs):
        rep = dynamics(instance, delta, **kwargs)
        return dataclasses.replace(rep, converged=False, note="stalled") if delta else rep

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(trading_post, "br_dynamics", stalled)
    assert main(["reproduce", "tp-nonexistence", "--out", "ne"]) == 1
    assert "fee_converged = false" in (tmp_path / "ne.txt").read_text()
    assert _csv_row(tmp_path / "ne.csv")["failure"] == "fee dynamics did not converge: stalled"


def test_reproduce_example_31_fails_when_its_markets_do(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _unconverged_markets(monkeypatch)
    assert main(["reproduce", "example-3.1", "--out", "ex"]) == 1
    assert _csv_row(tmp_path / "ex.csv")["failure"] == (
        "truthful reported market did not converge; "
        "misreport reported market did not converge")


def test_reproduce_lb_construction_fails_on_a_failed_falsifier_solve(tmp_path, capsys,
                                                                     monkeypatch):
    # the profile's gains shrink with n and are not gated on; a falsifier
    # that could not solve a deviation market fails the row
    falsify = fisher_game.fisher_ne_falsify

    def failing(*args, **kwargs):
        return dataclasses.replace(falsify(*args, **kwargs), failures=3)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fisher_game, "fisher_ne_falsify", failing)
    assert main(["reproduce", "lb-construction", "--out", "lb"]) == 1
    assert _csv_row(tmp_path / "lb.csv")["failure"] == "falsifier skipped 3 failed solves"


def test_fisher_poa_row_fails_when_its_reported_market_does(tmp_path, capsys,
                                                            monkeypatch):
    inst = tmp_path / "id3.json"
    mg.save_instance(mg.gen_identity_leontief(3), inst)
    _unconverged_markets(monkeypatch)
    rec = instance_lab.run_experiment(mg.gen_identity_leontief(3), "id3", "fisher")
    assert rec.failure == "reported market did not converge"
    assert main(["poa", str(inst), "--mechanism", "fisher", "--out", str(tmp_path / "p")]) == 1
    assert _csv_row(tmp_path / "p.csv")["failure"] == "reported market did not converge"


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert main(["solve-eg", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 1}")
    assert main(["solve-eg", str(bad)]) == 2
    nan = tmp_path / "nan.json"
    nan.write_text('{"n": 2, "m": 2, "budgets": [1.0, 1.0], "kind": "linear", '
                   '"matrix": [[NaN, 1.0], [1.0, 1.0]]}')
    assert main(["solve-eg", str(nan)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
VALID = {"n": 2, "m": 2, "budgets": [1.0, 2.0], "kind": "linear",
         "matrix": [[1.0, 0.5], [0.5, 1.0]]}
not_int = json_values.filter(lambda x: type(x) is not int)
not_number_list = json_values.filter(lambda x: not isinstance(x, list)) | st.lists(
    st.none() | st.text(max_size=4) | st.dictionaries(st.text(max_size=4), st.none()),
    min_size=1, max_size=3)
WRONG = {"n": not_int, "m": not_int, "budgets": not_number_list,
         "matrix": not_number_list,
         "kind": json_values.filter(lambda x: x not in ("linear", "leontief"))}


@st.composite
def malformed_documents(draw):
    """A JSON value that is not an instance: any value but an object, an
    object without the instance fields, or a valid instance with one field
    dropped, null or of the wrong type (for linear, any non-null rho)."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = dict(VALID)
    key = draw(st.sampled_from(sorted(WRONG) + ["rho"]))
    if key == "rho":
        doc[key] = draw(json_values.filter(lambda x: x is not None))
        return doc
    how = draw(st.sampled_from(["drop", "null", "wrong"]))
    if how == "drop":
        del doc[key]
    else:
        doc[key] = None if how == "null" else draw(WRONG[key])
    return doc


@given(malformed_documents())
@settings(max_examples=200, deadline=None)
def test_malformed_instance_json_exits_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-eg", str(path)]) == 2


def test_main_builds_its_parser_once(ex31_file, monkeypatch, capsys):
    # a process that calls main many times builds the argparse tree once;
    # a usage error on the reused parser leaves later calls unchanged
    built, real = [], cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert main(["solve-eg", ex31_file]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["solve-eg", ex31_file, "--max-iter", "0"])
    capsys.readouterr()
    assert main(["solve-eg", ex31_file]) == 0
    assert capsys.readouterr().out == first
    assert len(built) == 1
