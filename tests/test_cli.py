import csv
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames import cli, fisher_game
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
    def unconverged(instances, tol):
        return [dataclasses.replace(eq, converged=False)
                for eq in mg.solve_eg_many(instances, tol)]

    monkeypatch.setattr(fisher_game, "solve_eg_many", unconverged)
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


def test_reproduce_theorem_33(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "theorem-3.3", "--n", "5", "--out", "rep"]) == 0
    text = (tmp_path / "rep.txt").read_text()
    assert "ratio = 5" in text
    assert (tmp_path / "rep.csv").exists()


def test_reproduce_reports_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["reproduce", "example-3.1", "--out", "a"])
    main(["reproduce", "example-3.1", "--out", "b"])
    assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
    assert "misreport_gain_agent2" in (tmp_path / "a.txt").read_text()


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


def _csv_row(path):
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


def test_reproduce_rows_check_the_allocation_they_score(tmp_path, capsys, monkeypatch):
    # a worked example's proportional field is proportionality_check of the
    # allocation whose NSW the row reports, not a constant
    monkeypatch.chdir(tmp_path)
    real, scored = cli.proportionality_check, []

    def failing(instance, allocation, slack=0.0, tol=1e-8):
        scored.append(mg.nsw(instance.utilities(allocation), instance.budgets))
        return dataclasses.replace(real(instance, allocation, slack, tol), all_pass=False)

    monkeypatch.setattr(cli, "proportionality_check", failing)
    for rid in ("example-3.1", "lb-construction", "tp-nonexistence", "example-lin",
                "example-leo"):
        main(["reproduce", rid, "--out", rid])
        row = _csv_row(tmp_path / f"{rid}.csv")
        assert row["proportional"] == "false"
        assert float(row["nsw_eq"]) == pytest.approx(scored[-1], rel=1e-9)
    assert len(scored) == 5


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
