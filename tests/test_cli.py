"""End-to-end CLI tests."""

import csv
import io
import json
import math
import os

import pytest
from click.testing import CliRunner

from waterline import (
    AfRelay, BoxProblem, InverseMse, LogCapacity, ScenarioSpec, SimplexProblem,
    SolverConfig, build_instance, channel_gains, instance_to_dict,
    save_instance, solve_box)
from waterline.cli import main

from conftest import random_box

K2_P1 = {"problem_class": "p1", "budget": 2.0,
         "objectives": [{"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0},
                        {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0}]}

K3_BOX = {"problem_class": "box", "budget": 6.0,
          "objectives": [{"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0},
                         {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 0.5},
                         {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 0.5}],
          "lower_bounds": [1.0, 0.0, 0.0],
          "upper_bounds": [1.0, 2.5, 2.5]}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_p1_symmetric(runner, tmp_path):
    inst = _write(tmp_path, "p1.json", K2_P1)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["powers"] == pytest.approx([1.0, 1.0], rel=1e-10)


def test_solve_box_example_to_file(runner, tmp_path):
    inst = _write(tmp_path, "box.json", K3_BOX)
    out = str(tmp_path / "result.json")
    result = runner.invoke(main, ["solve", inst, "--out", out])
    assert result.exit_code == 0, result.output
    doc = json.load(open(out))
    assert doc["powers"] == pytest.approx([1.0, 2.5, 2.5], abs=1e-9)


def test_solve_schema_error_names_field(runner, tmp_path):
    bad = dict(K2_P1)
    bad["objectives"] = [{"family": "mystery", "w": 1.0}]
    inst = _write(tmp_path, "bad.json", bad)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 1
    assert "objectives[0]" in result.output


def test_solve_missing_file(runner):
    result = runner.invoke(main, ["solve", "/nonexistent/path.json"])
    assert result.exit_code == 1


def test_verify_pass_and_fail(runner, tmp_path):
    inst = _write(tmp_path, "box.json", K3_BOX)
    out = str(tmp_path / "result.json")
    assert runner.invoke(main, ["solve", inst, "--out", out]).exit_code == 0
    good = runner.invoke(main, ["verify", inst, out])
    assert good.exit_code == 0, good.output
    assert "pass" in good.output
    # corrupt the powers: verification must fail
    doc = json.load(open(out))
    doc["powers"] = [2.0, 2.0, 2.0]
    json.dump(doc, open(out, "w"))
    bad = runner.invoke(main, ["verify", inst, out])
    assert bad.exit_code == 1
    assert "FAIL" in bad.output


@pytest.mark.parametrize("powers", [["1.0", "2.5", "2.5"], [1.0, None, 2.5],
                                    [1.0, True, 2.5], [1.0, 2.5, math.inf],
                                    [1.0, 2.5, 10 ** 400]],
                         ids=["strings", "null", "bool", "infinite", "huge-int"])
def test_verify_rejects_a_power_that_is_not_a_finite_number(runner, tmp_path, powers):
    # Strings passed (check_conditions called float() on each entry), and a
    # null printed a TypeError traceback.
    inst = _write(tmp_path, "box.json", K3_BOX)
    out = _write(tmp_path, "result.json", {"problem_class": "box", "powers": powers})
    result = runner.invoke(main, ["verify", inst, out])
    assert result.exit_code == 1, result.output
    assert "error: powers: every power must be a finite number" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_verify_rejects_fair_power_rows_of_strings(runner, tmp_path):
    # A traceback from the group totals' sum(row) before.
    one = {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0}
    inst = _write(tmp_path, "maxmin.json",
                  {"problem_class": "maxmin", "budget": 4.0, "groups": [[one, one], [one]]})
    out = str(tmp_path / "result.json")
    assert runner.invoke(main, ["solve", inst, "--out", out]).exit_code == 0
    result = json.load(open(out))
    result["powers"] = [["1", "1"], [2.0]]
    json.dump(result, open(out, "w"))
    bad = runner.invoke(main, ["verify", inst, out])
    assert bad.exit_code == 1, bad.output
    assert "error: powers: every power must be a finite number" in bad.output
    assert isinstance(bad.exception, SystemExit)


def test_verify_fails_p1_below_lower_bound(runner, tmp_path):
    doc = {"problem_class": "p1_lower", "budget": 2.0,
           "objectives": [{"family": "log_capacity", "w": 1.0, "a": 0.1, "b": 1.0},
                          {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0}],
           "lower_bounds": [1.0, 0.0]}
    inst = _write(tmp_path, "p1.json", doc)
    out = str(tmp_path / "result.json")
    assert runner.invoke(main, ["solve", inst, "--out", out]).exit_code == 0
    assert runner.invoke(main, ["verify", inst, out]).exit_code == 0
    result = json.load(open(out))
    result["powers"] = [0.0, 2.0]
    json.dump(result, open(out, "w"))
    bad = runner.invoke(main, ["verify", inst, out])
    assert bad.exit_code == 1, bad.output
    assert "FAIL  bounds_violation" in bad.output


def test_verify_fails_maxmin_group_with_a_better_channel_at_its_floor(runner, tmp_path):
    one = {"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0}
    doc = {"problem_class": "maxmin", "budget": 4.0, "groups": [[one, one], [one]]}
    inst = _write(tmp_path, "maxmin.json", doc)
    out = str(tmp_path / "result.json")
    assert runner.invoke(main, ["solve", inst, "--out", out]).exit_code == 0
    assert runner.invoke(main, ["verify", inst, out]).exit_code == 0
    result = json.load(open(out))
    # Both groups reach t = log 3, but group 0 would need less power by
    # splitting its 2.0 evenly.
    result.update(powers=[[0.0, 2.0], [2.0]], t=math.log(3.0), active_sets=[[1], [0]])
    json.dump(result, open(out, "w"))
    bad = runner.invoke(main, ["verify", inst, out])
    assert bad.exit_code == 1, bad.output
    assert "FAIL  lower_rate_violation" in bad.output


def test_solve_and_verify_maxmin_at_a_tiny_budget(runner, tmp_path):
    # Bracketing t downward asks the b = 0 groups for levels above the float
    # range (exp of more than 709), which took the solve down with an
    # OverflowError.
    def group(a):
        return [{"family": "log_capacity", "w": 1.0, "a": a, "b": 0.0}]
    doc = {"problem_class": "maxmin", "budget": 1e-300, "groups": [group(1.0), group(2.0)]}
    inst = _write(tmp_path, "tiny.json", doc)
    out = str(tmp_path / "result.json")
    solved = runner.invoke(main, ["solve", inst, "--out", out])
    assert solved.exit_code == 0, solved.output
    result = json.load(open(out))
    assert result["powers"] == [[pytest.approx(2e-300 / 3, rel=1e-9)],
                                [pytest.approx(1e-300 / 3, rel=1e-9)]]
    verified = runner.invoke(main, ["verify", inst, out])
    assert verified.exit_code == 0, verified.output


def _log_capacity(a):
    return {"family": "log_capacity", "w": 1.0, "a": a, "b": 1.0}


# The last entry is a feasible answer short of the optimum, or None.
@pytest.mark.parametrize("a,caps,expected,short", [
    ([1.0, 8.0, 1.0], [1.5, 2.0, 6.0], [0.5625, 1.4375, 4.0], [1.5, 0.5, 4.0]),
    ([4.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.875, 0.125, 1.0], None)])
def test_solve_and_verify_ascending_staircase(runner, tmp_path, a, caps, expected,
                                               short):
    doc = {"problem_class": "ascending", "prefix_budgets": caps,
           "objectives": [_log_capacity(x) for x in a]}
    inst = _write(tmp_path, "asc.json", doc)
    out = str(tmp_path / "result.json")
    solved = runner.invoke(main, ["solve", inst, "--out", out])
    assert solved.exit_code == 0, solved.output
    result = json.load(open(out))
    assert result["powers"] == pytest.approx(expected, abs=1e-9)
    assert result["status"] == "optimal"
    good = runner.invoke(main, ["verify", inst, out])
    assert good.exit_code == 0, good.output
    if short is not None:
        result["powers"] = short
        json.dump(result, open(out, "w"))
        bad = runner.invoke(main, ["verify", inst, out])
        assert bad.exit_code == 1, bad.output
        assert "FAIL  level_order_violation" in bad.output


def test_verify_class_mismatch(runner, tmp_path):
    inst_box = _write(tmp_path, "box.json", K3_BOX)
    inst_p1 = _write(tmp_path, "p1.json", K2_P1)
    out = str(tmp_path / "result.json")
    assert runner.invoke(main, ["solve", inst_p1, "--out", out]).exit_code == 0
    result = runner.invoke(main, ["verify", inst_box, out])
    assert result.exit_code == 1


def test_generate_deterministic(runner, tmp_path):
    args = ["generate", "--antennas", "2", "--taps", "3", "--subcarriers", "4",
            "--realizations", "2", "--seed", "9"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert runner.invoke(main, args + ["--out-dir", out_a]).exit_code == 0
    assert runner.invoke(main, args + ["--out-dir", out_b]).exit_code == 0
    for name in sorted(os.listdir(out_a)):
        assert open(os.path.join(out_a, name), "rb").read() == \
            open(os.path.join(out_b, name), "rb").read()
    # generated instances load and carry the right class
    doc = json.load(open(os.path.join(out_a, "instance_0000.json")))
    assert doc["problem_class"] == "box"


def test_generate_env_seed_override(runner, tmp_path):
    args = ["generate", "--antennas", "2", "--taps", "2", "--subcarriers", "2",
            "--seed", "1"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert runner.invoke(main, args + ["--out-dir", out_a],
                         env={"WATERLINE_SEED": "77"}).exit_code == 0
    assert runner.invoke(main, ["generate", "--antennas", "2", "--taps", "2",
                                "--subcarriers", "2", "--seed", "77",
                                "--out-dir", out_b]).exit_code == 0
    assert open(os.path.join(out_a, "instance_0000.json")).read() == \
        open(os.path.join(out_b, "instance_0000.json")).read()


def test_compare_four_rows_sorted(runner, tmp_path):
    inst = _write(tmp_path, "box.json", K3_BOX)
    result = runner.invoke(main, ["compare", inst])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.strip().splitlines() if l]
    assert len(lines) == 5  # header + four strategies
    strategies = [l.split(",")[0] for l in lines[1:]]
    assert strategies == sorted(strategies)
    for line in lines[1:]:
        linf = float(line.split(",")[3])
        assert linf <= 1e-6


def test_compare_oracle_out_of_range(runner, tmp_path, rng):
    problem = random_box("log_capacity", rng, 10)
    path = tmp_path / "big.json"
    save_instance(problem, str(path))
    result = runner.invoke(main, ["compare", str(path)])
    assert result.exit_code == 0, result.output
    assert "out-of-range" in result.output


def test_compare_rejects_non_box(runner, tmp_path):
    inst = _write(tmp_path, "p1.json", K2_P1)
    result = runner.invoke(main, ["compare", inst])
    assert result.exit_code == 1


def test_sweep_trends_and_dump(runner, tmp_path):
    out = str(tmp_path / "sweep.csv")
    dump = str(tmp_path / "dump.json")
    result = runner.invoke(main, [
        "sweep", "--antennas", "2", "--taps", "3", "--subcarriers", "4",
        "--realizations", "10", "--snr-list", "0,10,20",
        "--gamma", "0.4", "--tau", "1.6", "--seed", "3",
        "--out", out, "--dump", dump])
    assert result.exit_code == 0, result.output
    rows = [l.split(",") for l in open(out).read().strip().splitlines()[1:]]
    mses = [float(r[5]) for r in rows]
    assert mses[0] > mses[1] > mses[2]
    doc = json.load(open(dump))
    assert len(doc["powers"]) == 2 * 4
    assert doc["lower_set"] or doc["upper_set"]


def test_sweep_uniform_when_bounds_equal(runner, tmp_path):
    out = str(tmp_path / "sweep.csv")
    result = runner.invoke(main, [
        "sweep", "--antennas", "2", "--taps", "2", "--subcarriers", "2",
        "--realizations", "3", "--snr-list", "10",
        "--gamma", "1.0", "--tau", "1.0", "--seed", "3",
        "--out", out, "--dump", str(tmp_path / "d.json")])
    assert result.exit_code == 0, result.output
    doc = json.load(open(tmp_path / "d.json"))
    uniform = doc["budget"] / len(doc["powers"])
    assert doc["powers"] == pytest.approx([uniform] * len(doc["powers"]))


def test_sweep_counts_instances_it_cannot_solve_as_errors(runner):
    # gamma = 1.5 puts each lower bound at 1.5 times the uniform share, so
    # the floors exceed the budget: every instance is refused, and each row
    # counts its refusals.
    result = runner.invoke(main, [
        "sweep", "--subcarriers", "16", "--realizations", "3",
        "--snr-list=0,10", "--gamma", "1.5"])
    assert result.exit_code == 0 and result.exception is None, result.output
    assert "Traceback" not in result.output
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [(r["snr_db"], r["solved"], r["errors"]) for r in rows] == [
        ("0.0", "0", "3"), ("10.0", "0", "3")]


def test_solve_rejects_cluster_upper_bounds(runner, tmp_path):
    cluster = {"family": "cluster_log_capacity", "w": 1.0, "a": 1.0,
               "sigma_e2": 0.1, "sigma_n2": 1.0}
    doc = {"problem_class": "cluster", "budget": 6.0,
           "groups": [[cluster, cluster], [cluster]],
           "upper_bounds": [[0.5, None], [None]]}
    inst = _write(tmp_path, "cluster.json", doc)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 1, result.output
    assert "upper bounds" in result.output


@pytest.mark.parametrize("field,value", [("upper_bounds", [float("nan"), 5.0]),
                                         ("budget", float("inf"))])
def test_solve_rejects_non_finite_input(runner, tmp_path, field, value):
    doc = dict(K3_BOX, upper_bounds=[None, None, None])
    doc[field] = value if field == "budget" else value + [None]
    inst = _write(tmp_path, "bad.json", doc)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 1, result.output


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("option,value", [("--gamma", "nan"), ("--tau", "nan"),
                                          ("--snr-db", "nan"), ("--snr-db", "1e400")])
def test_scenario_commands_reject_non_finite_input(runner, tmp_path, command,
                                                   option, value):
    if command == "sweep" and option == "--snr-db":
        option = "--snr-list"
    result = runner.invoke(main, [command, "--subcarriers", "2", "--realizations", "1",
                                  "--out-dir" if command == "generate" else "--out",
                                  str(tmp_path / "out"), option, value])
    assert result.exit_code == 1, result.output
    assert "error:" in result.output


def _sweep_reference(snrs, gamma, tau, realizations, seed, strategy, **shape):
    """The CSV and dump bytes of ``sweep``, from a plain loop of
    ``build_instance`` and ``solve_box`` over every (SNR, realization)."""
    cfg = SolverConfig(box_strategy=strategy)
    rows, dump = [], None
    for snr in snrs:
        spec = ScenarioSpec(snr_db=snr, gamma=gamma,
                            tau=math.inf if tau is None else tau,
                            realizations=realizations, seed=seed, **shape)
        values, hits = [], 0
        for r in range(realizations):
            problem = build_instance(spec, r)
            alloc = solve_box(problem, cfg)
            values.append(-alloc.objective_value / len(alloc.powers))
            hits += bool(alloc.lower_set or alloc.upper_set)
            if r == 0 and snr == snrs[-1]:
                dump = {"snr_db": snr, "gamma": gamma, "tau": tau,
                        "powers": alloc.powers, "lower_set": alloc.lower_set,
                        "upper_set": alloc.upper_set, "budget": problem.budget}
        rows.append([snr, gamma, "" if tau is None else tau, len(values), 0,
                     sum(values) / len(values), hits / len(values)])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["snr_db", "gamma", "tau", "solved", "errors",
                     "mean_mse", "bound_active_fraction"])
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return text.getvalue().encode(), (json.dumps(dump, indent=2) + "\n").encode()


_SNRS = [10.0, 0.0, 10.0, -5.0, 10.0]  # one SNR listed three times
_SMALL = dict(antennas=2, taps=3, subcarriers=8)


@pytest.mark.parametrize("gamma,tau,strategy,snrs,shape,realizations", [
    pytest.param(0.3, 1.7, "order", _SNRS, _SMALL, 4, id="0.3-1.7-order"),
    pytest.param(0.0, None, "set_b", _SNRS, _SMALL, 4, id="0.0-None-set_b"),
    pytest.param(1.0, 1.0, "bisect", _SNRS, _SMALL, 4, id="1.0-1.0-bisect"),
    pytest.param(0.0, None, "order", _SNRS, _SMALL, 4, id="0.0-None-order"),
    pytest.param(1.0, 1.0, "order", _SNRS, _SMALL, 4, id="1.0-1.0-order"),
    pytest.param(0.3, 1.7, "order", [-10.0, 30.0, 0.0, 20.0, -5.0, 10.0], _SMALL, 4,
                 id="minus10-to-30dB-order"),
    pytest.param(0.4, 1.6, "order", [0.0, 5.0, 10.0, 15.0, 20.0],
                 dict(antennas=4, taps=7, subcarriers=256), 2, id="k1024-order"),
])
def test_sweep_matches_a_solve_per_snr_and_realization(runner, tmp_path, gamma, tau,
                                                       strategy, snrs, shape,
                                                       realizations):
    """Solving each realization's SNR points as one batch on a shared bank
    changes no byte against one ``build_instance`` and ``solve_box`` per
    (SNR, realization)."""
    out, dump = tmp_path / "sweep.csv", tmp_path / "dump.json"
    args = ["sweep", "--snr-list", ",".join(map(str, snrs)), "--gamma", str(gamma),
            "--realizations", str(realizations), "--seed", "7", "--strategy", strategy,
            "--out", str(out), "--dump", str(dump)]
    for name, value in shape.items():
        args += [f"--{name}", str(value)]
    if tau is not None:
        args += ["--tau", str(tau)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    expected_csv, expected_dump = _sweep_reference(
        snrs, gamma, tau, realizations, 7, strategy, **shape)
    assert out.read_bytes() == expected_csv
    assert dump.read_bytes() == expected_dump


def test_sweep_builds_the_bound_rows_once_per_snr_point(runner, tmp_path, monkeypatch):
    """The bound rows depend only on the SNR points, gamma, tau and the
    channel count: ``instance_bounds`` runs once per SNR point, not once per
    (point, realization), and the bytes are the per-point reference's."""
    import waterline.cli as cli

    def counted(*args, _bounds=cli.instance_bounds):
        calls.append(args[0].snr_db)
        return _bounds(*args)
    calls = []
    monkeypatch.setattr(cli, "instance_bounds", counted)
    out, dump = tmp_path / "sweep.csv", tmp_path / "dump.json"
    result = runner.invoke(main, [
        "sweep", "--snr-list", ",".join(map(str, _SNRS)), "--gamma", "0.3", "--tau", "1.7",
        "--realizations", "3", "--seed", "7", "--out", str(out), "--dump", str(dump),
        *(f"--{k}={v}" for k, v in _SMALL.items())])
    assert result.exit_code == 0, result.output
    assert calls == _SNRS
    expected_csv, expected_dump = _sweep_reference(_SNRS, 0.3, 1.7, 3, 7, "order", **_SMALL)
    assert (out.read_bytes(), dump.read_bytes()) == (expected_csv, expected_dump)


@pytest.mark.parametrize("strategy", ["order", "set_a"])
def test_sweep_rescues_a_failed_batch_with_a_solve_per_snr(runner, tmp_path, monkeypatch,
                                                           strategy):
    """When the batch of a realization's SNR points fails, every point is
    solved alone by ``solve_box``: the bytes are the per-point reference's."""
    import waterline.cli as cli
    from waterline import BracketFailure

    def fail(*args, **kwargs):
        calls.append(1)
        raise BracketFailure("batch refused")
    calls = []
    monkeypatch.setattr(cli, "box_fill_rows", fail)
    out, dump = tmp_path / "sweep.csv", tmp_path / "dump.json"
    result = runner.invoke(main, [
        "sweep", "--snr-list", ",".join(map(str, _SNRS)), "--gamma", "0.3", "--tau", "1.7",
        "--realizations", "3", "--seed", "7", "--strategy", strategy, "--out", str(out),
        "--dump", str(dump), *(f"--{k}={v}" for k, v in _SMALL.items())])
    assert result.exit_code == 0, result.output
    assert len(calls) == 3  # one batch per realization, each rescued
    expected_csv, expected_dump = _sweep_reference(_SNRS, 0.3, 1.7, 3, 7, strategy, **_SMALL)
    assert out.read_bytes() == expected_csv
    assert dump.read_bytes() == expected_dump


@pytest.mark.parametrize("late", ["nan", "1e400", "-1e400"])
def test_sweep_rejects_a_late_bad_snr_before_writing(runner, tmp_path, late):
    out, dump = tmp_path / "sweep.csv", tmp_path / "dump.json"
    result = runner.invoke(main, [
        "sweep", "--antennas", "2", "--taps", "2", "--subcarriers", "4",
        "--realizations", "2", "--snr-list", f"0,5,10,{late}",
        "--out", str(out), "--dump", str(dump)])
    assert result.exit_code == 1, result.output
    assert "error:" in result.output
    assert not out.exists() and not dump.exists()


def test_generate_matches_object_built_instances(runner, tmp_path):
    """Bank-built scenario files are byte for byte the files of instances
    built from one ``InverseMse`` object per gain."""
    result = runner.invoke(main, [
        "generate", "--subcarriers", "16", "--gamma", "0.4", "--tau", "1.6",
        "--realizations", "2", "--seed", "5", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    spec = ScenarioSpec(subcarriers=16, gamma=0.4, tau=1.6, realizations=2, seed=5)
    for r in range(2):
        gains = channel_gains(spec, r).ravel()
        uniform = spec.budget / gains.size
        problem = BoxProblem([InverseMse(1.0, float(g), 1.0) for g in gains],
                             spec.budget, [0.4 * uniform] * gains.size,
                             [1.6 * uniform] * gains.size)
        expected = json.dumps(instance_to_dict(problem), indent=2) + "\n"
        assert (tmp_path / f"instance_{r:04d}.json").read_text() == expected


@pytest.mark.parametrize("index,record,message", [
    (2, {"a": 0.0}, "parameter a must be finite and positive, got 0.0"),
    (1, {"family": "af_relay", "a": 1.5}, "af_relay requires 0 < a < 1, got 1.5"),
    (0, {"b": -1}, "parameter b must be finite and nonnegative, got -1.0"),
])
def test_solve_names_the_bad_closed_form_record(runner, tmp_path, index, record,
                                               message):
    doc = json.loads(json.dumps(K3_BOX))
    doc["objectives"][index].update(record)
    inst = _write(tmp_path, "bad.json", doc)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 1, result.output
    assert f"error: objectives[{index}]: {message}" in result.output


@pytest.mark.parametrize("record,message", [
    ({"family": "log_capacity", "w": 1.0, "a": "abc", "b": 1.0},
     "could not convert string to float: 'abc'"),
    ({"family": "sum_log", "w": [1.0], "a": 1.0, "b": 1.0, "c": ["x"], "d": [1.0]},
     "could not convert string to float: 'x'"),
], ids=["string_a", "string_c_j"])
def test_solve_names_an_unreadable_number(runner, tmp_path, record, message):
    inst = _write(tmp_path, "bad.json",
                  {"problem_class": "p1", "budget": 1.0, "objectives": [record]})
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 1, result.output
    assert f"error: objectives[0]: bad parameters: {message}" in result.output


@pytest.mark.parametrize("mode", ["cluster", "cluster_maxmin"])
def test_solve_where_a_level_leaves_the_float_range_warns_nothing(runner, tmp_path, mode):
    # Bound at 1e300, a = 1e-10 puts b/a past the float range: the solve ends
    # in its own error, not in an overflow warning raised on the way there.
    entry = {"family": "cluster_log_capacity", "w": 1, "a": 1e-10,
             "sigma_e2": 0.5, "sigma_n2": 1}
    inst = _write(tmp_path, "far.json", {"problem_class": mode, "budget": 1e300,
                                         "groups": [[entry], [entry]]})
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "error: a group's water level leaves the float range" in result.output


@pytest.mark.parametrize("first", [0, 1], ids=["inverse_mse_first", "log_capacity_first"])
def test_bisect_with_no_level_that_spends_at_most_the_budget(runner, tmp_path, first):
    # The bisect strategy's BracketFailure is one error line and exit 2, not
    # a traceback.
    objs = [InverseMse(1, 1e-310, 1), LogCapacity(1, 1, 1)]
    inst = str(tmp_path / "far.json")
    save_instance(BoxProblem(objs if first == 0 else objs[::-1], 2.0, None, [1.5, 1.5]), inst)
    result = runner.invoke(main, ["solve", inst, "--strategy", "bisect"])
    assert result.exit_code == 2, (result.output, result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: no water level spends at most the budget"]
    assert "Traceback" not in result.output


@pytest.mark.parametrize("cls", [LogCapacity, InverseMse])
@pytest.mark.parametrize("first", [0, 1])
def test_set_b_past_the_float_range_is_one_error_line(runner, tmp_path, cls, first):
    # The budget left after the log channel's tau goes to a channel whose b/a
    # leaves the float range: exit 2 with one error line, no warning raised.
    objs = [cls(1, 1e-310, 1.0), LogCapacity(1, 1, 1)]
    inst = str(tmp_path / "far.json")
    save_instance(BoxProblem(objs if first == 0 else objs[::-1], 2.0, None, [1.5, 1.5]), inst)
    result = runner.invoke(main, ["solve", inst, "--strategy", "set_b"])
    assert result.exit_code == 2, (result.output, result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: the water level leaves the float range"]
    assert "Traceback" not in result.output


@pytest.mark.parametrize("strategy", ["set_a", "set_b"])
def test_set_a_and_set_b_where_a_slope_underflows_are_one_error_line(runner, tmp_path, strategy):
    # Their deactivation loop's level misses the budget by orders of magnitude.
    inst = str(tmp_path / "underflow.json")
    save_instance(BoxProblem([LogCapacity(1, 1e-200, 1), AfRelay(1, 0.5, 1)], 2.0, None,
                             [1.5, None]), inst)
    result = runner.invoke(main, ["solve", inst, "--strategy", strategy])
    assert result.exit_code == 2, (result.output, result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: no water level spends the budget"]
    assert "Traceback" not in result.output


def test_p1_whose_level_leaves_the_float_range_is_one_error_line(runner, tmp_path):
    # The tangent steps give up on a slope that underflows; the loop's level
    # search halves the level to a subnormal one, where the af_relay demand
    # w*a*b/mu overflows to inf with no warning raised.
    inst = str(tmp_path / "subnormal.json")
    save_instance(SimplexProblem([AfRelay(1, 0.5, 1), AfRelay(1, 0.5, 2)], 1e170), inst)
    result = runner.invoke(main, ["solve", inst])
    assert result.exit_code == 2, (result.output, result.exception)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: no water level spends the budget"]
    assert "Traceback" not in result.output


def test_order_where_a_slope_underflows_solves_and_verifies(runner, tmp_path):
    # Off the log/inverse bank with the first channel's rate slope below the
    # float range: order's tangent steps hand the box to bisect, whose
    # result passes verify.
    inst, out = str(tmp_path / "underflow.json"), str(tmp_path / "underflow_result.json")
    save_instance(BoxProblem([LogCapacity(1, 1e-200, 1), AfRelay(1, 0.5, 1)], 2.0, None,
                             [1.5, None]), inst)
    solved = runner.invoke(main, ["solve", inst, "--strategy", "order", "--out", out])
    assert solved.exit_code == 0, (solved.output, solved.exception)
    verified = runner.invoke(main, ["verify", inst, out])
    assert verified.exit_code == 0, (verified.output, verified.exception)
    with open(out) as handle:
        result = json.load(handle)
    assert result["status"] == "optimal" and result["powers"] == [0.0, 2.0]
