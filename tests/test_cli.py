import contextlib
import io
import json
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacky_volumes
from stacky_volumes.cli import _scalar_report, run
from stacky_volumes.scalar import q_power, root_of_unity


def run_cli(args, tmp_path=None, input_obj=None):
    argv = list(args)
    if input_obj is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(input_obj))
        argv += ["--input", str(path)]
    out = tmp_path / "out.json" if tmp_path else None
    if out:
        argv += ["--output", str(out)]
    code = run(argv)
    report = json.loads(out.read_text()) if out and out.exists() else None
    return code, report


def test_volume_command(tmp_path):
    code, report = run_cli(
        ["volume"], tmp_path,
        {"n": 2, "torusRank": 1, "finiteOrders": [], "weights": [[1, -1]],
         "q": 3, "R": 5},
    )
    assert code == 0
    assert report["volume"]["display"] == "q^-1"
    assert abs(report["volume"]["value_at_q"] - 1 / 3) < 1e-12
    assert len(report["coefficients"]) == 5
    assert report["coefficients"][0]["display"] == "(2 - q^-1) / (q - 1)"


def test_ehrhart_command_segment(tmp_path):
    code, report = run_cli(["ehrhart"], tmp_path, {"vertices": [["0"], ["1"]]})
    assert code == 0
    assert report["limit"]["display"] == "-1"
    assert report["counts"][:4] == [2, 3, 4, 5]


def test_ehrhart_command_hrep(tmp_path):
    code, report = run_cli(
        ["ehrhart"], tmp_path,
        {"A": [["1", "0"], ["0", "1"], ["-1", "-1"]], "b": ["0", "0", "-1"]},
    )
    assert code == 0
    assert report["counts"][0] == 3
    assert report["limit"]["display"] == "-1"


def test_bps_command(tmp_path):
    code, report = run_cli(
        ["bps"], tmp_path,
        {"vertices": 1, "arrows": [], "q": 2, "gammaBound": 4, "levels": 1},
    )
    assert code == 0
    rows = {tuple(r["gamma"]): r for r in report["invariants"]}
    assert rows[(1,)]["omega"][0]["display"] == "1"
    assert rows[(2,)]["omega"][0]["display"] == "0"
    assert rows[(3,)]["omega"][0]["display"] == "0"
    assert rows[(4,)]["omega"][0]["display"] == "0"


def test_delta_command_single_cell(tmp_path):
    code, report = run_cli(["delta"], tmp_path, {"m": 1, "s": 2, "r": 5})
    assert code == 0
    assert report["differences"]["counts"] == [0, 1, 2, 3, 4]
    assert report["orbits"]["counts"] == [0, 1, 1, 2, 2]
    assert report["differences"]["limit"] == "1"


def test_plid_check_command(tmp_path):
    code, report = run_cli(
        ["plid-check"], tmp_path,
        {"gradeBound": 2, "levelBound": 1, "q": 2},
    )
    assert code == 0
    assert report["identically_zero"] is True
    assert report["mode"] == "differences"


def test_plid_check_orbit_mode(tmp_path):
    code, report = run_cli(
        ["plid-check", "--delta-mode", "orbits"], tmp_path,
        {"gradeBound": 2, "levelBound": 1, "q": 3},
    )
    assert code == 0
    assert report["identically_zero"] is False


def test_plethystic_command(tmp_path):
    values = [
        {"element": [1], "level": n,
         "value": [{"zeta": "0", "qexp": "0", "coeff": ["1"]}]}
        for n in range(1, 5)
    ]
    code, report = run_cli(
        ["plethystic"], tmp_path,
        {"op": "sym", "rank": 1, "grade": 4, "levels": 1, "values": values},
    )
    assert code == 0
    got = {(tuple(v["element"]), v["level"]): v["display"] for v in report["values"]}
    for k in range(0, 5):
        assert got[((k,), 1)] == "1"


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["kind"] == "SchemaViolation" and "invalid choice: 'frobnicate'" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["delta", "--format", "xml"], "invalid choice: 'xml'"),
    (["delta", "--levels", "abc"], "invalid int value: 'abc'"),
    (["delta", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
])
def test_argument_refusals_exit_2_with_json(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["kind"] == "SchemaViolation" and message in err["message"]


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "usage: stacky-volumes" in capsys.readouterr().out


def test_unwritable_output_refused_before_the_job(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the job ran")

    monkeypatch.setattr(stacky_volumes.cli.st, "delta_report", never)
    out = tmp_path / "missing" / "out.json"
    assert run(["delta", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["kind"] == "SchemaViolation" and "--output" in err["message"]
    assert not out.parent.exists()


def test_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2}))
    code = run(["volume", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)
    assert err["error"]["kind"] == "SchemaViolation"


def test_schema_violation_bad_weight_shape(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"n": 2, "torusRank": 1, "finiteOrders": [], "weights": [[1]], "q": 3}
    ))
    assert run(["volume", "--input", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("params, message", [
    ({"n": 1, "torusRank": 0, "finiteOrders": [2], "weights": [[1]], "q": 4},
     "order 2 does not divide q - 1 = 3"),
    ({"n": 1, "torusRank": 0, "finiteOrders": [4], "weights": [[1]], "q": 3},
     "order 4 does not divide q - 1 = 2"),
    # the stabilizer of every point contains -1 of the torus
    ({"n": 2, "torusRank": 1, "weights": [[2, -2]], "q": 3},
     "the generic point has a nontrivial stabilizer"),
], ids=["order-2-at-q-4", "order-4-at-q-3", "weights-2-minus-2"])
def test_volume_input_refusals_exit_2(tmp_path, capsys, params, message):
    # decided from the input alone, before the fibre is enumerated
    code, err = run_error(tmp_path, capsys, "volume", params)
    assert code == 2
    assert err["error"] == {"kind": "SchemaViolation", "message": message}


@pytest.mark.parametrize("grade", [3, 4, 5])
def test_plid_check_orbits_reports_residuals(tmp_path, grade):
    # the fitted limit side found no rational fit here (NoRationalFit at T^13)
    code, report = run_cli(["plid-check"], tmp_path,
                           {"gradeBound": grade, "levelBound": 1, "q": 3, "mode": "orbits"})
    assert code == 0
    assert report["mode"] == "orbits" and report["identically_zero"] is False
    assert [e["element"] for e in report["entries"]] == [[a] for a in range(1, grade + 1)]


def test_value_past_the_float_range_exits_1(tmp_path, capsys):
    # at gradeBound 1 and q = 2^31 - 1 the values leave the float range from
    # level 34 on; the report used to end in a traceback
    code, err = run_error(tmp_path, capsys, "plid-check",
                          {"gradeBound": 1, "levelBound": 40, "q": 2**31 - 1})
    assert code == 1
    assert err["error"]["kind"] == "OverflowError"


def test_compute_error_exits_1(tmp_path, capsys):
    # only the computation decides that a value leaves the float range: at
    # gradeBound 1 and q = 2^31 - 1 the first such level is 34, 33 still fits
    for levels, want in ((33, 0), (34, 1)):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"gradeBound": 1, "levelBound": levels, "q": 2**31 - 1}))
        code = run(["plid-check", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == want
        if want:
            assert json.loads(captured.out)["error"]["kind"] == "OverflowError"


@pytest.mark.parametrize("vertices, delta, big_d", [([["0"], ["1"]], 1, 2), ([["0"], ["1/2"]], 2, 2),
                                                    ([["0", "0"], ["1", "0"], ["0", "1/3"]], 3, 3)])
def test_ehrhart_truncation_below_the_fit_minimum_exits_2(tmp_path, capsys, vertices, delta, big_d):
    # the (delta, D) fit needs delta * D + delta + 2 counts, known before any count
    need = delta * big_d + delta + 2
    code, err = run_error(tmp_path, capsys, "ehrhart", {"vertices": vertices, "truncation": need - 1})
    assert code == 2 and err["error"]["kind"] == "SchemaViolation"
    assert f"below the {need} counts" in err["error"]["message"]
    code, report = run_cli(["ehrhart"], tmp_path, {"vertices": vertices, "truncation": need})
    assert code == 0 and len(report["counts"]) == need
    assert (report["fit"]["delta"], report["fit"]["D"]) == (delta, big_d)


_ONE_AT_ZERO = [{"element": [0], "level": 1, "value": [{"zeta": "0", "qexp": "0", "coeff": ["1"]}]}]


@pytest.mark.parametrize("command, params, message", [
    ("bps", {"vertices": 2, "arrows": [[0, 1, 1]], "q": 3}, "symmetric quiver"),
    ("plethystic", {"op": "log", "grade": 2, "values": _ONE_AT_ZERO}, "zero element"),
    ("plethystic", {"op": "sym", "grade": 2, "values": _ONE_AT_ZERO}, "zero element"),
    ("ehrhart", {"A": [["1"]], "b": ["0"]}, "bounded region"),
    ("ehrhart", {"vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}, "not full-dimensional"),
])
def test_input_decided_failures_exit_2(tmp_path, capsys, command, params, message):
    # a non-symmetric quiver, a value at the zero element, an unbounded body
    # and a flat hull are refused before any work, not reported as exit 1
    code, err = run_error(tmp_path, capsys, command, params)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation" and message in err["error"]["message"]


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["ehrhart", "--input", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("threads, text, message", [
    ("0", "{}", "STACKY_THREADS must be a positive integer"),
    ("\u00b2", "{}", "STACKY_THREADS must be a positive integer"),
    (None, "[1, 2]", "parameter file must hold a JSON object"),
    (None, None, "No such file or directory"),
])
def test_environment_and_input_refusals_exit_2(tmp_path, capsys, monkeypatch, threads, text,
                                                message):
    if threads is None:
        monkeypatch.delenv("STACKY_THREADS", raising=False)
    else:
        monkeypatch.setenv("STACKY_THREADS", threads)
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    assert run(["delta", "--input", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "SchemaViolation" and message in err["message"]


def test_determinism_byte_identical(tmp_path):
    job = {"n": 1, "torusRank": 0, "finiteOrders": [2], "weights": [[1]],
            "q": 5, "R": 6}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(job))
    # The subprocess imports the same package as this process, whether it
    # comes from a source checkout (PYTHONPATH=src) or an install.
    import_root = str(Path(stacky_volumes.__file__).resolve().parents[1])
    outputs = []
    for i, threads in enumerate(("1", "4")):
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_volumes.cli", "volume",
             "--input", str(path)],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root,
                 "STACKY_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_import_loads_only_stdlib_numpy_and_the_package():
    """Importing the CLI loads, beyond a bare interpreter's modules, only the
    standard library, numpy and stacky_volumes: no other package can add to
    the start-up time of every command."""
    import_root = str(Path(stacky_volumes.__file__).resolve().parents[1])
    script = ("import json, sys; before = set(sys.modules); import stacky_volumes.cli; "
              "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert {"numpy", "stacky_volumes"} <= set(loaded)
    assert [m for m in loaded if m not in sys.stdlib_module_names
            and m not in ("numpy", "stacky_volumes")] == []


def test_tsv_format(tmp_path):
    job = {"vertices": [["0"], ["1"]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(job))
    out = tmp_path / "out.tsv"
    code = run(["ehrhart", "--input", str(path), "--format", "tsv",
                "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "limit.display\t-1" in text


def test_flag_overrides(tmp_path):
    code, report = run_cli(
        ["ehrhart", "--truncation", "8"], tmp_path, {"vertices": [["0"], ["1"]]}
    )
    assert code == 0
    assert len(report["counts"]) == 8


def test_ehrhart_fractional_point(tmp_path):
    code, report = run_cli(["ehrhart"], tmp_path, {"vertices": [["1/2"]]})
    assert code == 0
    assert report["counts"][:4] == [0, 1, 0, 1]
    assert report["limit"]["display"] == "-1"


def test_plethystic_log_direct_matches_log(tmp_path):
    values = [
        {"element": [1], "level": n,
         "value": [{"zeta": "0", "qexp": "0", "coeff": ["1"]}]}
        for n in range(1, 4)
    ]
    reports = []
    for op in ("log", "log_direct"):
        code, report = run_cli(
            ["plethystic"], tmp_path,
            {"op": op, "rank": 1, "grade": 3, "levels": 1, "values": values},
        )
        assert code == 0
        reports.append(report["values"])
    assert reports[0] == reports[1]


def test_fbar_gerbe_trivial_on_plain_toric_data(tmp_path):
    # "gerbe" is a documented alias of "one": plain toric data carry no gerbe
    texts = []
    for fbar in ("one", "gerbe"):
        job = {"n": 2, "torusRank": 1, "finiteOrders": [], "weights": [[1, -1]],
               "q": 3, "R": 5, "fbar": fbar}
        path = tmp_path / f"{fbar}.json"
        path.write_text(json.dumps(job))
        out = tmp_path / f"{fbar}.out"
        assert run(["volume", "--input", str(path), "--output", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def run_error(tmp_path, capsys, command, params):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(params))
    code = run([command, "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_missing_integer_fields_take_defaults(tmp_path):
    code, report = run_cli(["bps"], tmp_path, {"vertices": 1, "q": 2})
    assert code == 0
    assert (report["gamma_bound"], report["levels"]) == (4, 1)


@pytest.mark.parametrize("command, params, field", [
    ("bps", {"vertices": 1, "q": 2, "levels": 0}, "levels"),
    ("bps", {"vertices": 1, "q": 2, "gammaBound": "abc"}, "gammaBound"),
    ("volume", {"n": 2, "torusRank": 1, "weights": [[1, -1]], "q": 3, "R": -2}, "R"),
    ("plid-check", {"gradeBound": 2.5}, "gradeBound"),
    ("delta", {"max_m": True}, "max_m"),
    ("delta", {"m": 0, "s": 1}, "m"),
    ("delta", {"m": True, "s": 1}, "m"),
    ("delta", {"m": 1, "s": 0}, "s"),
    ("volume", {"n": 1, "torusRank": -1, "finiteOrders": [2, 2], "weights": [[1]], "q": 3},
     "torusRank"),
    ("volume", {"n": -1, "torusRank": 1, "weights": [[1, -1]], "q": 3}, "n"),
    ("volume", {"n": 2.0, "torusRank": 1, "weights": [[1, -1]], "q": 3}, "n"),
    ("bps", {"vertices": 0, "q": 2}, "vertices"),
    ("volume", {"n": 1, "torusRank": 0, "finiteOrders": [0], "weights": [[1]], "q": 3},
     "finiteOrders"),
    ("volume", {"n": 1, "torusRank": 0, "finiteOrders": [-2], "weights": [[1]], "q": 3},
     "finiteOrders"),
])
def test_bad_integer_field_exits_2(tmp_path, capsys, command, params, field):
    code, err = run_error(tmp_path, capsys, command, params)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert repr(field) in err["error"]["message"]


@pytest.mark.parametrize("command, params", [
    ("volume", {"n": 2, "torusRank": 1, "weights": [[1, -1]], "q": 6}),
    ("bps", {"vertices": 1, "q": 6}),
    ("plid-check", {"q": 6}),
])
def test_q_not_a_prime_power_exits_2(tmp_path, capsys, command, params):
    code, err = run_error(tmp_path, capsys, command, params)
    assert code == 2
    assert "prime power" in err["error"]["message"]


class _TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise _TooSlow


@pytest.mark.parametrize("command, params", [
    ("volume", {"n": 2, "torusRank": 1, "weights": [[1, -1]]}),
    ("bps", {"vertices": 1}),
    ("plid-check", {}),
])
def test_q_above_bound_exits_2_within_a_second(tmp_path, capsys, command, params):
    # 2^61 - 1 is prime; factoring it by trial division would take minutes
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, command, {**params, "q": 2**61 - 1})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "'q'" in err["error"]["message"] and "2^31" in err["error"]["message"]


@pytest.mark.parametrize("params, limit", [
    # the integer form of dilation 3 has coefficients near 10^18 * 3
    ({"vertices": [["0", "0"], ["3", "1/1000000007"], ["1/1000000009", "2"]],
      "truncation": 3}, "int64 limit 2^63"),
    # the default truncation of the same triangle is about 4 * 10^18
    ({"vertices": [["0", "0"], ["3", "1/1000000007"], ["1/1000000009", "2"]]},
     "int64 limit 2^63"),
    # 3.3 * 10^10 prefix points at r = 1, a 248 GiB box before chunking
    ({"vertices": [["0", "0"], ["100000000000/3", "0"], ["0", "1"]], "truncation": 2},
     "prefix-grid budget"),
    # a point: one prefix point per dilation, but a billion dilations
    ({"A": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]], "b": ["0", "0", "0", "0"],
      "truncation": 10**9}, "prefix-grid budget"),
    ({"vertices": [["1/1000000007"], ["1"]]}, "prefix-grid budget"),
    # Fraction would build a number of a hundred million digits
    ({"vertices": [["0"], ["1e99999999"]]}, "decimal exponent"),
    # P's integer rows stay near 2^60, but its projection along y has the row
    # (2^61 - 1) x >= 2^60 - 1, whose terms pass 2^63 at dilation 2
    ({"A": [["1", str(2**60)], ["1", str(1 - 2**60)], ["-1", "0"]], "b": ["1", "0", "-2"],
      "truncation": 2}, "int64 limit 2^63"),
])
def test_ehrhart_over_a_limit_exits_2_within_a_second(tmp_path, capsys, params, limit):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, "ehrhart", params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert limit in err["error"]["message"]


@pytest.mark.parametrize("params", [
    # the known hang: an estimate of about 465 million
    {"vertices": 1, "arrows": [[0, 0, 2]], "q": 2, "gammaBound": 40},
    # 6,766,688, just over the budget; gammaBound 16 is admitted
    {"vertices": 1, "arrows": [[0, 0, 2]], "q": 2, "gammaBound": 17},
    {"vertices": 10**9, "q": 2},
    # each was still running after 60 s when the budget charged neither the
    # arrow count nor the level of a value
    {"vertices": 1, "arrows": [[0, 0, 10000]], "q": 2, "gammaBound": 6, "levels": 2},
    # mixed bits run the logarithm at every level (coherent bits are admitted)
    {"vertices": 1, "q": 2, "gammaBound": 1, "levels": 5000, "half_l": "1,0"},
    {"vertices": 1, "arrows": [[0, 0, 10**9]], "q": 2, "gammaBound": 1},
    {"vertices": 1, "q": 2, "gammaBound": 1, "levels": 10**9},
])
def test_bps_over_budget_exits_2_within_a_second(tmp_path, capsys, params):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, "bps", params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert "bps budget of 6,000,000" in err["error"]["message"]


def test_bps_many_levels_by_adams_run_within_a_second(tmp_path):
    """Coherent bits run the logarithm at level 1 only and substitute into
    every further level: 5,000 levels at gammaBound 1, refused while each
    level ran the logarithm, take about 0.1 s."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, report = run_cli(["bps"], tmp_path,
                               {"vertices": 1, "q": 2, "gammaBound": 1, "levels": 5000})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    (row,) = report["invariants"]
    assert row["gamma"] == [1] and len(row["omega"]) == 5000
    assert {r["display"] for r in row["omega"]} == {"1"}


@pytest.mark.parametrize("weights, R, row_sum", [
    # each climbed volume_fit's whole ladder before exiting 1 (12.2 s, 5.4 s,
    # 1.4 s, 1.3 s), and the last was still running at 40 s
    ([[1, -2]], 12, -1),
    ([[1, 1]], 12, 2),
    ([[1, 1, -1]], 12, 1),
    ([[1, 0]], 12, 1),
    ([[1] * 7], 19, 7),
])
def test_volume_torus_row_with_nonzero_sum_exits_2_within_a_second(
        tmp_path, capsys, weights, R, row_sum):
    params = {"n": len(weights[0]), "torusRank": 1, "weights": weights, "q": 3, "R": R}
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, "volume", params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert f"torus row 0 of 'weights' sums to {row_sum}" in err["error"]["message"]


@pytest.mark.parametrize("weights", [[[1, 1, -2]], [[1, -1, 1, -1]]])
def test_volume_torus_rows_summing_to_zero_fit(tmp_path, weights):
    code, report = run_cli(["volume"], tmp_path,
                           {"n": len(weights[0]), "torusRank": 1, "weights": weights, "q": 3})
    assert code == 0
    assert "volume" in report and report["fit"]


def test_bps_within_the_budget_runs(tmp_path):
    """The 2-loop quiver at gammaBound 10 and 2 levels, refused before the
    plethystic logarithm kept only the slots it reads, now takes 0.3 s."""
    code, report = run_cli(
        ["bps"], tmp_path,
        {"vertices": 1, "arrows": [[0, 0, 2]], "q": 2, "gammaBound": 10, "levels": 2},
    )
    assert code == 0
    assert [r["gamma"] for r in report["invariants"]] == [[a] for a in range(1, 11)]


@pytest.mark.parametrize("command, params, budget", [
    # without the budgets, each input below ran for 7.0 s (gradeBound 13), 6.8 s
    # (gradeBound 8 in orbits mode) or was still running when killed at 20-30 s,
    # except the 10^9 and 10^6 ones
    ("delta", {"m": 1, "s": 40, "r": 24}, "delta budget of 3,000,000"),
    ("delta", {"max_m": 2, "max_s": 9, "max_r": 24}, "delta budget of 3,000,000"),
    ("delta", {"m": 1, "s": 3, "r": 3000000}, "delta budget of 3,000,000"),
    ("delta", {"max_m": 10**9, "max_s": 1}, "delta budget of 3,000,000"),
    ("plid-check", {"gradeBound": 13, "levelBound": 1, "q": 3}, "plid-check budget of 3,000,000"),
    ("plid-check", {"gradeBound": 2, "levelBound": 400, "q": 3},
     "plid-check budget of 3,000,000"),
    ("plid-check", {"gradeBound": 10**9}, "plid-check budget of 3,000,000"),
    ("volume", {"n": 2, "torusRank": 1, "finiteOrders": [], "weights": [[1, -1]], "q": 3,
                "R": 2000}, "volume budget of 3,000,000"),
    # volume_fit's first ansatz has delta = 4095, so about 12,000 terms
    ("volume", {"n": 1, "torusRank": 0, "finiteOrders": [4095], "weights": [[1]], "q": 4096,
                "R": 2}, "volume budget of 3,000,000"),
    # 3^12 fibre points, under the library's cap of 2 * 10^6
    ("volume", {"n": 12, "torusRank": 1, "finiteOrders": [], "weights": [[1] * 12], "q": 3},
     "volume budget of 3,000,000"),
    ("volume", {"n": 10**6, "torusRank": 0, "weights": [], "q": 2}, "volume budget of 3,000,000"),
    ("plid-check", {"gradeBound": 8, "levelBound": 1, "q": 3, "mode": "orbits"},
     "plid-check budget of 3,000,000"),
    ("plid-check", {"gradeBound": 1, "levelBound": 10**12}, "plid-check budget of 3,000,000"),
])
def test_over_a_cost_budget_exits_2_within_a_second(tmp_path, capsys, command, params, budget):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, command, params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert budget in err["error"]["message"]


@pytest.mark.parametrize("command, params", [
    ("delta", {"max_m": 3, "max_s": 3, "max_r": 24}),
    ("delta", {"m": 2, "s": 3, "r": 24}),
    ("delta", {"m": 1, "s": 7, "r": 24, "mode": "differences"}),
    ("plid-check", {"gradeBound": 3, "levelBound": 3, "q": 5}),
    ("volume", {"n": 3, "torusRank": 2, "finiteOrders": [], "weights": [[1, -1, 0], [0, 1, -1]],
                "q": 3, "R": 12}),
    ("volume", {"n": 2, "torusRank": 0, "finiteOrders": [6], "weights": [[1, 1]], "q": 7, "R": 8}),
    ("volume", {"n": 2, "torusRank": 1, "finiteOrders": [2], "weights": [[1, -1], [1, 0]],
                "q": 7, "R": 8}),
    # refused while the limit side was a fitted series (0.8 s and 1.5 s then)
    ("plid-check", {"gradeBound": 7, "levelBound": 1, "q": 3}),
    ("plid-check", {"gradeBound": 8, "levelBound": 1, "q": 3}),
])
def test_jobs_within_a_cost_budget_run(tmp_path, command, params):
    code, report = run_cli([command], tmp_path, params)
    assert code == 0 and "error" not in report


@pytest.mark.parametrize("command, params, field", [
    ("delta", {"m": 1}, "'s'"),
    ("volume", {"n": 2, "weights": [[1, -1]], "q": 3}, "'torusRank'"),
    ("bps", {"q": 2}, "'vertices'"),
    ("ehrhart", {"vertices": []}, "'vertices'"),
    ("ehrhart", {"vertices": [["0"], ["1", "2"]]}, "'vertices'"),
    ("ehrhart", {"A": [["1"]], "b": []}, "'A'"),
    ("plid-check", {"mode": "both"}, "mode"),
    ("bps", {"vertices": 1, "q": 2, "arrows": [[0, 0]]}, "arrow"),
    ("bps", {"vertices": 1, "q": 2, "arrows": [[0, 0, "1"]]}, "arrow"),
    ("bps", {"vertices": 1, "q": 2, "arrows": [[0, 1, 1]]}, "arrow"),
    ("bps", {"vertices": 1, "q": 2, "half_l": [1, 1.5]}, "half_l"),
    ("bps", {"vertices": 1, "q": 2, "half_l": 5}, "half_l"),
    ("volume", {"n": 2, "torusRank": 1, "weights": [[1, -1]], "q": 3, "fiber": "generic"},
     "'fiber'"),
])
def test_missing_or_malformed_field_exits_2(tmp_path, capsys, command, params, field):
    code, err = run_error(tmp_path, capsys, command, params)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert field in err["error"]["message"]


ONE = [{"zeta": "0", "qexp": "0", "coeff": ["1"]}]


@pytest.mark.parametrize("entry", [
    {"level": 1, "value": ONE},
    {"element": [1], "value": ONE},
    {"element": [1], "level": 1},
    {"element": [1, 0], "level": 1, "value": ONE},
    {"element": [1], "level": 0, "value": ONE},
    {"element": [1], "level": 1, "value": "one"},
    {"element": [1], "level": 1, "value": {"num": ONE, "den": []}},
    {"element": [1], "level": 1, "value": [{"zeta": "0", "qexp": "0", "coeff": ["1/0"]}]},
    {"element": [1], "level": 1, "value": [{"zeta": "0", "qexp": float("inf"), "coeff": ["1"]}]},
    {"element": [1], "level": 1, "value": [{"zeta": float("nan"), "qexp": "0", "coeff": ["1"]}]},
])
def test_plethystic_bad_entry_exits_2(tmp_path, capsys, entry):
    code, err = run_error(tmp_path, capsys, "plethystic",
                          {"op": "sym", "rank": 1, "grade": 2, "values": [entry]})
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"


def test_plethystic_element_over_the_grade_exits_2(tmp_path, capsys):
    code, err = run_error(tmp_path, capsys, "plethystic", {
        "rank": 1, "op": "sym", "grade": 2, "levels": 1,
        "values": [{"element": [3], "level": 1, "value": ONE}]})
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert "[3]" in err["error"]["message"] and "'grade' = 2" in err["error"]["message"]


@pytest.mark.parametrize("params, field", [
    ({"n": 1, "torusRank": 0, "finiteOrders": [True], "weights": [[1]], "q": 3},
     "finiteOrders"),
    ({"n": 2, "torusRank": 1, "weights": [[True, -1]], "q": 3}, "weights"),
])
def test_volume_boolean_entries_exit_2(tmp_path, capsys, params, field):
    code, err = run_error(tmp_path, capsys, "volume", params)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert field in err["error"]["message"]


@pytest.mark.parametrize("command, params", [
    ("delta", {"m": 1, "s": 2, "r": 4}),
    ("plid-check", {"gradeBound": 1, "levelBound": 1}),
])
@pytest.mark.parametrize("modes, field", [
    ({"mode": ""}, "mode"), ({"mode": None}, "mode"), ({"mode": 0}, "mode"),
    ({"mode": False}, "mode"), ({"mode": []}, "mode"), ({"mode": "both"}, "mode"),
    ({"delta_mode": None}, "delta_mode"), ({"delta_mode": "", "mode": "orbits"}, "delta_mode"),
])
def test_invalid_mode_exits_2_naming_the_field(tmp_path, capsys, command, params, modes, field):
    code, err = run_error(tmp_path, capsys, command, {**params, **modes})
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert repr(field) in err["error"]["message"]


def test_delta_mode_flag_overrides_file_mode(tmp_path):
    code, report = run_cli(["delta", "--delta-mode", "orbits"], tmp_path,
                           {"m": 1, "s": 2, "r": 4, "mode": "differences"})
    assert code == 0
    assert "orbits" in report and "differences" not in report


def _term(zeta, qexp, *coeffs):
    return {"zeta": zeta, "qexp": qexp, "coeff": list(coeffs)}


def _one_value(value, grade=4, levels=1):
    return {"op": "log", "grade": grade, "levels": levels,
            "values": [{"element": [1], "level": 1, "value": value}]}


@pytest.mark.parametrize("params, bound", [
    # empty values ran 25 s, then ran out of memory under a 2 GB limit
    ({"op": "log", "grade": 3000, "levels": 3000, "values": []}, "level budget of 10,000"),
    # a single zeta_1009^1008 took 38 s; its conductor is not even factored
    (_one_value([_term("1008/1009", "0", "1")], grade=2), "conductor bound of 120"),
    (_one_value([_term("1/3", "0", "1"), _term("1/4", "0", "1"), _term("1/11", "0", "1")]),
     "conductor bound of 120"),
    # a root of unity of order 3 over a denominator of two terms: the bound
    # is 2 because a cyclotomic denominator is cleared by its norm, of
    # phi(M) times its degree
    (_one_value({"num": [_term("1/3", "0", "1")],
                 "den": [_term("0", "2", "1"), _term("0", "1", "1000000000000")]}),
     "conductor bound of 2 for values with denominators"),
    # den q^100000 - 1 took 29.6 s
    (_one_value({"num": [_term("0", "0", "1")],
                 "den": [_term("0", "100000", "1"), _term("0", "0", "-1")]}), "span budget"),
    (_one_value({"num": [_term("0", "1/1000000007", "1")],
                 "den": [_term("0", "1/1000000009", "1"), _term("0", "0", "-1")]}), "span budget"),
    # Fraction would build a number of a billion digits
    (_one_value([_term("0", "1e999999999", "1")]), "decimal exponent"),
])
def test_plethystic_over_a_bound_exits_2_within_a_second(tmp_path, capsys, params, bound):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, err = run_error(tmp_path, capsys, "plethystic", params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"
    assert bound in err["error"]["message"]


def test_input_number_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    # json raises a plain ValueError for an integer of more than 4300 digits
    path = tmp_path / "in.json"
    path.write_text('{"op": "log", "values": [{"element": [1], "level": 1, "value": '
                    '[{"zeta": "0", "qexp": "0", "coeff": [' + "7" * 5000 + ']}]}]}')
    assert run(["plethystic", "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SchemaViolation"


def test_plethystic_one_term_denominators_pass_the_guards(tmp_path):
    # dividing by zeta_4 q^2 or by 1/2 leaves a Laurent value, with no gcd to take
    code, report = run_cli(["plethystic"], tmp_path, _one_value(
        {"num": [_term("1/3", "0", "1")], "den": [_term("1/4", "2", "1/2")]}, grade=2))
    assert code == 0
    assert report["values"][0]["display"] == "(-2*z[7/12])*q^-2"


def test_scalar_report_decides_real_exactly():
    # zeta_4 q^-40 at q = 5: the imaginary part 5^-40 is far below 1e-12, but
    # the value is not fixed by complex conjugation
    z = root_of_unity(Fraction(1, 4)) * q_power(-40)
    value = _scalar_report(z, 5)["value_at_q"]
    assert isinstance(value, list) and abs(value[1] / 5.0**-40 - 1) < 1e-12
    # zeta_8 - zeta_8^3 = sqrt(2) is real, although its basis terms are not
    sqrt2 = root_of_unity(Fraction(1, 8)) - root_of_unity(Fraction(3, 8))
    assert sqrt2.is_real() and abs(_scalar_report(sqrt2, 5)["value_at_q"] - 2**0.5) < 1e-15
    third = root_of_unity(Fraction(1, 3))
    assert not third.is_real() and (third + root_of_unity(Fraction(2, 3))).is_real()
    assert not (third / (q_power(1) - 2)).is_real()
    assert ((third + third * third) / (q_power(1) - 2)).is_real()
    assert _scalar_report(q_power(-1), 5)["value_at_q"] == 0.2


# -- a hypothesis fuzz test of plethystic values ---------------------------------

_ZETA = st.builds("{}/{}".format, st.integers(-13, 13), st.sampled_from([1, 2, 3, 4, 8, 12, 15]))
_QEXP = st.one_of(st.builds("{}/{}".format, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                  st.sampled_from(["100000", "-3000000", "1/1000000000000000003"]))
# large numerators and denominators
_COEFF = st.one_of(st.integers(-4, 4).filter(bool).map(str),
                   st.builds("{}/{}".format, st.integers(-10**25, 10**25), st.integers(1, 10**25)))


def _values(zeta):
    poly = st.lists(st.fixed_dictionaries({"zeta": zeta, "qexp": _QEXP,
                                           "coeff": st.lists(_COEFF, min_size=1, max_size=2)}),
                    min_size=1, max_size=3)
    return st.lists(st.fixed_dictionaries({
        "element": st.integers(1, 3).map(lambda i: [i]), "level": st.integers(1, 3),
        "value": st.one_of(poly, st.fixed_dictionaries({"num": poly, "den": poly}))}),
        max_size=4)


# malformed or out-of-bound replacements for one field
_ODD = st.sampled_from([
    None, True, [], {}, "", "x", "1/0", "--1", "nan", "inf", "1e99999999", "1e-99999999",
    "0.25", "1e3", " 2 ", "1_0", float("inf"), float("nan"), -0.5, 10**30, "1/121",
    "1/100000000000000000039", "REMOVE"])


def _paths(obj, path=()):
    """Every dict key and list index under obj, as paths from it."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, path + (k,))


def _mutated(params, data):
    """params, or, half the time, params with one field anywhere under it
    replaced by a malformed or out-of-bound one, or removed."""
    if data.draw(st.booleans()):
        *parent, key = data.draw(st.sampled_from(list(_paths(params))))
        node = params
        for k in parent:
            node = node[k]
        odd = data.draw(_ODD)
        if odd == "REMOVE" and isinstance(node, dict):
            del node[key]
        else:
            node[key] = odd
    return params


def _run_within_a_second(path, command, params):
    """(exit code, stdout, stderr) of the command on params, failing with
    _TooSlow after one second."""
    path.write_text(json.dumps(params))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--input", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(op=st.sampled_from(["sym", "log", "log_direct"]), grade=st.integers(1, 4),
       data=st.data())
def test_plethystic_values_fuzz(tmp_path_factory, op, grade, data):
    """Any values give exit 0, 1 or 2 with a JSON object, within a second:
    well-formed ones, with rational or cyclotomic coefficients, and ones with
    one field replaced by a malformed or out-of-bound one, or removed."""
    zeta = data.draw(st.sampled_from([st.sampled_from(["0", "1/2", "-1/2"]), _ZETA]))
    params = _mutated({"op": op, "grade": grade, "values": data.draw(_values(zeta))}, data)
    code, out, _ = _run_within_a_second(
        tmp_path_factory.getbasetemp() / "plethystic-fuzz.json", "plethystic", params)
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)


# -- a hypothesis fuzz test of every command ---------------------------------------

_RAT = st.sampled_from(["0", "1", "2", "-1", "1/2", "3/2"])


def _rows(k, d, entry):
    return st.lists(st.lists(entry, min_size=d, max_size=d), min_size=k, max_size=k)


@st.composite
def _ehrhart_params(draw):
    d, k = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    params = draw(st.one_of(st.fixed_dictionaries({"vertices": _rows(k, d, _RAT)}),
                            st.fixed_dictionaries({"A": _rows(k, d, _RAT),
                                                   "b": _rows(1, k, _RAT).map(lambda r: r[0])})))
    return params | draw(st.fixed_dictionaries({}, optional={"truncation": st.integers(1, 8)}))


@st.composite
def _volume_params(draw):
    n, k = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    finite = draw(st.lists(st.integers(1, 3), max_size=1))
    return {"n": n, "torusRank": k, "finiteOrders": finite,
            "weights": draw(_rows(k + len(finite), n, st.integers(-1, 1))),
            "q": draw(st.sampled_from([2, 3, 4, 5])), "R": draw(st.integers(1, 4)),
            **draw(st.fixed_dictionaries({}, optional={"fbar": st.sampled_from(["one", "gerbe"])}))}


@st.composite
def _bps_params(draw):
    v = draw(st.integers(1, 2))
    arrows = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=2, max_size=2).map(
        lambda a: a + [1]), max_size=2))
    return {"vertices": v, "arrows": arrows, "q": draw(st.sampled_from([2, 3, 4, 5])),
            "gammaBound": draw(st.integers(1, 3)), "levels": draw(st.integers(1, 2)),
            "half_l": draw(st.sampled_from(["1,1", "0,0", "0,1"]))}


_MODE = st.sampled_from(["differences", "orbits"])
_NEAR_VALID = {
    "ehrhart": _ehrhart_params(),
    "volume": _volume_params(),
    "bps": _bps_params(),
    "delta": st.one_of(
        st.fixed_dictionaries({"m": st.integers(1, 3), "s": st.integers(1, 3),
                               "r": st.integers(1, 10)}, optional={"mode": _MODE}),
        st.fixed_dictionaries({"max_m": st.just(1), "max_s": st.integers(1, 2),
                               "max_r": st.integers(4, 8)})),
    "plid-check": st.fixed_dictionaries(
        {"gradeBound": st.integers(1, 2), "levelBound": st.integers(1, 2),
         "q": st.sampled_from([2, 3, 4, 5])}, optional={"mode": _MODE}),
    "plethystic": st.fixed_dictionaries(
        {"op": st.sampled_from(["sym", "log", "log_direct"]), "rank": st.just(1),
         "grade": st.integers(1, 3), "levels": st.integers(1, 2),
         "values": st.lists(st.fixed_dictionaries({
             "element": st.integers(0, 3).map(lambda i: [i]), "level": st.integers(1, 2),
             "value": st.lists(st.fixed_dictionaries({
                 "zeta": st.sampled_from(["0", "1/2", "1/3"]), "qexp": _RAT,
                 "coeff": st.lists(_RAT, min_size=1, max_size=2)}), min_size=1, max_size=2)}),
             max_size=3)}),
}


# the kinds README's exit-code paragraph lists as the ones that may exit 1
_EXIT_1_KINDS = {"NoRationalFit", "DegreePositive", "OverflowError"}


@settings(max_examples=120)
@given(command=st.sampled_from(sorted(_NEAR_VALID)), data=st.data())
def test_every_command_fuzz(tmp_path_factory, command, data):
    """Near-valid parameters for any command, and the same with one field
    replaced by a malformed or out-of-bound one, or removed: exit 0, 1 or 2
    within a second, one JSON object on stdout and nothing on stderr, and
    every exit 1 is of a kind README lists and names the module that failed."""
    params = _mutated(data.draw(_NEAR_VALID[command]), data)
    code, out, err = _run_within_a_second(
        tmp_path_factory.getbasetemp() / "command-fuzz.json", command, params)
    assert code in (0, 1, 2)
    report = json.loads(out)
    assert isinstance(report, dict) and err == ""
    if code == 1:
        assert report["error"]["kind"] in _EXIT_1_KINDS, report
        assert "module" in report["error"] or report["error"]["kind"] == "OverflowError", report
