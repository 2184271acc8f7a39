import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import stacky_volumes
from stacky_volumes.cli import run


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


def test_module_error_nonsplit_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"n": 1, "torusRank": 0, "finiteOrders": [2], "weights": [[1]], "q": 4}
    ))
    code = run(["volume", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.out)
    assert err["error"]["kind"] == "NonSplitFiniteGroup"
    assert err["error"]["module"] == "stacky"


def test_compute_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # half-line: unbounded fiber polytope
    path.write_text(json.dumps({"A": [["1"]], "b": ["0"]}))
    code = run(["ehrhart", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.out)
    assert err["error"]["kind"] == "Unbounded"
    assert err["error"]["module"] == "ehrhart"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["ehrhart", "--input", str(path)]) == 2
    capsys.readouterr()


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
])
def test_plethystic_bad_entry_exits_2(tmp_path, capsys, entry):
    code, err = run_error(tmp_path, capsys, "plethystic",
                          {"op": "sym", "rank": 1, "grade": 2, "values": [entry]})
    assert code == 2
    assert err["error"]["kind"] == "SchemaViolation"


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


def test_delta_mode_flag_overrides_file_mode(tmp_path):
    code, report = run_cli(["delta", "--delta-mode", "orbits"], tmp_path,
                           {"m": 1, "s": 2, "r": 4, "mode": "differences"})
    assert code == 0
    assert "orbits" in report and "differences" not in report
