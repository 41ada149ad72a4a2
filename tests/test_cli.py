"""Command-line behavior: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time

import nlqclab
from nlqclab import cli, engine, pauli, teleport

from test_geometry import peak_test_configs


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gh_exhaustive_truth_table(capsys):
    code, out = run(capsys, "gh", "--strategy", "and", "--exhaustive", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,side,terminal"
    assert len(lines) == 5
    sides = [line.split(",")[2] for line in lines[1:]]
    assert sides == ["0", "0", "0", "1"]


def test_geometry_marginal_preset(capsys):
    code, out = run(capsys, "geometry", "--preset", "marginal")
    assert code == 0
    row = json.loads(out)[0]
    assert row["region_nonempty"] is True
    assert abs(row["ridge_length"]) < 1e-6
    assert abs(row["mutual_information_length_units"]) < 1e-9


def test_geometry_reports_an_empty_scattering_region(capsys):
    # the outputs' pasts share no point of the causal window and no causal
    # diamond lies above an input: the row says so, with ridge 0 and I = 0
    for index in (45, 49, 67, 72):
        cfg = peak_test_configs()[index]
        points = [f"{p.t!r},{p.theta!r}" for p in cfg.inputs() + cfg.outputs()]
        code, out = run(capsys, "geometry", *(
            arg for flag, point in zip(("--c0", "--c1", "--r0", "--r1"), points) for arg in (flag, point)
        ))
        assert code == 0
        row = json.loads(out)[0]
        assert row["region_nonempty"] is False and row["region_margin"] < 0
        assert row["ridge_length"] == 0.0 and row["mutual_information_length_units"] == 0.0


def test_pbt_csv_columns(capsys):
    code, out = run(capsys, "pbt", "--N", "1", "2", "--out", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "N,d_A,choi_fidelity,choi_trace_distance,paper_bound"


def test_bk_reaches_eight_ports(capsys):
    code, out = run(capsys, "bk", "--unitary", "cnot", "--N", "2", "8")
    doc = json.loads(out)
    assert code == 0 and doc["monotone_decreasing"] is True
    row = doc["rows"][-1]
    assert row["N"] == 8
    assert abs(row["choi_trace_distance"] - (1 - teleport.pgm_fidelity(4, 8))) < 1e-12


def test_pbt_answers_past_the_dense_cap(capsys):
    # D = 2^21 is past teleport.POVM_DIM_CAP; the channel is the closed form
    start = time.perf_counter()
    code, out = run(capsys, "pbt", "--dA", "2", "--N", "20")
    assert time.perf_counter() - start < 2.0
    row = json.loads(out)[0]
    assert code == 0 and row["N"] == 20
    assert abs(row["choi_trace_distance"] - (1 - teleport.pgm_fidelity(2, 20))) < 1e-12


def test_pbt_surgery_answers_past_the_dense_cap(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "surgery", "--mode", "pbt", "--N", "20")
    assert time.perf_counter() - start < 2.0
    doc = json.loads(out)
    assert code == 0 and doc["N"] == 20
    want = 1 - teleport.pgm_fidelity(2, 20)
    assert sorted(doc["choi_distance_by_label"]) == ["0", "1"]
    for dist in doc["choi_distance_by_label"].values():
        assert abs(dist - want) < 1e-12


def test_pbt_past_the_diagram_cap_is_one_error_line(capsys):
    code = cli.main(["pbt", "--dA", "4", "--N", "520"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(teleport.PGM_DIAGRAM_CAP) in captured.err


def test_identical_invocations_are_byte_identical(capsys):
    _, first = run(capsys, "clifford-nlqc", "--d", "2", "--n", "2", "--seed", "5")
    _, second = run(capsys, "clifford-nlqc", "--d", "2", "--n", "2", "--seed", "5")
    assert first == second
    assert json.loads(first)["exact"] is True


def test_bound_check_reports_both_constants(capsys):
    code, out = run(capsys, "bound-check", "--samples", "3", "--seed", "1")
    doc = json.loads(out)
    assert doc["all_full_I_hold"] is True
    assert code == 0
    assert {"half_I_holds", "full_I_holds"} <= set(doc["samples"][0])


def test_surgery_report_fields(capsys):
    code, out = run(capsys, "surgery", "--mode", "clifford", "--seed", "3")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is True
    assert doc["n_prime"] == 2 * doc["pairs"]
    assert doc["gate_count"] <= 4 * doc["pairs"]
    assert doc["path"] == "tableau"


def test_clifford_report_names_the_sweep_path(capsys):
    code, out = run(capsys, "clifford-nlqc", "--d", "3", "--n", "3", "--seed", "2")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is True and doc["path"] == "tableau"


def test_surgery_protocol_file_builds_the_protocol_once(tmp_path, capsys, monkeypatch):
    calls = {"protocol": 0, "unitary": 0}
    build, unitary = engine.clifford_protocol, pauli.CliffordCircuit.unitary

    def counted_protocol(*args, **kwargs):
        calls["protocol"] += 1
        return build(*args, **kwargs)

    def counted_unitary(self):
        calls["unitary"] += 1
        return unitary(self)

    monkeypatch.setattr(engine, "clifford_protocol", counted_protocol)
    monkeypatch.setattr(pauli.CliffordCircuit, "unitary", counted_unitary)
    circuit = {"d": 3, "n": 3, "gates": [{"g": "CNOT", "q": [0, 2], "pow": 1}, {"g": "H", "q": [1]}]}
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps({"n0": 1, "n1": 2, "resource": {"pairs": 1}, "split_circuit": circuit}))
    code, out = run(capsys, "surgery", "--protocol", str(path))
    assert code == 0 and json.loads(out)["exact"] is True
    assert calls == {"protocol": 1, "unitary": 1}


def test_usage_error_exit_code(capsys):
    assert cli.main(["geometry"]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 2


def test_unitary_past_the_cap_is_one_error_line(capsys):
    # 2^24 entries at n = 12 is 4x qudit.STATE_ENTRY_CAP: refused before allocating
    start = time.perf_counter()
    code = cli.main(["clifford-nlqc", "--d", "2", "--n", "12", "--split", "6", "--seed", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: unitary of 16777216 entries exceeds cap 4194304\n"
    assert elapsed < 2.0


def test_suite_quick_passes(capsys):
    code, out = run(capsys, "suite", "--quick")
    doc = json.loads(out)
    assert code == 0 and doc["all_passed"] is True


def test_code_route_table(capsys):
    code, out = run(capsys, "code-route", "--f", "and", "--d", "3", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,side,fidelity,hiding_distance"
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "0", "0", "1"]


def test_missing_strategy_file_is_a_usage_error(capsys):
    assert cli.main(["gh", "--strategy", "/tmp/definitely-not-here.json"]) == 2


def test_strategy_file_round_trip(tmp_path, capsys):
    from nlqclab import gardenhose
    path = tmp_path / "or.json"
    path.write_text(gardenhose.dump_strategy_json(gardenhose.or_strategy()))
    code, out = run(capsys, "gh", "--strategy", str(path), "--exhaustive", "--out", "csv")
    assert code == 0
    sides = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
    assert sides == ["0", "1", "1", "1"]


def test_malformed_strategy_file_exit_codes(tmp_path, capsys):
    # a JSON syntax error is a usage error (2); a malformed document, an error (1)
    path = tmp_path / "strategy.json"
    for text, code in (("{bad", 2), ('{"E": 1, "nx": 1, "ny": 1, "left": []}', 1)):
        path.write_text(text)
        assert cli.main(["gh", "--strategy", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: " if code == 2 else "error: ")


def test_malformed_protocol_file_is_an_error(tmp_path, capsys):
    circuit = {"d": 2, "n": 2, "gates": [{"g": "CNOT", "q": [0, 1], "pow": 1}]}
    good = {"n0": 1, "n1": 1, "split_circuit": circuit}
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(good))
    code, out = run(capsys, "surgery", "--protocol", str(path))
    assert code == 0 and json.loads(out)["exact"] is True
    for bad in (
        {"n1": 1, "split_circuit": circuit},
        {**good, "d": 3},
        {**good, "d": "two"},
        {**good, "resource": {"pairs": 2}},
        {**good, "resource": 1},
        {**good, "split_circuit": {**circuit, "gates": [{"g": "custom", "q": [0], "matrix": []}]}},
        {**good, "n0": 3, "n1": -1},
    ):
        path.write_text(json.dumps(bad))
        assert cli.main(["surgery", "--protocol", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_inputs_outside_the_register_are_errors(capsys):
    # a split with a negative side, and a garden-hose input outside the
    # strategy's input range, each end in one error line, not a traceback
    for argv in (
        ["clifford-nlqc", "--n", "2", "--split", "5"],
        ["clifford-nlqc", "--n", "2", "--split", "-1"],
        ["surgery", "--mode", "clifford", "--n", "2", "--split", "3"],
        ["gh", "--strategy", "and", "--x", "7", "--y", "3"],
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_suite_checks_survive_python_optimize():
    # -O strips assert statements; a wrong teleportation channel must still fail
    code = (
        "import sys, numpy as np\n"
        "from nlqclab import cli, teleport\n"
        "teleport.teleportation_channel_choi = lambda d: np.zeros((d * d, d * d))\n"
        "sys.exit(cli.main(['suite', '--quick']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlqclab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    checks = json.loads(proc.stdout)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["teleport-identity"]
