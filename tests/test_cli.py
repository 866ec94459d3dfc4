import json
import os
import pathlib
import select
import subprocess
import sys

import numpy as np
import pytest

from compalg import classify as cl
from compalg import cli


def run(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_analyze_okubo(tmp_path, capsys):
    target = tmp_path / "p11.json"
    code, _, _ = run(["build", "--family", "okubo", "-o", str(target)], capsys)
    assert code == 0
    blob = json.loads(target.read_text())
    assert blob["family"]["name"] == "okubo"
    code, out, _ = run(["analyze", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["partition"] == [8]
    assert report["double_sign"]["signs"] == [-1, -1]


def test_build_with_params_and_classify(tmp_path, capsys):
    target = tmp_path / "j.json"
    params = json.dumps({"i": 0, "j": 0, "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]})
    code, _, _ = run(["build", "--family", "tau_family", "--params", params,
                      "-o", str(target)], capsys)
    assert code == 0
    code, out, _ = run(["classify", str(target)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["block"].startswith("D134a")
    assert report["canonical"]["kind"] == "D134a"


def test_build_degrees(tmp_path, capsys):
    target = tmp_path / "g.json"
    params = json.dumps({"i1": 0, "j1": 0, "i2": 0, "j2": 1, "alpha": 45, "beta": 90})
    code, _, _ = run(["build", "--family", "g_family", "--params", params,
                      "--degrees", "-o", str(target)], capsys)
    assert code == 0
    blob = json.loads(target.read_text())
    assert abs(blob["family"]["params"]["alpha"] - np.pi / 4) < 1e-12


def test_canon_roundtrip(tmp_path, capsys):
    target = tmp_path / "g.json"
    params = json.dumps({"i1": 1, "j1": 0, "i2": 1, "j2": 1, "alpha": 2.0, "beta": 1.0})
    run(["build", "--family", "g_family", "--params", params, "-o", str(target)], capsys)
    code, out, _ = run(["canon", str(target)], capsys)
    assert code == 0
    form = json.loads(out)
    assert form["kind"] == "D1133"
    assert abs(form["alpha"] - (np.pi - 2.0)) < 1e-9


def test_tol_reaches_analyze_and_canon(tmp_path, capsys):
    from compalg import algebra as al

    # a T-family point whose a1 has an imaginary part of norm 1e-6
    target = tmp_path / "near_one.json"
    one = np.array([1.0, 0, 0, 0])
    k = al.k_family(0, 0, np.array([1.0, 1e-6, 0, 0]) / np.hypot(1.0, 1e-6), one, one, one)
    target.write_text(json.dumps(k.to_json()))
    code, out, _ = run(["analyze", str(target)], capsys)
    assert code == 0 and json.loads(out)["block"] == "D1124^(+,+)"
    code, out, _ = run(["canon", str(target)], capsys)
    assert code == 0 and json.loads(out)["block"] == "D1124^(+,+)"
    code, out, _ = run(["analyze", str(target), "--tol", "1e-5"], capsys)
    report = json.loads(out)
    assert code == 0
    assert (report["block"], report["der_dim"], report["lie_type"]) == ("D17^(+,+)", 14, "g2")
    code, out, err = run(["canon", str(target), "--tol", "1e-5"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_canon_raw_tensor_fails(tmp_path, capsys):
    from compalg import algebra as al

    target = tmp_path / "raw.json"
    raw = al.Algebra(al.octonion_algebra().sc.copy())
    target.write_text(json.dumps(raw.to_json()))
    code, _, err = run(["canon", str(target)], capsys)
    assert code == 1
    assert "provenance" in err


def test_iso_command(tmp_path, capsys):
    a_path, b_path, w_path = (tmp_path / n for n in ("a.json", "b.json", "w.json"))
    params = json.dumps({"i": 1, "j": 1, "a": [0, 1, 0, 0], "b": [0, 0, 0, 1]})
    run(["build", "--family", "tau_family", "--params", params, "-o", str(a_path)], capsys)

    from compalg import algebra as al
    from compalg import maps as mp

    a = al.from_json(json.loads(a_path.read_text()))
    q = np.array([0.5, 0.5, 0.5, 0.5])
    moved = al.transport(mp.kappa_hat_map(q), a)
    b_path.write_text(json.dumps(moved.to_json()))

    code, out, _ = run(["iso", str(a_path), str(b_path), "--witness-out", str(w_path)], capsys)
    assert code == 0
    assert out.strip().splitlines()[0] == "isomorphic"
    witness = json.loads(w_path.read_text())
    assert len(witness["matrix"]) == 8

    c_path = tmp_path / "c.json"
    run(["build", "--family", "standard_isotope", "--params", '{"i":0,"j":1}',
         "-o", str(c_path)], capsys)
    code, out, _ = run(["iso", str(a_path), str(c_path)], capsys)
    assert code == 0
    assert out.startswith("not isomorphic")


def test_iso_of_a_label_without_canonical_form(tmp_path, capsys, monkeypatch):
    from compalg import algebra as al

    one = np.array([1.0, 0.0, 0.0, 0.0])
    d17_path, d134s_path = tmp_path / "d17.json", tmp_path / "d134s.json"
    d17_path.write_text(json.dumps(al.k_family(0, 0, one, one, one, one).to_json()))
    d134s_path.write_text(json.dumps(al.k_family(0, 0, one, -one, one, -one).to_json()))
    for pair, first_word in (((d17_path, d17_path), "unknown:"),
                             ((d17_path, d134s_path), "not isomorphic:")):
        monkeypatch.setattr(sys, "argv", ["compalg", "iso", *map(str, pair)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out = capsys.readouterr()
        assert exc.value.code == 0, out.err
        assert out.out.startswith(first_word)
        assert len(out.out.strip().splitlines()) == 1
        assert out.err == ""


def test_enumerate_command(tmp_path, capsys):
    code, out, _ = run(["enumerate", "--block", "D35"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert all(row["kind"] == "D35" for row in rows)
    code, out, _ = run(["enumerate", "--block", "D17", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 classes


@pytest.mark.parametrize("block", ["D134a", "D116"])
def test_enumerate_csv_keeps_the_canonical_point(block, capsys):
    code, out, _ = run(["enumerate", "--block", block, "--grid", "2", "--format", "csv"], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == len(set(rows)) == len(list(cl.enumerate_block(block, 2)))
    prefixes = ("point_",) if block == "D134a" else ("point0_", "point1_")
    assert {p + key for p in prefixes for key in ("a0", "b3", "alpha")} <= set(header.split(","))


def test_closed_pipe_exits_1_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    with subprocess.Popen([sys.executable, "-m", "compalg.cli", "enumerate", "--block", "D134a",
                           "--grid", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err


def test_verify_fast(capsys):
    code, out, _ = run(["verify", "--fast", "--seed", "42"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_deterministic(capsys):
    _, out1, _ = run(["verify", "--fast", "--seed", "7"], capsys)
    _, out2, _ = run(["verify", "--fast", "--seed", "7"], capsys)
    assert out1 == out2


def _raise_value_error():
    raise ValueError("no data")


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_failure_exit_code(monkeypatch, capsys, cpus):
    from compalg import verify as vf

    outcomes = [("ok", lambda: (True, "fine")), ("bad", lambda: (False, "off by 1")),
                ("boom", _raise_value_error)]
    parent, (ran, announce) = os.getpid(), os.pipe()
    waited = []

    def check(outcome):
        def body(gen, fast):
            if os.getpid() != parent:
                os.write(announce, b"x")
            elif cpus == 2 and not waited:
                # the caller's first check waits until a worker has run the
                # other two, so a worker's FAIL reaches the report
                while len(waited) < 2:
                    assert select.select([ran], [], [], 60)[0], "no worker ran a check within 60 s"
                    waited.extend(os.read(ran, 2 - len(waited)))
            return outcome()
        return body

    # as tests/test_verify.py's force_cpus: cpus usable CPUs, one OS thread
    monkeypatch.setattr(vf, "CHECKS", [(name, check(outcome)) for name, outcome in outcomes])
    monkeypatch.setattr(vf, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(vf, "_os_threads", lambda: 1)
    try:
        code, out, err = run(["verify", "--fast"], capsys)
    finally:
        os.close(ran)
        os.close(announce)
    assert code == 1 and err == ""
    assert out.splitlines() == ["PASS  ok  (fine)", "FAIL  bad  (off by 1)",
                                "FAIL  boom  (ValueError: no data)", "1/3 checks passed"]
    assert len(waited) == (2 if cpus == 2 else 0)


def test_bad_usage_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["bogus-command"])
    assert exc.value.code == 2
    # only verify has random draws, so only verify takes a seed
    for command in (["build", "--family", "okubo"], ["analyze", "a.json"],
                    ["classify", "a.json"], ["canon", "a.json"], ["iso", "a.json", "b.json"],
                    ["enumerate", "--block", "D8"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(command + ["--seed", "1"])
        assert exc.value.code == 2
    code, _, err = run(["analyze", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert "error" in err


def test_bad_family_exit_code(capsys):
    code, _, err = run(["build", "--family", "nonsense"], capsys)
    assert code == 2
    assert "unknown family" in err


def test_out_of_range_tolerance_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["enumerate", "--block", "D17", "--tol", "1e-2"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_tol_rejected_where_unused(capsys):
    # build and verify read no tolerance, so they do not accept --tol
    for command in (["build", "--family", "okubo"], ["verify", "--fast"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(command + ["--tol", "1e-4"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


def test_zero_grid_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["enumerate", "--block", "D35", "--grid", "0"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_bad_family_parameters_exit_code(capsys):
    code, _, err = run(["build", "--family", "tau_family", "--params", "{}"], capsys)
    assert code == 2
    assert "'i'" in err
    assert "Traceback" not in err
    for params in ("[0, 0]", '{"i": "x", "j": 0, "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}',
                   '{"i": 5, "j": 0, "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}'):
        code, _, err = run(["build", "--family", "tau_family", "--params", params], capsys)
        assert code == 2
        assert err.startswith("error:")


def test_bad_family_label_exit_code(tmp_path, capsys):
    good = tmp_path / "good.json"
    run(["build", "--family", "tau_family", "-o", str(good), "--params",
         '{"i": 0, "j": 1, "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}'], capsys)
    blob = json.loads(good.read_text())
    labels = [
        {"name": "nonsense", "params": {}},
        dict(blob["family"], params=dict(blob["family"]["params"], a=[0, 1, 0])),
        {"name": "p35", "params": {"i": 1, "j": 1}},
        {"name": "okubo", "params": {}},  # does not reproduce the stored tensor
        dict(blob["family"], frame=(2.0 * np.eye(8)).tolist()),  # not orthogonal
        dict(blob["family"], frame=np.eye(4).tolist()),  # the wrong shape
        dict(blob["family"], frame=[["x"] * 8] * 8),  # not numeric
    ]
    for k, label in enumerate(labels):
        target = tmp_path / f"bad{k}.json"
        target.write_text(json.dumps(dict(blob, family=label)))
        for argv in (["analyze", str(target)], ["classify", str(target)],
                     ["canon", str(target)], ["iso", str(target), str(good)]):
            code, _, err = run(argv, capsys)
            assert code == 2, (label, argv)
            assert err.startswith("error:")
            assert len(err.strip().splitlines()) == 1


def test_non_cubic_tensor_exit_code(tmp_path, capsys):
    target = tmp_path / "flat.json"
    for blob in ({"dim": 2, "sc": [[1.0, 0.0], [0.0, 1.0]], "family": None}, [1, 2],
                 {"sc": [[[1.0]]], "family": {"name": "okubo", "params": 5}}):
        target.write_text(json.dumps(blob))
        code, _, err = run(["analyze", str(target)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_tensor_exit_code(tmp_path, capsys, bad):
    source = tmp_path / "p11.json"
    run(["build", "--family", "okubo", "-o", str(source)], capsys)
    labelled = json.loads(source.read_text())
    labelled["sc"][1][2][3] = bad
    raw = dict(labelled, family=None)
    for blob in (raw, labelled):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(blob))  # json writes NaN / Infinity tokens
        code, _, err = run(["analyze", str(target)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


def test_negative_seed_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--fast", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["verify", "--seed", "abc"],
                                  ["enumerate", "--block", "D8", "--grid", "x"]])
def test_non_numeric_integer_option_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "expected an integer" in err
    # argparse names a type function that raises ValueError: no such name may leak
    assert "_seed_arg" not in err and "_positive_int" not in err
    assert " value: " not in err


def test_fractional_index_exit_code(capsys):
    for family, params in (("quat4", '{"i": 0.5, "j": 0}'),
                           ("g_family", '{"i1": 0.9, "j1": 0, "i2": 1.2, "j2": 0, '
                                        '"alpha": 0.1, "beta": 0.2}')):
        code, out, err = run(["build", "--family", family, "--params", params], capsys)
        assert code == 2
        assert not out
        assert err.startswith("error:") and "indices must be 0 or 1" in err


def test_unknown_block_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["enumerate", "--block", "D99"])
    assert exc.value.code == 2
    assert "--block" in capsys.readouterr().err


def test_unreadable_and_unwritable_paths_exit_code(tmp_path, capsys):
    # a directory as input or output and a non-UTF-8 input file: one error: line, exit 2
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"name": "\xff"}')
    for argv in (["analyze", str(tmp_path)], ["analyze", str(binary)],
                 ["build", "--family", "okubo", "-o", str(tmp_path)]):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
