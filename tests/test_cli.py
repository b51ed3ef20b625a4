"""End-to-end checks of the command-line interface.

Commands run in-process through cli.main so stdout can be captured and
compared byte for byte; one subprocess test covers the module entry point.
"""

import json
import subprocess
import sys

import pytest

from adderbound.bounds import BoundCurve, EvaluationError
from adderbound.cli import main
from adderbound.families import Family, family_from_text, is_multiset_union_free
from adderbound.systems import log3_construction, system_from_json, system_to_json

# Coarse optimizer settings keep the heavy subcommands fast in tests.
FAST = ["--grid", "512", "--refine", "48"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_single_table(capsys):
    code, out, err = run_cli(capsys, "bound", "--r1", "1.0", "--which", "simple")
    assert code == 0 and err == ""
    assert out == "simple  0.500000\n"


def test_bound_all_rows_and_values(capsys):
    code, out, _ = run_cli(capsys, "bound", "--r1", "1.0", *FAST)
    assert code == 0
    rows = dict(line.split() for line in out.splitlines())
    assert list(rows) == ["simple", "weldon", "ul", "main"]
    assert rows["simple"] == "0.500000"
    assert rows["weldon"] == "0.000000"
    assert abs(float(rows["ul"]) - 0.4921599) < 5e-4
    assert abs(float(rows["main"]) - 0.4798303) < 5e-4


def test_bound_json(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--r1", "0.5", "--which", "simple", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r1"] == 0.5
    assert payload["bounds"] == {"simple": 1.0}


def test_bound_rejects_bad_rate(capsys):
    code, out, err = run_cli(capsys, "bound", "--r1", "1.5", "--which", "simple")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--r1", "1.0", "--bogus"])
    assert exc.value.code == 2


def test_curve_stdout_roundtrips(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--from", "0.95", "--to", "1.0", "--steps", "3", *FAST
    )
    assert code == 0
    bc = BoundCurve.from_csv(out)
    assert len(bc.rows) == 3
    assert bc.rows[0][0] == pytest.approx(0.95, abs=1e-9)
    assert bc.rows[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert bc.to_csv() == out


def test_curve_out_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "curve", "--from", "0.9", "--to", "1.0", "--steps", "2", "--out", str(path),
        *FAST,
    )
    assert code == 0
    assert out == f"wrote 2 rows to {path}\n"
    bc = BoundCurve.from_csv(path.read_text())
    assert len(bc.rows) == 2


def test_sauer_table(capsys):
    code, out, _ = run_cli(capsys, "sauer", "--n", "4", "--d", "2", "--k", "1")
    assert code == 0
    assert out == "t_star = 2\nexact  = 14\nvalue  = 14.000000\n"


def test_sauer_json_fractional(capsys):
    code, out, _ = run_cli(capsys, "sauer", "--n", "6", "--d", "1", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_star"] == 1
    num, den = payload["exact"].split("/")
    assert payload["value"] == pytest.approx(int(num) / int(den), abs=1e-12)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "entropy")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS entropy/") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert set(payload["suites"]) == {
        "entropy", "families", "systems", "distributions",
    }
    for checks in payload["suites"].values():
        assert all(c["passed"] for c in checks)


def test_verify_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "verify", "--json", "--seed", "7") for _ in range(2)]
    assert runs[0] == runs[1]


def test_verify_system_file(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(system_to_json(log3_construction(3)))
    code, out, _ = run_cli(capsys, "verify", "--system", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "valid"


def test_verify_system_rejects_colliding_pairs(tmp_path, capsys):
    payload = json.loads(system_to_json(log3_construction(3)))
    payload["pairs"].append(payload["pairs"][0])
    payload["m0"] += 1
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", "--system", str(path))
    assert code == 1
    assert out.splitlines()[-1].startswith("invalid:")


def test_verify_system_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    head = '{"n": 1, "m0": 1, "m1": 1, "m2": 1, '
    deep = "[" * 100_000
    huge = head + '"pairs": [["n=99999999999999999999\\n99999999999999999999", "n=1\\n-"]]}'
    for text in ("{not json", head + '"pairs": [5]}', head + '"pairs": [[1, 2]]}', deep, huge):
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--system", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_verify_pair_files(tmp_path, capsys):
    f1 = tmp_path / "f1.txt"
    f2 = tmp_path / "f2.txt"
    f1.write_text("n=2\n-\n1\n2\n")
    f2.write_text("n=2\n-\n1,2\n")
    code, out, _ = run_cli(capsys, "verify", "--pair", str(f1), str(f2))
    assert code == 0
    assert "6" in out and out.splitlines()[-1] == "union-free"
    # A family against itself always collides once it has two members.
    code, out, _ = run_cli(capsys, "verify", "--pair", str(f1), str(f1))
    assert code == 1
    assert out.splitlines()[-1] == "not union-free"


def test_verify_modes_are_exclusive(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(system_to_json(log3_construction(3)))
    code, _, err = run_cli(
        capsys, "verify", "--suite", "entropy", "--system", str(path)
    )
    assert code == 2 and "one of" in err


def test_search_table(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--budget", "1")
    assert code == 0
    assert "product = 6" in out
    assert "exact   = yes" in out


def test_search_json_families_check_out(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--budget", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    f1 = family_from_text(payload["f1"])
    f2 = family_from_text(payload["f2"])
    assert len(f1) * len(f2) == payload["product"] == 14
    assert payload["exact"] is True
    assert is_multiset_union_free(f1, f2)


def test_search_deterministic(capsys):
    runs = [run_cli(capsys, "search", "--n", "3", "--budget", "1") for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("budget", ["inf", "nan"])
def test_search_rejects_nonfinite_budget(capsys, budget):
    code, out, err = run_cli(capsys, "search", "--n", "3", "--budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: budget must be positive")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["bound", "--r1", "0.5", "--grid", "99999999999999"],
            "grid_points=99999999999999 outside [64, 1048576]",
        ),
        (
            ["bound", "--r1", "0.5", "--refine", "99999999999"],
            "refine_iters=99999999999 outside [1, 1000]",
        ),
        (["curve", "--steps", "1000000000000"], "steps=1000000000000 outside [2, 100000]"),
    ],
    ids=["grid", "refine", "steps"],
)
def test_huge_sizes_fail_before_the_solve(capsys, monkeypatch, argv, message):
    def started(*_, **__):
        raise AssertionError("the solve or its grid started")

    for target in ("cli.ul_bound", "cli.main_bound", "bounds.ul_bound", "bounds.main_bound"):
        monkeypatch.setattr(f"adderbound.{target}", started)
    monkeypatch.setattr("numpy.linspace", started)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_evaluation_error_exits_1(capsys, monkeypatch):
    def failing(*_):
        raise EvaluationError(0.25, float("nan"))

    monkeypatch.setattr("adderbound.cli.main_bound", failing)
    code, out, err = run_cli(capsys, "bound", "--r1", "1.0", "--which", "main")
    assert code == 1 and out == ""
    assert err == "error: objective returned nan at x=0.25\n"


def test_system_log3_writes_roundtrippable_json(tmp_path, capsys):
    path = tmp_path / "log3.json"
    code, out, _ = run_cli(capsys, "system", "--log3", "--n", "6", "--out", str(path))
    assert code == 0
    assert "valid" in out.splitlines()
    u = system_from_json(path.read_text())
    assert u == log3_construction(6)


def test_system_requires_construction_flag(capsys):
    code, _, err = run_cli(capsys, "system", "--n", "3")
    assert code == 2 and "--log3" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adderbound", "sauer", "--n", "4", "--d", "2", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t_star = 2\nexact  = 14\nvalue  = 14.000000\n"
