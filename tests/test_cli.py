"""End-to-end checks of the command-line interface.

Commands run in-process through cli.main so stdout can be captured and
compared byte for byte; one subprocess test covers the module entry point.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adderbound import verify
from adderbound.bounds import MAX_CURVE_STEPS, BoundCurve, EvaluationError
from adderbound.cli import main
from adderbound.families import (
    MAX_SAUER_N,
    SEARCH_NODES_PER_SEC,
    Family,
    family_from_text,
    is_multiset_union_free,
)
from adderbound.systems import log3_construction, system_from_json, system_to_json
from adderbound.verify import run_all

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_single_table(capsys):
    code, out, err = run_cli(capsys, "bound", "--r1", "1.0", "--which", "simple")
    assert code == 0 and err == ""
    assert out == "simple  0.500000\n"


def test_bound_all_rows_and_values(capsys):
    code, out, _ = run_cli(capsys, "bound", "--r1", "1.0")
    assert code == 0
    rows = dict(line.split() for line in out.splitlines())
    assert list(rows) == ["simple", "weldon", "ul", "main"]
    assert rows["simple"] == "0.500000"
    assert rows["weldon"] == "0.000000"
    assert abs(float(rows["ul"]) - 0.4921599) < 5e-4
    assert abs(float(rows["main"]) - 0.4798303) < 5e-4


def test_bound_text_below_departure(capsys):
    # below both departure points the bounds solve nothing and print the
    # sum-rate bound
    code, out, err = run_cli(capsys, "bound", "--r1", "0.99")
    assert code == 0 and err == ""
    assert out == "simple  0.510000\nweldon  0.015850\nul      0.510000\nmain    0.510000\n"


@pytest.mark.parametrize("flag", ["--refine", "--grid"])
def test_precision_flags_are_usage_errors(capsys, flag):
    # the solves have no precision to choose: `--refine 1` once printed
    # values below the true bounds, and now it does not parse
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--r1", "1.0", flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag} 1" in captured.err


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
        capsys, "curve", "--from", "0.95", "--to", "1.0", "--steps", "3"
    )
    assert code == 0
    bc = BoundCurve.from_csv(out)
    assert len(bc.rows) == 3
    assert bc.rows[0][0] == pytest.approx(0.95, abs=1e-9)
    assert bc.rows[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert bc.to_csv() == out


def test_curve_grid_that_does_not_increase_is_usage_error(capsys):
    for lo, hi, steps in (("0.9999999999999999", "1", "5"), ("1.0", "1.0000000000001", "3")):
        code, out, err = run_cli(capsys, "curve", "--from", lo, "--to", hi, "--steps", steps)
        assert code == 2 and out == ""
        assert err == f"error: r1 grid of {steps} steps over [{float(lo)!r}, {float(hi)!r}] does not strictly increase\n"


def test_curve_out_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "curve", "--from", "0.9", "--to", "1.0", "--steps", "2", "--out", str(path),
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


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    # a union-free check that calls every pair union-free, negating its answer
    # on the pairs that are not: only the check against the naive one fails
    monkeypatch.setattr(verify, "is_multiset_union_free", lambda f1, f2: True)
    code, out, _ = run_cli(capsys, "verify", "--suite", "families")
    lines = out.splitlines()
    assert code == 1
    assert lines[0].startswith("FAIL families/union-free-matches-naive  samples=")
    assert all(line.startswith("PASS families/") for line in lines[1:-1])
    assert lines[-1] == "1 of 4 checks failed"
    code, out, _ = run_cli(capsys, "verify", "--suite", "families", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert [c["passed"] for c in payload["suites"]["families"]] == [False, True, True, True]


def test_verify_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "verify", "--json", "--seed", "7") for _ in range(2)]
    assert runs[0] == runs[1]


VERIFY_SHA256 = {
    0: "6292ad41b2f01ef9aaf379faf121f1f0a2a645fc1419d19bc9e19daec03bcfd4",
    1: "0580c6af325c3db94c8f741b352ea4d8f884beb5be5579b4b15ce1b12e7c2cf6",
    7: "e2bf2da8fd62d04da59db0af33f4297a982db2ffe4e900f566652b4a46de88df",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_results_pinned(seed):
    # every field's repr, so a moved sample or a moved bit of a violation shows
    lines = [
        repr((suite, *dataclasses.astuple(r)))
        for suite, results in run_all(seed).items()
        for r in results
    ]
    assert len(lines) == 19
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VERIFY_SHA256[seed]


@pytest.mark.parametrize("suite", [[], ["--suite", "entropy"], ["--suite", "systems"]])
def test_verify_rejects_negative_seed(capsys, suite):
    # checked before any suite runs, the seedless systems suite included
    code, out, err = run_cli(capsys, "verify", "--seed", "-5", *suite)
    assert code == 2 and out == ""
    assert err == "error: seed=-5 must be non-negative\n"


def test_verify_seed_defaults_to_zero(capsys):
    argv = ["verify", "--json", "--suite", "entropy"]
    runs = [run_cli(capsys, *argv, *seed) for seed in ([], ["--seed", "0"])]
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["seed"] == 0


@pytest.mark.parametrize("seed", ["-5", "0", "99"])
@pytest.mark.parametrize("mode", ["system", "pair"])
def test_verify_seed_only_with_suites(tmp_path, capsys, mode, seed):
    # a seed would do nothing to a file check, so it is a usage error
    (tmp_path / "sys.json").write_text(system_to_json(log3_construction(3)))
    (tmp_path / "f.txt").write_text("n=2\n-\n1\n")
    files = {"system": ["sys.json"], "pair": ["f.txt", "f.txt"]}[mode]
    argv = ["verify", f"--{mode}", *(str(tmp_path / f) for f in files), "--seed", seed]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --seed applies only to the suites, not to --system or --pair\n"


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


def test_verify_system_with_empty_family_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 3, "m0": 1, "m1": 1, "m2": 0, "pairs": [["n=3\n1\n", "n=3\n"]]}))
    code, out, err = run_cli(capsys, "verify", "--system", str(path))
    assert code == 2 and out == ""
    assert err == "error: pair 0: second family is empty\n"


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


@pytest.mark.parametrize("order, side", [((0, 1), "first"), ((1, 0), "second"), ((0, 0), "first")])
def test_verify_pair_with_empty_family_is_usage_error(tmp_path, capsys, order, side):
    paths = [tmp_path / "e.txt", tmp_path / "f.txt"]
    paths[0].write_text("n=3\n")
    paths[1].write_text("n=3\n1\n2\n")
    code, out, err = run_cli(capsys, "verify", "--pair", *(str(paths[k]) for k in order))
    assert code == 2 and out == ""
    assert err == f"error: {side} family is empty\n"


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


def test_search_json_exact_at_n4(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["exact"], payload["product"]) == (True, 36)
    f1, f2 = family_from_text(payload["f1"]), family_from_text(payload["f2"])
    assert len(f1) * len(f2) == 36 and is_multiset_union_free(f1, f2)


def test_search_deterministic(capsys):
    runs = [run_cli(capsys, "search", "--n", "3", "--budget", "1") for _ in range(2)]
    assert runs[0] == runs[1]


def test_search_rejects_budget_spent_before_first_pair(capsys):
    # only n = 1 has no product seed to return
    code, out, err = run_cli(capsys, "search", "--n", "1", "--budget", "1e-9")
    assert code == 2 and out == ""
    assert err == "error: budget 1e-09 s (0 nodes) ran out before the first pair\n"


# 1e308 is finite, but its node count overflows to inf
@pytest.mark.parametrize("budget", ["inf", "nan", "1e308"])
def test_search_rejects_nonfinite_budget(capsys, budget):
    code, out, err = run_cli(capsys, "search", "--n", "3", "--budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: budget must be positive")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--steps", "1000000000000"], "steps=1000000000000 outside [2, 100000]"),
    ],
    ids=["steps"],
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


def test_system_out_file_is_system_to_json(tmp_path, capsys):
    # the file is written a pair at a time but holds system_to_json's bytes
    path = tmp_path / "log3.json"
    code, _, _ = run_cli(capsys, "system", "--log3", "--n", "6", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == system_to_json(log3_construction(6)).encode()


def test_system_requires_construction_flag(capsys):
    code, _, err = run_cli(capsys, "system", "--n", "3")
    assert code == 2 and "--log3" in err


# a child python does not see pytest's pythonpath setting, so src goes first on its own
_PATH = [str(pathlib.Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATH))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adderbound", "sauer", "--n", "4", "--d", "2", "--k", "1"],
        capture_output=True,
        text=True,
        env=_SRC_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t_star = 2\nexact  = 14\nvalue  = 14.000000\n"


def test_closed_stdout_pipe_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "adderbound", "search", "--n", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_SRC_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") <= 1


def test_closed_pipe_as_stdout_and_stderr_exits_2():
    # as in `adderbound search --n 3 2>&1 | ...` once the reader is gone: the
    # error line cannot be written either, and the exit code stays 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "adderbound", "search", "--n", "3"],
            stdout=write_end,
            stderr=write_end,
            env=_SRC_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sauer", "--n", "2000", "--d", "1000", "--k", "1"],
        ["sauer", "--n", "20000", "--d", "1", "--k", "1"],
        ["sauer", "--n", "1000000000", "--d", "2", "--k", "100"],
    ],
    ids=["float-overflow", "digit-limit", "endless-tail"],
)
def test_sauer_huge_n_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: n={argv[2]} outside [1, {MAX_SAUER_N}]\n"


# Full stdout of --json commands, recorded before the renderer was shared;
# {tmp} stands for the test's directory.
PINNED_JSON = [
    (
        ["system", "--log3", "--n", "6", "--json"],
        """{
  "n": 6,
  "m": [
    15,
    1,
    16
  ],
  "rates": [
    0.6511484326014197,
    0.0,
    0.6666666666666666
  ],
  "total": 1.3178150992680864,
  "valid": true,
  "out": null
}
""",
    ),
    (
        ["verify", "--system", "{tmp}/log3.json", "--json"],
        """{
  "file": "{tmp}/log3.json",
  "valid": true,
  "reason": null,
  "n": 6,
  "m": [
    15,
    1,
    16
  ],
  "rates": [
    0.6511484326014197,
    0.0,
    0.6666666666666666
  ],
  "total": 1.3178150992680864
}
""",
    ),
    (
        ["verify", "--pair", "{tmp}/f1.txt", "{tmp}/f2.txt", "--json"],
        """{
  "files": [
    "{tmp}/f1.txt",
    "{tmp}/f2.txt"
  ],
  "n": 2,
  "sizes": [
    3,
    2
  ],
  "product": 6,
  "union_free": true
}
""",
    ),
    (
        ["search", "--n", "3", "--json"],
        """{
  "n": 3,
  "product": 14,
  "exact": true,
  "nodes": 149,
  "f1": "n=3\\n-\\n1\\n2\\n1,2\\n3\\n1,3\\n2,3\\n",
  "f2": "n=3\\n-\\n1,2,3\\n"
}
""",
    ),
    (
        ["sauer", "--n", "6", "--d", "1", "--k", "1", "--json"],
        """{
  "n": 6,
  "d": 1,
  "k": 1,
  "t_star": 1,
  "exact": "157/10",
  "value": 15.7
}
""",
    ),
    (
        ["bound", "--r1", "0.5", "--which", "weldon", "--json"],
        """{
  "r1": 0.5,
  "bounds": {
    "weldon": 0.792481250360578
  }
}
""",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    PINNED_JSON,
    ids=["system", "verify-system", "verify-pair", "search", "sauer", "bound"],
)
def test_json_bytes_pinned(tmp_path, capsys, argv, expected):
    (tmp_path / "f1.txt").write_text("n=2\n-\n1\n2\n")
    (tmp_path / "f2.txt").write_text("n=2\n-\n1,2\n")
    (tmp_path / "log3.json").write_text(system_to_json(log3_construction(6)))
    code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 0 and err == ""
    assert out == expected.replace("{tmp}", str(tmp_path))


def test_help_renders_library_values(capsys):
    # argparse formats help strings (and any %(default)s in them) only here
    helps = {}
    for cmd in ("bound", "curve", "sauer", "verify", "search", "system"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        helps[cmd] = " ".join(capsys.readouterr().out.split())
    for cmd in ("bound", "curve"):
        assert "--grid" not in helps[cmd] and "--refine" not in helps[cmd]
    assert f"2 to {MAX_CURVE_STEPS} (default: 101)" in helps["curve"]
    assert f"at most {MAX_SAUER_N}" in helps["sauer"]
    assert f"{SEARCH_NODES_PER_SEC:,} nodes per second" in helps["search"]


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _mostly(valid, other):
    """Draw from `valid` three times in four, else from `other`."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else valid)


# Argv fuzz of main. Every draw is cheap to run: a bound solves only above
# its departure point, in well under 0.1 s, curves have at most 3 points,
# searches a budget of at most 1,500 nodes, systems n <= 9, and no draw runs
# a self-check suite. Junk never parses as an integer, so it
# cannot select a large size.
_junk = st.one_of(
    st.sampled_from(["", "-", "x", "1e999", "nan", "-inf", "0x10", "--json", "\x00"]),
    st.text(max_size=8),
).filter(lambda s: not _is_int(s))
_extra = _mostly(st.just([]), st.lists(st.one_of(st.just("--bogus"), _junk), min_size=1, max_size=2))
_rate = _mostly(st.floats(0.0, 1.0).map(repr), st.one_of(st.floats().map(repr), _junk))
_which = st.sampled_from(["simple", "weldon", "ul", "main", "all"]).map(lambda w: ["--which", w])
_bound = st.tuples(st.just(["bound", "--r1"]), _rate.map(lambda x: [x]), _which)
_curve = st.tuples(
    st.just(["curve", "--steps"]),
    _mostly(st.sampled_from(["2", "3"]), st.sampled_from(["0", "1000000000000", "x"])).map(
        lambda x: [x]
    ),
    st.tuples(st.just("--from"), _rate, st.just("--to"), _rate).map(list),
)
_sauer = st.tuples(
    st.just(["sauer", "--n"]),
    _mostly(st.integers(-2, 1000), st.integers(1001, 5000)).map(lambda n: [str(n)]),
    st.tuples(st.just("--d"), _mostly(st.integers(-2, 1000).map(str), _junk)).map(list),
    _mostly(st.integers(-2, 10**30).map(str), _junk).map(lambda x: ["--k", x]),
)
_search = st.tuples(
    st.just(["search", "--n"]),
    _mostly(st.integers(-2, 8).map(str), _junk).map(lambda x: [x]),
    _mostly(st.floats(1e-5, 0.01), st.floats(max_value=0.01)).map(lambda x: ["--budget", repr(x)]),
)
_system = st.tuples(
    st.just(["system", "--n"]),
    _mostly(st.sampled_from(["3", "6", "9"]), st.sampled_from(["-3", "0", "4", "18", "x"])).map(
        lambda x: [x]
    ),
    st.lists(st.sampled_from([["--log3"], ["--out", "{tmp}/sys.json"], ["--out", "{tmp}/no/x"]])).map(
        lambda groups: [a for g in groups for a in g]
    ),
)
_verify = st.tuples(
    st.just(["verify"]),
    st.sampled_from(
        [
            ["--pair", "{tmp}/a.txt", "{tmp}/b.txt"],
            ["--pair", "{tmp}/a.txt", "{tmp}/a.txt"],
            ["--system", "{tmp}/s.json"],
            ["--system", "{tmp}/s.json", "--suite", "entropy"],
            ["--system", "{tmp}/missing.json"],
        ]
    ),
    st.one_of(
        st.just([]),
        _mostly(st.integers(-1, 3).map(str), _junk).map(lambda x: ["--seed", x]),
    ),
)
argvs = st.tuples(
    st.one_of(_bound, _curve, _sauer, _search, _system, _verify),
    _extra,
    st.booleans().map(lambda j: ["--json"] if j else []),
).map(lambda t: [a for part in (*t[0], t[1], t[2]) for a in part])
_family_text = _mostly(
    st.sampled_from(["n=2\n-\n1\n2\n", "n=2\n-\n1,2\n", "n=1\n1\n1\n", "n=99999999999999999999\n1\n"]),
    st.text(max_size=20),
)
_system_text = _mostly(
    st.sampled_from(
        [
            system_to_json(log3_construction(3)),
            '{"n": 1, "m0": 1, "m1": 1, "m2": 1, "pairs": [["n=1\\n-", "n=1\\n-"]]}',
            '{"n": 1, "m0": 2, "m1": 1, "m2": 1, "pairs": [["n=1\\n1", "n=1\\n-"], ["n=1\\n1", "n=1\\n-"]]}',
            "[" * 100_000,
        ]
    ),
    st.text(max_size=30),
)


@given(argvs, _family_text, _family_text, _system_text)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_main_argv_fuzz(argv, text_a, text_b, text_s):
    # any argv stops in argparse or exits 0, 1 or 2; exit 2 (and exit 1
    # without a report) leaves stdout empty and one line on stderr
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("a.txt", text_a), ("b.txt", text_b), ("s.json", text_s)):
            with open(f"{tmp}/{name}", "w") as fh:
                fh.write(text)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse: a usage error, or help for an abbreviated --help
                assert exc.code == 2 or (exc.code == 0 and "usage:" in out.getvalue()), argv
                return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 0 or (code == 1 and out):
        assert err == "", argv
    else:
        assert out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
