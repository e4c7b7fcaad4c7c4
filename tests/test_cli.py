"""Command-line behaviour: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from conftest import A3_REL_TEXT, LOOP_TEXT, PREPROJ_A3_TEXT

from tautilt.cli import main


@pytest.fixture()
def a3_rel_file(tmp_path):
    f = tmp_path / "a3_rel.alg"
    f.write_text(A3_REL_TEXT)
    return str(f)


@pytest.fixture()
def loop_file(tmp_path):
    f = tmp_path / "loop.alg"
    f.write_text(LOOP_TEXT)
    return str(f)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_info(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "info"], capsys)
    assert code == 0
    assert "dim 5" in out
    assert "P(2) dims (0,1,1)" in out


def test_info_json(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "info", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert payload["projective_dims"]["1"] == [1, 1, 0] or \
        payload["projective_dims"][1] == [1, 1, 0]


def test_info_loop(loop_file, capsys):
    code, out = run_cli([loop_file, "info"], capsys)
    assert code == 0
    assert "dim 4" in out
    assert "P(2) dims (0,2)" in out


def test_info_point(tmp_path, capsys):
    f = tmp_path / "point.alg"
    f.write_text("vertices 1\n")
    code, out = run_cli([str(f), "info"], capsys)
    assert code == 0 and "dim 1" in out


def test_enumerate_table(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "enumerate"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 13  # header + 12 pairs


def test_enumerate_json(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "enumerate", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert len(payload["pairs"]) == 12
    assert len(payload["edges"]) == 18


def test_verify_ok(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "verify"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["nodes"] == 12


def test_verify_loop_self_extension(loop_file, capsys):
    code, out = run_cli([loop_file, "verify"], capsys)
    assert code == 0
    payload = json.loads(out)
    by_dim = {tuple(b["dim_vector"]): b for b in payload["bricks"]}
    assert by_dim[(0, 1)]["ext1_self_dim"] == 1
    assert by_dim[(0, 1)]["self_extension_witness"] == [0, 2]
    assert by_dim[(1, 0)]["self_extension_witness"] is None


def test_graph_dot(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "graph"], capsys)
    assert code == 0
    assert out.count("->") == 18


def test_fan_json(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "fan"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["walls"]) == 5


def test_fan_svg(a3_rel_file, capsys):
    code, out = run_cli([a3_rel_file, "fan", "--format", "svg"], capsys)
    assert code == 0
    assert out.startswith("<svg")


def test_fan_svg_rank2_rejected(loop_file, capsys):
    code, _out = run_cli([loop_file, "fan", "--format", "svg"], capsys)
    assert code == 1


def test_output_file(a3_rel_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli([a3_rel_file, "fan", "-o", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["version"] == 1


def test_missing_file(capsys):
    code, _ = run_cli(["/definitely/not/there.alg", "info"], capsys)
    assert code == 1


def test_parse_error_exit(tmp_path, capsys):
    f = tmp_path / "bad.alg"
    f.write_text("vertices 2\narrow a 1 -> 2\n")
    code, _ = run_cli([str(f), "info"], capsys)
    assert code == 1


def run_cli_err(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_non_utf8_file_exit(tmp_path, capsys):
    f = tmp_path / "bad.alg"
    f.write_bytes(b"\xff\xfe")
    code, _out, err = run_cli_err([str(f), "info"], capsys)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_non_admissible_algebra_exit(tmp_path, capsys):
    f = tmp_path / "idem.alg"
    f.write_text("vertices 1\narrow x: 1 -> 1\nrelation x*x - x*x*x\n")
    code, out, err = run_cli_err([str(f), "enumerate"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unwritable_output_exit(a3_rel_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli_err([a3_rel_file, "info", "-o", str(target)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_fan_truncated_graph_exit(tmp_path, capsys):
    f = tmp_path / "kron.alg"
    f.write_text("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    code, out, err = run_cli_err([str(f), "fan", "--max-nodes", "5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_fan_truncated_graph_with_output(a3_rel_file, capsys):
    # a truncated graph whose almost pairs all have both completions still
    # builds a fan: exit 2 together with the partial output
    code, out, err = run_cli_err([a3_rel_file, "fan", "--max-nodes", "4"], capsys)
    assert code == 2 and err == ""
    assert json.loads(out)["version"] == 1


def test_graph_truncated_exit(tmp_path, capsys):
    # the truncated A4 graph has an almost pair with one completion, so no
    # DOT can be emitted: a typed exit, not an escaped EnumerationError
    f = tmp_path / "a4.alg"
    f.write_text("vertices 4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n")
    code, out, err = run_cli_err([str(f), "graph", "--max-nodes", "20"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_graph_truncated_with_output(a3_rel_file, capsys):
    code, out, err = run_cli_err([a3_rel_file, "graph", "--max-nodes", "4"], capsys)
    assert code == 2 and err == ""
    assert out.startswith("digraph")


@pytest.mark.parametrize("prime", [[], ["--prime", "3"]], ids=["default", "3"])
def test_fan_oracle_budget_exit(tmp_path, capsys, prime):
    # wall facets come from the brute-force oracle: a brick over its budget
    # cuts the fan short like --max-nodes, with exit 2 and an error line
    f = tmp_path / "kron.alg"
    f.write_text("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    start = time.monotonic()
    code, out, err = run_cli_err([str(f), "fan", "--max-nodes", "12"] + prime, capsys)
    assert time.monotonic() - start < 20
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err


def test_fan_svg_rank_checked_before_enumeration(loop_file, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the rank check")
    monkeypatch.setattr("tautilt.cli.enumerate_exchange_graph", no_enumeration)
    code, _out, err = run_cli_err([loop_file, "fan", "--format", "svg"], capsys)
    assert code == 1
    assert "rank-3" in err


def test_bad_prime(a3_rel_file, capsys):
    code, _ = run_cli([a3_rel_file, "verify", "--prime", "4"], capsys)
    assert code == 1


def test_truncation_exit_code(tmp_path, capsys):
    f = tmp_path / "kron.alg"
    f.write_text("vertices 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    code, _ = run_cli([str(f), "enumerate", "--max-nodes", "5"], capsys)
    assert code == 2


def test_usage_error_exit_code(a3_rel_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a3_rel_file, "frobnicate"])
    assert exc.value.code == 1


def test_determinism_subprocess(tmp_path):
    f = tmp_path / "a3_rel.alg"
    f.write_text(A3_REL_TEXT)
    outputs = []
    for _ in range(2):
        run = [
            subprocess.run([sys.executable, "-m", "tautilt.cli", str(f), cmd]
                           + (["--format", "svg"] if cmd == "fan" else []),
                           capture_output=True, text=True, check=True).stdout
            for cmd in ("enumerate", "graph", "fan")
        ]
        outputs.append(run)
    assert outputs[0] == outputs[1]


def test_verify_determinism_subprocess(tmp_path):
    # no memo may make the report depend on the process: per seed, two
    # fresh processes print the same bytes
    f = tmp_path / "a3_rel.alg"
    f.write_text(A3_REL_TEXT)
    for seed in ("0", "1"):
        outputs = [subprocess.run([sys.executable, "-m", "tautilt.cli", str(f), "verify",
                                   "--seed", seed],
                                  capture_output=True, check=True).stdout
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["all_pass"] is True


# runs the CLI in a fresh process and fails unless sympy stayed unloaded
_NO_SYMPY_MAIN = """\
import sys
from tautilt.cli import main
code = main(sys.argv[1:])
assert "sympy" not in sys.modules, "sympy was imported"
sys.exit(code)
"""

A5_TEXT = "vertices 5\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\narrow d: 4 -> 5\n"


def test_fan_svg_without_sympy_subprocess(tmp_path):
    # isomorphism is decided without sympy, and the answer does not depend
    # on the seed of the random trials
    f = tmp_path / "preproj_a3.alg"
    f.write_text(PREPROJ_A3_TEXT)
    outputs = [subprocess.run([sys.executable, "-c", _NO_SYMPY_MAIN, str(f), "fan",
                               "--format", "svg", "--seed", seed],
                              capture_output=True, check=True).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"<svg")


def test_verify_without_sympy_subprocess(tmp_path):
    f = tmp_path / "a5.alg"
    f.write_text(A5_TEXT)
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_MAIN, str(f), "verify"],
                         capture_output=True, check=True).stdout
    assert json.loads(out)["all_pass"] is True
