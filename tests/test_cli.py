"""Command-line behaviour: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import A3_REL_TEXT, LOOP_TEXT

from tautilt import modules
from tautilt.cli import main
from tautilt.modules import DecompositionError
from tautilt.tautilting import TheoremViolationError


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


@pytest.mark.parametrize("text", ["verticesXY 2\n", "vertices 2 3\n",
                                  "vertices 2\narrow a: 1 -> 2\nrelationship a\n"],
                         ids=["vertices-prefix", "vertices-extra", "relation-prefix"])
def test_misspelt_directive_exit(tmp_path, capsys, text):
    f = tmp_path / "bad.alg"
    f.write_text(text)
    code, out, err = run_cli_err([str(f), "info"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: line") and "Traceback" not in err


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


def test_zero_denominator_exit(tmp_path, capsys):
    f = tmp_path / "zero.alg"
    f.write_text("vertices 3\narrow a: 1 -> 2\narrow b: 2 -> 3\nrelation 1/0 a*b\n")
    code, out, err = run_cli_err([str(f), "info"], capsys)
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


@pytest.mark.parametrize("prime, command", [("1000000000000000003", "info"),
                                            ("16411", "verify")],
                         ids=["huge", "over_budget"])
def test_prime_outside_oracle_range(a3_rel_file, prime, command):
    # p^1 already exceeds the oracle's budget above 2^14, so such a prime
    # could check nothing; it is refused before any primality test runs
    run = subprocess.run([sys.executable, "-m", "tautilt.cli", a3_rel_file, command,
                          "--prime", prime], capture_output=True, text=True, timeout=20)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


@pytest.mark.parametrize("text", [
    "vertices 1\narrow a: 1 -> 1\narrow b: 1 -> 1\n",
    "vertices 1\narrow a: 1 -> 1\narrow b: 1 -> 1\narrow c: 1 -> 1\n"
    "relation a*a\nrelation b*b\nrelation c*c\n",
], ids=["two_free_loops", "three_square_zero_loops"])
def test_basis_cap_exit(tmp_path, text):
    # irreducible paths double with each length, so the path-length cap alone
    # is reached only after exponentially many paths; the basis-size cap
    # refuses the algebra at once (run in a subprocess, so a hang fails here)
    f = tmp_path / "wild.alg"
    f.write_text(text)
    run = subprocess.run([sys.executable, "-m", "tautilt.cli", str(f), "info"],
                         capture_output=True, text=True, timeout=20)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
    assert "path basis exceeds" in run.stderr


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
    # fresh processes print the same bytes, and --seed changes none of them
    f = tmp_path / "a3_rel.alg"
    f.write_text(A3_REL_TEXT)
    per_seed = []
    for seed in ("0", "1"):
        outputs = [subprocess.run([sys.executable, "-m", "tautilt.cli", str(f), "verify",
                                   "--seed", seed],
                                  capture_output=True, check=True).stdout
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["all_pass"] is True
        per_seed.append(outputs[0])
    assert per_seed[0] == per_seed[1]


# runs the CLI in a fresh process and fails unless sympy and numpy stayed unloaded
_NO_SYMPY_MAIN = """\
import sys
from tautilt.cli import main
code = main(sys.argv[1:])
assert "sympy" not in sys.modules, "sympy was imported"
assert "numpy" not in sys.modules, "numpy was imported"
sys.exit(code)
"""

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def test_fan_svg_without_sympy_subprocess():
    # the benchmark's preprojective A3 fan: isomorphism is decided without
    # sympy, and the answer does not depend on the seed
    f = WORKLOADS / "preproj_a3.alg"
    outputs = [subprocess.run([sys.executable, "-c", _NO_SYMPY_MAIN, str(f), "fan",
                               "--format", "svg", "--seed", seed],
                              capture_output=True, check=True).stdout
               for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"<svg")


def test_verify_without_sympy_subprocess():
    # the benchmark's linear A5 verify
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_MAIN, str(WORKLOADS / "a5.alg"),
                          "verify"], capture_output=True, check=True).stdout
    assert json.loads(out)["all_pass"] is True


def test_engine_commands_build_no_tau_and_no_injective(monkeypatch, capsys):
    # the engine reads Hom(X, tau M) off the g-vector pairing; only info
    # builds injectives.  Each wrapper is rebound in every tautilt namespace
    # that holds the original, as a from-import binds at import time.
    calls = {"tau": 0, "injective": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        fn = getattr(modules, name)
        wrapper = counting(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tautilt" or mod_name.startswith("tautilt."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    algebras = Path(__file__).resolve().parents[1] / "algebras"
    for argv in ([str(WORKLOADS / "a5.alg"), "verify"],
                 [str(algebras / "kronecker.alg"), "enumerate", "--format", "json",
                  "--max-nodes", "12"],
                 [str(WORKLOADS / "preproj_a3.alg"), "fan", "--format", "svg"]):
        assert main(argv) in (0, 2)
        capsys.readouterr()
    assert calls == {"tau": 0, "injective": 0}
    assert main([str(WORKLOADS / "a5.alg"), "info"]) == 0
    assert calls["injective"] > 0


@pytest.mark.parametrize("command, fmt", [("graph", "svg"), ("graph", "json"),
                                          ("verify", "table"), ("fan", "dot"),
                                          ("info", "svg"), ("enumerate", "dot")])
def test_format_a_command_cannot_write_is_refused(a3_rel_file, command, fmt, capsys):
    code, out, err = run_cli_err([a3_rel_file, command, "--format", fmt], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {command} cannot write --format {fmt}")


@pytest.mark.parametrize("command, fmt", [("info", "table"), ("enumerate", "json"),
                                          ("verify", "json"), ("fan", "svg"),
                                          ("graph", "dot")])
def test_format_a_command_can_write_is_accepted(a3_rel_file, command, fmt, capsys):
    code, out, _err = run_cli_err([a3_rel_file, command, "--format", fmt], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("command, step, error, expected", [
    ("enumerate", "enumerate_exchange_graph", DecompositionError, 2),
    ("verify", "slate_for_node", TheoremViolationError, 3),
], ids=["decomposition", "theorem_violation"])
def test_engine_error_exits_with_one_line(a3_rel_file, capsys, monkeypatch,
                                          command, step, error, expected):
    # a typed engine error raised mid-run ends in its exit code and one
    # error line, never a traceback or partial output
    def raising(*args, **kwargs):
        raise error("planted failure")
    monkeypatch.setattr(f"tautilt.cli.{step}", raising)
    code, out, err = run_cli_err([a3_rel_file, command], capsys)
    assert code == expected and out == ""
    assert err == "error: planted failure\n" and "Traceback" not in err


@pytest.mark.parametrize("workload", ["preproj_a3", "a5"])
def test_verify_output_independent_of_warm_memo(workload, capsys):
    # fan fills the wall memo first, and a second verify finds every wall
    # and torsion step answered: both print the bytes of a cold verify
    from tautilt.algebra import parse_algebra
    from tautilt.cli import _build_parser, cmd_fan, cmd_verify
    path = str(WORKLOADS / f"{workload}.alg")
    cold = run_cli([path, "verify"], capsys)
    q = parse_algebra(Path(path).read_text())
    assert cmd_fan(q, _build_parser().parse_args([path, "fan"])) == 0
    capsys.readouterr()
    args = _build_parser().parse_args([path, "verify"])
    for _ in range(2):
        assert (cmd_verify(q, args), capsys.readouterr().out) == cold


def test_verify_reuses_quotients(monkeypatch, capsys):
    # one quotient per wall's generator, per exchange cokernel and per torsion
    # step: linear A5 makes 702, where one per (node, slot, step) made 1939
    from tautilt import modules
    calls = []
    original = modules.quotient_from_bases

    def counted(*args):
        calls.append(args)
        return original(*args)
    for name, mod in list(sys.modules.items()):
        if name.startswith("tautilt") and getattr(mod, "quotient_from_bases", None) is original:
            monkeypatch.setattr(mod, "quotient_from_bases", counted)
    code, out = run_cli([str(WORKLOADS / "a5.alg"), "verify"], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert 0 < len(calls) <= 1000
