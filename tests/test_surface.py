"""The public surface: what each import loads, the names the benchmark's
tracer wraps, and the engine's independence from test-only code."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# prints, after the import and after each command, which tautilt modules are loaded
_LOADED = """\
import io, json, sys
from contextlib import redirect_stdout
def loaded():
    return sorted(m for m in sys.modules if m == "tautilt" or m.startswith("tautilt."))
import tautilt
steps = [loaded()]
from tautilt import cli
steps.append(loaded())
for command in sys.argv[2:]:
    with redirect_stdout(io.StringIO()):
        assert cli.main([sys.argv[1], command]) == 0
    steps.append(loaded())
print(json.dumps(steps))
"""


def _loaded_after(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED, str(ROOT / "algebras" / "a3_rel.alg"),
                          *commands], env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_only_the_parser():
    package, cli, *after = _loaded_after("info", "enumerate", "verify")
    assert package == ["tautilt", "tautilt.algebra", "tautilt.linalg"]
    assert "tautilt.cli" in cli and "tautilt.wallchamber" not in cli
    for loaded in after:
        assert "tautilt.wallchamber" not in loaded


@pytest.mark.parametrize("command", ["fan", "graph"])
def test_fan_and_graph_load_wallchamber(command):
    *_, loaded = _loaded_after(command)
    assert "tautilt.wallchamber" in loaded


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_traced", ROOT / "bench" / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return [(layer, name) for table in (traced.TRACED, traced.COUNTED)
            for layer, names in table.items() for name in names]


TRACED_NAMES = _traced_names()


@pytest.mark.parametrize("layer, name", TRACED_NAMES,
                         ids=[f"{layer}.{name}" for layer, name in TRACED_NAMES])
def test_every_benchmark_traced_name_resolves(layer, name):
    # bench/traced.py wraps these by name; a missing one fails a traced run
    assert callable(getattr(importlib.import_module(f"tautilt.{layer}"), name))


def test_engine_names_no_test_only_code():
    moved = {name for name, obj in vars(reference).items()
             if getattr(obj, "__module__", None) == reference.__name__}
    assert {"rep_from_literal", "mat", "simple", "pair_is_valid", "is_stable_bruteforce"} <= moved
    for path in sorted((SRC / "tautilt").glob("*.py")):
        codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        names = set()
        while codes:
            code = codes.pop()
            names |= set(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        assert not names & moved, (path.name, sorted(names & moved))
