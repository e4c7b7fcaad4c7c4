"""One traced CLI run, in the fresh process that ``run.py --trace 1`` starts.

    python3 bench/traced.py SPANS_JSON -- <tautilt CLI arguments>

Wraps the layer functions named in ``TRACED`` from the outside, re-binds
each wrapper in every ``tautilt.*`` namespace that holds the original
(``from .modules import hom_basis`` binds at import time), calls
``tautilt.cli.main(argv)`` once and exits with its return code.  Spans stay
in memory and are written to SPANS_JSON after the run, together with the
counters that need the call arguments or results.  Nothing in ``src/`` is
edited.

Only the functions the per-layer metrics name are wrapped: wrapping every
public function (830k calls on a5-verify, mostly ``linalg.zeros``) nearly
doubles the run, while this set keeps the overhead near the noise.
"""

from __future__ import annotations

import base64
import importlib
import json
import sys
import time
from array import array

TRACED = {
    "algebra": ("parse_algebra",),
    "linalg": ("rref", "solve", "nullspace", "det", "inverse"),
    "modules": ("hom_basis", "trace", "tau", "minimal_projective_presentation",
                "decompose", "is_isomorphic", "minimal_left_approximation", "minimal_right_approximation",
                "cokernel"),
    "tautilting": ("enumerate_exchange_graph", "mutate_down", "slot_mutates_down",
                   "c_matrix"),
    "stability": ("brick_slate", "verify_pair", "submodule_dim_vectors",
                  "fac_contains", "minimal_torsion_contains",
                  "self_extension_witness"),
    "wallchamber": ("build_fan", "emit_svg_stereographic", "emit_fan_json",
                    "emit_dot"),
    "cli": ("main",),
}
# counted but given no span, so the symbolic fallback's time (sympy import
# included) stays in is_isomorphic's self time
COUNTED = {"modules": ("_is_isomorphic_symbolic",)}
RUN_ID = 0  # one traced CLI call per process, so one run id per spans file
# calls whose distinct arguments (by value) are counted
DISTINCT = ("modules.hom_basis", "stability.submodule_dim_vectors")


class Tracer:
    """Spans as parallel arrays: name index, parent span (-1 at the root),
    start and end in ``time.perf_counter`` seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.rref_cells = 0
        self.rref_max_cells = 0
        self.oracle_skipped = 0
        self.counts: dict[str, int] = {}
        self.arg_keys: dict[str, set] = {name: set() for name in DISTINCT}
        self._value_ids: dict[tuple, int] = {}
        self._uid_to_value: dict[int, int] = {}

    def rep_key(self, rep) -> int:
        """A module by value (dims plus arrow-matrix entries), interned to an
        int.  Read from its attributes, so it calls nothing in tautilt."""
        key = self._uid_to_value.get(rep._uid)
        if key is None:
            value = (rep.dims, tuple((name, tuple(tuple(row) for row in m.tolist()))
                                     for name, m in sorted(rep.arrow_maps.items())))
            key = self._value_ids.setdefault(value, len(self._value_ids))
            self._uid_to_value[rep._uid] = key
        return key

    def note_args(self, name: str, args, kwargs) -> None:
        if name == "linalg.rref":
            rows, cols = args[0].shape
            self.rref_cells += rows * cols
            self.rref_max_cells = max(self.rref_max_cells, rows * cols)
        elif name == "modules.hom_basis":
            self.arg_keys[name].add((self.rep_key(args[0]), self.rep_key(args[1])))
        elif name == "stability.submodule_dim_vectors":
            p = args[1] if len(args) > 1 else kwargs.get("p", 2)
            self.arg_keys[name].add((self.rep_key(args[0]), p))

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        watched = name in ("linalg.rref",) + DISTINCT
        is_verify = name == "stability.verify_pair"

        def traced(*args, **kwargs):
            if watched:
                self.note_args(name, args, kwargs)
            span = len(start)
            name_of.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if is_verify:
                self.oracle_skipped += result.get("dual_oracle_skipped", 0)
            return result

        return traced

    def count(self, name: str, fn):
        self.counts[name] = 0

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str, exit_code: int) -> None:
        def b64(a: array) -> str:
            return base64.b64encode(a.tobytes()).decode("ascii")

        payload = {
            "exit_code": exit_code,
            "run_id": RUN_ID,
            "names": self.names,
            "spans": {"name": b64(self.name_of), "parent": b64(self.parent),
                      "start": b64(self.start), "end": b64(self.end)},
            "counters": {
                "linalg.rref.cells": self.rref_cells,
                "linalg.rref.max_cells": self.rref_max_cells,
                "stability.oracle_skipped": self.oracle_skipped,
                **{f"{name}.distinct": len(keys) for name, keys in self.arg_keys.items()},
                **{f"{name}.calls": n for name, n in self.counts.items()},
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load_spans(payload: dict) -> tuple[list[int], list[int], list[float], list[float]]:
    """Decode the span arrays written by ``Tracer.dump``."""
    out = []
    for field, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        a = array(code)
        a.frombytes(base64.b64decode(payload["spans"][field]))
        out.append(a.tolist())
    return tuple(out)


def install(tracer: Tracer) -> None:
    wrappers = {}
    for table, make in ((TRACED, tracer.wrap), (COUNTED, tracer.count)):
        for layer, names in table.items():
            mod = importlib.import_module(f"tautilt.{layer}")
            for attr in names:
                fn = getattr(mod, attr)
                wrappers[id(fn)] = make(f"{layer}.{attr}", fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tautilt" and not mod_name.startswith("tautilt."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write("usage: traced.py SPANS_JSON -- <tautilt arguments>\n")
        return 64
    spans_path, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    code = sys.modules["tautilt.cli"].main(argv)
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
