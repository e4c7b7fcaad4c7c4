#!/usr/bin/env python3
"""The tautilt benchmark: fresh-process CLI runs on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/tautilt``, imported from there and never edited.  With ``--trace 0`` it
times set-up (import plus parse) and whole CLI runs, one child process at a
time, and prints the end-to-end metrics.  With ``--trace 1`` it makes one
traced run (``traced.py``) plus untraced runs for the overhead base, and
prints the per-layer metrics.  Every run's output is checked against known
answers and the digest recorded at the seed commit; the CLI's ``--seed``
alternates between N and N+1, so every run is also a seed check.  The last
line of stdout is the JSON result; every run is kept in
``bench/results/<workload>-seed<N>-trace<T>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))
from traced import load_spans  # noqa: E402

# what the installed `tautilt` console script runs
CLI_ENTRY = "import sys; from tautilt.cli import main; sys.exit(main())"
SETUP_ENTRY = ("import sys; from tautilt.cli import parse_algebra; "
               "parse_algebra(open(sys.argv[1], encoding='utf-8').read())")
SETUP_REPEATS = 5  # set-up samples per run; the median is reported
MIN_RUNS = 2  # CLI runs per measurement, so both seeds are always covered
CHILD_TIMEOUT = 120.0  # seconds; a child still running then is killed and failed


# ----------------------------------------------------------------------
# known answers
# ----------------------------------------------------------------------

def check_a5_verify(out: bytes) -> str | None:
    doc = json.loads(out)
    if doc["nodes"] != 132 or len(doc["reports"]) != 132:
        return f"expected 132 pairs, got {doc['nodes']}"
    if len(doc["bricks"]) != 15:
        return f"expected 15 bricks, got {len(doc['bricks'])}"
    if doc["all_pass"] is not True:
        return "all_pass is not true"
    return None


def check_kronecker(out: bytes) -> str | None:
    doc = json.loads(out)
    if len(doc["pairs"]) != 12 or len(doc["edges"]) != 11:
        return f"expected 12 pairs and 11 edges, got {len(doc['pairs'])} and {len(doc['edges'])}"
    if doc["complete"] is not False:
        return "a truncated graph must not be complete"
    return None


def check_preproj_svg(out: bytes) -> str | None:
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(out)
    chambers = sum(1 for el in root.iter(f"{ns}text") if el.get("font-size") == "11")
    # walls are drawn in turn, each in the palette colour after the previous
    # wall's, so a wall is a run of arcs and circles of one stroke colour
    strokes = [el.get("stroke") for el in root if el.tag in (f"{ns}circle", f"{ns}path")]
    walls = sum(1 for k, s in enumerate(strokes) if k == 0 or s != strokes[k - 1])
    if chambers != 24 or walls != 11:
        return f"expected 24 chambers and 11 walls, got {chambers} and {walls}"
    return None


@dataclass(frozen=True)
class Workload:
    why: str
    algebra: str  # relative to the checkout root
    args: tuple[str, ...]
    exit_code: int
    digest: str  # sha256 of the output at the seed commit
    check: Callable[[bytes], str | None]


WORKLOADS = {
    "a5-verify": Workload(
        "stability-heavy full pipeline: 64k tiny rref calls, repeated Hom and "
        "submodule probes on few isomorphism classes",
        "bench/workloads/a5.alg", ("verify",), 0,
        "b5ccc2df9775f950bae987d61ad104b523499c11b310e62e3cb7e90c99d054b1",
        check_a5_verify),
    "kronecker-trunc12": Workload(
        "enumeration on a few large Hom systems (about 220 unknowns); rref "
        "dominates, no stability layer",
        "algebras/kronecker.alg",
        ("enumerate", "--format", "json", "--max-nodes", "12"), 2,
        "dd553f1df31a30bf7735c3e03a8f5c36ba44b57dde6d9c330d90328b286da9a5",
        check_kronecker),
    "preproj-a3-fan-svg": Workload(
        "cyclic quiver: isomorphism tests fall back to sympy; the only "
        "workload that runs the wall-chamber emitters",
        "bench/workloads/preproj_a3.alg", ("fan", "--format", "svg"), 0,
        "6b1012b0455174bf5cfbd5a606ad1f30afeb0054414c5524d9211c1601394434",
        check_preproj_svg),
}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(cmd: list[str], env: dict[str, str], stderr_path: Path) -> dict:
    """Run one child to completion; wall time is spawn to exit and
    ``peak_rss_mb`` the child's ``ru_maxrss`` from ``os.wait4``."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def check_run(w: Workload, run: dict, out_path: Path) -> dict:
    """Mark the run ok or record why it failed."""
    reason = None
    if run["exit_code"] != w.exit_code:
        reason = f"exit code {run['exit_code']}, expected {w.exit_code}"
    else:
        try:
            out = out_path.read_bytes()
        except OSError as exc:
            out, reason = b"", f"no output: {exc}"
        run["digest"] = hashlib.sha256(out).hexdigest()
        if reason is None:
            try:
                reason = w.check(out)
            except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is None and run["digest"] != w.digest:
            reason = "output differs from the digest recorded at the seed commit"
    run["ok"] = reason is None
    if reason is not None:
        run["reason"] = reason
    return run


def cli_run(w: Workload, seed: int, scratch: Path, traced_spans: Path | None = None) -> dict:
    out_path = scratch / "out"
    out_path.unlink(missing_ok=True)
    argv = [str(ROOT / w.algebra), *w.args, "--seed", str(seed), "-o", str(out_path)]
    if traced_spans is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(traced_spans), "--", *argv]
    run = spawn(cmd, child_env(), scratch / "stderr")
    run["seed"] = seed
    run["traced"] = traced_spans is not None
    return check_run(w, run, out_path)


def setup_run(w: Workload, scratch: Path) -> dict:
    run = spawn([sys.executable, "-c", SETUP_ENTRY, str(ROOT / w.algebra)],
                child_env(), scratch / "stderr")
    run["ok"] = run["exit_code"] == 0
    return run


def preflight(scratch: Path) -> None:
    """Fail fast, before any timing, when the checkout has no tautilt sources
    or the interpreter would import tautilt from elsewhere.  Also warms the
    bytecode cache, which users pay for once, not per run."""
    for w in WORKLOADS.values():
        if not (ROOT / w.algebra).is_file():
            raise SystemExit(f"error: workload input {w.algebra} is missing")
    probe = subprocess.run(
        [sys.executable, "-c", "import tautilt.cli, tautilt; print(tautilt.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if probe.returncode != 0:
        raise SystemExit(f"error: cannot import tautilt from {SRC}:\n{probe.stderr}")
    found = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"error: tautilt imports from {found}, not from {SRC}")
    scratch.mkdir(parents=True, exist_ok=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median and quartiles; failed runs enter as +inf (a missed timing)."""
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def timings(runs: list[dict], key: str) -> list[float]:
    return [r[key] if r["ok"] else math.inf for r in runs]


def metric(value, unit: str) -> dict:
    if isinstance(value, float) and not math.isfinite(value):
        value = None  # the median run failed; `correct` is false as well
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# per-layer metrics from the spans of one traced run
# ----------------------------------------------------------------------

INCLUSIVE = ("algebra.parse_algebra", "tautilting.enumerate_exchange_graph",
             "stability.brick_slate", "stability.verify_pair",
             "stability.self_extension_witness", "wallchamber.build_fan",
             "wallchamber.emit_svg_stereographic", "wallchamber.emit_fan_json",
             "wallchamber.emit_dot", "cli.main")
CALLS = ("linalg.rref", "linalg.solve", "linalg.nullspace", "linalg.det",
         "linalg.inverse", "modules.hom_basis", "modules.trace", "modules.tau",
         "modules.minimal_projective_presentation", "modules.decompose",
         "modules.is_isomorphic", "tautilting.mutate_down",
         "tautilting.slot_mutates_down", "tautilting.c_matrix",
         "stability.submodule_dim_vectors", "stability.fac_contains",
         "stability.minimal_torsion_contains")
SELF = ("linalg.rref", "linalg.solve", "linalg.nullspace", "linalg.det",
        "modules.hom_basis", "modules.trace", "modules.decompose",
        "modules.is_isomorphic", "modules.minimal_left_approximation",
        "modules.minimal_right_approximation", "modules.cokernel",
        "tautilting.c_matrix", "stability.submodule_dim_vectors")
SELF_LAYERS = ("linalg", "modules", "tautilting", "stability")


def layer_metrics(payload: dict) -> dict[str, dict]:
    names = payload["names"]
    name_of, parent, start, end = load_spans(payload)
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    incl = {n: 0.0 for n in names}
    for i, k in enumerate(name_of):
        n = names[k]
        calls[n] += 1
        self_s[n] += dur[i] - child[i]
        if n in INCLUSIVE:
            # inclusive time counts only the outermost call of a name
            p = parent[i]
            while p >= 0 and name_of[p] != k:
                p = parent[p]
            if p < 0:
                incl[n] += dur[i]
    counters = payload["counters"]
    m: dict[str, dict] = {}
    for n in CALLS:
        m[f"{n}.calls"] = metric(calls[n], "count")
    for n in SELF:
        m[f"{n}.self_s"] = metric(self_s[n], "s")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = metric(
            sum(v for n, v in self_s.items() if n.startswith(layer + ".")), "s")
    for n in INCLUSIVE:
        m[f"{n}.s"] = metric(incl[n], "s")
    m["linalg.rref.cells"] = metric(counters["linalg.rref.cells"], "count")
    m["linalg.rref.max_cells"] = metric(counters["linalg.rref.max_cells"], "count")
    for n in ("modules.hom_basis", "stability.submodule_dim_vectors"):
        distinct = counters[f"{n}.distinct"]
        m[f"{n}.distinct_ratio"] = metric(distinct / calls[n] if calls[n] else 0.0, "ratio")
    m["modules.is_isomorphic.symbolic_fallbacks"] = metric(
        counters["modules._is_isomorphic_symbolic.calls"], "count")
    m["stability.oracle_skipped"] = metric(counters["stability.oracle_skipped"], "count")
    return m


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "tautilt").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "git_commit": commit,  # None in a checkout that is not a git repository
        "src_sha256": src_digest.hexdigest(),
    }


def measure(w: Workload, seed: int, seconds: float, scratch: Path, first: list[dict]) -> list[dict]:
    """CLI runs, one at a time, until ``seconds`` have passed and at least
    MIN_RUNS were made; the CLI seed alternates between seed and seed+1."""
    runs = list(first)
    t0 = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        runs.append(cli_run(w, seed + len(runs) % 2, scratch))
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    scratch = RESULTS / f"tmp-{os.getpid()}"
    preflight(scratch)
    env = environment()
    record: dict = {"workload": args.workload, "why": w.why, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "environment": env}

    if args.trace == 0:
        setup = [setup_run(w, scratch) for _ in range(SETUP_REPEATS)]
        runs = measure(w, args.seed, args.seconds, scratch, [])
        everything = setup + runs
        metrics = {
            "wall_s": metric(summary(timings(runs, "wall_s"))["median"], "s"),
            "setup_s": metric(summary(timings(setup, "wall_s"))["median"], "s"),
            "peak_rss_mb": metric(summary(timings(runs, "peak_rss_mb"))["median"], "MB"),
        }
        record["setup_runs"] = setup
    else:
        spans_path = scratch / "spans.json"
        traced = cli_run(w, args.seed, scratch, traced_spans=spans_path)
        runs = measure(w, args.seed, args.seconds - traced["wall_s"], scratch, [traced])
        untraced = [r for r in runs if not r["traced"]]
        everything = runs
        metrics = {}
        if traced["ok"]:
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
            metrics = layer_metrics(payload)
            base = summary(timings(untraced, "wall_s"))["median"]
            metrics["trace.overhead_ratio"] = metric(traced["wall_s"] / base, "ratio")
            (RESULTS / f"{args.workload}-spans.json").write_text(
                json.dumps(payload), encoding="utf-8")

    failed = sum(1 for r in everything if not r["ok"])
    cli_runs = [r for r in runs if not r.get("traced")]
    digests = {r.get("digest") for r in runs if r["exit_code"] == w.exit_code}
    record.update({
        "runs": runs,
        "summary": {key: summary(timings(cli_runs, key))
                    for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "fail_ratio": sum(1 for r in runs if not r["ok"]) / len(runs),
        "seed_check": {"seeds": sorted({r["seed"] for r in runs}),
                       "identical_outputs": len(digests) == 1},
        "metrics": metrics,
    })
    if "setup_runs" in record:
        record["summary"]["setup_s"] = summary(timings(record["setup_runs"], "wall_s"))
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for leftover in scratch.iterdir():
        leftover.unlink()
    scratch.rmdir()

    result = {"correct": failed == 0 and len(digests) == 1, "attempted": len(everything),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
