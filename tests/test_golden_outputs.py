"""Byte-identity of the CLI: a committed sha256 of stdout, plus the exit code,
for `enumerate`, `enumerate --format json`, `verify`, `fan` and `graph` with
`--seed 0` and `--seed 1` on every bundled algebra (Kronecker truncated with
`--max-nodes 12`), and for `verify` on the two benchmark algebras and on
linear A6.

A change that moves any output byte fails here. To print the table for a
deliberate output change, run

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from tautilt.cli import main

ALGEBRAS = Path(__file__).resolve().parent.parent / "algebras"
WORKLOADS = ALGEBRAS.parent / "bench" / "workloads"

LINEAR_A6_TEXT = """\
vertices 6
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
arrow d: 4 -> 5
arrow e: 5 -> 6
"""

COMMANDS = {
    "enumerate": ["enumerate"],
    "enumerate-json": ["enumerate", "--format", "json"],
    "verify": ["verify"],
    "fan": ["fan"],
    "graph": ["graph"],
}

EXTRA_ARGS = {"kronecker": ["--max-nodes", "12"]}


def _cases():
    for path in sorted(ALGEBRAS.glob("*.alg")):
        for command in COMMANDS:
            for seed in (0, 1):
                yield f"{path.stem}-{command}-seed{seed}"


def _run(case: str) -> tuple[str, int]:
    stem, rest = case.split("-", 1)
    command, seed = rest.rsplit("-seed", 1)
    return _digest([str(ALGEBRAS / f"{stem}.alg"), *COMMANDS[command],
                    "--seed", seed, *EXTRA_ARGS.get(stem, [])])


def _digest(argv) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


GOLDEN = {
    "a2-enumerate-json-seed0": ("e32f11952565fdb97c18eab7375531be7b9d515e883266803d0d682bdae88f2e", 0),
    "a2-enumerate-json-seed1": ("e32f11952565fdb97c18eab7375531be7b9d515e883266803d0d682bdae88f2e", 0),
    "a2-enumerate-seed0": ("1c44a8ed2e3df383dc1fb17c7604f10890e23061ab8f4e2dda9f36c788476302", 0),
    "a2-enumerate-seed1": ("1c44a8ed2e3df383dc1fb17c7604f10890e23061ab8f4e2dda9f36c788476302", 0),
    "a2-fan-seed0": ("61bfbe591b13404a9382144a4de8faf2e3ea7e9dfe96c53ba19c6e2f9009acdd", 0),
    "a2-fan-seed1": ("61bfbe591b13404a9382144a4de8faf2e3ea7e9dfe96c53ba19c6e2f9009acdd", 0),
    "a2-graph-seed0": ("bcb7133eab32224d995543d0ed24d41e0c944c2093c45a513c20079b2242b20a", 0),
    "a2-graph-seed1": ("bcb7133eab32224d995543d0ed24d41e0c944c2093c45a513c20079b2242b20a", 0),
    "a2-verify-seed0": ("1c9bedb6fd745c8adf57cab8ef2cf8d2ded23acb09c7ec11cece4c97821a3aa4", 0),
    "a2-verify-seed1": ("1c9bedb6fd745c8adf57cab8ef2cf8d2ded23acb09c7ec11cece4c97821a3aa4", 0),
    "a3-enumerate-json-seed0": ("ee17d8c25e79dac81d80a826ca510a8f3d29e447d71649938f99ece5405e50dd", 0),
    "a3-enumerate-json-seed1": ("ee17d8c25e79dac81d80a826ca510a8f3d29e447d71649938f99ece5405e50dd", 0),
    "a3-enumerate-seed0": ("8f55bb71c2260e5df0b744a3a51b3021bc16ead5e5878da36e61c12250217305", 0),
    "a3-enumerate-seed1": ("8f55bb71c2260e5df0b744a3a51b3021bc16ead5e5878da36e61c12250217305", 0),
    "a3-fan-seed0": ("b2d5e5207c0860f48a379b59683e1146922def1be6a1ad8f3ddd6a221e4456dc", 0),
    "a3-fan-seed1": ("b2d5e5207c0860f48a379b59683e1146922def1be6a1ad8f3ddd6a221e4456dc", 0),
    "a3-graph-seed0": ("d260d13354479f173e9f8237961c05cc86241554b8d16874ff12b70ebf8135b3", 0),
    "a3-graph-seed1": ("d260d13354479f173e9f8237961c05cc86241554b8d16874ff12b70ebf8135b3", 0),
    "a3-verify-seed0": ("0794c54dbdc5ed0ef036ecc1fb852ec7856640e8e07440be9f584ffa990b8850", 0),
    "a3-verify-seed1": ("0794c54dbdc5ed0ef036ecc1fb852ec7856640e8e07440be9f584ffa990b8850", 0),
    "a3_rel-enumerate-json-seed0": ("2a2c4d469c49e2463b6b5d5cd241a2cfdda764a750258ee7e29159f5eb01a254", 0),
    "a3_rel-enumerate-json-seed1": ("2a2c4d469c49e2463b6b5d5cd241a2cfdda764a750258ee7e29159f5eb01a254", 0),
    "a3_rel-enumerate-seed0": ("6fdd88d31ecda89caf309b1b818a785356b3efb0d6baf240b2022fe9a4f47f3d", 0),
    "a3_rel-enumerate-seed1": ("6fdd88d31ecda89caf309b1b818a785356b3efb0d6baf240b2022fe9a4f47f3d", 0),
    "a3_rel-fan-seed0": ("0a752eee1c8096658bd761a69b498d63d7ac797388c458eb14791431d341bd89", 0),
    "a3_rel-fan-seed1": ("0a752eee1c8096658bd761a69b498d63d7ac797388c458eb14791431d341bd89", 0),
    "a3_rel-graph-seed0": ("2e2e41bc0f95d27019576709ad8d859e02cf10c779d7a8d8111b4e9c31d2e742", 0),
    "a3_rel-graph-seed1": ("2e2e41bc0f95d27019576709ad8d859e02cf10c779d7a8d8111b4e9c31d2e742", 0),
    "a3_rel-verify-seed0": ("2f81d7ef398ffafc8f526bb9b077ae937ae8ab072a3d9bf5f4a5b811dcc078bb", 0),
    "a3_rel-verify-seed1": ("2f81d7ef398ffafc8f526bb9b077ae937ae8ab072a3d9bf5f4a5b811dcc078bb", 0),
    "kronecker-enumerate-json-seed0": ("dd553f1df31a30bf7735c3e03a8f5c36ba44b57dde6d9c330d90328b286da9a5", 2),
    "kronecker-enumerate-json-seed1": ("dd553f1df31a30bf7735c3e03a8f5c36ba44b57dde6d9c330d90328b286da9a5", 2),
    "kronecker-enumerate-seed0": ("da689e41949fff96578e08ca3c42f3153ccf40c63c461d591b80bfb79252c3a6", 2),
    "kronecker-enumerate-seed1": ("da689e41949fff96578e08ca3c42f3153ccf40c63c461d591b80bfb79252c3a6", 2),
    "kronecker-fan-seed0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "kronecker-fan-seed1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "kronecker-graph-seed0": ("59edf5ff4a7774cdef7cbb14047af641903c901e0afb4b5488fa2af4d3583f77", 2),
    "kronecker-graph-seed1": ("59edf5ff4a7774cdef7cbb14047af641903c901e0afb4b5488fa2af4d3583f77", 2),
    "kronecker-verify-seed0": ("39793f209c2139d0cd8ca14fcbe4b96f2d4145933cb719211b7059f4cfcf33be", 2),
    "kronecker-verify-seed1": ("39793f209c2139d0cd8ca14fcbe4b96f2d4145933cb719211b7059f4cfcf33be", 2),
    "loop-enumerate-json-seed0": ("0acedf28d7977c8239208be7f0ed7c509eac3038d6443c4f229d55ab992dd741", 0),
    "loop-enumerate-json-seed1": ("0acedf28d7977c8239208be7f0ed7c509eac3038d6443c4f229d55ab992dd741", 0),
    "loop-enumerate-seed0": ("1d46d6dcb4414b51b399882b838c0c485eed330babcf4e6fb1cbf735a505171d", 0),
    "loop-enumerate-seed1": ("1d46d6dcb4414b51b399882b838c0c485eed330babcf4e6fb1cbf735a505171d", 0),
    "loop-fan-seed0": ("913c056585adef24cc2dcbddf238b63180d74a540e062096fd960ab691844ab1", 0),
    "loop-fan-seed1": ("913c056585adef24cc2dcbddf238b63180d74a540e062096fd960ab691844ab1", 0),
    "loop-graph-seed0": ("c22a4efbf42e4d22d3562b13743dd1e0f599750032acac9875016affbf9b370b", 0),
    "loop-graph-seed1": ("c22a4efbf42e4d22d3562b13743dd1e0f599750032acac9875016affbf9b370b", 0),
    "loop-verify-seed0": ("88c3381711ac8d6316833707b5bcc5fe6bfee6d721695cb2ce2916a173d1b3b6", 0),
    "loop-verify-seed1": ("88c3381711ac8d6316833707b5bcc5fe6bfee6d721695cb2ce2916a173d1b3b6", 0),
    "nakayama2-enumerate-json-seed0": ("bc1e770b7da01f228f0106d900c78311a4a47d690c70fd22f469a1645d6f6e59", 0),
    "nakayama2-enumerate-json-seed1": ("bc1e770b7da01f228f0106d900c78311a4a47d690c70fd22f469a1645d6f6e59", 0),
    "nakayama2-enumerate-seed0": ("052715f2add9189147881cb5920e4acd3d53e986bdd27cf5e3d59e10c41e8397", 0),
    "nakayama2-enumerate-seed1": ("052715f2add9189147881cb5920e4acd3d53e986bdd27cf5e3d59e10c41e8397", 0),
    "nakayama2-fan-seed0": ("58cd731446f5ba060a631ef83f4f6d939d1fd539ed909892ac33f4e56f655e9f", 0),
    "nakayama2-fan-seed1": ("58cd731446f5ba060a631ef83f4f6d939d1fd539ed909892ac33f4e56f655e9f", 0),
    "nakayama2-graph-seed0": ("c04d38e5973eceb4f0f4b6dc10e7672080e7e800924483421f477445699f2bb2", 0),
    "nakayama2-graph-seed1": ("c04d38e5973eceb4f0f4b6dc10e7672080e7e800924483421f477445699f2bb2", 0),
    "nakayama2-verify-seed0": ("fc89636c382c6bb70dcbedb3659dfb51dd8db1d855f869b728d36ee965a045c4", 0),
    "nakayama2-verify-seed1": ("fc89636c382c6bb70dcbedb3659dfb51dd8db1d855f869b728d36ee965a045c4", 0),
    "point-enumerate-json-seed0": ("c0c88f223c042da6b3b2ec5d0eeacfb9f5f53aafb8187e2a42925dd0fc140c77", 0),
    "point-enumerate-json-seed1": ("c0c88f223c042da6b3b2ec5d0eeacfb9f5f53aafb8187e2a42925dd0fc140c77", 0),
    "point-enumerate-seed0": ("616dc35215cdc685f4b223b978be114dbff4fc4bcf1fa435a457f9e0d84c49b8", 0),
    "point-enumerate-seed1": ("616dc35215cdc685f4b223b978be114dbff4fc4bcf1fa435a457f9e0d84c49b8", 0),
    "point-fan-seed0": ("252484c6d4c7390b34432c982244045ddcf791bf878adedebd39ebdf1ed375b1", 0),
    "point-fan-seed1": ("252484c6d4c7390b34432c982244045ddcf791bf878adedebd39ebdf1ed375b1", 0),
    "point-graph-seed0": ("bda326ab5413b86dbbe32441c9d890e39da3c3444cd5f372d5badfbaaac2d689", 0),
    "point-graph-seed1": ("bda326ab5413b86dbbe32441c9d890e39da3c3444cd5f372d5badfbaaac2d689", 0),
    "point-verify-seed0": ("75b4f0557f784fb39b0ab67f195a04fb17bc8e90e20081dc0e50055bdecc790b", 0),
    "point-verify-seed1": ("75b4f0557f784fb39b0ab67f195a04fb17bc8e90e20081dc0e50055bdecc790b", 0),
}


# verify on larger algebras, where every wall and torsion step is shared
PINNED = {
    "a5-verify": ("b5ccc2df9775f950bae987d61ad104b523499c11b310e62e3cb7e90c99d054b1", 0),
    "preproj_a3-verify": ("bad779cf86499976831dbce2dd78db0c58070a8935aa9913af071355ea8d3aca", 0),
    "linear_a6-verify": ("368278316ee5e458e948228c7f8384c5c1702ef46f827d1c3c6dc914dcda692b", 0),
}


def _run_pinned(case: str, tmp_dir: Path) -> tuple[str, int]:
    stem = case.rsplit("-", 1)[0]
    path = WORKLOADS / f"{stem}.alg"
    if stem == "linear_a6":
        path = tmp_dir / "linear_a6.alg"
        path.write_text(LINEAR_A6_TEXT)
    return _digest([str(path), "verify"])


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden_digest(case):
    assert _run(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_verify_output_matches_pinned_digest(case, tmp_path):
    assert _run_pinned(case, tmp_path) == PINNED[case]


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(_cases())


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(_cases()):
        digest, code = _run(case)
        print(f'    "{case}": ("{digest}", {code}),')
    print("}")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        print("PINNED = {")
        for case in sorted(PINNED):
            digest, code = _run_pinned(case, Path(tmp))
            print(f'    "{case}": ("{digest}", {code}),')
        print("}")
