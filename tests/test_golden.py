"""Byte-identical CLI output: stdout sha256 of a few small invocations.

Between them these runs pass through the cyclotomic arithmetic, the abacus,
the interleaving map and exact row reduction, so a change to any of those
kernels that alters a single output byte fails here.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

import pytest

from cmfix.cli import main
from cmfix.quiver import random_rep

GOLDEN = [
    (["chartable", "--l", "3", "--n", "3"],
     "a6a9e35fef0fd12fd19a14811ed5d5d5039ae616fbefc4ff221742ee5872761f"),
    (["verify-filtration", "--l", "2", "--n", "3", "--k", "2"],
     "087dfcb8541013f8a3715d1e0b966310e97b1b9a38f45c0a2158c99e90b214b3"),
    (["components", "--l", "2", "--n", "4", "--k", "2", "--a", "1/97",
      "--kparams=1/89,-1/89"],
     "b2583016b15ea140bcd02bd1a6f6949379463ae1a818f358355f4d870d5a6cbf"),
]

# a seeded random representation of dimension (2, 1, 1), checked at seed 11
QUIVER_DIGEST = "d86c108932ff0fc6039d19191b717003f6d7777c881917e5488e1008c9d55cc3"


def digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[a[0] for a, _ in GOLDEN])
def test_golden_stdout(argv, expected):
    assert digest(argv) == expected


def test_golden_quiver_check(tmp_path, monkeypatch):
    monkeypatch.delenv("CM_SEED", raising=False)
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(random_rep((2, 1, 1), random.Random(7)).to_json()))
    argv = ["quiver-check", "--rep", str(f), "--seed", "11", "--theta", "1,-1,0"]
    assert digest(argv) == QUIVER_DIGEST
