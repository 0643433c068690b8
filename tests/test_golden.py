"""Byte-identical CLI output: stdout sha256 of a few small invocations.

Between them these runs pass through the cyclotomic arithmetic, the abacus,
the interleaving map, exact row reduction, the label fibres of the component
catalog and the character-table conversions, so a change to any of those
that alters a single output byte fails here.  The Norton test is pinned
below the CLI as well: the verdicts, trials, witnesses and spins of a seeded
family, and the verdicts and trials on the benchmark's representations.
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cmfix.cli import _read_rep, main
from cmfix.linalg import Mat
from cmfix.quiver import QuiverRep, _spin, norton_simplicity, random_rep, scale_action

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import NORTON_SEED, quiver_reps  # noqa: E402

from oracles import rep_json  # noqa: E402

GOLDEN = [
    pytest.param(["chartable", "--l", "3", "--n", "3"],
                 "a6a9e35fef0fd12fd19a14811ed5d5d5039ae616fbefc4ff221742ee5872761f",
                 id="chartable"),
    pytest.param(["verify-filtration", "--l", "2", "--n", "3", "--k", "2"],
                 "087dfcb8541013f8a3715d1e0b966310e97b1b9a38f45c0a2158c99e90b214b3",
                 id="verify-filtration"),
    pytest.param(["components", "--l", "2", "--n", "4", "--k", "2", "--a", "1/97",
                  "--kparams=1/89,-1/89"],
                 "b2583016b15ea140bcd02bd1a6f6949379463ae1a818f358355f4d870d5a6cbf",
                 id="components"),
    pytest.param(["components", "--l", "2", "--n", "6", "--k", "3", "--a", "1/97",
                  "--kparams=1/89,-1/89"],
                 "b58a9e69d482c9089c35d67411e45bde1f641fc63c5ceb70cd9e9cf3cc5bc639",
                 id="components-l2-n6-k3"),
    pytest.param(["components", "--l", "2", "--n", "6", "--k", "3", "--a", "1/97",
                  "--kparams=1/89,-1/89", "--format", "csv"],
                 "5cd9008f664fac9964b0944738a68a304839e0552a2ffcf352775e9e32ef61ea",
                 id="components-l2-n6-k3-csv"),
    # the slot rule i + (k-1-t)l is least symmetric at l = 3, and at k > n
    # every quotient is empty
    pytest.param(["components", "--l", "3", "--n", "5", "--k", "2", "--a", "1/97",
                  "--kparams=1/89,1/83,-172/7387"],
                 "06b57e2b020c6d86782145faa13e0c3584368e1034a349c8d59c3b7836a631a5",
                 id="components-l3-n5-k2"),
    pytest.param(["components", "--l", "1", "--n", "4", "--k", "6", "--a", "1/97",
                  "--kparams=0"],
                 "2822f0b90da1481acf041d9d943301bf6f5f0e1303707374522a6a710ef8b276",
                 id="components-l1-n4-k6"),
    pytest.param(["verify-filtration", "--l", "3", "--n", "3", "--k", "2",
                  "--gamma", "[[1],[],[]]"],
                 "3386994b0dc30914f8e45cd1538a9f1e9c3bf13c0adaf7a087aa5b0a438efe5a",
                 id="verify-filtration-l3-n3-k2-gamma"),
    pytest.param(["verify-filtration", "--l", "3", "--n", "2", "--k", "2"],
                 "87634ebba7e2d5c3c5be20f7d5c2e5fc5c2369f21003715876de3566ee80ea9e",
                 id="verify-filtration-l3-n2-k2"),
    pytest.param(["verify-filtration", "--l", "2", "--n", "5", "--k", "2"],
                 "517fe5cbc512abe4f2699ccd71c103eb0c6c35aaf2a7e8ef1cbe1b1a81d85c3d",
                 id="verify-filtration-l2-n5-k2"),
    pytest.param(["verify-filtration", "--l", "3", "--n", "3", "--k", "2"],
                 "38d3306fb2e8414380913bc373ee4298ec99b5fe135bb0e3741267781c1a25d7",
                 id="verify-filtration-l3-n3-k2"),
    pytest.param(["verify-filtration", "--l", "2", "--n", "5", "--k", "3"],
                 "27bafd405bca92c949acc1bfc763ade777864ef335301501d686ca301c2be2c7",
                 id="verify-filtration-l2-n5-k3"),
    pytest.param(["chartable", "--l", "4", "--n", "3"],
                 "b80fce7e2e25fb4f163d3a809ff7204c3c46ea579e4d96a8732680eaa8c70fcd",
                 id="chartable-l4-n3"),
    pytest.param(["chartable", "--l", "6", "--n", "2"],
                 "61b23a0749888d45bbc6229a361e24a25fb459da02a1b0a20d8452a4b0504b40",
                 id="chartable-l6-n2"),
    pytest.param(["chartable", "--l", "1", "--n", "5"],
                 "427ef20828b37d6ce5a9a51e286c65962d11e499641080f3f02f51b6230ae107",
                 id="chartable-l1-n5"),
    pytest.param(["selftest", "--seed", "0"],
                 "64d93b749fcb5dda1879f2cd9a9d7f6cc9e679b5fd9a4f074f54cad286841f4b",
                 id="selftest"),
    pytest.param(["selftest"],
                 "64d93b749fcb5dda1879f2cd9a9d7f6cc9e679b5fd9a4f074f54cad286841f4b",
                 id="selftest-default-seed"),
    pytest.param(["selftest", "--seed", "7"],
                 "64d93b749fcb5dda1879f2cd9a9d7f6cc9e679b5fd9a4f074f54cad286841f4b",
                 id="selftest-seed-7"),
    pytest.param(["cores", "--partition", "5,3,3,1", "--l", "3"],
                 "2e35ca295da20170ca69b790ae55a29c4a0ffa527bf7d399110ce598ddbdf8cd",
                 id="cores"),
    pytest.param(["cores", "--partition", "-", "--l", "2"],
                 "fdb1aa9c0bed40ba433297b225a268aaf1da8b5d6838031ea8b7cf7704023e0b",
                 id="cores-empty"),
    pytest.param(["quotient", "--partition", "5,3,3,1", "--l", "3"],
                 "6947b734fd01d8bf26c9896f3ecb02bb8705902af9460409eae9d9139cec58ab",
                 id="quotient"),
    pytest.param(["quotient", "--partition", "-", "--l", "2"],
                 "8cf08336ad4fb78c3ca213def5a130d7cfc6a21086056b269e49162eb0796e14",
                 id="quotient-empty"),
    pytest.param(["residues", "--partition", "5,3,3,1", "--l", "3"],
                 "bff14c6a4dc956747fab382af35e62cf666dcffe7ba652dd8b9e90f4e6a5424f",
                 id="residues"),
    pytest.param(["residues", "--partition", "-", "--l", "2"],
                 "07ab14dcc3fe33aea5472187b552891910ecd4784fb8095aca90bd7fa8980766",
                 id="residues-empty"),
    pytest.param(["enumerate-e", "--k", "2", "--l", "2", "--n", "4"],
                 "cc7eb0dabd010a5449bb7d52d6e4f052d9c9bff712cb8c6c6752995adb30df77",
                 id="enumerate-e"),
    pytest.param(["transport", "--l", "2", "--k", "2", "--d", "1,1,1,0", "--a", "1/97",
                  "--kparams=1/89,-1/89"],
                 "42146fa6031a294d325249125fee02c23810aff64c82aedf3843c8320b4b7399",
                 id="transport"),
    pytest.param(["smooth", "--criterion", "gl1n", "--l", "2", "--n", "2", "--a", "0",
                  "--kparams=1,-1"],
                 "d7ec676f341ecee9898d2804c47b10240e2d31c21f466f85a2e6f8a939355f76",
                 id="smooth-gl1n"),
    pytest.param(["smooth", "--criterion", "quiver", "--l", "2", "--n", "3", "--a", "1/97",
                  "--kparams=1/89,-1/89"],
                 "7b8961a2ff32d7139ab28ed369912c526a9597b6d307e15195fd9fa110339ef9",
                 id="smooth-quiver"),
    pytest.param(["smooth", "--criterion", "cyclic", "--kparams=0,0"],
                 "936e88636a6ae9b8ca19eab97736de5468d1d698957d9a50b087ecf580290909",
                 id="smooth-cyclic"),
    pytest.param(["smooth", "--criterion", "g4", "--kparams=1,2,-3"],
                 "a1508513caadecdbe3355d569add0e58132967e6029862d921fd71a48ba4e361",
                 id="smooth-g4"),
    pytest.param(["chartable", "--l", "3", "--n", "5"],
                 "00bae0581385f31b99740099398fe79d168467b1b63fcfb883f7908c9bd98958",
                 id="chartable-l3-n5"),
]

# a seeded random representation of dimension (2, 1, 1), checked at seed 11
QUIVER_DIGEST = "d86c108932ff0fc6039d19191b717003f6d7777c881917e5488e1008c9d55cc3"


def digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_golden_stdout(argv, expected):
    assert digest(argv) == expected


def test_golden_quiver_check(tmp_path, monkeypatch):
    # --seed is the only seed knob: the environment is not read, so even a
    # CM_SEED that is not an integer changes nothing
    monkeypatch.setenv("CM_SEED", "not-a-seed")
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep_json(random_rep((2, 1, 1), random.Random(7)))))
    argv = ["quiver-check", "--rep", str(f), "--seed", "11", "--theta", "1,-1,0"]
    assert digest(argv) == QUIVER_DIGEST


# verdicts, trials, witnesses and spin bases of the family below, and its
# (Simple, NotSimple, Unknown) counts
NORTON_FAMILY_DIGEST = "3f69e1372cd981fcd4dfe161e8ef52e99819adede46f863974121d310c2fc77e"
NORTON_COUNTS = (43, 96, 11)


def norton_family():
    """150 seeded representations with l <= 4 and d_i <= 3.

    By i mod 5: left as drawn, some zero arrows, an all-zero X, every arrow
    scaled by a fraction, or a fractional scale_action.
    """
    rng = random.Random(8)
    for i in range(150):
        l = rng.randint(1, 4)
        d = tuple(rng.randint(0, 3) for _ in range(l))
        rep = random_rep(d, rng, -2, 2)
        X, Y = list(rep.X), list(rep.Y)
        kind = i % 5
        if kind == 1:
            X = [Mat.zeros(m.rows, m.cols) if rng.random() < 0.3 else m for m in X]
            Y = [Mat.zeros(m.rows, m.cols) if rng.random() < 0.3 else m for m in Y]
        elif kind == 2:
            X = [Mat.zeros(m.rows, m.cols) for m in X]
        elif kind == 3:
            X = [m.scale(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6))) for m in X]
            Y = [m.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7))) for m in Y]
        rep = QuiverRep(d, tuple(X), tuple(Y))
        if kind == 4:
            rep = scale_action(Fraction(rng.randint(1, 5), rng.randint(2, 7)), rep)
        seeds = [(v, tuple(rng.randint(-2, 2) for _ in range(d[v]))) for v in range(l) if d[v]]
        yield i, rep, seeds


def _canon(obj):
    # every scalar read as a Fraction: int versus Fraction is free, values are not
    if isinstance(obj, (tuple, list)):
        return tuple(_canon(x) for x in obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(Fraction(obj))


def test_golden_norton_family():
    counts = {"Simple": 0, "NotSimple": 0, "Unknown": 0}
    h = hashlib.sha256()
    for i, rep, seeds in norton_family():
        res = norton_simplicity(rep, seed=i, budget=16)
        counts[res.status] += 1
        bases = [_spin(rep, [s]) for s in seeds]
        h.update(repr(_canon((res.status, str(res.trials), res.witness, bases))).encode())
    assert (counts["Simple"], counts["NotSimple"], counts["Unknown"]) == NORTON_COUNTS
    assert h.hexdigest() == NORTON_FAMILY_DIGEST


# (status, trials) of the Norton test on the representations of the
# benchmark's quiver workload, for its Norton seed and for seed 0; the CLI
# prints no trials, so only this notices a change in the path to a verdict
NORTON_WORKLOAD = {
    NORTON_SEED: {"cm6": ("Simple", 1), "zero-vertex-2222": ("NotSimple", 0),
                  "zero-arrow-222222": ("Simple", 16), "generic-3333": ("Simple", 27),
                  "generic-444": ("Unknown", 32), "zero-arrow-2222": ("NotSimple", 0)},
    0: {"cm6": ("Simple", 4), "zero-vertex-2222": ("NotSimple", 0),
        "zero-arrow-222222": ("Simple", 21), "generic-3333": ("Simple", 16),
        "generic-444": ("Unknown", 32), "zero-arrow-2222": ("NotSimple", 0)},
}


@pytest.mark.parametrize("seed", sorted(NORTON_WORKLOAD))
def test_golden_norton_on_the_workload_reps(seed):
    reps = {stem: _read_rep(obj) for stem, obj in quiver_reps(1, False).items()}
    got = {stem: norton_simplicity(rep, seed=seed) for stem, rep in reps.items()}
    assert {stem: (r.status, r.trials) for stem, r in got.items()} == NORTON_WORKLOAD[seed]
