"""The benchmark's workloads and their seeded input generator.

A workload is a list of CLI invocations (argument lists for
``cmfix.cli.main``), all run in one fresh interpreter per sample.  The
program only ever sees the files written here and the flags returned here.

``plan(seed, workdir, tiny)`` writes the inputs for ``seed`` into
``workdir`` and returns the invocations.  The same seed always gives the
same files and flags.  ``tiny`` selects a reduced size used by the
benchmark's own tests.

Seeds reach the inputs in two ways, both chosen so that every invocation has
one pinned reference output (see ``pins.json``):

* ``quiver``: the representations are fixed draws; the seed picks a
  change of basis by a diagonal +-1 matrix at every vertex.  Moment-map
  traces, fiber membership and the simplicity verdict are invariant under a
  change of basis, and a sign change keeps the size of every intermediate
  fraction, so the output and the amount of work are the same for every
  seed while the input files differ.
* ``catalog``: the parameters (a, k_i) are drawn from ``seed % VARIANTS``,
  and ``pins.json`` holds the outputs of all ``VARIANTS`` draws.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# catalog parameter draws that have pinned outputs
VARIANTS = 16

# seed of the Norton test inside quiver-check; fixed so that the verdict
# depends on the representation only (the CLI default, passed explicitly)
NORTON_SEED = 20200513

# fixed seed of the quiver base representations
_BASE_SEED = 7

_LARGE_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                 1000117, 1000121, 1000133, 1000151, 1000159, 1000171)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[int, Path, bool], list[list[str]]]


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# filtration and chartable: fixed flags, the seed changes nothing
# ---------------------------------------------------------------------------


def _filtration(seed: int, workdir: Path, tiny: bool) -> list[list[str]]:
    grid = ((2, 2, 2),) if tiny else ((3, 3, 2), (2, 5, 2))
    return [["verify-filtration", "--l", str(l), "--n", str(n), "--k", str(k)]
            for l, n, k in grid]


def _chartable(seed: int, workdir: Path, tiny: bool) -> list[list[str]]:
    sizes = ((2, 2), (3, 2)) if tiny else ((3, 5), (4, 4))
    return [["chartable", "--l", str(l), "--n", str(n)] for l, n in sizes]


# ---------------------------------------------------------------------------
# quiver: rational representations in the docs/schemas.md format
# ---------------------------------------------------------------------------


def _random_block(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]


def _zero_block(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def _generic(rng: random.Random, d: tuple[int, ...]):
    l = len(d)
    X = [_random_block(rng, d[i], d[(i + 1) % l]) for i in range(l)]
    Y = [_random_block(rng, d[(i + 1) % l], d[i]) for i in range(l)]
    return X, Y


def _zero_arrow(rng: random.Random, d: tuple[int, ...]):
    # Y_0 = 0: one arrow of the cyclic quiver carries nothing
    X, Y = _generic(rng, d)
    Y[0] = _zero_block(d[1 % len(d)], d[0])
    return X, Y


def _zero_vertex(rng: random.Random, d: tuple[int, ...]):
    # both arrows out of vertex 0 vanish, so vertex 0 alone is a subrepresentation
    l = len(d)
    X, Y = _generic(rng, d)
    Y[0] = _zero_block(d[1 % l], d[0])
    X[l - 1] = _zero_block(d[l - 1], d[0])
    return X, Y


def _cm_point(rng: random.Random, d: tuple[int, ...]):
    # Jordan quiver (l = 1): X = diag(x), Y_ij = 1/(x_i - x_j), so that
    # [X, Y] + Id has rank one and the point lies in the fiber at theta = -1
    (n,) = d
    xs = rng.sample(range(-20, 21), n)
    X = [[Fraction(xs[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    Y = [[Fraction(rng.randint(-5, 5)) if i == j else Fraction(1, xs[i] - xs[j])
          for j in range(n)] for i in range(n)]
    return [X], [Y]


# (file stem, construction, dimension vector, theta)
_REPS = (
    ("cm6", _cm_point, (6,), "-1"),
    ("zero-vertex-2222", _zero_vertex, (2, 2, 2, 2), "1,-1,2,-2"),
    ("zero-arrow-222222", _zero_arrow, (2, 2, 2, 2, 2, 2), "1,0,0,0,0,-1"),
    ("generic-3333", _generic, (3, 3, 3, 3), "2,-1,1,-2"),
    ("generic-444", _generic, (4, 4, 4), "1,1,-2"),
    ("zero-arrow-2222", _zero_arrow, (2, 2, 2, 2), "1/2,-1/2,3,-3"),
)

_TINY_REPS = (
    ("cm3", _cm_point, (3,), "-1"),
    ("zero-vertex-111", _zero_vertex, (1, 1, 1), "1,0,-1"),
    ("generic-22", _generic, (2, 2), "1,-1"),
)


def _sign_change(X, Y, signs):
    # X_i -> S_i X_i S_{i+1},  Y_i -> S_{i+1} Y_i S_i  with S diagonal +-1
    l = len(X)

    def conj(m, left, right):
        return [[left[r] * right[c] * x for c, x in enumerate(row)] for r, row in enumerate(m)]

    return ([conj(X[i], signs[i], signs[(i + 1) % l]) for i in range(l)],
            [conj(Y[i], signs[(i + 1) % l], signs[i]) for i in range(l)])


def quiver_reps(seed: int, tiny: bool) -> dict[str, dict]:
    """The representations for ``seed``, as schema objects keyed by file stem."""
    base = random.Random(_BASE_SEED)
    rng = random.Random(seed)
    out = {}
    for stem, build, d, _theta in (_TINY_REPS if tiny else _REPS):
        X, Y = build(base, d)
        signs = [[rng.choice((1, -1)) for _ in range(di)] for di in d]
        X, Y = _sign_change(X, Y, signs)
        out[stem] = {
            "l": len(d),
            "d": list(d),
            "X": [[[_fmt(x) for x in row] for row in m] for m in X],
            "Y": [[[_fmt(x) for x in row] for row in m] for m in Y],
        }
    return out


def _quiver(seed: int, workdir: Path, tiny: bool) -> list[list[str]]:
    reps = quiver_reps(seed, tiny)
    argvs = []
    for stem, _build, _d, theta in (_TINY_REPS if tiny else _REPS):
        name = f"{stem}.json"
        (workdir / name).write_text(json.dumps(reps[stem]), encoding="utf-8")
        argvs.append(["quiver-check", "--rep", name, f"--theta={theta}",
                      "--seed", str(NORTON_SEED)])
    return argvs


# ---------------------------------------------------------------------------
# catalog: smooth parameters with large-prime denominators
# ---------------------------------------------------------------------------


def _smooth(a: Fraction, ks: list[Fraction], n: int) -> bool:
    # a * prod_{i != j, 0 <= r < n} (k_i - k_j - r a) != 0
    return a != 0 and all(
        ki - kj - r * a != 0
        for i, ki in enumerate(ks) for j, kj in enumerate(ks) if i != j
        for r in range(n)
    )


def catalog_params(seed: int, l: int, n: int) -> tuple[Fraction, list[Fraction]]:
    """A generic smooth (a, k_0..k_{l-1}) with sum(k) = 0, drawn from seed % VARIANTS."""
    rng = random.Random(f"catalog-{seed % VARIANTS}-{l}-{n}")
    while True:
        a = Fraction(rng.randint(1, 999), rng.choice(_LARGE_PRIMES))
        ks = [Fraction(rng.randint(-999, 999), rng.choice(_LARGE_PRIMES)) for _ in range(l - 1)]
        ks.append(-sum(ks, Fraction(0)))
        if _smooth(a, ks, n):
            return a, ks


def _components(seed: int, l: int, n: int, k: int, fmt: str) -> list[str]:
    a, ks = catalog_params(seed, l, n)
    return ["components", "--l", str(l), "--n", str(n), "--k", str(k),
            f"--a={_fmt(a)}", "--kparams=" + ",".join(_fmt(x) for x in ks),
            "--format", fmt]


def _catalog(seed: int, workdir: Path, tiny: bool) -> list[list[str]]:
    if tiny:
        return [_components(seed, 2, 2, 2, "json"),
                _components(seed, 2, 3, 3, "csv"),
                ["enumerate-e", "--k", "2", "--l", "2", "--n", "2"],
                ["selftest", "--seed", str(seed % VARIANTS)]]
    return [_components(seed, 3, 9, 2, "json"),
            _components(seed, 2, 12, 3, "csv"),
            ["enumerate-e", "--k", "2", "--l", "3", "--n", "6"],
            ["selftest", "--seed", str(seed % VARIANTS)]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "filtration",
        "The restriction round trip to_omega -> from_omega on cyclotomic mul/div/embed "
        "at order kl dominates it; it is the target of ROADMAP item 2.",
        _filtration,
    ),
    Workload(
        "chartable",
        "The rim-hook recursion and cyclotomic add/zeta at order l dominate it, the "
        "restriction does no work, and JSON serialization in cli is a visible share.",
        _chartable,
    ),
    Workload(
        "quiver",
        "quiver._spin and linalg over plain Fraction carry it, while wreath and "
        "cyclotomic arith do nothing; the verdicts mix Simple, NotSimple and Unknown.",
        _quiver,
    ),
    Workload(
        "catalog",
        "The only workload where partitions (core, inverse abacus) does most of the "
        "work and where fixed_points, parameters and affine_weyl run at all.",
        _catalog,
    ),
)}
