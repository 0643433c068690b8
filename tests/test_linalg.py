import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmfix.arith import zeta
from cmfix.linalg import Mat
from oracles import nullspace_rref, rref_rows


def int_entry(rng):
    return rng.choice((0, 0, 1, -1, 2, -3))


def cyclotomic_entry(rng):
    v = int_entry(rng)
    return v * zeta(3, rng.randint(0, 2)) if v else v


def rational_entry(rng):
    return Fraction(int_entry(rng), rng.randint(1, 7))


def random_mats(entry, count: int = 60, seed: int = 3):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        data = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            data.append([2 * x for x in data[0]])  # force a dependent row
            rows += 1
        yield Mat(rows, cols, data)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_product_is_the_entrywise_sum(rows, inner, cols, data):
    # shapes include 0 rows and 0 columns on either side: a 0-row right
    # factor gives rows x cols zeros
    entries = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=5)
    a = [[data.draw(entries) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(entries) for _ in range(cols)] for _ in range(inner)]
    want = [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)]
    assert Mat(rows, inner, a) * Mat(inner, cols, b) == Mat(rows, cols, want)


def check_invariants(a):
    red, piv = a.rref()
    assert red.rref() == (red, piv)
    assert len(piv) == a.rank() == a.transpose().rank()
    null = a.nullspace()
    assert len(null) == a.cols - len(piv)
    for v in null:
        assert all(x == 0 for x in a.apply(v))


@pytest.mark.parametrize("cyclotomic", [False, True])
def test_elimination_invariants(cyclotomic):
    for a in random_mats(cyclotomic_entry if cyclotomic else int_entry):
        check_invariants(a)


def test_elimination_over_fractions():
    # denominators up to 7: insert_row clears them and keeps its rows
    # primitive, and rref divides by the pivots once
    inverted = 0
    for a in random_mats(rational_entry, count=200):
        check_invariants(a)
        red, piv = a.rref()
        want = rref_rows(a.data, a.cols)
        assert red.data == tuple(want) + ((0,) * a.cols,) * (a.rows - len(want))
        assert all(type(x) is Fraction for row in red.data for x in row)
        if a.rows == a.cols == len(piv):
            assert a.inverse() * a == Mat.scalar(a.rows, 1)
            inverted += 1
    assert inverted >= 5


def test_rref_shape_and_inverse():
    a = Mat(3, 3, [[2, 4, 0], [1, 2, 0], [0, 1, 1]])
    red, piv = a.rref()
    assert piv == [0, 1]
    assert red == Mat(3, 3, [[1, 0, -2], [0, 1, 1], [0, 0, 0]])
    b = Mat(2, 2, [[1, 2], [3, 4]])
    assert b * b.inverse() == Mat.scalar(2, 1)
    with pytest.raises(ValueError):
        a.inverse()


@pytest.mark.parametrize("entry", [int_entry, rational_entry, cyclotomic_entry])
def test_nullspace_is_the_rref_reading(entry):
    # the dual Norton witness and the golden Norton digests hold these exact
    # values, so each entry keeps its type as well as its value
    def typed(basis):
        return [[(type(x), x) for x in v] for v in basis]

    shapes = set()
    for a in random_mats(entry, count=120):
        assert typed(a.nullspace()) == typed(nullspace_rref(a))
        full = a.rank() == min(a.rows, a.cols) > 0
        shapes.add("no rows" if a.rows == 0 else "no columns" if a.cols == 0
                   else "full rank" if full else "rank deficient")
    assert shapes == {"no rows", "no columns", "full rank", "rank deficient"}
