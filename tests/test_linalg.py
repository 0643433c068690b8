import random
from fractions import Fraction

import pytest

from cmfix.arith import zeta
from cmfix.linalg import Mat


def random_mats(cyclotomic: bool, count: int = 60, seed: int = 3):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)

        def entry():
            v = rng.choice((0, 0, 1, -1, 2, -3))
            return v * zeta(3, rng.randint(0, 2)) if cyclotomic and v else v

        data = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            data.append([2 * x for x in data[0]])  # force a dependent row
            rows += 1
        yield Mat(rows, cols, data)


@pytest.mark.parametrize("cyclotomic", [False, True])
def test_elimination_invariants(cyclotomic):
    for a in random_mats(cyclotomic):
        red, piv = a.rref()
        assert red.rref() == (red, piv)
        assert len(piv) == a.rank() == a.T.rank()
        null = a.nullspace()
        assert len(null) == a.cols - len(piv)
        for v in null:
            assert all(x == 0 for x in a.apply(v))


def test_rref_shape_and_inverse():
    a = Mat(3, 3, [[2, 4, 0], [1, 2, 0], [0, 1, 1]])
    red, piv = a.rref()
    assert piv == [0, 1]
    assert red == Mat(3, 3, [[1, 0, -2], [0, 1, 1], [0, 0, 0]])
    b = Mat(2, 2, [[1, 2], [3, 4]])
    assert b * b.inverse() == Mat.identity(2, one=Fraction(1))
    with pytest.raises(ValueError):
        a.inverse()
