"""Every selftest check can fail, on its own instance, without a traceback.

Each case replaces one library function with a mutant, where the registry
looks the name up, and expects exactly its check to print
``FAIL - <name>: <witness>``.
"""

import io
from fractions import Fraction

import pytest

import cmfix.invariants as invariants
from cmfix.cli import main, run_selftest
from cmfix.invariants import CHECKS, first_failure
from cmfix.parameters import ParamSet
from cmfix.quiver import QuiverRep
from cmfix.wreath import FiltrationReport

# check name -> (name looked up in the registry, mutant built from the original)
MUTANTS = {
    "3-residues of (4,2,1) are (3,2,2)":
        ("residues", lambda f: lambda lam, l: (0,) * l),
    "3-core of (4,2,1) is (1) after 2 removals":
        ("core", lambda f: lambda lam, l: (f(lam, l)[0], f(lam, l)[1] + 1)),
    "core/quotient round trip |lam|<=10":
        ("quotient", lambda f: lambda lam, l: tuple(reversed(f(lam, l)))),
    "component bijection and counting law":
        ("delta_inverse", lambda f: lambda g, k, l, n: tuple(x + 1 for x in f(g, k, l, n))),
    "reflection pairing identity":
        ("reflect_dim", lambda f: lambda j, d: d),
    "smoothness criteria agree through the dictionary":
        ("smooth_quiver", lambda f: lambda theta, n: not f(theta, n)),
    "transport routes agree":
        ("transport", lambda f: lambda p, k, d: f(ParamSet(p.l, 0, p.k), k, d)),
    "class sizes sum to the group order":
        ("centralizer_order", lambda f: lambda t, l: 2 * f(t, l)),
    "filtration respected on the small grid":
        ("verify_filtration",
         lambda f: lambda l, n, k, gs: tuple(
             FiltrationReport(r.l, r.n, r.k, r.gamma, False, r.checked, r.certificates)
             for r in f(l, n, k, gs))),
    "moment map traces and block collapse":
        ("block_immersion", lambda f: lambda rep, l: (
            lambda big: QuiverRep(big.d, tuple(2 * x for x in big.X), big.Y))(f(rep, l))),
    "exceptional-group surfaces match cyclic surfaces":
        ("g4_surface_roots", lambda f: lambda m, k0, k1, k2: f(m, -k0, -k1, -k2)),
}


def test_every_check_has_a_mutant():
    assert sorted(MUTANTS) == sorted(name for name, _, _ in CHECKS)


def _selftest(capsys):
    """run_selftest's verdict and lines; main must print the same and exit 1."""
    buf = io.StringIO()
    passed = run_selftest(out=buf)
    capsys.readouterr()
    assert main(["selftest"]) == 1
    assert capsys.readouterr() == (buf.getvalue(), "")
    return passed, buf.getvalue().splitlines()


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_check_fails_for_its_own_reason(name, monkeypatch, capsys):
    attr, mutant = MUTANTS[name]
    monkeypatch.setattr(invariants, attr, mutant(getattr(invariants, attr)))
    passed, lines = _selftest(capsys)
    assert not passed
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL - {name}: ("), failed
    assert "raised" not in failed[0]
    assert lines[-1] == f"{len(CHECKS) - 1}/{len(CHECKS)} checks passed"


def test_a_failed_check_leaves_the_later_instances_alone(monkeypatch, capsys):
    later = "moment map traces and block collapse"

    def mutate(name):
        attr, mutant = MUTANTS[name]
        monkeypatch.setattr(invariants, attr, mutant(getattr(invariants, attr)))

    def witness():
        return next(line for line in _selftest(capsys)[1] if line.startswith(f"FAIL - {later}"))

    mutate(later)
    alone = witness()
    mutate("reflection pairing identity")  # an earlier check fails at its first instance
    assert witness() == alone


def test_a_raising_predicate_is_a_failure_with_the_exception(monkeypatch, capsys):
    # a route that drops an entry of d is refused with a ValueError
    orig = invariants.transport_via_theta
    monkeypatch.setattr(invariants, "transport_via_theta", lambda p, k, d: orig(p, k, d[1:]))
    passed, lines = _selftest(capsys)
    assert not passed
    (failed,) = [line for line in lines if line.startswith("FAIL")]
    assert failed.startswith("FAIL - transport routes agree: (")
    assert failed.endswith("raised ValueError: d must have length 2")


def test_first_failure_names_the_first_failing_instance():
    assert first_failure([(1,), (2,), (3,)], lambda x: x < 5) is None
    assert first_failure([(1,), (6,), (7,)], lambda x: x < 5) == "(6,)"
    assert first_failure([(Fraction(1, 2), 0)], lambda a, b: a / b) == \
        "(Fraction(1, 2), 0) raised ZeroDivisionError: Fraction(1, 0)"

    def draws():
        yield (1,)
        raise RuntimeError("no more")

    assert first_failure(draws(), lambda x: True) == \
        "drawing an instance raised RuntimeError: no more"
