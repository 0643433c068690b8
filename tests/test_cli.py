import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cmfix import arith, cli, wreath
from cmfix.cli import _dumps, _Raw, _read_rep, format_rational, main, parse_rational, run_selftest
from cmfix.fixed_points import component_catalog
from cmfix.parameters import ParamSet
from cmfix.quiver import random_rep
from cmfix.wreath import verify_filtration

from oracles import component_json, rep_json
from test_wreath import _cache_sizes, _module_caches


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational(" -3 / +4 ") == Fraction(-3, 4)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-2, 1)) == "-2"
    assert format_rational(7) == "7"
    for s in ("0.5", "", "+", "1/", "1/2/3", "1_0", "1/2_0", "\u0663", "1/\u0663"):
        with pytest.raises(ValueError):
            parse_rational(s)
    for s in ("1/0", "0/0", "-3/0", " 2 / 0 "):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(s)


@pytest.mark.parametrize("argv,text", [
    (["cores", "--partition", "1_0", "--l", "3"], "1_0"),
    (["cores", "--partition", "\u0664", "--l", "3"], "\u0664"),
    (["cores", "--partition", "4", "--l", "\u0663"], "\u0663"),
    (["cores", "--partition", "4", "--l", "1_0"], "1_0"),
    (["transport", "--l", "2", "--k", "2", "--d", "0,0,0,1_0", "--a", "1", "--kparams=1,-1"],
     "1_0"),
    (["transport", "--l", "2", "--k", "2", "--d", "0,0,0,0", "--a", "1_0/3", "--kparams=1,-1"],
     "1_0"),
    (["smooth", "--criterion", "cyclic", "--kparams=\u0661,-1"], "\u0661"),
    (["selftest", "--seed", "1_0"], "1_0"),
    (["quiver-check", "--rep", "{rep}"], "1_0"),
], ids=["partition-underscore", "partition-arabic-indic", "flag-arabic-indic",
        "flag-underscore", "d-underscore", "a-underscore", "kparams-arabic-indic",
        "seed-underscore", "rep-entry-underscore"])
def test_integers_are_ascii_digits_only(tmp_path, capsys, argv, text):
    # int() reads "1_0" as 10 and the Arabic-Indic digits as 4, 3 and 1
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({"d": [1], "X": [[["1_0"]]], "Y": [[["1"]]]}))
    argv = [str(f) if a == "{rep}" else a for a in argv]
    try:
        code, out = run(argv)
    except SystemExit as exc:  # argparse refuses a flag's value itself
        code, out = exc.code, ""
    assert code == 2 and out == ""
    assert repr(text) in capsys.readouterr().err


def test_cores_example():
    code, out = run(["cores", "--partition", "4,2,1", "--l", "3"])
    assert code == 0
    assert json.loads(out) == {"core": [1], "removals": 2}


def test_quotient_and_residues():
    code, out = run(["quotient", "--partition", "4,2,1", "--l", "3"])
    assert code == 0
    assert json.loads(out) == [[1, 1], [], []]
    code, out = run(["residues", "--partition", "4,2,1", "--l", "3"])
    assert json.loads(out) == {"modulus": 3, "entries": [3, 2, 2]}


def test_transport_example():
    code, out = run([
        "transport", "--l", "2", "--k", "2", "--d", "0,0,0,0",
        "--a", "1", "--kparams=-2,2",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"a_prime": "2", "k_prime": ["-3/2", "3/2", "-5/2", "5/2"], "m": 4}


def test_enumerate_e():
    code, out = run(["enumerate-e", "--k", "2", "--l", "1", "--n", "2"])
    assert code == 0
    assert json.loads(out) == [{"modulus": 2, "entries": [1, 1]}]


def test_components_json_and_csv():
    args = ["components", "--l", "2", "--n", "2", "--k", "2",
            "--a", "1/97", "--kparams=1,-1"]
    code, out = run(args)
    assert code == 0
    cat = json.loads(out)
    assert len(cat) == 2
    assert {tuple(map(tuple, c["gamma"])) for c in cat} == {((1,), (1,)), ((), ())}
    code, out = run(args + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,r,m,d,a_prime,k_prime"
    assert len(lines) == 3


@pytest.mark.parametrize("l,n,k,a,kparams", [
    (1, 4, 2, "2/3", "0"),            # l = 1: every label has one component
    (1, 3, 1, "-5", "0"),             # k = 1: mu and lambda have l components
    (2, 3, 2, "1/97", "1,-1"),        # empty parts in labels, mu and lambda
    (3, 4, 2, "-1/97", "1/89,1/83,-172/7387"),
    (2, 5, 3, "7/1000003", "3/1000033,-3/1000033"),
    # in these two, one partition is a component of labels, of mu and of
    # lambda, at two indents, and labels have empty components
    (2, 6, 3, "7/1000003", "3/1000033,-3/1000033"),
    (3, 9, 2, "-1/97", "1/89,1/83,-172/7387"),  # CATALOG_3_9_2
], ids=["l1-k2", "l1-k1", "l2-k2", "l3-k2", "l2-k3", "l2-n6-k3", "catalog-3-9-2"])
def test_components_prints_what_the_stdlib_prints(l, n, k, a, kparams):
    # each label text is joined from partition texts made once per indent;
    # the bytes must be the plain encoder's
    p = ParamSet(l, parse_rational(a), tuple(map(parse_rational, kparams.split(","))))
    want = [component_json(c) for c in component_catalog(l, n, k, p)]
    argv = ["components", "--l", str(l), "--n", str(n), "--k", str(k), f"--a={a}",
            f"--kparams={kparams}"]
    assert run(argv) == (0, json.dumps(want, indent=2) + "\n")


def test_the_label_renderer_leaves_no_module_level_memo():
    # the catalog, the table and one reduced value warm every library cache
    # the two commands read; rendering their labels must then leave every
    # package cache as it found it, so no partition text outlives the call
    component_catalog(2, 6, 3, ParamSet(2, Fraction(1, 97), (Fraction(1), Fraction(-1))))
    arith._reduce(3, wreath.character_table(3, 4).raw[0][0])
    caches = _module_caches()
    before = _cache_sizes(caches)
    assert run(["components", "--l", "2", "--n", "6", "--k", "3", "--a=1/97",
                "--kparams=1,-1"])[0] == 0
    assert run(["chartable", "--l", "3", "--n", "4"])[0] == 0
    assert _cache_sizes(caches) == before


def test_components_convention_flag(capsys):
    # descriptors come in the gordon convention only, and say so
    args = ["components", "--l", "2", "--n", "3", "--k", "2",
            "--a", "1/97", "--kparams=1,-1"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--convention", "quiver"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out = run(args)
    assert code == 0 and all(c["convention"] == "gordon" for c in json.loads(out))


def test_chartable():
    code, out = run(["chartable", "--l", "2", "--n", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["sizes"] == [1, 1]
    assert len(obj["labels"]) == 2 and len(obj["values"]) == 2


# (1, 7) to (9, 1) give negative and multi-digit coordinates, and reductions
# with phi(l) < l - 1 (l = 8, 9)
@pytest.mark.parametrize("l,n", [(1, 0), (2, 0), (1, 5), (2, 1), (6, 2), (3, 4),
                                 (1, 7), (5, 3), (8, 2), (9, 1)])
def test_chartable_prints_what_the_stdlib_prints(l, n):
    # the spliced value text must give the bytes of the plain encoder
    t = wreath.character_table(l, n)
    obj = {
        "l": l,
        "n": n,
        "labels": [[list(c) for c in lam] for lam in t.labels],
        "classes": [[list(c) for c in ct] for ct in t.classes],
        "sizes": list(t.sizes),
        "values": [[{"order": v.order, "coeffs": [str(c) for c in v.coeffs]} for v in row]
                   for row in t.values],
    }
    assert run(["chartable", "--l", str(l), "--n", str(n)]) == (0, json.dumps(obj, indent=2) + "\n")


def test_chartable_serializes_each_distinct_value_once(monkeypatch):
    calls = [0]
    dumps = cli._dumps

    def counted(obj, nl="\n"):
        calls[0] += 1
        return dumps(obj, nl)

    monkeypatch.setattr(cli, "_dumps", counted)
    code, out = run(["chartable", "--l", "3", "--n", "5"])
    entries = sum(len(row) for row in json.loads(out)["values"])
    assert code == 0 and entries == 108 * 108
    # one call per entry, plus the distinct values' own text and the frame;
    # walking every entry's {"order", "coeffs"} again takes about 5 per entry
    assert calls[0] < 2 * entries


def test_chartable_reduces_each_distinct_value_once(monkeypatch):
    calls = []
    reduce = cli._reduce

    def counted(m, coeffs):
        calls.append(coeffs)
        return reduce(m, coeffs)

    monkeypatch.setattr(cli, "_reduce", counted)
    code, _ = run(["chartable", "--l", "3", "--n", "5"])
    t = wreath.character_table(3, 5)
    assert code == 0 and len(calls) == len({v for row in t.raw for v in row})


# a catalog of 26 components, 0.77 MB of JSON
CATALOG_3_9_2 = ["components", "--l", "3", "--n", "9", "--k", "2", "--a=-1/97",
                 "--kparams=1/89,1/83,-172/7387"]


def test_a_closed_stdout_is_one_error_line():
    # chartable writes a row at a time and components a component at a time;
    # a reader that goes while one is half written leaves the rest in
    # stdout's buffer, and the flush at exit must not raise (with
    # PYTHONUNBUFFERED there is no buffer)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    for argv, first in [(["chartable", "--l", "3", "--n", "5"], b"{"), (CATALOG_3_9_2, b"[")]:
        with subprocess.Popen([sys.executable, "-m", "cmfix.cli", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, bufsize=0) as proc:
            assert proc.stdout.read(1) == first
            time.sleep(0.3)  # about 0.8 MB to write: the pipe fills and the writer blocks
            proc.stdout.read(10)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
            assert proc.stderr.read() == b"error: [Errno 32] Broken pipe\n"


class _Recorder(io.StringIO):
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def test_components_writes_one_component_at_a_time(monkeypatch):
    # each write holds one component's text and its separator, the last the
    # closing bracket: the document's whole text never exists in the process
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(CATALOG_3_9_2) == 0
    texts = [json.dumps(c, indent=2).replace("\n", "\n  ") for c in json.loads(out.getvalue())]
    assert out.calls == (["[\n  " + texts[0]] + [",\n  " + t for t in texts[1:]] + ["\n]\n"])


def test_a_refused_components_call_writes_nothing(capsys):
    # the catalog is computed and checked before the first write
    code = main(["components", "--l", "2", "--n", "2", "--k", "2", "--a=0", "--kparams=1,-1"])
    assert code == 2
    assert capsys.readouterr() == ("",
                                   "error: parameters are not smooth; the catalog needs smoothness\n")


def test_writer_splices_raw_text_and_quotes_plain_strings():
    text = '{\n  "a": [1]\n}'
    assert _dumps(_Raw(text)) == text
    assert _dumps(text) == json.dumps(text)
    assert _dumps({"x": [_Raw("[]"), "[]"]}) == '{\n  "x": [\n    [],\n    "[]"\n  ]\n}'


def test_verify_filtration_exit_codes():
    code, out = run(["verify-filtration", "--l", "1", "--n", "2", "--k", "2"])
    assert code == 0
    assert all(r["passed"] for r in json.loads(out))
    code, out = run([
        "verify-filtration", "--l", "1", "--n", "3", "--k", "2",
        "--gamma", "[[1]]",
    ])
    assert code == 0
    # (2) is not a 2-core, so it indexes no component: usage error, not a pass
    code, out = run([
        "verify-filtration", "--l", "2", "--n", "2", "--k", "2",
        "--gamma", "[[2],[]]",
    ])
    assert code == 2 and out == ""


def test_verify_filtration_report_shape():
    code, out = run(["verify-filtration", "--l", "1", "--n", "2", "--k", "2", "--gamma", "[[]]"])
    assert code == 0
    (obj,) = json.loads(out)
    assert list(obj) == ["l", "n", "k", "gamma", "passed", "classes_checked", "certificates"]
    assert obj["passed"] is True and obj["certificates"] == []
    assert obj["classes_checked"] == verify_filtration(1, 2, 2, [((),)])[0].checked


def test_verify_filtration_exits_1_under_a_wrong_codim(monkeypatch):
    argv = ["verify-filtration", "--l", "2", "--n", "2", "--k", "2", "--gamma", "[[],[]]"]
    code, out = run(argv)
    assert code == 0 and '"passed": true' in out
    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: len(ctype[0]))
    code, out = run(argv)
    assert code == 1 and '"passed": false' in out
    # each certificate as an object, in the library's order
    (obj,) = json.loads(out)
    assert list(obj) == ["l", "n", "k", "gamma", "passed", "classes_checked", "certificates"]
    assert obj["classes_checked"] == 5
    assert obj["certificates"][0] == {
        "class": [[], [1, 1]], "codim": 0, "offending_class": [[1], [], [], []],
        "offending_codim": 1,
    }
    assert len(obj["certificates"]) == len(verify_filtration(2, 2, 2, [((), ())])[0].certificates)


@pytest.mark.parametrize("gamma", [
    "[[1],[1.5]]", "[1,2]", "[null,[]]", "[[1e400],[]]", "[[true],[]]", '[["1"],[]]',
])
def test_verify_filtration_rejects_a_malformed_gamma(capsys, gamma):
    # int() would read 1.5 and "1" as parts, and true is an int to isinstance
    code, out = run(["verify-filtration", "--l", "2", "--n", "2", "--k", "2", "--gamma", gamma])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_filtration_refuses_a_deeply_nested_gamma(capsys):
    code, out = run(["verify-filtration", "--l", "2", "--n", "2", "--k", "2",
                     "--gamma", "[" * 100_000])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: --gamma is nested too deeply to read\n"


def test_verify_filtration_builds_each_column_set_once(monkeypatch):
    # one call over every gamma: the live columns of G(2,1,5) once, then the
    # target columns of G(4,1,r) once for each of the ranks 1 and 2, which
    # have two gamma each and a live class
    built = []
    columns = wreath._columns

    def recording(l, n, classes, *once):
        built.append((l, n))
        return columns(l, n, classes, *once)

    monkeypatch.setattr(wreath, "_columns", recording)
    code, out = run(["verify-filtration", "--l", "2", "--n", "5", "--k", "2"])
    assert code == 0 and len(json.loads(out)) == 4
    assert built[0] == (2, 5) and sorted(built[1:]) == [(4, 1), (4, 2)]


def test_verify_filtration_builds_no_character_table():
    # the check reads the columns of its live classes and targets only
    wreath.character_table.cache_clear()
    code, _ = run(["verify-filtration", "--l", "3", "--n", "4", "--k", "2"])
    assert code == 0
    info = wreath.character_table.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_smooth_subcommand():
    code, out = run(["smooth", "--criterion", "g4", "--kparams=1,2,-3"])
    assert code == 0 and json.loads(out)["smooth"] is True
    # a = 0 is singular at every n, n = 1 included
    for n in ("1", "2", "3"):
        code, out = run(["smooth", "--criterion", "gl1n", "--l", "2", "--n", n,
                         "--a", "0", "--kparams=1,-1"])
        assert code == 0 and json.loads(out)["smooth"] is False, n
    # the k-differences alone are the cyclic criterion
    code, out = run(["smooth", "--criterion", "cyclic", "--kparams=1,-1"])
    assert json.loads(out)["smooth"] is True
    code, out = run(["smooth", "--criterion", "cyclic", "--kparams=0,0"])
    assert json.loads(out)["smooth"] is False


@pytest.mark.parametrize("criterion,kparams", [("cyclic", "1,-1"), ("g4", "1,2,-3")])
@pytest.mark.parametrize("options", [["--l", "5"], ["--n", "9"], ["--a", "3"],
                                     ["--l", "1", "--n", "1", "--a", "0"]],
                         ids=["l", "n", "a", "all-at-their-defaults"])
def test_smooth_cyclic_and_g4_refuse_l_n_and_a(capsys, criterion, kparams, options):
    # these criteria read only --kparams: a given --l, --n or --a would be ignored
    code, out = run(["smooth", "--criterion", criterion, *options, f"--kparams={kparams}"])
    assert code == 2 and out == ""
    flags = ", ".join(o for o in options if o.startswith("--"))
    assert capsys.readouterr().err == (f"error: --criterion {criterion} reads only --kparams, "
                                       f"not {flags}\n")


@pytest.mark.parametrize("options,says", [
    (["--l", "0", "--kparams=0"], "l must be >= 1"),
    (["--l", "2", "--n", "0", "--a", "1", "--kparams=1,-1"], "n must be >= 1"),
], ids=["l-0", "n-0"])
def test_smooth_zero_l_and_n_are_refused_not_defaulted(capsys, options, says):
    # only a flag left out takes its default of 1: a given 0 is refused
    code, out = run(["smooth", "--criterion", "gl1n", *options])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {says}\n"


def test_usage_error_exit_2(capsys, tmp_path):
    code, _ = run(["cores", "--partition", "2,3", "--l", "2"])  # not decreasing
    assert code == 2
    code, _ = run(["transport", "--l", "2", "--k", "2", "--d", "0,0,0,0",
                   "--a", "1", "--kparams=1,1"])  # k does not sum to 0
    assert code == 2
    code, out = run(["transport", "--l", "0", "--k", "2", "--d", "0,0,0,0",
                     "--a", "1", "--kparams=-2,2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.splitlines()[-1] == "error: l must be >= 1"
    for argv in (["enumerate-e", "--k", "2", "--l", "1", "--n", "-3"],
                 ["verify-filtration", "--l", "2", "--n", "-1", "--k", "2"],
                 ["chartable", "--l", "2", "--n", "-1"]):
        code, out = run(argv)
        assert code == 2 and out == "", argv
    code, out = run(["smooth", "--criterion", "g4", "--kparams=1,2"])
    assert code == 2 and out == ""
    assert "g4 needs exactly 3 values of k" in capsys.readouterr().err
    for k in ("0", "-1"):
        for argv in (["transport", "--l", "2", "--a", "1", "--kparams=1,-1", "--d", "1,1"],
                     ["components", "--l", "2", "--n", "3", "--a", "1/97", "--kparams=1,-1"]):
            code, out = run([*argv, "--k", k])
            assert code == 2 and out == "", (argv, k)
            assert capsys.readouterr().err == "error: k must be >= 1\n", (argv, k)
    # entries that are not rationals, and malformed dimension vectors, in a --rep file
    f = tmp_path / "rep.json"
    for obj, says in (*(({"d": [1], "X": [[[x]]], "Y": [[["1"]]]},
                         f"X[0][0][0] is {json.dumps(x)}: a representation holds rational "
                         "matrix entries only")
                        for x in ({}, {"order": 3, "coeffs": [1]}, {"order": True, "coeffs": []},
                                  1.5, True, None, ["1"])),
                      *(({"d": [x], "X": [[["1"]]], "Y": [[["1"]]]}, '"d"')
                        for x in (True, 1.5, -1, "2")),
                      # "l", like the entries of "d", is a JSON integer
                      *(({"l": x, "d": [1], "X": [[["1"]]], "Y": [[["1"]]]},
                         f'"l" must be the integer 1, the length of "d", not {json.dumps(x)}')
                        for x in (True, 1.0, 2)),
                      # a mis-shaped matrix names itself
                      ({"d": [2, 1], "X": [[["1"]], [["1", "1"]]],
                        "Y": [[["1", "1"]], [["1"], ["1"]]]}, "error: X[0] must be 2x1\n"),
                      ({"d": [2, 1], "X": [[["1"], ["1"]], [["1", "1"]]],
                        "Y": [[["1", "1"]], "1"]}, "error: Y[1] must be 2x1\n")):
        f.write_text(json.dumps(obj))
        code, out = run(["quiver-check", "--rep", str(f)])
        assert code == 2 and out == "", obj
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err, (obj, err)


@pytest.mark.parametrize("argv", [
    ["smooth", "--criterion", "cyclic", "--kparams=1/0,0"],
    ["transport", "--l", "2", "--k", "2", "--d", "0,0,0,0", "--a", "1/0", "--kparams=1,-1"],
    ["smooth", "--a", "0/0", "--l", "2", "--n", "2", "--kparams=1,-1"],
    ["quiver-check", "--rep", "{rep}"],
    ["smooth", "--criterion", "quiver", "--l", "2", "--n", "0", "--a", "1", "--kparams=1,-1"],
    ["smooth", "--criterion", "quiver", "--l", "2", "--n", "-3", "--a", "1", "--kparams=1,-1"],
], ids=["kparams-zero-den", "a-zero-den", "a-zero-over-zero", "rep-entry-zero-den",
        "quiver-n-0", "quiver-n-negative"])
def test_zero_denominators_and_empty_n_exit_2(tmp_path, capsys, argv):
    # {rep} is a representation with the entry "1/0"
    obj = rep_json(random_rep((1, 1), random.Random(0)))
    obj["X"][0][0][0] = "1/0"
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(obj))
    code, out = run([str(f) if a == "{rep}" else a for a in argv])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_rep_json_round_trip():
    rep = random_rep((2, 1), random.Random(41))
    assert _read_rep(json.loads(json.dumps(rep_json(rep)))) == rep
    # a cyclotomic entry, as chartable prints it, is refused by its place and value
    obj = rep_json(rep)
    obj["Y"][1][1][0] = {"order": 4, "coeffs": ["0", "1"]}
    with pytest.raises(ValueError, match=r'^Y\[1\]\[1\]\[0\] is \{"order": 4, "coeffs": \["0", "1"\]\}: '
                       "a representation holds rational matrix entries only$"):
        _read_rep(json.loads(json.dumps(obj)))


def test_rep_integral_entries_are_ints():
    # an integral entry, written "p", "2p/2" or as a JSON number, is read as
    # an int, so normal_form takes its all-int path on the arrows' rows
    obj = {"d": [2, 1], "X": [[["3"], ["4/2"]], [["-6/3", 5]]],
           "Y": [[["1/2", "0/7"]], [[-1], ["2/3"]]]}
    rep = _read_rep(obj)
    entries = [x for m in rep.X + rep.Y for row in m.data for x in row]
    assert entries == [3, 2, -2, 5, Fraction(1, 2), 0, -1, Fraction(2, 3)]
    assert [type(x) for x in entries] == [int] * 4 + [Fraction, int, int, Fraction]
    assert _read_rep(json.loads(json.dumps(rep_json(rep)))) == rep


def test_quiver_check(tmp_path):
    rep = random_rep((1, 1), random.Random(0))
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep_json(rep)))
    code, out = run(["quiver-check", "--rep", str(f)])
    assert code == 0
    obj = json.loads(out)
    assert obj["total_trace"] == "0"
    assert obj["simplicity"] in {"Simple", "NotSimple", "Unknown"}


@pytest.mark.parametrize("option", [["--budget", "-5"], ["--theta="], ["--theta=1,2,3"]],
                         ids=["negative-budget", "empty-theta", "theta-wrong-modulus"])
def test_quiver_check_rejects_bad_options(tmp_path, capsys, option):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep_json(random_rep((1, 1), random.Random(0)))))
    code, out = run(["quiver-check", "--rep", str(f)] + option)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


# scale_action(zeta(3), random_rep((1, 1, 1), random.Random(0))), written by
# hand: X = (3, 0, 3) times zeta^-1 and Y = (0, -3, -1) times zeta, each entry
# in the power basis of Q(zeta_3)
CYCLOTOMIC_REP = {
    "l": 3, "d": [1, 1, 1],
    "X": [[[{"order": 3, "coeffs": [c, c]}]] for c in ("-3", "0", "-3")],
    "Y": [[[{"order": 3, "coeffs": ["0", c]}]] for c in ("0", "-3", "-1")],
}


@pytest.mark.parametrize("drop", [
    lambda obj: obj.pop("d"),
    lambda obj: obj.update(Y=[]),
    lambda obj: obj.update(CYCLOTOMIC_REP),
], ids=["no-d", "empty-Y", "cyclotomic"])
def test_quiver_check_rejects_malformed_rep(tmp_path, drop):
    obj = rep_json(random_rep((1, 1), random.Random(0)))
    drop(obj)
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(obj))
    code, out = run(["quiver-check", "--rep", str(f)])
    assert code == 2 and out == ""


def test_quiver_check_refuses_a_deeply_nested_rep(tmp_path, capsys):
    f = tmp_path / "rep.json"
    f.write_text("[" * 100_000)
    code, out = run(["quiver-check", "--rep", str(f)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --rep {f} is nested too deeply to read\n"


def test_quiver_check_refuses_a_cyclotomic_entry_before_any_arithmetic(tmp_path, capsys, monkeypatch):
    # a large order costs nothing: the entry is refused as it is read
    def refuse(m):
        raise AssertionError(f"cyclotomic_polynomial({m}) was computed")

    monkeypatch.setattr(arith, "cyclotomic_polynomial", refuse)
    entry = {"order": 200000, "coeffs": [1]}
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({"d": [1], "X": [[[entry]]], "Y": [[["1"]]]}))
    code, out = run(["quiver-check", "--rep", str(f)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (f"error: X[0][0][0] is {json.dumps(entry)}: "
                                       "a representation holds rational matrix entries only\n")


def test_no_command_builds_cyclotomic_numbers(tmp_path, monkeypatch):
    # the boundary of the field arithmetic: every command runs on ints and
    # Fractions, from cold tables
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(rep_json(random_rep((2, 1, 1), random.Random(7)))))
    calls = []
    init = arith.CyclotomicNumber.__init__

    def counted(self, order, coeffs):
        calls.append(order)
        init(self, order, coeffs)

    monkeypatch.setattr(arith.CyclotomicNumber, "__init__", counted)
    counts = {}
    for argv in (["verify-filtration", "--l", "3", "--n", "4", "--k", "2"],
                 ["components", "--l", "3", "--n", "4", "--k", "2", "--a", "1/7",
                  "--kparams=1/3,1/5,-8/15"],
                 ["quiver-check", "--rep", str(f), "--theta=1,-1,0"],
                 ["selftest", "--seed", "1"],
                 ["chartable", "--l", "3", "--n", "3"]):
        wreath.character_table.cache_clear()
        calls.clear()
        code, _ = run(argv)
        assert code == 0, argv
        counts[argv[0]] = len(calls)
    assert counts == {"verify-filtration": 0, "components": 0, "quiver-check": 0,
                      "selftest": 0, "chartable": 0}


def test_deterministic_output():
    args = ["components", "--l", "1", "--n", "3", "--k", "2",
            "--a", "2/3", "--kparams=0"]
    _, a = run(args)
    _, b = run(args)
    assert a == b


def test_selftest_passes():
    buf = io.StringIO()
    assert run_selftest(seed=12345, out=buf)
    text = buf.getvalue()
    assert "FAIL" not in text


COMMANDS = ("cores", "quotient", "residues", "enumerate-e", "transport", "components",
            "chartable", "verify-filtration", "smooth", "quiver-check", "selftest")


def test_the_full_usage_lists_every_subcommand_in_order():
    assert "{" + ",".join(COMMANDS) + "}" in cli.build_parser().format_usage()


def _exit(call, capsys) -> tuple:
    """The exit code, stdout and stderr of a call that argparse ends."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        call()
    return (exc.value.code, *capsys.readouterr())


LEFTOVERS = ["components", "--l", "3", "--n", "4", "--k", "2", "--a", "1/7",
             "--kparams=1/3,1/5,-8/15", "--convention", "quiver"]


# lines the registry declines: leftovers, no subcommand first, help, the
# version, and one that the cores subparser itself refuses
@pytest.mark.parametrize("argv,code", [
    (LEFTOVERS, 2),
    (["smooth", "--criterion", "cyclic", "--kparams=", "1"], 2),
    ([], 2),
    (["bogus"], 2),
    (["--help"], 0),
    (["--version"], 0),
    (["cores", "--l", "x"], 2),
], ids=["components-leftover", "smooth-leftover", "empty", "bogus", "help", "version",
        "subparser-refusal"])
def test_refusals_are_the_full_parsers(argv, code, capsys):
    full = _exit(lambda: cli.build_parser().parse_args(argv), capsys)
    assert full[0] == code
    assert _exit(lambda: main(argv), capsys) == full


def test_leftover_arguments_are_refused_naming_every_subcommand(capsys):
    code, out, err = _exit(lambda: main(LEFTOVERS), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: cmfix [-h] [--version]")
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert err.endswith("cmfix: error: unrecognized arguments: --convention quiver\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_is_the_full_parsers(command, capsys):
    full = _exit(lambda: cli.build_parser().parse_args([command, "--help"]), capsys)
    assert _exit(lambda: main((command, "--help")), capsys) == full
    assert full[0] == 0 and full[1].startswith(f"usage: cmfix {command} [-h]")


def _argparse_reads(argv):
    """vars() of what the full parser parses from argv, or None when it exits
    (a refusal, help) or leaves arguments over."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            args, rest = cli.build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    return None if rest else vars(args)


# a flag's values: well-formed ones, and ones argparse reads otherwise or refuses
INT_VALUES = ("2", "+4", " 5", "0", "1_0", "-1", "x", "")
TEXT_VALUES = ("1/2", "4,2,1", "[[1],[]]", "a=b", "", "-", "-1", "-x", "-h", "--l")
EXTRA_TOKENS = ("-h", "--help", "--", "--version", "-", "-1", "", "x", "--bogus")


@st.composite
def command_lines(draw):
    """A subcommand and its flags in any order, each left out, given once or
    twice, exact or abbreviated, as --name=value or --name value, with a few
    stray tokens among them."""
    command = draw(st.sampled_from(COMMANDS))
    options = cli._COMMANDS[command][2]
    tokens = []
    for option in draw(st.permutations(list(options))):
        kwargs = options[option]
        pool = ((*kwargs["choices"], "xml") if "choices" in kwargs
                else INT_VALUES if "type" in kwargs else TEXT_VALUES)
        for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):
            cut = draw(st.sampled_from((len(option),) * 3 + tuple(range(1, len(option)))))
            flag, value = "--" + option[:cut], draw(st.sampled_from(pool))
            tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for extra in draw(st.lists(st.sampled_from(EXTRA_TOKENS), max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    return [command, *tokens]


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["cores", "--partition", "-", "--l", "+4"])
@example(["cores", "--partition=-1", "--l=2"])
@example(["cores", "--partition", "-x", "--l", "2"])
@example(["smooth", "--kparams", "0"])
@example(["components", "--l", "2", "--n", "2", "--k", "2", "--a", "0", "--kparams", "0",
          "--format", "xml"])
def test_the_registry_reads_what_argparse_reads(argv):
    """The registry read declines every line argparse refuses, answers help
    for or leaves arguments of; a line it reads, it reads as argparse does."""
    args, expected = cli._read_argv(argv), _argparse_reads(argv)
    if expected is None:
        assert args is None
    elif args is not None:
        assert vars(args) == expected


def test_the_registry_reads_every_golden_and_benchmark_line(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from test_golden import GOLDEN
    from workloads import WORKLOADS

    argvs = [param.values[0] for param in GOLDEN]
    argvs.append(["quiver-check", "--rep", "rep.json", "--seed", "11", "--theta", "1,-1,0"])
    # every line of every workload, tiny and full size, at two seeds: one
    # that the registry declines would cost the benchmark an argparse build
    for workload in WORKLOADS.values():
        argvs += workload.plan(1, tmp_path, True)
        for seed in (1, 2):
            argvs += workload.plan(seed, tmp_path, False)
    for argv in argvs:
        args = cli._read_argv(argv)
        assert args is not None and vars(args) == _argparse_reads(argv), argv


# the smooth calls check that the flags one call gives (--l, --n and --a,
# whose default is None) do not reach the next
SUCCESSIVE = (
    ["smooth", "--criterion", "gl1n", "--l", "2", "--n", "3", "--a", "1", "--kparams=1,-1"],
    ["smooth", "--criterion", "cyclic", "--kparams=1,-1"],
    ["smooth", "--criterion", "g4", "--n", "2", "--kparams=1,2,-3"],
    ["smooth", "--kparams=0"],
    ["cores", "--partition", "4,2,1", "--l", "2"],
)
# each call prints its exit code after its output; importing the cli and
# running the calls, all well formed, imports no argparse
MAIN = ("import sys, cmfix.cli as cli; "
        "[print(cli.main(argv)) for argv in {0!r}]; "
        "assert 'argparse' not in sys.modules")


def _main_in_a_fresh_process(argvs) -> tuple[str, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN.format(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_successive_main_calls_print_what_each_prints_alone():
    together = _main_in_a_fresh_process(list(SUCCESSIVE))
    alone = [_main_in_a_fresh_process([argv]) for argv in SUCCESSIVE]
    assert together == tuple("".join(texts) for texts in zip(*alone))
    assert together[1] == "error: --criterion g4 reads only --kparams, not --n\n"


def test_help_available():
    with pytest.raises(SystemExit) as exc:
        run(["components", "--help"])
    assert exc.value.code == 0


STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f\t\n", "caf\xe9 \u2028 \U0001f600", '"\\/'])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-2**100) | STRINGS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(STRINGS, inner)),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_writer_matches_the_stdlib_indent_encoder(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@given(st.lists(JSON_VALUES), st.sampled_from(["list", "tuple", "generator"]))
@example([], "list")
@example([], "generator")
def test_emit_streams_what_the_stdlib_indent_encoder_prints(items, kind):
    # a top-level list, tuple or generator, empty ones included, is written
    # an element at a time with the bytes of the plain encoder
    obj = {"list": list, "tuple": tuple, "generator": lambda xs: (x for x in xs)}[kind](items)
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit(obj)
    assert buf.getvalue() == json.dumps(items, indent=2) + "\n"


@pytest.mark.parametrize("obj", [Fraction(1, 2), 0.5, {1: "a"}, [{"a": [Fraction(3)]}]],
                         ids=["fraction", "float", "int-key", "nested-fraction"])
def test_writer_rejects_what_it_does_not_print(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
