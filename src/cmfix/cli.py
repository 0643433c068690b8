"""Command-line interface.

Subcommands mirror the library: cores, quotient, residues, enumerate-e,
components, transport, chartable, verify-filtration, smooth, quiver-check,
selftest.  This module is the one text boundary: it reads every input and
writes every format of ``docs/schemas.md``; the library takes and returns
values.  Integers are a sign and ASCII digits, rationals exact "p/q"; output
is JSON (or CSV where supported) and is byte-identical for a fixed seed.
Each handler computes and validates all it prints before its first write, so
a refused call writes nothing to stdout; a list document is then written one
element at a time, and only one element's text exists at once.

Each ``cmd_*`` handler is registered with its name and flags by ``@_command``,
the one place they are written.  ``main`` reads a well-formed command line
straight from that registry, and builds (and imports) argparse only for what
the registry read declines: help, ``--version``, abbreviations, a refusal.
The full parser then parses the line, so it writes every help text and
refusal.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import csv
import json
import os
import random
import sys
from fractions import Fraction
from types import GeneratorType, SimpleNamespace

from . import __version__
from .parameters import (
    ParamSet,
    smooth_cyclic,
    smooth_g4,
    smooth_gl1n,
    smooth_quiver,
    theta_from_ak,
    transport,
)
from .partitions import core, partition, quotient, residues
from .fixed_points import component_catalog, enumerate_E
from .arith import _reduce
from .wreath import character_table, verify_filtration
from .linalg import Mat
from .quiver import QuiverRep, in_deformed_fiber, moment_map, norton_simplicity

DEFAULT_SEED = 20200513


def _int(s: str) -> int:
    """s, stripped, as an int: an optional sign and ASCII digits, nothing else
    (int() would also read "1_0" as 10 and the Arabic-Indic "\u0663" as 3)."""
    t = s.strip()
    digits = t[1:] if t[:1] in ("+", "-") else t
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{s!r} is not an integer")
    return int(t)


# argparse names a flag's type when it refuses a value: "invalid int value: '1_0'"
_int.__name__ = "int"


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.  No float fallback."""
    s = s.strip()
    if "/" in s:
        num, den = map(_int, s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return Fraction(_int(s))


def format_rational(x) -> str:
    """An int or Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def _parse_partition(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s or s == "-":
        return ()
    return partition(_int(x) for x in s.split(","))


def _parse_rationals(s: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in s.split(","))


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(_int(x) for x in s.split(","))


def _load_json(text: str, what: str):
    """``json.loads``, refusing input nested past the recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to read") from None


def _parse_gamma(s: str) -> tuple[tuple[int, ...], ...]:
    raw = _load_json(s, "--gamma")
    # bool is an int subclass, and int() would also read 1.5, "1" or true
    if not (isinstance(raw, list)
            and all(isinstance(c, list) and all(type(x) is int for x in c) for c in raw)):
        raise ValueError(f"--gamma must be a JSON list of lists of integers, got {s}")
    return tuple(partition(c) for c in raw)


def _read_rep(obj) -> QuiverRep:
    """The representation of a ``--rep`` file's {"d", "X", "Y"} and optional "l".
    Each matrix's shape is checked as it is read, and each entry must be a
    "p/q" string or an integer: any other, even cyclotomic, is refused by its
    place and value."""
    if not isinstance(obj, dict) or not {"d", "X", "Y"} <= obj.keys():
        raise ValueError('a representation needs the keys "d", "X" and "Y"')
    if not isinstance(obj["d"], list) or not all(
            type(x) is int and x >= 0 for x in obj["d"]):
        raise ValueError('"d" must be a list of non-negative integers')
    d = tuple(obj["d"])
    l = len(d)
    # bool is an int subclass, and 1.0 == 1
    if "l" in obj and (type(obj["l"]) is not int or obj["l"] != l):
        raise ValueError(f'"l" must be the integer {l}, the length of "d", '
                         f'not {json.dumps(obj["l"])}')
    for key in ("X", "Y"):
        if not isinstance(obj[key], list) or len(obj[key]) != l:
            raise ValueError(f'"{key}" must hold one matrix per vertex ({l})')

    def matrix(key, i, rows, cols):
        m = obj[key][i]
        if not (isinstance(m, list) and len(m) == rows
                and all(isinstance(row, list) and len(row) == cols for row in m)):
            raise ValueError(f"{key}[{i}] must be {rows}x{cols}")
        data = []
        for a, row in enumerate(m):
            r = []
            for b, x in enumerate(row):
                if type(x) not in (str, int):
                    raise ValueError(f"{key}[{i}][{a}][{b}] is {json.dumps(x)}: a "
                                     "representation holds rational matrix entries only")
                # integral entries as int, which the eliminations take as is
                q = x if type(x) is int else parse_rational(x)
                r.append(q.numerator if q.denominator == 1 else q)
            data.append(r)
        return Mat(rows, cols, data)

    X = tuple(matrix("X", i, d[i], d[(i + 1) % l]) for i in range(l))
    Y = tuple(matrix("Y", i, d[(i + 1) % l], d[i]) for i in range(l))
    return QuiverRep(d, X, Y)


def _emit(obj) -> None:
    """Write obj to stdout as ``json.dumps(obj, indent=2)`` and a newline.  A
    top-level list, tuple or generator is written one element at a time, each
    rendered as it is reached; anything else is rendered whole.  Handlers compute
    and check all they pass before the call, so a refusal comes before any write."""
    if not isinstance(obj, (list, tuple, GeneratorType)):
        print(_dumps(obj))
        return
    out, sep = sys.stdout, "["
    for x in obj:
        out.write(sep + "\n  " + _dumps(x, "\n  "))
        sep = ","
    out.write("[]\n" if sep == "[" else "\n]\n")


_quote = json.encoder.encode_basestring_ascii


class _Raw(str):
    """JSON text that ``_dumps`` emits as it is, already rendered at the
    indent of the line it lands on."""

    __slots__ = ()


def _dumps(obj, nl: str = "\n") -> str:
    """obj as ``json.dumps(obj, indent=2)`` prints it, byte for byte.

    Takes str, int, bool, None, lists, tuples and dicts with str keys;
    anything else raises TypeError.  ``nl`` is the newline and indent of
    obj's own line.  A ``_Raw`` is spliced in unquoted.
    """
    if type(obj) is _Raw:
        return obj
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _residue_json(v) -> dict:
    return {"modulus": len(v), "entries": v}


def _params_json(p: ParamSet) -> dict:
    return {"l": p.l, "a": format_rational(p.a), "k": [format_rational(x) for x in p.k]}


# subcommand name -> (help, handler, {option: add_argument keywords}), in the
# order the full parser lists them; each @_command on a handler adds one entry
_COMMANDS: dict[str, tuple] = {}
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _int, "required": True}


def _command(name: str, help: str, **options):
    """Register the decorated handler as the subcommand ``name``, with one flag
    ``--<option>`` per keyword, in the order given."""
    def register(func):
        _COMMANDS[name] = (help, func, options)
        return func
    return register


@_command("cores", "l-core and removal count of a partition",
          partition={"required": True, "help": "comma-separated parts, e.g. 4,2,1"},
          l=_REQUIRED_INT)
def cmd_cores(args) -> int:
    lam = _parse_partition(args.partition)
    nu, removals = core(lam, args.l)
    _emit({"core": nu, "removals": removals})
    return 0


@_command("quotient", "l-quotient of a partition", partition=_REQUIRED, l=_REQUIRED_INT)
def cmd_quotient(args) -> int:
    lam = _parse_partition(args.partition)
    _emit(quotient(lam, args.l))
    return 0


@_command("residues", "residue vector of a partition", partition=_REQUIRED, l=_REQUIRED_INT)
def cmd_residues(args) -> int:
    lam = _parse_partition(args.partition)
    _emit(_residue_json(residues(lam, args.l)))
    return 0


@_command("enumerate-e", "dimension vectors indexing fixed components",
          k=_REQUIRED_INT, l=_REQUIRED_INT, n=_REQUIRED_INT)
def cmd_enumerate_e(args) -> int:
    _emit(_residue_json(d) for d in enumerate_E(args.k, args.l, args.n))
    return 0


@_command("transport", "parameter transport c -> c' at a dimension vector",
          l=_REQUIRED_INT, k=_REQUIRED_INT,
          d={"required": True, "help": "comma-separated integers, length k*l"},
          a={"required": True, "help": 'rational "p/q"'},
          kparams={"required": True, "help": "comma-separated rationals summing to 0"})
def cmd_transport(args) -> int:
    p = ParamSet(args.l, parse_rational(args.a), _parse_rationals(args.kparams))
    d = _parse_ints(args.d)
    out = transport(p, args.k, d)
    _emit({"a_prime": format_rational(out.a), "k_prime": [format_rational(x) for x in out.k],
           "m": out.l})
    return 0


# newline and indent of an entry of a component's "labels" and
# "label_injection", and of the "mu" and "lambda" of an injection entry
_LABEL_NL = "\n" + " " * 6
_PAIR_NL = "\n" + " " * 8


def _labeller(nl: str):
    """A renderer of multipartitions at one indent: it returns each
    multipartition lam, a tuple of tuples of ints, as ``_dumps(lam, nl)``.

    The renderer makes each distinct partition's text once, on its first
    lookup, and joins those texts for every multipartition it renders.  A
    handler makes one per indent it writes labels at, and drops it when it
    returns.
    """
    inner, part = nl + "  ", nl + "    "
    sep, part_sep, end = "," + inner, "," + part, inner + "]"
    start, stop = "[" + inner, nl + "]"

    class Texts(dict):
        # partition -> its text, made on the first lookup of the partition
        def __missing__(self, c):
            t = self[c] = "[" + part + part_sep.join(map(str, c)) + end
            return t

    text = Texts({(): "[]"}).__getitem__
    return lambda lam: _Raw(start + sep.join(map(text, lam)) + stop)


@_command("components", "catalog of fixed-locus components",
          l=_REQUIRED_INT, n=_REQUIRED_INT, k=_REQUIRED_INT, a=_REQUIRED, kparams=_REQUIRED,
          format={"choices": ("json", "csv"), "default": "json"})
def cmd_components(args) -> int:
    p = ParamSet(args.l, parse_rational(args.a), _parse_rationals(args.kparams))
    cat = component_catalog(args.l, args.n, args.k, p)
    if args.format == "json":
        # each injection entry {"mu", "lambda"} is one text, as _dumps writes it
        label, pair = _labeller(_LABEL_NL), _labeller(_PAIR_NL)
        mu_key, lam_key = "{" + _PAIR_NL + '"mu": ', "," + _PAIR_NL + '"lambda": '
        _emit({
            "gamma": c.gamma,
            "r": c.r,
            "m": c.m,
            "d": _residue_json(c.d),
            "c_prime": _params_json(c.c_prime),
            "labels": [label(lam) for lam in c.labels],
            "label_injection": [_Raw(mu_key + pair(mu) + lam_key + pair(lam) + _LABEL_NL + "}")
                                for mu, lam in sorted(c.label_injection.items())],
            "convention": "gordon",
        } for c in cat)
        return 0
    # csv flattening, a row at a time
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["gamma", "r", "m", "d", "a_prime", "k_prime"])
    for c in cat:
        w.writerow([json.dumps(c.gamma), c.r, c.m, ",".join(str(x) for x in c.d),
                    format_rational(c.c_prime.a),
                    ",".join(format_rational(x) for x in c.c_prime.k)])
    return 0


# newline and indent of an entry of chartable's "labels" and "classes", and
# of an entry of its "values": top-level object, then the list of rows, then a row
_ENTRY_NL = "\n" + " " * 4
_VALUE_NL = "\n" + " " * 6


@_command("chartable", "exact character table of G(l,1,n)", l=_REQUIRED_INT, n=_REQUIRED_INT)
def cmd_chartable(args) -> int:
    t = character_table(args.l, args.n)
    # t.raw holds one tuple per distinct value: render each one's text once,
    # from its reduced int coordinates, at the indent of a values entry
    distinct = {id(v): v for row in t.raw for v in row}
    text = {i: _dumps({"order": t.l, "coeffs": [str(c) for c in _reduce(t.l, v)]}, _VALUE_NL)
            for i, v in distinct.items()}
    # one enumeration indexes rows and columns, so the labels' text serves
    # the classes too; the keys up to "values" through _dumps, then one join
    # and one write per row
    label = _labeller(_ENTRY_NL)
    labels = [label(lam) for lam in t.labels]
    before, _, after = _dumps({"l": t.l, "n": t.n, "labels": labels, "classes": labels,
                               "sizes": t.sizes, "values": _Raw("\0")}).partition("\0")
    out, sep = sys.stdout, "," + _VALUE_NL
    out.write(before + "[")
    for i, row in enumerate(t.raw):
        out.write(("," if i else "") + "\n    [" + _VALUE_NL + sep.join([text[id(v)] for v in row])
                  + "\n    ]")
    out.write("\n  ]" + after + "\n")
    return 0


@_command("verify-filtration", "codimension-filtration check per component",
          l=_REQUIRED_INT, n=_REQUIRED_INT, k=_REQUIRED_INT,
          gamma={"help": 'JSON list of partitions, e.g. "[[1],[]]"'})
def cmd_verify_filtration(args) -> int:
    gammas = None if args.gamma is None else [_parse_gamma(args.gamma)]
    reports = verify_filtration(args.l, args.n, args.k, gammas)
    _emit({
        "l": r.l, "n": r.n, "k": r.k,
        "gamma": r.gamma,
        "passed": r.passed,
        "classes_checked": r.checked,
        "certificates": [{"class": cls, "codim": codim,
                          "offending_class": off, "offending_codim": off_codim}
                         for cls, codim, off, off_codim in r.certificates],
    } for r in reports)
    return 0 if all(r.passed for r in reports) else 1


@_command("smooth", "smoothness predicates",
          criterion={"choices": ("gl1n", "quiver", "cyclic", "g4"), "default": "gl1n"},
          # gl1n and quiver only
          l={"type": _int, "help": "default 1"},
          n={"type": _int, "help": "default 1"},
          a={"help": 'rational "p/q", default 0'},
          kparams=_REQUIRED)
def cmd_smooth(args) -> int:
    crit = args.criterion
    if crit in ("gl1n", "quiver"):
        p = ParamSet(1 if args.l is None else args.l,
                     parse_rational("0" if args.a is None else args.a),
                     _parse_rationals(args.kparams))
        n = 1 if args.n is None else args.n
        val = smooth_gl1n(p, n) if crit == "gl1n" else smooth_quiver(theta_from_ak(p), n)
    else:
        extra = [f"--{o}" for o in ("l", "n", "a") if getattr(args, o) is not None]
        if extra:
            raise ValueError(f"--criterion {crit} reads only --kparams, not {', '.join(extra)}")
        ks = _parse_rationals(args.kparams)
        if crit == "cyclic":
            val = smooth_cyclic(ks)
        elif len(ks) != 3:
            raise ValueError(f"g4 needs exactly 3 values of k, got {len(ks)}")
        else:
            val = smooth_g4(*ks)
    _emit({"criterion": crit, "smooth": val})
    return 0


@_command("quiver-check", "moment-map and membership checks on a representation",
          rep={"required": True, "help": "path to a representation JSON file"},
          theta={"help": "comma-separated rationals"},
          seed={"type": _int, "default": DEFAULT_SEED},
          budget={"type": _int, "default": 32})
def cmd_quiver_check(args) -> int:
    if args.budget < 0:
        raise ValueError(f"--budget must be at least 0, got {args.budget}")
    if args.theta is not None and not args.theta.strip():
        raise ValueError("--theta is empty")
    th = None if args.theta is None else _parse_rationals(args.theta)
    with open(args.rep, "r", encoding="utf-8") as fh:
        rep = _read_rep(_load_json(fh.read(), f"--rep {args.rep}"))
    res = norton_simplicity(rep, seed=args.seed, budget=args.budget)
    mm = moment_map(rep)
    out = {
        "l": rep.l,
        "d": rep.d,
        "moment_traces": [format_rational(m.trace()) for m in mm],
        "total_trace": format_rational(sum((m.trace() for m in mm), Fraction(0))),
    }
    if th is not None:
        out["in_deformed_fiber"] = in_deformed_fiber(mm, rep.d, th)
    out["simplicity"] = res.status
    _emit(out)
    return 0


@_command("selftest", "run the invariant suite", seed={"type": _int, "default": DEFAULT_SEED})
def cmd_selftest(args) -> int:
    return 0 if run_selftest(args.seed) else 1


def run_selftest(seed: int = DEFAULT_SEED, out=None) -> bool:
    """Fast end-to-end sweep of ``invariants.CHECKS``; prints one line per check."""
    # imported here: no other subcommand pays for compiling the registry
    from .invariants import CHECKS, first_failure

    out = out or sys.stdout
    rng = random.Random(seed)
    passed = 0
    for name, instances, predicate in CHECKS:
        draws = iter(instances(rng))
        witness = first_failure(draws, predicate)
        # finish a failed check's draws: later checks see the rng of a passing run
        first_failure(draws, lambda *_: True)
        if witness is None:
            passed += 1
            out.write(f"ok - {name}\n")
        else:
            out.write(f"FAIL - {name}: {witness}\n")
    out.write(f"{passed}/{len(CHECKS)} checks passed\n")
    return passed == len(CHECKS)


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv as ``build_parser()`` parses it, read from ``_COMMANDS`` alone;
    None unless argv is well formed.

    Well formed is a subcommand, then each of its flags at most once as
    ``--name=value`` or as ``--name`` and a value that is ``-`` or does not
    start with ``-``; each value converts through the flag's type and lies
    in its choices, and every required flag is there.  Anything else (help,
    an abbreviation, ``--``, a repeat, a refusal) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                return None
        name = flag[2:] if flag.startswith("--") else None
        kwargs = options.get(name)
        if kwargs is None or name in given:
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[name] = value
    for option, kwargs in options.items():
        if option not in given:
            if kwargs.get("required"):
                return None
            given[option] = kwargs.get("default")
    return SimpleNamespace(command=argv[0], func=func, **given)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand of ``_COMMANDS``, in its order.

    ``main`` builds it only when ``_read_argv`` declines a command line, so
    argparse is imported here, on the first such call.
    """
    import argparse

    ap = argparse.ArgumentParser(
        prog="cmfix",
        description="Exact fixed-locus combinatorics for Calogero-Moser spaces of G(l,1,n)",
    )
    ap.add_argument("--version", action="version", version=f"cmfix {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for option, kwargs in options.items():
            p.add_argument("--" + option, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    """Run the subcommand that argv (default ``sys.argv[1:]``, any sequence)
    names, and return its exit code.

    A well-formed command line is read from the registry by ``_read_argv``,
    with no parser built.  Any other (help, ``--version``, an abbreviation, a
    refusal) goes to the full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # stdout's reader is gone: what its buffer still holds goes to
            # devnull, so the flush at exit raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
