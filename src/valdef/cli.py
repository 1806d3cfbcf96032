"""Single command-line entry point over the JSON file formats.

Every command prints one JSON document on stdout (sorted keys, so equal
inputs give byte-identical output); diagnostics go to stderr.  Exit
codes: 0 the property holds / computation succeeded, 1 property violated
(witness in the JSON), 2 malformed input or flags, 3 insufficient
precision, 4 internal error (a bug: the traceback goes to stderr and
nothing to stdout, so it is never read as a verdict).  Only decompose and
deform, whose files hold series, take --cap.

Start-up is most of a one-shot call, so importing this module loads only
what `check`, `cohomology` and `rigidity` run on a Lie file: `io`,
`errors` and `algebra`.  Each cmd_* function imports the modules of its
own subcommand in its body.  The bodies of decompose, deform, gass and
poisson live in `commands`, which `_later` imports at their first call,
so the series arithmetic, series-file formats and non-associative code
they reach are compiled only by the commands that run them.  The parser's
choices come from `algebra`, and argparse is imported only for --help and
for argv that the fast path leaves to it.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from types import SimpleNamespace

from . import io
from .algebra import COEFFS, MAX_DEGREE, SUBGROUPS, is_lie
from .errors import FormatError, InvalidDeformation, PrecisionExhausted, ValdefError
from .io import ratio_str

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def answer(ok: bool, detail: dict, **extra) -> tuple:
    """A command's exit code and document: 0 when ok holds, 1 when violated."""
    return (EXIT_OK if ok else EXIT_VIOLATED), {"ok": ok, "detail": detail, **extra}


# -- commands ----------------------------------------------------------


def cmd_check(args):
    loaded = io.load_algebra(args.algebra)
    detail: dict = {"kind": loaded.kind, "dim": loaded.algebra.dim}
    if loaded.kind == "lie":
        ok, witness = is_lie(loaded.algebra)
        if not ok:
            detail["witness"] = {"axiom": "Jacobi identity", "triple": list(witness)}
    elif loaded.kind == "assoc":
        from .nonassoc import SubgroupTag, g_associative_check

        ok, witness = g_associative_check(loaded.algebra, SubgroupTag.ID)
        if witness:
            detail["witness"] = {"axiom": "associativity", "triple": list(witness)}
    else:
        from .nonassoc import poisson_verify

        ok, witness = poisson_verify(loaded.algebra)
        if not ok:
            detail["witness"] = {"axiom": witness[0], "args": list(witness[1])}
    return answer(ok, detail)


def load_kind(path, kind: str, wrong_kind: str):
    """The AlgebraFile at path; FormatError(wrong_kind) unless of that kind.

    A lie-kind table that fails the Jacobi identity is malformed input
    here: its cohomology and roots would be numbers with no meaning.
    """
    loaded = io.load_algebra(path)
    if loaded.kind != kind:
        raise FormatError(wrong_kind)
    if kind == "lie":
        ok, witness = is_lie(loaded.algebra)
        if not ok:
            raise FormatError(
                f"{path}: bracket fails the Jacobi identity at triple {list(witness)}"
            )
    return loaded


def cmd_cohomology(args):
    from .cohomology import cohomology_dim

    need = "cohomology needs a lie-kind algebra file"
    loaded = load_kind(args.algebra, "lie", need)
    report = cohomology_dim(loaded.algebra, args.deg, args.coeff)
    return answer(True, report._asdict())


def cmd_rigidity(args):
    from .rigidity import TorusData, enveloping_rigidity_report

    need = "rigidity analysis needs a lie-kind algebra"
    loaded = load_kind(args.algebra, "lie", need)
    if loaded.torus is None:
        raise FormatError("algebra file must carry a 'torus' index list")
    torus = TorusData.from_torus(loaded.algebra.dim, loaded.torus)
    report = enveloping_rigidity_report(loaded.algebra, torus, args.asserted_rigid)
    detail = report._asdict()
    if report.roots is not None:
        detail["roots"] = [ratio_str(*r) for r in report.roots]
    for key in ("note", "zero_root"):
        if detail[key] is None:
            del detail[key]
    if report.zero_root is not None:
        detail["zero_root"] = report.zero_root._asdict()
    return answer(True, detail)


def _later(name: str):
    """The command function `name` of `commands`, which is imported at its
    first call and not with this module."""

    def run(args):
        from . import commands

        return getattr(commands, name)(args)

    return run


# -- wiring ------------------------------------------------------------


def _int(text: str) -> int:
    """int() of an ASCII [+-]?[0-9]+ only; int() alone also reads the digits
    of other scripts, "1_0" and padding spaces."""
    if text.isascii() and text.lstrip("+-").isdigit():
        return int(text)  # a second sign still raises here
    raise ValueError(text)


_int.__name__ = "int"  # argparse's error line names the type

# The CLI, described once for build_parser and _fast_parse.  An argument is
# (name, add_argument keywords); a name that starts with "-" is an option.
COMMON = [("--pretty", dict(action="store_true", help="indent the JSON output"))]
# only decompose and deform read a cap: their files hold series
CAP = ("--cap", dict(type=_int, default=8, help="default precision cap (default 8)"))
ALGEBRA, FILES = ("algebra", {}), ("files", {"nargs": "+"})
SPEC = {  # command: (func, help, arguments after COMMON)
    "check": (cmd_check, "axiom check by algebra kind", [ALGEBRA]),
    "cohomology": (cmd_cohomology, "exact cohomology dimensions", [
        ALGEBRA,
        ("--deg", dict(type=_int, choices=range(1, MAX_DEGREE + 1), required=True)),
        ("--coeff", dict(choices=COEFFS, required=True)),
    ]),
    "decompose": (_later("cmd_decompose"), "flag decomposition of a vector over m", [
        CAP, ("vector", {}),
    ]),
    "deform": (_later("cmd_deform"), "valued deformation operations", [
        CAP,
        ("action", dict(
            choices=("verify", "decompose", "graded", "transport", "polycheck"))),
        ("deformation", {}),
        ("--endo", dict(help="endomorphism file for transport")),
        ("--inverse", dict(
            action="store_true", help="transport by the inverse of --endo")),
        ("--poly", dict(help="JSON array of rational strings, P from degree 0")),
        ("--k", dict(type=_int, help="polynomial form degree bound")),
    ]),
    "rigidity": (cmd_rigidity, "roots and enveloping-algebra report", [
        ALGEBRA, ("--asserted-rigid", dict(action="store_true")),
    ]),
    "gass": (_later("cmd_gass"), "G-associativity and tensor closure", [
        ("action", dict(choices=("check", "dual", "tensor"))), FILES,
        ("--group", dict(required=True, choices=SUBGROUPS)),
        ("--unsigned", dict(
            action="store_true", help="drop the signature weights in the G-sum")),
    ]),
    "poisson": (_later("cmd_poisson"), "Poisson verification and constructions", [
        ("action", dict(choices=("verify", "tensor", "opposite"))), FILES,
    ]),
}


@cache
def build_parser():
    """The argparse parser of SPEC, built once per process; parsing leaves it
    unchanged.  Only --help and the argv _fast_parse declines need it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="valdef", description="exact workbench for valued deformations of algebras"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, arguments) in SPEC.items():
        p = sub.add_parser(command, help=summary)
        for name, kw in COMMON + arguments:
            p.add_argument(name, **kw)
        p.set_defaults(func=func)
    return parser


@cache
def _command_spec(command):
    """What _fast_parse reads of one SPEC command, built once per process:
    its options by name, its positionals, each option's namespace name, the
    namespace defaults and the names of the required options."""
    func, _, arguments = SPEC[command]
    options = dict(COMMON + [a for a in arguments if a[0][0] == "-"])
    positionals = [a for a in arguments if a[0][0] != "-"]
    dests = {name: name[2:].replace("-", "_") for name in options}
    defaults = {"command": command, "func": func}
    for name, kw in options.items():
        defaults[dests[name]] = kw.get("default", False if "action" in kw else None)
    required = frozenset(name for name, kw in options.items() if kw.get("required"))
    return options, positionals, dests, defaults, required


def _fast_parse(argv):
    """argparse's namespace for argv, read from SPEC without argparse.  None,
    so that argparse reads it, unless argv is a known command, exact option
    names with values that pass their type and choices, every required
    option and one contiguous run of the right number of positionals."""
    if not argv or argv[0] not in SPEC:
        return None
    options, positionals, dests, defaults, required = _command_spec(argv[0])
    ns, required = dict(defaults), set(required)
    words, tokens, ended = [], iter(argv[1:]), False
    for token in tokens:
        kw = options.get(token)
        if token[:1] != "-":
            if ended:  # a second run of positionals
                return None
            words.append(token)
            continue
        ended = bool(words)
        if kw is None:
            return None
        if "action" in kw:  # store_true
            ns[dests[token]] = True
            continue
        text = next(tokens, "-")
        try:
            value = kw.get("type", str)(text)
        except ValueError:
            return None
        if text[:1] == "-" or value not in kw.get("choices", [value]):
            return None
        ns[dests[token]] = value
        required.discard(token)
    n = len(positionals)
    if positionals[-1][1].get("nargs") == "+" and len(words) >= n:
        words[n - 1 :] = [words[n - 1 :]]
    if required or len(words) != n:
        return None
    ns.update((name, word) for (name, _), word in zip(positionals, words))
    ok = all(w in kw.get("choices", [w]) for (_, kw), w in zip(positionals, words))
    return SimpleNamespace(**ns) if ok else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_parse(argv) or build_parser().parse_args(argv)
    try:
        code, doc = args.func(args)
    except ValdefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, doc = EXIT_BAD_INPUT, {"ok": False, "error": str(exc)}
        if isinstance(exc, PrecisionExhausted):
            code = EXIT_PRECISION
        elif isinstance(exc, InvalidDeformation):
            code = EXIT_VIOLATED
    except Exception:
        # imported here: it costs every start-up a few ms and only a bug needs it
        import traceback

        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    if args.pretty:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    # `python -m valdef.cli` runs this file as __main__; registered as
    # valdef.cli too, it is the module `commands` imports, not a second copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
