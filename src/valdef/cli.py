"""Single command-line entry point over the JSON file formats.

Every command prints one JSON document on stdout (sorted keys, so equal
inputs give byte-identical output); diagnostics go to stderr.  Exit
codes: 0 the property holds / computation succeeded, 1 property violated
(witness in the JSON), 2 malformed input or flags, 3 insufficient
precision, 4 internal error (a bug: the traceback goes to stderr and
nothing to stdout, so it is never read as a verdict).  Only decompose and
deform, whose files hold series, take --cap.

Start-up is most of a one-shot call, so importing this module loads only
what every command needs: `io`, `errors`, `series` and `algebra`.  Each
cmd_* function imports the modules of its own subcommand in its body, the
parser's choices come from `algebra`, and argparse is imported only for
--help and for argv that the fast path leaves to it.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from types import SimpleNamespace

from . import io
from .algebra import COEFFS, MAX_DEGREE, SUBGROUPS, is_lie
from .errors import FormatError, InvalidDeformation, PrecisionExhausted, ValdefError
from .series import lowest_terms, ratio_str, rational_pair

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _table_doc(structure) -> list:
    """The file entries of a table: each nonzero row by (i, j), i < j only
    for a Lie table, every constant in lowest terms."""
    den, rows = structure.scaled_table
    lie = structure.kind == "lie"
    return [
        {"i": i, "j": j, "out": [{"k": k, "c": ratio_str(c, den)} for k, c in row]}
        for i, r in enumerate(rows)
        for j, row in enumerate(r)
        if row and not (lie and j <= i)
    ]


def _answer(ok: bool, detail: dict, **extra) -> tuple:
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
    return _answer(ok, detail)


def _load(path, kind: str, wrong_kind: str):
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

    loaded = _load(args.algebra, "lie", "cohomology needs a lie-kind algebra file")
    report = cohomology_dim(loaded.algebra, args.deg, args.coeff)
    return _answer(True, report._asdict())


def cmd_decompose(args):
    from .decompose import decompose, flag_of, recompose

    den, rows = io.parse_vector(io.load_json(args.vector), args.cap)
    fd = decompose(den, rows)
    if recompose(fd) != lowest_terms(den, [row[: fd.cap + 1] for row in rows]):
        # both sides are exact, so a mismatch is a bug: exit 4, traceback
        raise RuntimeError("the flag decomposition does not recompose to its input")
    flag = flag_of(fd)
    # a row repeated from one level to the next is printed once, each
    # entry over the row's lead
    printed = {}

    def row_doc(row):
        doc = printed.get(row)
        if doc is None:
            lead = next(filter(None, row))
            doc = printed[row] = [ratio_str(x, lead) for x in row]
        return doc

    detail = {
        "length": fd.length,
        "ambient_dim": fd.ambient_dim,
        "cap_out": fd.cap,
        "steps": [
            {
                "coefficient": io.series_literal(s.coefficient),
                "vector": [ratio_str(x, s.den) for x in s.vector],
            }
            for s in fd.steps
        ],
        "flag": [[row_doc(row) for row in level] for level in flag.chain],
        "recomposition_check": True,
    }
    return _answer(True, detail, cap_used=len(rows[0]) - 1)


def _verdict_doc(v) -> dict:
    """A graded-system MembershipVerdict, its pairs written "i,j"."""
    coeffs = v.coefficients or {}
    return {
        "holds": v.holds,
        "coefficients": {f"{i},{j}": ratio_str(*c) for (i, j), c in coeffs.items()},
    }


def _load_deformation(args):
    doc = io.load_json(args.deformation)
    base_dir = os.path.dirname(os.path.abspath(args.deformation))
    return io.parse_deformation(doc, base_dir, args.cap)


def cmd_deform(args):
    from .deformation import (
        decompose_deformation,
        graded_system,
        jacobi_residual,
        polynomial_form_check,
        series_matrix_inverse,
        transport,
    )

    d = _load_deformation(args)
    if args.action == "verify":
        residual = jacobi_residual(d)
        ok = not residual
        detail: dict = {"base_dim": d.base.dim, "n_terms": len(d.terms)}
        if not ok:
            detail["witness"] = {
                "residual_orders": sorted(residual),
                "first_residual": io.cochain_doc(residual[min(residual)]),
            }
        return _answer(ok, detail, cap_used=d.cap)
    if args.action == "decompose":
        dd = decompose_deformation(d)
        return _answer(True, io.deformation_doc(dd), cap_used=dd.cap)
    if args.action == "graded":
        dd = decompose_deformation(d)
        system = graded_system(dd)
        delta, bracket = system.delta_memberships, system.bracket_memberships
        detail = {
            "n_terms": len(dd.terms),
            "delta_memberships": {str(k): _verdict_doc(v) for k, v in delta.items()},
            "bracket_memberships": {
                f"{i},{k}": _verdict_doc(v) for (i, k), v in bracket.items()
            },
            "satisfied": system.satisfied,
        }
        return _answer(system.satisfied, detail, cap_used=dd.cap)
    if args.action == "transport":
        if not args.endo:
            raise FormatError("transport needs --endo ENDOMORPHISM_FILE")
        f = io.parse_endomorphism(io.load_json(args.endo), d.base.dim, d.cap)
        if args.inverse:
            # transport by F^-1, whose inverse is F itself
            g = series_matrix_inverse(f, min(d.cap, len(f[1][0][0]) - 1))
            out = transport(d, g, f)
        else:
            out = transport(d, f)
        return _answer(True, io.deformation_doc(out), cap_used=out.cap)
    # polycheck, the last of SPEC's choices
    if args.poly is None or args.k is None:
        raise FormatError("polycheck needs --poly and --k")
    try:
        items = json.loads(args.poly)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"--poly is not valid JSON: {exc}")
    if not isinstance(items, list):
        raise FormatError(f"--poly must be a JSON array of rationals, got {args.poly}")
    poly = [rational_pair(c) for c in items]
    try:
        ok = polynomial_form_check(d, poly, args.k)
    except ValueError as exc:
        raise FormatError(str(exc))
    detail = {"poly": [ratio_str(*c) for c in poly], "k": args.k}
    return _answer(ok, detail, cap_used=d.cap)


def cmd_rigidity(args):
    from .rigidity import TorusData, enveloping_rigidity_report

    loaded = _load(args.algebra, "lie", "rigidity analysis needs a lie-kind algebra")
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
    return _answer(True, detail)


def _files(args, what: str) -> list:
    """The action's file paths: two for tensor, one for every other action."""
    want = 2 if args.action == "tensor" else 1
    if len(args.files) != want:
        need = f"two {what}s" if want == 2 else f"one {what}"
        raise FormatError(
            f"{args.command} {args.action} needs {need}, got {len(args.files)}"
        )
    return args.files


def _tensor_dim(left: int, right: int) -> None:
    """Refuse a tensor product above io.MAX_DIM before it is built: its
    checks scan every basis triple, dim^3 of them."""
    if left * right > io.MAX_DIM:
        raise FormatError(
            f"tensor product dim {left}*{right} = {left * right} exceeds the "
            f"largest supported dim {io.MAX_DIM}"
        )


def cmd_gass(args):
    from .nonassoc import (
        DUAL_IDENTITY,
        SubgroupTag,
        dual_identity_check,
        g_associative_check,
        tensor_product,
    )

    tag = SubgroupTag(args.group)
    signed = not args.unsigned
    need = "G-associativity commands need kind 'assoc'"
    a, *rest = [
        _load(path, "assoc", f"{path}: {need}").algebra
        for path in _files(args, "algebra file")
    ]
    if args.action == "check":
        ok, witness = g_associative_check(a, tag, signed=signed)
        detail = {"group": tag.value, "signed": signed, "dim": a.dim}
    elif args.action == "dual":
        ok, witness = dual_identity_check(a, tag)
        detail = {"group": tag.value, "identity": DUAL_IDENTITY[tag], "dim": a.dim}
    else:  # tensor
        (b,) = rest
        _tensor_dim(a.dim, b.dim)
        prod = tensor_product(a, b)
        ok, witness = g_associative_check(prod, tag, signed=signed)
        detail = {
            "group": tag.value,
            "signed": signed,
            "dim": prod.dim,
            "left_g_associative": g_associative_check(a, tag, signed=signed)[0],
            "right_dual_identity": dual_identity_check(b, tag)[0],
            "table": _table_doc(prod),
        }
    if witness:
        detail["witness"] = {"triple": list(witness)}
    return _answer(ok, detail)


def cmd_poisson(args):
    from .nonassoc import opposite_poisson, poisson_tensor, poisson_verify

    need = "poisson commands need kind 'poisson'"
    p, *rest = [
        _load(path, "poisson", f"{path}: {need}").algebra
        for path in _files(args, "poisson file")
    ]
    if args.action == "verify":
        ok, witness = poisson_verify(p)
        detail: dict = {"dim": p.dim}
        if witness:
            detail["witness"] = {"axiom": witness[0], "args": list(witness[1])}
        return _answer(ok, detail)
    if args.action == "tensor":
        (q,) = rest
        _tensor_dim(p.dim, q.dim)
        out = poisson_tensor(p, q)
    else:  # opposite
        out = opposite_poisson(p)
    # both constructions verify their output: a failure there exits 4
    detail = {
        "dim": out.dim,
        "kind": "poisson",
        "assoc_table": _table_doc(out.product),
        "bracket_table": _table_doc(out.bracket),
        "verified": True,
    }
    return _answer(True, detail)


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
    "decompose": (cmd_decompose, "flag decomposition of a vector over m", [
        CAP, ("vector", {}),
    ]),
    "deform": (cmd_deform, "valued deformation operations", [
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
    "gass": (cmd_gass, "G-associativity and tensor closure", [
        ("action", dict(choices=("check", "dual", "tensor"))), FILES,
        ("--group", dict(required=True, choices=SUBGROUPS)),
        ("--unsigned", dict(
            action="store_true", help="drop the signature weights in the G-sum")),
    ]),
    "poisson": (cmd_poisson, "Poisson verification and constructions", [
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
    sys.exit(main())
