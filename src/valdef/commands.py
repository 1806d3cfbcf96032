"""The bodies of the decompose, deform, gass and poisson commands.

`cli.SPEC` names these functions, and `cli` imports this module when one
of them first runs, so the Lie commands behind cohomology, rigidity and
Jacobi checks never compile them.  Each function imports the modules of
its own subcommand in its body, as `cli`'s commands do: `series` and
`decompose` for decompose, `deformation` for deform, `nonassoc` for gass
and poisson.  Their answers and exit codes are `cli`'s (`cli.answer`),
and the algebra files they read are checked by `cli.load_kind`.
"""

from __future__ import annotations

import json
import os

from . import io
from .cli import answer, load_kind
from .errors import FormatError
from .io import ratio_str, rational_pair


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


# -- series commands ------------------------------------------------


def cmd_decompose(args):
    from .decompose import decompose, flag_of, recompose
    from .series import lowest_terms, parse_vector, series_literal

    den, rows = parse_vector(io.load_json(args.vector), args.cap)
    steps = []

    def write_step(s):
        # written as each step is found, so that a coefficient or direction
        # too long to print exits 2 before the later steps and the checks
        steps.append({
            "coefficient": series_literal(s.coefficient),
            "vector": [ratio_str(x, s.den) for x in s.vector],
        })

    fd = decompose(den, rows, each_step=write_step)
    if recompose(fd) != lowest_terms(den, [row[: fd.cap + 1] for row in rows]):
        # both sides are exact, so a mismatch is a bug: exit 4, traceback
        raise RuntimeError("the flag decomposition does not recompose to its input")
    flag = flag_of(fd)
    # flag_of hands a row unchanged from one level to the next on as the
    # same tuple, so each is printed once, keyed by the object (every row
    # stays alive in flag), each entry over the row's lead
    printed = {}

    def row_doc(row):
        doc = printed.get(id(row))
        if doc is None:
            lead = next(filter(None, row))
            doc = printed[id(row)] = [ratio_str(x, lead) if x else "0" for x in row]
        return doc

    detail = {
        "length": fd.length,
        "ambient_dim": fd.ambient_dim,
        "cap_out": fd.cap,
        "steps": steps,
        "flag": [[row_doc(row) for row in level] for level in flag.chain],
        "recomposition_check": True,
    }
    return answer(True, detail, cap_used=len(rows[0]) - 1)


def _verdict_doc(v) -> dict:
    """A graded-system MembershipVerdict, its pairs written "i,j"."""
    coeffs = v.coefficients or {}
    return {
        "holds": v.holds,
        "coefficients": {f"{i},{j}": ratio_str(*c) for (i, j), c in coeffs.items()},
    }


def cmd_deform(args):
    from .deformation import (
        cochain_doc,
        decompose_deformation,
        deformation_doc,
        graded_system,
        jacobi_residual,
        parse_deformation,
        polynomial_form_check,
        series_matrix_inverse,
        transport,
    )
    from .series import parse_endomorphism

    base_dir = os.path.dirname(os.path.abspath(args.deformation))
    d = parse_deformation(io.load_json(args.deformation), base_dir, args.cap)
    if args.action == "verify":
        residual = jacobi_residual(d)
        ok = not residual
        detail: dict = {"base_dim": d.base.dim, "n_terms": len(d.terms)}
        if not ok:
            detail["witness"] = {
                "residual_orders": sorted(residual),
                "first_residual": cochain_doc(residual[min(residual)]),
            }
        return answer(ok, detail, cap_used=d.cap)
    if args.action == "decompose":
        dd = decompose_deformation(d)
        return answer(True, deformation_doc(dd), cap_used=dd.cap)
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
        return answer(system.satisfied, detail, cap_used=dd.cap)
    if args.action == "transport":
        if not args.endo:
            raise FormatError("transport needs --endo ENDOMORPHISM_FILE")
        f = parse_endomorphism(io.load_json(args.endo), d.base.dim, d.cap)
        if args.inverse:
            # transport by F^-1, whose inverse is F itself
            g = series_matrix_inverse(f, min(d.cap, len(f[1][0][0]) - 1))
            out = transport(d, g, f)
        else:
            out = transport(d, f)
        return answer(True, deformation_doc(out), cap_used=out.cap)
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
    return answer(ok, detail, cap_used=d.cap)


# -- non-associative commands ------------------------------------------


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
    """Refuse a tensor product above io.MAX_DIM before it is built: the
    G-check that names a failing gass tensor's witness scans every basis
    triple of the product, dim^3 of them, and each tensor table, up to
    dim^2 entries, is built, checked and printed."""
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
        tensor_g_associative,
        tensor_product,
    )

    tag = SubgroupTag(args.group)
    signed = not args.unsigned
    need = "G-associativity commands need kind 'assoc'"
    a, *rest = [
        load_kind(path, "assoc", f"{path}: {need}").algebra
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
        ok, witness = tensor_g_associative(a, b, tag, signed), None
        if not ok:
            # the factors decide; the built table names the first failing triple
            ok, witness = g_associative_check(prod, tag, signed=signed)
            if ok:  # both are exact, so a disagreement is a bug: exit 4
                raise RuntimeError("the factor and product G-checks disagree")
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
    return answer(ok, detail)


def cmd_poisson(args):
    from .nonassoc import opposite_poisson, poisson_tensor, poisson_verify

    need = "poisson commands need kind 'poisson'"
    p, *rest = [
        load_kind(path, "poisson", f"{path}: {need}").algebra
        for path in _files(args, "poisson file")
    ]
    if args.action == "verify":
        ok, witness = poisson_verify(p)
        detail: dict = {"dim": p.dim}
        if witness:
            detail["witness"] = {"axiom": witness[0], "args": list(witness[1])}
        return answer(ok, detail)
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
    return answer(True, detail)
