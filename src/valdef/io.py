"""JSON file formats shared by the CLI and tests.

Rational literals are "p" or "p/q" strings with positive decimal q.  A
series literal is an array of rational strings ordered from t^0, e.g.
["0","2","1"] is 2t + t^2; it may be shorter than cap+1 (zero padded)
but never longer.  Indices are 0-based everywhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraStructure, Cochain
from .errors import FormatError
from .nonassoc import PoissonStructure
from .series import SeriesVector, TruncSeries, parse_rational, rational_str


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _int(value, what: str) -> int:
    """An integer field of outside input, or FormatError naming the field."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what} must be an integer, got {value!r}") from exc


def _cap(value) -> int:
    cap = _int(value, "cap")
    if cap < 0:
        raise FormatError(f"cap must be non-negative, got {cap}")
    return cap


def _index_list(value, what: str, dim: int) -> tuple[int, ...]:
    """Distinct basis indices in 0..dim-1, from a JSON array."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be an array of indices, got {value!r}")
    indices = tuple(_int(i, f"{what} index") for i in value)
    for i in indices:
        if not 0 <= i < dim:
            raise FormatError(f"{what} index {i} outside 0..{dim - 1}")
    if len(set(indices)) != len(indices):
        raise FormatError(f"{what} repeats an index: {list(indices)}")
    return indices


def parse_series_literal(items, cap: int) -> TruncSeries:
    if not isinstance(items, list):
        raise FormatError(f"series literal must be an array, got {items!r}")
    if len(items) > cap + 1:
        raise FormatError(
            f"series literal has {len(items)} coefficients, cap {cap} allows "
            f"{cap + 1}"
        )
    return TruncSeries.from_coeffs([parse_rational(c) for c in items], cap=cap)


def series_literal(s: TruncSeries) -> list[str]:
    return [rational_str(c) for c in s.coeffs]


def _parse_table(rows, what: str):
    if not isinstance(rows, list):
        raise FormatError(f"{what} must be an array of entries")
    table = {}
    for row in rows:
        try:
            i, j = int(row["i"]), int(row["j"])
            out = {}
            for cell in row["out"]:
                k = int(cell["k"])
                if k in out:
                    raise FormatError(f"{what} entry ({i},{j}) repeats out index {k}")
                out[k] = parse_rational(cell["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad {what} entry {row!r}") from exc
        if (i, j) in table:
            raise FormatError(f"duplicate {what} entry for ({i},{j})")
        table[(i, j)] = out
    return table


@dataclass(frozen=True)
class AlgebraFile:
    kind: str
    structure: AlgebraStructure | None
    poisson: PoissonStructure | None
    torus: tuple[int, ...] | None


def parse_algebra(doc) -> AlgebraFile:
    if not isinstance(doc, dict):
        raise FormatError("algebra file must be a JSON object")
    if "dim" not in doc or "kind" not in doc:
        raise FormatError("algebra file needs integer 'dim' and 'kind'")
    dim = _int(doc["dim"], "dim")
    if dim < 1:
        raise FormatError(f"dim must be at least 1, got {dim}")
    kind = doc["kind"]
    basis = doc.get("basis")
    if basis is not None and not isinstance(basis, list):
        raise FormatError(f"basis must be an array of names, got {basis!r}")
    torus = _index_list(doc["torus"], "torus", dim) if "torus" in doc else None
    if kind == "poisson":
        if "assoc_table" not in doc or "bracket_table" not in doc:
            raise FormatError(
                "poisson files carry 'assoc_table' and 'bracket_table'"
            )
        try:
            poisson = PoissonStructure.build(
                dim,
                _parse_table(doc["assoc_table"], "assoc_table"),
                _parse_table(doc["bracket_table"], "bracket_table"),
            )
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        return AlgebraFile(kind=kind, structure=None, poisson=poisson, torus=torus)
    if kind not in ("lie", "assoc"):
        raise FormatError(f"unknown algebra kind {kind!r}")
    table = _parse_table(doc.get("table", []), "table")
    try:
        if kind == "lie":
            structure = AlgebraStructure.lie(dim, table, basis=basis)
        else:
            structure = AlgebraStructure.assoc(dim, table, basis=basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return AlgebraFile(kind=kind, structure=structure, poisson=None, torus=torus)


def load_algebra(path: str) -> AlgebraFile:
    return parse_algebra(load_json(path))


def parse_vector(doc, default_cap: int) -> SeriesVector:
    if not isinstance(doc, dict) or "components" not in doc:
        raise FormatError("vector file needs a 'components' array")
    cap = _cap(doc.get("cap", default_cap))
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise FormatError("'components' must be a non-empty array")
    return SeriesVector(tuple(parse_series_literal(c, cap) for c in comps))


def parse_cochain(doc, dim: int, degree: int = 2, target: str = "adjoint") -> Cochain:
    """Parse a cochain object, or a bare values array (degree-2 adjoint)."""
    if isinstance(doc, list):
        values = doc
    elif isinstance(doc, dict):
        degree = _int(doc.get("degree", degree), "cochain degree")
        target = doc.get("target", target)
        values = doc.get("values", [])
    else:
        raise FormatError(f"bad cochain {doc!r}")
    if target not in ("adjoint", "trivial"):
        raise FormatError(f"unknown cochain target {target!r}")
    vals = {}
    for row in values:
        try:
            key = tuple(_int(i, "cochain args index") for i in row["args"])
            if key in vals:
                raise FormatError(f"duplicate cochain entry for args {list(key)}")
            if target == "adjoint":
                vec = [Fraction(0)] * dim
                seen = set()
                for cell in row["out"]:
                    k = _int(cell["k"], "cochain out index")
                    if not 0 <= k < dim:
                        raise FormatError(f"cochain out index {k} outside 0..{dim - 1}")
                    if k in seen:
                        raise FormatError(
                            f"cochain entry for args {list(key)} repeats out index {k}"
                        )
                    seen.add(k)
                    vec[k] = parse_rational(cell["c"])
                vals[key] = tuple(vec)
            else:
                vals[key] = parse_rational(row["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad cochain entry {row!r}") from exc
    try:
        return Cochain.build(degree, dim, target, vals)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def cochain_doc(c: Cochain) -> dict:
    rows = []
    for key in sorted(c.values):
        if c.target == "adjoint":
            rows.append(
                {
                    "args": list(key),
                    "out": [
                        {"k": k, "c": rational_str(v)}
                        for k, v in enumerate(c.values[key])
                        if v
                    ],
                }
            )
        else:
            rows.append({"args": list(key), "c": rational_str(c.values[key])})
    return {"degree": c.degree, "target": c.target, "values": rows}


def parse_deformation(doc, base_dir: str, default_cap: int):
    from .deformation import Deformation

    if not isinstance(doc, dict):
        raise FormatError("deformation file must be a JSON object")
    base_spec = doc.get("base")
    if isinstance(base_spec, str):
        path = base_spec
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        base_file = load_algebra(path)
    elif isinstance(base_spec, dict):
        base_file = parse_algebra(base_spec)
    else:
        raise FormatError("deformation file needs 'base': object or path")
    if base_file.kind != "lie":
        raise FormatError("deformation base must be a lie-kind algebra")
    base = base_file.structure
    cap = _cap(doc.get("cap", default_cap))
    rows = doc.get("terms", [])
    if not isinstance(rows, list):
        raise FormatError(f"deformation 'terms' must be an array, got {rows!r}")
    terms = []
    for row in rows:
        try:
            coeff = parse_series_literal(row["coeff"], cap)
            cochain = parse_cochain(row["cochain"], base.dim)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad deformation term {row!r}") from exc
        terms.append((coeff, cochain))
    try:
        return Deformation.build(base, cap, terms)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_endomorphism(doc, dim: int, default_cap: int):
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise FormatError("endomorphism file needs a 'matrix' array")
    cap = _cap(doc.get("cap", default_cap))
    matrix = doc["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != dim
        or any(not isinstance(row, list) or len(row) != dim for row in matrix)
    ):
        raise FormatError(f"endomorphism matrix must be {dim}x{dim}")
    return tuple(
        tuple(parse_series_literal(entry, cap) for entry in row) for row in matrix
    )


def deformation_doc(d) -> dict:
    return {
        "cap": d.cap,
        "terms": [
            {"coeff": series_literal(c), "cochain": cochain_doc(phi)}
            for c, phi in d.terms
        ],
    }
