"""JSON file formats shared by the CLI and tests.

Rational literals are "p" or "p/q" strings of ASCII decimal digits, with
an optional sign on p and a positive q.  A series literal is an array of
rational strings ordered from t^0, e.g. ["0","2","1"] is 2t + t^2; it may
be shorter than cap+1 (zero padded) but never longer.  Series, tables
and cochains are read and written as integers over one denominator: a
series literal into the integer series `(den, nums)` in lowest terms, and
a vector or endomorphism file into one canonical `(den, rows)`.
Indices are 0-based everywhere.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from math import lcm

from .algebra import AlgebraStructure, Cochain, check_key
from .errors import FormatError, TooLarge
from .series import lowest_terms, ratio_str, rational_pair


# Largest dim and cap read from outside input: a table takes dim^2 slots
# and a series cap + 1 coefficients before any work starts.  The tests and
# benchmark corpora use dims up to 12 and caps up to 24.
MAX_DIM = 100
MAX_CAP = 1000
# Largest weight-0 block of delta_p (rows x columns) that
# `cohomology.cohomology_dim` ranks, for the `cohomology` and `rigidity`
# commands alike.  Dense rational elimination grows fast past it: a conjugated
# so(3) + abelian of dim 9, with no inner grading and not nilpotent, ranks
# its 756 x 324 = 244,944 H^2 adjoint block in ~17 s (README).  The corpora
# stay below 40,000.
MAX_COHOMOLOGY_CELLS = 250_000
# Largest rows x (cap + 1) series matrix built from outside input: a vector
# or endomorphism file, the coefficients of a deformation's terms, or its
# perturbation, C(n, 2) * n rows for a base of dim n (`require_series_cells`).
# It caps the matrix read, not the time or peak memory of the call: a vector
# `decompose` at the bound took 0.1 s and 41 MB on components t + t^2/2 but
# 2.3 s and 437 MB max RSS on literals such as -37/4, and a full-rank vector
# at 1% of the bound ran 53.6 s (README).  Every dim up to MAX_DIM still runs
# at cap 1.  The tests reach 19,800 and the corpora 1,250.
MAX_SERIES_CELLS = 1_000_000


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    # ValueError also covers an integer past the int digit limit, and
    # RecursionError an array or object nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _int(value, what: str) -> int:
    """An integer field of outside input, or FormatError naming the field.

    A boolean, a string or a number with a fractional part is refused, not
    rounded or parsed: int() would read true as 1, 0.7 as 0 and " 1 " as 1,
    and integers are JSON numbers.
    """
    if type(value) is int:
        return value
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what} must be an integer, got {value!r}") from exc


def _cap(value) -> int:
    cap = _int(value, "cap")
    if cap < 0:
        raise FormatError(f"cap must be non-negative, got {cap}")
    if cap > MAX_CAP:
        raise FormatError(f"cap {cap} exceeds the largest supported cap {MAX_CAP}")
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


def require_series_cells(rows: int, cap: int, what: str) -> None:
    """Raise TooLarge, before anything is allocated, when rows series of
    cap + 1 coefficients exceed MAX_SERIES_CELLS entries."""
    cells = rows * (cap + 1)
    if cells > MAX_SERIES_CELLS:
        raise TooLarge(
            f"{rows} {what} of {cap + 1} coefficients = {cells} entries exceed "
            f"the largest supported {MAX_SERIES_CELLS}"
        )


def _read_series(literals, cap: int) -> tuple[int, list[list[int]]]:
    """The canonical (den, rows) of series literals, each zero padded to
    cap, their coefficients read in order as integer pairs (`rational_pair`)
    and put over the lcm of the denominators."""
    require_series_cells(len(literals), cap, "series")
    pairs = []
    for items in literals:
        if not isinstance(items, list):
            raise FormatError(f"series literal must be an array, got {items!r}")
        if len(items) > cap + 1:
            raise FormatError(
                f"series literal has {len(items)} coefficients, cap {cap} allows "
                f"{cap + 1}"
            )
        pairs.append([rational_pair(c) for c in items])
    den = lcm(1, *(q for row in pairs for _, q in row))
    rows = [
        [p * (den // q) for p, q in row] + [0] * (cap + 1 - len(row)) for row in pairs
    ]
    return lowest_terms(den, rows)


def parse_series_literal(items, cap: int) -> tuple[int, tuple[int, ...]]:
    """The integer series (den, nums) of a literal in lowest terms, padded
    with zeros to cap."""
    den, (nums,) = _read_series([items], cap)
    return den, tuple(nums)


def series_literal(s) -> list[str]:
    """The coefficients of an integer series (den, nums) as rational
    strings, each in lowest terms."""
    den, nums = s
    return [ratio_str(x, den) for x in nums]


def _parse_table(rows, what: str):
    """(den, table) of a table document: table maps each (i, j) to {k: c},
    the integer constants over den, the lcm of the literals' denominators
    (each read by `rational_pair`; no Fraction is built).  Only the entry
    syntax is checked here; `AlgebraStructure.scaled` checks the ranges."""
    if not isinstance(rows, list):
        raise FormatError(f"{what} must be an array of entries")
    table = {}
    for row in rows:
        try:
            i, j = _int(row["i"], f"{what} i"), _int(row["j"], f"{what} j")
            out = {}
            for cell in row["out"]:
                k = _int(cell["k"], f"{what} out index")
                if k in out:
                    raise FormatError(f"{what} entry ({i},{j}) repeats out index {k}")
                out[k] = rational_pair(cell["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad {what} entry {row!r}") from exc
        if (i, j) in table:
            raise FormatError(f"duplicate {what} entry for ({i},{j})")
        table[(i, j)] = out
    den = lcm(1, *(q for out in table.values() for _, q in out.values()))
    return den, {
        key: {k: p * (den // q) for k, (p, q) in out.items()}
        for key, out in table.items()
    }


def _structure(dim: int, kind: str, parsed) -> AlgebraStructure:
    """`AlgebraStructure.scaled` of a `_parse_table` result, its range
    errors as FormatError."""
    try:
        return AlgebraStructure.scaled(dim, kind, *parsed)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# kind is "lie", "assoc" or "poisson"; structure is the AlgebraStructure of
# the first two and poisson the nonassoc.PoissonStructure of the last, the
# other None; torus is a tuple of indices or None
AlgebraFile = namedtuple("AlgebraFile", "kind structure poisson torus")


def parse_algebra(doc) -> AlgebraFile:
    if not isinstance(doc, dict):
        raise FormatError("algebra file must be a JSON object")
    if "dim" not in doc or "kind" not in doc:
        raise FormatError("algebra file needs integer 'dim' and 'kind'")
    dim = _int(doc["dim"], "dim")
    if dim < 1:
        raise FormatError(f"dim must be at least 1, got {dim}")
    if dim > MAX_DIM:
        raise FormatError(f"dim {dim} exceeds the largest supported dim {MAX_DIM}")
    kind = doc["kind"]
    # the basis names are checked but not kept: nothing reads them
    basis = doc.get("basis")
    if basis is not None and not isinstance(basis, list):
        raise FormatError(f"basis must be an array of names, got {basis!r}")
    torus = _index_list(doc["torus"], "torus", dim) if "torus" in doc else None
    if kind == "poisson":
        from .nonassoc import PoissonStructure

        if "assoc_table" not in doc or "bracket_table" not in doc:
            raise FormatError(
                "poisson files carry 'assoc_table' and 'bracket_table'"
            )
        product = _parse_table(doc["assoc_table"], "assoc_table")
        bracket = _parse_table(doc["bracket_table"], "bracket_table")
        poisson = PoissonStructure(
            dim, _structure(dim, "assoc", product), _structure(dim, "assoc", bracket)
        )
        return AlgebraFile(kind=kind, structure=None, poisson=poisson, torus=torus)
    if kind not in ("lie", "assoc"):
        raise FormatError(f"unknown algebra kind {kind!r}")
    table = _parse_table(doc.get("table", []), "table")
    structure = _structure(dim, kind, table)
    return AlgebraFile(kind=kind, structure=structure, poisson=None, torus=torus)


def load_algebra(path: str) -> AlgebraFile:
    return parse_algebra(load_json(path))


def parse_vector(doc, default_cap: int) -> tuple[int, list[list[int]]]:
    """The canonical (den, rows) of a vector file: component i is rows[i] / den."""
    if not isinstance(doc, dict) or "components" not in doc:
        raise FormatError("vector file needs a 'components' array")
    cap = _cap(doc.get("cap", default_cap))
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise FormatError("'components' must be a non-empty array")
    return _read_series(comps, cap)


def parse_cochain(doc, dim: int, degree: int = 2, target: str = "adjoint") -> Cochain:
    """Parse a cochain object, or a bare values array (degree-2 adjoint).

    Each entry is read as an integer pair (`rational_pair`), and all are
    put over the lcm of their denominators; no Fraction is built.
    """
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
    adjoint = target == "adjoint"
    vals = {}
    for row in values:
        try:
            key = tuple(_int(i, "cochain args index") for i in row["args"])
            if key in vals:
                raise FormatError(f"duplicate cochain entry for args {list(key)}")
            if adjoint:
                cells = {}
                for cell in row["out"]:
                    k = _int(cell["k"], "cochain out index")
                    if not 0 <= k < dim:
                        raise FormatError(f"cochain out index {k} outside 0..{dim - 1}")
                    if k in cells:
                        raise FormatError(
                            f"cochain entry for args {list(key)} repeats out index {k}"
                        )
                    cells[k] = rational_pair(cell["c"])
                vals[key] = cells
            else:
                vals[key] = {0: rational_pair(row["c"])}
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad cochain entry {row!r}") from exc
    try:
        for key in vals:
            check_key(key, degree, dim)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    den = lcm(1, *(q for cells in vals.values() for _, q in cells.values()))
    nums = {key: [0] * (dim if adjoint else 1) for key in vals}
    for key, cells in vals.items():
        for k, (p, q) in cells.items():
            nums[key][k] = p * (den // q)
    return Cochain.scaled(degree, dim, target, den, nums)


def cochain_doc(c: Cochain) -> dict:
    """The cochain file object of c, each entry in lowest terms."""
    rows = []
    for key in sorted(c.values):
        val = c.values[key]
        if c.target == "adjoint":
            out = [{"k": k, "c": ratio_str(x, c.den)} for k, x in enumerate(val) if x]
            rows.append({"args": list(key), "out": out})
        else:
            rows.append({"args": list(key), "c": ratio_str(val[0], c.den)})
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
    require_series_cells(len(rows), cap, "deformation terms")
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
    """The canonical (den, rows) of an endomorphism file: entry (r, c) is
    rows[r][c] / den, its literals read row-major."""
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
    den, entries = _read_series([entry for row in matrix for entry in row], cap)
    return den, [entries[r * dim : (r + 1) * dim] for r in range(dim)]


def deformation_doc(d) -> dict:
    return {
        "cap": d.cap,
        "terms": [
            {"coeff": series_literal(c), "cochain": cochain_doc(phi)}
            for c, phi in d.terms
        ],
    }
