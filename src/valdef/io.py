"""JSON file formats: rational literals and algebra files.

Rational literals are "p" or "p/q" strings of ASCII decimal digits, with
an optional sign on p and a positive q: `rational_pair` reads one into
an integer pair and `ratio_str`, its inverse, is the one printer of a
rational, so no Fraction is built.  An algebra file is read into an
`AlgebraFile` whose table holds integers over one denominator, each
distinct literal of the document parsed once (`read_literal`), never
cached across calls; `read_int` reads an integer field.  Indices are
0-based everywhere.  A file is read in one unbuffered binary read, CRLF
and CR mapped to LF as text mode did, so a JSON error names the same
line, column and char.  The size limits of outside input live here too.

Every command imports this module, so it holds only what the algebra-file
commands run.  The readers and printers of series, vector and
endomorphism files are in `series`, those of cochains and deformation
files in `deformation`: the modules of the commands that read them.
`perfbench/tracer.py` wraps four of them by their old names here, so
`__getattr__` still finds those, importing their module on first use.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from math import gcd, lcm

from .algebra import AlgebraStructure
from .errors import FormatError, TooLarge


# Largest dim and cap read from outside input: a table takes dim^2 slots
# and a series cap + 1 coefficients before any work starts.  The tests and
# benchmark corpora use dims up to 12 and caps up to 24.
MAX_DIM = 100
MAX_CAP = 1000
# Largest weight-0 block of delta_p (rows x columns) that
# `cohomology.cohomology_dim` ranks, for the `cohomology` and `rigidity`
# commands alike.  Sparse fraction-free elimination on integers grows fast
# past it: a conjugated so(3) + abelian of dim 9, with no inner grading and
# not nilpotent, ranks its 756 x 324 = 244,944 H^2 adjoint block in ~17 s
# (README).  The corpora stay below 40,000.
MAX_COHOMOLOGY_CELLS = 250_000
# Largest rows x (cap + 1) series matrix built from outside input: a vector
# or endomorphism file, the coefficients of a deformation's terms, or its
# perturbation, C(n, 2) * n rows for a base of dim n
# (`series.require_series_cells`).
# It caps the matrix read, not the time or peak memory of the call: a vector
# `decompose` at the bound took 0.1 s and 41 MB on components t + t^2/2 but
# 2.3 s and 437 MB max RSS on literals such as -37/4, and a random full-rank
# vector at 1% of the bound ran 17-20 s on literals p/4 (README).  Every dim up
# to MAX_DIM still runs at cap 1.  The tests reach 19,800 and the corpora 1,250.
MAX_SERIES_CELLS = 1_000_000


def rational_pair(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" into the integers (p, q), q > 0, not reduced.

    After surrounding whitespace is stripped, the literal must match
    [+-]?[0-9]+(/[0-9]+)? in ASCII: int() alone would also read "1_0",
    non-ASCII digits and "1/ 2".
    """
    if not isinstance(text, str):
        raise FormatError(f"rational literal must be a string, got {text!r}")
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (digits.isdigit() and digits.isascii()):
        raise FormatError(f"bad rational literal {text!r}")
    if slash:
        # a q with a minus sign is read only to be refused with its own reason
        digits = den[1:] if den[:1] == "-" else den
        if not (digits.isdigit() and digits.isascii()):
            raise FormatError(f"bad rational literal {text!r}")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError as exc:  # past the interpreter's limit on int digits
        raise FormatError(f"bad rational literal {text!r}") from exc
    if den <= 0:
        raise FormatError(f"denominator must be positive in {text!r}")
    return num, den


def ratio_str(num: int, den: int) -> str:
    """num / den as a rational literal in lowest terms, for den > 0: the
    inverse of `rational_pair`, with no Fraction built.  Raises TooLarge
    when the numerator or denominator has more digits than the
    interpreter converts to a string, where `rational_pair` refuses too."""
    common = gcd(num, den)
    try:
        if common == den:
            return str(num // common)
        return f"{num // common}/{den // common}"
    except ValueError:  # past the interpreter's limit on int digits
        limit = sys.get_int_max_str_digits()
        raise TooLarge(f"a rational to print has more than {limit} digits") from None


def load_json(path: str):
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    # ValueError also covers an integer past the int digit limit, and
    # RecursionError an array or object nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def read_int(value, what: str) -> int:
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


def _index_list(value, what: str, dim: int) -> tuple[int, ...]:
    """Distinct basis indices in 0..dim-1, from a JSON array."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be an array of indices, got {value!r}")
    indices = tuple(read_int(i, f"{what} index") for i in value)
    for i in indices:
        if not 0 <= i < dim:
            raise FormatError(f"{what} index {i} outside 0..{dim - 1}")
    if len(set(indices)) != len(indices):
        raise FormatError(f"{what} repeats an index: {list(indices)}")
    return indices


def read_literal(c, seen: dict):
    """The value of rational literal c, p for p/1 else (p, q) (`rational_pair`):
    seen keeps the str literals of one document, so each is read once, and
    anything else goes to `rational_pair`, which refuses it unless a str."""
    value = seen.get(c) if type(c) is str else None
    if value is None:
        p, q = rational_pair(c)
        value = p if q == 1 else (p, q)
        if type(c) is str:
            seen[c] = value
    return value


def _parse_table(rows, what: str):
    """(den, table) of a table document: table maps each (i, j) to {k: c},
    the integer constants over den, the lcm of the literals' denominators
    (each read once by `read_literal`; no Fraction is built).  Only the
    entry syntax is checked here; `AlgebraStructure.scaled` checks the
    ranges."""
    if not isinstance(rows, list):
        raise FormatError(f"{what} must be an array of entries")
    seen, table = {}, {}
    for row in rows:
        try:
            i = x if type(x := row["i"]) is int else read_int(x, f"{what} i")
            j = x if type(x := row["j"]) is int else read_int(x, f"{what} j")
            out = {}
            for cell in row["out"]:
                k = x if type(x := cell["k"]) is int else read_int(x, f"{what} out index")
                if k in out:
                    raise FormatError(f"{what} entry ({i},{j}) repeats out index {k}")
                out[k] = read_literal(cell["c"], seen)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad {what} entry {row!r}") from exc
        if (i, j) in table:
            raise FormatError(f"duplicate {what} entry for ({i},{j})")
        table[(i, j)] = out
    values = (v for out in table.values() for v in out.values())
    den = lcm(1, *(v[1] for v in values if type(v) is tuple))
    if den > 1:
        for out in table.values():
            for k, v in out.items():
                out[k] = v * den if type(v) is int else v[0] * (den // v[1])
    return den, table


def _structure(dim: int, kind: str, parsed) -> AlgebraStructure:
    """`AlgebraStructure.scaled` of a `_parse_table` result, its range
    errors as FormatError."""
    try:
        return AlgebraStructure.scaled(dim, kind, *parsed)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# kind is "lie", "assoc" or "poisson"; algebra is the AlgebraStructure of
# the first two and the nonassoc.PoissonStructure of the last; torus is a
# tuple of indices or None
AlgebraFile = namedtuple("AlgebraFile", "kind algebra torus")


def parse_algebra(doc) -> AlgebraFile:
    if not isinstance(doc, dict):
        raise FormatError("algebra file must be a JSON object")
    if "dim" not in doc or "kind" not in doc:
        raise FormatError("algebra file needs integer 'dim' and 'kind'")
    dim = read_int(doc["dim"], "dim")
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
        return AlgebraFile(kind, poisson, torus)
    if kind not in ("lie", "assoc"):
        raise FormatError(f"unknown algebra kind {kind!r}")
    table = _parse_table(doc.get("table", []), "table")
    return AlgebraFile(kind, _structure(dim, kind, table), torus)


def load_algebra(path: str) -> AlgebraFile:
    return parse_algebra(load_json(path))


def __getattr__(name: str):
    """The readers and printers that moved to `series` and `deformation`
    and that `perfbench/tracer.py` wraps by their old names here."""
    if name in ("parse_vector", "parse_endomorphism"):
        from . import series as home
    elif name in ("parse_deformation", "deformation_doc"):
        from . import deformation as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)
