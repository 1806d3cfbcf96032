"""Reference cohomology dimensions, computed apart from valdef.

The differentials come from exact.ce_matrix, built straight from the
structure constants, and sympy's DomainMatrix over QQ ranks them.  Ranks,
and so the Z/B/H dimensions, do not depend on sign conventions or on the
basis, so one entry per adapted isomorphism class also answers its
conjugated copies.  Runs in its own process so that neither sympy's
import nor its memory lands in a measured workload.

Answers are recomputed on every run (about a second for a corpus) and
never cached:

    python3 perfbench/reference.py KEYS.json ANSWERS.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import exact as ex  # noqa: E402

COHOMOLOGY = [(1, "adjoint"), (1, "trivial"), (2, "adjoint"), (2, "trivial")]


def sympy_rank(matrix, nrows, ncols) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not matrix:
        return 0
    rows = {
        r: {c: QQ(v.numerator, v.denominator) for c, v in row.items()}
        for r, row in matrix.items()
    }
    return DomainMatrix(rows, (nrows, ncols), QQ).rank()


def answers(dim, table) -> dict:
    """{"deg-coeff": {"Z", "B", "H"}} plus the sympy rank time per matrix."""
    ranks, seconds = {}, {}
    for degree in (0, 1, 2):
        for coeff in ("adjoint", "trivial"):
            matrix, nrows, ncols = ex.ce_matrix(table, dim, degree, coeff)
            t0 = time.perf_counter()
            ranks[(degree, coeff)] = sympy_rank(matrix, nrows, ncols)
            seconds[f"{degree}-{coeff}"] = round(time.perf_counter() - t0, 6)
    out = {"rank_seconds": seconds}
    for deg, coeff in COHOMOLOGY:
        z = ex.cochain_dim(dim, deg, coeff) - ranks[(deg, coeff)]
        b = ranks[(deg - 1, coeff)]
        out[f"{deg}-{coeff}"] = {"Z": z, "B": b, "H": z - b}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("keys", help="JSON list of class keys, as corpus.LieClass.key")
    parser.add_argument("out", help="where to write {key: answers}")
    args = parser.parse_args(argv)
    with open(args.keys, encoding="utf-8") as fh:
        keys = json.load(fh)
    out = {}
    for key in keys:
        dim, rows = json.loads(key)
        out[key] = answers(dim, ex.table_from_doc(rows))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
