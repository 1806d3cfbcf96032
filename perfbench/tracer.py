"""Spans around valdef's public functions, recorded from outside the package.

install() replaces every binding of each listed function: the module
attribute, each `from module import name` copy in another valdef module,
and the class attribute for methods.  So `cli.cohomology_dim`,
`deformation.circle` and the module-global `rref` that `linalg.rank`
calls are all seen.  Spans live in flat arrays (parent id, name, case,
start, end) and are written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYERS = {
    "cli": ["main"],
    "io": ["load_algebra", "parse_deformation", "parse_vector",
           "parse_endomorphism", "deformation_doc"],
    "linalg": ["rank", "rref", "solve_combination", "row_space"],
    "cohomology": ["cohomology_dim", "coboundary_matrix", "coboundary", "circle",
                   "is_coboundary"],
    "algebra": ["AlgebraStructure.bilinear", "associator", "jacobiator", "is_lie"],
    "nonassoc": ["g_associative_check", "dual_identity_check", "tensor_product",
                 "poisson_verify", "poisson_tensor", "opposite_poisson"],
    "series": ["TruncSeries.__mul__", "TruncSeries.div_exact", "TruncSeries.invert"],
    "decompose": ["decompose", "recompose", "flag_of"],
    "deformation": ["jacobi_residual", "decompose_deformation", "graded_system",
                    "transport", "series_matrix_inverse", "series_matrix_mul",
                    "polynomial_form_check"],
    "rigidity": ["roots", "zero_root_criterion", "enveloping_rigidity_report"],
}
# metric name for a qualified attribute where it differs from the attribute
SHORT = {"AlgebraStructure.bilinear": "bilinear", "TruncSeries.__mul__": "mul",
         "TruncSeries.div_exact": "div_exact", "TruncSeries.invert": "invert"}

NAMES = [f"{mod}.{SHORT.get(attr, attr)}" for mod, attrs in LAYERS.items() for attr in attrs]


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x:
                b = x.numerator.bit_length() + x.denominator.bit_length()
                if b > best:
                    best = b
    return best


class Tracer:
    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.rank_cells = 0
        self.entry_bits_max = 0
        self.case = -1
        self.parent = array("q")
        self.name = array("H")
        self.case_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._child: list = []
        self._paused = 0.0

    def clock(self) -> float:
        """perf_counter with the tracer's own bookkeeping cut out."""
        return time.perf_counter() - self._paused

    def _wrap(self, idx, fn, pre=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                t = time.perf_counter()
                pre(*args)
                tracer._paused += time.perf_counter() - t
            stack, child = tracer._stack, tracer._child
            sid = len(tracer.start)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.name.append(idx)
            tracer.case_of.append(tracer.case)
            start = tracer.clock()
            tracer.start.append(start)
            tracer.end.append(start)
            stack.append(sid)
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                covered = child.pop()
                dur = end - start
                tracer.end[sid] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - covered
                if child:
                    child[-1] += dur

        return wrapper

    def _rank_pre(self, rows, *_):
        self.rank_cells += len(rows) * (len(rows[0]) if rows else 0)

    def _rref_pre(self, rows, *_):
        self.entry_bits_max = max(self.entry_bits_max, _bits(rows))

    def install(self):
        import importlib

        modules = {mod: importlib.import_module(f"valdef.{mod}") for mod in LAYERS}
        idx = 0
        for mod, attrs in LAYERS.items():
            for attr in attrs:
                owner = modules[mod]
                if "." in attr:
                    cls_name, attr_name = attr.split(".")
                    owner = getattr(owner, cls_name)
                else:
                    attr_name = attr
                original = getattr(owner, attr_name)
                pre = {"linalg.rank": self._rank_pre,
                       "linalg.rref": self._rref_pre}.get(NAMES[idx])
                wrapped = self._wrap(idx, original, pre)
                setattr(owner, attr_name, wrapped)
                for name, module in list(sys.modules.items()):
                    if not name.startswith("valdef") or module is None:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                idx += 1

    def metrics(self) -> dict:
        out = {}
        for n, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[n]
            out[f"{name}.self_s"] = self.self_s[n]
        out["linalg.rank.cells"] = self.rank_cells
        out["linalg.entry_bits_max"] = self.entry_bits_max
        return out

    def write(self, path):
        """One line per span: id, parent id, case, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tcase\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.case_of[sid]}\t"
                    f"{NAMES[self.name[sid]]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
