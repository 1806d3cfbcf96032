"""Root analysis of solvable algebras and enveloping-algebra obstruction reports.

The caller supplies the torus/nilradical split of an adapted basis; the
package never decides rigidity itself (that is a Zariski-openness
statement with no algorithm here), it only evaluates the cohomological
criteria conditioned on the caller's assertion.  Rank-1 algebras get the
zero-root test: dim H^2(g, K) = 0 exactly when 0 is not a root, with an
explicit certificate cocycle when 0 is a root.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraStructure, Cochain
from .cohomology import coboundary, cohomology_dim, is_coboundary
from .errors import NotAdapted, NotRankOne

ZERO = Fraction(0)


class TorusData(namedtuple("TorusData", "torus_indices nil_indices")):
    """Index tuples of the torus and of the nilradical in an adapted basis."""

    __slots__ = ()

    @classmethod
    def from_torus(cls, dim: int, torus_indices) -> TorusData:
        torus = tuple(torus_indices)
        if len(set(torus)) != len(torus) or any(
            not 0 <= i < dim for i in torus
        ):
            raise ValueError(f"bad torus indices {torus} for dim {dim}")
        nil = tuple(i for i in range(dim) if i not in set(torus))
        return cls(torus_indices=torus, nil_indices=nil)

    @property
    def rank(self) -> int:
        return len(self.torus_indices)


RootReport = namedtuple("RootReport", "roots zero_is_root rank")


def roots(g: AlgebraStructure, torus: TorusData) -> RootReport:
    """Eigenvalues of ad X on the nilradical, in the given adapted basis.

    Requires rank 1 and [X, Y_i] = lambda_i * Y_i exactly for every nil
    index; any off-diagonal entry raises NotAdapted with the pair.
    """
    if torus.rank != 1:
        raise NotRankOne(f"rank {torus.rank} torus; root extraction needs rank 1")
    x_idx = torus.torus_indices[0]
    den, table = g.scaled_table
    out = []
    for yi in torus.nil_indices:
        root = ZERO
        for k, c in table[x_idx][yi]:
            if k != yi:
                raise NotAdapted(
                    f"[e{x_idx}, e{yi}] has a component on e{k}: "
                    "ad X is not diagonal in this basis"
                )
            root = Fraction(c, den)
        out.append(root)
    return RootReport(
        roots=tuple(out), zero_is_root=any(c == 0 for c in out), rank=1
    )


# certificate_closed and certificate_nontrivial report the checks on theta =
# w0 ^ w0' in the zero-root case, and are None otherwise
ZeroRootCriterion = namedtuple(
    "ZeroRootCriterion",
    "dim_H2_trivial zero_is_root consistent certificate_closed "
    "certificate_nontrivial",
)


def zero_root_criterion(
    g: AlgebraStructure,
    torus: TorusData,
    known_roots: tuple[Fraction, ...] | None = None,
    dim_h2: int | None = None,
) -> ZeroRootCriterion:
    """dim H^2(g, K) = 0 <=> 0 not a root, plus the certificate cocycle.

    The caller asserts rigidity; both sides are computed unconditionally
    and only their agreement is reported.  When 0 is a root, the cocycle
    pairing the torus generator with a root-0 eigenvector must be closed
    and not exact for the report to be consistent.  A caller that already
    has the roots or dim H^2(g, K) of g, such as a RigidityReport,
    passes them as known_roots and dim_h2 so they are not computed again.
    """
    if known_roots is None:
        known_roots = roots(g, torus).roots
    if dim_h2 is None:
        dim_h2 = cohomology_dim(g, 2, "trivial").dim_H
    zero_is_root = any(c == 0 for c in known_roots)
    consistent = (dim_h2 == 0) == (not zero_is_root)
    closed = nontrivial = None
    if zero_is_root:
        x_idx = torus.torus_indices[0]
        zero_idx = next(
            yi
            for yi, lam in zip(torus.nil_indices, known_roots)
            if lam == 0
        )
        key = tuple(sorted((x_idx, zero_idx)))
        theta = Cochain.build(2, g.dim, "trivial", {key: 1})
        closed = coboundary(g, theta).is_zero()
        nontrivial = not is_coboundary(g, theta)
        consistent = consistent and closed and nontrivial
    return ZeroRootCriterion(
        dim_H2_trivial=dim_h2,
        zero_is_root=zero_is_root,
        consistent=consistent,
        certificate_closed=closed,
        certificate_nontrivial=nontrivial,
    )


RigidityReport = namedtuple(
    "RigidityReport",
    "verdict theorem rank roots dim_H2_trivial note",
    defaults=(None,),
)


CONJECTURE_NOTE = (
    "informational: for solvable rigid rank-1 algebras, 0 has been "
    "conjectured never to be a root; this report does not assume it"
)


def enveloping_rigidity_report(
    g: AlgebraStructure, torus: TorusData, asserted_rigid: bool
) -> RigidityReport:
    """Non-rigidity verdict for the enveloping algebra, tagged by the rule used.

    Not asserted rigid: not rigid by inheritance.  Rank >= 2: not rigid.
    Rank 1: decided by dim H^2(g, K); zero means no obstruction from this
    criterion, it does not certify rigidity.
    """
    if not asserted_rigid:
        return RigidityReport(
            verdict="U(g) not rigid",
            theorem="base not rigid, inherited",
            rank=torus.rank,
            roots=None,
            dim_H2_trivial=None,
        )
    if torus.rank >= 2:
        return RigidityReport(
            verdict="U(g) not rigid",
            theorem="rank at least 2",
            rank=torus.rank,
            roots=None,
            dim_H2_trivial=None,
        )
    report = roots(g, torus)
    dim_h2 = cohomology_dim(g, 2, "trivial").dim_H
    note = CONJECTURE_NOTE if report.zero_is_root else None
    if dim_h2 != 0:
        return RigidityReport(
            verdict="U(g) not rigid",
            theorem="rank 1 with nonzero H2(g, K)",
            rank=1,
            roots=report.roots,
            dim_H2_trivial=dim_h2,
            note=note,
        )
    return RigidityReport(
        verdict="no obstruction from H2(g, K)",
        theorem="rank 1 with H2(g, K) = 0",
        rank=1,
        roots=report.roots,
        dim_H2_trivial=0,
        note=note,
    )
