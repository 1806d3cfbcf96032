"""Root analysis of solvable algebras and enveloping-algebra obstruction reports.

The caller supplies the torus/nilradical split of an adapted basis; the
package never decides rigidity itself (that is a Zariski-openness
statement with no algorithm here), it only evaluates the cohomological
criteria conditioned on the caller's assertion.  Rank-1 algebras get the
zero-root test: dim H^2(g, K) = 0 exactly when 0 is not a root, with an
explicit certificate cocycle when 0 is a root.  A root is an integer
pair (num, den) in lowest terms, den > 0, printed by `series.ratio_str`.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .algebra import AlgebraStructure, Cochain
from .cohomology import coboundary, cohomology_dim, is_coboundary
from .errors import NotAdapted, NotRankOne


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
    index; any off-diagonal entry raises NotAdapted with the pair.  Each
    lambda_i is the pair (num, den) in lowest terms, den > 0.
    """
    if torus.rank != 1:
        raise NotRankOne(f"rank {torus.rank} torus; root extraction needs rank 1")
    x_idx = torus.torus_indices[0]
    den, table = g.scaled_table
    out = []
    for yi in torus.nil_indices:
        root = (0, 1)
        for k, c in table[x_idx][yi]:
            if k != yi:
                raise NotAdapted(
                    f"[e{x_idx}, e{yi}] has a component on e{k}: "
                    "ad X is not diagonal in this basis"
                )
            common = gcd(c, den)
            root = (c // common, den // common)
        out.append(root)
    return RootReport(
        roots=tuple(out), zero_is_root=any(num == 0 for num, _ in out), rank=1
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
    known_roots: tuple[tuple[int, int], ...],
    dim_h2: int,
) -> ZeroRootCriterion:
    """dim H^2(g, K) = 0 <=> 0 not a root, plus the certificate cocycle.

    known_roots and dim_h2 are the roots and dim H^2(g, K) of g, computed
    once by `enveloping_rigidity_report`; only their agreement is
    reported.  When 0 is a root, the cocycle pairing the torus generator
    with a root-0 eigenvector must be closed and not exact for the report
    to be consistent.
    """
    zero_is_root = any(num == 0 for num, _ in known_roots)
    consistent = (dim_h2 == 0) == (not zero_is_root)
    closed = nontrivial = None
    if zero_is_root:
        x_idx = torus.torus_indices[0]
        zero_idx = next(
            yi
            for yi, (num, _) in zip(torus.nil_indices, known_roots)
            if num == 0
        )
        key = tuple(sorted((x_idx, zero_idx)))
        theta = Cochain.scaled(2, g.dim, "trivial", 1, {key: (1,)})
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


# roots and dim_H2_trivial are None unless rank 1 is asserted rigid;
# zero_root is the criterion of any rank-1 torus, None for other ranks
RigidityReport = namedtuple(
    "RigidityReport",
    "verdict theorem rank roots dim_H2_trivial note zero_root",
    defaults=(None,) * 4,
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
    criterion, it does not certify rigidity.  The roots and dim H^2(g, K)
    of any rank-1 torus are computed once, asserted or not, and give the
    zero-root criterion; an asserted rank-0 torus raises NotRankOne.
    """
    crit = None
    if torus.rank == 1 or (asserted_rigid and torus.rank == 0):
        found = roots(g, torus)
        dim_h2 = cohomology_dim(g, 2, "trivial").dim_H
        crit = zero_root_criterion(g, torus, found.roots, dim_h2)
    if not asserted_rigid or torus.rank >= 2:
        theorem = "rank at least 2" if asserted_rigid else "base not rigid, inherited"
        return RigidityReport("U(g) not rigid", theorem, torus.rank, zero_root=crit)
    if dim_h2:
        verdict, theorem = "U(g) not rigid", "rank 1 with nonzero H2(g, K)"
    else:
        verdict, theorem = "no obstruction from H2(g, K)", "rank 1 with H2(g, K) = 0"
    note = CONJECTURE_NOTE if found.zero_is_root else None
    return RigidityReport(verdict, theorem, 1, found.roots, dim_h2, note, crit)
