"""Quantum GL(2) generator quadruples acting on a 4-dimensional space.

A GL2Rep packages four n x n matrices (c11, c12, c21, c22) that are
supposed to satisfy the six defining relations of the quantum group, with
quantum determinant c11*c22 - c12*c21.  Everything here verifies those
relations exactly, derives the standard consequences (invertibility of the
diagonal generators, nilpotency of the off-diagonal ones), and searches
for equivalences between quadruples up to conjugation and column scaling.
"""

from dataclasses import dataclass, fields

from .conjugacy import Verdict, scaled_conjugacy
from .matrices import Mat
from .scalars import ONE, Q

__all__ = [
    "GL2Rep",
    "RelationReport",
    "InvertibilityReport",
    "PowerCommutatorReport",
    "QuantumPlaneReport",
    "verify_relations",
    "invertibility_nilpotency_check",
    "power_commutator_check",
    "quantum_plane_split",
    "gl2_equivalent",
]


@dataclass(frozen=True)
class GL2Rep:
    c11: Mat
    c12: Mat
    c21: Mat
    c22: Mat

    def __post_init__(self):
        n = self.c11.n
        if not (self.c12.n == n and self.c21.n == n and self.c22.n == n):
            raise ValueError("dimension mismatch")

    @property
    def n(self) -> int:
        return self.c11.n

    def generators(self) -> tuple:
        return (self.c11, self.c12, self.c21, self.c22)

    def detq(self) -> Mat:
        """Quantum determinant c11*c22 - c12*c21."""
        return self.c11 * self.c22 - self.c12 * self.c21

    def perturbation(self) -> Mat:
        """(q - 1) * c12 * c21, the defect of commutativity of the
        diagonal generators: c22*c11 - c11*c22 equals this when the
        relations hold."""
        return (self.c12 * self.c21).scale(Q - ONE)

    def block_matrix(self) -> Mat:
        """The 2n x 2n matrix with blocks [[c11, c12], [c21, c22]]."""
        halves = ((self.c11, self.c12), (self.c21, self.c22))
        return Mat([r1 + r2 for left, right in halves
                    for r1, r2 in zip(left.rows, right.rows)])


RELATION_LABELS = (
    "c11*c12 = c12*c11",
    "c21*c11 = q*c11*c21",
    "c22*c12 = q*c12*c22",
    "c21*c22 = c22*c21",
    "c21*c12 = q*c12*c21",
    "c22*c11 - c11*c22 = (q-1)*c12*c21",
)


@dataclass(frozen=True)
class RelationReport:
    """Exact outcome of the six defining relations plus the quantum
    determinant and perturbation facts.  ok requires all six relations
    and an invertible determinant; perturbation_nonzero is informational
    (diagonal quadruples legitimately have zero perturbation)."""

    relations: dict
    detq: Mat
    detq_invertible: bool
    perturbation: Mat
    perturbation_nonzero: bool

    @property
    def ok(self) -> bool:
        return all(self.relations.values()) and self.detq_invertible


def verify_relations(rep: GL2Rep) -> RelationReport:
    a, b, c, d = rep.generators()
    pert = rep.perturbation()
    checks = (
        a * b == b * a,
        c * a == (a * c).scale(Q),
        d * b == (b * d).scale(Q),
        c * d == d * c,
        c * b == (b * c).scale(Q),
        d * a - a * d == pert,
    )
    detq = rep.detq()
    return RelationReport(
        relations=dict(zip(RELATION_LABELS, checks)),
        detq=detq,
        detq_invertible=detq.is_invertible(),
        perturbation=pert,
        perturbation_nonzero=not pert.is_zero(),
    )


@dataclass(frozen=True)
class InvertibilityReport:
    """Consequences that must follow once the relations hold and detq is
    invertible: diagonal generators invertible, off-diagonal generators
    nilpotent, and the diagonal of c12*c21 zero.  Whether those premises
    hold is verify_relations(rep).ok; failures lists what broke."""

    c11_invertible: bool
    c22_invertible: bool
    c12_nilpotent: bool
    c21_nilpotent: bool
    offdiag_product_diag_zero: bool

    @property
    def failures(self) -> tuple:
        return tuple(f.name for f in fields(self)
                     if not getattr(self, f.name))


def invertibility_nilpotency_check(rep: GL2Rep) -> InvertibilityReport:
    prod = rep.c12 * rep.c21
    return InvertibilityReport(
        c11_invertible=rep.c11.is_invertible(),
        c22_invertible=rep.c22.is_invertible(),
        c12_nilpotent=rep.c12.is_nilpotent(),
        c21_nilpotent=rep.c21.is_nilpotent(),
        offdiag_product_diag_zero=not any(
            prod.rows[i][i] for i in range(rep.n)),
    )


@dataclass(frozen=True)
class PowerCommutatorReport:
    """Power commutation identity checker.

    With eps = x*y - y*x, the premise is eps*x = q*x*eps.  When it holds,
    x^k*y - y*x^k must equal (1 + q + ... + q^(k-1)) * x^(k-1) * eps for
    every k; results records (k, bool) for k = 1..kmax.  A failed premise
    is reported, not raised."""

    premise_holds: bool
    results: tuple

    @property
    def ok(self) -> bool:
        return self.premise_holds and all(r for _, r in self.results)


def power_commutator_check(x: Mat, y: Mat,
                           kmax: int) -> PowerCommutatorReport:
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    eps = x * y - y * x
    if eps * x != (x * eps).scale(Q):
        return PowerCommutatorReport(premise_holds=False, results=())
    results = []
    coeff = ONE    # 1 + q + ... + q^(k-1)
    qpow = ONE     # q^(k-1)
    xk = Mat.identity(x.n)   # x^(k-1)
    xk1 = x                  # x^k
    for k in range(1, kmax + 1):
        if k > 1:
            qpow = qpow * Q
            coeff = coeff + qpow
        lhs = xk1 * y - y * xk1
        rhs = (xk * eps).scale(coeff)
        results.append((k, lhs == rhs))
        xk = xk1
        xk1 = xk1 * x
    return PowerCommutatorReport(premise_holds=True, results=tuple(results))


_PAIR_ORDER = (
    ("c21", "c11"), ("c21", "a12"), ("c21", "a22"),
    ("c11", "a12"), ("c11", "a22"), ("a12", "a22"),
)


@dataclass(frozen=True)
class QuantumPlaneReport:
    """Pairwise commutation behaviour of {c21, c11, a12, a22} where
    a12 = c11^-1 * c12 and a22 = c11^-1 * detq.  For each pair (x, y) the
    labels of every relation that holds are listed: "xy=yx", "xy=q*yx",
    "yx=q*xy"; an empty tuple means none of them.  Purely a report, no
    relation is asserted."""

    elements: dict
    pairs: dict


def quantum_plane_split(rep: GL2Rep) -> QuantumPlaneReport:
    inv = rep.c11.inverse()
    elements = {
        "c21": rep.c21,
        "c11": rep.c11,
        "a12": inv * rep.c12,
        "a22": inv * rep.detq(),
    }
    pairs = {}
    for xn, yn in _PAIR_ORDER:
        x, y = elements[xn], elements[yn]
        xy, yx = x * y, y * x
        labels = []
        if xy == yx:
            labels.append("xy=yx")
        if xy == yx.scale(Q):
            labels.append("xy=q*yx")
        if yx == xy.scale(Q):
            labels.append("yx=q*xy")
        pairs[f"{xn},{yn}"] = tuple(labels)
    return QuantumPlaneReport(elements=elements, pairs=pairs)


def gl2_equivalent(r1: GL2Rep, r2: GL2Rep) -> Verdict:
    """Search for (u, alpha1, alpha2) with

        r2.c11 = u r1.c11 u^-1 alpha1,   r2.c21 = u r1.c21 u^-1 alpha1,
        r2.c12 = u r1.c12 u^-1 alpha2,   r2.c22 = u r1.c22 u^-1 alpha2,

    over the monomials q^k of conjugacy.scaled_conjugacy, which returns
    the Verdict.  Column rescaling preserves the defining relations, so
    this is the natural equivalence for quadruples.
    """
    return scaled_conjugacy(
        [(r1.c11, r2.c11, 0), (r1.c21, r2.c21, 0),
         (r1.c12, r2.c12, 1), (r1.c22, r2.c22, 1)])
