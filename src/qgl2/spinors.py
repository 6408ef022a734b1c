"""q-spinor pairs: matrices satisfying a*b = q*b*a.

The central objects are pairs (a, b) of square matrices obeying the
q-commutation rule a*b = q*b*a, the solution spaces of the one-sided
commutation equations, and an admissibility test that asks for a third
matrix c with c*b = q*b*c and c*a = q*a*c such that c*b is nonzero.
"""

from dataclasses import dataclass
from typing import Optional

from .matrices import Mat, MatSpace, _scaled_conjugacy, stacked_nullspace
from .scalars import Q, Scalar

__all__ = [
    "QSpinorRep",
    "AdmissibilityWitness",
    "check_spinor",
    "q_commutant",
    "admissibility",
    "spinor_equivalent",
]


@dataclass(frozen=True)
class QSpinorRep:
    """A candidate q-spinor pair.  check_spinor decides whether the
    defining relation a*b = q*b*a actually holds."""

    a: Mat
    b: Mat
    q: Scalar = Q

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise ValueError("dimension mismatch")


def check_spinor(rep: QSpinorRep) -> bool:
    """Whether rep.a * rep.b == rep.q * rep.b * rep.a holds exactly."""
    return rep.a * rep.b == rep.q * (rep.b * rep.a)


def q_commutant(a: Mat, q: Scalar = Q, reverse: bool = False) -> MatSpace:
    """Solutions x of a*x = q*x*a, or of x*a = q*a*x when reverse is set.

    The default orientation collects the partners b that complete a into a
    q-spinor pair (a, b); the reverse orientation collects the b' with
    b'*a = q*a*b'.  Returns the canonical basis of the solution space.
    """
    one = type(a.rows[0][0]).one()
    if reverse:
        terms = [(None, a, one), (a, None, -q)]
    else:
        terms = [(a, None, one), (None, a, -q)]
    return stacked_nullspace(a.n, [terms])


@dataclass(frozen=True)
class AdmissibilityWitness:
    """Outcome of the admissibility test.

    c_space is the space of all c with c*b = q'*b*c and c*a = q'*a*c for
    the requested orientation (q' = q or 1/q); witness is a basis element
    with witness*b != 0 when one exists, else None.
    """

    admissible: bool
    c_space: MatSpace
    witness: Optional[Mat]


def admissibility(a: Mat, b: Mat, q: Scalar = Q,
                  orientation: str = "default") -> AdmissibilityWitness:
    """Decide admissibility of the q-spinor pair (a, b).

    The pair must satisfy a*b = q*b*a (ValueError "not a q-spinor"
    otherwise).  It is admissible when some c satisfies c*b = q'*b*c and
    c*a = q'*a*c with c*b nonzero, where q' is q for the default
    orientation and 1/q for the flipped one.
    """
    if orientation not in ("default", "flipped"):
        raise ValueError(f"unknown orientation: {orientation!r}")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if not check_spinor(QSpinorRep(a, b, q)):
        raise ValueError("not a q-spinor")
    qq = q if orientation == "default" else q.inverse()
    one = type(a.rows[0][0]).one()
    space = stacked_nullspace(a.n, [
        [(None, b, one), (b, None, -qq)],
        [(None, a, one), (a, None, -qq)],
    ])
    # c -> c*b is linear, so it vanishes on the whole space iff it
    # vanishes on every basis element
    witness = None
    for c in space.basis:
        if not (c * b).is_zero():
            witness = c
            break
    return AdmissibilityWitness(witness is not None, space, witness)


def spinor_equivalent(r1: QSpinorRep, r2: QSpinorRep) -> Optional[tuple]:
    """Search for (u, alpha) with r2.a = u r1.a u^-1 alpha and
    r2.b = u r1.b u^-1 alpha, with alpha ranging over the monomials q^k,
    |k| <= matrices.MAX_EXPONENT.

    Returns the exactly verified witness pair, or None when no witness
    exists within that family of scalings.
    """
    if r1.q != r2.q:
        return None
    if r1.a.n != r2.a.n:
        return None
    return _scaled_conjugacy([(r1.a, r2.a, 0), (r1.b, r2.b, 0)],
                             [(r1.a, r2.a, (1,)), (r1.b, r2.b, (1,))])
