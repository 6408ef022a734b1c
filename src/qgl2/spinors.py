"""q-spinor pairs: matrices satisfying a*b = q*b*a.

The central objects are pairs (a, b) of square matrices obeying the
q-commutation rule a*b = q*b*a, the solution spaces of the one-sided
commutation equations, and an admissibility test that asks for a third
matrix c with c*b = q*b*c and c*a = q*a*c such that c*b is nonzero.
"""

from dataclasses import dataclass

from .conjugacy import Verdict, scaled_conjugacy
from .matrices import Mat, MatSpace, stacked_nullspace
from .scalars import Q, Scalar

__all__ = [
    "QSpinorRep",
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

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise ValueError("dimension mismatch")


def check_spinor(a: Mat, b: Mat) -> bool:
    """Whether a * b == q * b * a holds exactly."""
    return a * b == (b * a).scale(Q)


def q_commutant(a: Mat, q: Scalar = Q, reverse: bool = False) -> MatSpace:
    """Solutions x of a*x = q*x*a, or of x*a = q*a*x when reverse is set.

    The default orientation collects the partners b that complete a into a
    q-spinor pair (a, b); the reverse orientation collects the b' with
    b'*a = q*a*b'.  Returns the canonical basis of the solution space.
    """
    # a*x = q*x*a is x*(q*a) = a*x
    return stacked_nullspace([(a, a.scale(q)) if reverse
                              else (a.scale(q), a)])


def admissibility(a: Mat, b: Mat, q: Scalar = Q,
                  orientation: str = "default") -> tuple:
    """Decide admissibility of the q-spinor pair (a, b).

    The pair must satisfy a*b = q*b*a (ValueError "not a q-spinor"
    otherwise).  It is admissible when some c satisfies c*b = q'*b*c and
    c*a = q'*a*c with c*b nonzero, where q' is q for the default
    orientation and 1/q for the flipped one.  Returns (c_space, verdict):
    the space of all such c, and a Verdict whose witness is the first
    basis element with c*b != 0; a "no" is "proved exactly".
    """
    if orientation not in ("default", "flipped"):
        raise ValueError(f"unknown orientation: {orientation!r}")
    # a * b raises ValueError "dimension mismatch" on sizes that differ
    if a * b != (b * a).scale(q):
        raise ValueError("not a q-spinor")
    qq = q if orientation == "default" else q.inverse()
    space = stacked_nullspace([(b, b.scale(qq)), (a, a.scale(qq))])
    # c -> c*b is linear, so it vanishes on the whole space iff it
    # vanishes on every basis element
    witness = next((c for c in space.basis if not (c * b).is_zero()), None)
    return space, Verdict(witness, "witness found" if witness is not None
                          else "proved exactly")


def spinor_equivalent(r1: QSpinorRep, r2: QSpinorRep) -> Verdict:
    """Search for (u, alpha) with r2.a = u r1.a u^-1 alpha and
    r2.b = u r1.b u^-1 alpha over the monomials alpha = q^k of
    conjugacy.scaled_conjugacy, which returns the Verdict."""
    return scaled_conjugacy([(r1.a, r2.a, 0), (r1.b, r2.b, 0)])
