"""Built-in catalog of representations and the claims made about them.

Each entry names a parametrized family of matrices (a GL(2) quadruple or a
q-spinor pair), its default parameter values, and the published claims the
verifier is expected to reproduce: defining relations, the quantum
determinant, operator-algebra and invariant dimensions, admissibility
verdicts, and commutant bases.  Two entries are external references whose
dimensions are recorded but not recomputed here.

Parameter conventions: every parameter has a rational default; parameters
marked nonzero reject 0.  Family mode instantiates one assignment per
parameter: the i-th assignment sets that parameter to 1 and the others to
0, except that parameters required to be nonzero fall back to the distinct
values 2, 3, ... in declaration order.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .gl2 import GL2Rep
from .matrices import Mat
from .scalars import Q, scalar
from .spinors import QSpinorRep

__all__ = [
    "Param",
    "Claims",
    "CatalogEntry",
    "CATALOG",
    "list_entries",
    "get_entry",
    "instantiate",
    "family_assignments",
    "closure_generators",
]


def _e(i: int, j: int) -> Mat:
    # 1-based matrix unit, matching the usual e_ij notation
    return Mat.unit(4, i - 1, j - 1)


_q = Q
_qi = Q.inverse()


@dataclass(frozen=True)
class Param:
    name: str
    default: Fraction
    nonzero: bool = False


@dataclass(frozen=True)
class Claims:
    """Published claims attached to a catalog entry.  None means no claim.
    Dimension and pattern claims refer to family mode; detq is parameter
    independent for every entry that claims one."""

    detq: Optional[Mat] = None
    dim_operator_algebra: Optional[int] = None
    dim_invariants: Optional[int] = None
    operator_space: Optional[tuple] = None
    invariant_space: Optional[tuple] = None
    perturbation_nonzero: Optional[bool] = None
    admissible: Optional[bool] = None
    commutant_basis: Optional[tuple] = None
    commutant_rev_basis: Optional[tuple] = None
    distinct_class_from: Optional[str] = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                       # "gl2" | "qspinor" | "external"
    description: str
    params: tuple = ()
    builder: Optional[Callable] = None
    claims: Claims = field(default_factory=Claims)


def _perturbed_a(p):
    mu = p["mu"]
    return GL2Rep(
        Mat.diag(1, _qi, 1, _qi),
        _e(1, 3).scale(_q) - _e(2, 4).scale(mu),
        _e(2, 1).scale(-mu) + _e(4, 3),
        Mat.diag(_q ** 2, _q ** 2, _q, _q) - _e(2, 3).scale(_q * mu))


def _perturbed_b(p):
    mu = p["mu"]
    return GL2Rep(
        Mat.diag(1, 1, _qi, _qi),
        _e(1, 2).scale(_q) + _e(3, 4).scale(mu),
        _e(3, 1).scale(mu) + _e(4, 2),
        Mat.diag(_q ** 2, _q, _q ** 2, _q) + _e(3, 2).scale(_q * mu))


def _triangular(p):
    return GL2Rep(
        Mat.identity(4),
        _e(1, 2).scale(p["alpha"]) + _e(2, 3).scale(p["beta"])
        + _e(2, 4).scale(p["gamma"]),
        Mat.zero(4),
        Mat.diag(_q ** 2, _q, 1, 1))


def _diagonal(p):
    a2, a3 = p["alpha2"], p["alpha3"]
    return GL2Rep(
        Mat.diag(scalar(1), _q * a2, _q * a2, a3),
        Mat.zero(4),
        Mat.zero(4),
        Mat.diag(_q ** 2, a2.inverse(), a2.inverse(), a3.inverse()))


def _admissible_a(p):
    mu = p["mu"]
    return QSpinorRep(Mat.diag(_q ** 2, _q, _q, 1),
                      _e(1, 3).scale(_q) - _e(2, 4).scale(mu))


def _admissible_b(p):
    mu = p["mu"]
    return QSpinorRep(Mat.diag(_q ** 2, _q, _q, 1),
                      _e(1, 2).scale(_q) + _e(3, 4).scale(mu))


def _admissible_jordan(p):
    a = Mat(((_q, 1, 0, 0), (0, _q, 0, 0), (0, 0, _q ** 2, 0),
             (0, 0, 0, 1)))
    return QSpinorRep(a, _e(1, 4) + _e(3, 2))


def _rejected_j3_lower(p):
    a = Mat(((_qi, 1, 0, 0), (0, _qi, 1, 0), (0, 0, _qi, 0), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(4, 3))


def _rejected_j3_upper(p):
    a = Mat(((_q, 1, 0, 0), (0, _q, 1, 0), (0, 0, _q, 0), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(1, 4))


def _rejected_diag_two_pairs(p):
    return QSpinorRep(Mat.diag(_q * 5, 5, _q, 1), _e(1, 2) + _e(3, 4))


def _rejected_diag_chain(p):
    return QSpinorRep(Mat.diag(_q, 1, 1, 1),
                      _e(1, 2) + _e(1, 3) + _e(1, 4))


def _rejected_double_jordan_up(p):
    a = Mat(((_q, 1, 0, 0), (0, _q, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(1, 3) + _e(2, 4).scale(_q))


def _rejected_double_jordan_down(p):
    a = Mat(((_qi, 1, 0, 0), (0, _qi, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(3, 1) + _e(4, 2).scale(_q))


def _rejected_jordan_diag_generic(p):
    eps = p["eps"]
    a = Mat(((eps, 1, 0, 0), (0, eps, 0, 0), (0, 0, _q, 0), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(3, 4))


def _rejected_shifted_diag(p):
    return QSpinorRep(Mat.diag(_q ** 2, _q, 1, 1) + _e(3, 4), _e(2, 4))


def _rejected_jordan_diag_top(p):
    a = Mat(((_q ** 2, 1, 0, 0), (0, _q ** 2, 0, 0), (0, 0, _q, 0),
             (0, 0, 0, 1)))
    return QSpinorRep(a, _e(1, 3) + _e(3, 4))


def _rejected_jordan_diag_unit(p):
    a = Mat(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, _q, 0), (0, 0, 0, 1)))
    return QSpinorRep(a, _e(3, 2))


_DIAG_Q2_Q_Q_1 = Mat.diag(_q ** 2, _q, _q, 1)
_DIAG_Q2_Q_1_1 = Mat.diag(_q ** 2, _q, 1, 1)


CATALOG = (
    CatalogEntry(
        name="perturbed-a",
        kind="gl2",
        description="quadruple with off-diagonal blocks on (1,3)/(2,4); "
                    "nilpotent perturbation -q(q-1)*mu*e23",
        params=(Param("mu", Fraction(1), nonzero=True),),
        builder=_perturbed_a,
        claims=Claims(
            detq=_DIAG_Q2_Q_Q_1,
            dim_operator_algebra=9,
            dim_invariants=1,
            perturbation_nonzero=True,
        ),
    ),
    CatalogEntry(
        name="perturbed-b",
        kind="gl2",
        description="quadruple with off-diagonal blocks on (1,2)/(3,4); "
                    "nilpotent perturbation q(q-1)*mu*e32",
        params=(Param("mu", Fraction(1), nonzero=True),),
        builder=_perturbed_b,
        claims=Claims(
            detq=_DIAG_Q2_Q_Q_1,
            dim_operator_algebra=9,
            dim_invariants=1,
            perturbation_nonzero=True,
            # As published; refuted by the signed 2<->3 swap; report flags it
            distinct_class_from="perturbed-a",
        ),
    ),
    CatalogEntry(
        name="triangular-dim8",
        kind="gl2",
        description="identity c11 with strictly triangular c12 on "
                    "(1,2),(2,3),(2,4) and zero c21",
        params=(Param("alpha", Fraction(1)), Param("beta", Fraction(2)),
                Param("gamma", Fraction(3))),
        builder=_triangular,
        claims=Claims(
            detq=_DIAG_Q2_Q_1_1,
            dim_operator_algebra=8,
            dim_invariants=1,
            operator_space=(
                _e(1, 1), _e(1, 2), _e(1, 3), _e(1, 4),
                _e(2, 2), _e(2, 3), _e(2, 4), _e(3, 3) + _e(4, 4)),
        ),
    ),
    CatalogEntry(
        name="diagonal-dim3",
        kind="gl2",
        description="purely diagonal quadruple with paired middle "
                    "eigenvalues",
        params=(Param("alpha2", Fraction(1), nonzero=True),
                Param("alpha3", Fraction(2), nonzero=True)),
        builder=_diagonal,
        claims=Claims(
            detq=_DIAG_Q2_Q_Q_1,
            dim_operator_algebra=3,
            dim_invariants=6,
            invariant_space=(
                _e(1, 1), _e(2, 2), _e(2, 3), _e(3, 2), _e(3, 3),
                _e(4, 4)),
        ),
    ),
    CatalogEntry(
        name="external-dim6",
        kind="external",
        description="diagonal determinant diag(a, q^2, q, 1) with generic "
                    "leading entry; dimensions recorded, not recomputed",
        claims=Claims(
            dim_operator_algebra=6,
            dim_invariants=2,
        ),
    ),
    CatalogEntry(
        name="external-dim7",
        kind="external",
        description="diagonal determinant diag(q^3, q^2, q, 1); dimensions "
                    "recorded, not recomputed",
        claims=Claims(
            dim_operator_algebra=7,
            dim_invariants=1,
        ),
    ),
    CatalogEntry(
        name="admissible-a",
        kind="qspinor",
        description="diagonal a = diag(q^2,q,q,1) with b supported on "
                    "(1,3),(2,4)",
        params=(Param("mu", Fraction(1), nonzero=True),),
        builder=_admissible_a,
        claims=Claims(
            admissible=True,
            commutant_basis=(_e(1, 2), _e(1, 3), _e(2, 4), _e(3, 4)),
            commutant_rev_basis=(_e(2, 1), _e(3, 1), _e(4, 2), _e(4, 3)),
        ),
    ),
    CatalogEntry(
        name="admissible-b",
        kind="qspinor",
        description="diagonal a = diag(q^2,q,q,1) with b supported on "
                    "(1,2),(3,4)",
        params=(Param("mu", Fraction(1), nonzero=True),),
        builder=_admissible_b,
        claims=Claims(
            admissible=True,
            commutant_basis=(_e(1, 2), _e(1, 3), _e(2, 4), _e(3, 4)),
            commutant_rev_basis=(_e(2, 1), _e(3, 1), _e(4, 2), _e(4, 3)),
        ),
    ),
    CatalogEntry(
        name="admissible-jordan",
        kind="qspinor",
        description="Jordan block at q plus diag(q^2, 1); admissible only "
                    "for the generic member e14 + e32 of the commutant",
        builder=_admissible_jordan,
        claims=Claims(
            admissible=True,
            commutant_basis=(_e(1, 4), _e(3, 2)),
        ),
    ),
    CatalogEntry(
        name="rejected-j3-lower",
        kind="qspinor",
        description="size-3 Jordan block at 1/q plus a unit eigenvalue",
        builder=_rejected_j3_lower,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(4, 3),),
            commutant_rev_basis=(_e(1, 4),),
        ),
    ),
    CatalogEntry(
        name="rejected-j3-upper",
        kind="qspinor",
        description="size-3 Jordan block at q plus a unit eigenvalue",
        builder=_rejected_j3_upper,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 4),),
            commutant_rev_basis=(_e(4, 3),),
        ),
    ),
    CatalogEntry(
        name="rejected-diag-two-pairs",
        kind="qspinor",
        description="diagonal a = diag(5q, 5, q, 1) with two q-ratio pairs",
        builder=_rejected_diag_two_pairs,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 2), _e(3, 4)),
            commutant_rev_basis=(_e(2, 1), _e(4, 3)),
        ),
    ),
    CatalogEntry(
        name="rejected-diag-chain",
        kind="qspinor",
        description="diagonal a = diag(q, 1, 1, 1) with b filling the "
                    "first row",
        builder=_rejected_diag_chain,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 2), _e(1, 3), _e(1, 4)),
            commutant_rev_basis=(_e(2, 1), _e(3, 1), _e(4, 1)),
        ),
    ),
    CatalogEntry(
        name="rejected-double-jordan-up",
        kind="qspinor",
        description="two Jordan blocks at q and 1, b in the upper-right "
                    "block",
        builder=_rejected_double_jordan_up,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 3) + _e(2, 4).scale(_q), _e(1, 4)),
            commutant_rev_basis=(_e(3, 1).scale(_q) + _e(4, 2), _e(3, 2)),
        ),
    ),
    CatalogEntry(
        name="rejected-double-jordan-down",
        kind="qspinor",
        description="two Jordan blocks at 1/q and 1, b in the lower-left "
                    "block",
        builder=_rejected_double_jordan_down,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(3, 1) + _e(4, 2).scale(_q), _e(3, 2)),
            commutant_rev_basis=(_e(1, 3).scale(_q) + _e(2, 4), _e(1, 4)),
        ),
    ),
    CatalogEntry(
        name="rejected-jordan-diag-generic",
        kind="qspinor",
        description="Jordan block at a generic constant plus diag(q, 1)",
        params=(Param("eps", Fraction(5), nonzero=True),),
        builder=_rejected_jordan_diag_generic,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(3, 4),),
            commutant_rev_basis=(_e(4, 3),),
        ),
    ),
    CatalogEntry(
        name="rejected-shifted-diag",
        kind="qspinor",
        description="diag(q^2, q, 1, 1) plus a nilpotent shift on (3,4)",
        builder=_rejected_shifted_diag,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 2), _e(2, 4)),
            commutant_rev_basis=(_e(2, 1), _e(3, 2)),
        ),
    ),
    CatalogEntry(
        name="rejected-jordan-diag-top",
        kind="qspinor",
        description="Jordan block at q^2 plus diag(q, 1)",
        builder=_rejected_jordan_diag_top,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(1, 3), _e(3, 4)),
            commutant_rev_basis=(_e(3, 2), _e(4, 3)),
        ),
    ),
    CatalogEntry(
        name="rejected-jordan-diag-unit",
        kind="qspinor",
        description="Jordan block at 1 plus diag(q, 1)",
        builder=_rejected_jordan_diag_unit,
        claims=Claims(
            admissible=False,
            commutant_basis=(_e(3, 2), _e(3, 4)),
            commutant_rev_basis=(_e(1, 3), _e(4, 3)),
        ),
    ),
)


_BY_NAME = {entry.name: entry for entry in CATALOG}


def list_entries() -> tuple:
    """Catalog entry names in canonical order."""
    return tuple(entry.name for entry in CATALOG)


def get_entry(name) -> CatalogEntry:
    """The catalog entry of that name; a CatalogEntry is returned as is."""
    if isinstance(name, CatalogEntry):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown catalog entry: {name}") from None


def _coerce_params(entry: CatalogEntry, overrides: dict) -> dict:
    values = {p.name: scalar(p.default) for p in entry.params}
    known = set(values)
    for name, value in overrides.items():
        if name not in known:
            raise ValueError(
                f"unknown parameter {name!r} for entry {entry.name!r}")
        values[name] = scalar(value)
    for p in entry.params:
        if p.nonzero and not values[p.name]:
            raise ValueError(
                f"forbidden parameter value: {p.name} = 0 in {entry.name!r}")
    return values


def instantiate(name, **overrides):
    """Build the representation for a catalog entry at its default
    parameters, with keyword overrides.  Rejects unknown entries, unknown
    parameters and forbidden zero values."""
    entry = get_entry(name)
    if entry.builder is None:
        raise ValueError(f"entry {entry.name!r} is an external reference "
                         "and cannot be instantiated")
    return entry.builder(_coerce_params(entry, overrides))


def family_assignments(entry) -> tuple:
    """The parameter assignments that make up family mode: one per
    parameter, that parameter set to 1 and the rest to 0, falling back to
    distinct nonzero values 2, 3, ... where a zero is forbidden."""
    entry = get_entry(entry)
    if not entry.params:
        return ({},)
    out = []
    for i, p in enumerate(entry.params):
        values = {}
        fallback = 2
        for j, other in enumerate(entry.params):
            if j == i:
                values[other.name] = scalar(1)
            elif other.nonzero:
                values[other.name] = scalar(fallback)
                fallback += 1
            else:
                values[other.name] = scalar(0)
        out.append(values)
    return tuple(out)


def closure_generators(entry, mode: str = "single") -> list:
    """Generators of the operator algebra for a gl2 entry: the four
    generator matrices and the inverse quantum determinant of each
    instantiation (one at defaults in single mode, one per family
    assignment in family mode)."""
    entry = get_entry(entry)
    if entry.kind != "gl2":
        raise ValueError(
            f"entry {entry.name!r} has no operator algebra (kind "
            f"{entry.kind})")
    if mode not in ("single", "family"):
        raise ValueError(f"unknown mode: {mode!r}")
    gens = []
    for values in ({},) if mode == "single" else family_assignments(entry):
        rep = instantiate(entry, **values)
        gens.extend(rep.generators())
        gens.append(rep.detq().inverse())
    return gens
