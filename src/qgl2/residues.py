"""Arithmetic over F_p, p = RESIDUE_P, for the residue path of
matrices.stacked_nullspace.

One Gauss-Jordan elimination of kernel rows of ints mod p, and Thiele
continued fractions: a rational function over F_p read off its values
at distinct points, folded into P/Q and lifted to a Scalar by rational
reconstruction of each coefficient.  Nothing here decides a
fact over Q(i)(q): a lifted candidate is proved or dropped by its
caller's exact check.  These routines live apart from matrices.py, which
uses them, so that no module compiles larger than scalars.py: wherever
the sources are compiled at start-up, the largest compile peak shows in
the peak memory of the process.
"""

from typing import Optional

from .scalars import RESIDUE_P, ZERO, Scalar, _rational


def _residue_rref(rows: list, columns: range) -> tuple:
    """The reduced echelon form over F_p of kernel rows of nonzero ints
    in (-p, p), which are used up, pivots taken in the order of the range
    columns: (each reduced row by its pivot, without its 1 there; the
    indices of the pivot rows, which span the row space).  Forward
    elimination leaves a pivot row only columns after its pivot; below
    full rank each is then cleared at every later pivot, last first,
    which leaves it only free columns, and at full rank none is left."""
    index, basis, picked = list(range(len(rows))), {}, []
    for col in columns:
        k = next((k for k, row in enumerate(rows) if col in row), None)
        if k is not None:
            picked.append(index.pop(k))
            pivot = rows.pop(k)
            inv = pow(pivot.pop(col), -1, RESIDUE_P)
            basis[col] = {m: x * inv % RESIDUE_P for m, x in pivot.items()}
            for row in rows:
                if col in row:
                    _subtract_mod_p(row, row.pop(col), basis[col])
    if len(basis) == len(columns):
        return {col: {} for col in basis}, picked
    for col in reversed(basis):
        for later in [m for m in basis[col] if m in basis]:
            _subtract_mod_p(basis[col], basis[col].pop(later), basis[later])
    return basis, picked


def _subtract_mod_p(row: dict, c: int, other: dict) -> None:
    """row -= c * other over F_p in place; a 0 is deleted."""
    p = RESIDUE_P
    for m, y in other.items():
        x = (row.get(m, 0) - c * y) % p
        if x:
            row[m] = x
        else:
            row.pop(m, None)


def _thiele(xs: list, a: list, x: int, y: int):
    """Feed y at x to a[0] + (q - xs[0]) / (a[1] + (q - xs[1]) / ...),
    the Thiele fraction over F_p of inverse differences a: True when it
    already takes y at x (the last difference divides by 0), None on
    another division by 0, False after extending it through (x, y).  The
    differences are carried as num/den, so a step takes no inverse."""
    num, den = y, 1
    for k, (xk, ak) in enumerate(zip(xs, a)):
        d = (num - ak * den) % RESIDUE_P
        if not d:
            return True if k == len(a) - 1 else None
        num, den = (x - xk) * den % RESIDUE_P, d
    xs.append(x)
    a.append(num * pow(den, -1, RESIDUE_P) % RESIDUE_P)
    return False


def _lift(xs: list, a: list) -> Optional[Scalar]:
    """A Scalar whose residue function is the Thiele fraction (xs, a), or
    None.  The fraction is folded from its last term into P/Q over F_p;
    Q is made monic, and each coefficient is lifted by scalars._rational,
    so only real ones with parts up to 32767 lift."""
    P, Q = [a[-1]], [1]
    for xk, ak in zip(xs[-2::-1], a[-2::-1]):
        # ak + (q - xk) / (P/Q) = (ak P + (q - xk) Q) / P
        out = [ak * c for c in P] + [0] * (len(Q) + 1 - len(P))
        for m, c in enumerate(Q):
            out[m] -= xk * c
            out[m + 1] += c
        P, Q = [c % RESIDUE_P for c in out], P
    while Q and not Q[-1]:
        Q.pop()
    if not (Q and any(P)):
        return ZERO if Q else None
    inv = pow(Q[-1], -1, RESIDUE_P)
    num, den = ([_rational(c * inv % RESIDUE_P) for c in cs] for cs in (P, Q))
    return None if None in num or None in den else Scalar(num, den)
