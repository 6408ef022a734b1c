"""Reference objects that only the tests use."""

import random
from fractions import Fraction

from qgl2.gl2 import GL2Rep
from qgl2.matrices import Mat, MatSpace, _sparse, rref
from qgl2.residues import (RESIDUE_I, RESIDUE_P, RESIDUE_Q0, _residue_at,
                           _residues)
from qgl2.scalars import ONE, Q, Scalar


def q_integer(k: int) -> Scalar:
    """The q-integer [k] = (q^k - 1)/(q - 1) = 1 + q + ... + q^(k-1)."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("undefined q-integer")
    return (Q ** k - ONE) / (Q - ONE)


def unimodular(entry, n: int) -> Mat:
    """An integer matrix of determinant 1: a lower times an upper
    unitriangular matrix, each off-diagonal entry an int entry() draws."""
    def part(upper):
        return Mat([[1 if i == j else entry() if (j > i) == upper else 0
                     for j in range(n)] for i in range(n)])
    return part(False) * part(True)


def dense_conjugator(seed: int) -> Mat:
    """A dense 4 x 4 u with i and q among its entries, drawn by
    random.Random(seed); seed 1 gives the u of the installed-command CI
    step."""
    values = ["0", "1", "-1", "2", "q", "q + 1", "1 - q", "i", "i*q + 1"]
    rng = random.Random(seed)
    return Mat([[rng.choice(values) for _ in range(4)] for _ in range(4)])


def residue(x: Scalar):
    """The image of x in F_p, p = RESIDUE_P, under q -> RESIDUE_Q0 and
    i -> RESIDUE_I, as an int in [0, p); None at a pole, that is when p
    divides a coefficient denominator or the denominator's image is 0.
    On the scalars without a pole this is a ring homomorphism: their
    num/den lie in Z_(p)[i][q] with a unit image of den."""
    p, r = RESIDUE_P, RESIDUE_I
    return _residue_at((_residues(x.num, p, r), _residues(x.den, p, r)),
                       RESIDUE_Q0, p)


def classical_point(n: int = 4) -> GL2Rep:
    """The commutative quadruple: identity diagonal generators, zero
    off-diagonal ones.  Useful as a baseline; its invariant space is the
    whole matrix algebra."""
    return GL2Rep(Mat.identity(n), Mat.zero(n), Mat.zero(n), Mat.identity(n))


def sandwich_rows(n: int, terms: list, z) -> list:
    """Reference vectorization of X -> sum(c * P X Q) as an n^2 x n^2 row
    list, the general term format that matrices.stacked_nullspace replaced.

    Each term is (P, Q, c) with P, Q an n x n Mat or None for the identity.
    Row-major convention: the (i, j) entry of P X Q picks up coefficient
    P[i][k] * Q[l][j] on X[k][l], so row i*n+j, column k*n+l.
    """
    size = n * n
    rows = [[z] * size for _ in range(size)]
    for p, q, c in terms:
        for i in range(n):
            for k in range(n):
                if p is None:
                    if i != k:
                        continue
                    cp = c
                else:
                    pik = p.rows[i][k]
                    if not pik:
                        continue
                    cp = c * pik
                for l in range(n):
                    if q is None:
                        rows[i * n + l][k * n + l] += cp
                    else:
                        for j in range(n):
                            if q.rows[l][j]:
                                rows[i * n + j][k * n + l] += cp * q.rows[l][j]
    return rows


def sandwich_kernel(n: int, operators: list) -> MatSpace:
    """Reference joint kernel of several X -> sum(c * P X Q) operators,
    each given as its term list; the coefficients fix the field."""
    one = type(operators[0][0][2]).one()
    z = type(one).zero()
    rows = [_sparse(row) for terms in operators
            for row in sandwich_rows(n, terms, z)]
    reduced, pivots = rref(rows)
    space = MatSpace(n)
    for fc in range(n * n):
        if fc not in pivots:
            v = [z] * (n * n)
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r].get(fc, z)
            space._insert(v)
    return space


def _sympy_scalar(x):
    """A qgl2 scalar, or its text, as a sympy expression over Q(i)(q)
    with q a symbol."""
    import sympy

    names = {"q": sympy.Symbol("q"), "i": sympy.I}
    return sympy.sympify(str(x).replace("^", "**"), locals=names)


def _sympy_matrix(rows):
    import sympy

    return sympy.Matrix([[_sympy_scalar(x) for x in row] for row in rows])


def _cancels(m) -> bool:
    import sympy

    return all(sympy.cancel(x) == 0 for x in m)


def det_vanishes(space: MatSpace) -> bool:
    """Whether det(sum t_j B_j) over the basis B_1..B_d of space is the
    zero polynomial in t_1..t_d, computed by sympy with q a symbol."""
    import sympy

    ts = sympy.symbols(f"t1:{space.dim + 1}")
    total = sympy.zeros(space.n)
    for t, b in zip(ts, space.basis):
        total += t * _sympy_matrix(b.rows)
    return _cancels([total.det()])


def intertwines(x, equations) -> bool:
    """Whether x g1 alpha - g2 x cancels to 0 for every (g1, g2, alpha)
    in equations, computed by sympy with q a symbol.  Matrices are given
    by their rows and alpha as a scalar, each entry a qgl2 scalar or its
    text; so the check runs no qgl2 arithmetic."""
    x = _sympy_matrix(x)
    return all(_cancels(x * _sympy_matrix(g1) * _sympy_scalar(alpha)
                        - _sympy_matrix(g2) * x)
               for g1, g2, alpha in equations)


def singular(x) -> bool:
    """Whether det x cancels to 0, x given as for intertwines."""
    return _cancels([_sympy_matrix(x).det()])


def product_vanishes(x, y) -> bool:
    """Whether x y cancels to 0, x and y given as for intertwines."""
    return _cancels(_sympy_matrix(x) * _sympy_matrix(y))


def at_point(rows, q0: Fraction) -> list:
    """The rows of a matrix at q = q0 as Fractions, computed by sympy, each
    entry given as for intertwines; an entry with i or a pole raises."""
    import sympy

    point = {sympy.Symbol("q"): sympy.Rational(q0.numerator, q0.denominator)}
    out = []
    for row in rows:
        values = [_sympy_scalar(x).subs(point) for x in row]
        if not all(v.is_Rational for v in values):
            raise ValueError(f"no rational value at q = {q0}: {values}")
        out.append([Fraction(int(v.p), int(v.q)) for v in values])
    return out


def fraction_rank(rows: list) -> int:
    """The rank of a list of equal-length lists of Fractions, by Gaussian
    elimination on a copy."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][col] / rows[rank][col]
            if f:
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def commutator_rows(g: list) -> list:
    """The n^2 rows of X -> X G - G X for G an n x n grid, row-major as in
    sandwich_rows: row i*n+j has G[k][j] at column i*n+k and -G[i][k] at
    column k*n+j."""
    n = len(g)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += g[k][j]
                row[k * n + j] -= g[i][k]
            rows.append(row)
    return rows
