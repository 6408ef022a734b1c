"""Reference objects that only the tests use."""

from qgl2.gl2 import GL2Rep
from qgl2.matrices import Mat, MatSpace, _sparse, rref
from qgl2.scalars import ONE, Q, Scalar


def q_integer(k: int) -> Scalar:
    """The q-integer [k] = (q^k - 1)/(q - 1) = 1 + q + ... + q^(k-1)."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("undefined q-integer")
    return (Q ** k - ONE) / (Q - ONE)


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


def det_vanishes(space: MatSpace) -> bool:
    """Whether det(sum t_j B_j) over the basis B_1..B_d of space is the
    zero polynomial in t_1..t_d, computed by sympy with q a symbol."""
    import sympy

    names = {"q": sympy.Symbol("q"), "i": sympy.I}
    ts = sympy.symbols(f"t1:{space.dim + 1}")
    total = sympy.zeros(space.n)
    for t, b in zip(ts, space.basis):
        total += t * sympy.Matrix([
            [sympy.sympify(str(x).replace("^", "**"), locals=names)
             for x in row] for row in b.rows])
    return sympy.cancel(total.det()) == 0
