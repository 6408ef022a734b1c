"""Arithmetic over F_p for the two modular routes of qgl2: the gcd of
scalars._cancel and the residue kernel of matrices.stacked_nullspace.

A prime p = 1 (mod 4) and a square root r of -1 mod p map Z[i] localized
at (p, i - r) onto F_p (_residues, then _residue_at for q -> t).  Over
F_p there are one gcd (_gcd_mod_p), one Gauss-Jordan elimination
(_residue_rref) and Thiele fractions (_thiele, _fold).  Both routes lift
coefficients by _lift over the primes of _moduli, each part by
_rational.  Only ints enter and leave: scalars.py and matrices.py build
every GaussRational and Scalar, and prove or drop each candidate.
"""

from math import isqrt
from typing import Optional

# the first residue point: a prime p = 1 (mod 4) below 2^31, a square root
# of -1 mod p, and q0, a primitive root mod p, so that q0^k != 1 for
# 0 < k < p - 1
RESIDUE_P = 2147483629
RESIDUE_I = 629208553
RESIDUE_Q0 = 1234567891


def _moduli():
    """(p, r), p a prime = 1 (mod 4) and r^2 = -1 (mod p): RESIDUE_P and
    RESIDUE_I, then each such p above 2^62 in turn, proved prime by
    Miller-Rabin on the 13 prime bases up to 41 (a proof below 3.3e24,
    Sorenson and Webster 2015), with r = a^((p-1)/4) for the least
    quadratic non-residue a."""
    yield RESIDUE_P, RESIDUE_I
    for p in range(2 ** 62 + 1, 3 * 10 ** 24, 4):
        d, s = p - 1, 0
        while not d & 1:
            d, s = d >> 1, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            x = pow(a, d, p)
            if x != 1 and p - 1 not in [pow(x, 1 << j, p) for j in range(s)]:
                break
        else:
            a = next(a for a in range(2, p) if pow(a, p // 2, p) == p - 1)
            yield p, pow(a, p // 4, p)


def _residues(poly: tuple, p: int, r: int):
    """The images in F_p of the coefficients of poly under i -> r, or None
    when p divides a coefficient denominator."""
    out = []
    for c in poly:
        d = c.d
        num = c.a + c.b * r
        if d != 1:
            if not d % p:
                return None
            num *= pow(d, -1, p)
        out.append(num % p)
    return out


def _residue_at(cell: tuple, t: int, p: int):
    """The image at q -> t of num/den given by cell, the coefficient
    residues (_residues) of num and of den, by Horner's rule: an int in
    [0, p), or None at a pole (a residue list is None, or den maps to 0)."""
    if None in cell:
        return None
    num = den = 0
    for c in reversed(cell[1]):
        den = (den * t + c) % p
    for c in reversed(cell[0]):
        num = (num * t + c) % p
    if den == 1:
        return num
    return num * pow(den, -1, p) % p if den else None


def _gcd_mod_p(num: tuple, den: tuple, p: int, r: int) -> Optional[list]:
    """The monic gcd over F_p of num and den mapped at i -> r, or None at
    a pole or where a leading coefficient maps to 0."""
    a, b = _residues(num, p, r), _residues(den, p, r)
    if a is None or b is None or not (a[-1] and b[-1]):
        return None
    while b:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        while len(a) > n:
            c = a.pop() * inv % p
            s = len(a) - n
            for k in range(n):
                a[s + k] = (a[s + k] - c * b[k]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _rational(r: int, m: int = RESIDUE_P) -> Optional[tuple]:
    """(a, b) for the rational a/b with |a|, b <= N = isqrt(m/2), b > 0
    and a = b*r mod m, or None, by the half-extended Euclidean algorithm
    (Wang 1981).  2 N^2 < m for odd m, so at most one reduced a/b is in
    range."""
    n = isqrt(m // 2)
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > n:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > n:
        return None
    return (r1 if t1 > 0 else -r1), abs(t1)


def _lift(a: list, b: list, p: int, r: int, combined: list, m: int) -> tuple:
    """One prime's step of the lift of coefficients of Q(i) with images a
    at i -> r and b at i -> p - r: their real and imaginary parts mod p,
    half sum and half difference over r, join by CRT combined, the parts
    mod m, the product of the primes before ([] at m = 1).  Returns
    (combined, M = m p, h), h each coefficient (x + y*i)/d as (x, y, d),
    both parts reconstructed by _rational at M, or None."""
    half, over, inv = (p + 1) // 2, pow(2 * r, -1, p), pow(m, -1, p)
    parts = [(x + y) * half for x, y in zip(a, b)] \
        + [(x - y) * over for x, y in zip(a, b)]
    combined = [x + m * ((y - x) * inv % p)
                for x, y in zip(combined or [0] * len(parts), parts)]
    m *= p
    lifted = [_rational(x, m) for x in combined]
    if None in lifted:
        return combined, m, None
    return combined, m, [(x * e, y * d, d * e) for (x, d), (y, e)
                         in zip(lifted[:len(a)], lifted[len(a):])]


def _residue_rref(rows: list, columns: range, p: int) -> tuple:
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
            inv = pow(pivot.pop(col), -1, p)
            basis[col] = {m: x * inv % p for m, x in pivot.items()}
            for row in rows:
                if col in row:
                    _subtract_mod_p(row, row.pop(col), basis[col], p)
    if len(basis) == len(columns):
        return {col: {} for col in basis}, picked
    for col in reversed(basis):
        for later in [m for m in basis[col] if m in basis]:
            _subtract_mod_p(basis[col], basis[col].pop(later), basis[later], p)
    return basis, picked


def _subtract_mod_p(row: dict, c: int, other: dict, p: int) -> None:
    """row -= c * other over F_p in place; a 0 is deleted."""
    for m, y in other.items():
        x = (row.get(m, 0) - c * y) % p
        if x:
            row[m] = x
        else:
            row.pop(m, None)


def _thiele(xs: list, a: list, x: int, y: int, p: int):
    """Feed y at x to a[0] + (q - xs[0]) / (a[1] + (q - xs[1]) / ...),
    the Thiele fraction over F_p of inverse differences a: True when it
    already takes y at x (the last difference divides by 0), None on
    another division by 0, False after extending it through (x, y).  The
    differences are carried as num/den, so a step takes no inverse."""
    num, den = y, 1
    for k, (xk, ak) in enumerate(zip(xs, a)):
        d = (num - ak * den) % p
        if not d:
            return True if k == len(a) - 1 else None
        num, den = (x - xk) * den % p, d
    xs.append(x)
    a.append(num * pow(den, -1, p) % p)
    return False


def _fold(xs: list, a: list, p: int) -> Optional[tuple]:
    """The Thiele fraction (xs, a) as (P, Q) over F_p, folded from its
    last term, with Q monic and P without trailing zeros (([], []) for
    0), or None when Q is 0."""
    P, Q = [a[-1]], [1]
    for xk, ak in zip(xs[-2::-1], a[-2::-1]):
        # ak + (q - xk) / (P/Q) = (ak P + (q - xk) Q) / P
        out = [ak * c for c in P] + [0] * (len(Q) + 1 - len(P))
        for m, c in enumerate(Q):
            out[m] -= xk * c
            out[m + 1] += c
        P, Q = [c % p for c in out], P
    while Q and not Q[-1]:
        Q.pop()
    if not (Q and any(P)):
        return ([], []) if Q else None
    if Q[-1] != 1:
        inv = pow(Q[-1], -1, p)
        P, Q = [c * inv % p for c in P], [c * inv % p for c in Q]
    while not P[-1]:
        P.pop()
    return P, Q
